"""Per-layer spans and counts around latticedyn, installed from outside the package.

Each hook replaces a name where its caller looks it up (a module global, a
class attribute, or an entry of the CLI's command table) with a wrapper that
records a span: name, start, end and enclosing span.  Spans are kept in flat
arrays in memory.  A layer's self time is its spans' duration minus the time
their child spans cover.  A hook whose target no longer exists is skipped and
the metrics that need it are reported as missing; the run goes on.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from array import array

import numpy as np

# metric -> (unit, spans it is computed from)
PER_LAYER = {
    "cli.self_s": ("s", ["cli.cmd"]),
    "cli.artifact_bytes": ("B", []),
    "attractor.import_s": ("s", []),
    "attractor.sample_s": ("s", ["attractor.sample_attractor"]),
    "attractor.integrate_calls": ("count", ["attractor.integrate_final"]),
    "attractor.hausdorff_s": ("s", ["attractor.hausdorff"]),
    "attractor.tail_certificate_s": ("s", ["attractor.tail_certificate"]),
    "dynamics.rk4_steps": ("count", ["dynamics.rk4_step"]),
    "dynamics.rhs_evals": ("count", ["dynamics.rhs"]),
    "dynamics.rows_per_rhs": ("rows", ["dynamics.rhs"]),
    "dynamics.rhs_s": ("s", ["dynamics.rhs"]),
    "dynamics.rhs_ns_per_site": ("ns", ["dynamics.rhs"]),
    "dynamics.step_overhead_s": ("s", ["dynamics.integrate", "attractor.integrate_final", "dynamics.rk4_step"]),
    "dynamics.nonlinearity_s": ("s", ["dynamics.nonlinearity"]),
    "operators.laplacian_s": ("s", ["operators.laplacian"]),
    "forcing.eval_calls": ("count", ["forcing.eval_window"]),
    "forcing.eval_s": ("s", ["forcing.eval_window"]),
    "estimates.tail_mass_calls": ("count", ["estimates.tail_mass"]),
}
COUNTS = {name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "B")}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.kind = array("i")
        self.parent = array("i")
        self.stack: list[int] = []
        self.rows = 0
        self.sites = 0
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for buf in (self.start, self.end, self.kind, self.parent):
            del buf[:]
        self.stack.clear()
        self.rows = self.sites = 0

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        start, end, kind, parent, stack, clock = (
            self.start, self.end, self.kind, self.parent, self.stack, time.perf_counter)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def wrap_rhs_factory(self, make):
        """Wrap a ``make_*_rhs`` factory so each returned closure is a
        ``dynamics.rhs`` span that also counts rows and row-sites."""

        @functools.wraps(make)
        def factory(*args, **kwargs):
            traced = self.wrap("dynamics.rhs", make(*args, **kwargs))

            def rhs(t, u):
                shape = np.shape(u)
                rows = shape[0] if len(shape) == 2 else 1
                self.rows += rows
                self.sites += rows * shape[-1]
                return traced(t, u)

            return rhs

        return factory

    def wrap_nonlinearity_factory(self, make):
        """Wrap ``make_nonlinearity`` so the returned ``func`` is a span."""
        registered = self.wrap("cli.library", make)

        @functools.wraps(make)
        def factory(*args, **kwargs):
            nl = registered(*args, **kwargs)
            return dataclasses.replace(nl, func=self.wrap("dynamics.nonlinearity", nl.func))

        return factory

    def patch(self, owner, attr: str, span: str, wrapper=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by its traced form."""
        is_dict = isinstance(owner, dict)
        original = owner.get(attr) if is_dict else getattr(owner, attr, None)
        if original is None:
            self.missing.add(span)
            return
        replacement = wrapper(original) if wrapper else self.wrap(span, original)
        if is_dict:
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        size = len(self.names)
        if not len(self.kind):
            return {name: (0, 0.0, 0.0) for name in self.names}
        kind = np.array(self.kind)
        parent = np.array(self.parent)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(kind, minlength=size)
        total = np.bincount(kind, weights=dur, minlength=size)
        own = np.bincount(kind, weights=dur - covered, minlength=size)
        return {name: (int(calls[i]), float(total[i]), float(own[i])) for i, name in enumerate(self.names)}


def install(tracer: Tracer) -> None:
    """Hook latticedyn's layers where the CLI and the library look them up."""
    from latticedyn import attractor, cli, dynamics, forcing

    commands = getattr(cli, "_COMMANDS", {})
    for command in ("simulate", "attractor", "converge"):
        tracer.patch(commands, command, "cli.cmd")
    for owner, attr, span in (
        (cli, "sample_attractor", "attractor.sample_attractor"),
        (attractor, "sample_attractor", "attractor.sample_attractor"),
        (cli, "convergence_study", "attractor.convergence_study"),
        (cli, "tail_certificate", "attractor.tail_certificate"),
        (attractor, "hausdorff_semidistance", "attractor.hausdorff"),
        (attractor, "integrate_final", "attractor.integrate_final"),
        (attractor, "tail_mass", "estimates.tail_mass"),
        (cli, "integrate", "dynamics.integrate"),
        (dynamics, "rk4_step", "dynamics.rk4_step"),
        (dynamics, "apply_laplacian", "operators.laplacian"),
        (forcing.QuasiPeriodicForcing, "eval_window", "forcing.eval_window"),
    ):
        tracer.patch(owner, attr, span)
    for owner, attr in ((cli, "make_finite_rhs"), (attractor, "make_finite_rhs"),
                        (attractor, "make_reference_rhs")):
        tracer.patch(owner, attr, "dynamics.rhs", tracer.wrap_rhs_factory)
    tracer.patch(cli, "make_nonlinearity", "dynamics.nonlinearity", tracer.wrap_nonlinearity_factory)
    # every other library function and method the CLI calls, so that
    # cli.self_s keeps only the CLI's own work: formatting and writing artifacts
    hooked = {attr for owner, attr, _ in tracer._undo if owner is cli}
    for attr, obj in list(vars(cli).items()):
        if (inspect.isfunction(obj) and attr not in hooked
                and obj.__module__.startswith("latticedyn.") and obj.__module__ != cli.__name__):
            tracer.patch(cli, attr, "cli.library")
    for cls, method in ((dynamics.Trajectory, "norms_sq"),
                        (attractor.AttractorCloud, "diameter"),
                        (attractor.AttractorCloud, "norms")):
        tracer.patch(cls, method, "cli.library")


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    spans = tracer.totals()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    evals = calls("dynamics.rhs")
    return {
        "cli.self_s": own("cli.cmd"),
        "cli.artifact_bytes": artifact_bytes,
        "attractor.sample_s": own("attractor.sample_attractor"),
        "attractor.integrate_calls": calls("attractor.integrate_final"),
        "attractor.hausdorff_s": total("attractor.hausdorff"),
        "attractor.tail_certificate_s": total("attractor.tail_certificate"),
        "dynamics.rk4_steps": calls("dynamics.rk4_step"),
        "dynamics.rhs_evals": evals,
        "dynamics.rows_per_rhs": tracer.rows / evals if evals else 0.0,
        "dynamics.rhs_s": total("dynamics.rhs"),
        "dynamics.rhs_ns_per_site": 1e9 * total("dynamics.rhs") / tracer.sites if tracer.sites else 0.0,
        "dynamics.step_overhead_s": sum(own(s) for s in PER_LAYER["dynamics.step_overhead_s"][1]),
        "dynamics.nonlinearity_s": total("dynamics.nonlinearity"),
        "operators.laplacian_s": total("operators.laplacian"),
        "forcing.eval_calls": calls("forcing.eval_window"),
        "forcing.eval_s": total("forcing.eval_window"),
        "estimates.tail_mass_calls": calls("estimates.tail_mass"),
    }


def missing_metrics(tracer: Tracer) -> set[str]:
    return {name for name, (_, spans) in PER_LAYER.items() if tracer.missing.intersection(spans)}
