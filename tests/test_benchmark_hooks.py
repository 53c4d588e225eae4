"""The per-layer tracer of ``perfbench/`` hooks latticedyn names from outside
the package; a hook whose target is gone turns its metrics into "missing"
without failing the benchmark run.  This guard fails instead."""

import importlib.util
from pathlib import Path

import numpy as np

from latticedyn import attractor, cli, dynamics
from latticedyn.forcing import QuasiPeriodicForcing

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_finds_its_target_and_is_restored():
    tracing = load_tracing()
    modules = (attractor, cli, dynamics)
    before = [dict(vars(m)) for m in modules] + [dict(cli._COMMANDS)]
    methods = [(cls, name, getattr(cls, name)) for cls, name in (
        (QuasiPeriodicForcing, "eval_window"), (dynamics.Trajectory, "norms_sq"),
        (attractor.AttractorCloud, "diameter"), (attractor.AttractorCloud, "norms"))]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert tracer.missing == set()
        assert tracing.missing_metrics(tracer) == set()
    finally:
        tracer.restore()
    assert [dict(vars(m)) for m in modules] + [dict(cli._COMMANDS)] == before
    assert all(getattr(cls, name) is original for cls, name, original in methods)


def test_traced_nonlinearity_keeps_its_values():
    # the tracer swaps a traced func into the registered nonlinearity
    tracing = load_tracing()
    tracer = tracing.Tracer()
    s = np.linspace(-4.0, 4.0, 101)
    try:
        tracing.install(tracer)
        nl = cli.make_nonlinearity("cubic", 1.0)
        got = [nl.func(s), nl.func(s, np.empty_like(s), np.empty((3, *s.shape)))]
    finally:
        tracer.restore()
    assert isinstance(nl, dynamics.Nonlinearity)
    assert tracer.totals()["dynamics.nonlinearity"][0] == 2
    # -alpha*s - s**3 in the product form (-alpha*s) - (s*s)*s
    want = -1.0 * s - s * s * s
    assert all(np.array_equal(g.view(np.uint64), want.view(np.uint64)) for g in got)


def test_traced_sample_attractor_counts_one_march_and_every_step():
    # a sampler that stepped past the hooked names would read 0 here
    tracing = load_tracing()
    tracer = tracing.Tracer()
    params = dynamics.LatticeParams(nu=1.0, lam=1.0, n=3)
    nonlin = dynamics.make_nonlinearity("cubic", 1.0)
    f = QuasiPeriodicForcing.finite([1.0], 1.0, 0.0)
    try:
        tracing.install(tracer)
        cloud = attractor.sample_attractor(f, params, nonlin, eps=1e-2, ic_count=2,
                                           sample_count=2, seed=1, burn_in=1.0)
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer, 0)
    assert metrics["attractor.integrate_calls"] == 1
    assert metrics["dynamics.rk4_steps"] == cloud.steps > 0
    assert metrics["dynamics.rhs_evals"] == 4 * cloud.steps
