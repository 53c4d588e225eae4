"""The per-layer tracer of ``perfbench/`` hooks latticedyn names from outside
the package; a hook whose target is gone turns its metrics into "missing"
without failing the benchmark run.  This guard fails instead."""

import importlib.util
import json
import re
from pathlib import Path

import numpy as np

from latticedyn import attractor, cli, dynamics
from latticedyn.forcing import QuasiPeriodicForcing

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
README = Path(__file__).resolve().parents[1] / "README.md"


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
    params = dynamics.LatticeParams(nu=1.0, lam=1.0)
    nonlin = dynamics.make_nonlinearity("cubic", 1.0)
    f = QuasiPeriodicForcing.finite([1.0], 1.0, 0.0)
    try:
        tracing.install(tracer)
        cloud = attractor.sample_attractor(f, params, nonlin, 3, eps=1e-2, ic_count=2,
                                           sample_count=2, seed=1, burn_in=1.0)
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer, 0)
    assert metrics["attractor.integrate_calls"] == 1
    assert metrics["dynamics.rk4_steps"] == cloud.steps > 0
    assert metrics["dynamics.rhs_evals"] == 4 * cloud.steps


def test_traced_simulate_writes_the_same_trajectory_and_counts_every_step(tmp_path):
    # the hooked cli.make_finite_rhs forwards every argument, the order too
    (ini,) = re.findall(r"^```ini\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    config = tmp_path / "exp.ini"
    config.write_text(ini, encoding="utf-8")
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert cli.main(["simulate", "--config", str(config), "--out", str(plain)]) == 0
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert cli.main(["simulate", "--config", str(config), "--out", str(traced)]) == 0
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer, 0)
    steps = json.loads((traced / "report.json").read_text())["steps"]
    assert (plain / "trajectory.csv").read_bytes() == (traced / "trajectory.csv").read_bytes()
    assert metrics["dynamics.rk4_steps"] == steps > 0
    assert metrics["dynamics.rhs_evals"] == 4 * steps
