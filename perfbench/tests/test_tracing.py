import types

from latticedyn import dynamics

import tracing
from workloads import WORKLOADS


def test_traced_simulate_counts_every_step_and_restores(invoke):
    workload = WORKLOADS["simulate-long"]
    cfg = workload.config(1)
    cfg["simulate"]["t1"] = "2.0"
    steps = 100
    original = dynamics.rk4_step
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        invoke(workload, cfg)
        metrics = tracing.layer_metrics(tracer, artifact_bytes=0)
    finally:
        tracer.restore()
    assert tracer.missing == set()
    assert dynamics.rk4_step is original
    assert metrics["dynamics.rk4_steps"] == steps
    assert metrics["dynamics.rhs_evals"] == 4 * steps
    assert metrics["forcing.eval_calls"] == 4 * steps
    assert metrics["dynamics.rows_per_rhs"] == 1.0
    assert metrics["attractor.integrate_calls"] == 0
    assert 0.0 < metrics["cli.self_s"] < tracer.totals()["cli.cmd"][1]
    assert 0.0 < metrics["dynamics.nonlinearity_s"] < metrics["dynamics.rhs_s"]


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    totals = tracer.totals()
    calls, total, own = totals["outer"]
    assert (calls, totals["inner"][0]) == (1, 3)
    assert abs(own - (total - totals["inner"][1])) < 1e-12


def test_missing_hook_is_reported_not_raised():
    tracer = tracing.Tracer()
    tracer.patch(types.SimpleNamespace(), "rk4_step", "dynamics.rk4_step")
    assert tracing.missing_metrics(tracer) == {"dynamics.rk4_steps", "dynamics.step_overhead_s"}
