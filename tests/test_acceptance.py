"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they complete."""

import math
import time

import numpy as np
import pytest

from latticedyn import (
    LatticeParams,
    QuasiPeriodicForcing,
    checks,
    cocycle_property_check,
    convergence_study,
    integrate,
    make_finite_rhs,
    make_nonlinearity,
    max_stable_step,
    project_forcing,
    sample_attractor,
    tail_certificate,
    wrap_forcing,
)


def _report(criterion: str, passed: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail}; runtime {elapsed:.2f}s < {budget:g}s)")
    assert passed, f"{criterion}: {detail}"
    assert elapsed < budget, f"{criterion}: runtime {elapsed:.2f}s exceeds {budget:g}s"


def test_criterion_1_matrix_identity():
    started = time.perf_counter()
    check = checks.matrix_identity(32)
    _report(
        "criterion-1 matrix-identity",
        check["passed"],
        f"A_n == B_n^T B_n == B_n B_n^T exactly in integer arithmetic, {check['detail']}",
        time.perf_counter() - started,
        1.0,
    )


def test_criterion_2_shift_equivariance():
    started = time.perf_counter()
    rng = np.random.default_rng(424242)
    cases = []
    for _ in range(100):
        support = int(rng.integers(1, 9))
        width = 2 * support + 1
        f = QuasiPeriodicForcing.finite(
            rng.uniform(-1.0, 1.0, width),
            rng.uniform(0.1, 4.0, width),
            rng.uniform(0.0, 2.0 * np.pi, width),
        )
        n = int(rng.integers(1, 9))
        h, t = rng.uniform(-25.0, 25.0, 2)
        cases.append((f, n, h, t))
    truncation = checks.shift_equivariance("truncation-equivariance", project_forcing, cases,
                                           tol=1e-12)
    wrap = checks.shift_equivariance("wrap-equivariance", wrap_forcing, cases, tol=1e-12)
    _report(
        "criterion-2 equivariance",
        truncation["passed"] and wrap["passed"],
        f"truncation: {truncation['detail']}; wrap: {wrap['detail']}",
        time.perf_counter() - started,
        1.0,
    )


def test_criterion_3_energy_absorbing_bound():
    started = time.perf_counter()
    params, n = LatticeParams(nu=1.0, lam=1.0), 16
    nonlin = make_nonlinearity("cubic", 1.0)
    forcing = QuasiPeriodicForcing.finite([1.0], 1.0, 0.0)  # C = 1 exactly
    system_forcing = wrap_forcing(forcing, n)
    rhs = make_finite_rhs(params, nonlin, system_forcing, n)
    h = max_stable_step(params, nonlin, 2.2)
    burn_in, horizon = 3.0, 6.0
    radius_gate = math.sqrt(1.0 / 3.0) * 1.05

    rng = np.random.default_rng(7)
    v0 = np.empty((20, 2 * n + 1))
    for row in v0:
        row[:] = rng.standard_normal(2 * n + 1)
        row *= rng.uniform(0.25, 1.0) * 2.0 / np.linalg.norm(row)  # norms <= 2
    v0_norms = [float(np.linalg.norm(row)) for row in v0]
    # the 20 trajectories step together as one stack of rows
    traj = integrate(rhs, v0, 0.0, horizon, h)
    energy = checks.energy_envelope(traj, 1.0, 1.0, 1.0, margin=0.05)
    envelope = checks.absorbing_envelope(traj, v0_norms, 1.0, 1.0, 1.0, slack=1.05)
    worst_late_norm = float(np.sqrt(traj.norms_sq()[traj.times >= burn_in]).max())
    passed = energy["passed"] and envelope["passed"] and worst_late_norm <= radius_gate
    _report(
        "criterion-3 energy/absorbing",
        passed,
        f"20 trajectories: envelope {energy['detail']}; absorbing {envelope['detail']}; "
        f"worst post-burn-in norm {worst_late_norm:.4f} <= {radius_gate:.4f}",
        time.perf_counter() - started,
        30.0,
    )


def test_criterion_4_cocycle_law():
    started = time.perf_counter()
    params, n = LatticeParams(nu=1.0, lam=1.0), 4
    nonlin = make_nonlinearity("linear", 1.0)
    forcing = project_forcing(
        QuasiPeriodicForcing.finite([0.3, 1.0, 0.5], 1.3, 0.4), n
    )
    v0 = np.random.default_rng(5).standard_normal(2 * n + 1) * 0.3

    # the direct path runs 10x refined so it stands in for the true flow;
    # equally resolved paths share their leading error and nearly cancel
    gate = checks.cocycle_defect(v0, forcing, params, nonlin, 1e-3, tol=1e-8,
                                 direct_step=1e-4)
    defects = [
        cocycle_property_check(v0, forcing, 1.0, 1.0, params, nonlin, h, direct_step=h / 10)
        for h in (1e-2, 5e-3, 2.5e-3)
    ]
    slope = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(defects), 1)[0]
    passed = gate["passed"] and abs(slope - 4.0) <= 0.3
    _report(
        "criterion-4 cocycle-law",
        passed,
        f"{gate['detail']} (t=tau=1), refinement slope {slope:.2f}",
        time.perf_counter() - started,
        10.0,
    )


def test_criterion_5_tail_certificate():
    started = time.perf_counter()
    nonlin = make_nonlinearity("cubic", 1.0)
    forcing = QuasiPeriodicForcing.geometric(0.8, 0.5, 1.0)
    clouds = [
        sample_attractor(
            forcing, LatticeParams(nu=1.0, lam=1.0), nonlin, n,
            eps=1e-2, ic_count=3, sample_count=6, seed=31,
        )
        for n in (4, 8, 16)
    ]
    report = tail_certificate(clouds, [1e-2, 1e-3], forcing, 1.0, 1.0, 1.0)
    ks = {row.eps: row.k for row in report.rows}
    passed = report.ok and ks[1e-3] >= ks[1e-2]
    _report(
        "criterion-5 tail-certificate",
        passed,
        f"k(1e-2)={ks[1e-2]}, k(1e-3)={ks[1e-3]} cover all {report.points_checked} "
        f"points across n in (4, 8, 16); worst margins "
        f"{[f'{r.margin:.3g}' for r in report.rows]}; vacuous {[r.vacuous for r in report.rows]}",
        time.perf_counter() - started,
        120.0,
    )


def test_criterion_6_attractor_convergence():
    started = time.perf_counter()
    nonlin = make_nonlinearity("linear", 1.0)
    forcing = QuasiPeriodicForcing.finite([0.25, 0.5, 1.0, 0.5, 0.25], 1.0, 0.0)
    report = convergence_study(
        forcing, LatticeParams(nu=1.0, lam=1.0), nonlin,
        n_list=(4, 8, 16), n_ref=64,
        eps=1e-2, ic_count=3, sample_count=6, seed=12,
        burn_in=10.0, step=0.02,
    )
    passed = report.strictly_decreasing and report.final_beta < 1e-5
    _report(
        "criterion-6 attractor-convergence",
        passed,
        f"betas {[f'{b:.3g}' for b in report.betas]} strictly decreasing, "
        f"final {report.final_beta:.3g} < 1e-5",
        time.perf_counter() - started,
        300.0,
    )


def test_criterion_7_integrator_order():
    started = time.perf_counter()
    errors = []
    for h in (0.1, 0.05, 0.025):
        traj = integrate(lambda t, y: -y, np.array([1.0]), 0.0, 0.1, h)
        errors.append(abs(float(traj.final_state[0]) - math.exp(-0.1)))
    ratios = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
    passed = errors[0] < 1e-7 and all(abs(r - 16.0) <= 0.2 * 16.0 for r in ratios)
    _report(
        "criterion-7 integrator-order",
        passed,
        f"endpoint error {errors[0]:.3g} at h=0.1, halving ratios "
        f"{[f'{r:.1f}' for r in ratios]}",
        time.perf_counter() - started,
        1.0,
    )


def test_criterion_8_truncation_converges_to_forcing():
    started = time.perf_counter()
    forcing = QuasiPeriodicForcing.geometric(1.0, 0.5, 1.0, 0.0)
    window = 60
    ts = np.linspace(-10.0, 10.0, 2001)
    full = np.stack([forcing.eval_window(t, window) for t in ts])
    sups = []
    for n in range(1, 9):
        projected = project_forcing(forcing, n)
        head = np.stack([projected.eval_window(t, window) for t in ts])
        sups.append(float(np.max(np.sum((head - full) ** 2, axis=1))))
    envelopes = [(8.0 / 3.0) * 0.25 ** (n + 1) for n in range(1, 9)]
    ratios = [s / e for s, e in zip(sups, envelopes)]
    geometric = all(s2 < 0.35 * s1 for s1, s2 in zip(sups, sups[1:]))
    passed = geometric and all(0.5 <= r <= 2.0 for r in ratios)
    _report(
        "criterion-8 forcing-truncation",
        passed,
        f"sup-gap^2 tracks (8/3) 4^-(n+1): envelope ratios "
        f"{[f'{r:.3f}' for r in ratios]}",
        time.perf_counter() - started,
        5.0,
    )
