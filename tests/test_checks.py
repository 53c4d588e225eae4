"""The shared property checks pass on the real operators and flows and
return ``passed: False`` on a planted defect of the kind each one guards."""

import numpy as np
import pytest

from latticedyn import (
    LatticeParams,
    QuasiPeriodicForcing,
    checks,
    integrate,
    laplacian_matrix,
    make_finite_rhs,
    make_nonlinearity,
    project_forcing,
    wrap_forcing,
)
from latticedyn.attractor import TailCertificateReport, TailCertificateRow
from latticedyn.dynamics import Trajectory
from latticedyn.operators import apply_laplacian


def _row_keys(row):
    assert set(row) == {"name", "passed", "margin", "detail"}
    return row


class TestMatrixIdentity:
    def test_holds(self):
        row = _row_keys(checks.matrix_identity(12))
        assert row["passed"] and row["detail"] == "orders 1..12"

    def test_wrong_laplacian_fails(self, monkeypatch):
        def wrong(n):
            a = laplacian_matrix(n)
            if n == 5:
                a[0, -1] = 0  # drops one wrap-around coupling
            return a

        monkeypatch.setattr(checks, "laplacian_matrix", wrong)
        row = checks.matrix_identity(12)
        assert row["passed"] is False
        assert row["detail"] == "orders 1..12, first failure at n=5"

    def test_float_laplacian_fails(self, monkeypatch):
        monkeypatch.setattr(checks, "laplacian_matrix", lambda n: laplacian_matrix(n).astype(float))
        assert checks.matrix_identity(3)["passed"] is False


class TestStencilIdentities:
    @pytest.fixture
    def states(self, rng):
        return [(n, rng.standard_normal(2 * n + 1)) for n in (1, 2, 5, 9, 24)]

    def test_hold(self, states):
        rows = checks.stencil_identities(states, 1e-12)
        assert [r["name"] for r in rows] == [
            "stencil-energy-identity", "stencil-positivity", "stencil-norm-bound"]
        assert all(_row_keys(r)["passed"] for r in rows)

    @pytest.mark.parametrize(
        "wrong, failing",
        [
            (lambda v, n: apply_laplacian(v, n, periodic=False), "stencil-energy-identity"),
            (lambda v, n: -apply_laplacian(v, n), "stencil-positivity"),
            (lambda v, n: 2.0 * apply_laplacian(v, n), "stencil-norm-bound"),
        ],
        ids=["zero-ghost", "negated", "doubled"],
    )
    def test_wrong_stencil_fails(self, monkeypatch, states, wrong, failing):
        monkeypatch.setattr(checks, "apply_laplacian", wrong)
        rows = {r["name"]: r for r in checks.stencil_identities(states, 1e-12)}
        assert rows[failing]["passed"] is False
        assert rows[failing]["margin"] < 0.0


class TestShiftEquivariance:
    @pytest.fixture
    def cases(self, rng, make_random_forcing):
        f = make_random_forcing(rng, support=4)
        return [(f, int(n), h, t) for n, (h, t) in
                zip(rng.integers(1, 7, 20), rng.uniform(-20.0, 20.0, (20, 2)))]

    @pytest.mark.parametrize("project", [project_forcing, wrap_forcing])
    def test_holds(self, cases, project):
        row = _row_keys(checks.shift_equivariance("p", project, cases, 1e-12))
        assert row["passed"] and row["detail"] == "20 random (n, h, t) triples, worst 0"

    def test_projection_dropping_the_shift_fails(self, cases):
        def drops_shift(f, n):
            return QuasiPeriodicForcing.finite(*f.mode_table(n))  # loses time_offset

        row = checks.shift_equivariance("p", drops_shift, cases, 1e-12)
        assert row["passed"] is False and row["margin"] < 0.0


N = 4  # the order of cubic_system


@pytest.fixture
def cubic_system():
    params = LatticeParams(nu=1.0, lam=1.0)
    nonlin = make_nonlinearity("cubic", 1.0)
    forcing = wrap_forcing(QuasiPeriodicForcing.finite([0.5, 1.0, 0.5], 1.3, 0.2), N)
    return params, nonlin, forcing


class TestCocycleDefect:
    def test_holds_at_a_fine_step(self, cubic_system, rng):
        params, nonlin, forcing = cubic_system
        v0 = 0.3 * rng.standard_normal(2 * N + 1)
        assert _row_keys(checks.cocycle_defect(v0, forcing, params, nonlin, 1e-2, 1e-8))["passed"]

    def test_too_coarse_step_fails(self, cubic_system, rng):
        # 0.3 does not divide t = tau = 1, so the two paths step differently
        params, nonlin, forcing = cubic_system
        v0 = 0.3 * rng.standard_normal(2 * N + 1)
        row = checks.cocycle_defect(v0, forcing, params, nonlin, 0.3, 1e-8)
        assert row["passed"] is False and row["margin"] < 0.0


class TestEnvelopes:
    @pytest.fixture
    def run(self, cubic_system, rng):
        params, nonlin, forcing = cubic_system
        v0 = rng.standard_normal(2 * N + 1)
        v0 *= 2.0 / np.linalg.norm(v0)
        traj = integrate(make_finite_rhs(params, nonlin, forcing, N), v0, 0.0, 3.0, 0.01)
        return traj, float(np.linalg.norm(v0)), forcing.uniform_bound()

    def test_hold(self, run):
        traj, v0_norm, c = run
        assert _row_keys(checks.energy_envelope(traj, 1.0, 1.0, c, 0.05))["passed"]
        assert _row_keys(checks.absorbing_envelope(traj, v0_norm, 1.0, 1.0, c, 1.05))["passed"]

    def test_energy_jump_fails(self, run):
        traj, _, c = run
        # a stack of the trajectory and a copy whose second half jumps
        states = np.stack([traj.states, traj.states], axis=1)
        states[len(states) // 2:, 1] *= 1.5
        jumped = Trajectory(times=traj.times, states=states, steps=traj.steps)
        row = checks.energy_envelope(jumped, 1.0, 1.0, c, 0.05)
        assert row["passed"] is False and row["margin"] < 0.0
        assert row["detail"].startswith(f"{2 * (len(traj.times) - 1)} sample pairs")

    def test_settled_trajectory_reads_below_one_over_slack(self, run):
        # at t0 the norm equals the bound, so a ratio taken there would read
        # exactly 1 / slack whatever the trajectory did afterwards
        traj, v0_norm, c = run
        row = checks.absorbing_envelope(traj, v0_norm, 1.0, 1.0, c, 1.05)
        worst = 1.0 - row["margin"]
        assert row["passed"] and worst < 1.0 / 1.05 - 1e-3
        assert row["detail"].endswith(f"after t0 = {worst:.6g}")

    def test_norm_above_the_gronwall_bound_fails(self, run):
        traj, v0_norm, c = run
        # a stack of the trajectory twice, the second row credited with a
        # smaller initial norm
        stacked = Trajectory(times=traj.times, states=np.stack([traj.states] * 2, axis=1),
                             steps=traj.steps)
        row = checks.absorbing_envelope(stacked, [v0_norm, 0.5 * v0_norm], 1.0, 1.0, c, 1.05)
        assert row["passed"] is False and row["margin"] < 0.0


class TestBetaRows:
    def test_no_threshold_passes_with_zero_margin(self):
        row = _row_keys(checks.beta_threshold(0.5, None))
        assert row == {"name": "beta-threshold", "passed": True, "margin": 0.0,
                       "detail": "final beta 0.5 (no threshold)"}

    def test_final_beta_above_threshold_fails(self):
        row = checks.beta_threshold(2e-3, 1e-3)
        assert row["passed"] is False and row["margin"] < 0.0
        assert row["detail"] == "final beta 0.002 vs threshold 0.001"
        assert checks.beta_threshold(5e-4, 1e-3)["margin"] == 1e-3 - 5e-4

    @pytest.mark.parametrize("rise, passed", [(1.1, True), (1.11, False)])
    def test_rise_within_slack(self, rise, passed):
        row = _row_keys(checks.beta_nonincreasing([1.0, 0.5, 0.5 * rise], slack=1.1))
        assert row["passed"] is passed
        # the closer pair sets the margin: 1.1 * 0.5 - 0.5 * rise
        assert row["margin"] == 1.1 * 0.5 - 0.5 * rise
        assert (row["margin"] >= 0.0) is passed
        assert row["detail"] == f"betas {['1', '0.5', f'{0.5 * rise:.3g}']}"

    def test_single_order_has_zero_margin(self):
        row = checks.beta_nonincreasing([0.3], slack=1.1)
        assert row["passed"] is True and row["margin"] == 0.0


class TestTailCertificateRow:
    def test_failing_level_sets_the_margin(self):
        rows = (TailCertificateRow(eps=1e-2, k=3, worst_tail=0.0, margin=1e-2, vacuous=False),
                TailCertificateRow(eps=1e-3, k=5, worst_tail=3e-3, margin=-2e-3, vacuous=False))
        report = TailCertificateReport(rows=rows, ball_norm_sq=1.0, points_checked=4)
        row = _row_keys(checks.tail_certificate(report, 8))
        assert row["passed"] is False and row["margin"] == -2e-3
        assert row["detail"] == "2 tolerance levels"
