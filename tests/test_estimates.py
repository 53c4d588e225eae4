import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticedyn import (
    LatticeParams,
    QuasiPeriodicForcing,
    burn_in_time,
    calibrate_tail_index,
    checks,
    gronwall_bound,
    integrate,
    make_finite_rhs,
    make_nonlinearity,
    project_forcing,
    tail_mass,
)
from latticedyn.errors import ParameterError, StrictModeRequiredError
from latticedyn.estimates import CUTOFF_SLOPE_BOUND, asymptotic_radius_sq


def energy_ode_oracle(lam, alpha, forcing_bound, y0, horizon, steps=200_000):
    """Integrate y' = -(lam + 2 alpha) y + C^2 / lam with tiny RK4 steps."""
    rate = lam + 2.0 * alpha
    src = forcing_bound ** 2 / lam
    h = horizon / steps
    y = y0
    for _ in range(steps):
        k1 = -rate * y + src
        k2 = -rate * (y + 0.5 * h * k1) + src
        k3 = -rate * (y + 0.5 * h * k2) + src
        k4 = -rate * (y + h * k3) + src
        y += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


class TestGronwallBound:
    def test_unforced_pure_decay(self):
        for t in (0.0, 0.5, 2.0):
            m = gronwall_bound(1.0, 1.0, 0.0, 2.0, t)
            assert m == pytest.approx(math.exp(-1.5 * t) * 2.0, rel=1e-12)

    def test_asymptotic_radius(self):
        radius = math.sqrt(asymptotic_radius_sq(1.0, 1.0, 1.0))
        assert radius == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)
        assert gronwall_bound(1.0, 1.0, 1.0, 5.0, 100.0) == pytest.approx(radius, rel=1e-10)

    @pytest.mark.parametrize("lam", [1e-160, 1e-200])
    def test_radius_too_large_for_a_float_is_refused(self, lam):
        # lam**2 is subnormal (C**2 / lam**2 overflows) or 0
        with pytest.raises(ParameterError, match=f"decay rate {lam:g} too small"):
            asymptotic_radius_sq(lam, 0.0, 1.0)

    def test_matches_energy_ode(self):
        # independent quadrature oracle for lam = alpha = C = 1, ||v0|| = 2, T = 1
        y1 = energy_ode_oracle(1.0, 1.0, 1.0, 4.0, 1.0)
        m = gronwall_bound(1.0, 1.0, 1.0, 2.0, 1.0)
        assert m == pytest.approx(math.sqrt(y1), rel=1e-10)
        assert m == pytest.approx(0.7182519873615627, rel=1e-9)

    def test_clamped_inside_the_ball(self):
        # starting below the asymptotic level must not shrink the bound
        m = gronwall_bound(1.0, 1.0, 1.0, 0.01, 3.0)
        assert m == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)

    def test_monotonicities(self):
        base = gronwall_bound(1.0, 1.0, 1.0, 2.0, 1.0)
        assert gronwall_bound(1.0, 1.0, 1.5, 2.0, 1.0) >= base
        assert gronwall_bound(1.0, 1.0, 1.0, 3.0, 1.0) >= base
        assert gronwall_bound(1.5, 1.0, 1.0, 2.0, 1.0) <= base
        assert gronwall_bound(1.0, 1.5, 1.0, 2.0, 1.0) <= base
        assert gronwall_bound(1.0, 1.0, 1.0, 2.0, 2.0) <= base

    def test_initial_norm_whose_square_overflows_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match=r"initial norm 1e\+200: its square overflows"):
            gronwall_bound(1.0, 1.0, 1.0, 1e200, 1.0)

    def test_rejects_bad_decay(self):
        with pytest.raises(ParameterError):
            gronwall_bound(0.0, 1.0, 1.0, 1.0, 1.0)


def cutoff_eval(k: int, s: float) -> float:
    """Smooth cutoff ``xi_k`` of the tail estimate: zero up to ``k``, one
    from ``2k`` on, with a cubic smoothstep bridge in between."""
    tau = s / k - 1.0
    if tau <= 0.0:
        return 0.0
    if tau >= 1.0:
        return 1.0
    return tau * tau * (3.0 - 2.0 * tau)


class TestCutoff:
    """The profile whose slope bound ``CUTOFF_SLOPE_BOUND / k`` enters
    :func:`calibrate_tail_index`."""

    def test_plateau_ends(self):
        for k in (1, 2, 9):
            assert cutoff_eval(k, 0.0) == 0.0
            assert cutoff_eval(k, k) == 0.0
            assert cutoff_eval(k, 2 * k) == 1.0
            assert cutoff_eval(k, 5 * k) == 1.0

    def test_midpoint(self):
        assert cutoff_eval(2, 3) == pytest.approx(0.5)

    def test_slope_bound_attained_at_mid_bridge(self):
        # finite-difference oracle on a fine grid
        for k in (1, 4):
            s = np.linspace(k, 2 * k, 20_001)
            vals = np.array([cutoff_eval(k, x) for x in s])
            slopes = np.diff(vals) / np.diff(s)
            assert slopes.max() == pytest.approx(CUTOFF_SLOPE_BOUND / k, rel=1e-6)
            peak = s[np.argmax(slopes)]
            assert peak == pytest.approx(1.5 * k, abs=2e-4 * k)

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 50), s=st.floats(0.0, 500.0))
    def test_range_and_monotonicity(self, k, s):
        v = cutoff_eval(k, s)
        assert 0.0 <= v <= 1.0
        assert cutoff_eval(k, s + 0.37) >= v


class TestBurnIn:
    def test_log_of_e(self):
        assert burn_in_time(1.0, math.e, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_already_inside(self):
        assert burn_in_time(2.0, 1.0, 5.0) == 0.0

    def test_halving_eps_adds_log_two(self):
        alpha = 0.7
        t1 = burn_in_time(alpha, 10.0, 1e-2)
        t2 = burn_in_time(alpha, 10.0, 5e-3)
        assert t2 - t1 == pytest.approx(math.log(2.0) / alpha, rel=1e-10)

    def test_needs_strict_margin(self):
        with pytest.raises(StrictModeRequiredError):
            burn_in_time(0.0, 1.0, 0.1)


class TestTailMass:
    def test_zero_index_gives_total(self, rng):
        w = rng.standard_normal(11)
        assert tail_mass(w, 0) == pytest.approx(float(w @ w), rel=1e-14)

    def test_delta_has_no_tail(self):
        w = np.zeros(9)
        w[4] = 1.0
        assert tail_mass(w, 1) == 0.0

    def test_truncated_dyadic_profile(self):
        sites = np.abs(np.arange(-10, 11))
        w = 0.5 ** sites
        # finite geometric sum oracle: 2 * sum_{i=3..10} 4^-i
        expected = 2.0 * sum(0.25 ** i for i in range(3, 11))
        assert expected == pytest.approx(0.0416660308837890625, rel=1e-12)
        assert tail_mass(w, 3) == pytest.approx(expected, rel=1e-12)

    def test_head_tail_partition(self, rng):
        w = rng.standard_normal(15)
        total = float(w @ w)
        for k in range(0, 9):
            head = w[7 - (k - 1):7 + k] if k > 0 else np.array([])
            assert tail_mass(w, k) + float(head @ head) == pytest.approx(total, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), k=st.integers(0, 12))
    def test_nonincreasing_in_k(self, seed, k):
        w = np.random.default_rng(seed).standard_normal(17)
        assert tail_mass(w, k + 1) <= tail_mass(w, k) + 1e-15

    def test_beyond_storage_is_zero(self):
        assert tail_mass(np.ones(5), 3) == 0.0


class TestTailCalibration:
    def setup_method(self):
        self.f = QuasiPeriodicForcing.geometric(1.0, 0.5, 1.0)

    def test_returns_smallest_feasible_scale(self):
        eps, nu, alpha, ball = 1e-2, 1.0, 1.0, 0.55
        k = calibrate_tail_index(nu, alpha, ball, self.f.tail_sup_bound, eps)

        def load(j):
            return nu * 6.0 * ball / j + self.f.tail_sup_bound(j - 1) / alpha

        assert load(k) <= eps * alpha / 2.0
        if k > 1:
            assert load(k - 1) > eps * alpha / 2.0

    def test_tighter_eps_never_shrinks_scale(self):
        k1 = calibrate_tail_index(1.0, 1.0, 0.55, self.f.tail_sup_bound, 1e-2)
        k2 = calibrate_tail_index(1.0, 1.0, 0.55, self.f.tail_sup_bound, 1e-3)
        assert k2 >= k1

    def test_zero_coupling_is_driven_by_forcing_tail(self):
        k = calibrate_tail_index(0.0, 1.0, 0.55, self.f.tail_sup_bound, 1e-2)
        assert self.f.tail_sup_bound(k - 1) <= 1e-2 / 2.0

    def test_needs_strict_margin(self):
        with pytest.raises(StrictModeRequiredError):
            calibrate_tail_index(1.0, 0.0, 0.5, self.f.tail_sup_bound, 1e-2)


class TestEnergyDecay:
    """The energy-envelope row of :mod:`latticedyn.checks` on trajectories
    whose energy law is known."""

    def test_unforced_linear_trajectory(self, rng):
        params, n = LatticeParams(nu=1.0, lam=1.0), 5
        nl = make_nonlinearity("linear", 1.0)
        rhs = make_finite_rhs(params, nl, QuasiPeriodicForcing.zero(), n)
        v0 = rng.standard_normal(2 * n + 1)
        v0 /= np.linalg.norm(v0)
        traj = integrate(rhs, v0, 0.0, 4.0, 0.01)
        assert checks.energy_envelope(traj, 1.0, 1.0, 0.0, 0.05)["passed"]
        # pointwise exponential envelope, no margin needed for the exact law
        y = traj.norms_sq()
        assert np.all(y <= np.exp(-3.0 * traj.times) * (1.0 + 1e-8))

    def test_zero_trajectory(self):
        params, n = LatticeParams(nu=1.0, lam=1.0), 3
        nl = make_nonlinearity("cubic", 1.0)
        rhs = make_finite_rhs(params, nl, QuasiPeriodicForcing.zero(), n)
        traj = integrate(rhs, np.zeros(2 * n + 1), 0.0, 1.0, 0.05)
        assert checks.energy_envelope(traj, 1.0, 1.0, 0.0, 0.05)["passed"]
        assert np.all(traj.norms_sq() == 0.0)

    def test_forced_run_settles_into_radius(self, rng):
        # lam = alpha = C = 1: asymptotic energy 1/3
        params, n = LatticeParams(nu=1.0, lam=1.0), 8
        nl = make_nonlinearity("cubic", 1.0)
        f = QuasiPeriodicForcing.finite([1.0], 1.0, 0.0)
        rhs = make_finite_rhs(params, nl, project_forcing(f, n), n)
        v0 = rng.standard_normal(2 * n + 1)
        v0 *= 2.0 / np.linalg.norm(v0)
        traj = integrate(rhs, v0, 0.0, 6.0, 0.01)
        assert checks.energy_envelope(traj, 1.0, 1.0, 1.0, 0.05)["passed"]
        late = traj.norms_sq()[traj.times >= 3.0]
        assert np.all(late <= (1.0 / 3.0) * 1.05 ** 2)

    def test_report_flags_injected_violation(self):
        from latticedyn.dynamics import Trajectory

        times = np.array([0.0, 1.0])
        states = np.array([[0.1, 0.0], [5.0, 0.0]])
        traj = Trajectory(times=times, states=states, steps=1)
        row = checks.energy_envelope(traj, 1.0, 1.0, 0.5, 0.05)
        assert row["passed"] is False and row["margin"] < 0.0
        assert row["detail"].startswith("1 sample pairs")
