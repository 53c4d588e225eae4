import math
import tracemalloc

import numpy as np
import pytest

from latticedyn import (
    LatticeParams,
    QuasiPeriodicForcing,
    cocycle_property_check,
    integrate,
    make_finite_rhs,
    make_nonlinearity,
    make_reference_rhs,
    max_stable_step,
    project_forcing,
)
from latticedyn.dynamics import (
    MEMORY_CAP,
    WORK_CAP,
    Nonlinearity,
    Trajectory,
    _row_schedule,
    _step_count,
    auto_step,
    integrate_final,
    rk4_step,
    run_bytes,
)
from latticedyn.errors import (
    BoundaryContaminationError,
    DimensionError,
    DivergenceError,
    NonlinearityConditionError,
    ParameterError,
)
from latticedyn.operators import apply_laplacian


class TestParams:
    def test_valid(self):
        p = LatticeParams(nu=0.0, lam=0.5, n=3)
        assert p.dim == 7

    @pytest.mark.parametrize(
        "kwargs",
        [dict(nu=1.0, lam=0.0, n=2), dict(nu=-0.1, lam=1.0, n=2), dict(nu=1.0, lam=1.0, n=0)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            LatticeParams(**kwargs)


class TestNonlinearityContract:
    def test_catalog_registers(self):
        for name, alpha in (("linear", 1.0), ("cubic", 0.5), ("zero", 0.0)):
            nl = make_nonlinearity(name, alpha)
            assert nl.alpha == alpha

    def test_linear_values(self):
        nl = make_nonlinearity("linear", 2.0)
        assert np.array_equal(nl.func(np.array([1.0, -0.5])), [-2.0, 1.0])

    def test_positive_slope_fails_strict_margin(self):
        with pytest.raises(NonlinearityConditionError, match="strict sign margin"):
            make_nonlinearity("poly", alpha=0.5, coeffs=(1.0,))

    def test_positive_slope_fails_weak_sign(self):
        # F(s) = s has s*F(s) = s^2 > 0
        with pytest.raises(NonlinearityConditionError, match="weak sign"):
            make_nonlinearity("poly", alpha=0.0, coeffs=(1.0,))

    def test_zero_fixed_point_named(self):
        nl = Nonlinearity(
            name="offset",
            func=lambda s: -s + 1.0,
            alpha=0.0,
            lipschitz=lambda rho: 1.0,
        )
        with pytest.raises(NonlinearityConditionError, match="zero fixed point"):
            nl.verify()

    def test_understated_lipschitz_witness_named(self):
        nl = Nonlinearity(
            name="steep",
            func=lambda s: -4.0 * s,
            alpha=0.0,
            lipschitz=lambda rho: 1.0,
        )
        with pytest.raises(NonlinearityConditionError, match="Lipschitz"):
            nl.verify()

    @pytest.mark.parametrize(
        "name, alpha, coeffs, bound",
        [("cubic", 1.0, None, 2.0), ("cubic", 0.0, None, 2.0),
         ("poly", 0.0, (-1.0, 2.0, -1.0), 2.0),
         # s^5 = s * s2 * s2 carries up to 3 ulp of its own; here it dominates
         ("poly", 0.5, (-0.5, -1.0, -0.25), 3.0)],
    )
    def test_product_forms_match_power_within_two_ulp(self, name, alpha, coeffs, bound):
        # the registration grid of verify(); error measured in ulps of the
        # sum of the term magnitudes, the scale a sum of terms is rounded at
        s = np.linspace(-4.0, 4.0, 10_000)
        if name == "cubic":
            terms = [-alpha * s, -np.power(s, 3)]
        else:
            terms = [c * np.power(s, 2 * k + 1) for k, c in enumerate(coeffs)]
        exact = np.sum(terms, axis=0)
        scale = np.sum(np.abs(terms), axis=0)
        nl = make_nonlinearity(name, alpha, coeffs)
        ulps = np.abs(nl.func(s) - exact) / np.spacing(np.maximum(scale, 1e-300))
        assert ulps.max() <= bound

    @pytest.mark.parametrize("name", ["linear", "cubic", "zero"])
    def test_coeffs_rejected_outside_poly(self, name):
        with pytest.raises(ParameterError, match="coeffs"):
            make_nonlinearity(name, 0.0, (7.0, 7.0, 7.0))

    def test_cubic_sampled_lipschitz_within_witness(self):
        make_nonlinearity("cubic", 1.0).verify(rho_max=3.0)


class TestFiniteRhs:
    def setup_method(self):
        self.params = LatticeParams(nu=1.0, lam=1.0, n=1)
        self.zero_f = QuasiPeriodicForcing.zero()

    def rhs(self, nl, forcing=None):
        return make_finite_rhs(self.params, nl, forcing or self.zero_f)

    def test_origin_is_fixed_point(self):
        nl = make_nonlinearity("cubic", 1.0)
        out = self.rhs(nl)(0.3, np.zeros(3))
        assert np.array_equal(out, np.zeros(3))

    def test_hand_evaluated_linear_part(self):
        nl = make_nonlinearity("zero")
        out = self.rhs(nl)(0.0, np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(out, [-3.0, 1.0, 1.0])

    def test_hand_evaluated_with_linear_feedback(self):
        nl = make_nonlinearity("linear", 1.0)
        out = self.rhs(nl)(0.0, np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(out, [-4.0, 1.0, 1.0])

    def test_dimension_mismatch(self):
        nl = make_nonlinearity("zero")
        with pytest.raises(DimensionError):
            self.rhs(nl)(0.0, np.zeros(5))

    def test_forcing_matches_eval_window_per_row_time(self, rng, make_random_forcing):
        # the compiled table adds f(t) exactly as the forcing evaluates it,
        # for a scalar time and for a column of per-row times
        nl = make_nonlinearity("zero")
        params = LatticeParams(nu=0.0, lam=1.0, n=4)
        f = make_random_forcing(rng, support=2).shift(0.37)
        rhs = make_finite_rhs(params, nl, project_forcing(f, 4))
        times = np.array([[-1.5], [0.0], [2.25]])
        out = rhs(times, np.zeros((3, params.dim)))
        for row, t in enumerate(times[:, 0]):
            assert np.array_equal(out[row], f.eval_window(t, 4))
            assert np.array_equal(rhs(t, np.zeros(params.dim)), f.eval_window(t, 4))

    def test_dissipativity_identity(self, rng):
        # <-nu A v, v> = -nu ||B v||^2 <= 0
        from latticedyn import apply_difference, apply_laplacian

        params = LatticeParams(nu=0.7, lam=1.0, n=6)
        v = rng.standard_normal(params.dim)
        lhs = float((-params.nu * apply_laplacian(v, 6)) @ v)
        rhs = -params.nu * float(np.sum(apply_difference(v, 6) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert lhs <= 0.0


class TestReferenceRhs:
    def test_line_stencil_of_delta(self):
        # zero ghost cells: no wrap, even for mass on an edge site
        u = np.zeros(9)
        u[4] = 1.0
        assert np.array_equal(
            apply_laplacian(u, 4, periodic=False), [0, 0, 0, -1.0, 2.0, -1.0, 0, 0, 0]
        )
        u = np.zeros(9)
        u[0] = 1.0
        assert np.array_equal(
            apply_laplacian(u, 4, periodic=False), [2.0, -1.0, 0, 0, 0, 0, 0, 0, 0]
        )

    def test_zero_state(self):
        params = LatticeParams(nu=1.0, lam=1.0, n=5)
        nl = make_nonlinearity("zero")
        rhs = make_reference_rhs(params, nl, QuasiPeriodicForcing.zero())
        assert np.array_equal(rhs(0.0, np.zeros(11)), np.zeros(11))

    def test_delta_state_with_decay(self):
        params = LatticeParams(nu=1.0, lam=1.0, n=5)
        nl = make_nonlinearity("zero")
        u = np.zeros(11)
        u[5] = 1.0
        out = make_reference_rhs(params, nl, QuasiPeriodicForcing.zero())(0.0, u)
        expected = np.zeros(11)
        expected[4], expected[5], expected[6] = 1.0, -3.0, 1.0  # stencil minus lam*u
        assert np.array_equal(out, expected)

    def test_interior_consistency_with_finite_system(self, rng, make_random_forcing):
        # state supported on |i| <= n-1 cannot see the wrap
        n = 5
        params = LatticeParams(nu=0.8, lam=1.2, n=n)
        nl = make_nonlinearity("cubic", 0.3)
        f = make_random_forcing(rng, support=2)
        v = np.zeros(2 * n + 1)
        v[2:-2] = rng.standard_normal(2 * n - 3)  # zero at |i| in {n-1? no: n, n-1}
        fin = make_finite_rhs(params, nl, project_forcing(f, n))(0.7, v)
        ref = make_reference_rhs(params, nl, f)(0.7, v.copy())
        inner = slice(2, 2 * n - 1)  # |i| <= n-2 rows agree exactly
        assert np.allclose(fin[inner], ref[inner], atol=1e-14)

    def test_boundary_contamination_detected(self):
        params = LatticeParams(nu=1.0, lam=1.0, n=4)
        nl = make_nonlinearity("zero")
        rhs = make_reference_rhs(params, nl, QuasiPeriodicForcing.zero())
        u = np.zeros(9)
        u[0] = 1e-3
        with pytest.raises(BoundaryContaminationError):
            integrate_final(rhs, u, 0.0, 0.1, 0.01, boundary_floor=1e-8)
        # mass that spreads from the centre reaches the edge within the run
        u = np.zeros((2, 9))
        u[1, 4] = 1.0
        with pytest.raises(BoundaryContaminationError, match="edge amplitude"):
            integrate_final(rhs, u, 0.0, 0.1, 0.01, boundary_floor=1e-8)
        # without a floor the same run is not monitored
        assert np.all(np.isfinite(integrate_final(rhs, u, 0.0, 0.1, 0.01)))


class TestStableStep:
    def test_formula(self):
        params = LatticeParams(nu=1.0, lam=1.0, n=2)
        nl = make_nonlinearity("linear", 1.0)
        assert max_stable_step(params, nl, 2.0) == pytest.approx(0.5 / 6.0)

    def test_decoupled_scalar(self):
        params = LatticeParams(nu=0.0, lam=1.0, n=1)
        nl = make_nonlinearity("zero")
        assert max_stable_step(params, nl, 1.0) == pytest.approx(0.5)

    def test_auto_step_uses_rho_or_the_radius_margin(self):
        params = LatticeParams(nu=1.0, lam=1.0, n=2)
        nl = make_nonlinearity("cubic", 1.0)
        assert auto_step(params, nl, 1.0) == max_stable_step(params, nl, 2.0)
        assert auto_step(params, nl, 1.0, rho=0.5) == max_stable_step(params, nl, 0.5)

    def test_roughly_halves_with_coupling(self):
        nl = make_nonlinearity("zero")
        h1 = max_stable_step(LatticeParams(nu=10.0, lam=0.1, n=1), nl, 1.0)
        h2 = max_stable_step(LatticeParams(nu=20.0, lam=0.1, n=1), nl, 1.0)
        assert h2 / h1 == pytest.approx(0.5, rel=0.02)


class TestTrajectoryInvariants:
    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError):
            Trajectory(
                times=np.array([0.0, 1.0, 1.0]),
                states=np.zeros((3, 2)),
                steps=2,
            )

    def test_rejects_non_finite_states(self):
        with pytest.raises(ValueError):
            Trajectory(
                times=np.array([0.0, 1.0]),
                states=np.array([[0.0, 0.0], [np.inf, 0.0]]),
                steps=1,
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionError):
            Trajectory(times=np.array([0.0]), states=np.zeros((2, 2)), steps=1)


class TestIntegrate:
    def test_scalar_decay_single_step(self):
        traj = integrate(lambda t, y: -y, np.array([1.0]), 0.0, 0.1, 0.1)
        # RK4 growth factor 1 - h + h^2/2 - h^3/6 + h^4/24 at h = 0.1
        assert traj.final_state[0] == pytest.approx(0.9048375, abs=1e-12)
        assert abs(traj.final_state[0] - math.exp(-0.1)) < 1e-7

    def test_zero_rhs_constant(self):
        traj = integrate(lambda t, y: np.zeros_like(y), np.array([2.0, -1.0]), 0.0, 3.0, 0.17)
        assert np.array_equal(traj.states[0], traj.states[-1])
        assert traj.times[-1] == 3.0

    def test_fourth_order_on_fixed_horizon(self):
        # fixed endpoint T = 0.1; halving the step cuts the error ~16x
        errors = []
        for h in (0.1, 0.05, 0.025):
            traj = integrate(lambda t, y: -y, np.array([1.0]), 0.0, 0.1, h)
            errors.append(abs(traj.final_state[0] - math.exp(-0.1)))
        for e1, e2 in zip(errors, errors[1:]):
            assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_divergence_names_step(self):
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="step"):
            integrate(lambda t, y: y * y, np.array([5.0]), 0.0, 10.0, 0.5)

    def test_degenerate_interval(self):
        traj = integrate(lambda t, y: -y, np.array([1.0, 2.0]), 1.0, 1.0, 0.1)
        assert len(traj.times) == 1
        assert np.array_equal(traj.states[0], [1.0, 2.0])
        assert traj.steps == 0

    def test_sampling_stride(self):
        traj = integrate(
            lambda t, y: -y, np.array([1.0]), 0.0, 1.0, 0.1, sample_stride=4
        )
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == 1.0
        assert traj.steps == 10 and len(traj.times) == 4

    def test_partial_final_step_lands_exactly(self):
        traj = integrate(lambda t, y: -y, np.array([1.0]), 0.0, 0.25, 0.1)
        assert traj.times[-1] == 0.25
        assert traj.final_state[0] == pytest.approx(math.exp(-0.25), abs=1e-6)

    def test_per_row_start_times_land_exactly_on_zero(self, rng):
        # N = 7 steps from the longest span at h = 2/7; each row steps
        # (0 - t0_j) / N, and the last RK4 stage sits on t = 0
        params = LatticeParams(nu=1.0, lam=1.0, n=3)
        nl = make_nonlinearity("cubic", 1.0)
        f = project_forcing(QuasiPeriodicForcing.geometric(0.5, 0.5, 1.3, 0.2), 3)
        rhs = make_finite_rhs(params, nl, f)
        seen = []

        def recording(t, u):
            seen.append(np.broadcast_to(t, (len(u), 1)).copy())
            return rhs(t, u)

        t0 = np.array([-2.0, -1.3, -0.1 / 3.0, 0.0])
        steps = -t0 / 7
        v0 = rng.standard_normal((4, params.dim))
        batch = integrate_final(recording, v0, t0, 0.0, 2.0 / 7)
        assert len(seen) == 4 * 7
        assert np.array_equal(seen[-1], np.zeros((4, 1)))
        assert np.array_equal(batch[3], v0[3])  # a row with no span stays put
        for row in range(3):
            single = integrate_final(rhs, v0[row], t0[row], 0.0, steps[row])
            assert np.allclose(batch[row], single, rtol=0.0, atol=1e-14)

    def test_per_row_steps_need_one_step_count(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y

        v0 = np.ones((2, 3))
        # the longest span sets N = 10 at h = 0.1; the shorter row steps 0.05
        batch = integrate_final(rhs, v0, np.array([-1.0, -0.5]), 0.0, 0.1)
        assert len(calls) == 4 * 10
        for row, (t0, h) in enumerate(((-1.0, 0.1), (-0.5, 0.05))):
            single = integrate_final(lambda t, y: -y, v0[row], t0, 0.0, h)
            assert np.allclose(batch[row], single, rtol=0.0, atol=1e-15)
        with pytest.raises(ParameterError):
            integrate_final(rhs, v0, np.array([-1.0, 0.5]), 0.0, 0.1)
        with pytest.raises(DimensionError):
            integrate_final(rhs, v0, np.array([-1.0, -1.0, -1.0]), 0.0, 0.1)
        with pytest.raises(DimensionError):
            integrate_final(rhs, np.ones(3), np.array([-1.0]), 0.0, 0.1)

    def test_ensemble_rows_match_single_runs(self, rng):
        params = LatticeParams(nu=1.0, lam=1.0, n=3)
        nl = make_nonlinearity("linear", 0.5)
        f = project_forcing(QuasiPeriodicForcing.geometric(0.5, 0.5, 1.0), 3)
        rhs = make_finite_rhs(params, nl, f)
        v0 = rng.standard_normal((4, params.dim))
        batch = integrate_final(rhs, v0, 0.0, 2.0, 0.01)
        for row in range(4):
            single = integrate_final(rhs, v0[row], 0.0, 2.0, 0.01)
            assert np.allclose(batch[row], single, atol=1e-13)


CATALOG = [("linear", 0.7, None), ("cubic", 1.0, None), ("zero", 0.0, None),
           ("poly", 0.5, (-0.5, -1.0, -0.25))]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _batches(rng, dim):
    """(t, u): one state, a batch at one time, a batch with per-row times."""
    return [(0.3, rng.standard_normal(dim)),
            (0.3, rng.standard_normal((3, dim))),
            (np.array([[-1.5], [0.0], [2.25]]), rng.standard_normal((3, dim)))]


class TestBufferedStepping:
    """The forms that write into caller buffers give the same bits as the
    allocating expressions they replace."""

    @pytest.mark.parametrize("name, alpha, coeffs", CATALOG)
    def test_func_out_form_matches_allocating_form(self, rng, name, alpha, coeffs):
        nl = make_nonlinearity(name, alpha, coeffs)
        s = 3.0 * rng.standard_normal((5, 9))
        out, work = np.full_like(s, np.nan), np.full((3, *s.shape), np.nan)
        assert nl.func(s, out, work) is out
        assert np.array_equal(_bits(out), _bits(nl.func(s)))

    @pytest.mark.parametrize("name, alpha, coeffs", CATALOG)
    @pytest.mark.parametrize("periodic", [True, False], ids=["wrap", "zero-ghost"])
    def test_rhs_out_form_matches_allocating_form(self, rng, make_random_forcing, periodic,
                                                   name, alpha, coeffs):
        params = LatticeParams(nu=0.8, lam=1.2, n=4)
        nl = make_nonlinearity(name, alpha, coeffs)
        f = make_random_forcing(rng, support=2).shift(0.37)
        make = make_finite_rhs if periodic else make_reference_rhs
        rhs = make(params, nl, project_forcing(f, params.n) if periodic else f)
        # the second pass feeds new states through the scratch arrays the first left
        for t, u in _batches(rng, params.dim) + _batches(rng, params.dim):
            out = np.full_like(u, np.nan)
            assert rhs(t, u, out) is out
            assert np.array_equal(_bits(out), _bits(rhs(t, u)))
            # reference: the same arithmetic on fresh arrays
            expected = apply_laplacian(u, params.n, periodic)
            expected *= -params.nu
            expected -= params.lam * u
            expected += nl.func(u)
            drive = (np.stack([f.eval_window(float(r), params.n) for r in t[:, 0]])
                     if np.ndim(t) else f.eval_window(t, params.n))
            assert np.array_equal(out, expected + drive)

    @pytest.mark.parametrize("rows, per_row", [(None, False), (4, False), (4, True)],
                             ids=["one-row", "scalar-step", "per-row-steps"])
    def test_rk4_step_keeps_the_allocating_arithmetic(self, rng, make_random_forcing, rows,
                                                      per_row):
        params = LatticeParams(nu=1.0, lam=1.0, n=5)
        f = project_forcing(make_random_forcing(rng, support=3), params.n)
        rhs = make_finite_rhs(params, make_nonlinearity("cubic", 1.0), f)
        y = rng.standard_normal(params.dim if rows is None else (rows, params.dim))
        t, h = (np.array([[-2.0], [-1.0], [-0.5], [0.0]]), np.array([[0.02], [0.01], [0.005], [0.0]])
                ) if per_row else (0.3, 0.05)
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        expected = k1 + 2.0 * k2
        expected += 2.0 * k3
        expected += k4
        expected *= h / 6.0
        expected += y
        out, work = np.full_like(y, np.nan), np.full((2, *y.shape), np.nan)
        assert rk4_step(rhs, t, y, h, out, work) is out
        assert np.array_equal(_bits(out), _bits(expected))

    def test_drive_reuse_matches_a_fresh_system(self, rng, make_random_forcing):
        params = LatticeParams(nu=0.8, lam=1.2, n=4)
        nl = make_nonlinearity("cubic", 1.0)
        f = project_forcing(make_random_forcing(rng, support=2).shift(0.37), params.n)
        rhs = make_finite_rhs(params, nl, f)
        t = 0.25 + 0.5
        # equal floats from other expressions, then new times; the drive
        # columns depend on t alone, so the state changes between calls
        for time in (t, 1.5 / 2.0, np.float64(t), 0.7, t, 0.0, -0.0):
            u = rng.standard_normal(params.dim)
            got = rhs(time, u, np.empty_like(u))
            fresh = make_finite_rhs(params, nl, f)(time, u)
            assert np.array_equal(_bits(got), _bits(fresh))

    def test_signed_zero_times_are_evaluated_afresh(self):
        # 0.0 == -0.0, but with phase and offset -0.0 the drive at u = 0
        # keeps the sign of t: sin(+-0) * a added to F(0) = -0.0
        params = LatticeParams(nu=1.0, lam=1.0, n=1)
        f = QuasiPeriodicForcing.finite([1.0, 1.0, 1.0], 1.0, -0.0, time_offset=-0.0)
        rhs = make_finite_rhs(params, make_nonlinearity("linear", 1.0), f)
        u = np.zeros(params.dim)
        assert np.all(np.signbit(rhs(-0.0, u, np.empty_like(u))))
        assert not np.any(np.signbit(rhs(0.0, u, np.empty_like(u))))
        assert np.all(np.signbit(rhs(-0.0, u, np.empty_like(u))))

    @pytest.mark.parametrize("column", [True, False], ids=["column", "0-d"])
    def test_time_array_written_in_place_gives_the_new_forcing(self, rng,
                                                               make_random_forcing, column):
        params = LatticeParams(nu=0.8, lam=1.2, n=4)
        nl = make_nonlinearity("linear", 1.0)
        f = project_forcing(make_random_forcing(rng, support=2), params.n)
        rhs = make_finite_rhs(params, nl, f)
        t = np.array([[0.3], [-1.1]]) if column else np.array(0.3)
        u = rng.standard_normal((2, params.dim))
        rhs(t, u, np.empty_like(u))
        t += 0.5
        got = rhs(t, u, np.empty_like(u))
        assert np.array_equal(_bits(got), _bits(make_finite_rhs(params, nl, f)(t.copy(), u)))

    def test_integrate_stores_distinct_samples(self):
        traj = integrate(lambda t, y: -y, np.array([1.0, 2.0]), 0.0, 1.0, 0.1)
        # a sample stored as the loop's buffer would read as a later state
        assert len(np.unique(traj.states, axis=0)) == len(traj.times) == 11
        assert np.all(np.diff(traj.states[:, 0]) < 0.0)
        assert np.allclose(traj.states, np.exp(-traj.times)[:, None] * [1.0, 2.0],
                           rtol=1e-6, atol=0.0)

    def test_plain_rhs_returning_its_input_cannot_alias_the_state(self):
        # u' = u, with the state itself handed back as the derivative
        traj = integrate(lambda t, y: y, np.array([1.0]), 0.0, 0.1, 0.1)
        h = 0.1
        assert traj.final_state[0] == pytest.approx(1 + h + h**2 / 2 + h**3 / 6 + h**4 / 24,
                                                    rel=1e-15)

    def test_buffered_step_allocates_less_than_a_state(self, rng, make_random_forcing):
        # numpy's ufunc iterator may take up to getbufsize() = 8192 elements
        # per operand for the strided stencil slices, whatever the batch: on
        # 192 x 257 sites three such buffers still stay below one state
        params = LatticeParams(nu=1.0, lam=1.0, n=128)
        f = project_forcing(make_random_forcing(rng, support=128), params.n)
        rhs = make_finite_rhs(params, make_nonlinearity("cubic", 1.0), f)
        y = rng.standard_normal((192, params.dim))
        t, h = np.linspace(-3.0, -2.0, 192)[:, None], np.full((192, 1), 0.01)
        out, work = np.empty_like(y), np.empty((2, *y.shape))
        rk4_step(rhs, t, y, h, out, work)  # warm-up: the rhs makes its scratch arrays
        tracemalloc.start()
        try:
            rk4_step(rhs, t, y, h, out, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 3 * 8 * np.getbufsize() < y.nbytes
        assert peak < y.nbytes

    def test_site_major_step_allocates_less_than_a_quarter_state(self, rng,
                                                                make_random_forcing):
        # in Fortran order every stencil slice is one contiguous block, which
        # the ufunc iterator walks without buffering.  A broadcast operand (a
        # per-row step column, the forcing table) still takes a getbufsize()
        # buffer, 64 KB, in either layout; the forcing here is live on |i| <= 6
        # as in the attractor-wide benchmark, since a forcing live on all 257
        # sites would add a 2 x 64 KB peak for its columns
        params = LatticeParams(nu=1.0, lam=1.0, n=128)
        f = project_forcing(make_random_forcing(rng, support=6), params.n)
        rhs = make_finite_rhs(params, make_nonlinearity("cubic", 1.0), f)
        y = np.asfortranarray(rng.standard_normal((192, params.dim)))
        t, h = np.linspace(-3.0, -2.0, 192)[:, None], np.full((192, 1), 0.01)
        out, work = np.empty_like(y), (np.empty_like(y), np.empty_like(y))
        rk4_step(rhs, t, y, h, out, work)  # warm-up: the rhs makes its scratch arrays
        tracemalloc.start()
        try:
            rk4_step(rhs, t, y, h, out, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < y.nbytes / 4

    def test_work_cap_refuses_before_the_first_step(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y

        # 4 rows x 3 sites x 1e9 steps, over the cap
        assert 12 * 10 ** 9 > WORK_CAP
        with pytest.raises(ParameterError, match="1.2e[+]10 site-steps"):
            integrate_final(rhs, np.ones((4, 3)), 0.0, 1.0, 1e-9)
        assert not calls


class TestMemoryCap:
    def test_run_bytes_counts_nine_state_arrays(self):
        assert run_bytes(1, 33) == 9 * 8 * 33
        assert run_bytes(192, 257) == 9 * 8 * 192 * 257
        # the widest run the point cap allows at n = 300 fits well below the cap
        assert run_bytes(512, 601) < MEMORY_CAP / 40

    def test_refuses_above_the_cap(self, monkeypatch):
        monkeypatch.setattr("latticedyn.dynamics.MEMORY_CAP", 2048)
        assert run_bytes(1, 28) == 2016
        with pytest.raises(ParameterError, match="1 rows x 29 sites needs 2.09e[+]03 bytes"):
            run_bytes(1, 29)

    def test_march_refuses_before_the_first_step(self, monkeypatch):
        monkeypatch.setattr("latticedyn.dynamics.MEMORY_CAP", 2048)
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y

        with pytest.raises(ParameterError, match="4 rows x 9 sites"):
            integrate_final(rhs, np.ones((4, 9)), 0.0, 0.1, 0.05)
        with pytest.raises(ParameterError, match="1 rows x 33 sites"):
            integrate(rhs, np.ones(33), 0.0, 0.1, 0.05)
        assert not calls


class TestSiteMajorLayout:
    """Batches step in Fortran order; each element sees the same operations
    in the same order as in a C-ordered batch."""

    @pytest.mark.parametrize("name, alpha, coeffs", CATALOG)
    @pytest.mark.parametrize("periodic", [True, False], ids=["wrap", "zero-ghost"])
    def test_rk4_step_matches_c_order(self, rng, make_random_forcing, periodic,
                                      name, alpha, coeffs):
        params = LatticeParams(nu=0.8, lam=1.2, n=4)
        nl = make_nonlinearity(name, alpha, coeffs)
        f = make_random_forcing(rng, support=2).shift(0.37)
        make = make_finite_rhs if periodic else make_reference_rhs
        forcing = project_forcing(f, params.n) if periodic else f
        # one system per layout, so each keeps scratch arrays in its own layout
        rhs_c, rhs_f = make(params, nl, forcing), make(params, nl, forcing)
        for t, u in _batches(rng, params.dim):
            h = 0.05 if np.ndim(t) == 0 else np.array([[0.05], [0.02], [0.0]])
            results = []
            for rhs, y in ((rhs_c, np.ascontiguousarray(u)), (rhs_f, np.asfortranarray(u))):
                out, work = np.empty_like(y), (np.empty_like(y), np.empty_like(y))
                results.append(rk4_step(rhs, t, y, h, out, work))
            assert np.array_equal(_bits(results[0]), _bits(results[1]))

    @pytest.mark.parametrize("per_row", [False, True], ids=["scalar-start", "per-row-starts"])
    def test_integrate_final_matches_a_c_ordered_loop(self, rng, make_random_forcing,
                                                      per_row):
        params = LatticeParams(nu=1.0, lam=1.0, n=6)
        f = project_forcing(make_random_forcing(rng, support=3), params.n)
        nl = make_nonlinearity("cubic", 1.0)
        v0 = rng.standard_normal((5, params.dim))
        t0 = np.array([-1.0, -0.7, -0.35, -0.1, 0.0]) if per_row else -1.0
        t1, h = 0.0, 0.03
        got = integrate_final(make_finite_rhs(params, nl, f), v0, t0, t1, h)
        assert got.flags.c_contiguous
        # the same schedule on C-ordered buffers, step by step
        rhs = make_finite_rhs(params, nl, f)
        if per_row:
            t0, h, n_steps = _row_schedule(v0, t0, t1, h)
        else:
            n_steps = _step_count(t1 - t0, h)
        y, work = v0.copy(), (np.empty_like(v0), np.empty_like(v0))
        states = (np.empty_like(v0), np.empty_like(v0))
        for k in range(n_steps):
            t = t0 + k * h
            y = rk4_step(rhs, t, y, h if k < n_steps - 1 else t1 - t, states[k % 2], work)
        assert np.array_equal(_bits(got), _bits(y))
        assert not np.array_equal(got, v0)

    def test_integrate_final_steps_a_batch_site_major(self, rng):
        seen = []

        def rhs(t, u, out):
            seen.append(u.flags.f_contiguous and out.flags.f_contiguous)
            np.negative(u, out)
            return out

        # a C-ordered batch goes in; every stage the loop hands out is Fortran
        integrate_final(rhs, rng.standard_normal((4, 7)), 0.0, 0.3, 0.1)
        assert len(seen) == 12 and all(seen)


def _cocycle_setup():
    params = LatticeParams(nu=1.0, lam=1.0, n=4)
    nl = make_nonlinearity("linear", 1.0)
    f = QuasiPeriodicForcing.finite([0.3, 1.0, 0.5], 1.3, 0.4)
    fn = project_forcing(f, params.n)
    v0 = np.random.default_rng(7).standard_normal(params.dim) * 0.3
    return params, nl, fn, v0


class TestCocycle:
    def test_zero_intermediate_time(self):
        params, nl, fn, v0 = _cocycle_setup()
        assert cocycle_property_check(v0, fn, 1.0, 0.0, params, nl, 0.01) < 1e-14

    def test_two_path_defect_small(self):
        params, nl, fn, v0 = _cocycle_setup()
        d = cocycle_property_check(v0, fn, 1.0, 1.0, params, nl, 1e-3)
        assert d < 1e-8

    def test_defect_shrinks_at_fourth_order(self):
        # against a refined direct path the composed path shows its full
        # fourth-order error; equally resolved paths nearly cancel instead
        params, nl, fn, v0 = _cocycle_setup()
        defects = [
            cocycle_property_check(v0, fn, 1.0, 1.0, params, nl, h, direct_step=h / 20)
            for h in (1e-2, 5e-3, 2.5e-3)
        ]
        slopes = [
            math.log(d1 / d2) / math.log(2.0) for d1, d2 in zip(defects, defects[1:])
        ]
        for s in slopes:
            assert 3.7 <= s <= 4.3

    def test_rejects_negative_times(self):
        params, nl, fn, v0 = _cocycle_setup()
        with pytest.raises(ParameterError):
            cocycle_property_check(v0, fn, -1.0, 0.5, params, nl, 0.01)


class TestFlowProperties:
    def test_linear_contraction_between_trajectories(self, rng):
        # with F = -alpha s two solutions contract at least like e^-(lam+alpha)t
        params = LatticeParams(nu=1.0, lam=1.0, n=6)
        nl = make_nonlinearity("linear", 1.0)
        f = project_forcing(QuasiPeriodicForcing.geometric(1.0, 0.5, 1.0), params.n)
        rhs = make_finite_rhs(params, nl, f)
        a = rng.standard_normal(params.dim)
        b = rng.standard_normal(params.dim)
        t_end = 2.0
        fa = integrate_final(rhs, a, 0.0, t_end, 0.005)
        fb = integrate_final(rhs, b, 0.0, t_end, 0.005)
        gap0 = np.linalg.norm(a - b)
        gap1 = np.linalg.norm(fa - fb)
        assert gap1 <= 1.05 * math.exp(-2.0 * t_end) * gap0

    def test_translation_identity(self, rng):
        # driving with shift(s, f) from t0 equals driving with f from t0 + s
        params = LatticeParams(nu=0.6, lam=1.1, n=4)
        nl = make_nonlinearity("cubic", 0.4)
        f = project_forcing(QuasiPeriodicForcing.geometric(0.8, 0.5, 1.7, 0.2), params.n)
        s = 0.83
        v0 = rng.standard_normal(params.dim) * 0.2
        shifted = integrate_final(
            make_finite_rhs(params, nl, f.shift(s)), v0, 0.0, 1.5, 0.003
        )
        direct = integrate_final(make_finite_rhs(params, nl, f), v0, s, s + 1.5, 0.003)
        assert np.linalg.norm(shifted - direct) < 1e-9
