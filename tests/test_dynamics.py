import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    _DRIVE_VALUES,
    MEMORY_CAP,
    WORK_CAP,
    Nonlinearity,
    Trajectory,
    _binding,
    _compile_rhs,
    _step_consts,
    auto_step,
    integrate_final,
    plan_run,
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
from latticedyn.operators import apply_laplacian, laplacian_matrix


class TestParams:
    def test_valid(self):
        # the order is not a lattice constant: each system carries its own
        p = LatticeParams(nu=0.0, lam=0.5)
        assert [f.name for f in fields(p)] == ["nu", "lam"] and (p.nu, p.lam) == (0.0, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(nu=1.0, lam=0.0), dict(nu=-0.1, lam=1.0)],
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

    def test_func_disagreeing_only_at_zero_named(self):
        # s = 0 is on the registration grid, so F(0) = 0 is part of agreement
        nl = Nonlinearity(name="offset", coeffs=(-1.0,), alpha=0.0,
                          func=lambda s: np.where(s == 0.0, 1.0, -s))
        with pytest.raises(NonlinearityConditionError, match="func disagrees"):
            nl.verify()

    def test_func_disagreeing_with_its_coefficients_named(self):
        # the right-hand sides would integrate +s while func samples as -s
        nl = Nonlinearity(name="split", coeffs=(1.0,), alpha=0.0, func=lambda s: -s)
        with pytest.raises(NonlinearityConditionError,
                           match=r"func disagrees with its coefficients \(1.0,\)"):
            nl.verify()

    @pytest.mark.parametrize("coeffs", [(-1.0, -1.0), (-1.0, 2.0, -1.0), (-0.5, -1.0, -0.25)],
                             ids=["cubic", "poly-1-2-1", "quintic"])
    def test_sampled_slopes_stay_within_the_witness(self, coeffs):
        # secant slopes of F on [-rho, rho], the ball the witness is taken on
        nl = Nonlinearity(name="poly", coeffs=coeffs, alpha=0.0)
        for rho in np.linspace(0.5, 9.0, 18):
            s = np.linspace(-rho, rho, 10_001)
            slopes = np.abs(np.diff(nl.func(s)) / np.diff(s))
            assert slopes.max() <= nl.lipschitz(rho) * (1.0 + 1e-9)

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

    @pytest.mark.parametrize("name, alpha, coeffs",
                             [("linear", 0.7, (-0.7,)), ("cubic", 1.0, (-1.0, -1.0)),
                              ("cubic", 0.0, (-0.0, -1.0)), ("zero", 0.0, (0.0,))])
    def test_names_are_poly_presets_bit_for_bit(self, rng, name, alpha, coeffs):
        named, poly = make_nonlinearity(name, alpha), make_nonlinearity("poly", alpha, coeffs)
        row = np.array([0.0, -0.0, 1e-200, -1e-200, 4.0, -4.0, 0.5, -0.75, 3.0])
        for s in (row, 3.0 * rng.standard_normal((5, 9)),
                  np.asfortranarray(3.0 * rng.standard_normal((5, 9)))):
            forms = []
            for nl in (named, poly):
                out, work = np.full_like(s, np.nan), np.full((3, *s.shape), np.nan)
                forms += [nl.func(s), nl.func(s, out, work)]
            assert all(np.array_equal(_bits(f), _bits(forms[0])) for f in forms)

    def test_witnesses_are_the_closed_forms_bit_for_bit(self):
        # criterion 3's rho and the attractor-wide benchmark's automatic rho among them
        rhos = [2.2, 1.6179793959136726, *map(float, np.linspace(0.01, 10.0, 997))]
        for alpha in (0.0, 0.7, 1.0):
            linear = make_nonlinearity("linear", alpha)
            cubic = make_nonlinearity("cubic", alpha)
            poly = make_nonlinearity("poly", alpha, (-alpha, -1.0))
            for rho in rhos:
                assert linear.lipschitz(rho) == alpha
                assert cubic.lipschitz(rho) == poly.lipschitz(rho) == alpha + 3.0 * rho * rho

    @pytest.mark.parametrize("coeffs, message",
                             [((-1e308, -1e308), "finite values violated, F[(]-4[)] = inf"),
                              # F stays finite on |s| <= 4, its witness 1280 * 1.5e305 does not
                              ((0.0, 0.0, -1.5e305), "finite Lipschitz witness violated")])
    def test_overflow_named_without_a_warning(self, coeffs, message):
        # any RuntimeWarning is an error here
        with pytest.raises(NonlinearityConditionError, match=message):
            make_nonlinearity("poly", 0.0, coeffs)


class TestFiniteRhs:
    def setup_method(self):
        self.params = LatticeParams(nu=1.0, lam=1.0)
        self.zero_f = QuasiPeriodicForcing.zero()

    def rhs(self, nl, forcing=None):
        return make_finite_rhs(self.params, nl, forcing or self.zero_f, 1)

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

    def test_dimension_mismatch_in_the_out_form(self):
        with pytest.raises(DimensionError, match="state width 5 .* [(]expected 3[)]"):
            self.rhs(make_nonlinearity("zero"))(0.0, np.zeros(5), np.empty(5))

    def test_forcing_matches_eval_window_per_row_time(self, rng, make_random_forcing):
        # the compiled table adds f(t) exactly as the forcing evaluates it,
        # at each time to one state and to every row of a batch
        nl = make_nonlinearity("zero")
        params, n = LatticeParams(nu=0.0, lam=1.0), 4
        f = make_random_forcing(rng, support=2).shift(0.37)
        rhs = make_finite_rhs(params, nl, project_forcing(f, 4), n)
        for t in (-1.5, 0.0, 2.25):
            out = rhs(t, np.zeros((3, 2 * n + 1)))
            for row in out:
                assert np.array_equal(row, f.eval_window(t, 4))
            assert np.array_equal(rhs(t, np.zeros(2 * n + 1)), f.eval_window(t, 4))

    def test_dissipativity_identity(self, rng):
        # <-nu A v, v> = -nu ||B v||^2 <= 0
        from latticedyn import apply_difference, apply_laplacian

        params, n = LatticeParams(nu=0.7, lam=1.0), 6
        v = rng.standard_normal(2 * n + 1)
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
        params, n = LatticeParams(nu=1.0, lam=1.0), 5
        nl = make_nonlinearity("zero")
        rhs = make_reference_rhs(params, nl, QuasiPeriodicForcing.zero(), n)
        assert np.array_equal(rhs(0.0, np.zeros(11)), np.zeros(11))

    def test_delta_state_with_decay(self):
        params, n = LatticeParams(nu=1.0, lam=1.0), 5
        nl = make_nonlinearity("zero")
        u = np.zeros(11)
        u[5] = 1.0
        out = make_reference_rhs(params, nl, QuasiPeriodicForcing.zero(), n)(0.0, u)
        expected = np.zeros(11)
        expected[4], expected[5], expected[6] = 1.0, -3.0, 1.0  # stencil minus lam*u
        assert np.array_equal(out, expected)

    def test_interior_consistency_with_finite_system(self, rng, make_random_forcing):
        # state supported on |i| <= n-1 cannot see the wrap
        n = 5
        params = LatticeParams(nu=0.8, lam=1.2)
        nl = make_nonlinearity("cubic", 0.3)
        f = make_random_forcing(rng, support=2)
        v = np.zeros(2 * n + 1)
        v[2:-2] = rng.standard_normal(2 * n - 3)  # zero at |i| in {n-1? no: n, n-1}
        fin = make_finite_rhs(params, nl, project_forcing(f, n), n)(0.7, v)
        ref = make_reference_rhs(params, nl, f, n)(0.7, v.copy())
        inner = slice(2, 2 * n - 1)  # |i| <= n-2 rows agree exactly
        assert np.allclose(fin[inner], ref[inner], atol=1e-14)

    def test_boundary_contamination_detected(self):
        params, n = LatticeParams(nu=1.0, lam=1.0), 4
        nl = make_nonlinearity("zero")
        rhs = make_reference_rhs(params, nl, QuasiPeriodicForcing.zero(), n)
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
        params = LatticeParams(nu=1.0, lam=1.0)
        nl = make_nonlinearity("linear", 1.0)
        assert max_stable_step(params, nl, 2.0) == pytest.approx(0.5 / 6.0)

    def test_decoupled_scalar(self):
        params = LatticeParams(nu=0.0, lam=1.0)
        nl = make_nonlinearity("zero")
        assert max_stable_step(params, nl, 1.0) == pytest.approx(0.5)

    def test_auto_step_uses_the_radius_margin(self):
        params = LatticeParams(nu=1.0, lam=1.0)
        nl = make_nonlinearity("cubic", 1.0)
        assert auto_step(params, nl, 1.0) == max_stable_step(params, nl, 2.0)

    def test_roughly_halves_with_coupling(self):
        nl = make_nonlinearity("zero")
        h1 = max_stable_step(LatticeParams(nu=10.0, lam=0.1), nl, 1.0)
        h2 = max_stable_step(LatticeParams(nu=20.0, lam=0.1), nl, 1.0)
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
        with pytest.raises(DivergenceError, match="step"):
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
        assert np.allclose(traj.times, [0.0, 0.4, 0.8, 1.0], rtol=0.0, atol=1e-15)
        # a stride that divides the step count keeps no extra row for t1
        traj = integrate(lambda t, y: -y, np.array([1.0]), 0.0, 1.0, 0.1, sample_stride=5)
        assert traj.steps == 10 and np.allclose(traj.times, [0.0, 0.5, 1.0], rtol=0.0, atol=1e-15)
        assert np.allclose(traj.states[:, 0], np.exp(-traj.times), rtol=1e-6, atol=0.0)

    def test_partial_final_step_lands_exactly(self):
        traj = integrate(lambda t, y: -y, np.array([1.0]), 0.0, 0.25, 0.1)
        assert traj.times[-1] == 0.25
        assert traj.final_state[0] == pytest.approx(math.exp(-0.25), abs=1e-6)

    @pytest.mark.parametrize("make", [make_finite_rhs, make_reference_rhs],
                             ids=["wrap", "zero-ghost"])
    def test_batch_rows_equal_single_rows_bit_for_bit(self, rng, make_random_forcing, make):
        params, n = LatticeParams(nu=1.0, lam=1.0), 5
        f = make_random_forcing(rng, support=3).shift(0.37)
        rhs = make(params, make_nonlinearity("cubic", 1.0), project_forcing(f, n), n)
        v0 = rng.standard_normal((6, 2 * n + 1))
        batch = integrate_final(rhs, v0, -1.0, 0.0, 0.03)
        for row in range(6):
            single = integrate_final(rhs, v0[row], -1.0, 0.0, 0.03)
            assert np.array_equal(_bits(batch[row]), _bits(single))

    def test_stack_samples_equal_single_rows_bit_for_bit(self, rng, make_random_forcing):
        params, n = LatticeParams(nu=1.0, lam=1.0), 5
        f = project_forcing(make_random_forcing(rng, support=3), n)
        rhs = make_finite_rhs(params, make_nonlinearity("cubic", 1.0), f, n)
        v0 = rng.standard_normal((4, 2 * n + 1))
        # 34 steps: samples at t0, every third step and t1
        stack = integrate(rhs, v0, -1.0, 0.0, 0.03, sample_stride=3)
        assert stack.states.shape == (13, 4, 2 * n + 1) and stack.states.flags.c_contiguous
        assert stack.norms_sq().shape == (13, 4)
        for row in range(4):
            single = integrate(rhs, v0[row], -1.0, 0.0, 0.03, sample_stride=3)
            assert np.array_equal(_bits(stack.times), _bits(single.times))
            assert np.array_equal(_bits(stack.states[:, row]), _bits(single.states))
            assert np.array_equal(_bits(stack.norms_sq()[:, row]), _bits(single.norms_sq()))

    @pytest.mark.parametrize("shape", [(7,), (3, 7)], ids=["row", "stack"])
    def test_stride_zero_keeps_only_the_end(self, rng, shape):
        rhs = make_finite_rhs(LatticeParams(nu=1.0, lam=1.0), make_nonlinearity("cubic", 1.0),
                              QuasiPeriodicForcing.finite([1.0], 1.0, 0.0), 3)
        v0 = rng.standard_normal(shape)
        original = v0.copy()
        end = integrate(rhs, v0, 0.0, 0.25, 0.1, sample_stride=0)
        every = integrate(rhs, v0, 0.0, 0.25, 0.1)
        assert end.times.tolist() == [0.25] and end.steps == every.steps == 3
        assert np.array_equal(_bits(end.states), _bits(every.states[-1:]))
        assert np.array_equal(_bits(integrate_final(rhs, v0, 0.0, 0.25, 0.1)),
                              _bits(every.final_state))
        # the loop steps its own copy of v0; a run of no steps ends where it starts
        assert np.array_equal(_bits(v0), _bits(original))
        assert np.array_equal(integrate(rhs, v0, 0.5, 0.5, 0.1, 0).final_state, v0)

    def test_boundary_floor_raises_through_integrate(self):
        rhs = make_reference_rhs(LatticeParams(nu=1.0, lam=1.0), make_nonlinearity("zero"),
                                 QuasiPeriodicForcing.zero(), 4)
        u = np.zeros((2, 9))
        u[1, 4] = 1.0
        with pytest.raises(BoundaryContaminationError, match="edge amplitude"):
            integrate(rhs, u, 0.0, 0.1, 0.01, boundary_floor=1e-8)
        assert integrate(rhs, u, 0.0, 0.1, 0.01).states.shape == (11, 2, 9)

    def test_stack_divergence_names_its_row(self):
        v0 = np.array([[0.1, 0.1], [0.1, 0.1], [0.1, 5.0]])
        with pytest.raises(DivergenceError, match=r"non-finite row 2 after step \d+"):
            integrate(lambda t, y: y * y, v0, 0.0, 10.0, 0.5)

    def test_negative_stride_is_refused(self):
        with pytest.raises(ParameterError, match="sample_stride must be >= 0"):
            integrate(lambda t, y: -y, np.ones(3), 0.0, 1.0, 0.1, sample_stride=-1)

    def test_start_time_arrays_are_refused(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y

        with pytest.raises(DimensionError, match="one start time is shared by every row"):
            integrate_final(rhs, np.ones((2, 3)), np.array([-1.0, -0.5]), 0.0, 0.1)
        with pytest.raises(DimensionError, match="got shape [(]1,[)]"):
            integrate_final(rhs, np.ones(3), np.array([-1.0]), 0.0, 0.1)
        assert not calls

    def test_ensemble_rows_match_single_runs(self, rng):
        params, n = LatticeParams(nu=1.0, lam=1.0), 3
        nl = make_nonlinearity("linear", 0.5)
        f = project_forcing(QuasiPeriodicForcing.geometric(0.5, 0.5, 1.0), 3)
        rhs = make_finite_rhs(params, nl, f, n)
        v0 = rng.standard_normal((4, 2 * n + 1))
        batch = integrate_final(rhs, v0, 0.0, 2.0, 0.01)
        for row in range(4):
            single = integrate_final(rhs, v0[row], 0.0, 2.0, 0.01)
            assert np.allclose(batch[row], single, atol=1e-13)


CATALOG = [("linear", 0.7, None), ("cubic", 1.0, None), ("zero", 0.0, None),
           ("poly", 0.5, (-0.5, -1.0, -0.25)), ("poly", 0.4, (-0.5, 0.25, -0.25))]
BOUNDARIES = ["wrap", "project", "zero"]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _batches(rng, dim):
    """(t, u): one state and a batch of rows, each at one time."""
    return [(0.3, rng.standard_normal(dim)), (-1.5, rng.standard_normal((3, dim)))]


def _extreme(dim):
    """One state of signed zeros, subnormals and values near 1e103, whose
    cubes overflow, between ordinary ones."""
    values = [0.0, -0.0, 5e-324, -2.5e-320, 1e103, -1e103, 5.5e102, -0.7, 1e-310, 2.0, -0.0]
    return np.resize(values, dim)


def _same(got, want):
    """Equal bits where ``want`` is finite, equal values (NaN to NaN) elsewhere."""
    finite = np.isfinite(want)
    return (np.array_equal(_bits(got[finite]), _bits(want[finite]))
            and np.array_equal(got, want, equal_nan=True))


def _rk4(rhs, t, y, h, out, work):
    """One :func:`rk4_step` of ``rhs`` from ``y`` at ``t`` by ``h`` into
    ``out``, bound and driven as ``integrate`` steps it, as a call of no
    arguments: binding keeps the right-hand side's scratch arrays."""
    bind, drives = _binding(rhs)
    k, stage = work
    first, rest = bind(y, out), bind(stage, k)
    _, fill = drives(1)
    drive = fill(np.array([[t, t + 0.5 * h, t + h]]))[0]
    consts = _step_consts(h)
    return lambda: rk4_step(first, rest, y, out, work, drive, consts)


def _allocating_run(rhs, v0, t0, t1, h):
    """The states ``integrate`` keeps at stride 1, from step-by-step RK4 of
    allocating ``rhs(t, u)`` calls in ``rk4_step``'s order of operations."""
    n_steps = plan_run(np.shape(v0), t0, t1, h)
    y = np.array(v0, dtype=float)
    states = [y]
    for k in range(n_steps):
        t = t0 + k * h
        step = t1 - t if k == n_steps - 1 else h
        half = 0.5 * step
        k1 = rhs(t, y)
        k2 = rhs(t + half, y + half * k1)
        k3 = rhs(t + half, y + half * k2)
        k4 = rhs(t + step, y + step * k3)
        y = k1 + 2.0 * k2
        y += 2.0 * k3
        y += k4
        y *= step / 6.0
        y += states[-1]
        states.append(y)
    return np.array(states)


def _second_difference(n, periodic):
    """The dense ``A`` of the periodic or the zero-ghost system."""
    mat = laplacian_matrix(n)
    if not periodic:
        mat[0, -1] = mat[-1, 0] = 0
    return mat.astype(float)


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
    @pytest.mark.parametrize("nu", [0.8, 1.0])
    # the unit coupling drops the product with nu: x * 1.0 is x
    @np.errstate(over="ignore", invalid="ignore")
    def test_rhs_out_form_matches_allocating_form(self, rng, make_random_forcing, nu, periodic,
                                                   name, alpha, coeffs):
        params, n = LatticeParams(nu=nu, lam=1.2), 4
        nl = make_nonlinearity(name, alpha, coeffs)
        f = make_random_forcing(rng, support=2).shift(0.37)
        make = make_finite_rhs if periodic else make_reference_rhs
        rhs = make(params, nl, project_forcing(f, n) if periodic else f, n)
        # the second pass feeds new states through the scratch arrays the first left
        states = _batches(rng, 2 * n + 1) + [(0.6, _extreme(2 * n + 1))]
        for t, u in states + _batches(rng, 2 * n + 1):
            out = np.full_like(u, np.nan)
            assert rhs(t, u, out) is out
            assert _same(out, rhs(t, u))
            # reference: the same arithmetic on fresh arrays, nu * S u plus
            # the odd polynomial with -lam - 2 nu in its linear coefficient
            padded = np.pad(u, [(0, 0)] * (u.ndim - 1) + [(1, 1)],
                            mode="wrap" if periodic else "constant")
            expected = params.nu * (padded[..., :-2] + padded[..., 2:])
            c0, *higher = nl.coeffs
            expected += (c0 - params.lam - 2.0 * params.nu) * u
            power = u
            for c in higher:
                power = power * (u * u)
                expected += c * power
            assert np.array_equal(out, expected + f.eval_window(t, n), equal_nan=True)

    @pytest.mark.parametrize("name, alpha, coeffs", CATALOG)
    @pytest.mark.parametrize("periodic", [True, False], ids=["wrap", "zero-ghost"])
    def test_rhs_matches_the_dense_operator_form_within_ulps(self, rng, make_random_forcing,
                                                            periodic, name, alpha, coeffs):
        # -nu*M u - lam*u + F(u) + f(t) with the dense M; the error in ulps of
        # the sum of the term magnitudes, the scale the sum is rounded at
        params, n = LatticeParams(nu=0.8, lam=1.2), 4
        nl = make_nonlinearity(name, alpha, coeffs)
        f = make_random_forcing(rng, support=2).shift(0.37)
        make = make_finite_rhs if periodic else make_reference_rhs
        rhs = make(params, nl, project_forcing(f, n) if periodic else f, n)
        mat = _second_difference(n, periodic)
        worst = 0.0
        for t, u in _batches(rng, 2 * n + 1) * 20:
            u = 3.0 * u
            for y in (u, np.asfortranarray(u)):
                got = rhs(t, y, np.empty_like(y))
                drive = f.eval_window(t, n)
                terms = [-params.nu * (u @ mat.T), -params.lam * u, nl.func(u), drive + 0.0 * u]
                scale = (params.nu * (np.abs(u) @ np.abs(mat).T) + params.lam * np.abs(u)
                         + sum(abs(c) * np.abs(u) ** (2 * k + 1) for k, c in enumerate(nl.coeffs))
                         + np.abs(drive))
                ulps = np.abs(got - np.sum(terms, axis=0)) / np.spacing(scale)
                worst = max(worst, float(ulps.max()))
        # both sides round four to six partial sums; 3 ulp is the worst seen
        # over 200 random (nu, lam, forcing) draws at amplitudes 0.1 to 3, and
        # this data reads 1 to 2
        assert worst <= 3.0

    @pytest.mark.parametrize("rows", [None, 4], ids=["one-row", "scalar-step"])
    def test_rk4_step_keeps_the_allocating_arithmetic(self, rng, make_random_forcing, rows):
        params, n = LatticeParams(nu=1.0, lam=1.0), 5
        f = project_forcing(make_random_forcing(rng, support=3), n)
        rhs = make_finite_rhs(params, make_nonlinearity("cubic", 1.0), f, n)
        y = rng.standard_normal(2 * n + 1 if rows is None else (rows, 2 * n + 1))
        t, h = 0.3, 0.05
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
        assert _rk4(rhs, t, y, h, out, work)() is out
        assert np.array_equal(_bits(out), _bits(expected))

    def test_drive_reuse_matches_a_fresh_system(self, rng, make_random_forcing):
        params, n = LatticeParams(nu=0.8, lam=1.2), 4
        nl = make_nonlinearity("cubic", 1.0)
        f = project_forcing(make_random_forcing(rng, support=2).shift(0.37), n)
        rhs = make_finite_rhs(params, nl, f, n)
        t = 0.25 + 0.5
        # equal floats from other expressions, then new times; the drive
        # columns depend on t alone, so the state changes between calls
        for time in (t, 1.5 / 2.0, np.float64(t), 0.7, t, 0.0, -0.0):
            u = rng.standard_normal(2 * n + 1)
            got = rhs(time, u, np.empty_like(u))
            fresh = make_finite_rhs(params, nl, f, n)(time, u)
            assert np.array_equal(_bits(got), _bits(fresh))

    def test_signed_zero_times_are_evaluated_afresh(self):
        # 0.0 == -0.0, but with phase and offset -0.0 the drive keeps the
        # sign of t: sin(+-0) * a.  The middle site of [-0, 0, -0] sums
        # nu * (-0 + -0) and (c0 - lam - 2 nu) * 0 to -0, so the drive added
        # to it sets its sign
        params, n = LatticeParams(nu=1.0, lam=1.0), 1
        f = QuasiPeriodicForcing.finite([1.0, 1.0, 1.0], 1.0, -0.0, time_offset=-0.0)
        rhs = make_finite_rhs(params, make_nonlinearity("linear", 1.0), f, n)
        u = np.array([-0.0, 0.0, -0.0])
        assert np.signbit(rhs(-0.0, u, np.empty_like(u))[1])
        assert not np.signbit(rhs(0.0, u, np.empty_like(u))[1])
        assert np.signbit(rhs(-0.0, u, np.empty_like(u))[1])

    @pytest.mark.parametrize("shape", [()], ids=["0-d"])
    def test_time_array_written_in_place_gives_the_new_forcing(self, rng,
                                                               make_random_forcing, shape):
        params, n = LatticeParams(nu=0.8, lam=1.2), 4
        nl = make_nonlinearity("linear", 1.0)
        f = project_forcing(make_random_forcing(rng, support=2), n)
        rhs = make_finite_rhs(params, nl, f, n)
        t = np.full(shape, 0.3)
        u = rng.standard_normal((2, 2 * n + 1))
        rhs(t, u, np.empty_like(u))
        t += 0.5
        got = rhs(t, u, np.empty_like(u))
        assert np.array_equal(_bits(got), _bits(make_finite_rhs(params, nl, f, n)(t.copy(), u)))

    def test_integrate_stores_distinct_samples(self):
        traj = integrate(lambda t, y: -y, np.array([1.0, 2.0]), 0.0, 1.0, 0.1)
        # a sample stored as the loop's buffer would read as a later state
        assert len(np.unique(traj.states, axis=0)) == len(traj.times) == 11
        assert np.all(np.diff(traj.states[:, 0]) < 0.0)
        assert np.allclose(traj.states, np.exp(-traj.times)[:, None] * [1.0, 2.0],
                           rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("name, alpha, coeffs, arrays",
                             [("linear", 0.7, None, 1), ("cubic", 1.0, None, 1),
                              ("poly", 0.4, (-0.5, 0.25, -0.25), 3)],
                             ids=["linear", "cubic", "quintic"])
    def test_rhs_keeps_only_the_scratch_its_polynomial_takes(self, rng, name, alpha, coeffs,
                                                             arrays):
        # a new shape's first call keeps the polynomial's scratch arrays, one
        # state each, and the edge gather of a few sites per row; a later call
        # allocates no state
        params, n = LatticeParams(nu=1.0, lam=1.0), 128
        nl = make_nonlinearity(name, alpha, coeffs)
        rhs = make_finite_rhs(params, nl, QuasiPeriodicForcing.zero(), n)
        y = np.asfortranarray(rng.standard_normal((192, 2 * n + 1)))
        out = np.empty_like(y)
        tracemalloc.start()
        try:
            rhs(0.5, y, out)
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rhs(0.5, y, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state = y.nbytes
        assert arrays * state < kept < (arrays + 0.1) * state
        assert peak - kept < state / 4

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
        params, n = LatticeParams(nu=1.0, lam=1.0), 128
        f = project_forcing(make_random_forcing(rng, support=128), n)
        rhs = make_finite_rhs(params, make_nonlinearity("cubic", 1.0), f, n)
        y = rng.standard_normal((192, 2 * n + 1))
        t, h = -3.0, 0.01
        out, work = np.empty_like(y), np.empty((2, *y.shape))
        step = _rk4(rhs, t, y, h, out, work)  # binding: the rhs makes its scratch arrays
        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 3 * 8 * np.getbufsize() < y.nbytes
        assert peak < y.nbytes

    def test_site_major_step_allocates_less_than_a_quarter_state(self, rng,
                                                                make_random_forcing):
        # in Fortran order every stencil slice is one contiguous block, which
        # the ufunc iterator walks without buffering.  The drive row added to
        # every row of the batch may still take a getbufsize() buffer, 64 KB,
        # in either layout; the forcing here is live on |i| <= 6 as in the
        # attractor-wide benchmark
        params, n = LatticeParams(nu=1.0, lam=1.0), 128
        f = project_forcing(make_random_forcing(rng, support=6), n)
        rhs = make_finite_rhs(params, make_nonlinearity("cubic", 1.0), f, n)
        y = np.asfortranarray(rng.standard_normal((192, 2 * n + 1)))
        t, h = -3.0, 0.01
        out, work = np.empty_like(y), (np.empty_like(y), np.empty_like(y))
        step = _rk4(rhs, t, y, h, out, work)  # binding: the rhs makes its scratch arrays
        step()
        tracemalloc.start()
        try:
            step()
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
    def test_run_bytes_counts_eight_state_arrays(self):
        assert run_bytes(1, 33) == 8 * 8 * 33
        assert run_bytes(192, 257) == 8 * 8 * 192 * 257
        # the widest run the point cap allows at n = 300 fits well below the cap
        assert run_bytes(512, 601) < MEMORY_CAP / 40

    def test_refuses_above_the_cap(self, monkeypatch):
        monkeypatch.setattr("latticedyn.dynamics.MEMORY_CAP", 2048)
        assert run_bytes(1, 32) == 2048
        with pytest.raises(ParameterError, match="1 rows x 33 sites needs 2.11e[+]03 bytes"):
            run_bytes(1, 33)

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

    def test_integrate_counts_its_samples(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            return -y

        # 5e6 steps of one 33-site row pass the work cap; the kept samples
        # need about 1.3 GB
        assert 33 * 5 * 10 ** 6 < WORK_CAP and run_bytes(1, 33) < MEMORY_CAP
        with pytest.raises(ParameterError,
                           match="1 rows x 33 sites keeping 5000001 sample rows needs 1.32e[+]09"):
            integrate(rhs, np.ones(33), 0.0, 5000.0, 1e-3, sample_stride=1)
        # a stack keeps one sample row per row: 4 rows over a quarter of the steps
        with pytest.raises(ParameterError,
                           match="4 rows x 33 sites keeping 5000004 sample rows needs 1.32e[+]09"):
            integrate(rhs, np.ones((4, 33)), 0.0, 1250.0, 1e-3, sample_stride=1)
        # every 1000th state is 1.3 MB
        assert run_bytes(1, 33, 5 * 10 ** 3 + 2) < MEMORY_CAP
        assert not calls


class TestStackedRhs:
    """Systems side by side on the last axis step as each system alone."""

    SYSTEMS = ((2, "project"), (5, "zero"), (1, "project"), (3, "wrap"))

    @pytest.mark.parametrize("name, alpha, coeffs", CATALOG)
    @pytest.mark.parametrize("nu", [0.8, 1.0])
    @np.errstate(over="ignore", invalid="ignore")
    def test_equals_each_block_alone(self, rng, make_random_forcing, nu, name, alpha, coeffs):
        params = LatticeParams(nu=nu, lam=1.2)
        nl = make_nonlinearity(name, alpha, coeffs)
        f = make_random_forcing(rng, support=3).shift(0.37)
        blocks = self.SYSTEMS
        alone = [_compile_rhs(params, nl, f, (block,)) for block in blocks]
        widths = np.cumsum([0] + [2 * n + 1 for n, _ in blocks])
        stacked = _compile_rhs(params, nl, f, blocks)
        for t, u in _batches(rng, widths[-1]) + [(0.6, _extreme(widths[-1]))]:
            for order in ("C", "F"):
                y = np.array(u, order=order)
                # a float time twice: the second call reads the scratch the first left
                for _ in range(2):
                    got = stacked(t, y, np.empty_like(y))
                    for rhs, a, b in zip(alone, widths, widths[1:]):
                        part = np.array(y[..., a:b], order=order)
                        want = rhs(t, part, np.empty_like(part))
                        assert _same(got[..., a:b], want)
        assert stacked.edges.tolist() == [5, 15]
        assert alone[0].edges.tolist() == [] and alone[1].edges.tolist() == [0, 10]

    @settings(max_examples=40, deadline=None)
    @given(blocks=st.lists(st.tuples(st.integers(1, 6), st.sampled_from(BOUNDARIES)),
                           min_size=1, max_size=5),
           unforced=st.lists(st.booleans(), min_size=7, max_size=7),
           rows=st.sampled_from([None, 1, 3]), order=st.sampled_from("CF"),
           t=st.floats(-20.0, 20.0), seed=st.integers(0, 2 ** 32 - 1))
    # ``unforced`` zeroes amplitudes of the forcing on sites -3 .. 3.  A
    # zero-ghost block first, as convergence_study stacks it; two n = 1
    # blocks side by side; an n = 1 block without forcing between two forced
    # ones (the wrapped n = 1 block reads sites -2 and 2 at its edges)
    @example(blocks=[(6, "zero"), (1, "wrap"), (1, "project"), (2, "wrap")],
             unforced=[False, False, True, True, True, False, False],
             rows=3, order="F", t=0.75, seed=1)
    @example(blocks=[(1, "zero"), (1, "zero"), (1, "wrap")],
             unforced=[False] * 7, rows=None, order="C", t=-1.5, seed=2)
    @example(blocks=[(3, "zero"), (1, "wrap"), (1, "zero"), (4, "project"), (2, "zero")],
             unforced=[True, False, True, False, True, False, True],
             rows=3, order="C", t=2.0, seed=3)
    def test_random_stacks_give_each_block_alone_bit_for_bit(self, blocks, unforced, rows,
                                                             order, t, seed):
        rng = np.random.default_rng(seed)
        params = LatticeParams(nu=0.8, lam=1.2)
        nl = make_nonlinearity("cubic", 1.0)
        # one forcing of support 3 with some zero amplitudes, one time offset
        amps = np.where(unforced, 0.0, rng.uniform(-1.0, 1.0, 7))
        f = QuasiPeriodicForcing.finite(amps, rng.uniform(0.2, 3.0, 7),
                                        rng.uniform(0.0, 2.0 * np.pi, 7)).shift(0.37)
        widths = np.cumsum([0] + [2 * n + 1 for n, _ in blocks])
        shape = (widths[-1],) if rows is None else (rows, widths[-1])
        # half the sites signed zeros: at, next to and between the block edges
        zeros = np.copysign(0.0, rng.standard_normal(shape))
        y = np.array(np.where(rng.random(shape) < 0.5, zeros, 3.0 * rng.standard_normal(shape)),
                     order=order)
        stacked = _compile_rhs(params, nl, f, blocks)
        alone = [_compile_rhs(params, nl, f, (block,)) for block in blocks]
        # the second call at the same float time reads the scratch the first left
        for _ in range(2):
            got = stacked(t, y, np.empty_like(y))
            for rhs, a, b in zip(alone, widths, widths[1:]):
                part = np.array(y[..., a:b], order=order)
                want = rhs(t, part, np.empty_like(part))
                assert np.array_equal(_bits(got[..., a:b]), _bits(want))

    @pytest.mark.parametrize("order, share", [("F", 0.25), ("C", 1.0)], ids=["F", "C"])
    def test_stacked_step_allocates_less_than_a_quarter_state(self, rng, order, share):
        # converge's layout: the zero-ghost reference n = 64 and the wrapped
        # orders 4, 8 and 16, stepped site-major.  The edge gather holds a few
        # values per row and the drive span may take one getbufsize() buffer,
        # 64 KB; the state is over eight of those.  In C order the strided
        # stencil slices take buffers too, but the gather copies no state
        f = QuasiPeriodicForcing.finite(0.5 ** np.abs(np.arange(-2, 3)), 1.0,
                                        rng.uniform(0.0, 2.0 * np.pi, 5))
        blocks = ((64, "zero"),) + tuple((n, "wrap") for n in (4, 8, 16))
        rhs = _compile_rhs(LatticeParams(nu=1.0, lam=1.0),
                           make_nonlinearity("linear", 1.0), f, blocks)
        y = np.array(rng.standard_normal((384, 188)), order=order)
        t, h = -3.0, 0.01
        out, work = np.empty_like(y), (np.empty_like(y), np.empty_like(y))
        step = _rk4(rhs, t, y, h, out, work)  # binding: the rhs makes its scratch arrays
        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.nbytes > 8 * (8 * np.getbufsize())
        assert peak < share * y.nbytes

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_every_boundary_refuses_an_order_below_one(self, boundary):
        params = LatticeParams(nu=1.0, lam=1.0)
        f = QuasiPeriodicForcing.finite([0.5, 1.0, 0.5], 1.0, 0.0)
        for systems in (((0, boundary),), ((2, "wrap"), (0, boundary))):
            with pytest.raises(ParameterError, match="truncation order must be >= 1, got 0"):
                _compile_rhs(params, make_nonlinearity("linear", 1.0), f, systems)

    def test_edge_monitor_checks_the_zero_ghost_edges(self):
        params = LatticeParams(nu=1.0, lam=1.0)
        rhs = _compile_rhs(params, make_nonlinearity("zero"), QuasiPeriodicForcing.zero(),
                           ((2, "wrap"), (3, "zero")))
        # the periodic block's edges hold 1.0; the zero-ghost block's edges stay 0
        y = np.zeros((2, 12))
        y[:, [0, 4]] = 1.0
        assert np.all(np.isfinite(integrate_final(rhs, y, 0.0, 0.1, 0.05, boundary_floor=1e-8)))
        y[1, 11] = 1e-3
        with pytest.raises(BoundaryContaminationError, match="edge amplitude 1.000e-03"):
            integrate_final(rhs, y, 0.0, 0.1, 0.05, boundary_floor=1e-8)


class TestSiteMajorLayout:
    """Batches step in Fortran order; each element sees the same operations
    in the same order as in a C-ordered batch."""

    @pytest.mark.parametrize("name, alpha, coeffs", CATALOG)
    @pytest.mark.parametrize("periodic", [True, False], ids=["wrap", "zero-ghost"])
    def test_rk4_step_matches_c_order(self, rng, make_random_forcing, periodic,
                                      name, alpha, coeffs):
        params, n = LatticeParams(nu=0.8, lam=1.2), 4
        nl = make_nonlinearity(name, alpha, coeffs)
        f = make_random_forcing(rng, support=2).shift(0.37)
        make = make_finite_rhs if periodic else make_reference_rhs
        forcing = project_forcing(f, n) if periodic else f
        # one system per layout, so each keeps scratch arrays in its own layout
        rhs_c, rhs_f = make(params, nl, forcing, n), make(params, nl, forcing, n)
        for t, u in _batches(rng, 2 * n + 1):
            h = 0.05
            results = []
            for rhs, y in ((rhs_c, np.ascontiguousarray(u)), (rhs_f, np.asfortranarray(u))):
                out, work = np.empty_like(y), (np.empty_like(y), np.empty_like(y))
                results.append(_rk4(rhs, t, y, h, out, work)())
            assert np.array_equal(_bits(results[0]), _bits(results[1]))

    @pytest.mark.parametrize("t0", [-1.0], ids=["scalar-start"])
    def test_integrate_final_matches_a_c_ordered_loop(self, rng, make_random_forcing, t0):
        params, n = LatticeParams(nu=1.0, lam=1.0), 6
        f = project_forcing(make_random_forcing(rng, support=3), n)
        nl = make_nonlinearity("cubic", 1.0)
        v0 = rng.standard_normal((5, 2 * n + 1))
        t1, h = 0.0, 0.03
        got = integrate_final(make_finite_rhs(params, nl, f, n), v0, t0, t1, h)
        assert got.flags.c_contiguous
        # the same schedule on C-ordered buffers, step by step
        rhs = make_finite_rhs(params, nl, f, n)
        n_steps = plan_run(v0.shape, t0, t1, h)
        y, work = v0.copy(), (np.empty_like(v0), np.empty_like(v0))
        states = (np.empty_like(v0), np.empty_like(v0))
        for k in range(n_steps):
            t = t0 + k * h
            y = _rk4(rhs, t, y, h if k < n_steps - 1 else t1 - t, states[k % 2], work)()
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


class TestBoundLoop:
    """``integrate`` binds each right-hand side once per run and evaluates
    the drive a block of steps at a time; it keeps the bits of step-by-step
    RK4 on allocating calls."""

    def test_one_row_over_several_drive_blocks(self, rng, make_random_forcing):
        params, n = LatticeParams(nu=0.8, lam=1.2), 8
        f = project_forcing(make_random_forcing(rng, support=8).shift(0.37), n)
        rhs = make_finite_rhs(params, make_nonlinearity("cubic", 1.0), f, n)
        v0 = rng.standard_normal(2 * n + 1)
        t0, t1, h = -1.3, 0.77, 0.02
        traj = integrate(rhs, v0, t0, t1, h)
        # the forcing is live on every site: 17 columns, three times per step
        assert traj.steps > 4 * (_DRIVE_VALUES // (3 * 17))
        assert traj.times[-1] - traj.times[-2] < h
        assert np.array_equal(_bits(traj.states), _bits(_allocating_run(rhs, v0, t0, t1, h)))

    @pytest.mark.parametrize("order", "CF")
    def test_a_stack_of_systems(self, rng, order):
        params = LatticeParams(nu=0.8, lam=1.2)
        f = QuasiPeriodicForcing.finite(rng.uniform(-1.0, 1.0, 7), rng.uniform(0.2, 3.0, 7),
                                        rng.uniform(0.0, 2.0 * np.pi, 7)).shift(-0.6)
        rhs = _compile_rhs(params, make_nonlinearity("cubic", 1.0), f, TestStackedRhs.SYSTEMS)
        v0 = np.array(rng.standard_normal((3, 26)), order=order)
        traj = integrate(rhs, v0, -0.5, 0.31, 0.05)
        assert np.array_equal(_bits(traj.states), _bits(_allocating_run(rhs, v0, -0.5, 0.31, 0.05)))

    def test_plain_and_out_callables(self, rng, make_random_forcing):
        params, n = LatticeParams(nu=1.0, lam=1.0), 4
        f = project_forcing(make_random_forcing(rng, support=3).shift(0.2), n)
        rhs = make_finite_rhs(params, make_nonlinearity("cubic", 1.0), f, n)
        seen = []

        def plain(t, u):
            seen.append(t)
            return rhs(t, u)

        def with_out(t, u, out):
            return rhs(t, u, out)

        v0 = rng.standard_normal((2, 2 * n + 1))
        want = _allocating_run(rhs, v0, -0.4, 0.45, 0.03)
        for callable_rhs in (plain, with_out):
            traj = integrate(callable_rhs, v0, -0.4, 0.45, 0.03)
            assert np.array_equal(_bits(traj.states), _bits(want))
        # a plain callable is handed each stage time as a float
        assert len(seen) == 4 * traj.steps and all(type(t) is float for t in seen)

    def test_a_compiled_rhs_is_bound_three_times_per_run(self, rng, make_random_forcing):
        params, n = LatticeParams(nu=1.0, lam=1.0), 4
        f = project_forcing(make_random_forcing(rng, support=2), n)
        rhs = make_finite_rhs(params, make_nonlinearity("linear", 1.0), f, n)
        bind, bound = rhs.bind, []

        def spy(u, out):
            bound.append(u.shape)
            return bind(u, out)

        rhs.bind = spy
        for t1 in (0.05, 20.0):
            bound.clear()
            integrate_final(rhs, rng.standard_normal((3, 2 * n + 1)), 0.0, t1, 0.01)
            # each state into the other and the stage state into k
            assert bound == [(3, 2 * n + 1)] * 3

    @pytest.mark.parametrize("name, alpha, coeffs", CATALOG)
    @pytest.mark.parametrize("shape, order", [((9,), "C"), ((3, 9), "C"), ((3, 9), "F")],
                             ids=["row", "C-stack", "site-major"])
    @pytest.mark.parametrize("nu", [0.8, 1.0])
    def test_one_binding_reads_the_state_written_in_place(self, rng, make_random_forcing, nu,
                                                          shape, order, name, alpha, coeffs):
        # integrate binds once and rewrites the bound state every step: an
        # evaluation holding a stale operand would read an earlier state
        params, n = LatticeParams(nu=nu, lam=1.2), 4
        f = project_forcing(make_random_forcing(rng, support=2).shift(0.37), n)
        rhs = make_finite_rhs(params, make_nonlinearity(name, alpha, coeffs), f, n)
        u = np.empty(shape, order=order)
        out = np.empty_like(u)
        evaluate, (_, fill) = rhs.bind(u, out), rhs.drives(1)
        for t in (0.3, -1.5, 2.0):
            u[...] = 3.0 * rng.standard_normal(shape)
            assert evaluate(fill(np.array([[t, t, t]]))[0][0]) is out
            assert np.array_equal(_bits(out), _bits(rhs(t, u)))

    @pytest.mark.parametrize("name, alpha, coeffs",
                             [("linear", 0.7, None), ("cubic", 1.0, None),
                              ("poly", 0.4, (-0.5, 0.25, -0.25))],
                             ids=["linear", "cubic", "quintic"])
    @pytest.mark.parametrize("rows", [None, 64], ids=["row", "site-major"])
    def test_a_bound_evaluation_allocates_no_array(self, rng, make_random_forcing, rows,
                                                  name, alpha, coeffs):
        # every array of the evaluation is resolved at bind time
        params, n = LatticeParams(nu=0.8, lam=1.2), 16
        f = project_forcing(make_random_forcing(rng, support=3), n)
        rhs = make_finite_rhs(params, make_nonlinearity(name, alpha, coeffs), f, n)
        y = np.asfortranarray(rng.standard_normal((2 * n + 1) if rows is None
                                                  else (rows, 2 * n + 1)))
        out = np.empty_like(y)
        evaluate, (_, fill) = rhs.bind(y, out), rhs.drives(1)
        row = fill(np.array([[0.3, 0.3, 0.3]]))[0][0]
        evaluate(row)
        tracemalloc.start()
        try:
            for _ in range(3):
                evaluate(row)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if rows is None:
            assert peak <= 400
        else:
            # a stack's edge scatter and broadcast drive add take numpy
            # iterators, freed within the call: about 3 KB, and a buffer of
            # the 64 x 7 forced block.  A state-sized temporary is 64 x 33
            assert peak <= 8 * rows * 7 + 4096 < y.nbytes

    def test_an_out_sharing_the_state_is_refused(self, rng, make_random_forcing):
        # the neighbour sum overwrote u before the polynomial read it
        params, n = LatticeParams(nu=1.0, lam=1.0), 3
        f = project_forcing(make_random_forcing(rng, support=2), n)
        rhs = make_finite_rhs(params, make_nonlinearity("cubic", 1.0), f, n)
        v = rng.standard_normal(2 * n + 1)
        stack = rng.standard_normal((4, 2 * n + 1))
        for u, out in ((v, v), (stack, stack[::-1])):
            with pytest.raises(ParameterError, match="share memory"):
                rhs(0.3, u, out)

    def test_c_ordered_stack_gathers_without_a_temporary(self, rng):
        # converge's stack in C order: take writes the edge gather in place.
        # The strided stencil slices still take up to three getbufsize()
        # buffers; a temporary gather of 4096 rows x 14 operands is 459 KB
        f = QuasiPeriodicForcing.finite(0.5 ** np.abs(np.arange(-2, 3)), 1.0,
                                        rng.uniform(0.0, 2.0 * np.pi, 5))
        blocks = ((64, "zero"),) + tuple((n, "wrap") for n in (4, 8, 16))
        rhs = _compile_rhs(LatticeParams(nu=1.0, lam=1.0),
                           make_nonlinearity("linear", 1.0), f, blocks)
        y = rng.standard_normal((4096, 188))
        out = np.empty_like(y)
        rhs(0.3, y, out)  # warm-up: the rhs makes its scratch arrays
        tracemalloc.start()
        try:
            rhs(0.3, y, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * np.getbufsize() < 4096 * 14 * 8


def _cocycle_setup():
    params, n = LatticeParams(nu=1.0, lam=1.0), 4
    nl = make_nonlinearity("linear", 1.0)
    f = QuasiPeriodicForcing.finite([0.3, 1.0, 0.5], 1.3, 0.4)
    fn = project_forcing(f, n)
    v0 = np.random.default_rng(7).standard_normal(2 * n + 1) * 0.3
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

    def test_order_is_read_from_the_width_of_v0(self):
        # a v0 of width 2n + 1 steps the order-n system; an even width has no order
        params, nl, fn, v0 = _cocycle_setup()
        wider = np.concatenate([[0.0], v0, [0.0]])
        assert cocycle_property_check(wider, fn, 1.0, 0.0, params, nl, 0.01) < 1e-14
        for even, expected in ((v0[:-1], 9), (np.append(v0, 0.0), 11)):
            with pytest.raises(DimensionError, match=f"state width {len(even)} .* {expected}"):
                cocycle_property_check(even, fn, 1.0, 1.0, params, nl, 0.01)


class TestFlowProperties:
    def test_linear_contraction_between_trajectories(self, rng):
        # with F = -alpha s two solutions contract at least like e^-(lam+alpha)t
        params, n = LatticeParams(nu=1.0, lam=1.0), 6
        nl = make_nonlinearity("linear", 1.0)
        f = project_forcing(QuasiPeriodicForcing.geometric(1.0, 0.5, 1.0), n)
        rhs = make_finite_rhs(params, nl, f, n)
        a = rng.standard_normal(2 * n + 1)
        b = rng.standard_normal(2 * n + 1)
        t_end = 2.0
        fa = integrate_final(rhs, a, 0.0, t_end, 0.005)
        fb = integrate_final(rhs, b, 0.0, t_end, 0.005)
        gap0 = np.linalg.norm(a - b)
        gap1 = np.linalg.norm(fa - fb)
        assert gap1 <= 1.05 * math.exp(-2.0 * t_end) * gap0

    def test_translation_identity(self, rng):
        # driving with shift(s, f) from t0 equals driving with f from t0 + s
        params, n = LatticeParams(nu=0.6, lam=1.1), 4
        nl = make_nonlinearity("cubic", 0.4)
        f = project_forcing(QuasiPeriodicForcing.geometric(0.8, 0.5, 1.7, 0.2), n)
        s = 0.83
        v0 = rng.standard_normal(2 * n + 1) * 0.2
        shifted = integrate_final(
            make_finite_rhs(params, nl, f.shift(s), n), v0, 0.0, 1.5, 0.003
        )
        direct = integrate_final(make_finite_rhs(params, nl, f, n), v0, s, s + 1.5, 0.003)
        assert np.linalg.norm(shifted - direct) < 1e-9
