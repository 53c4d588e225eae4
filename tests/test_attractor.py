import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from latticedyn import (
    AttractorCloud,
    LatticeParams,
    QuasiPeriodicForcing,
    convergence_study,
    hausdorff_semidistance,
    make_nonlinearity,
    sample_attractor,
    tail_certificate,
    wrap_forcing,
)
from latticedyn import attractor, checks
from latticedyn.attractor import _pad_to_width
from latticedyn.dynamics import (
    MEMORY_CAP,
    WORK_CAP,
    integrate_final,
    make_finite_rhs,
    make_reference_rhs,
    plan_run,
    run_bytes,
)
from latticedyn.errors import (
    BoundaryContaminationError,
    DivergenceError,
    EmptyCloudError,
    ParameterError,
    UnsettledCloudError,
)


def _cloud(states, half_width):
    return AttractorCloud(
        label="test",
        half_width=half_width,
        states=np.asarray(states, dtype=float),
        burn_in=0.0,
    )


class TestAttractorCloud:
    def test_wrong_width_rejected(self):
        with pytest.raises(ParameterError):
            _cloud(np.zeros((2, 4)), 2)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            _cloud([[1.0, np.nan, 0.0]], 1)


class TestPadToWidth:
    def test_definition(self):
        out = _pad_to_width(np.array([1.0, 2.0, 3.0]), 1, 3)
        assert np.array_equal(out, [0.0, 0.0, 1.0, 2.0, 3.0, 0.0, 0.0])

    def test_isometry(self, rng):
        v = rng.standard_normal(9)
        assert np.linalg.norm(_pad_to_width(v, 4, 20)) == np.linalg.norm(v)

    def test_round_trip(self, rng):
        v = rng.standard_normal(5)
        assert np.array_equal(_pad_to_width(v, 2, 11)[9:14], v)

    def test_sites_outside_storage_are_zero(self):
        # site j of a half-width-n state sits at index j + n
        out = _pad_to_width(np.array([1.0, 2.0, 3.0]), 1, 7)
        assert out[0 + 7] == 2.0
        assert out[-1 + 7] == 1.0
        assert out[5 + 7] == 0.0
        assert out[-7 + 7] == 0.0

    def test_widening_preserves_values_and_norm(self):
        v = np.array([1.0, 2.0, 3.0])
        wide = _pad_to_width(v, 1, 3)
        assert np.array_equal(wide, [0, 0, 1.0, 2.0, 3.0, 0, 0])
        assert np.linalg.norm(wide) == np.linalg.norm(v)

    def test_stack_padding(self):
        rows = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = _pad_to_width(rows, 1, 2)
        assert out.shape == (2, 5)
        assert np.array_equal(out[:, 0], [0.0, 0.0])
        assert np.array_equal(out[:, 1:4], rows)

    def test_same_width_passthrough(self):
        rows = np.ones((3, 5))
        assert np.array_equal(_pad_to_width(rows, 2, 2), rows)


class TestHausdorff:
    def test_self_distance_is_zero(self, rng):
        c = _cloud(rng.standard_normal((6, 7)), 3)
        assert hausdorff_semidistance(c, c) == 0.0

    def test_two_point_brute_force_example(self):
        a = _cloud([[0.0, 0.0, 0.0]], 1)
        b = _cloud([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], 1)
        # brute force oracle: min(1, 2) one way, max(1, 2) the other
        assert hausdorff_semidistance(a, b) == pytest.approx(1.0)
        assert hausdorff_semidistance(b, a) == pytest.approx(2.0)

    def test_repadding_mixed_widths(self):
        narrow = _cloud([[1.0, 2.0, 3.0]], 1)
        wide = _cloud([[0.0, 1.0, 2.0, 3.0, 0.0]], 2)
        assert hausdorff_semidistance(narrow, wide) == 0.0
        assert hausdorff_semidistance(wide, narrow) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyCloudError):
            _cloud(np.empty((0, 3)), 1)

    @pytest.mark.parametrize("spread", [1.0, 1e-8])
    def test_distances_match_cdist(self, rng, spread):
        # clouds 1e-8 apart are the converge case: a Gram-matrix shortcut
        # would cancel catastrophically there
        a = rng.standard_normal((40, 65))
        b = a[rng.integers(0, 40, 25)] + spread * rng.standard_normal((25, 65))
        expected = cdist(a, b)
        assert np.all(np.abs(attractor._distances(a, b) - expected) <= 1e-14 * expected)
        assert hausdorff_semidistance(_cloud(a, 32), _cloud(b, 32)) == pytest.approx(
            expected.min(axis=1).max(), rel=1e-14, abs=0.0)
        assert _cloud(b, 32).diameter() == pytest.approx(cdist(b, b).max(), rel=1e-14, abs=0.0)


LINEAR_BENCH = dict(
    nu=1.0,
    lam=1.0,
    forcing=QuasiPeriodicForcing.finite([0.25, 0.5, 1.0, 0.5, 0.25], 1.0, 0.0),
)


def _initial_conditions(params, nl, kind, seed, ic_count, ic_radius):
    # no burn-in: the run takes no step, so the cloud is exactly its initial
    # conditions
    return sample_attractor(
        LINEAR_BENCH["forcing"], params, nl, eps=1e-2, ic_count=ic_count, sample_count=1,
        seed=seed, burn_in=0.0, step=0.03, ic_radius=ic_radius, kind=kind,
    ).states


class TestInitialBall:
    @pytest.mark.parametrize("kind", ["finite", "reference"])
    def test_initial_conditions_fill_the_inscribed_cube(self, kind):
        params = LatticeParams(nu=1.0, lam=1.0, n=8 if kind == "finite" else 10)
        nl = make_nonlinearity("cubic", 1.0)
        ic_radius, seed = 2.0, 7
        ics = _initial_conditions(params, nl, kind, seed, 16, ic_radius)
        assert ics.shape == (16, params.dim)
        assert np.all(np.linalg.norm(ics, axis=1) <= ic_radius)
        half = params.n if kind == "finite" else params.n // 2
        sites = np.abs(np.arange(-params.n, params.n + 1))
        inner = ics[:, sites <= half]
        assert np.all(np.abs(inner) <= ic_radius / math.sqrt(2 * half + 1))
        assert np.all(ics[:, sites > half] == 0.0)
        # the draw fills the cube, not a corner of it
        assert np.any(inner > 0.0) and np.any(inner < 0.0)
        again = _initial_conditions(params, nl, kind, seed, 16, ic_radius)
        assert ics.tobytes() == again.tobytes()
        other = _initial_conditions(params, nl, kind, seed + 1, 16, ic_radius)
        assert not np.array_equal(ics, other)

    def test_every_point_is_its_own_draw(self):
        # ic_count * sample_count initial conditions from one draw: none repeats
        params = LatticeParams(nu=1.0, lam=1.0, n=3)
        ic_radius, seed = 2.0, 7
        cloud = sample_attractor(
            LINEAR_BENCH["forcing"], params, make_nonlinearity("linear", 1.0), eps=1e-2,
            ic_count=3, sample_count=5, seed=seed, burn_in=0.0, step=0.03, ic_radius=ic_radius,
        )
        draw = np.random.default_rng(seed).random((15, params.dim))
        draw = (2.0 * draw - 1.0) * (ic_radius / math.sqrt(params.dim))
        assert cloud.states.tobytes() == draw.tobytes() and cloud.steps == 0
        assert len(np.unique(cloud.states, axis=0)) == 15


class TestSampleAttractor:
    def test_linear_fiber_collapses_to_a_point(self):
        # contraction at rate lam + alpha = 2: e^(-2T) M < 1e-7 at T = 9
        params = LatticeParams(nu=1.0, lam=1.0, n=6)
        nl = make_nonlinearity("linear", 1.0)
        cloud = sample_attractor(
            LINEAR_BENCH["forcing"], params, nl,
            eps=1e-2, ic_count=4, sample_count=8, seed=11, burn_in=9.0,
        )
        assert len(cloud) == 32
        assert cloud.diameter() < 1e-6

    def test_zero_forcing_concentrates_at_origin(self):
        params = LatticeParams(nu=1.0, lam=1.0, n=5)
        nl = make_nonlinearity("cubic", 1.0)
        cloud = sample_attractor(
            QuasiPeriodicForcing.zero(), params, nl,
            eps=1e-2, ic_count=5, sample_count=4, seed=3,
            burn_in=8.0, ic_radius=1.0,
        )
        assert cloud.norms().max() < 1e-6

    def test_cubic_cloud_inside_absorbing_radius(self):
        params = LatticeParams(nu=1.0, lam=1.0, n=8)
        nl = make_nonlinearity("cubic", 1.0)
        forcing = QuasiPeriodicForcing.finite([1.0], 1.0, 0.0)  # C = 1
        cloud = sample_attractor(
            forcing, params, nl, eps=1e-2, ic_count=4, sample_count=8, seed=5,
        )
        assert cloud.norms().max() <= math.sqrt(1.0 / 3.0) * 1.05

    def test_unknown_boundary_rejected(self):
        params = LatticeParams(nu=1.0, lam=1.0, n=4)
        with pytest.raises(ParameterError, match="boundary"):
            sample_attractor(
                LINEAR_BENCH["forcing"], params, make_nonlinearity("linear", 1.0),
                eps=1e-2, ic_count=2, sample_count=2, seed=0, boundary="mirror",
            )

    def test_point_cap_enforced(self):
        params = LatticeParams(nu=1.0, lam=1.0, n=4)
        nl = make_nonlinearity("linear", 1.0)
        with pytest.raises(ParameterError):
            sample_attractor(
                LINEAR_BENCH["forcing"], params, nl,
                eps=1e-2, ic_count=64, sample_count=64, seed=0,
            )

    @pytest.mark.parametrize("kind", ["finite", "reference"])
    def test_batched_cloud_matches_single_row_runs(self, kind):
        # the one batched call equals integrating each initial condition alone
        params = LatticeParams(nu=1.0, lam=1.0, n=4 if kind == "finite" else 10)
        nl = make_nonlinearity("cubic", 1.0)
        f = LINEAR_BENCH["forcing"]
        step, burn_in, seed = 0.03, 2.0, 2
        ic_count, sample_count = 3, 5
        cloud = sample_attractor(
            f, params, nl, eps=1e-2, ic_count=ic_count, sample_count=sample_count,
            seed=seed, burn_in=burn_in, step=step, ic_radius=1.0,
            kind=kind, boundary_floor=1.0,
        )
        if kind == "finite":
            rhs = make_finite_rhs(params, nl, wrap_forcing(f, params.n))
        else:
            rhs = make_reference_rhs(params, nl, f)
        ics = _initial_conditions(params, nl, kind, seed, ic_count * sample_count, 1.0)
        singles = [integrate_final(rhs, ic, -burn_in, 0.0, step) for ic in ics]
        assert np.array_equal(cloud.states, np.array(singles))

    def test_every_row_steps_at_most_h_and_ends_on_zero(self, monkeypatch):
        seen = {}
        real = attractor.integrate_final

        def spy(rhs, v0, t0, t1, h, boundary_floor=None):
            seen["t0"], seen["h"], seen["t"] = t0, h, []

            def recording(t, u):
                seen["t"].append(t)
                return rhs(t, u)

            return real(recording, v0, t0, t1, h, boundary_floor)

        monkeypatch.setattr(attractor, "integrate_final", spy)
        step = 0.03
        params = LatticeParams(nu=1.0, lam=1.0, n=4)
        cloud = sample_attractor(
            LINEAR_BENCH["forcing"], params, make_nonlinearity("linear", 1.0),
            eps=1e-2, ic_count=3, sample_count=7, seed=2, burn_in=2.0, step=step,
        )
        assert seen["h"] == step and seen["t0"] == -2.0
        # step k starts at t0 + k * step; its last stage is evaluated at t = 0
        starts = seen["t"][::4]
        assert starts == [-2.0 + k * step for k in range(len(starts))]
        assert seen["t"][-1] == 0.0 and 0.0 < -starts[-1] <= step
        assert len(seen["t"]) == 4 * cloud.steps == 4 * math.ceil(2.0 / step)
        assert len(cloud) == 21

    def test_unsettled_cloud_is_a_divergence(self):
        # a step far past the accuracy limit decays too slowly for the
        # Gronwall bound; the error class maps to exit code 3 in the CLI
        params = LatticeParams(nu=0.0, lam=1.0, n=2)
        nl = make_nonlinearity("linear", 1.0)
        with pytest.raises(UnsettledCloudError, match="has not settled"):
            sample_attractor(
                QuasiPeriodicForcing.zero(), params, nl,
                eps=1e-2, ic_count=3, sample_count=2, seed=0,
                burn_in=10.0, ic_radius=1.0, step=1.25,
            )
        assert issubclass(UnsettledCloudError, DivergenceError)

    def test_invariance_of_sampled_fiber(self):
        # the time-tau image of the fiber cloud lands on the shifted fiber cloud
        params = LatticeParams(nu=1.0, lam=1.0, n=6)
        nl = make_nonlinearity("linear", 1.0)
        f = LINEAR_BENCH["forcing"]
        tau = 1.0
        base = sample_attractor(
            f, params, nl, eps=1e-2, ic_count=3, sample_count=6, seed=9, burn_in=9.0
        )
        shifted = sample_attractor(
            f.shift(tau), params, nl, eps=1e-2, ic_count=3, sample_count=6, seed=9,
            burn_in=9.0,
        )
        rhs = make_finite_rhs(params, nl, wrap_forcing(f, params.n))
        images = _cloud(integrate_final(rhs, base.states, 0.0, tau, 0.01), params.n)
        assert hausdorff_semidistance(images, shifted) < 1e-5


class TestConvergenceStudy:
    def test_linear_benchmark_distances_shrink(self):
        nl = make_nonlinearity("linear", 1.0)
        report = convergence_study(
            LINEAR_BENCH["forcing"], 1.0, 1.0, nl,
            n_list=(4, 8), n_ref=32,
            eps=1e-2, ic_count=3, sample_count=6, seed=21,
            burn_in=9.0, step=0.02,
        )
        assert report.strictly_decreasing
        assert checks.beta_nonincreasing(report.betas, 1.1)["passed"]
        assert checks.beta_threshold(report.final_beta, 1e-3)["passed"]
        assert report.rows[0].beta_to_ref > report.final_beta
        assert all(row.runtime_s >= 0.0 for row in report.rows)

    def test_self_comparison_at_reference_order(self):
        # wrap effects at the reference order are below the sampling floor;
        # the driven tail legitimately carries ~1e-8 at the n_ref = 16 edge
        nl = make_nonlinearity("linear", 1.0)
        report = convergence_study(
            LINEAR_BENCH["forcing"], 1.0, 1.0, nl,
            n_list=(16,), n_ref=16,
            eps=1e-2, ic_count=3, sample_count=4, seed=4,
            burn_in=9.0, step=0.02, boundary_floor=1e-6,
        )
        assert report.final_beta < 1e-6

    def test_geometric_forcing_tail_drives_the_rate(self):
        # missing forcing modes decay like 2^-n, and so does beta
        nl = make_nonlinearity("linear", 1.0)
        f = QuasiPeriodicForcing.geometric(1.0, 0.5, 1.0)
        report = convergence_study(
            f, 1.0, 1.0, nl,
            n_list=(4, 8, 12), n_ref=48,
            eps=1e-2, ic_count=2, sample_count=4, seed=13,
            burn_in=9.0, step=0.02,
        )
        betas = report.betas
        slope = np.polyfit(np.array([4.0, 8.0, 12.0]), np.log(betas), 1)[0]
        assert slope <= -0.5 * math.log(2.0) * 0.7

    def test_reference_must_dominate(self):
        nl = make_nonlinearity("linear", 1.0)
        with pytest.raises(ParameterError):
            convergence_study(
                LINEAR_BENCH["forcing"], 1.0, 1.0, nl, n_list=(8,), n_ref=4,
                eps=1e-2, ic_count=2, sample_count=2, seed=0,
            )


def _study_clouds(monkeypatch, f, nl, n_list, n_ref, **sampling):
    """The report of one convergence study, its reference cloud and its
    order clouds, read from the study's Hausdorff calls, and the number of
    integrate_final calls it made."""
    seen, calls = [], []
    distance, march = attractor.hausdorff_semidistance, attractor.integrate_final

    def spy_distance(a, b):
        seen.append((a, b))
        return distance(a, b)

    def spy_march(*args, **kwargs):
        calls.append(args)
        return march(*args, **kwargs)

    monkeypatch.setattr(attractor, "hausdorff_semidistance", spy_distance)
    monkeypatch.setattr(attractor, "integrate_final", spy_march)
    report = convergence_study(f, 1.0, 1.0, nl, n_list=n_list, n_ref=n_ref, **sampling)
    monkeypatch.undo()
    return report, seen[1][0], [a for a, _ in seen[::2]], len(calls)


class TestStackedStudy:
    """The reference and every order step in one march, and each cloud is
    bit-identical to sampling its system alone."""

    @pytest.mark.parametrize("boundary", ["wrap", "project"])
    @pytest.mark.parametrize("name", ["linear", "cubic"])
    def test_clouds_equal_separate_samples(self, monkeypatch, boundary, name):
        nl = make_nonlinearity(name, 1.0)
        f = QuasiPeriodicForcing.finite([0.4, -0.7, 1.0, 0.3, 0.6], [0.9, 1.3, 1.0, 0.7, 1.6],
                                        [0.1, 2.0, 0.5, 4.0, 1.2]).shift(0.37)
        sampling = dict(eps=1e-2, ic_count=3, sample_count=4, seed=5, burn_in=3.0, step=0.03,
                        boundary=boundary, boundary_floor=1e-3)
        report, ref, clouds, marches = _study_clouds(monkeypatch, f, nl, (1, 3, 6), 20,
                                                     **sampling)
        assert marches == 1
        alone = sample_attractor(f, LatticeParams(nu=1.0, lam=1.0, n=20), nl, kind="reference",
                                 **sampling)
        assert np.array_equal(ref.states, alone.states) and ref.label == alone.label
        for n, cloud, row in zip((1, 3, 6), clouds, report.rows):
            alone = sample_attractor(f, LatticeParams(nu=1.0, lam=1.0, n=n), nl, **sampling)
            assert cloud.states.flags.c_contiguous and cloud.label == alone.label
            assert np.array_equal(cloud.states, alone.states)
            assert row.beta_to_ref == hausdorff_semidistance(alone, ref)
        assert (report.step, report.steps) == (0.03, 100)
        assert (ref.step, ref.steps) == (report.step, report.steps)

    def test_zero_forcing_has_no_drive_columns(self, monkeypatch):
        nl = make_nonlinearity("cubic", 1.0)
        sampling = dict(eps=1e-2, ic_count=2, sample_count=3, seed=8, burn_in=2.0,
                        ic_radius=1.0, step=0.05, boundary_floor=1.0)
        _, ref, clouds, _ = _study_clouds(monkeypatch, QuasiPeriodicForcing.zero(), nl,
                                          (2, 4), 8, **sampling)
        for n, cloud in zip((8, 2, 4), (ref, *clouds)):
            kind = "reference" if cloud is ref else "finite"
            alone = sample_attractor(QuasiPeriodicForcing.zero(), LatticeParams(1.0, 1.0, n),
                                     nl, kind=kind, **sampling)
            assert np.array_equal(cloud.states, alone.states)
            assert 0.0 < np.abs(cloud.states).max() < 1.0

    def test_edge_monitor_reads_the_reference_edges_only(self, monkeypatch):
        # the n = 1 and n = 2 clouds carry the forcing on their edge sites,
        # far above the floor the n_ref = 16 edges stay below
        nl = make_nonlinearity("linear", 1.0)
        sampling = dict(eps=1e-2, ic_count=3, sample_count=4, seed=4, burn_in=9.0, step=0.02,
                        boundary_floor=1e-6)
        _, ref, clouds, _ = _study_clouds(monkeypatch, LINEAR_BENCH["forcing"], nl, (1, 2), 16,
                                          **sampling)
        assert all(np.abs(c.states[:, [0, -1]]).min() > 1e-2 for c in clouds)
        assert np.abs(ref.states[:, [0, -1]]).max() < 1e-6

    def test_small_floor_raises_the_single_cloud_message(self):
        nl = make_nonlinearity("linear", 1.0)
        sampling = dict(eps=1e-2, ic_count=3, sample_count=4, seed=4, burn_in=9.0, step=0.02,
                        boundary_floor=1e-9)
        with pytest.raises(BoundaryContaminationError) as alone:
            sample_attractor(LINEAR_BENCH["forcing"], LatticeParams(1.0, 1.0, 16), nl,
                             kind="reference", **sampling)
        with pytest.raises(BoundaryContaminationError) as stacked:
            convergence_study(LINEAR_BENCH["forcing"], 1.0, 1.0, nl, n_list=(2, 8), n_ref=16,
                              **sampling)
        assert "edge amplitude" in str(alone.value)
        assert str(stacked.value) == str(alone.value)

    def test_memory_cap_sees_the_stacked_width(self, monkeypatch):
        # each cloud alone, with its kept end state, needs 0.88 GB, under the
        # cap; stacked, 1.77 GB
        assert run_bytes(512, 24001, 512) < MEMORY_CAP < 2 * run_bytes(512, 24001, 512)
        tables = []
        monkeypatch.setattr("latticedyn.forcing.FiniteForcing.mode_table",
                            lambda self, window: tables.append(window))
        monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew"))
        with pytest.raises(ParameterError,
                           match="512 rows x 48002 sites keeping 512 sample rows needs 1.77e[+]09"):
            convergence_study(LINEAR_BENCH["forcing"], 1.0, 1.0, make_nonlinearity("linear", 1.0),
                              n_list=(12000,), n_ref=12000, eps=1e-2, ic_count=16,
                              sample_count=32, seed=0, burn_in=1.0, step=0.1)
        assert not tables

    def test_work_cap_sees_the_stacked_width(self, monkeypatch):
        # 512 rows x 601 sites x 25,000 steps is 7.7e9 site-steps per cloud
        steps = plan_run((512, 601), -250.0, 0.0, 0.01)
        assert 512 * 601 * steps < WORK_CAP < 512 * 1202 * steps
        tables = []
        monkeypatch.setattr("latticedyn.forcing.FiniteForcing.mode_table",
                            lambda self, window: tables.append(window))
        with pytest.raises(ParameterError, match="1.54e[+]10 site-steps"):
            convergence_study(LINEAR_BENCH["forcing"], 1.0, 1.0, make_nonlinearity("linear", 1.0),
                              n_list=(300,), n_ref=300, eps=1e-2, ic_count=16, sample_count=32,
                              seed=0, burn_in=250.0, step=0.01)
        assert not tables


class TestTailCertificate:
    def test_zero_forcing_cloud_has_zero_tails(self):
        params = LatticeParams(nu=1.0, lam=1.0, n=5)
        nl = make_nonlinearity("cubic", 1.0)
        cloud = sample_attractor(
            QuasiPeriodicForcing.zero(), params, nl,
            eps=1e-2, ic_count=3, sample_count=3, seed=1,
            burn_in=8.0, ic_radius=1.0,
        )
        forcing = QuasiPeriodicForcing.geometric(1.0, 0.5, 1.0)
        report = tail_certificate([cloud], [1e-2, 1e-3], forcing, 1.0, 1.0, 1.0)
        assert report.ok
        for row in report.rows:
            assert row.worst_tail <= 1e-12

    def test_vacuous_when_k_exceeds_every_half_width(self):
        f = QuasiPeriodicForcing.geometric(0.8, 0.5, 1.0)
        narrow = _cloud(np.ones((2, 2 * 400 + 1)), 400)
        wide = _cloud(np.ones((2, 2 * 500 + 1)), 500)
        (row,) = tail_certificate([narrow], [1e-2], f, 1.0, 1.0, 1.0).rows
        assert 400 < row.k < 500  # k(1e-2) = 471
        assert row.vacuous and row.worst_tail == 0.0
        (row,) = tail_certificate([narrow, wide], [1e-2], f, 1.0, 1.0, 1.0).rows
        assert not row.vacuous and row.worst_tail > 0.0

    def test_one_scale_covers_all_orders(self):
        nl = make_nonlinearity("cubic", 1.0)
        f = QuasiPeriodicForcing.geometric(0.8, 0.5, 1.0)
        clouds = [
            sample_attractor(
                f, LatticeParams(nu=1.0, lam=1.0, n=n), nl,
                eps=1e-2, ic_count=3, sample_count=4, seed=17,
            )
            for n in (4, 8)
        ]
        report = tail_certificate(clouds, [1e-2, 1e-3], f, 1.0, 1.0, 1.0)
        assert report.ok
        assert all(row.margin >= 0.0 for row in report.rows)
        # calibrated independently of any truncation order
        ks = [row.k for row in report.rows]
        assert ks == sorted(ks)

    def test_forced_response_tail_follows_the_decay_profile(self):
        # weak coupling: per-site response scales with the forcing amplitude,
        # so the state tail drops ~4x per site like the forcing energy does
        params = LatticeParams(nu=0.05, lam=1.0, n=10)
        nl = make_nonlinearity("linear", 1.0)
        f = QuasiPeriodicForcing.geometric(1.0, 0.5, 1.0)
        cloud = sample_attractor(
            f, params, nl, eps=1e-3, ic_count=2, sample_count=3, seed=23,
            burn_in=10.0,
        )
        from latticedyn import tail_mass

        point = cloud.states[0]
        ks = np.arange(1, 6)
        tails = np.array([tail_mass(point, int(k)) for k in ks])
        slope = np.polyfit(ks, np.log(tails), 1)[0]
        assert slope == pytest.approx(-math.log(4.0), abs=0.35 * math.log(4.0))
