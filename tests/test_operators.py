import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticedyn import (
    QuasiPeriodicForcing,
    apply_difference,
    apply_laplacian,
    difference_matrix,
    laplacian_matrix,
    project_forcing,
    wrap_forcing,
)
from latticedyn.errors import DimensionError, ParameterError
from latticedyn.operators import _neighbour_sum, boundary_forcing


B1 = np.array([[-1, 1, 0], [0, -1, 1], [1, 0, -1]])
A1 = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


class TestStencilMatrices:
    def test_first_rows_match_published_form(self):
        assert np.array_equal(difference_matrix(1), B1)
        assert np.array_equal(laplacian_matrix(1), A1)

    def test_laplacian_is_gram_of_difference_small(self):
        # integer product oracle at n=1
        assert np.array_equal(B1.T @ B1, laplacian_matrix(1))

    @pytest.mark.parametrize("n", list(range(1, 65)))
    def test_laplacian_is_gram_of_difference(self, n):
        b = difference_matrix(n)
        a = laplacian_matrix(n)
        assert a.dtype.kind == "i" and b.dtype.kind == "i"
        assert np.array_equal(b.T @ b, a)
        assert np.array_equal(b @ b.T, a)

    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_row_sums_vanish_and_symmetric(self, n):
        a = laplacian_matrix(n)
        assert np.all(a.sum(axis=1) == 0)
        assert np.array_equal(a, a.T)
        assert not np.array_equal(difference_matrix(n), difference_matrix(n).T)


class TestApply:
    def test_laplacian_unit_vector(self):
        out = apply_laplacian(np.array([1.0, 0.0, 0.0]), 1)
        assert np.array_equal(out, [2.0, -1.0, -1.0])

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_laplacian_kills_constants(self, n):
        assert np.array_equal(apply_laplacian(np.ones(2 * n + 1), n), np.zeros(2 * n + 1))

    def test_difference_unit_vector(self):
        out = apply_difference(np.array([1.0, 0.0, 0.0]), 1)
        assert np.array_equal(out, [-1.0, 0.0, 1.0])

    def test_difference_kills_constants(self):
        assert np.allclose(apply_difference(np.full(7, 3.25), 3), 0.0)

    def test_matrix_free_matches_materialized(self, rng):
        for n in (1, 2, 6, 13):
            v = rng.standard_normal(2 * n + 1)
            assert np.allclose(apply_laplacian(v, n), laplacian_matrix(n) @ v, atol=1e-13)
            assert np.allclose(apply_difference(v, n), difference_matrix(n) @ v, atol=1e-13)

    def test_energy_identity(self, rng):
        # <A v, v> = ||B v||^2
        v = rng.standard_normal(7)
        lhs = float(apply_laplacian(v, 3) @ v)
        rhs = float(np.sum(apply_difference(v, 3) ** 2))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 24), seed=st.integers(0, 10 ** 6))
    def test_positive_semidefinite_and_norm_bound(self, n, seed):
        v = np.random.default_rng(seed).standard_normal(2 * n + 1)
        av = apply_laplacian(v, n)
        assert float(av @ v) >= -1e-12
        assert np.linalg.norm(av) <= 4.0 * np.linalg.norm(v) * (1.0 + 1e-12)

    def test_commutes_with_site_reflection(self, rng):
        v = rng.standard_normal(11)
        assert np.allclose(
            apply_laplacian(v[::-1], 5), apply_laplacian(v, 5)[::-1], atol=1e-14
        )

    def test_wrong_width_rejected(self):
        with pytest.raises(DimensionError):
            apply_laplacian(np.zeros(4), 2)
        with pytest.raises(DimensionError):
            apply_difference(np.zeros(6), 2)


class TestRowEdges:
    """A row updates its edge sites as scalars; a batch goes through the
    slice stencil.  Both give the same bits."""

    @pytest.mark.parametrize("periodic", [True, False], ids=["wrap", "zero-ghost"])
    @pytest.mark.parametrize("n", [1, 2, 16, 128])
    def test_row_matches_the_batch_path_bit_for_bit(self, rng, n, periodic):
        v = rng.standard_normal(2 * n + 1)
        row = apply_laplacian(v, n, periodic)
        batch = apply_laplacian(v[None], n, periodic)
        assert np.array_equal(row.view(np.uint64), batch[0].view(np.uint64))
        out = np.full_like(v, np.nan)
        assert apply_laplacian(v, n, periodic, out) is out
        assert np.array_equal(out.view(np.uint64), row.view(np.uint64))
        # small integers: exact, against the materialized matrix
        matrix = laplacian_matrix(n)
        if not periodic:  # zero ghost cells: no wrapped neighbours
            matrix[0, -1] += 1
            matrix[-1, 0] += 1
        w = rng.integers(-1000, 1000, 2 * n + 1)
        assert np.array_equal(apply_laplacian(w.astype(float), n, periodic), matrix @ w)

    @pytest.mark.parametrize("periodic", [True, False], ids=["wrap", "zero-ghost"])
    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_neighbour_sum_matches_the_padded_sum_bit_for_bit(self, rng, n, periodic):
        # the one stencil, on rows and on C- and F-ordered stacks
        v = rng.standard_normal((4, 2 * n + 1))
        padded = np.pad(v, [(0, 0), (1, 1)], mode="wrap" if periodic else "constant")
        expected = (padded[:, :-2] + padded[:, 2:]).view(np.uint64)
        for stack in (v, np.asfortranarray(v)):
            out = np.full_like(stack, np.nan)
            assert _neighbour_sum(stack, periodic, out) is out
            assert np.array_equal(np.ascontiguousarray(out).view(np.uint64), expected)
        for row, want in zip(v, expected):
            got = _neighbour_sum(row, periodic, np.full_like(row, np.nan))
            assert np.array_equal(got.view(np.uint64), want)


def _dyadic_forcing(support=8, frequency=1.0, phase=0.0):
    sites = np.abs(np.arange(-support, support + 1))
    return QuasiPeriodicForcing.finite(0.5 ** sites, frequency, phase)


class TestProjection:
    def test_truncates_amplitudes(self):
        p = project_forcing(_dyadic_forcing(), 1)
        amps, _, _ = p.mode_table(3)
        assert np.array_equal(amps, [0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0])

    def test_shift_equivariance(self, rng, make_random_forcing):
        for _ in range(30):
            f = make_random_forcing(rng, support=int(rng.integers(1, 7)))
            n = int(rng.integers(1, 6))
            h, t = rng.uniform(-20.0, 20.0, 2)
            lhs = project_forcing(f.shift(h), n).eval_window(t, n)
            rhs = project_forcing(f, n).shift(h).eval_window(t, n)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_sup_truncation_gap_matches_tail_series(self):
        # phase pi/2 puts the common peak at t = 0, so the sup is attained
        f = _dyadic_forcing(support=40, phase=np.pi / 2)
        n = 2
        p = project_forcing(f, n)
        ts = np.linspace(-5.0, 5.0, 2001)
        window = 40
        gap_sq = max(
            float(np.sum((p.eval_window(t, window) - f.eval_window(t, window)) ** 2))
            for t in ts
        )
        # geometric series oracle: 2 * sum_{i>=n+1} (1/4)^i = (8/3) 4^-(n+1)
        expected = 2.0 * sum(0.25 ** i for i in range(n + 1, 41))
        assert expected == pytest.approx((8.0 / 3.0) * 0.25 ** (n + 1), rel=1e-10)
        assert gap_sq == pytest.approx(expected, rel=1e-9)


class TestBoundaryForcing:
    @pytest.mark.parametrize("boundary, project", [("wrap", wrap_forcing),
                                                   ("project", project_forcing),
                                                   ("zero", project_forcing)])
    def test_policy_selects_the_projection(self, rng, make_random_forcing, boundary, project):
        f = make_random_forcing(rng, support=6)
        got = boundary_forcing(f, 3, boundary)
        assert np.array_equal(got.eval_window(0.7, 3), project(f, 3).eval_window(0.7, 3))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ParameterError, match="boundary"):
            boundary_forcing(QuasiPeriodicForcing.zero(), 3, "mirror")


class TestWrap:
    def test_interior_support_reduces_to_projection(self, rng):
        sites = np.abs(np.arange(-1, 2))
        f = QuasiPeriodicForcing.finite(0.7 ** sites, 1.3, 0.2)  # support |i| <= 1
        n = 3
        w, p = wrap_forcing(f, n), project_forcing(f, n)
        for t in rng.uniform(-10.0, 10.0, 5):
            assert np.array_equal(w.eval_window(t, n), p.eval_window(t, n))

    def test_edge_site_index_map(self):
        # distinct per-site modes make the relocation visible: n=2 keeps
        # sites -1..1 and reads site 2 from -3, site -2 from 3
        width = 7  # support 3
        amps = np.arange(1.0, 8.0)
        freqs = np.arange(0.1, 0.8, 0.1)
        phases = np.arange(0.0, 0.7, 0.1)
        f = QuasiPeriodicForcing.finite(amps, freqs, phases)
        w = wrap_forcing(f, 2)
        wa, wf, wp = w.mode_table(2)
        # logical order -2,-1,0,1,2 <- source sites 3,-1,0,1,-3
        src = [6, 2, 3, 4, 0]
        assert np.array_equal(wa, amps[src])
        assert np.array_equal(wf, freqs[src])
        assert np.array_equal(wp, phases[src])

    def test_shift_equivariance(self, rng, make_random_forcing):
        for _ in range(30):
            f = make_random_forcing(rng, support=int(rng.integers(1, 7)))
            n = int(rng.integers(1, 6))
            h, t = rng.uniform(-20.0, 20.0, 2)
            lhs = wrap_forcing(f.shift(h), n).eval_window(t, n)
            rhs = wrap_forcing(f, n).shift(h).eval_window(t, n)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_geometric_profile_wrap(self):
        f = QuasiPeriodicForcing.geometric(1.0, 0.5, 1.0)
        wa, _, _ = wrap_forcing(f, 2).mode_table(2)
        assert np.allclose(wa, [0.125, 0.5, 1.0, 0.5, 0.125])
