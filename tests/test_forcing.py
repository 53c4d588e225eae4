import dataclasses
import math

import numpy as np
import pytest

from latticedyn import QuasiPeriodicForcing, project_forcing
from latticedyn.cli import load_config
from latticedyn.errors import ConfigError, LatticeError, ParameterError
from latticedyn.forcing import FiniteForcing, GeometricForcing


def geometric_energy_oracle(a0, r, n_terms=300):
    """Independent partial sum of sum_i a0^2 r^(2|i|)."""
    return a0 * a0 * (1.0 + 2.0 * sum(r ** (2 * i) for i in range(1, n_terms)))


class TestEval:
    def test_zero_forcing(self):
        f = QuasiPeriodicForcing.zero()
        for t in (-3.0, 0.0, 17.5):
            assert np.array_equal(f.eval_window(t, 4), np.zeros(9))

    def test_single_mode_peak(self):
        f = QuasiPeriodicForcing.finite([1.0], 1.0, 0.0)
        values = f.eval_window(math.pi / 2, 3)
        assert values[3] == pytest.approx(1.0)
        assert np.array_equal(np.delete(values, 3), np.zeros(6))

    def test_geometric_norm_at_peak(self):
        f = QuasiPeriodicForcing.geometric(1.0, 0.5, 1.0, 0.0)
        # sum 4^-|i| = 5/3 at the sine peak; the window leaves out < 4^-60
        v = f.eval_window(math.pi / 2, 60)
        assert float(v @ v) == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert float(v @ v) == pytest.approx(geometric_energy_oracle(1.0, 0.5), rel=1e-12)


class TestValueTypes:
    @pytest.fixture(params=["finite", "geometric"])
    def forcing(self, request):
        if request.param == "finite":
            return QuasiPeriodicForcing.finite([0.5, 1.0, 0.5], [1.0, 2.0, 3.0], 0.25)
        return QuasiPeriodicForcing.geometric(1.0, 0.5, 2.0, 0.25)

    def test_fields_are_frozen(self, forcing):
        for field in dataclasses.fields(forcing):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(forcing, field.name, 0.0)

    def test_mode_arrays_are_read_only(self, forcing):
        if isinstance(forcing, FiniteForcing):
            for arr in (forcing.amplitudes, forcing.frequencies, forcing.phases):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 9.0
        before = forcing.eval_window(0.3, 2)
        for arr in forcing.mode_table(2):
            arr[:] = 9.0
        assert np.array_equal(forcing.eval_window(0.3, 2), before)

    def test_caller_inputs_are_copied(self):
        amps, freqs, phases = np.array([0.5, 1.0, 0.5]), np.array([1.0, 2.0, 3.0]), np.zeros(3)
        f = QuasiPeriodicForcing.finite(amps, freqs, phases)
        before = f.eval_window(0.3, 1)
        for arr in (amps, freqs, phases):
            arr[:] = 9.0
        assert np.array_equal(f.eval_window(0.3, 1), before)

        a0, r, w, p = (np.array(x) for x in (1.0, 0.5, 2.0, 0.25))
        g = QuasiPeriodicForcing.geometric(a0, r, w, p)
        before = g.eval_window(0.3, 1)
        for arr in (a0, r, w, p):
            arr[...] = 0.75
        assert np.array_equal(g.eval_window(0.3, 1), before)

    def test_shift_keeps_form_and_fields(self, forcing):
        g = forcing.shift(0.5).shift(0.25)
        assert type(g) is type(forcing)
        assert g.time_offset == 0.75
        for field in dataclasses.fields(forcing):
            if field.name != "time_offset":
                assert getattr(g, field.name) is getattr(forcing, field.name)

    def test_constructors_pick_the_form(self):
        assert type(QuasiPeriodicForcing.zero()) is FiniteForcing
        assert type(QuasiPeriodicForcing.geometric(1.0, 0.5, 1.0)) is GeometricForcing

    @pytest.mark.parametrize("args", [(math.nan, 0.5, 1.0, 0.0), (1.0, 0.5, math.inf, 0.0),
                                      (1.0, 0.5, 1.0, -math.inf)],
                             ids=["amplitude0-nan", "frequency-inf", "phase-inf"])
    def test_geometric_rejects_non_finite_parameters(self, args):
        with pytest.raises(ParameterError, match="non-finite"):
            QuasiPeriodicForcing.geometric(*args)


class TestShift:
    def test_zero_shift_is_identity(self, rng, make_random_forcing):
        f = make_random_forcing(rng)
        g = f.shift(0.0)
        for t in rng.uniform(-5.0, 5.0, 4):
            assert np.array_equal(f.eval_window(t, 5), g.eval_window(t, 5))

    def test_quarter_period_turns_sine_into_cosine(self):
        f = QuasiPeriodicForcing.finite([2.0], 1.0, 0.0)
        g = f.shift(math.pi / 2)
        assert g.eval_window(0.0, 0)[0] == pytest.approx(2.0)

    def test_shift_evaluates_at_translated_time_exactly(self, rng, make_random_forcing):
        f = make_random_forcing(rng)
        h = 0.731
        for t in rng.uniform(-8.0, 8.0, 6):
            assert np.array_equal(f.shift(h).eval_window(t, 5), f.eval_window(t + h, 5))

    def test_group_law_exact(self, rng, make_random_forcing):
        f = make_random_forcing(rng)
        h1, h2 = rng.uniform(-30.0, 30.0, 2)
        two_step = f.shift(h1).shift(h2)
        one_step = f.shift(h1 + h2)
        for t in rng.uniform(-5.0, 5.0, 4):
            assert np.array_equal(two_step.eval_window(t, 5), one_step.eval_window(t, 5))


class TestTail:
    def test_finite_support_inside_window(self, rng, make_random_forcing):
        f = make_random_forcing(rng, support=3)
        assert f.tail_sup_bound(3) == 0.0
        assert f.tail_sup_bound(10) == 0.0
        # the amplitude mass on the sites |i| >= n + 1 of the table on |i| <= 3
        a = f.amplitudes
        for n in range(3):
            outside = np.concatenate([a[:3 - n], a[4 + n:]])
            assert f.tail_sup_bound(n) == pytest.approx(float(outside @ outside), rel=1e-12)
        with pytest.raises(ParameterError):
            f.tail_sup_bound(-1)

    def test_geometric_sup_bound_matches_series(self):
        f = QuasiPeriodicForcing.geometric(1.0, 0.5, 1.0)
        for n in range(0, 8):
            oracle = 2.0 * sum(0.25 ** i for i in range(n + 1, 200))
            assert f.tail_sup_bound(n) == pytest.approx(oracle, rel=1e-12)
            assert f.tail_sup_bound(n) == pytest.approx(
                (8.0 / 3.0) * 0.25 ** (n + 1), rel=1e-12
            )

    def test_tail_is_norm_minus_head(self, rng, make_random_forcing):
        # sup_t R_n(f) = sum_i a_i^2 - sum_{|i|<=n} a_i^2, the energy outside the head
        for f in (
            make_random_forcing(rng, support=6),
            QuasiPeriodicForcing.geometric(0.8, 0.6, 1.4, 0.3),
        ):
            for n in (0, 2, 5):
                head = f.mode_table(n)[0]
                expected = f.total_energy() - float(head @ head)
                assert f.tail_sup_bound(n) == pytest.approx(expected, abs=1e-12)

    def test_tail_nonincreasing_and_vanishing(self):
        f = QuasiPeriodicForcing.geometric(2.0, 0.5, 1.0, 0.4)
        # decay rate follows the stored certificate: ratio r^2 per order
        sups = [f.tail_sup_bound(n) for n in range(12)]
        assert all(a > b for a, b in zip(sups, sups[1:]))
        ratios = [b / a for a, b in zip(sups, sups[1:])]
        assert np.allclose(ratios, 0.25, rtol=1e-12)


class TestUniformBound:
    def test_zero(self):
        assert QuasiPeriodicForcing.zero().uniform_bound() == 0.0

    def test_geometric_closed_form(self):
        f = QuasiPeriodicForcing.geometric(1.0, 0.5, 1.0)
        assert f.uniform_bound() == pytest.approx(math.sqrt(5.0 / 3.0), rel=1e-12)
        assert f.uniform_bound() == pytest.approx(1.29099, abs=1e-5)

    def test_projection_never_grows(self):
        f = QuasiPeriodicForcing.geometric(1.3, 0.7, 0.9, 0.1)
        for n in range(1, 9):
            assert project_forcing(f, n).uniform_bound() <= f.uniform_bound() + 1e-15

    def test_bound_holds_along_the_signal(self, rng, make_random_forcing):
        for f in (
            make_random_forcing(rng, support=4),
            QuasiPeriodicForcing.geometric(0.9, 0.55, 2.2, 1.0),
        ):
            c = f.uniform_bound()
            ts = rng.uniform(-500.0, 500.0, 10_000)
            # a window of 60 holds every site of both forcings above 0.55^60
            norms = np.array([np.linalg.norm(f.eval_window(t, 60)) for t in ts])
            assert np.all(norms <= c * (1.0 + 1e-12))


def load_forcing(tmp_path, keys):
    """The forcing that ``load_config`` builds from a ``[forcing]`` section."""
    path = tmp_path / "exp.ini"
    path.write_text("[params]\nlambda = 1.0\n\n[forcing]\n"
                    + "".join(f"{key} = {value}\n" for key, value in keys.items()),
                    encoding="utf-8")
    return load_config(path).forcing


class TestConfigParsing:
    def test_geometric(self, tmp_path):
        f = load_forcing(
            tmp_path,
            {
                "support": "geometric",
                "amplitude0": "1.0",
                "decay_rate": "0.5",
                "frequency_rule": "1.0",
                "phase_rule": "0.0",
            },
        )
        assert f.decay_rate == 0.5
        assert f.uniform_bound() == pytest.approx(math.sqrt(5.0 / 3.0))

    def test_finite_with_per_site_frequencies(self, tmp_path):
        f = load_forcing(
            tmp_path,
            {
                "support": "finite",
                "amplitude0": "2.0",
                "decay_rate": "0.5",
                "support_radius": "1",
                "frequency_rule": "1.0 2.0 3.0",
                "phase_rule": "0.0",
            },
        )
        amps, freqs, _ = f.mode_table(1)
        assert np.array_equal(amps, [1.0, 2.0, 1.0])
        assert np.array_equal(freqs, [1.0, 2.0, 3.0])

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_forcing(tmp_path, {"support": "geometric", "amplitude0": "1", "zzz": "1"})

    def test_bad_support_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_forcing(tmp_path, {"support": "fancy", "amplitude0": "1"})

    def test_support_radius_rejected_for_geometric(self, tmp_path):
        with pytest.raises(ConfigError, match="support_radius"):
            load_forcing(
                tmp_path,
                {
                    "support": "geometric",
                    "amplitude0": "1.0",
                    "support_radius": "40",
                    "frequency_rule": "1.0",
                },
            )

    def test_decay_rate_must_be_contractive(self, tmp_path):
        with pytest.raises(LatticeError):
            load_forcing(
                tmp_path,
                {
                    "support": "geometric",
                    "amplitude0": "1.0",
                    "decay_rate": "1.5",
                    "frequency_rule": "1.0",
                    "phase_rule": "0.0",
                },
            )
