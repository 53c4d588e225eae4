import numpy as np
import pytest

import oracle


def _table(rng, width):
    """Random site table with two distinct frequencies and a few zero sites."""
    amps = rng.uniform(-1.0, 1.0, width) * (rng.uniform(size=width) > 0.2)
    freqs = rng.choice([0.7, 1.9], size=width)
    phases = rng.uniform(0.0, 2.0 * np.pi, width)
    return np.array([amps, freqs, phases])


@pytest.mark.parametrize("periodic", [True, False])
@pytest.mark.parametrize("width", [3, 9, 33])
def test_response_matches_dense_solve(periodic, width):
    rng = np.random.default_rng(width)
    table = _table(rng, width)
    nu, decay = 0.8, 1.7
    k = oracle.stiffness(width, nu, decay, periodic)
    amps, freqs, phases = table
    for w, c in oracle.response_amplitudes(table, nu, decay, periodic):
        b = np.where(freqs == w, amps * np.exp(1j * phases), 0.0)
        dense = np.linalg.solve(1j * w * np.eye(width) + k, b)
        np.testing.assert_allclose(c, dense, rtol=0, atol=1e-13)


def test_response_solves_the_ode():
    """u(t) = sum Im(c e^{iwt}) satisfies u' = -K u + f(t) at arbitrary times."""
    rng = np.random.default_rng(5)
    table = _table(rng, 11)
    nu, decay = 1.0, 2.0
    k = oracle.stiffness(11, nu, decay, periodic=True)
    amps, freqs, phases = table
    modes = oracle.response_amplitudes(table, nu, decay, periodic=True)
    for t in (0.0, 0.37, 5.2):
        du = sum((1j * w * c * np.exp(1j * w * t)).imag for w, c in modes)
        forcing = amps * np.sin(freqs * t + phases)
        np.testing.assert_allclose(du, -k @ oracle.state_at(modes, t) + forcing, atol=1e-12)


def test_rk4_orbit_converges_at_fourth_order():
    rng = np.random.default_rng(8)
    table = _table(rng, 9)
    exact = oracle.response_amplitudes(table, 1.0, 2.0, periodic=False)
    gaps = [oracle.amplitude_gap(oracle.rk4_amplitudes(table, 1.0, 2.0, False, h), exact)
            for h in (0.04, 0.02)]
    assert gaps[1] < 1e-7
    assert 14.0 < gaps[0] / gaps[1] < 18.0


def test_wrapped_table_moves_first_dropped_modes_to_opposite_edges():
    m = 3
    amps = np.arange(1.0, 2 * m + 2)  # mode i has amplitude i + m + 1
    table = oracle.wrapped_table(amps, 1.0 + 0 * amps, 0 * amps, 2)
    assert list(table[0]) == [7.0, 3.0, 4.0, 5.0, 1.0]  # sites -2..2
    assert list(oracle.reference_table(amps, amps, amps, 5)[0]) == [0, 0, 1, 2, 3, 4, 5, 6, 7, 0, 0]
