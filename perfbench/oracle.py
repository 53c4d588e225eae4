"""Exact forced response of the linear lattice, computed apart from latticedyn.

For ``F(s) = -alpha * s`` and site forcing ``f_i(t) = a_i sin(w_i t + p_i)``
the lattice reads ``u' = -K u + f(t)`` with ``K = nu * L + (lam + alpha) I``.
``K`` is positive definite, so the system has exactly one bounded solution,

    u(t) = sum_w Im[ (i w I + K)^{-1} b_w e^{i w t} ],   (b_w)_i = a_i e^{i p_i} where w_i = w,

and every other solution approaches it at rate ``lam + alpha``: each fiber
attractor is this single point.  ``L`` is the periodic second difference for
the wrapped truncation (circulant, diagonalised by the FFT) and the
zero-ghost second difference for the padded reference system (tridiagonal,
solved banded).

The module also gives the periodic orbit of classical RK4 at a fixed step,
which bounds the discretisation error of a pullback sample.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded


def wrapped_table(amps, freqs, phases, n: int):
    """Site forcing table of the order-``n`` wrapped truncation.

    ``amps``/``freqs``/``phases`` describe modes ``-m .. m``.  Interior sites
    keep their own mode; site ``n`` takes mode ``-(n+1)`` and site ``-n``
    takes mode ``n+1``.
    """
    wide = reference_table(amps, freqs, phases, n + 1)
    table = wide[:, 1:-1].copy()
    table[:, -1] = wide[:, 0]
    table[:, 0] = wide[:, -1]
    return table


def reference_table(amps, freqs, phases, n_work: int):
    """Site forcing table of the padded reference system: modes ``|i| <= n_work``."""
    m = (len(amps) - 1) // 2
    table = np.zeros((3, 2 * n_work + 1))
    lo = max(-m, -n_work)
    hi = min(m, n_work)
    for row, col in enumerate((amps, freqs, phases)):
        table[row, lo + n_work:hi + n_work + 1] = np.asarray(col)[lo + m:hi + m + 1]
    return table


def _modes(table):
    """Yield ``(w, b_w)``: the complex amplitude vector of each distinct frequency."""
    amps, freqs, phases = table
    active = amps != 0.0
    for w in np.unique(freqs[active]):
        sel = active & (freqs == w)
        yield float(w), np.where(sel, amps * np.exp(1j * phases), 0.0)


def stiffness(width: int, nu: float, decay: float, periodic: bool) -> np.ndarray:
    """Dense ``K = nu * L + decay * I`` (the oracle's test reference)."""
    k = (2.0 * nu + decay) * np.eye(width) - nu * (np.eye(width, k=1) + np.eye(width, k=-1))
    if periodic:
        k[0, -1] -= nu
        k[-1, 0] -= nu
    return k


def response_amplitudes(table, nu: float, decay: float, periodic: bool):
    """Complex amplitudes ``c_w = (i w + K)^{-1} b_w`` of the bounded solution."""
    width = table.shape[1]
    out = []
    for w, b in _modes(table):
        if periodic:
            sigma = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(width) / width)
            c = np.fft.ifft(np.fft.fft(b) / (1j * w + nu * sigma + decay))
        else:
            bands = np.empty((3, width), dtype=complex)
            bands[0] = -nu
            bands[1] = 1j * w + 2.0 * nu + decay
            bands[2] = -nu
            c = solve_banded((1, 1), bands, b)
        out.append((w, c))
    return out


def rk4_amplitudes(table, nu: float, decay: float, periodic: bool, h: float):
    """Amplitudes of the periodic orbit that classical RK4 at step ``h``
    settles on: one step maps ``Im(c e^{iwt})`` to ``Im(c e^{iw(t+h)})``."""
    width = table.shape[1]
    m = -stiffness(width, nu, decay, periodic)
    z = h * m
    eye = np.eye(width)
    growth = eye + z @ (eye + z @ (eye / 2 + z @ (eye / 6 + z / 24)))
    out = []
    for w, b in _modes(table):
        half, full = np.exp(0.5j * w * h), np.exp(1j * w * h)
        k1 = b
        k2 = m @ (0.5 * h * k1) + b * half
        k3 = m @ (0.5 * h * k2) + b * half
        k4 = m @ (h * k3) + b * full
        forced = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append((w, np.linalg.solve(full * eye - growth, forced)))
    return out


def state_at(amplitudes, t: float = 0.0) -> np.ndarray:
    """Real state ``sum_w Im(c_w e^{iwt})``."""
    return sum((c * np.exp(1j * w * t)).imag for w, c in amplitudes)


def amplitude_gap(first, second) -> float:
    """``sum_w ||c_w - c'_w||``: bounds the state gap at every time."""
    return float(sum(np.linalg.norm(c1 - c2) for (_, c1), (_, c2) in zip(first, second)))
