"""Finite-difference stencils with periodic wrap and the two forcing-space
projections (truncation and periodic wrap).

The stencil operators act on vectors over logical sites ``-n .. n`` stored as
arrays of length ``2n + 1``.  Application is matrix-free and O(n);
materialized integer matrices exist only as test oracles.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError
from .forcing import QuasiPeriodicForcing


def _const(value: float) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array: the same double as an
    operand, without the ~240 ns a ufunc call spends converting a Python float."""
    const = np.array(float(value))
    const.flags.writeable = False
    return const


_TWO = _const(2.0)


def _check_order(n: int) -> None:
    if n < 1:
        raise ParameterError(f"truncation order must be >= 1, got {n}")


def _check_system(n: int, boundary: str) -> None:
    _check_order(n)
    if boundary not in ("wrap", "project", "zero"):
        raise ParameterError(f"boundary must be 'wrap', 'project' or 'zero', got {boundary!r}")


def _check_width(v: np.ndarray, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != 2 * n + 1:
        raise DimensionError(
            f"state width {v.shape[-1]} does not match order n={n} "
            f"(expected {2 * n + 1})"
        )
    return v


def apply_difference(v, n: int):
    """First difference with periodic wrap: ``(Bv)_i = v_{i+1} - v_i``.

    Acts on the last axis, so stacked states are handled in one call.
    """
    _check_order(n)
    v = _check_width(v, n)
    return np.roll(v, -1, axis=-1) - v


def _neighbour_sum(v: np.ndarray, periodic: bool, out: np.ndarray) -> np.ndarray:
    """Neighbour sum ``(Sv)_i = v_{i-1} + v_{i+1}`` on the last axis of ``v``
    (width at least 3), written into ``out``, an array shaped like ``v`` that
    is not ``v``.  ``periodic`` wraps the neighbours of the edge sites;
    otherwise they are zero ghost cells.  The one stencil: callers check the
    width."""
    np.add(v[..., :-2], v[..., 2:], out[..., 1:-1])
    if v.ndim == 1:
        # a row's edge sites are set as scalars, without a full ufunc call
        out[0] = v[-1] + v[1] if periodic else v[1]
        out[-1] = v[-2] + v[0] if periodic else v[-2]
    elif periodic:
        np.add(v[..., -1], v[..., 1], out[..., 0])
        np.add(v[..., -2], v[..., 0], out[..., -1])
    else:
        out[..., 0] = v[..., 1]
        out[..., -1] = v[..., -2]
    return out


def apply_laplacian(v, n: int, periodic: bool = True, out=None):
    """Second difference ``(Av)_i = 2 v_i - v_{i-1} - v_{i+1}``, computed as
    ``2v - Sv`` with the neighbour sum ``S``, written into ``out`` (an array
    shaped like ``v`` that is not ``v``) or a fresh array.

    ``periodic`` wraps the neighbours of the edge sites; otherwise they are
    zero ghost cells.  The periodic form satisfies ``<Av, v> = ||Bv||**2`` to
    round-off; both have operator norm at most 4.  Acts on the last axis.
    """
    _check_order(n)
    v = _check_width(v, n)
    out = _neighbour_sum(v, periodic, np.empty_like(v) if out is None else out)
    return np.subtract(np.multiply(v, _TWO), out, out)


def difference_matrix(n: int) -> np.ndarray:
    """Materialized first-difference matrix (integer entries; test oracle)."""
    _check_order(n)
    size = 2 * n + 1
    mat = -np.eye(size, dtype=np.int64)
    mat += np.eye(size, k=1, dtype=np.int64)
    mat[-1, 0] = 1
    return mat

def laplacian_matrix(n: int) -> np.ndarray:
    """Materialized periodic second-difference matrix (integer entries)."""
    _check_order(n)
    size = 2 * n + 1
    mat = 2 * np.eye(size, dtype=np.int64)
    mat -= np.eye(size, k=1, dtype=np.int64)
    mat -= np.eye(size, k=-1, dtype=np.int64)
    mat[0, -1] -= 1
    mat[-1, 0] -= 1
    return mat


def project_forcing(f: QuasiPeriodicForcing, n: int) -> QuasiPeriodicForcing:
    """Truncation projection: keep modes ``|i| <= n``, drop the rest."""
    _check_order(n)
    amps, freqs, phases = f.mode_table(n)
    return QuasiPeriodicForcing.finite(
        amps, freqs, phases, time_offset=f.time_offset
    )


def wrap_forcing(f: QuasiPeriodicForcing, n: int) -> QuasiPeriodicForcing:
    """Periodic-wrap projection: interior modes pass through, while each edge
    site takes the first dropped mode from the opposite side
    (site ``n`` reads ``f_{-n-1}``, site ``-n`` reads ``f_{n+1}``).

    Commutes with time shifts exactly, like :func:`project_forcing`.
    """
    _check_order(n)
    amps, freqs, phases = (arr.copy() for arr in f.mode_table(n + 1))
    width = 2 * (n + 1) + 1  # table storage: logical i at index i + n + 1
    for arr in (amps, freqs, phases):
        arr[width - 2] = arr[0]  # site n  <- mode -(n+1)
        arr[1] = arr[width - 1]  # site -n <- mode n+1
    sl = slice(1, width - 1)  # logical -n .. n
    return QuasiPeriodicForcing.finite(
        amps[sl], freqs[sl], phases[sl], time_offset=f.time_offset
    )


def boundary_forcing(f: QuasiPeriodicForcing, n: int, boundary: str) -> QuasiPeriodicForcing:
    """The forcing of the system of order ``n`` under the edge policy
    ``boundary``: ``wrap`` (:func:`wrap_forcing`), or ``project`` and the
    zero-ghost reference ``zero`` (:func:`project_forcing`)."""
    _check_system(n, boundary)
    return wrap_forcing(f, n) if boundary == "wrap" else project_forcing(f, n)
