"""Concrete translation-compact forcing built from square-summable sine modes.

Every forcing assigns to lattice site ``i`` the scalar signal

    f_i(t) = a_i * sin(w_i * t + p_i),

with ``sum_i a_i**2`` finite, certified by construction.  Two frozen storage
forms are supported:

* :class:`FiniteForcing`    -- explicit mode table on ``|i| <= m`` with
  per-site amplitude, frequency, and phase;
* :class:`GeometricForcing` -- ``a_i = a0 * r**|i|`` on all of Z
  (``0 < r < 1``) with one shared frequency and phase, so norms and mode
  tails have closed forms.

Time shifts are tracked through an exact shift accumulator, which makes the
shift group law and the shift-equivariance of the truncation and wrap
projections hold to the last bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


class QuasiPeriodicForcing:
    """Immutable quasi-periodic forcing, stored as :class:`FiniteForcing` or
    :class:`GeometricForcing`; construct via :meth:`finite`, :meth:`geometric`,
    or :meth:`zero`.  ``mode_table`` does *not* fold the shift accumulator
    ``time_offset`` into its phases; carry it alongside when rebuilding."""

    time_offset: float

    @staticmethod
    def finite(amplitudes, frequencies, phases=0.0, *, time_offset: float = 0.0) -> FiniteForcing:
        """Mode table over logical sites ``-m .. m`` (array length ``2m+1``).

        Scalars for ``frequencies`` or ``phases`` broadcast over all sites.
        """
        a = np.atleast_1d(np.asarray(amplitudes, dtype=float)).copy()
        if a.ndim != 1 or a.size % 2 != 1:
            raise ParameterError("amplitude table must be 1-D with odd length")
        w = np.broadcast_to(np.asarray(frequencies, dtype=float), a.shape).copy()
        p = np.broadcast_to(np.asarray(phases, dtype=float), a.shape).copy()
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(w)) and np.all(np.isfinite(p))):
            raise ParameterError("mode table contains non-finite entries")
        with np.errstate(over="ignore"):
            if not math.isfinite(np.dot(a, a)):
                raise ParameterError("forcing energy sum a_i^2 is not a finite float")
        a.setflags(write=False)
        w.setflags(write=False)
        p.setflags(write=False)
        return FiniteForcing(a, w, p, float(time_offset))

    @staticmethod
    def geometric(
        amplitude0: float,
        decay_rate: float,
        frequency: float,
        phase: float = 0.0,
        *,
        time_offset: float = 0.0,
    ) -> GeometricForcing:
        """Geometric amplitude profile ``a_i = amplitude0 * decay_rate**|i|``."""
        if not all(math.isfinite(x) for x in (amplitude0, frequency, phase)):
            raise ParameterError("geometric forcing has non-finite parameters")
        if not 0.0 < decay_rate < 1.0:
            raise ParameterError(f"decay_rate must lie in (0, 1), got {decay_rate}")
        if amplitude0 < 0.0:
            raise ParameterError(f"amplitude0 must be >= 0, got {amplitude0}")
        r2 = decay_rate * decay_rate
        if not math.isfinite(amplitude0 * amplitude0 * (1.0 + r2) / (1.0 - r2)):
            raise ParameterError(
                f"forcing energy sum a_i^2 is not a finite float (amplitude0 = {amplitude0})"
            )
        return GeometricForcing(
            float(amplitude0), float(decay_rate), float(frequency), float(phase), float(time_offset)
        )

    @staticmethod
    def zero() -> FiniteForcing:
        return QuasiPeriodicForcing.finite([0.0], 0.0, 0.0)

    def eval_window(self, t: float, window: int):
        """Component values ``f_i(t)`` for ``|i| <= window`` as an array."""
        a, w, p = self.mode_table(window)
        return a * np.sin(w * (t + self.time_offset) + p)

    def uniform_bound(self) -> float:
        """Time-uniform norm bound, valid for every shift and every
        truncation or wrap image (projections only drop or relocate modes)."""
        return math.sqrt(self.total_energy())

    def shift(self, h: float) -> QuasiPeriodicForcing:
        """Time translate: the shifted forcing evaluates as ``f(t + h)``."""
        return dataclasses.replace(self, time_offset=self.time_offset + h)


@dataclass(frozen=True, eq=False)
class FiniteForcing(QuasiPeriodicForcing):
    """Explicit read-only mode table on ``|i| <= m``, arrays of length ``2m+1``."""

    amplitudes: np.ndarray
    frequencies: np.ndarray
    phases: np.ndarray
    time_offset: float = 0.0

    def mode_table(self, window: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Base amplitude/frequency/phase arrays for ``|i| <= window``, zero
        outside the support."""
        if window < 0:
            raise ParameterError("window must be >= 0")
        width = 2 * window + 1
        a = np.zeros(width)
        w = np.zeros(width)
        p = np.zeros(width)
        m = self.effective_support()
        lo = max(-window, -m)
        hi = min(window, m)
        if lo <= hi:
            a[lo + window:hi + window + 1] = self.amplitudes[lo + m:hi + m + 1]
            w[lo + window:hi + window + 1] = self.frequencies[lo + m:hi + m + 1]
            p[lo + window:hi + window + 1] = self.phases[lo + m:hi + m + 1]
        return a, w, p

    def effective_support(self) -> int:
        """The support radius ``m``: the table has no tail to cut."""
        return (self.amplitudes.size - 1) // 2

    def total_energy(self) -> float:
        """``sum_i a_i**2``, the square-summability certificate."""
        return float(np.dot(self.amplitudes, self.amplitudes))

    def tail_sup_bound(self, n: int) -> float:
        """Upper bound for ``sup_t`` of the mode-tail mass
        ``sum_{|i| >= n+1} |f_i(t)|**2``: ``sum a_i**2`` over those sites."""
        if n < 0:
            raise ParameterError("tail order must be >= 0")
        m = self.effective_support()
        if n >= m:
            return 0.0
        # summed directly: the total less the head cancels when the head dominates
        tail = np.concatenate((self.amplitudes[:m - n], self.amplitudes[m + n + 1:]))
        return float(np.dot(tail, tail))


@dataclass(frozen=True)
class GeometricForcing(QuasiPeriodicForcing):
    """``a_i = amplitude0 * decay_rate**|i|`` on all of Z (``0 < decay_rate < 1``)
    with one shared frequency and phase; norms and tails have closed forms."""

    amplitude0: float
    decay_rate: float
    frequency: float
    phase: float
    time_offset: float = 0.0

    def mode_table(self, window: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Base amplitude/frequency/phase arrays for ``|i| <= window``."""
        if window < 0:
            raise ParameterError("window must be >= 0")
        width = 2 * window + 1
        sites = np.abs(np.arange(-window, window + 1))
        a = self.amplitude0 * self.decay_rate ** sites
        return a, np.full(width, self.frequency), np.full(width, self.phase)

    def total_energy(self) -> float:
        """``sum_i a_i**2``, the square-summability certificate."""
        r2 = self.decay_rate ** 2
        return self.amplitude0 ** 2 * (1.0 + r2) / (1.0 - r2)

    def tail_sup_bound(self, n: int) -> float:
        """``sup_t`` of the mode-tail mass ``sum_{|i| >= n+1} |f_i(t)|**2``,
        attained: all modes share one frequency and phase."""
        if n < 0:
            raise ParameterError("tail order must be >= 0")
        r2 = self.decay_rate ** 2
        return 2.0 * self.amplitude0 ** 2 * r2 ** (n + 1) / (1.0 - r2)
