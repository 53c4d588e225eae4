"""Closed-form constants from the a priori energy estimates: the Gronwall
envelope, the absorbing radius, the slope bound of the smooth cutoff,
burn-in times, and tail mass on states."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ParameterError, StrictModeRequiredError

#: Slope bound of the unit cutoff profile; the cubic smoothstep attains
#: its steepest slope 3/2 at the midpoint of the bridge.
CUTOFF_SLOPE_BOUND = 1.5
_TAIL_INDEX_CAP = 10 ** 9


def asymptotic_radius_sq(lam: float, alpha: float, forcing_bound: float) -> float:
    """Squared radius ``C**2 / (lam * (lam + 2*alpha))`` that forced energy
    settles into."""
    if lam <= 0.0:
        raise ParameterError(f"decay rate must be > 0, got {lam}")
    if alpha < 0.0:
        raise ParameterError(f"margin must be >= 0, got {alpha}")
    rate_sq = lam * (lam + 2.0 * alpha)
    if rate_sq == 0.0:
        raise ParameterError(f"decay rate {lam} too small: lam * (lam + 2 alpha) underflows to 0")
    radius_sq = forcing_bound ** 2 / rate_sq
    if not math.isfinite(radius_sq):
        raise ParameterError(f"decay rate {lam} too small: the absorbing radius "
                             f"C**2 / (lam * (lam + 2 alpha)) = {radius_sq} is not finite")
    return radius_sq


def gronwall_bound(
    lam: float,
    alpha: float,
    forcing_bound: float,
    v0_norm: float,
    horizon: float,
) -> float:
    """Norm bound after time ``horizon`` from the energy inequality
    ``y' <= -(lam + 2*alpha) y + C**2 / lam``:

        M = sqrt( exp(-(lam+2a)T) * (||v0||^2 - b) + b ),
        b = C^2 / (lam (lam + 2a)),

    with the decaying term clamped at zero when the initial energy already
    sits below ``b``, so M stays a valid bound in both directions.
    """
    if horizon < 0.0:
        raise ParameterError(f"horizon must be >= 0, got {horizon}")
    if not math.isfinite(v0_norm * v0_norm):
        raise ParameterError(f"initial norm {v0_norm:g}: its square overflows a float")
    base = asymptotic_radius_sq(lam, alpha, forcing_bound)
    decaying = math.exp(-(lam + 2.0 * alpha) * horizon) * (v0_norm ** 2 - base)
    return math.sqrt(max(decaying, 0.0) + base)


def burn_in_time(alpha: float, ball_norm_sq: float, eps: float) -> float:
    """Time ``max(0, (1/alpha) * ln(alpha * ||Q||^2 / eps))`` after which the
    cutoff-weighted energy has decayed below the forcing-driven floor."""
    if alpha <= 0.0:
        raise StrictModeRequiredError(
            "burn-in formula needs a strict margin alpha > 0"
        )
    if eps <= 0.0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    if ball_norm_sq <= 0.0:
        raise ParameterError(f"ball_norm_sq must be > 0, got {ball_norm_sq}")
    return max(0.0, math.log(alpha * ball_norm_sq / eps) / alpha)


def tail_mass(w, k: int) -> float:
    """Mass ``sum_{|i| >= k} |w_i|^2`` over the stored sites of ``w``.

    ``w`` is an odd-length array over centered logical sites.  Sites beyond
    the stored range are zero by embedding, so ``k`` past the half-width
    simply yields zero.
    """
    if k < 0:
        raise ParameterError(f"tail index must be >= 0, got {k}")
    values = np.asarray(w, dtype=float)
    if values.ndim != 1 or values.size % 2 != 1:
        raise ParameterError("state must be one-dimensional with odd length")
    half = (values.size - 1) // 2
    if k == 0:
        return float(np.dot(values, values))
    if k > half:
        return 0.0
    lo = values[:half - k + 1]
    hi = values[half + k:]
    return float(np.dot(lo, lo) + np.dot(hi, hi))


def calibrate_tail_index(
    nu: float,
    alpha: float,
    ball_norm_sq: float,
    tail_bound: Callable[[int], float],
    eps: float,
) -> int:
    """Smallest cutoff scale ``k`` with

        nu * 4 * C0 * ||Q||^2 / k  +  (1/alpha) * sup-tail(f beyond k)  <=  eps * alpha / 2,

    where ``tail_bound(m)`` bounds ``sup_t sum_{|i| > m} |f_i(t)|^2``.  The
    returned scale does not depend on any truncation order.
    """
    if alpha <= 0.0:
        raise StrictModeRequiredError("tail calibration needs alpha > 0")
    if eps <= 0.0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    budget = eps * alpha / 2.0

    def load(k: int) -> float:
        return nu * 4.0 * CUTOFF_SLOPE_BOUND * ball_norm_sq / k + tail_bound(k - 1) / alpha

    # the load is nonincreasing in k: bracket then bisect for the first hit
    lo, hi = 1, 1
    while load(hi) > budget:
        hi *= 2
        if hi > _TAIL_INDEX_CAP:
            raise ParameterError(
                f"no cutoff scale below {_TAIL_INDEX_CAP} meets eps = {eps}"
            )
    while lo < hi:
        mid = (lo + hi) // 2
        if load(mid) <= budget:
            hi = mid
        else:
            lo = mid + 1
    return lo
