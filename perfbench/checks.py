"""Output checks.  Each returns a list of failure messages, empty when the
check holds.  None compares against a stored copy of earlier output: every
reference is a property the method must have or a computation made here."""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import pdist


def absorbing_energy(lam: float, alpha: float, c_bound: float) -> float:
    """``b = C^2 / (lam (lam + 2 alpha))``: the energy ``||u||^2`` settles below it."""
    return c_bound ** 2 / (lam * (lam + 2.0 * alpha))


def energy_bound(lam: float, alpha: float, c_bound: float, y0: float, t: float) -> float:
    """Gronwall bound on ``||u(t)||^2`` from ``y' <= -(lam + 2 alpha) y + C^2 / lam``."""
    b = absorbing_energy(lam, alpha, c_bound)
    return b + math.exp(-(lam + 2.0 * alpha) * t) * (y0 - b)


def close(label: str, value, reference, tol: float) -> list[str]:
    gap = float(np.max(np.abs(np.asarray(value, dtype=float) - np.asarray(reference, dtype=float))))
    if not gap <= tol:
        return [f"{label}: off by {gap:.3g}, tolerance {tol:.3g}"]
    return []


def norms_match(states, norms_sq, rtol: float = 1e-12) -> list[str]:
    """Each ``norm_sq`` equals the sum of squares of its trajectory row."""
    expected = np.sum(np.square(states), axis=1)
    gap = np.abs(norms_sq - expected) / np.maximum(expected, 1e-300)
    worst = int(np.argmax(gap))
    if not gap[worst] <= rtol:
        return [f"norms.csv row {worst}: norm_sq {norms_sq[worst]!r} but row sum of "
                f"squares {expected[worst]!r}"]
    return []


def energy_inequality(times, norms_sq, lam, alpha, c_bound, margin: float) -> list[str]:
    """``y+ <= y e^{-(lam + 2 alpha) dt} + (C^2 / lam) dt (1 + margin)`` for
    every consecutive pair: the dissipativity of the finite system."""
    dt = np.diff(times)
    allowed = norms_sq[:-1] * np.exp(-(lam + 2.0 * alpha) * dt) + (c_bound ** 2 / lam) * dt * (1.0 + margin)
    excess = norms_sq[1:] - allowed
    worst = int(np.argmax(excess))
    if excess[worst] > 0.0:
        return [f"energy inequality broken at t = {times[worst + 1]:.6g} by {excess[worst]:.3g}"]
    return []


def absorbed(times, norms_sq, lam, alpha, c_bound, slack: float = 0.05) -> list[str]:
    """After the burn-in that the Gronwall bound gives, every norm lies inside
    the absorbing radius ``(1 + slack) sqrt(b)``."""
    b = absorbing_energy(lam, alpha, c_bound)
    radius_sq = (1.0 + slack) ** 2 * b
    y0 = float(norms_sq[0])
    burn_in = 0.0
    if y0 > radius_sq:
        burn_in = math.log((y0 - b) / (radius_sq - b)) / (lam + 2.0 * alpha)
    late = times >= times[0] + burn_in
    if not np.any(late):
        return [f"trajectory ends before the burn-in {burn_in:.6g}"]
    worst = float(np.max(norms_sq[late]))
    if worst > radius_sq:
        return [f"norm {math.sqrt(worst):.6g} after burn-in {burn_in:.6g} exceeds "
                f"absorbing radius {math.sqrt(radius_sq):.6g}"]
    return []


def within_ball(states, radius: float) -> list[str]:
    worst = float(np.max(np.linalg.norm(states, axis=1)))
    if not worst <= radius:
        return [f"cloud point norm {worst:.6g} exceeds the Gronwall bound {radius:.6g}"]
    return []


def diameter_at_most(states, bound: float) -> list[str]:
    diameter = float(np.max(pdist(states))) if len(states) > 1 else 0.0
    if not diameter <= bound:
        return [f"cloud diameter {diameter:.3g} exceeds the contraction bound {bound:.3g}"]
    return []


def tails_match(states, rows, rtol: float = 1e-9) -> list[str]:
    """Each row's ``worst_tail`` equals ``max_x sum_{|i| >= k} x_i^2`` over the cloud."""
    half = (states.shape[1] - 1) // 2
    sites = np.abs(np.arange(-half, half + 1))
    failures = []
    for row in rows:
        tail = float(np.max(np.sum(np.square(states[:, sites >= row["k"]]), axis=1), initial=0.0))
        if not abs(row["worst_tail"] - tail) <= rtol * tail:
            failures.append(f"eps {row['eps']}: worst_tail {row['worst_tail']!r} but the "
                            f"cloud's tail mass beyond k = {row['k']} is {tail!r}")
    return failures


def strictly_decreasing(label: str, values) -> list[str]:
    if all(a > b for a, b in zip(values, values[1:])):
        return []
    return [f"{label} not strictly decreasing: {list(values)}"]
