"""The property checks shared by ``latticedyn verify`` and the acceptance
suite: the stencil identities, shift equivariance of the forcing
projections, the flow composition defect, the energy and absorbing
envelopes along trajectories, and the rows ``attractor`` and ``converge``
make of the tail certificate and the distances to the reference cloud.

This is the one module that compares a measurement with a gate.  Each
check measures the inputs it is given against the gate its caller passes
and returns report rows ``{name, passed, margin, detail}``; the
margin is the signed distance to the gate, positive when the check passes.
"""

from __future__ import annotations

import logging
import math
from typing import Any

import numpy as np

from .dynamics import cocycle_property_check
from .errors import ParameterError
from .estimates import gronwall_bound
from .operators import apply_difference, apply_laplacian, difference_matrix, laplacian_matrix

log = logging.getLogger("latticedyn")


def check(name: str, passed: bool, margin: float, detail: str) -> dict[str, Any]:
    """One report row, logged as it is made."""
    status = "pass" if passed else "FAIL"
    log.info("check %-28s %s (margin %.3g) %s", name, status, margin, detail)
    return {"name": name, "passed": bool(passed), "margin": float(margin), "detail": detail}


def matrix_identity(max_order: int) -> dict[str, Any]:
    """``A_n == B_n^T B_n == B_n B_n^T`` in integer arithmetic for every
    order ``n = 1 .. max_order``; stops at the first order that fails."""
    for n in range(1, max_order + 1):
        b, a = difference_matrix(n), laplacian_matrix(n)
        if a.dtype.kind != "i" or not (np.array_equal(b.T @ b, a) and np.array_equal(b @ b.T, a)):
            return check("matrix-identity", False, 0.0,
                         f"orders 1..{max_order}, first failure at n={n}")
    return check("matrix-identity", True, 0.0, f"orders 1..{max_order}")


def stencil_identities(states, tol: float) -> list[dict[str, Any]]:
    """Three rows over the ``(n, v)`` pairs, each measured relative to
    ``||v||``: ``<Av, v> == ||Bv||^2``, ``<Av, v> >= 0`` and
    ``||Av|| <= 4 ||v||``, each within ``tol``."""
    gap = quad = ratio = 0.0
    for n, v in states:
        av, bv = apply_laplacian(v, n), apply_difference(v, n)
        scale = float(v @ v) + 1e-30
        gap = max(gap, abs(float(av @ v) - float(bv @ bv)) / scale)
        quad = max(quad, -float(av @ v) / scale)
        ratio = max(ratio, float(np.linalg.norm(av)) / (4.0 * np.linalg.norm(v)))
    return [
        check("stencil-energy-identity", gap < tol, tol - gap, f"worst relative gap {gap:.3g}"),
        check("stencil-positivity", quad <= tol, tol - quad,
              f"worst negative quadratic form {quad:.3g}"),
        check("stencil-norm-bound", ratio <= 1.0 + tol, 1.0 + tol - ratio,
              f"worst ||Av||/(4||v||) = {ratio:.6g}"),
    ]


def shift_equivariance(name: str, project, cases, tol: float) -> dict[str, Any]:
    """``project(shift(h, f), n)`` and ``shift(h, project(f, n))`` agree on
    sites ``-n .. n`` at time ``t`` within ``tol`` for every case
    ``(f, n, h, t)``."""
    worst = 0.0
    for f, n, h, t in cases:
        lhs = project(f.shift(h), n).eval_window(t, n)
        rhs = project(f, n).shift(h).eval_window(t, n)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return check(name, worst < tol, tol - worst,
                 f"{len(cases)} random (n, h, t) triples, worst {worst:.3g}")


def cocycle_defect(v0, forcing, params, nonlin, h: float, tol: float,
                   direct_step: float | None = None) -> dict[str, Any]:
    """Two-path composition defect of the flow at ``t = tau = 1`` below
    ``tol`` (see :func:`cocycle_property_check`)."""
    defect = cocycle_property_check(v0, forcing, 1.0, 1.0, params, nonlin, h, direct_step)
    return check("cocycle-defect", defect < tol, tol - defect,
                 f"two-path defect {defect:.3g} at h={h:.3g}")


def energy_envelope(traj, lam: float, alpha: float, forcing_bound: float,
                    margin: float) -> dict[str, Any]:
    """No sample pair of the trajectory (of every row of a stacked one) exceeds
    the discrete shadow of the energy inequality,
    ``y_{k+1} <= y_k exp(-(lam + 2 alpha) dt) + (C^2 / lam) dt (1 + margin)``,
    where ``margin`` absorbs integration error."""
    if lam <= 0.0:
        raise ParameterError(f"decay rate must be > 0, got {lam}")
    # rows first, samples on the last axis, where the time steps broadcast
    y, dts = traj.norms_sq().T, np.diff(traj.times)
    allowed = (y[..., :-1] * np.exp(-(lam + 2.0 * alpha) * dts)
               + (forcing_bound ** 2 / lam) * dts * (1.0 + margin))
    excess = y[..., 1:] - allowed
    worst = float(excess.max(initial=-math.inf))
    return check("energy-envelope", worst <= 0.0, -worst,
                 f"{excess.size} sample pairs, max excess {worst:.3g}")


def absorbing_envelope(traj, v0_norms, lam: float, alpha: float, forcing_bound: float,
                       slack: float) -> dict[str, Any]:
    """Every norm sampled after the start stays within ``slack`` times the
    Gronwall bound from its row's initial norm: ``v0_norms`` is one number
    for one row, one per row for a stacked trajectory.  The start is left
    out: the bound is built from the initial norm, so it holds there by
    construction, and from outside the absorbing ball the ratio would read
    exactly ``1 / slack``."""
    times, norms = traj.times[1:], np.sqrt(traj.norms_sq()[1:])
    bound = np.reshape([gronwall_bound(lam, alpha, forcing_bound, v0_norm, t)
                        for t in times for v0_norm in np.ravel(v0_norms).tolist()], norms.shape)
    worst = float(np.max(norms / (bound * slack + 1e-30), initial=0.0))
    return check("absorbing-envelope", worst <= 1.0, 1.0 - worst,
                 f"worst norm / ({slack:g} * bound) after t0 = {worst:.6g}")


def beta_threshold(final_beta: float, threshold: float | None) -> dict[str, Any]:
    """The finest order's distance to the reference lies below ``threshold``;
    without a threshold the row records the distance and passes."""
    if threshold is None:
        return check("beta-threshold", True, 0.0, f"final beta {final_beta:.3g} (no threshold)")
    return check("beta-threshold", final_beta < threshold, threshold - final_beta,
                 f"final beta {final_beta:.3g} vs threshold {threshold:g}")


def beta_nonincreasing(betas, slack: float) -> dict[str, Any]:
    """No distance to the reference exceeds ``slack`` times the one of the
    order before it; the slack absorbs sampling noise at the finest orders.
    The margin is the least ``slack * b1 - b2`` over consecutive orders."""
    pairs = list(zip(betas, betas[1:]))
    passed = all(b2 <= slack * b1 for b1, b2 in pairs)
    margin = min((slack * b1 - b2 for b1, b2 in pairs), default=0.0)
    return check("beta-nonincreasing", passed, margin, f"betas {[f'{b:.3g}' for b in betas]}")


def tail_certificate(report, half_width: int) -> dict[str, Any]:
    """Every level of a :class:`TailCertificateReport` holds; the detail names
    the levels whose ``k`` lies beyond ``half_width``, where it is vacuous."""
    vacuous = [r.eps for r in report.rows if r.vacuous]
    return check("tail-certificate", report.ok, min(r.margin for r in report.rows),
                 f"{len(report.rows)} tolerance levels"
                 + (f"; vacuous at eps {vacuous}: k exceeds the cloud half-width {half_width}"
                    if vacuous else ""))
