"""Fiber attractor approximation by pullback integration, Hausdorff
semi-distance between point clouds, and the truncation convergence study."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    LatticeParams,
    Nonlinearity,
    auto_step,
    integrate_final,
    make_finite_rhs,
    make_reference_rhs,
    run_bytes,
)
from .errors import (
    EmptyCloudError,
    ParameterError,
    StrictModeRequiredError,
    UnsettledCloudError,
)
from .estimates import (
    asymptotic_radius_sq,
    burn_in_time,
    calibrate_tail_index,
    gronwall_bound,
    tail_mass,
)
from .forcing import QuasiPeriodicForcing
from .operators import boundary_forcing

POINT_CAP = 512  # keeps the brute-force cloud comparisons trivially cheap
RADIUS_SLACK = 1.05


@dataclass(frozen=True)
class AttractorCloud:
    """Finite point-cloud sample of one fiber attractor.

    ``states`` rows live over logical sites ``-half_width .. half_width``;
    all rows were produced by pullback integrations ending on one fiber.
    """

    label: str
    half_width: int
    states: np.ndarray
    burn_in: float

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] == 0:
            raise EmptyCloudError("attractor cloud must hold at least one state row")
        if states.shape[1] != 2 * self.half_width + 1:
            raise ParameterError("cloud width does not match its half_width")
        if not np.all(np.isfinite(states)):
            raise ValueError("cloud contains non-finite states")
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.states.shape[0]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)

    def diameter(self) -> float:
        return float(_distances(self.states, self.states).max())


def _pad_to_width(values: np.ndarray, half_width: int, target: int) -> np.ndarray:
    """Zero-pad a state (or the rows of a stack) centred on site 0 from
    ``half_width`` to the wider ``target``; the padding is an isometry."""
    pad = target - half_width
    widths = [(0, 0)] * (np.ndim(values) - 1) + [(pad, pad)]
    return np.pad(np.asarray(values, dtype=float), widths)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` and ``b``.

    The squared differences are added one coordinate at a time, so every
    temporary is ``(len(a), len(b))`` (never ``(len(a), len(b), width)``)
    and each sum runs in plain coordinate order.
    """
    total = np.zeros((len(a), len(b)))
    diff = np.empty_like(total)
    for x, y in zip(a.T, b.T):
        np.subtract.outer(x, y, out=diff)
        diff *= diff
        total += diff
    return np.sqrt(total, out=total)


def _dominant_period(f: QuasiPeriodicForcing) -> float:
    w = abs(f.dominant_frequency())
    period = 2.0 * math.pi / w if w > 0.0 else 1.0
    if not math.isfinite(period):
        raise ParameterError(f"dominant frequency {w:g} is too small for a default window: "
                             f"its period 2 pi / w is not finite; set [attractor] window")
    return period


def sample_attractor(
    f: QuasiPeriodicForcing,
    params: LatticeParams,
    nonlin: Nonlinearity,
    *,
    eps: float,
    ic_count: int,
    sample_count: int,
    seed: int,
    kind: str = "finite",
    boundary: str = "wrap",
    burn_in: float | None = None,
    window: float | None = None,
    step: float | None = None,
    rho: float | None = None,
    ic_radius: float | None = None,
    boundary_floor: float = 1e-8,
) -> AttractorCloud:
    """Pullback sample of the fiber attractor at the driver ``f``.

    Each of ``sample_count`` start offsets launches the full set of
    ``ic_count`` initial conditions, drawn by ``default_rng(seed)``
    uniformly from the cube inscribed in the ball of radius ``ic_radius``
    (by default the absorbing radius), at time ``-(burn_in + offset)`` and
    integrates them to time 0, so every collected state sits on the
    requested fiber.  All ``sample_count * ic_count`` rows (offset-major) go
    to :func:`integrate_final` as one batch with per-row start times and the
    largest step ``step``; it picks the step of each row so that all land
    exactly on 0.  Without ``step``, :func:`auto_step` derives it from
    ``rho`` or the larger of ``ic_radius`` and the absorbing radius.
    ``kind`` selects the wrapped finite system of order ``params.n`` (forcing
    via ``boundary``: ``wrap`` or ``project``) or the padded ``reference``
    system of half-width ``params.n``, whose edge sites are monitored
    against ``boundary_floor``.

    Raises :class:`UnsettledCloudError` when a point ends outside the
    Gronwall bound.
    """
    if ic_count < 1 or sample_count < 1:
        raise ParameterError("ic_count and sample_count must be >= 1")
    if ic_count * sample_count > POINT_CAP:
        raise ParameterError(
            f"requested {ic_count * sample_count} points exceeds cap {POINT_CAP}"
        )
    run_bytes(ic_count * sample_count, params.dim)
    forcing_bound = f.uniform_bound()
    radius = math.sqrt(asymptotic_radius_sq(params.lam, nonlin.alpha, forcing_bound))
    if ic_radius is None:
        ic_radius = radius
    ball_sq = max(ic_radius, radius) ** 2
    if burn_in is None:
        if nonlin.alpha <= 0.0:
            raise StrictModeRequiredError(
                "default burn-in needs a strict margin; pass burn_in explicitly"
            )
        burn_in = burn_in_time(nonlin.alpha, ball_sq, eps) if ball_sq > 0.0 else 0.0
    if window is None:
        window = _dominant_period(f)

    if kind == "finite":
        rhs = make_finite_rhs(params, nonlin, boundary_forcing(f, params.n, boundary))
        ic_half = params.n
        label = f"n={params.n}"
    elif kind == "reference":
        rhs = make_reference_rhs(params, nonlin, f)
        # keep initial mass away from the monitored edges
        ic_half = max(1, params.n // 2)
        label = f"reference(n={params.n})"
    else:
        raise ParameterError(f"kind must be 'finite' or 'reference', got {kind!r}")

    if step is None:
        step = auto_step(params, nonlin, max(ic_radius, radius), rho)

    dim = 2 * ic_half + 1
    ics = (2.0 * np.random.default_rng(seed).random((ic_count, dim)) - 1.0) * (
        ic_radius / math.sqrt(dim)
    )
    ics = _pad_to_width(ics, ic_half, params.n)
    offsets = window * np.arange(sample_count) / sample_count
    states = integrate_final(
        rhs,
        np.tile(ics, (sample_count, 1)),
        np.repeat(-(burn_in + offsets), ic_count),
        0.0,
        step,
        boundary_floor if kind == "reference" else None,
    )

    bound = RADIUS_SLACK * gronwall_bound(
        params.lam, nonlin.alpha, forcing_bound, ic_radius, burn_in
    )
    worst = float(np.linalg.norm(states, axis=1).max())
    if worst > bound and worst > 1e-12:
        raise UnsettledCloudError(
            f"cloud point norm {worst:.6g} exceeds absorbing bound {bound:.6g}; "
            "the run has not settled (step too large or burn-in too short)"
        )
    return AttractorCloud(
        label=label,
        half_width=params.n,
        states=states,
        burn_in=burn_in,
    )


def hausdorff_semidistance(a: AttractorCloud, b: AttractorCloud) -> float:
    """One-sided Hausdorff distance ``max_{x in a} min_{y in b} ||x - y||``
    between two clouds, after zero-padding both to the wider half-width
    (an isometric embedding).  Brute force over all pairs.
    """
    width = max(a.half_width, b.half_width)
    pa = _pad_to_width(a.states, a.half_width, width)
    pb = _pad_to_width(b.states, b.half_width, width)
    return float(_distances(pa, pb).min(axis=1).max())


@dataclass(frozen=True)
class ConvergenceRow:
    order: int
    beta_to_ref: float
    beta_from_ref: float
    runtime_s: float
    cloud_size: int


@dataclass(frozen=True)
class ConvergenceReport:
    """Distances from finite-order attractor clouds to the reference cloud."""

    rows: tuple[ConvergenceRow, ...]

    @property
    def betas(self) -> list[float]:
        return [row.beta_to_ref for row in self.rows]

    @property
    def strictly_decreasing(self) -> bool:
        betas = self.betas
        return all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))

    @property
    def final_beta(self) -> float:
        return self.rows[-1].beta_to_ref


def convergence_study(
    f: QuasiPeriodicForcing,
    nu: float,
    lam: float,
    nonlin: Nonlinearity,
    n_list: tuple[int, ...],
    n_ref: int,
    **sampling,
) -> ConvergenceReport:
    """Sample each finite-order attractor and the padded reference proxy,
    then measure the one-sided distances between them.

    The reference width must dominate every requested order.  ``sampling``
    holds the keyword arguments of :func:`sample_attractor` (all but
    ``kind``) and goes unchanged to every cloud, so the clouds share seed,
    initial ball, burn-in, offsets and step and are directly comparable.
    """
    if not n_list:
        raise ParameterError("n_list must be nonempty")
    if n_ref < max(n_list):
        raise ParameterError(f"n_ref = {n_ref} must be >= max(n_list) = {max(n_list)}")
    ref_cloud = sample_attractor(
        f, LatticeParams(nu=nu, lam=lam, n=n_ref), nonlin, kind="reference", **sampling
    )
    rows = []
    for n in n_list:
        started = time.perf_counter()
        cloud = sample_attractor(
            f, LatticeParams(nu=nu, lam=lam, n=n), nonlin, kind="finite", **sampling
        )
        rows.append(
            ConvergenceRow(
                order=n,
                beta_to_ref=hausdorff_semidistance(cloud, ref_cloud),
                beta_from_ref=hausdorff_semidistance(ref_cloud, cloud),
                runtime_s=time.perf_counter() - started,
                cloud_size=len(cloud),
            )
        )
    return ConvergenceReport(rows=tuple(rows))


@dataclass(frozen=True)
class TailCertificateRow:
    """``vacuous``: ``k`` lies beyond every cloud's half-width, so every
    tail mass is 0 and the row passes whatever the clouds hold."""

    eps: float
    k: int
    worst_tail: float
    margin: float
    vacuous: bool


@dataclass(frozen=True)
class TailCertificateReport:
    """One calibrated cutoff index per tolerance, checked against every
    point of every supplied cloud (and therefore against their union)."""

    rows: tuple[TailCertificateRow, ...]
    ball_norm_sq: float
    points_checked: int

    @property
    def ok(self) -> bool:
        return all(row.margin >= 0.0 for row in self.rows)


def tail_certificate(
    clouds,
    eps_list,
    f: QuasiPeriodicForcing,
    nu: float,
    lam: float,
    alpha: float,
) -> TailCertificateReport:
    """Calibrate ``k(eps)`` from the forcing decay certificate and verify
    ``tail_mass(w, k(eps)) <= eps`` for every sampled point.

    The same ``k(eps)`` is used for every cloud regardless of its truncation
    order; the report's margin is the worst slack observed across the union.
    """
    clouds = list(clouds)
    if not clouds:
        raise EmptyCloudError("tail certificate needs at least one cloud")
    ball_sq = asymptotic_radius_sq(lam, alpha, f.uniform_bound()) * RADIUS_SLACK ** 2
    rows = []
    total = sum(len(c) for c in clouds)
    widest = max(c.half_width for c in clouds)
    for eps in eps_list:
        k = calibrate_tail_index(nu, alpha, ball_sq, f.tail_sup_bound, eps)
        worst = 0.0
        for cloud in clouds:
            for point in cloud.states:
                worst = max(worst, tail_mass(point, k))
        rows.append(
            TailCertificateRow(eps=eps, k=k, worst_tail=worst, margin=eps - worst,
                               vacuous=k > widest)
        )
    return TailCertificateReport(
        rows=tuple(rows), ball_norm_sq=ball_sq, points_checked=total
    )
