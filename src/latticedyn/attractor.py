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
    _compile_rhs,
    auto_step,
    integrate_final,
    make_finite_rhs,
    make_reference_rhs,
    plan_run,
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
    all rows were produced by pullback integrations ending on one fiber,
    in a march of ``steps`` RK4 steps of at most ``step`` (both 0 for a
    cloud that no march produced).
    """

    label: str
    half_width: int
    states: np.ndarray
    burn_in: float
    step: float = 0.0
    steps: int = 0

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


def sample_attractor(
    f: QuasiPeriodicForcing,
    params: LatticeParams,
    nonlin: Nonlinearity,
    *,
    kind: str = "finite",
    **sampling,
) -> AttractorCloud:
    """Pullback sample of the fiber attractor at the driver ``f``.

    ``sampling`` holds the keyword arguments ``eps``, ``ic_count``,
    ``sample_count`` and ``seed``, and optionally ``boundary``, ``burn_in``,
    ``step``, ``rho``, ``ic_radius`` and ``boundary_floor`` (default 1e-8).

    ``ic_count * sample_count`` initial conditions, drawn in one call of
    ``default_rng(seed)`` uniformly from the cube inscribed in the ball of
    radius ``ic_radius`` (by default the absorbing radius), are integrated
    together by :func:`integrate_final` from time ``-burn_in`` to 0 in steps
    of at most ``step``, so every collected state sits on the requested
    fiber.  Without ``step``, :func:`auto_step` derives it from ``rho`` or
    the larger of ``ic_radius`` and the absorbing radius.  ``kind`` selects
    the wrapped finite system of order ``params.n`` (forcing via
    ``boundary``: ``wrap`` or ``project``) or the padded ``reference``
    system of half-width ``params.n``, whose edge sites are monitored
    against ``boundary_floor``.  This is the one-system case of the stacked
    sampler behind :func:`convergence_study`.

    Raises :class:`UnsettledCloudError` when a point ends outside the
    Gronwall bound.
    """
    (cloud,) = _sample_clouds(f, nonlin, ((kind, params),), **sampling)
    return cloud


def _sample_clouds(
    f: QuasiPeriodicForcing,
    nonlin: Nonlinearity,
    systems,
    *,
    eps: float,
    ic_count: int,
    sample_count: int,
    seed: int,
    boundary: str = "wrap",
    burn_in: float | None = None,
    step: float | None = None,
    rho: float | None = None,
    ic_radius: float | None = None,
    boundary_floor: float = 1e-8,
) -> list[AttractorCloud]:
    """The clouds of :func:`sample_attractor` for each ``(kind, params)`` of
    ``systems``, from one stacked march: the systems sit side by side on the
    last axis and share ``nu``, ``lam``, the pullback schedule and the step.
    The caps see the stacked width before any forcing table or draw."""
    if ic_count < 1 or sample_count < 1:
        raise ParameterError("ic_count and sample_count must be >= 1")
    points = ic_count * sample_count
    if points > POINT_CAP:
        raise ParameterError(f"requested {points} points exceeds cap {POINT_CAP}")
    for kind, _ in systems:
        if kind not in ("finite", "reference"):
            raise ParameterError(f"kind must be 'finite' or 'reference', got {kind!r}")
    params = systems[0][1]
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
    if step is None:
        step = auto_step(params, nonlin, max(ic_radius, radius), rho)
    widths = [p.dim for _, p in systems]
    steps = plan_run((points, sum(widths)), -burn_in, 0.0, step)

    blocks, ics = [], []
    for kind, p in systems:
        finite = kind == "finite"
        blocks.append((p.n, finite, boundary_forcing(f, p.n, boundary) if finite else f))
        # a reference keeps initial mass away from its monitored edges
        ic_half = p.n if finite else max(1, p.n // 2)
        dim = 2 * ic_half + 1
        draw = np.random.default_rng(seed).random((points, dim))
        draw *= 2.0
        draw -= 1.0
        draw *= ic_radius / math.sqrt(dim)
        ics.append(_pad_to_width(draw, ic_half, p.n))
    if len(blocks) == 1:
        # one system goes through the public factories (perfbench hooks them)
        make = make_finite_rhs if blocks[0][1] else make_reference_rhs
        rhs = make(params, nonlin, blocks[0][2])
    else:
        rhs = _compile_rhs(params, nonlin, blocks)
    monitored = any(not periodic for _, periodic, _ in blocks)
    states = integrate_final(rhs, np.hstack(ics), -burn_in, 0.0, step,
                             boundary_floor if monitored else None)

    bound = RADIUS_SLACK * gronwall_bound(
        params.lam, nonlin.alpha, forcing_bound, ic_radius, burn_in
    )
    clouds = []
    for (kind, p), end in zip(systems, np.cumsum(widths)):
        cloud = np.ascontiguousarray(states[:, end - p.dim:end])
        worst = float(np.linalg.norm(cloud, axis=1).max())
        if worst > bound and worst > 1e-12:
            raise UnsettledCloudError(
                f"cloud point norm {worst:.6g} exceeds absorbing bound {bound:.6g}; "
                "the run has not settled (step too large or burn-in too short)"
            )
        label = f"n={p.n}" if kind == "finite" else f"reference(n={p.n})"
        clouds.append(AttractorCloud(label=label, half_width=p.n, states=cloud,
                                     burn_in=burn_in, step=step, steps=steps))
    return clouds


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
    """Distances from finite-order attractor clouds to the reference cloud,
    sampled in one march of ``steps`` RK4 steps of at most ``step``."""

    rows: tuple[ConvergenceRow, ...]
    step: float
    steps: int

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
    initial ball, burn-in and step and are directly comparable.
    The reference and every order are sampled in one stacked march (see
    :func:`sample_attractor`); each cloud equals its own sample bit for bit.
    A row's ``runtime_s`` is the time of its two Hausdorff distances.
    """
    if not n_list:
        raise ParameterError("n_list must be nonempty")
    if n_ref < max(n_list):
        raise ParameterError(f"n_ref = {n_ref} must be >= max(n_list) = {max(n_list)}")
    systems = [("reference", LatticeParams(nu=nu, lam=lam, n=n_ref))]
    systems += [("finite", LatticeParams(nu=nu, lam=lam, n=n)) for n in n_list]
    ref_cloud, *clouds = _sample_clouds(f, nonlin, systems, **sampling)
    rows = []
    for n, cloud in zip(n_list, clouds):
        started = time.perf_counter()
        rows.append(
            ConvergenceRow(
                order=n,
                beta_to_ref=hausdorff_semidistance(cloud, ref_cloud),
                beta_from_ref=hausdorff_semidistance(ref_cloud, cloud),
                runtime_s=time.perf_counter() - started,
                cloud_size=len(cloud),
            )
        )
    return ConvergenceReport(rows=tuple(rows), step=ref_cloud.step, steps=ref_cloud.steps)


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
