"""Right-hand sides for the wrapped finite system and the padded reference
system, the nonlinearity contract, and a fixed-step RK4 integrator."""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BoundaryContaminationError,
    DimensionError,
    DivergenceError,
    NonlinearityConditionError,
    ParameterError,
)
from .forcing import QuasiPeriodicForcing
from .operators import _TWO, _const, apply_laplacian

STABILITY_SAFETY = 0.5
#: Largest integration a run may ask for, in site-steps (rows x sites x RK4
#: steps): over 700x the widest run in the tests and the benchmark (192 rows
#: x 257 sites x 271 steps).  At the 24 ns per site-step of that batch on a
#: 2-core Xeon this is about 4 minutes; one narrow row costs ~1 us per site-step.
WORK_CAP = 10 ** 10
#: Largest memory a run may hold, in bytes: the state-sized float64 arrays of
#: :func:`run_bytes`.  A run of a few steps on a very wide state passes
#: :data:`WORK_CAP`; this refuses it before the first state-sized allocation.
#: The widest run the point cap allows at n = 300 (512 rows x 601 sites) needs
#: about 22 MB.
MEMORY_CAP = 2 ** 30
#: state-sized arrays a run holds: the input, two RK4 scratch arrays, two
#: states written in turn, and the RHS's F(u) with its three scratch arrays
_RUN_ARRAYS = 9
_SIGN_SLACK = 1e-12  # absorbs 1-ulp rounding in the sampled sign checks
_REGISTRATION_SAMPLES = 10_000


def run_bytes(rows: int, sites: int) -> int:
    """Bytes of the state-sized arrays a run of ``rows`` x ``sites`` holds;
    refuses with :class:`ParameterError` above :data:`MEMORY_CAP`."""
    need = _RUN_ARRAYS * 8 * rows * sites
    if need > MEMORY_CAP:
        raise ParameterError(f"a run of {rows} rows x {sites} sites needs {need:.3g} bytes, "
                             f"above the cap of {MEMORY_CAP:.3g}")
    return need


@dataclass(frozen=True)
class LatticeParams:
    """Coupling strength, linear decay rate, and truncation order."""

    nu: float
    lam: float
    n: int

    def __post_init__(self) -> None:
        if not self.lam > 0.0:
            raise ParameterError(f"decay rate must be > 0, got {self.lam}")
        if self.nu < 0.0:
            raise ParameterError(f"coupling must be >= 0, got {self.nu}")
        if self.n < 1:
            raise ParameterError(f"truncation order must be >= 1, got {self.n}")

    @property
    def dim(self) -> int:
        return 2 * self.n + 1


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise feedback term with a declared sign margin and a
    Lipschitz-on-ball witness.

    A margin ``alpha > 0`` declares the strict condition
    ``s*F(s) <= -alpha*s**2``, ``alpha == 0`` the weak one ``s*F(s) <= 0``.
    The declared condition is checked by dense sampling at registration
    time; see :meth:`verify`.

    ``func(s)`` returns a fresh array.  The right-hand sides call the catalog
    form ``func(s, out, work)``: the same values written into ``out``, with
    three arrays shaped like ``s`` in ``work`` as scratch.
    """

    name: str
    func: Callable[..., np.ndarray]
    alpha: float
    lipschitz: Callable[[float], float]

    def __post_init__(self) -> None:
        if self.alpha < 0.0:
            raise ParameterError(f"margin alpha must be >= 0, got {self.alpha}")

    def verify(self, rho_max: float = 4.0) -> None:
        """Check the declared contract on a dense grid of ``[-rho_max, rho_max]``.

        Raises :class:`NonlinearityConditionError` naming the violated
        condition: zero fixed point, sign margin, or Lipschitz witness.
        """
        s = np.linspace(-rho_max, rho_max, _REGISTRATION_SAMPLES)
        fs = np.asarray(self.func(s), dtype=float)
        f0 = float(self.func(np.array([0.0]))[0])
        if f0 != 0.0:
            raise NonlinearityConditionError(
                f"{self.name}: zero fixed point violated, F(0) = {f0}"
            )
        # at alpha = 0 the bound -alpha*s^2 + slack is exactly slack: the weak rule
        bad = s * fs > -self.alpha * s * s + _SIGN_SLACK * (1.0 + s * s)
        if np.any(bad):
            worst = s[np.argmax(s * fs + self.alpha * s * s)]
            condition = ("strict sign margin s*F(s) <= -alpha*s^2" if self.alpha > 0.0
                         else "weak sign condition s*F(s) <= 0")
            raise NonlinearityConditionError(
                f"{self.name}: {condition} violated near s = {worst:.6g}"
            )
        bound = self.lipschitz(rho_max)
        slopes = np.abs(np.diff(fs) / np.diff(s))
        if np.any(slopes > bound * (1.0 + 1e-9) + _SIGN_SLACK):
            raise NonlinearityConditionError(
                f"{self.name}: Lipschitz witness L({rho_max}) = {bound} exceeded "
                f"(sampled slope {slopes.max():.6g})"
            )


def make_nonlinearity(
    name: str,
    alpha: float = 0.0,
    coeffs: tuple[float, ...] | None = None,
) -> Nonlinearity:
    """Build and register a catalog nonlinearity.

    * ``linear``: ``F(s) = -alpha * s``
    * ``cubic``:  ``F(s) = -alpha * s - s**3``
    * ``zero``:   ``F = 0`` (requires ``alpha == 0``)
    * ``poly``:   odd polynomial ``F(s) = c0*s + c1*s**3 + ...`` from
      ``coeffs`` (any other name rejects ``coeffs``)

    Registration fails with the violated condition named if the sign
    condition declared by ``alpha`` does not hold on the sampling grid.
    """
    if coeffs is not None and name != "poly":
        raise ParameterError(f"coeffs apply to the poly nonlinearity only, not '{name}'")
    if name == "linear":
        nl = Nonlinearity(
            name="linear",
            func=lambda s, out=None, work=None, na=_const(-alpha): np.multiply(na, s, out),
            alpha=alpha,
            lipschitz=lambda rho, a=alpha: a,
        )
    elif name == "cubic":
        def _cubic(s, out=None, work=None, na=_const(-alpha)):
            # -a * s - s * s * s
            cube = np.multiply(s, s, None if work is None else work[0])
            cube *= s
            out = np.multiply(na, s, out)
            out -= cube
            return out

        nl = Nonlinearity(
            name="cubic",
            func=_cubic,
            alpha=alpha,
            lipschitz=lambda rho, a=alpha: a + 3.0 * rho * rho,
        )
    elif name == "zero":
        if alpha != 0.0:
            raise ParameterError("zero nonlinearity carries no margin; alpha must be 0")

        def _zero(s, out=None, work=None):
            if out is None:
                return np.zeros_like(s)
            out.fill(0.0)
            return out

        nl = Nonlinearity(
            name="zero",
            func=_zero,
            alpha=0.0,
            lipschitz=lambda rho: 0.0,
        )
    elif name == "poly":
        if not coeffs:
            raise ParameterError("poly nonlinearity needs odd-power coefficients")
        cs = tuple(float(c) for c in coeffs)

        def _poly(s, out=None, work=None, cs=tuple(_const(c) for c in cs)):
            # odd powers as repeated products: numpy's power is ~50x slower
            s2, power, term = (None, None, None) if work is None else work[:3]
            s2 = np.multiply(s, s, s2)
            out = np.multiply(cs[0], s, out)
            for k, c in enumerate(cs[1:]):
                power = np.multiply(power if k else s, s2, power)
                out += np.multiply(c, power, term)
            return out

        nl = Nonlinearity(
            name="poly",
            func=_poly,
            alpha=alpha,
            lipschitz=lambda rho, cs=cs: sum(
                (2 * k + 1) * abs(c) * rho ** (2 * k) for k, c in enumerate(cs)
            ),
        )
    else:
        raise ParameterError(f"unknown nonlinearity '{name}'")
    nl.verify()
    return nl


# ----------------------------------------------------------------------
# right-hand sides


def _compile_rhs(
    params: LatticeParams,
    nonlin: Nonlinearity,
    forcing: QuasiPeriodicForcing,
    half_width: int,
    periodic: bool,
) -> Callable:
    """``-nu*A u - lam*u + F(u) + f(t)`` on sites ``-half_width .. half_width``,
    with ``A`` the periodic or the zero-ghost second difference.

    The forcing table is read once and kept to the columns between the first
    and the last nonzero amplitude.  The closure ``rhs(t, u, out=None)`` acts
    on the last axis of a state or a stack of rows; ``t`` is a scalar or a
    column with one time per row.  It writes into ``out`` (shaped like ``u``,
    not ``u``) or a fresh array, with scratch arrays it keeps per shape in the
    memory layout of the first ``out`` of that shape.  With them it keeps the
    last float time it evaluated the forcing at, and reuses those drive
    columns for an equal nonzero float (RK4's two midpoint stages; often the
    next step's start); a time column is always evaluated afresh.
    """
    neg_nu, lam, func = _const(-params.nu), _const(params.lam), nonlin.func
    amps, freqs, phases = forcing.mode_table(half_width)
    live = np.flatnonzero(amps)
    cols = slice(live[0], live[-1] + 1) if live.size else None
    if cols is not None:
        amps, freqs, phases = amps[cols], freqs[cols], phases[cols]
    offset = forcing.time_offset
    # per state shape: F(u), F's scratch (lam * u goes first), forcing columns
    # and the float time they hold.  ufuncs here and in the loop take ``out``
    # as the third positional argument: the keyword costs ~20 ns a call
    held: dict[tuple, list] = {}

    def rhs(t, u, out=None):
        out = apply_laplacian(u, half_width, periodic, out)
        bufs = held.get(out.shape)
        if bufs is None:
            fu, *work = (np.empty_like(out) for _ in range(4))
            drive = np.empty_like(out, shape=(*out.shape[:-1], len(freqs)))
            bufs = held[out.shape] = [fu, tuple(work), drive, None]
        fu, work, drive, drive_t = bufs
        out *= neg_nu
        out -= np.multiply(lam, u, work[0])
        out += func(u, fu, work)
        if cols is not None:
            # equal nonzero floats are one double; 0.0 and -0.0 are equal
            # but may give drives that differ in the sign of a zero
            if not (isinstance(t, float) and t == drive_t and t != 0.0):
                np.multiply(freqs, t + offset, drive)
                drive += phases
                np.sin(drive, drive)
                drive *= amps
                bufs[3] = t if isinstance(t, float) else None
            out[..., cols] += drive
        return out

    return rhs


def make_finite_rhs(
    params: LatticeParams,
    nonlin: Nonlinearity,
    forcing: QuasiPeriodicForcing,
) -> Callable:
    """Wrapped finite system of order ``params.n``: periodic stencil, forcing
    already truncated or wrapped to width ``2n + 1`` (modes beyond the window
    are ignored)."""
    return _compile_rhs(params, nonlin, forcing, params.n, periodic=True)


def make_reference_rhs(
    params: LatticeParams,
    nonlin: Nonlinearity,
    forcing: QuasiPeriodicForcing,
) -> Callable:
    """Padded stand-in for the full two-sided system on half-width
    ``params.n`` with zero ghost cells.  Pair it with ``boundary_floor`` in
    :func:`integrate_final` to detect mass reaching the edges."""
    return _compile_rhs(params, nonlin, forcing, params.n, periodic=False)


# ----------------------------------------------------------------------
# integrator


def max_stable_step(params: LatticeParams, nonlin: Nonlinearity, rho: float) -> float:
    """Step bound ``safety / (4 nu + lam + L_F(rho))`` for the explicit
    scheme, using the operator-norm bound ``||A|| <= 4`` on a ball of
    radius ``rho``."""
    if rho <= 0.0:
        raise ParameterError(f"ball radius must be > 0, got {rho}")
    return STABILITY_SAFETY / (4.0 * params.nu + params.lam + nonlin.lipschitz(rho))


def auto_step(
    params: LatticeParams, nonlin: Nonlinearity, radius: float, rho: float | None = None
) -> float:
    """The step every command takes when none is given: :func:`max_stable_step`
    on the ball of radius ``rho``, by default ``1.5 * radius + 0.5`` with
    ``radius`` the largest norm the run starts from or settles at."""
    return max_stable_step(params, nonlin, 1.5 * radius + 0.5 if rho is None else rho)


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped state samples from a single integration run of
    ``steps`` RK4 steps."""

    times: np.ndarray
    states: np.ndarray
    steps: int

    def __post_init__(self) -> None:
        if len(self.times) != len(self.states):
            raise DimensionError("times and states disagree in length")
        if np.any(np.diff(self.times) <= 0.0):
            resolution = np.spacing(np.abs(self.times).max())
            raise ParameterError("sample times must be strictly increasing; a step below the "
                                 f"time resolution {resolution:.3g} repeats a sample time")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite states")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def norms_sq(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.states, self.states)


def rk4_step(rhs, t, y: np.ndarray, h, out: np.ndarray, work) -> np.ndarray:
    """One classical RK4 step of ``rhs(t, u, out)`` from ``y`` at ``t``, written
    into ``out``, which holds k1 and then the running sum; ``work`` holds the
    current k and the stage state.  These three are arrays shaped like ``y``,
    and no two of the four share memory."""
    k, stage = work
    half = 0.5 * h
    mid = t + half
    rhs(t, y, out)
    # each stage is y + 0.5 * h * k: the product first, then y added
    np.multiply(half, out, stage)
    stage += y
    rhs(mid, stage, k)
    np.multiply(half, k, stage)
    stage += y
    # y + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed in place in that order
    k *= _TWO
    out += k
    rhs(mid, stage, k)
    np.multiply(h, k, stage)
    stage += y
    k *= _TWO
    out += k
    rhs(t + h, stage, k)
    out += k
    out *= h / 6.0
    out += y
    return out


def _with_out(rhs):
    """``rhs`` in the ``rhs(t, u, out)`` form the loop calls.  A plain
    ``rhs(t, u)`` has its result copied into ``out``, so one that returns its
    own input cannot alias the state."""
    if "out" in inspect.signature(rhs).parameters:
        return rhs

    def buffered(t, u, out):
        np.copyto(out, rhs(t, u))
        return out

    return buffered


def _step_count(span: float, h: float) -> int:
    count = span / h
    if not math.isfinite(count):
        raise ParameterError(f"step {h:g} is too small for the span {span:g}")
    # the relative slack absorbs the rounding of span / (span / N)
    return max(1, math.ceil(count * (1.0 - 1e-12))) if span > 0.0 else 0


def _row_schedule(y: np.ndarray, t0, t1: float, h: float):
    """Per-row start times and steps as ``(rows, 1)`` columns, and the step
    count ``N`` the longest span takes at step ``h``.  Row ``j`` steps
    ``min(span_j / N, h)``, so a row with ``t0 == t1`` gets step 0."""
    if y.ndim != 2:
        raise DimensionError("per-row start times need a stack of state rows")
    try:
        t0 = np.broadcast_to(np.reshape(np.asarray(t0, dtype=float), (-1, 1)), (len(y), 1))
    except ValueError as exc:
        raise DimensionError(f"need one start time per row: {exc}") from exc
    span = t1 - t0
    if np.any(span < 0.0):
        raise ParameterError(f"t1 = {t1} precedes t0 = {t0.min()}")
    n_steps = _step_count(float(span.max()), h)
    # minimum() only trims the rounding of span / N past h
    return t0, np.minimum(span / max(n_steps, 1), h), n_steps


def _check_edges(y: np.ndarray, t, floor: float) -> None:
    edges = np.maximum(np.abs(y[..., 0]), np.abs(y[..., -1]))
    worst = int(np.argmax(edges))
    if edges.flat[worst] > floor:
        at = float(np.ravel(t)[worst if np.ndim(t) else 0])
        raise BoundaryContaminationError(
            f"edge amplitude {edges.flat[worst]:.3e} exceeds floor {floor:.3e} "
            f"at t = {at:.6g}; increase the working half-width"
        )


def _march(rhs, y: np.ndarray, t0, t1: float, h, boundary_floor: float | None):
    """The one RK4 loop: yields ``(t, y)`` after each accepted step, with
    ``y`` one of two arrays the loop writes in turn (copy it to keep it),
    laid out in memory like the ``y`` passed in.

    ``t0`` is a scalar or holds one start time per row of a stacked ``y``;
    ``h`` is the largest step.  With a scalar ``t0`` the steps before the
    last are ``h``; with per-row ``t0`` row ``j`` steps ``span_j / N`` (see
    :func:`_row_schedule`).  The last step is ``t1 - t``, so every row ends
    on ``t1`` (exactly so for ``t1 = 0``).  With ``boundary_floor`` set, the
    edge sites are checked at the start and after every step.  A run of more
    than :data:`WORK_CAP` site-steps or :data:`MEMORY_CAP` bytes is refused
    before the first step.
    """
    if not h > 0.0:
        raise ParameterError(f"step must be > 0, got {h}")
    times = np.append(t0, t1)
    if not np.isfinite(times).all():
        bad = times[~np.isfinite(times)][0]
        raise ParameterError(f"start and end times must be finite, got {bad}")
    if np.ndim(t0):
        t0, h, n_steps = _row_schedule(y, t0, t1, h)
    else:
        if t1 < t0:
            raise ParameterError(f"t1 = {t1} precedes t0 = {t0}")
        n_steps = _step_count(t1 - t0, h)
    site_steps = float(y.size) * n_steps
    if site_steps > WORK_CAP:
        raise ParameterError(f"integration needs {site_steps:.3g} site-steps (rows x sites x "
                             f"steps), above the cap of {WORK_CAP:.0e}")
    run_bytes(*(y.shape if y.ndim == 2 else (1, y.size)))
    if boundary_floor is not None:
        _check_edges(y, t0, boundary_floor)
    rhs = _with_out(rhs)
    # the loop's own arrays: RK4 scratch, and two states written in turn
    work = (np.empty_like(y), np.empty_like(y))
    states = (np.empty_like(y), np.empty_like(y))
    for k in range(n_steps):
        t = t0 + k * h
        step = h if k < n_steps - 1 else t1 - t
        y = rk4_step(rhs, t, y, step, states[k % 2], work)
        if not np.isfinite(y).all():
            bad = "state"
            row = 0
            if y.ndim == 2:
                row = int(np.nonzero(~np.all(np.isfinite(y), axis=-1))[0][0])
                bad = f"row {row}"
            at = float(np.ravel(t + step)[row if np.ndim(t) else 0])
            raise DivergenceError(f"non-finite {bad} after step {k} (t = {at:.6g})")
        if boundary_floor is not None:
            _check_edges(y, t + step, boundary_floor)
        yield (t1 if k == n_steps - 1 else t + h), y


def integrate(
    rhs,
    v0,
    t0: float,
    t1: float,
    h: float,
    sample_stride: int = 1,
) -> Trajectory:
    """Classical fixed-step RK4 from ``t0`` to ``t1``.

    The final step is shortened to land exactly on ``t1``.  States are
    recorded at ``t0``, every ``sample_stride``-th accepted step, and ``t1``.
    Raises :class:`DivergenceError` naming the step index on a non-finite
    state.
    """
    if sample_stride < 1:
        raise ParameterError("sample_stride must be >= 1")
    y = np.array(v0, dtype=float)
    if y.ndim != 1:
        raise DimensionError("integrate expects a single state vector")
    times = [t0]
    states = [y]
    k = 0
    for k, (t, y) in enumerate(_march(rhs, y, t0, t1, h, None), 1):
        if k % sample_stride == 0:
            times.append(t)
            states.append(y.copy())
    if times[-1] != t1:
        times.append(t1)
        states.append(y)
    return Trajectory(times=np.asarray(times), states=np.asarray(states), steps=k)


def integrate_final(
    rhs, v0, t0, t1: float, h: float, boundary_floor: float | None = None
) -> np.ndarray:
    """Endpoint-only RK4 for one state or a stack of rows stepped together.

    ``t0`` is a scalar or holds one start time per row; ``h`` is the largest
    step any row takes.  With per-row start times the integrator derives the
    schedule: ``N`` steps from the longest span at step ``h``, and row ``j``
    stepping ``min((t1 - t0_j) / N, h)``, so every row lands on ``t1`` after
    the same ``N`` steps.  ``boundary_floor`` turns on the edge monitor of
    the padded reference system: :class:`BoundaryContaminationError` once an
    edge site exceeds it.  A batch steps site-major (Fortran order); the
    rows come back C-ordered.
    """
    # site-major: each stencil slice of a row batch is one contiguous block
    y = np.array(v0, dtype=float, order="F")
    for _, y in _march(rhs, y, t0, t1, h, boundary_floor):
        pass
    return np.ascontiguousarray(y)


def cocycle_property_check(
    v0,
    forcing: QuasiPeriodicForcing,
    t: float,
    tau: float,
    params: LatticeParams,
    nonlin: Nonlinearity,
    h: float,
    direct_step: float | None = None,
) -> float:
    """Two-path composition defect of the numerical solution operator:

        || phi(t, phi(tau, v0, f), shift(tau, f)) - phi(t + tau, v0, f) ||

    Both legs of the composed path use step ``h``; the direct path uses
    ``direct_step`` (defaults to ``h``).  Passing a refined ``direct_step``
    turns the direct path into a reference solution, exposing the composed
    path's full fourth-order discretization error instead of the near
    cancellation between two equally resolved paths.
    """
    if t < 0.0 or tau < 0.0:
        raise ParameterError("t and tau must be >= 0")
    rhs = make_finite_rhs(params, nonlin, forcing)
    mid = integrate_final(rhs, v0, 0.0, tau, h)
    rhs_shifted = make_finite_rhs(params, nonlin, forcing.shift(tau))
    composed = integrate_final(rhs_shifted, mid, 0.0, t, h)
    direct = integrate_final(rhs, v0, 0.0, t + tau, direct_step or h)
    return float(np.linalg.norm(composed - direct))
