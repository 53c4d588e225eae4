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
# apply_laplacian is not called here; it stays bound as dynamics.apply_laplacian,
# the name the benchmark's tracer hooks
from .operators import _TWO, _const, apply_laplacian, boundary_forcing

STABILITY_SAFETY = 0.5
#: Largest integration a run may ask for, in site-steps (rows x sites x RK4
#: steps): over 1,800x the widest run in the tests and the benchmark (192
#: rows x 257 sites x 112 steps).  At the 24 ns per site-step of that batch on a
#: 2-core Xeon this is about 4 minutes; one narrow row costs ~1 us per site-step.
WORK_CAP = 10 ** 10
#: Largest memory a run may hold, in bytes: the state-sized float64 arrays of
#: :func:`run_bytes`, and the states :func:`integrate` keeps.  A run of a few
#: steps on a very wide state passes :data:`WORK_CAP`; this refuses it before
#: the first state-sized allocation.
#: The widest run the point cap allows at n = 300 (512 rows x 601 sites) needs
#: about 22 MB.
MEMORY_CAP = 2 ** 30
#: state-sized arrays a run holds at most: the input, two RK4 scratch arrays,
#: two states written in turn, and the RHS's polynomial scratch arrays (one
#: for a linear or cubic nonlinearity, up to three above)
_RUN_ARRAYS = 8
_SIGN_SLACK = 1e-12  # absorbs 1-ulp rounding in the sampled sign checks
_REGISTRATION_SAMPLES = 10_001  # odd, so that s = 0 is a sample
_REGISTRATION_RADIUS = 4.0  # registration samples F on [-4, 4]


def run_bytes(rows: int, sites: int, samples: int = 0) -> int:
    """Bytes of the state-sized arrays a run of ``rows`` x ``sites`` holds,
    with ``samples`` kept rows of ``sites``; refuses with
    :class:`ParameterError` above :data:`MEMORY_CAP`."""
    need = 8 * sites * (_RUN_ARRAYS * rows + samples)
    if need > MEMORY_CAP:
        kept = f" keeping {samples} sample rows" if samples else ""
        raise ParameterError(f"a run of {rows} rows x {sites} sites{kept} needs {need:.3g} "
                             f"bytes, above the cap of {MEMORY_CAP:.3g}")
    return need


@dataclass(frozen=True)
class LatticeParams:
    """Coupling strength and linear decay rate, shared by every order."""

    nu: float
    lam: float

    def __post_init__(self) -> None:
        if not self.lam > 0.0:
            raise ParameterError(f"decay rate must be > 0, got {self.lam}")
        if self.nu < 0.0:
            raise ParameterError(f"coupling must be >= 0, got {self.nu}")


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise feedback term: the odd polynomial ``F(s) = c0*s + c1*s**3
    + ...`` of ``coeffs`` with a declared sign margin.

    A margin ``alpha > 0`` declares the strict condition
    ``s*F(s) <= -alpha*s**2``, ``alpha == 0`` the weak one ``s*F(s) <= 0``.
    The declared condition is checked by dense sampling at registration
    time; see :meth:`verify`.

    ``func(s)`` returns a fresh array; ``func(s, out, work)`` writes the same
    values into ``out``, with ``work`` the three scratch arrays of
    :func:`_odd_poly` (one used up to the cubic).  It is ``_odd_poly`` of
    ``coeffs`` unless another evaluator is given, which registration checks
    against ``coeffs``: the right-hand sides compile the coefficients (folding
    ``c0`` into the linear terms) and never call ``func``.
    """

    name: str
    coeffs: tuple[float, ...]
    alpha: float
    func: Callable[..., np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.alpha < 0.0:
            raise ParameterError(f"margin alpha must be >= 0, got {self.alpha}")
        if not self.coeffs:
            raise ParameterError(f"{self.name} nonlinearity needs odd-power coefficients")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        # registration checks a supplied evaluator against the coefficients
        object.__setattr__(self, "_derived_func", self.func is None)
        if self.func is None:
            object.__setattr__(self, "func", _odd_poly(self.coeffs))

    def lipschitz(self, rho: float) -> float:
        """Lipschitz witness on the ball of radius ``rho``: ``sum (2k+1)
        |c_k| rho**(2k)``, each term its coefficient product times ``rho``
        2k times."""
        return sum(math.prod([(2 * k + 1) * abs(c)] + [rho] * (2 * k))
                   for k, c in enumerate(self.coeffs))

    # values too large for a double fail a check below instead of warning
    @np.errstate(over="ignore", invalid="ignore")
    def verify(self) -> None:
        """Check the declared contract on a dense grid of the ball of radius
        :data:`_REGISTRATION_RADIUS`.

        Raises :class:`NonlinearityConditionError` naming the violated
        condition: finite values, values of a supplied ``func`` equal to those
        of ``coeffs`` (so ``F(0) = 0``, 0 being a sample), sign margin, or a
        finite Lipschitz witness.
        """
        s = np.linspace(-_REGISTRATION_RADIUS, _REGISTRATION_RADIUS, _REGISTRATION_SAMPLES)
        fs = np.asarray(self.func(s), dtype=float)
        if not np.isfinite(fs).all():
            first = np.argmin(np.isfinite(fs))
            raise NonlinearityConditionError(
                f"{self.name}: finite values violated, F({s[first]:.6g}) = {fs[first]}"
            )
        # the right-hand sides integrate the coefficients, not func
        if not self._derived_func and not np.array_equal(fs, _odd_poly(self.coeffs)(s)):
            raise NonlinearityConditionError(
                f"{self.name}: func disagrees with its coefficients {self.coeffs}"
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
        bound = self.lipschitz(_REGISTRATION_RADIUS)
        if not math.isfinite(bound):
            raise NonlinearityConditionError(f"{self.name}: finite Lipschitz witness violated, "
                                             f"L({_REGISTRATION_RADIUS}) = {bound}")


def _odd_poly(coeffs: tuple[float, ...], add: bool = False) -> Callable[..., np.ndarray]:
    """``c0*s + c1*s**3 + ...`` as ``poly(s, out=None, work=(None,) * 3)``:
    written into ``out`` or a fresh array, or with ``add`` added to ``out``,
    which then must be given.  ``work`` holds three scratch arrays shaped like
    ``s``, ``None`` for one to allocate; only the first ``poly.scratch`` are
    used, one up to the cubic.

    The odd powers are repeated products with ``s*s`` (numpy's power is ~50x
    slower), each term a product with its coefficient; a coefficient of -1
    subtracts its power.  ``c0*s`` (when added), ``s*s`` and the last power
    and term share the first scratch array.
    """
    # None: subtract the power, which gives the bits of adding -1 times it
    c0, higher = _const(coeffs[0]), tuple(None if c == -1.0 else _const(c) for c in coeffs[1:])

    def poly(s, out=None, work=(None, None, None)):
        s2, power, term = work
        if add:
            # s2 is free until the powers start
            out += np.multiply(c0, s, s2)
        else:
            out = np.multiply(c0, s, out)
        if higher:
            s2 = np.multiply(s, s, s2)
            for k, c in enumerate(higher, 1):
                # the last power and its term overwrite s2, which no later
                # power needs
                last = k == len(higher)
                power = np.multiply(power if k > 1 else s, s2, s2 if last else power)
                if c is None:
                    out -= power
                else:
                    out += np.multiply(c, power, s2 if last else term)
        return out

    poly.scratch = 1 if len(higher) < 2 else 2 + any(c is not None for c in higher[:-1])
    return poly


def make_nonlinearity(
    name: str,
    alpha: float = 0.0,
    coeffs: tuple[float, ...] | None = None,
) -> Nonlinearity:
    """Build and register a catalog nonlinearity: one odd polynomial
    ``F(s) = c0*s + c1*s**3 + ...``, each name a tuple of coefficients.

    * ``linear``: ``(-alpha,)``, so ``F(s) = -alpha * s``
    * ``cubic``:  ``(-alpha, -1)``, so ``F(s) = -alpha * s - s**3``
    * ``zero``:   ``(0,)``, so ``F = 0`` (requires ``alpha == 0``)
    * ``poly``:   ``coeffs`` (any other name rejects ``coeffs``)

    Registration (:meth:`Nonlinearity.verify`) fails with the violated
    condition named if the values or the witness overflow, or the sign
    condition declared by ``alpha`` does not hold on the sampling grid.
    """
    if coeffs is not None and name != "poly":
        raise ParameterError(f"coeffs apply to the poly nonlinearity only, not '{name}'")
    if name == "zero" and alpha != 0.0:
        raise ParameterError("zero nonlinearity carries no margin; alpha must be 0")
    presets = {"linear": (-alpha,), "cubic": (-alpha, -1.0), "zero": (0.0,), "poly": coeffs}
    if name not in presets:
        raise ParameterError(f"unknown nonlinearity '{name}'")
    nl = Nonlinearity(name, presets[name], alpha)
    nl.verify()
    return nl


# ----------------------------------------------------------------------
# right-hand sides


def _compile_rhs(params: LatticeParams, nonlin: Nonlinearity, forcing: QuasiPeriodicForcing,
                 systems) -> Callable:
    """``-nu*A u - lam*u + F(u) + f(t)`` on a stack of systems side by side on
    the last axis, all under ``params.nu``, ``params.lam``, ``nonlin`` and
    ``forcing``.  System ``(half_width, boundary)``
    spans sites ``-half_width .. half_width``, ``half_width >= 1``, under the
    forcing :func:`~latticedyn.operators.boundary_forcing` gives it: ``wrap`` and
    ``project`` with the periodic ``A``, ``zero`` with the zero-ghost ``A``
    and monitored edges.

    With ``A = 2 - S``, ``S`` the neighbour sum ``(Su)_i = u_{i-1} + u_{i+1}``,
    and ``F`` the odd polynomial ``nonlin.coeffs``, it evaluates the same
    equation as ``nu*S u + (c0 - lam - 2 nu)*u + c1*u**3 + ... + f(t)``: one
    neighbour sum, then ``*= nu`` and one polynomial whose linear coefficient
    holds ``-lam`` and ``-2 nu``, over the whole state.  The neighbour sum
    of one system or a stack is one slice add over the whole width and one
    gather, add and scatter of every system's edge sites (the inner
    neighbour, plus the wrapped one at a periodic edge, the left neighbour
    first), so a stacked system gives the bits of that system alone.  The
    gather reads whichever of ``u`` and ``u.T`` is C-contiguous (``u`` for a
    row or a C-ordered stack, ``u.T`` for a site-major one), so ``take``
    copies neither a C- nor an F-ordered state.

    Each system's forcing table is read once and kept to the columns between
    its first and its last nonzero amplitude; the drive is evaluated once
    over the span from the first to the last of these live columns, as one
    row added to every row of the state.  A column without forcing inside the
    span drives ``sin(0*t + pi/2) * -0.0 = -0.0`` at any finite time, and
    ``x + -0.0`` has the bits of ``x``.  The closure ``rhs(t, u, out=None)``
    acts on the last axis of a state or a stack of rows, all at the one time
    ``t``, and refuses a state of the wrong width with
    :class:`DimensionError`.  It writes into ``out`` (shaped like ``u``, not
    ``u``) or a fresh array, with the polynomial's scratch arrays (one for a
    linear or cubic ``F``, up to three above) and the gather it keeps per
    shape, the scratch arrays in the memory layout of the first ``out`` of
    that shape.  It keeps the last float time it evaluated the forcing at,
    and reuses the drive for an equal nonzero float (RK4's two midpoint
    stages; often the next step's start).  Its ``edges`` attribute lists the
    columns of the ``zero`` systems' edge sites, which the edge monitor of
    :func:`integrate` checks.
    """
    nu = _const(params.nu)
    c0, *higher = nonlin.coeffs
    poly = _odd_poly((c0 - params.lam - 2.0 * params.nu, *higher), add=True)
    width = sum(2 * half_width + 1 for half_width, _ in systems)
    # (amps, freqs, phases) per column; a column without forcing drives -0.0
    table = np.array([[-0.0], [0.0], [0.5 * math.pi]]).repeat(width, axis=1)
    # per edge site: its column, its first operand and, at a periodic edge,
    # its second; per live forcing range: its first and its end column
    terms, edges, live = [], [], []
    start = 0
    for half_width, boundary in systems:
        modes = boundary_forcing(forcing, half_width, boundary).mode_table(half_width)
        left, right = start, start + 2 * half_width
        if boundary == "zero":
            terms += [(left, left + 1, None), (right, right - 1, None)]
            edges += [left, right]
        else:
            terms += [(left, right, left + 1), (right, right - 1, left)]
        nonzero = np.flatnonzero(modes[0])
        if nonzero.size:
            lo, hi = nonzero[0], nonzero[-1] + 1
            table[:, start + lo:start + hi] = [arr[lo:hi] for arr in modes]
            live += [start + lo, start + hi]
        start = right + 1
    offset = forcing.time_offset
    span = slice(live[0], live[-1]) if live else slice(0, 0)
    amps, freqs, phases = table[:, span]
    drive = np.empty_like(amps)
    drive_t = None  # the float time the drive holds
    # the periodic edges first: the gather holds every first operand, then
    # the periodic edges' second ones
    terms.sort(key=lambda term: term[2] is None)
    cols = np.array([col for col, _, _ in terms], dtype=np.intp)
    operands = np.array([a for _, a, _ in terms] + [b for _, _, b in terms if b is not None],
                        dtype=np.intp)
    wrapped = len(operands) - len(cols)
    # per state shape: the polynomial's scratch and the edge gather, site-first
    # like u.T.  ufuncs here take ``out`` as the third positional argument:
    # the keyword costs ~20 ns a call
    held: dict[tuple, tuple] = {}

    def rhs(t, u, out=None):
        nonlocal drive_t
        if out is None:
            u = np.asarray(u, dtype=float)
            out = np.empty_like(u)
        if u.shape[-1] != width:
            raise DimensionError(f"state width {u.shape[-1]} does not match the system "
                                 f"(expected {width})")
        scratch = held.get(out.shape)
        if scratch is None:
            gathered = np.empty((len(operands), *out.shape[-2::-1]))
            work = tuple(np.empty_like(out) if k < poly.scratch else None for k in range(3))
            scratch = held[out.shape] = (work, gathered, gathered[:wrapped],
                                         gathered[len(cols):], gathered[:len(cols)])
        work, gathered, firsts, seconds, sums = scratch
        np.add(u[..., :-2], u[..., 2:], out[..., 1:-1])
        if u.flags.c_contiguous:  # a row or a C-ordered stack
            u.take(operands, -1, gathered.T, "clip")
        else:  # u.T is C-contiguous in a site-major stack
            u.T.take(operands, 0, gathered, "clip")
        np.add(firsts, seconds, firsts)
        out.T[cols] = sums
        out *= nu
        poly(u, out, work)
        if live:
            # equal nonzero floats are one double; 0.0 and -0.0 are equal
            # but may give drives that differ in the sign of a zero
            if not (isinstance(t, float) and t == drive_t and t != 0.0):
                np.multiply(freqs, t + offset, drive)
                np.add(drive, phases, drive)
                np.sin(drive, drive)
                np.multiply(drive, amps, drive)
                drive_t = t if isinstance(t, float) else None
            out[..., span] += drive
        return out

    rhs.edges = np.array(edges, dtype=np.intp)
    return rhs


def make_finite_rhs(
    params: LatticeParams,
    nonlin: Nonlinearity,
    forcing: QuasiPeriodicForcing,
    n: int,
) -> Callable:
    """Wrapped finite system of order ``n``: the ``project`` system of
    :func:`_compile_rhs`, so a forcing already truncated or wrapped to width
    ``2n + 1`` keeps its values (modes beyond the window are dropped)."""
    return _compile_rhs(params, nonlin, forcing, ((n, "project"),))


def make_reference_rhs(
    params: LatticeParams,
    nonlin: Nonlinearity,
    forcing: QuasiPeriodicForcing,
    n: int,
) -> Callable:
    """Padded stand-in for the full two-sided system on half-width ``n``
    with zero ghost cells, the ``zero`` system of :func:`_compile_rhs`.  Pair
    it with ``boundary_floor`` in :func:`integrate` to detect mass reaching
    the edges."""
    return _compile_rhs(params, nonlin, forcing, ((n, "zero"),))


# ----------------------------------------------------------------------
# integrator


def max_stable_step(params: LatticeParams, nonlin: Nonlinearity, rho: float) -> float:
    """Step bound ``safety / (4 nu + lam + L_F(rho))`` for the explicit
    scheme, using the operator-norm bound ``||A|| <= 4`` on a ball of
    radius ``rho``."""
    if rho <= 0.0:
        raise ParameterError(f"ball radius must be > 0, got {rho}")
    return STABILITY_SAFETY / (4.0 * params.nu + params.lam + nonlin.lipschitz(rho))


def auto_step(params: LatticeParams, nonlin: Nonlinearity, radius: float) -> float:
    """The step every command takes when none is given: :func:`max_stable_step`
    on the ball of radius ``1.5 * radius + 0.5``, with ``radius`` the largest
    norm the run starts from or settles at."""
    return max_stable_step(params, nonlin, 1.5 * radius + 0.5)


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped samples from one integration run of ``steps`` RK4
    steps: ``states[j]`` is the state, or the stack of rows, at ``times[j]``."""

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
        return np.einsum("...i,...i->...", self.states, self.states)


def rk4_step(rhs, t: float, y: np.ndarray, h: float, out: np.ndarray, work) -> np.ndarray:
    """One classical RK4 step of ``rhs(t, u, out)`` from ``y`` at ``t`` by ``h``
    (one time and one step for every row), written into ``out``, which holds
    k1 and then the running sum; ``work`` holds the current k and the stage
    state.  These three are arrays shaped like ``y``, and no two of the four
    share memory."""
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


def _sample_count(n_steps: int, sample_stride: int) -> int:
    """States :func:`integrate` keeps per row: ``t0``, every
    ``sample_stride``-th step and ``t1`` unless it is one of those; ``t1``
    alone at stride 0."""
    return -(-n_steps // sample_stride) + 1 if sample_stride else 1


def plan_run(shape: tuple[int, ...], t0: float, t1: float, h: float,
             sample_stride: int = 0) -> int:
    """The step count of a run of a state shaped ``shape`` (one row, or a
    stack of rows) from ``t0`` to ``t1`` at largest step ``h``: steps of
    ``h``, the last one shortened.  Every row shares the one start time
    ``t0``; an array of start times is refused with :class:`DimensionError`.

    A run of more than :data:`WORK_CAP` site-steps, or whose arrays
    (:func:`run_bytes`) exceed :data:`MEMORY_CAP`, is refused; the states
    :func:`integrate` keeps at ``sample_stride`` count too, one sample row
    per row of the state.
    """
    if np.ndim(t0):
        raise DimensionError(f"one start time is shared by every row, got shape {np.shape(t0)}")
    if not h > 0.0:
        raise ParameterError(f"step must be > 0, got {h}")
    for t in (t0, t1):
        if not math.isfinite(t):
            raise ParameterError(f"start and end times must be finite, got {t}")
    if t1 < t0:
        raise ParameterError(f"t1 = {t1} precedes t0 = {t0}")
    n_steps = _step_count(t1 - t0, h)
    rows, sites = shape if len(shape) == 2 else (1, math.prod(shape))
    site_steps = float(rows * sites) * n_steps
    if site_steps > WORK_CAP:
        raise ParameterError(f"integration needs {site_steps:.3g} site-steps (rows x sites x "
                             f"steps), above the cap of {WORK_CAP:.0e}")
    run_bytes(rows, sites, rows * _sample_count(n_steps, sample_stride))
    return n_steps


def _check_edges(y: np.ndarray, t: float, floor: float, edges) -> None:
    amplitude = float(np.abs(y[..., edges]).max(initial=0.0))
    if amplitude > floor:
        raise BoundaryContaminationError(
            f"edge amplitude {amplitude:.3e} exceeds floor {floor:.3e} "
            f"at t = {t:.6g}; increase the working half-width"
        )


def integrate(
    rhs,
    v0,
    t0: float,
    t1: float,
    h: float,
    sample_stride: int = 1,
    boundary_floor: float | None = None,
) -> Trajectory:
    """The one RK4 loop, for one state or a ``(rows, sites)`` stack of rows
    stepped together.

    Every row starts at the one time ``t0`` (see :func:`plan_run`) and steps
    ``h``, the last step shortened to land exactly on ``t1``.  States are
    recorded at ``t0``, every ``sample_stride``-th accepted step, and ``t1``,
    C-ordered into one ``(samples, *v0.shape)`` array sized from the step
    count before the first step; they count towards :data:`MEMORY_CAP`.
    ``sample_stride = 0`` keeps ``t1`` only.  A stack steps site-major
    (Fortran order, so each stencil slice is one contiguous block).

    ``boundary_floor`` turns on the edge monitor of the padded reference
    system: :class:`BoundaryContaminationError` once an edge site exceeds it,
    checked at the start and after every step, on the columns ``rhs.edges``
    of a compiled RHS (the edge sites of its ``zero`` systems) or the first
    and the last site of any other callable.  Raises :class:`DivergenceError`
    naming the step index, and the row of a stack, on a non-finite state.  A
    run :func:`plan_run` refuses stops before the first step.
    """
    if sample_stride < 0:
        raise ParameterError(f"sample_stride must be >= 0, got {sample_stride}")
    y = np.array(v0, dtype=float, order="F")
    n_steps = plan_run(y.shape, t0, t1, h, sample_stride)
    edges = getattr(rhs, "edges", np.array([0, -1]))
    if boundary_floor is not None:
        _check_edges(y, t0, boundary_floor, edges)
    rhs = _with_out(rhs)
    kept = _sample_count(n_steps, sample_stride)
    times, states = np.empty(kept), np.empty((kept, *y.shape))
    times[0], states[0] = t0, y
    # the loop's own arrays: RK4 scratch, and two states written in turn, the
    # second of them the start state's copy
    work = (np.empty_like(y), np.empty_like(y))
    buffers = (np.empty_like(y), y)
    # a diverging run overflows before the finiteness check names its step
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t = t0 + k * h
            last = k == n_steps - 1
            step = t1 - t if last else h
            y = rk4_step(rhs, t, y, step, buffers[k % 2], work)
            if not np.isfinite(y).all():
                bad = "state"
                if y.ndim == 2:
                    bad = f"row {int(np.nonzero(~np.all(np.isfinite(y), axis=-1))[0][0])}"
                raise DivergenceError(f"non-finite {bad} after step {k} (t = {t + step:.6g})")
            if boundary_floor is not None:
                _check_edges(y, t + step, boundary_floor, edges)
            if last:
                times[-1], states[-1] = t1, y
            elif sample_stride and (k + 1) % sample_stride == 0:
                row = (k + 1) // sample_stride
                times[row], states[row] = t + h, y
    return Trajectory(times=times, states=states, steps=n_steps)


def integrate_final(
    rhs, v0, t0: float, t1: float, h: float, boundary_floor: float | None = None
) -> np.ndarray:
    """The state, or the C-ordered stack of rows, :func:`integrate` ends on
    at ``t1``, keeping no other sample."""
    return integrate(rhs, v0, t0, t1, h, 0, boundary_floor).final_state


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
    cancellation between two equally resolved paths.  The order ``n`` is read
    from ``v0``'s width ``2n + 1``; an even width raises :class:`DimensionError`.
    """
    if t < 0.0 or tau < 0.0:
        raise ParameterError("t and tau must be >= 0")
    n = np.shape(v0)[-1] // 2
    rhs = make_finite_rhs(params, nonlin, forcing, n)
    mid = integrate_final(rhs, v0, 0.0, tau, h)
    rhs_shifted = make_finite_rhs(params, nonlin, forcing.shift(tau), n)
    composed = integrate_final(rhs_shifted, mid, 0.0, t, h)
    direct = integrate_final(rhs, v0, 0.0, t + tau, direct_step or h)
    return float(np.linalg.norm(composed - direct))
