"""Experiment orchestration: INI config parsing, the ``simulate`` /
``verify`` / ``attractor`` / ``converge`` subcommands, and deterministic
CSV/JSON artifacts.

Exit codes: 0 success, 1 check failure, 2 configuration or parameter error,
3 divergence or boundary contamination during integration, or an attractor
cloud that has not settled inside its absorbing bound.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__, checks
from .attractor import convergence_study, sample_attractor, tail_certificate
from .dynamics import (
    MEMORY_CAP,
    LatticeParams,
    Nonlinearity,
    auto_step,
    integrate,
    make_finite_rhs,
    make_nonlinearity,
    run_bytes,
)
from .errors import (
    BoundaryContaminationError,
    ConfigError,
    DivergenceError,
    LatticeError,
    NonlinearityConditionError,
)
from .estimates import asymptotic_radius_sq
from .forcing import QuasiPeriodicForcing
from .operators import _check_order, boundary_forcing, project_forcing, wrap_forcing

log = logging.getLogger("latticedyn")

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
#: most random (n, h, t) triples per equivariance check of ``verify``: about
#: 3 s at the 0.31 ms a triple costs on a 2-core Xeon
TRIPLE_CAP = 10_000
#: the peak of building a finite forcing table, in bytes a site: one float
#: each for the amplitudes, QuasiPeriodicForcing.finite's three copies and the
#: array it converts a per-site rule from
_TABLE_SITE_BYTES = 40
#: the peak of splitting a rule into floats, in bytes a character of its text:
#: a two-digit number and its separator hold 112 bytes once pymalloc rounds up
_RULE_CHAR_BYTES = 38


@dataclass
class ExperimentConfig:
    """Validated experiment settings plus the raw config echo."""

    nu: float
    lam: float
    n: int | None
    n_list: tuple[int, ...] | None
    n_ref: int | None
    boundary: str
    nonlinearity_name: str
    alpha: float
    coeffs: tuple[float, ...] | None
    forcing: QuasiPeriodicForcing
    h: float | None  # None means derive from the stability bound
    t0: float
    t1: float
    v0_mode: str
    v0_norm: float
    sample_stride: int
    seed: int
    tail_eps: tuple[float, ...]
    threshold: float | None
    verify_triples: int
    # the keyword arguments of sample_attractor read from [attractor], shared
    # by the attractor and converge commands
    sampling: dict[str, Any]
    echo: dict[str, dict[str, str]] = field(default_factory=dict)

    def make_nonlinearity(self) -> Nonlinearity:
        return make_nonlinearity(self.nonlinearity_name, self.alpha, self.coeffs)

    def make_params(self) -> LatticeParams:
        return LatticeParams(nu=self.nu, lam=self.lam)

    def order(self, default: int | None = None) -> int:
        n = self.n if self.n is not None else default
        if n is None:
            raise ConfigError("this command needs [params] n")
        _check_order(n)
        return n

    def step_for(self, params: LatticeParams, nonlin: Nonlinearity, radius: float) -> float:
        return self.h if self.h is not None else auto_step(params, nonlin, radius)


_REQUIRED: Any = object()  # the default of a key that must be given


class _SectionView:
    """Typed accessors over one config section with error context; ``read``
    records every key asked for, so that the rest can be rejected."""

    def __init__(self, name: str, values: dict[str, str]):
        self.name = name
        self.values = values
        self.read: set[str] = set()

    def _raw(self, key: str, default: str | None) -> str | None:
        self.read.add(key)
        raw = self.values.get(key, default)
        if raw is _REQUIRED:
            raise ConfigError(f"[{self.name}] {key} is required")
        return raw

    def _bounded(self, key: str, value: float, raw: str, gt: float | None,
                 ge: float | None) -> float:
        if gt is not None and not value > gt:
            raise ConfigError(f"[{self.name}] {key}: must be > {gt:g}, got {raw!r}")
        if ge is not None and not value >= ge:
            raise ConfigError(f"[{self.name}] {key}: must be >= {ge:g}, got {raw!r}")
        return value

    def get_float(self, key: str, default: str | None = None, *,
                  gt: float | None = None, ge: float | None = None) -> float | None:
        """A finite number above the bound ``gt`` / at least ``ge`` when
        given; ``auto`` (as ``None``) only for keys whose default is ``auto``."""
        raw = self._raw(key, default)
        if raw is None:
            return None
        if default == "auto" and raw.strip().lower() == "auto":
            return None
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key}: expected number, got {raw!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"[{self.name}] {key}: expected a finite number, got {raw!r}")
        return self._bounded(key, value, raw, gt, ge)

    def get_norm(self, key: str, default: str) -> float | None:
        """A number >= 0 whose square, an energy the estimates use, is a
        finite float."""
        value = self.get_float(key, default, ge=0.0)
        if value is not None and not math.isfinite(value * value):
            raise ConfigError(f"[{self.name}] {key}: its square overflows a float, got {value:g}")
        return value

    def get_int(self, key: str, default: str | None = None) -> int | None:
        raw = self._raw(key, default)
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key}: expected integer, got {raw!r}") from exc

    def get_str(self, key: str, default: str | None = None) -> str | None:
        raw = self._raw(key, default)
        return raw.strip() if raw is not None else None

    def get_int_list(self, key: str) -> tuple[int, ...] | None:
        raw = self._raw(key, None)
        if raw is None:
            return None
        try:
            return tuple(int(x) for x in raw.split())
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key}: expected integer list") from exc

    def get_float_list(self, key: str, default: str | None, *,
                       gt: float | None = None) -> tuple[float, ...] | None:
        raw = self._raw(key, default)
        if raw is None:
            return None
        try:
            values = tuple(float(x) for x in raw.split())
        except ValueError as exc:
            raise ConfigError(f"[{self.name}] {key}: expected number list") from exc
        if not values or not all(math.isfinite(x) for x in values):
            raise ConfigError(
                f"[{self.name}] {key}: expected a nonempty list of finite numbers, got {raw!r}"
            )
        return tuple(self._bounded(key, x, raw, gt, None) for x in values)


def _load_forcing(view: _SectionView) -> QuasiPeriodicForcing:
    """Site amplitudes ``amplitude0 * decay_rate**|i|`` on ``|i| <= support_radius``
    (finite) or on all of Z (geometric); a frequency or phase rule is one
    number, or for finite support one number per site."""
    support = view.get_str("support", _REQUIRED).lower()
    if support not in ("finite", "geometric"):
        raise ConfigError(f"[forcing] support: expected finite|geometric, got {support!r}")
    amplitude0 = view.get_float("amplitude0", _REQUIRED)
    decay = view.get_float("decay_rate", "0.5")
    radius = view.get_int("support_radius", _REQUIRED) if support == "finite" else 0
    if radius < 0:
        raise ConfigError(f"[forcing] support_radius: must be >= 0, got {radius}")
    width = 2 * radius + 1
    keys = ("frequency_rule", "phase_rule")
    table = _TABLE_SITE_BYTES * width
    if table > MEMORY_CAP:
        raise ConfigError(f"[forcing] support_radius {radius}: a table of {width} sites needs "
                          f"{table:.3g} bytes, above the cap of {MEMORY_CAP:.3g}")
    text = sum(len(view.values.get(key, "")) for key in keys)
    need = table + _RULE_CHAR_BYTES * text
    if need > MEMORY_CAP:
        raise ConfigError(f"[forcing] frequency_rule and phase_rule: {text} characters need "
                          f"{need:.3g} bytes with a table of {width} sites, above the cap of "
                          f"{MEMORY_CAP:.3g}")
    rules = []
    for key in keys:
        rule = view.get_float_list(key, "0.0")
        if len(rule) not in (1, width):
            expected = ("geometric support takes one number" if support == "geometric"
                        else f"expected 1 or {width} numbers")
            raise ConfigError(f"[forcing] {key}: {expected}, got {len(rule)}")
        rules.append(rule)
    if support == "geometric":
        return QuasiPeriodicForcing.geometric(amplitude0, decay, rules[0][0], rules[1][0])
    amplitudes = amplitude0 * decay ** np.abs(np.arange(-radius, radius + 1))
    return QuasiPeriodicForcing.finite(amplitudes, *rules)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate the INI experiment file; a section or key that
    no accessor reads is rejected."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    echo = {section: dict(parser[section]) for section in parser.sections()}
    views: dict[str, _SectionView] = {}

    def view(name: str) -> _SectionView:
        return views.setdefault(name, _SectionView(name, echo.get(name, {})))

    params = view("params")
    boundary = params.get_str("boundary", "wrap")
    if boundary not in ("wrap", "project"):
        raise ConfigError(f"[params] boundary must be wrap|project, got {boundary!r}")
    sim = view("simulate")
    v0_mode = sim.get_str("v0", "zero")
    if v0_mode not in ("zero", "ball"):
        raise ConfigError(f"[simulate] v0 must be zero|ball, got {v0_mode!r}")
    triples = view("verify").get_int("triples", "100")
    if triples < 1:
        raise ConfigError(f"[verify] triples must be >= 1, got {triples}")
    if triples > TRIPLE_CAP:
        raise ConfigError(f"[verify] triples {triples} exceeds cap {TRIPLE_CAP}")
    sample_stride = sim.get_int("sample_stride", "1")
    if sample_stride < 1:
        raise ConfigError(f"[simulate] sample_stride must be >= 1, got {sample_stride}")

    nl = view("nonlinearity")
    att = view("attractor")
    cfg = ExperimentConfig(
        nu=params.get_float("nu", "1.0"),
        lam=params.get_float("lambda", _REQUIRED),
        n=params.get_int("n", None),
        n_list=params.get_int_list("n_list"),
        n_ref=params.get_int("n_ref", None),
        boundary=boundary,
        nonlinearity_name=nl.get_str("name", "zero"),
        alpha=nl.get_float("alpha", "0.0"),
        coeffs=nl.get_float_list("coeffs", None),
        forcing=(_load_forcing(view("forcing")) if "forcing" in echo
                 else QuasiPeriodicForcing.zero()),
        h=view("integrator").get_float("h", "auto"),
        t0=sim.get_float("t0", "0.0"),
        t1=sim.get_float("t1", "1.0"),
        v0_mode=v0_mode,
        v0_norm=sim.get_norm("v0_norm", "1.0"),
        sample_stride=sample_stride,
        seed=att.get_int("seed", "0"),
        tail_eps=att.get_float_list("tail_eps", "1e-2 1e-3", gt=0.0),
        threshold=view("converge").get_float("threshold", "auto"),
        verify_triples=triples,
        sampling=dict(
            eps=att.get_float("eps", "1e-2", gt=0.0),
            ic_count=att.get_int("ic_count", "4"),
            sample_count=att.get_int("sample_count", "8"),
            burn_in=att.get_float("burn_in", "auto", ge=0.0),
            ic_radius=att.get_norm("ic_radius", "auto"),
            boundary_floor=att.get_float("boundary_floor", "1e-8", gt=0.0),
        ),
        echo=echo,
    )
    for section, values in echo.items():
        if section not in views:
            raise ConfigError(f"unknown config section [{section}]")
        unknown = set(values) - views[section].read
        if unknown:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    return cfg


# ----------------------------------------------------------------------
# artifact writers


def _write_table(path: Path, header: list[str], rows: np.ndarray,
                 times: np.ndarray | None = None) -> None:
    """CSV of float rows, each value as ``%.17g`` (round-trips exactly);
    ``times``, when given, is a leading column.  One row is converted and
    formatted at a time, so the table is never held as Python floats."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        if times is None:
            handle.writelines(line % tuple(row.tolist()) for row in rows)
        else:
            handle.writelines(line % (t, *row.tolist()) for t, row in zip(times.tolist(), rows))


def _site_header(half_width: int) -> list[str]:
    return [f"i={i}" for i in range(-half_width, half_width + 1)]


def _write_json(path: Path, obj: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _base_report(command: str, cfg: ExperimentConfig | None, seed: int | None) -> dict[str, Any]:
    """Report skeleton; the config echo is left out when the config did not parse."""
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "checks": [],
        "artifacts": [],
    }
    if cfg is not None:
        report["config"] = cfg.echo
    return report


# ----------------------------------------------------------------------
# subcommands


def _initial_state(cfg: ExperimentConfig, dim: int, seed: int) -> np.ndarray:
    if cfg.v0_mode == "zero":
        return np.zeros(dim)
    v = np.random.default_rng(seed).standard_normal(dim)
    scale = np.linalg.norm(v)
    return v * (cfg.v0_norm / scale) if scale > 0 else v


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, seed: int) -> dict[str, Any]:
    report = _base_report("simulate", cfg, seed)
    nonlin = cfg.make_nonlinearity()
    params, n = cfg.make_params(), cfg.order()
    dim = 2 * n + 1
    run_bytes(1, dim)
    forcing = boundary_forcing(cfg.forcing, n, cfg.boundary)
    # the norm the run starts from: v0_norm only when it draws a ball state
    radius = max(
        cfg.v0_norm if cfg.v0_mode == "ball" else 0.0,
        math.sqrt(asymptotic_radius_sq(cfg.lam, nonlin.alpha, cfg.forcing.uniform_bound())),
    )
    h = cfg.step_for(params, nonlin, radius)
    v0 = _initial_state(cfg, dim, seed)
    log.info("simulate: n=%d dim=%d h=%.6g over [%g, %g]", n, dim, h, cfg.t0, cfg.t1)

    traj = integrate(
        make_finite_rhs(params, nonlin, forcing, n), v0, cfg.t0, cfg.t1, h, cfg.sample_stride
    )

    traj_path = out_dir / "trajectory.csv"
    _write_table(traj_path, ["t"] + _site_header(n), traj.states, traj.times)
    norms_path = out_dir / "norms.csv"
    norms_sq = traj.norms_sq()
    _write_table(norms_path, ["t", "norm_sq"], norms_sq[:, None], traj.times)
    report["artifacts"] = [str(traj_path), str(norms_path)]
    report["final_norm"] = float(math.sqrt(norms_sq[-1]))
    report["step"], report["steps"] = h, traj.steps
    return report


def cmd_verify(cfg: ExperimentConfig, out_dir: Path, seed: int) -> dict[str, Any]:
    report = _base_report("verify", cfg, seed)
    rows = report["checks"]
    rng = np.random.default_rng(seed)
    params, order = cfg.make_params(), cfg.order(8)
    dim = 2 * order + 1
    run_bytes(1, dim)
    rows.append(checks.matrix_identity(min(max(order, 8), 32)))

    states = []
    for _ in range(50):
        n = int(rng.integers(1, 25))
        states.append((n, rng.standard_normal(2 * n + 1)))
    rows += checks.stencil_identities(states, tol=1e-12)

    for name, project in (("truncation-equivariance", project_forcing),
                          ("wrap-equivariance", wrap_forcing)):
        cases = []
        for _ in range(cfg.verify_triples):
            n = int(rng.integers(1, 9))
            h_shift, t = rng.uniform(-20.0, 20.0, 2)
            cases.append((cfg.forcing, n, h_shift, t))
        rows.append(checks.shift_equivariance(name, project, cases, tol=1e-12))

    try:
        nonlin = cfg.make_nonlinearity()
    except NonlinearityConditionError as exc:
        rows.append(checks.check("nonlinearity-registration", False, -1.0, str(exc)))
        return report
    rows.append(checks.check("nonlinearity-registration", True, 0.0,
                             f"{cfg.nonlinearity_name}: contract holds on the sample grid"))

    forcing_n = boundary_forcing(cfg.forcing, order, cfg.boundary)
    c_bound = cfg.forcing.uniform_bound()
    radius = math.sqrt(asymptotic_radius_sq(cfg.lam, nonlin.alpha, c_bound))
    h = min(cfg.step_for(params, nonlin, max(radius, 1.0)), 1e-2)
    v0 = (_initial_state(cfg, dim, seed) if cfg.v0_mode == "ball"
          else np.random.default_rng(seed).standard_normal(dim) * 0.3)
    rows.append(checks.cocycle_defect(v0, forcing_n, params, nonlin, h, tol=1e-8))

    # energy and absorbing envelopes along one forced trajectory
    v0_norm = max(cfg.v0_norm, 1.0)
    v0 = np.random.default_rng(seed + 1).standard_normal(dim)
    v0 *= v0_norm / np.linalg.norm(v0)
    traj = integrate(make_finite_rhs(params, nonlin, forcing_n, order), v0, 0.0, 6.0,
                     cfg.step_for(params, nonlin, max(radius, v0_norm)))
    rows.append(checks.energy_envelope(traj, cfg.lam, nonlin.alpha, c_bound, margin=0.05))
    rows.append(checks.absorbing_envelope(traj, v0_norm, cfg.lam, nonlin.alpha, c_bound,
                                         slack=1.05))
    return report


def cmd_attractor(cfg: ExperimentConfig, out_dir: Path, seed: int) -> dict[str, Any]:
    report = _base_report("attractor", cfg, seed)
    nonlin = cfg.make_nonlinearity()
    params, n = cfg.make_params(), cfg.order()
    # the tail calibration divides by the sign margin, so a weak-mode run
    # (alpha = 0) samples its cloud and records the certificate as skipped
    certify = nonlin.alpha > 0.0
    log.info("attractor: n=%d eps=%g points=%d", n, cfg.sampling["eps"],
             cfg.sampling["ic_count"] * cfg.sampling["sample_count"])
    cloud = sample_attractor(cfg.forcing, params, nonlin, n, seed=seed, boundary=cfg.boundary,
                             step=cfg.h, **cfg.sampling)
    cloud_path = out_dir / "cloud.csv"
    _write_table(cloud_path, _site_header(cloud.half_width), cloud.states)
    report["artifacts"] = [str(cloud_path)]
    report["cloud"] = {
        "label": cloud.label,
        "points": len(cloud),
        "diameter": cloud.diameter(),
        "max_norm": float(cloud.norms().max()),
        "burn_in": cloud.burn_in,
        "step": cloud.step,
        "steps": cloud.steps,
    }
    if certify:
        tail = tail_certificate([cloud], cfg.tail_eps, cfg.forcing, cfg.nu, cfg.lam, nonlin.alpha)
        tail_path = out_dir / "tail_report.json"
        _write_json(tail_path, {"ball_norm_sq": tail.ball_norm_sq,
                                "points_checked": tail.points_checked,
                                "rows": [asdict(r) for r in tail.rows]})
        report["artifacts"].append(str(tail_path))
        report["checks"].append(checks.tail_certificate(tail, cloud.half_width))
    else:
        log.info("check %-28s skipped: needs alpha > 0", "tail-certificate")
        report["skipped"] = [{"name": "tail-certificate", "reason": "needs alpha > 0"}]
    return report


def cmd_converge(cfg: ExperimentConfig, out_dir: Path, seed: int) -> dict[str, Any]:
    report = _base_report("converge", cfg, seed)
    if not cfg.n_list:
        raise ConfigError("[params] n_list is required for converge")
    if cfg.n_ref is None:
        raise ConfigError("[params] n_ref is required for converge")
    nonlin = cfg.make_nonlinearity()
    log.info("converge: n_list=%s n_ref=%d", list(cfg.n_list), cfg.n_ref)
    study = convergence_study(
        cfg.forcing, cfg.make_params(), nonlin, n_list=cfg.n_list, n_ref=cfg.n_ref,
        seed=seed, boundary=cfg.boundary, step=cfg.h, **cfg.sampling,
    )
    csv_path = out_dir / "convergence.csv"
    _write_table(
        csv_path,
        ["n", "beta_n_to_ref", "beta_ref_to_n", "runtime_s"],
        np.array([[r.order, r.beta_to_ref, r.beta_from_ref, r.runtime_s] for r in study.rows]),
    )
    report["artifacts"] = [str(csv_path)]
    report["step"], report["steps"] = study.step, study.steps
    report["rows"] = [
        {
            "n": r.order,
            "beta_n_to_ref": r.beta_to_ref,
            "beta_ref_to_n": r.beta_from_ref,
            "points": r.cloud_size,
        }
        for r in study.rows
    ]
    report["checks"] += [checks.beta_threshold(study.final_beta, cfg.threshold),
                         checks.beta_nonincreasing(study.betas, slack=1.1)]
    return report


_COMMANDS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "attractor": cmd_attractor,
    "converge": cmd_converge,
}


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticedyn",
        description="Simulate and verify dissipative lattice dynamics experiments.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="experiment INI file")
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, default=None, help="overrides [attractor] seed")
    return parser


def _configure_logging() -> None:
    level = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("LATTICE_LOG", "info").strip().lower(), logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(level)


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0

    started = time.perf_counter()
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # nowhere to write even a failure report
        log.error("configuration error: cannot create output directory %s: %s", out_dir, exc)
        return EXIT_CONFIG
    cfg = seed = error = None
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.seed
        if seed < 0:
            source = "--seed" if args.seed is not None else "[attractor] seed"
            raise ConfigError(f"{source} must be >= 0, got {seed}")
        report = _COMMANDS[args.command](cfg, out_dir, seed)
        report["passed"] = all(c["passed"] for c in report["checks"])
        code = EXIT_OK if report["passed"] else EXIT_CHECK_FAILED
    except (DivergenceError, BoundaryContaminationError) as exc:
        log.error("integration failed: %s", exc)
        code, error = EXIT_DIVERGED, exc
    except LatticeError as exc:  # every other package error is a bad config or parameter
        log.error("configuration error: %s", exc)
        code, error = EXIT_CONFIG, exc
    if error is not None:
        report = _base_report(args.command, cfg, seed)
        report.update(error={"type": type(error).__name__, "message": str(error)},
                      exit_code=code, passed=False)
    report["timing_s"] = time.perf_counter() - started
    path = out_dir / "report.json"
    _write_json(path, report)
    log.info("%s finished in %.2fs, report at %s", args.command, report["timing_s"], path)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
