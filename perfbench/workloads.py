"""The three workloads: an INI config made from the workload seed, the CLI
subcommand that runs it, and the checks on its artifacts.

The seed sets the forcing phases (and, through ``--seed``, the initial
conditions).  Frequencies, sizes and step counts are fixed, so the work per
run does not depend on the seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

import checks
import oracle

Config = dict[str, dict[str, str]]


def _phases(seed: int, count: int) -> str:
    rng = np.random.default_rng(seed)
    return " ".join(repr(float(p)) for p in rng.uniform(0.0, 2.0 * math.pi, count))


def _modes(cfg: Config):
    """Mode table ``(amps, freqs, phases)`` over sites ``-m .. m`` of a finite forcing."""
    f = cfg["forcing"]
    m = int(f["support_radius"])
    amps = float(f["amplitude0"]) * float(f["decay_rate"]) ** np.abs(np.arange(-m, m + 1))
    freqs = np.broadcast_to(np.array(f["frequency_rule"].split(), dtype=float), amps.shape)
    phases = np.broadcast_to(np.array(f["phase_rule"].split(), dtype=float), amps.shape)
    return amps, freqs, phases


def _num(cfg: Config, section: str, key: str) -> float:
    return float(cfg[section][key])


def _load(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ----------------------------------------------------------------------
# simulate-long: one row of n = 16 over 20 000 RK4 steps, every step sampled

SIMULATE_FREQUENCIES = "0.7 1.3 0.9 1.0 1.1 1.7 0.8"
DOP853_WINDOW = 10.0  # final stretch re-integrated to size the RK4 error


def simulate_config(seed: int) -> Config:
    return {
        "params": {"nu": "1.0", "lambda": "1.0", "n": "16"},
        "nonlinearity": {"name": "cubic", "alpha": "1.0"},
        "forcing": {"support": "finite", "amplitude0": "1.0", "decay_rate": "0.5",
                    "support_radius": "3", "frequency_rule": SIMULATE_FREQUENCIES,
                    "phase_rule": _phases(seed, 7)},
        "integrator": {"h": "0.02"},
        "simulate": {"t0": "0.0", "t1": "400.0", "v0": "ball", "v0_norm": "2.0",
                     "sample_stride": "1"},
    }


def cubic_lattice(nu: float, lam: float, alpha: float, table):
    """``u' = nu (u_{i-1} - 2u_i + u_{i+1}) - (lam + alpha) u - u^3 + f(t)``, periodic."""
    amps, freqs, phases = table

    def rhs(t, u):
        lap = np.roll(u, 1) - 2.0 * u + np.roll(u, -1)
        return nu * lap - (lam + alpha) * u - u * u * u + amps * np.sin(freqs * t + phases)

    return rhs


def rk4(rhs, y, t0: float, t1: float, h: float) -> np.ndarray:
    steps = round((t1 - t0) / h)
    for k in range(steps):
        t = t0 + k * h
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def check_simulate(out: Path, cfg: Config) -> list[str]:
    traj = _load(out / "trajectory.csv")
    norms = _load(out / "norms.csv")
    times, states = traj[:, 0], traj[:, 1:]
    nu, lam, alpha = _num(cfg, "params", "nu"), _num(cfg, "params", "lambda"), _num(cfg, "nonlinearity", "alpha")
    t0, t1, h = _num(cfg, "simulate", "t0"), _num(cfg, "simulate", "t1"), _num(cfg, "integrator", "h")
    n = int(cfg["params"]["n"])
    amps, freqs, phases = _modes(cfg)
    c_bound = math.sqrt(float(np.sum(amps ** 2)))

    failures = []
    steps = round((t1 - t0) / h)
    if traj.shape != (steps + 1, 2 * n + 2) or times[-1] != t1:
        return [f"trajectory.csv has shape {traj.shape} ending at t = {times[-1]}, "
                f"expected {(steps + 1, 2 * n + 2)} ending at {t1}"]
    if not np.array_equal(norms[:, 0], times):
        failures.append("norms.csv times differ from trajectory.csv times")
    failures += checks.close("initial norm", np.linalg.norm(states[0]), _num(cfg, "simulate", "v0_norm"), 1e-12)
    failures += checks.norms_match(states, norms[:, 1])
    failures += checks.energy_inequality(times, norms[:, 1], lam, alpha, c_bound, margin=0.05)
    failures += checks.absorbed(times, norms[:, 1], lam, alpha, c_bound)

    rhs = cubic_lattice(nu, lam, alpha, oracle.wrapped_table(amps, freqs, phases, n))
    start = t1 - DOP853_WINDOW
    ref = solve_ivp(rhs, (t0, t1), states[0], method="DOP853", rtol=1e-10, atol=1e-12,
                    t_eval=[start, t1])
    if not ref.success:
        return failures + [f"reference solve failed: {ref.message}"]
    # Richardson estimate of the RK4 error at the step used, over a window
    # long enough (rate lam + alpha) that the error made before it has decayed
    coarse = rk4(rhs, ref.y[:, 0], start, t1, h)
    fine = rk4(rhs, ref.y[:, 0], start, t1, h / 2)
    rk4_error = 16.0 / 15.0 * float(np.linalg.norm(coarse - fine))
    failures += checks.close("final state vs DOP853", states[-1], ref.y[:, -1], 10.0 * rk4_error + 1e-12)
    return failures


# ----------------------------------------------------------------------
# converge-linear: criterion 6's setup, checked against the exact oracle


def converge_config(seed: int) -> Config:
    return {
        "params": {"nu": "1.0", "lambda": "1.0", "n_list": "4 8 16", "n_ref": "64"},
        "nonlinearity": {"name": "linear", "alpha": "1.0"},
        "forcing": {"support": "finite", "amplitude0": "1.0", "decay_rate": "0.5",
                    "support_radius": "2", "frequency_rule": "1.0",
                    "phase_rule": _phases(seed, 5)},
        "integrator": {"h": "0.02"},
        "attractor": {"eps": "1e-2", "ic_count": "3", "sample_count": "6", "burn_in": "10.0"},
    }


def exact_betas(cfg: Config):
    """Exact ``beta_n`` and its tolerance for each order of ``n_list``.

    The tolerance is the RK4 error at ``h`` of both fiber points (twice the
    gap of RK4's periodic orbit, the extra share covering the shortened last
    step) plus the burn-in residual: initial conditions and attractor both lie
    in the ball of radius ``sqrt(b)``, so a start is at most ``2 sqrt(b)`` off
    and that gap shrinks by ``e^{-(lam + alpha) burn_in}``.
    """
    nu, lam, alpha = _num(cfg, "params", "nu"), _num(cfg, "params", "lambda"), _num(cfg, "nonlinearity", "alpha")
    h, burn_in = _num(cfg, "integrator", "h"), _num(cfg, "attractor", "burn_in")
    n_ref = int(cfg["params"]["n_ref"])
    modes = _modes(cfg)
    decay = lam + alpha
    c_bound = math.sqrt(float(np.sum(modes[0] ** 2)))
    residual = math.exp(-decay * burn_in) * 2.0 * math.sqrt(checks.absorbing_energy(lam, alpha, c_bound))

    def fiber_point(table, periodic):
        exact = oracle.response_amplitudes(table, nu, decay, periodic)
        error = oracle.amplitude_gap(oracle.rk4_amplitudes(table, nu, decay, periodic, h), exact)
        return oracle.state_at(exact), 2.0 * error + residual

    ref_point, ref_error = fiber_point(oracle.reference_table(*modes, n_ref), False)
    out = {}
    for n in (int(x) for x in cfg["params"]["n_list"].split()):
        point, error = fiber_point(oracle.wrapped_table(*modes, n), True)
        beta = float(np.linalg.norm(np.pad(point, n_ref - n) - ref_point))
        out[n] = (beta, error + ref_error)
    return out


def check_converge(out: Path, cfg: Config) -> list[str]:
    with open(out / "convergence.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    expected = exact_betas(cfg)
    orders = [int(r["n"]) for r in rows]
    if orders != list(expected):
        return [f"convergence.csv orders {orders}, expected {list(expected)}"]
    betas = [float(r["beta_n_to_ref"]) for r in rows]
    failures = []
    for n, beta in zip(orders, betas):
        exact, tol = expected[n]
        failures += checks.close(f"beta_{n} vs exact oracle {exact:.6g}", beta, exact, tol)
    failures += checks.strictly_decreasing("betas", betas)
    return failures


# ----------------------------------------------------------------------
# attractor-wide: 192 cloud points on n = 128 with a cubic nonlinearity


def attractor_config(seed: int) -> Config:
    return {
        "params": {"nu": "1.0", "lambda": "1.0", "n": "128"},
        "nonlinearity": {"name": "cubic", "alpha": "1.0"},
        "forcing": {"support": "finite", "amplitude0": "1.0", "decay_rate": "0.5",
                    "support_radius": "6", "frequency_rule": "1.0",
                    "phase_rule": _phases(seed, 13)},
        "attractor": {"eps": "1e-2", "ic_count": "16", "sample_count": "12",
                      "tail_eps": "0.4 0.2 0.1"},
    }


def check_attractor(out: Path, cfg: Config) -> list[str]:
    cloud = _load(out / "cloud.csv")
    with open(out / "tail_report.json", encoding="utf-8") as handle:
        tail = json.load(handle)
    with open(out / "report.json", encoding="utf-8") as handle:
        report = json.load(handle)
    lam, alpha = _num(cfg, "params", "lambda"), _num(cfg, "nonlinearity", "alpha")
    att = cfg["attractor"]
    n, points = int(cfg["params"]["n"]), int(att["ic_count"]) * int(att["sample_count"])
    if cloud.shape != (points, 2 * n + 1):
        return [f"cloud.csv has shape {cloud.shape}, expected {(points, 2 * n + 1)}"]
    c_bound = math.sqrt(float(np.sum(_modes(cfg)[0] ** 2)))
    b = checks.absorbing_energy(lam, alpha, c_bound)
    # initial conditions fill the ball of radius sqrt(b); the strict-margin
    # burn-in is ln(alpha b / eps) / alpha
    burn_in = math.log(alpha * b / float(att["eps"])) / alpha
    failures = checks.close("burn_in", report["cloud"]["burn_in"], burn_in, 1e-12 * burn_in)
    bound_sq = max(b, checks.energy_bound(lam, alpha, c_bound, b, burn_in))
    failures += checks.within_ball(cloud, math.sqrt(bound_sq) + 1e-6)
    # any two states at a common time lie within 2 sqrt(b); the flow contracts
    # at rate lam + alpha for at least burn_in before each point is taken
    failures += checks.diameter_at_most(cloud, math.exp(-(lam + alpha) * burn_in) * 2.0 * math.sqrt(b) + 1e-6)
    eps_list = [float(e) for e in att["tail_eps"].split()]
    if [r["eps"] for r in tail["rows"]] != eps_list:
        failures.append(f"tail_report.json rows {tail['rows']} do not match tail_eps {eps_list}")
    failures += checks.tails_match(cloud, tail["rows"])
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: Callable[[int], Config]
    check: Callable[[Path, Config], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate-long", "simulate", simulate_config, check_simulate),
        Workload("converge-linear", "converge", converge_config, check_converge),
        Workload("attractor-wide", "attractor", attractor_config, check_attractor),
    )
}
