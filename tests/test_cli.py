import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import latticedyn
from latticedyn.cli import (_RULE_CHAR_BYTES, _TABLE_SITE_BYTES, _SectionView, _load_forcing,
                            _write_table, main)
from latticedyn.dynamics import auto_step
from latticedyn.estimates import asymptotic_radius_sq

BASE = """
[params]
nu = 1.0
lambda = 1.0
n = 6

[nonlinearity]
name = linear
alpha = 1.0

[forcing]
support = finite
amplitude0 = 1.0
decay_rate = 0.5
support_radius = 2
frequency_rule = 1.0
phase_rule = 0.0

[simulate]
t0 = 0.0
t1 = 4.0
v0 = ball
v0_norm = 1.0

[attractor]
eps = 1e-2
ic_count = 3
sample_count = 4
seed = 99
burn_in = 9.0
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text.strip() + "\n", encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


class TestSimulate:
    def test_decay_and_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["command"] == "simulate" and report["passed"] is True
        # unforced-free decay bound does not apply here (forced run),
        # but the absorbing level does: C = uniform bound, rate lam+alpha
        header, rows = read_csv(out / "trajectory.csv")
        assert header[0] == "t"
        assert header[1] == "i=-6" and header[-1] == "i=6"
        assert len(header) == 14

    def test_unforced_linear_final_norm(self, tmp_path):
        text = BASE.replace("support = finite", "support = finite").replace(
            "amplitude0 = 1.0", "amplitude0 = 0.0"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["final_norm"] < math.exp(-2.0 * 4.0) * 1.05

    def test_degenerate_interval_single_row(self, tmp_path):
        text = BASE.replace("t1 = 4.0", "t1 = 0.0")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert len(rows) == 1
        v0 = np.array([float(x) for x in rows[0][1:]])
        assert np.linalg.norm(v0) == pytest.approx(1.0, rel=1e-12)

    def test_steps_counts_rk4_steps_not_samples(self, tmp_path):
        text = BASE.replace("[simulate]", "[integrator]\nh = 0.01\n\n[simulate]").replace(
            "t1 = 4.0", "t1 = 1.0\nsample_stride = 10"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        _, rows = read_csv(out / "trajectory.csv")
        assert report["steps"] == 100
        assert len(rows) == 11

    @pytest.mark.parametrize("integrator", ["", "[integrator]\nh = 0.01\n\n"],
                             ids=["automatic", "given"])
    def test_report_carries_the_step(self, tmp_path, integrator):
        # the automatic step is the stable step on the ball holding v0 and the
        # absorbing radius; every sample time is a multiple of it from t0 = 0
        cfg = write_config(tmp_path, BASE.replace("[simulate]", integrator + "[simulate]"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        forcing = latticedyn.QuasiPeriodicForcing.finite([0.25, 0.5, 1.0, 0.5, 0.25], 1.0)
        radius = max(1.0, math.sqrt(asymptotic_radius_sq(1.0, 1.0, forcing.uniform_bound())))
        step = 0.01 if integrator else auto_step(
            latticedyn.LatticeParams(nu=1.0, lam=1.0),
            latticedyn.make_nonlinearity("linear", 1.0), radius)
        assert report["step"] == step
        _, rows = read_csv(out / "trajectory.csv")
        assert float(rows[1][0]) == step

    def test_zero_start_takes_its_step_from_the_zero_state(self, tmp_path):
        # v0_norm sizes a ball the run does not start from: with v0 = zero the
        # automatic step comes from the absorbing radius alone
        steps = []
        for v0_norm in ("1.0", "50.0"):
            text = BASE.replace("name = linear", "name = cubic").replace("n = 6", "n = 4")
            text = text.replace("t1 = 4.0", "t1 = 1.0").replace(
                "v0 = ball\nv0_norm = 1.0", f"v0 = zero\nv0_norm = {v0_norm}")
            cfg = write_config(tmp_path, text)
            out = tmp_path / v0_norm
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            steps.append(json.loads((out / "report.json").read_text())["steps"])
        assert steps[0] == steps[1] < 100

    def test_table_matches_per_value_formatting(self, tmp_path):
        rows = np.array([[-0.0, 1e-300, 0.1], [1.0 / 3.0, -2.5e17, 5e-324]])
        times = np.array([0.0, 0.1 + 0.2])
        _write_table(tmp_path / "t.csv", ["t", "a", "b", "c"], rows, times)
        expected = "t,a,b,c\n" + "".join(
            ",".join(format(float(x), ".17g") for x in (t, *row)) + "\n"
            for t, row in zip(times, rows)
        )
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == expected

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()

    def test_norms_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, traj_rows = read_csv(out / "trajectory.csv")
        _, norm_rows = read_csv(out / "norms.csv")
        for traj_row, norm_row in zip(traj_rows, norm_rows):
            state = np.array([float(x) for x in traj_row[1:]])
            assert float(state @ state) == pytest.approx(float(norm_row[1]), rel=1e-12)
            assert float(traj_row[0]) == float(norm_row[0])

    def test_divergence_exit_code(self, tmp_path):
        text = BASE + "\n[integrator]\nh = 10.0\n"
        text = text.replace("t1 = 4.0", "t1 = 2000.0")
        cfg = write_config(tmp_path, text)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3


class TestVerify:
    def test_default_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"matrix-identity", "truncation-equivariance", "wrap-equivariance",
                "cocycle-defect", "energy-envelope", "absorbing-envelope"} <= names
        assert all(c["passed"] for c in report["checks"])

    def test_nonpositive_decay_rejected(self, tmp_path):
        cfg = write_config(tmp_path, BASE.replace("lambda = 1.0", "lambda = -0.5"))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_sign_violating_nonlinearity_named(self, tmp_path):
        text = BASE.replace(
            "name = linear\nalpha = 1.0", "name = poly\nalpha = 0.0\ncoeffs = 1.0"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        row = next(c for c in report["checks"] if c["name"] == "nonlinearity-registration")
        assert not row["passed"]
        assert "sign" in row["detail"]


class TestAttractor:
    def test_linear_benchmark_singleton(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["attractor", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["cloud"]["diameter"] < 1e-6
        header, rows = read_csv(out / "cloud.csv")
        assert len(rows) == report["cloud"]["points"] == 12
        assert len(header) == 13
        tail = json.loads((out / "tail_report.json").read_text())
        assert all(r["margin"] >= 0.0 for r in tail["rows"])
        # k(1e-2) and k(1e-3) lie far beyond n = 6: the certificate says so
        assert [r["vacuous"] for r in tail["rows"]] == [True, True]
        (check,) = report["checks"]
        assert check["name"] == "tail-certificate" and check["passed"]
        assert "vacuous at eps [0.01, 0.001]: k exceeds the cloud half-width 6" in check["detail"]

    def test_zero_forcing_origin(self, tmp_path):
        text = BASE.replace("amplitude0 = 1.0", "amplitude0 = 0.0").replace(
            "burn_in = 9.0", "burn_in = 9.0\nic_radius = 1.0"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["attractor", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["cloud"]["max_norm"] < 1e-6

    def test_cubic_benchmark_absorbing_radius(self, tmp_path):
        text = BASE.replace("name = linear", "name = cubic").replace(
            "support_radius = 2", "support_radius = 0"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["attractor", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["cloud"]["max_norm"] <= math.sqrt(1.0 / 3.0) * 1.05

    def test_weak_mode_skips_the_tail_certificate(self, tmp_path):
        # s*F(s) = -s^2 (1 - s^2)^2 <= 0: no sign margin, so no tail scale
        text = BASE.replace(
            "name = linear\nalpha = 1.0", "name = poly\nalpha = 0.0\ncoeffs = -1 2 -1"
        ).replace("n = 6", "n = 3") + "\n[integrator]\nh = 0.02\n"
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["attractor", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["skipped"] == [{"name": "tail-certificate", "reason": "needs alpha > 0"}]
        assert "tail-certificate" not in {c["name"] for c in report["checks"]}
        assert report["passed"] is True
        assert not (out / "tail_report.json").exists()
        _, rows = read_csv(out / "cloud.csv")
        assert len(rows) == report["cloud"]["points"] == 12

    @pytest.mark.parametrize("command", ["attractor", "converge"])
    def test_ic_radius_sets_the_initial_ball(self, tmp_path, command):
        # at a fixed step and burn-in only the initial conditions move
        text = BASE.replace("name = linear", "name = cubic").replace(
            "n = 6", "n = 6\nn_list = 2 4\nn_ref = 32") + "\n[integrator]\nh = 0.02\n"

        def artifact(name, ic_radius):
            out = tmp_path / name
            cfg = write_config(tmp_path, text.replace("burn_in = 9.0", f"burn_in = 9.0\n{ic_radius}"),
                               name=f"{name}.ini")
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            if command == "attractor":
                return (out / "cloud.csv").read_bytes()
            return [(r["beta_n_to_ref"], r["beta_ref_to_n"])
                    for r in json.loads((out / "report.json").read_text())["rows"]]

        assert artifact("a", "") != artifact("b", "ic_radius = 3.0")

    @pytest.mark.parametrize("command", ["attractor", "converge"])
    def test_report_carries_the_step_and_the_step_count(self, tmp_path, command):
        # every point is pulled back over burn_in = 9; converge sets h = 0.02,
        # attractor takes the automatic step on the absorbing ball
        text = BASE if command == "attractor" else CONVERGE.replace(
            "n = 6", "n = 6\nn_list = 4 8\nn_ref = 32")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        block = report["cloud"] if command == "attractor" else report
        forcing = latticedyn.QuasiPeriodicForcing.finite([0.25, 0.5, 1.0, 0.5, 0.25], 1.0)
        radius = math.sqrt(asymptotic_radius_sq(1.0, 1.0, forcing.uniform_bound()))
        step = 0.02 if command == "converge" else auto_step(
            latticedyn.LatticeParams(nu=1.0, lam=1.0),
            latticedyn.make_nonlinearity("linear", 1.0), radius)
        assert block["step"] == step
        assert block["steps"] == math.ceil(9.0 / step)

    def test_byte_identical_cloud(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["attractor", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["attractor", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "cloud.csv").read_bytes() == (out2 / "cloud.csv").read_bytes()


CONVERGE = BASE + """
[converge]
threshold = 1e-3

[integrator]
h = 0.02
"""


class TestConverge:
    def test_small_benchmark(self, tmp_path):
        text = CONVERGE.replace("n = 6", "n = 6\nn_list = 4 8\nn_ref = 32")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "convergence.csv")
        assert header == ["n", "beta_n_to_ref", "beta_ref_to_n", "runtime_s"]
        assert [r[0] for r in rows] == ["4", "8"]
        betas = [float(r[1]) for r in rows]
        assert betas[1] < betas[0] < 1e-1
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True

    def test_missing_reference_order(self, tmp_path):
        text = CONVERGE.replace("n = 6", "n = 6\nn_list = 4 8")
        cfg = write_config(tmp_path, text)
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["attractor", "converge"])
    @pytest.mark.parametrize("amplitude0", ["1e-200", "1e-320"])
    def test_tiny_geometric_amplitude_runs(self, tmp_path, capsys, command, amplitude0):
        # site 0's mode drives the run however small its amplitude (the
        # square of 1e-200 underflows to 0)
        text = CONVERGE.replace("n = 6", "n = 6\nn_list = 2 4\nn_ref = 16").replace(
            "support = finite\namplitude0 = 1.0\ndecay_rate = 0.5\nsupport_radius = 2",
            f"support = geometric\namplitude0 = {amplitude0}\ndecay_rate = 0.5")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True and "error" not in report

    @pytest.mark.parametrize("boundary", ["wrap", "project"])
    def test_every_order_is_refused_below_one(self, tmp_path, capsys, boundary):
        text = CONVERGE.replace("n = 6", f"n = 6\nn_list = 0 2\nn_ref = 8\nboundary = {boundary}")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == 2 and report["error"]["type"] == "ParameterError"
        assert "truncation order must be >= 1, got 0" in report["error"]["message"]

    @pytest.mark.parametrize("boundary", ["wrap", "project"])
    def test_negative_order_is_refused_before_any_forcing_table(self, tmp_path, capsys,
                                                                monkeypatch, boundary):
        # the widths -1999999999, 3 and 2000000001 sum to 5 sites, inside
        # every cap; the reference's table alone would be 48 GB
        tables = []
        monkeypatch.setattr("latticedyn.forcing.FiniteForcing.mode_table",
                            lambda self, window: tables.append(window))
        text = CONVERGE.replace("n = 6", "n = 6\nn_list = -1000000000 1\nn_ref = 1000000000\n"
                                f"boundary = {boundary}")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "ParameterError" and not tables
        assert "truncation order must be >= 1, got -1000000000" in report["error"]["message"]

    def test_boundary_contamination_exit_code(self, tmp_path):
        # a reference width this small cannot hold the driven response, so
        # the edge monitor fires and the run reports an integration failure
        text = CONVERGE.replace("n = 6", "n = 6\nn_list = 2\nn_ref = 4")
        cfg = write_config(tmp_path, text)
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["exit_code"] == 3 and report["passed"] is False
        assert report["error"]["type"] == "BoundaryContaminationError"
        assert "edge amplitude" in report["error"]["message"]
        assert report["config"]["params"]["n_ref"] == "4"
        assert report["command"] == "converge" and report["seed"] == 99


# finite geometric amplitudes whose energy sum a_i^2 overflows a float
ENERGY_OVERFLOW = [(command, amplitude0) for command in ("simulate", "verify", "attractor", "converge")
                   for amplitude0 in ("1e200", "1e300")]
# from n = 6 to the end of BASE: a converge case adds n_list and n_ref to it
BASE_FROM_N = BASE[BASE.index("n = 6"):]
# a forcing table of 2e12 + 1 sites, 48 TB: refused before numpy is asked for it
HUGE_SUPPORT = "support_radius = 1000000000000"


class TestConfigValidation:
    @pytest.mark.parametrize("order", ["0", "-1000000000"])
    @pytest.mark.parametrize("command", ["simulate", "verify", "attractor"])
    def test_order_below_one_is_refused_first(self, tmp_path, capsys, monkeypatch, command,
                                              order):
        # before any forcing table, state or check row
        tables, checked = [], []
        monkeypatch.setattr("latticedyn.forcing.FiniteForcing.mode_table",
                            lambda self, window: tables.append(window))
        monkeypatch.setattr("latticedyn.checks.matrix_identity",
                            lambda max_order: checked.append(max_order))
        cfg = write_config(tmp_path, BASE.replace("n = 6", f"n = {order}"))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "ParameterError" and not tables and not checked
        assert f"truncation order must be >= 1, got {order}" in report["error"]["message"]

    @pytest.mark.parametrize(
        "command, old, new, flags, message",
        [
            ("simulate", "[simulate]", "[integrator]\nh = nan\n\n[simulate]", (), ""),
            ("simulate", "t1 = 4.0", "t1 = inf", (), ""),
            ("simulate", "nu = 1.0", "nu = auto", (), ""),
            ("attractor", "burn_in = 9.0", "burn_in = 9.0\ntail_eps =", (), ""),
            ("attractor", "burn_in = 9.0", "burn_in = 9.0\ntail_eps = 1e-2 -1e-3", (), ""),
            ("attractor", "sample_count = 4", "sample_count = 0", (), ""),
            ("attractor", "seed = 99", "seed = -1", (), ""),
            ("simulate", "[simulate]", "[simulate]", ("--seed", "-1"), ""),
            ("attractor", "burn_in = 9.0", "burn_in = 9.0\nic_radius = -1", (), ""),
            ("converge", "burn_in = 9.0", "burn_in = 9.0\nboundary_floor = -1", (), ""),
            ("attractor", "burn_in = 9.0", "burn_in = 9.0\nboundary_floor = 0", (), ""),
            ("simulate", "v0_norm = 1.0", "v0_norm = -1", (), ""),
            ("attractor", "eps = 1e-2", "eps = 0", (), ""),
            ("attractor", "burn_in = 9.0", "burn_in = -1", (), ""),
            ("simulate", "[simulate]", "[integrator]\nrho = -1\n\n[simulate]", (),
             "unknown keys in [integrator]: ['rho']"),
            ("simulate", "n = 6", "n = 6\nn_work = 8", (), ""),
            ("attractor", "burn_in = 9.0", "burn_in = 9.0\nwindow = 1.0", (),
             "unknown keys in [attractor]: ['window']"),
            ("verify", "[simulate]", "[verify]\ntriples = 0\n\n[simulate]", (), ""),
            ("verify", "[simulate]", "[verify]\ntriples = -3\n\n[simulate]", (), ""),
            # refused before any of the 10^9 cases is drawn
            ("verify", "[simulate]", "[verify]\ntriples = 1000000000\n\n[simulate]", (),
             "[verify] triples 1000000000 exceeds cap 10000"),
            ("simulate", "[simulate]", "[simulate]\nsample_stride = 0", (),
             "[simulate] sample_stride must be >= 1, got 0"),
            ("simulate", "name = linear", "name = cubic\ncoeffs = 7 7 7", (), ""),
            ("simulate", "support = finite", "support = geometric", (), ""),
            ("simulate", "[simulate]", "[bogus]\nx = 1\n\n[simulate]", (),
             "unknown config section [bogus]"),
            ("simulate", "phase_rule = 0.0", "phase_rule = 0.0\nzzz = 1", (),
             "unknown keys in [forcing]: ['zzz']"),
            ("attractor", "support = finite\namplitude0 = 1.0\ndecay_rate = 0.5\nsupport_radius = 2",
             "support = geometric\namplitude0 = nan\ndecay_rate = 0.5", (),
             "[forcing] amplitude0: expected a finite number"),
            ("simulate", "support = finite\namplitude0 = 1.0\ndecay_rate = 0.5\nsupport_radius = 2"
             "\nfrequency_rule = 1.0",
             "support = geometric\namplitude0 = 1.0\ndecay_rate = 0.5\nfrequency_rule = 1 2 3", (),
             "[forcing] frequency_rule: geometric support takes one number, got 3"),
            ("verify", "name = linear", "name = poly\ncoeffs = nan", (),
             "[nonlinearity] coeffs: expected a nonempty list of finite numbers"),
            *[(command, "support = finite\namplitude0 = 1.0\ndecay_rate = 0.5\nsupport_radius = 2",
               f"support = geometric\namplitude0 = {amplitude0}\ndecay_rate = 0.5", (),
               "forcing energy sum a_i^2 is not a finite float")
              for command, amplitude0 in ENERGY_OVERFLOW],
            ("simulate", "amplitude0 = 1.0", "amplitude0 = 1e200", (),
             "forcing energy sum a_i^2 is not a finite float"),
            *[(command, "[simulate]", "[integrator]\nh = 1e-320\n\n[simulate]", (),
               "is too small for the span") for command in ("simulate", "attractor")],
            ("simulate", "[simulate]\nt0 = 0.0\nt1 = 4.0",
             "[integrator]\nh = 1\n\n[simulate]\nt0 = 1e17\nt1 = 1.0000000000000016e17", (),
             "a step below the time resolution 16 repeats a sample time"),
            ("simulate", "lambda = 1.0\nn = 6\n\n[nonlinearity]\nname = linear\nalpha = 1.0",
             "lambda = 1e-200\nn = 6\n\n[nonlinearity]\nname = zero\nalpha = 0", (),
             "decay rate 1e-200 too small: lam * (lam + 2 alpha) underflows to 0"),
            *[(command, "lambda = 1.0\nn = 6\n\n[nonlinearity]\nname = linear\nalpha = 1.0",
               "lambda = 1e-160\nn = 6\n\n[nonlinearity]\nname = zero\nalpha = 0", (),
               "decay rate 1e-160 too small: the absorbing radius") for command in ("attractor", "verify")],
            # finite energy, but the absorbing radius 7.5e149 sets an automatic
            # step of 1.3e-301: about 1.5e301 steps, refused before any is taken
            *[(command, "n = 6\n\n[nonlinearity]\nname = linear\nalpha = 1.0\n\n[forcing]\n"
               "support = finite\namplitude0 = 1.0\ndecay_rate = 0.5\nsupport_radius = 2",
               "n = 4\n\n[nonlinearity]\nname = cubic\nalpha = 1.0\n\n[forcing]\n"
               "support = geometric\namplitude0 = 1e150\ndecay_rate = 0.5", (),
               "site-steps (rows x sites x steps), above the cap of 1e+10")
              for command in ("simulate", "attractor")],
            ("attractor", "burn_in = 9.0", "burn_in = 9.0\nic_radius = 1e200", (),
             "[attractor] ic_radius: its square overflows a float, got 1e+200"),
            ("converge", BASE_FROM_N,
             BASE_FROM_N.replace("n = 6", "n = 6\nn_list = 2 4\nn_ref = 16") + "ic_radius = 1e200\n",
             (), "[attractor] ic_radius: its square overflows a float, got 1e+200"),
            *[(command, "v0_norm = 1.0", "v0_norm = 1e200", (),
               "[simulate] v0_norm: its square overflows a float, got 1e+200")
              for command in ("simulate", "verify")],
            *[(command, "support_radius = 2", HUGE_SUPPORT, (),
               "[forcing] support_radius 1000000000000: a table of 2000000000001 sites needs")
              for command in ("simulate", "verify", "attractor", "converge")],
        ],
        ids=["h-nan", "t1-inf", "nu-auto", "tail_eps-empty", "tail_eps-negative",
             "sample_count-zero", "seed-negative", "seed-flag-negative", "ic_radius-negative",
             "boundary_floor-negative", "boundary_floor-zero", "v0_norm-negative", "eps-zero",
             "burn_in-negative", "rho-negative", "n_work-unknown", "window-unknown",
             "triples-zero", "triples-negative", "triples-over-cap", "sample_stride-zero",
             "coeffs-not-poly",
             "support_radius-geometric", "section-unknown", "forcing-key-unknown",
             "amplitude0-nan-geometric", "frequency_rule-geometric-per-site", "coeffs-nan",
             *[f"energy-{amplitude0}-geometric-{command}" for command, amplitude0 in ENERGY_OVERFLOW],
             "energy-1e200-finite", "step-underflow-simulate", "step-underflow-attractor", "time-resolution-simulate",
             "radius-underflow-simulate", "radius-infinite-attractor", "radius-infinite-verify",
             "work-cap-simulate", "work-cap-attractor",
             "ic_radius-energy-overflow-attractor", "ic_radius-energy-overflow-converge",
             "v0_norm-energy-overflow-simulate", "v0_norm-energy-overflow-verify",
             *[f"support_radius-table-over-cap-{command}"
               for command in ("simulate", "verify", "attractor", "converge")]],
    )
    def test_bad_numbers_exit_2_without_traceback(self, tmp_path, capsys, command, old, new,
                                                  flags, message):
        assert old in BASE
        cfg = write_config(tmp_path, BASE.replace(old, new))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == 2 and report["passed"] is False
        assert message in report["error"]["message"]

    @pytest.mark.parametrize("command", ["verify", "simulate", "attractor", "converge"])
    @pytest.mark.parametrize("coeffs, message",
                             [("-1e308 -1e308", "finite values violated"),
                              ("0 0 -1.5e305", "finite Lipschitz witness violated")],
                             ids=["values", "witness"])
    def test_overflowing_nonlinearity_named(self, tmp_path, capsys, command, coeffs, message):
        text = CONVERGE.replace("n = 6", "n = 6\nn_list = 2 4\nn_ref = 8").replace(
            "name = linear\nalpha = 1.0", f"name = poly\nalpha = 0.5\ncoeffs = {coeffs}")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = main([command, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err
        report = json.loads((out / "report.json").read_text())
        if command == "verify":
            assert code == 1
            row = next(c for c in report["checks"] if c["name"] == "nonlinearity-registration")
            assert not row["passed"] and message in row["detail"]
        else:
            assert code == report["exit_code"] == 2
            assert message in report["error"]["message"]

    @pytest.mark.parametrize("command", ["simulate", "verify", "attractor", "converge"])
    def test_memory_cap_exits_2_before_any_forcing_table(self, tmp_path, capsys, monkeypatch,
                                                         command):
        # 9 arrays x 8 B x 33 sites = 2376 B for one row at n = 16
        monkeypatch.setattr("latticedyn.dynamics.MEMORY_CAP", 2048)
        tables = []
        monkeypatch.setattr("latticedyn.forcing.FiniteForcing.mode_table",
                            lambda self, window: tables.append(window))
        text = CONVERGE.replace("n = 6", "n = 16\nn_list = 8 16\nn_ref = 16")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["exit_code"] == 2 and report["error"]["type"] == "ParameterError"
        assert "bytes, above the cap of 2.05e+03" in report["error"]["message"]
        assert not tables

    def test_forcing_table_cap_counts_the_peak(self, tmp_path, capsys, monkeypatch):
        # 30001 sites fit a 1 MiB cap at 24 B a site, not at the 40 B a site
        # that building the table peaks at; nothing is run under this cap
        monkeypatch.setattr("latticedyn.cli.MEMORY_CAP", 2 ** 20)
        cfg = write_config(tmp_path, BASE.replace("support_radius = 2", "support_radius = 15000"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["message"] == (
            "[forcing] support_radius 15000: a table of 30001 sites needs 1.2e+06 bytes, "
            "above the cap of 1.05e+06")

    @pytest.mark.parametrize("per_site", [False, True], ids=["one-number", "per-site"])
    def test_forcing_table_peaks_within_its_charge(self, per_site):
        radius = 20_000
        width = 2 * radius + 1
        values = {"support": "finite", "amplitude0": "1.0", "decay_rate": "0.999",
                  "support_radius": str(radius)}
        rules = {}
        if per_site:
            # parsed before the trace: the arrays, not the text, are charged
            rules = {key: tuple(np.linspace(0.5, 1.5, width)) for key in ("frequency_rule",
                                                                          "phase_rule")}
        view = _SectionView("forcing", values)
        view.get_float_list = lambda key, default: rules.get(key, (0.0,))
        tracemalloc.start()
        try:
            forcing = _load_forcing(view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forcing.amplitudes.size == width
        # at least four of the five arrays charged are live at once, plus 4 KB
        # for the few small objects besides them
        assert 32 * width < peak <= _TABLE_SITE_BYTES * width + 4096

    def test_forcing_rule_is_refused_before_it_is_split(self, tmp_path, capsys, monkeypatch):
        # a 20,001-site table charges 0.8 MB, inside a 2 MB cap; splitting
        # its per-site rule would peak near 1.9 MB more, so the 80 KB of rule
        # text is charged and refused before any of it is split
        monkeypatch.setattr("latticedyn.cli.MEMORY_CAP", 2 * 10 ** 6)
        rule = " ".join(["0.5"] * 20_001)
        text = BASE.replace("support_radius = 2", "support_radius = 10000").replace(
            "frequency_rule = 1.0", f"frequency_rule = {rule}")
        cfg = write_config(tmp_path, text)
        split, parse = [], _SectionView.get_float_list

        def spy(self, key, *args, **kwargs):
            split.append(key)
            return parse(self, key, *args, **kwargs)

        monkeypatch.setattr(_SectionView, "get_float_list", spy)
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and "frequency_rule" not in split
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["message"] == (
            "[forcing] frequency_rule and phase_rule: 80006 characters need 3.84e+06 bytes "
            "with a table of 20001 sites, above the cap of 2e+06")
        assert peak < 2 * 10 ** 6

    @pytest.mark.parametrize("token", ["10", "0.5", "0.12345678901234568"])
    def test_forcing_rule_parse_peaks_within_its_charge(self, token):
        # two-digit numbers are the worst case a character: each becomes a
        # string, a float and two pointers
        radius = 10_000
        width = 2 * radius + 1
        rule = " ".join([token] * width)
        values = {"support": "finite", "amplitude0": "1.0", "decay_rate": "0.999",
                  "support_radius": str(radius), "frequency_rule": rule, "phase_rule": rule}
        view = _SectionView("forcing", values)
        tracemalloc.start()
        try:
            forcing = _load_forcing(view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forcing.frequencies.size == width
        assert peak <= _TABLE_SITE_BYTES * width + _RULE_CHAR_BYTES * 2 * len(rule)

    def test_config_error_report(self, tmp_path):
        cfg = write_config(tmp_path, BASE.replace("seed = 99", "seed = -1"))
        out = tmp_path / "o"
        assert main(["attractor", "--config", str(cfg), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["error"] == {
            "type": "ConfigError", "message": "[attractor] seed must be >= 0, got -1"}
        assert report["exit_code"] == 2 and report["passed"] is False
        assert report["config"]["attractor"]["seed"] == "-1"
        assert report["command"] == "attractor" and report["seed"] == -1
        assert not (out / "cloud.csv").exists()

    def test_duplicate_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "\n[params]\n", name="dup.ini")
        # duplicate section is a parse error
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_option_rejected(self, tmp_path):
        cfg = write_config(tmp_path, BASE.replace("[simulate]", "[simulate]\nwhat = 1"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(tmp_path / "nope.ini"), "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["error"]["type"] == "ConfigError"
        assert "cannot read config" in report["error"]["message"]
        assert "config" not in report and report["seed"] is None

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["simulate", "--config", str(cfg), "--out", str(out1), "--seed", "1"])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "2"])
        main(["simulate", "--config", str(cfg), "--out", str(out3), "--seed", "1"])
        a = (out1 / "trajectory.csv").read_bytes()
        b = (out2 / "trajectory.csv").read_bytes()
        c = (out3 / "trajectory.csv").read_bytes()
        assert a != b
        assert a == c

    def test_quiet_logging(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LATTICE_LOG", "quiet")
        cfg = write_config(tmp_path, BASE)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


# the fuzzed keys and the menu of values drawn for them; a huge magnitude such
# as t1 = 1e200 is valid, and the integrator's work cap refuses it before any step
FUZZ_BASE = {
    "params": {"nu": "1.0", "lambda": "1.0", "n": "3", "n_list": "1 2", "n_ref": "3"},
    "nonlinearity": {"name": "cubic", "alpha": "1.0"},
    "forcing": {"support": "finite", "amplitude0": "1.0", "decay_rate": "0.5",
                "support_radius": "1", "frequency_rule": "1.0", "phase_rule": "0.0"},
    "integrator": {"h": "0.05"},
    "simulate": {"t0": "0.0", "t1": "0.5", "v0": "ball", "v0_norm": "1.0"},
    "attractor": {"ic_count": "2", "sample_count": "2", "seed": "1", "burn_in": "2.0"},
    "verify": {"triples": "5"},
}
FUZZ_KEYS = [
    (section, key)
    for section, keys in {
        "params": ["nu", "lambda", "n", "n_list", "n_ref"],
        "nonlinearity": ["alpha"],
        "forcing": ["amplitude0", "decay_rate", "support_radius", "frequency_rule", "phase_rule"],
        "integrator": ["h"],
        "simulate": ["t0", "t1", "v0_norm", "sample_stride"],
        "attractor": ["eps", "ic_count", "sample_count", "seed", "burn_in", "ic_radius",
                      "tail_eps", "boundary_floor"],
    }.items()
    for key in keys
]
FUZZ_VALUES = ["nan", "inf", "-1", "0", "auto", "", "x", "0.5", "1", "2", "3",
               "1e200", "1e-320", "-0.0"]


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["simulate", "verify", "attractor", "converge"]),
    overrides=st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES),
                              max_size=3),
)
# inputs whose square or forcing table overflows; the v0_norm examples are
# linear, since a cubic run can diverge (exit 3) before anything squares it
@example(command="attractor", overrides={("attractor", "ic_radius"): "1e200"})
@example(command="converge", overrides={("attractor", "ic_radius"): "1e200"})
@example(command="verify", overrides={("nonlinearity", "name"): "linear",
                                      ("simulate", "v0_norm"): "1e200"})
@example(command="simulate", overrides={("nonlinearity", "name"): "linear",
                                        ("simulate", "v0_norm"): "1e200"})
@example(command="converge", overrides={("forcing", "support_radius"): "1000000000000"})
def test_fuzzed_config_values_keep_the_exit_code_contract(capsys, command, overrides):
    sections = {name: dict(values) for name, values in FUZZ_BASE.items()}
    for (section, key), value in overrides.items():
        sections[section][key] = value
    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in values.items())
        for name, values in sections.items()
    )
    capsys.readouterr()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "exp.ini"
        cfg.write_text(text, encoding="utf-8")
        with np.errstate(all="ignore"):
            code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "o")])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads((Path(tmp) / "o" / "report.json").read_text())
        assert report["command"] == command


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test and benchmark dependency only: a fresh interpreter
    # running both cloud commands never imports it
    attractor_cfg = write_config(tmp_path, BASE, name="attractor.ini")
    converge_cfg = write_config(
        tmp_path, CONVERGE.replace("n = 6", "n = 6\nn_list = 4 8\nn_ref = 32"), name="converge.ini")
    script = "\n".join([
        "import sys",
        "from latticedyn.cli import main",
        f"assert main(['attractor', '--config', {str(attractor_cfg)!r}, "
        f"'--out', {str(tmp_path / 'a')!r}]) == 0",
        f"assert main(['converge', '--config', {str(converge_cfg)!r}, "
        f"'--out', {str(tmp_path / 'c')!r}]) == 0",
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))",
    ])
    src = str(Path(latticedyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, LATTICE_LOG="quiet")
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[]"
