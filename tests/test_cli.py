import csv
import json
import math

import numpy as np
import pytest

from latticedyn.cli import main

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
        assert report["command"] == "simulate"
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
        with np.errstate(over="ignore", invalid="ignore"):
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

    def test_boundary_contamination_exit_code(self, tmp_path):
        # a reference width this small cannot hold the driven response, so
        # the edge monitor fires and the run reports an integration failure
        text = CONVERGE.replace("n = 6", "n = 6\nn_list = 2\nn_ref = 4")
        cfg = write_config(tmp_path, text)
        assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


class TestConfigValidation:
    @pytest.mark.parametrize(
        "command, old, new",
        [
            ("simulate", "[simulate]", "[integrator]\nh = nan\n\n[simulate]"),
            ("simulate", "t1 = 4.0", "t1 = inf"),
            ("simulate", "nu = 1.0", "nu = auto"),
            ("attractor", "burn_in = 9.0", "burn_in = 9.0\ntail_eps ="),
            ("attractor", "burn_in = 9.0", "burn_in = 9.0\ntail_eps = 1e-2 -1e-3"),
            ("attractor", "burn_in = 9.0", "burn_in = 9.0\nwindow = inf"),
            ("attractor", "sample_count = 4", "sample_count = 0"),
        ],
        ids=["h-nan", "t1-inf", "nu-auto", "tail_eps-empty", "tail_eps-negative", "window-inf",
             "sample_count-zero"],
    )
    def test_bad_numbers_exit_2_without_traceback(self, tmp_path, capsys, command, old, new):
        assert old in BASE
        cfg = write_config(tmp_path, BASE.replace(old, new))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "\n[params]\n", name="dup.ini")
        # duplicate section is a parse error
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_option_rejected(self, tmp_path):
        cfg = write_config(tmp_path, BASE.replace("[simulate]", "[simulate]\nwhat = 1"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 2

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
