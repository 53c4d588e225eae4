"""Each workload check passes on the program's output and fails once one value
of an artifact is moved beyond the check's tolerance.  Configs are the
workloads' own, shrunk so the suite stays fast."""

import csv
import json
import shutil

import numpy as np
import pytest

import run
from workloads import WORKLOADS


def _shrunk(name, seed=3):
    workload = WORKLOADS[name]
    cfg = workload.config(seed)
    if name == "simulate-long":
        cfg["simulate"]["t1"] = "20.0"
    elif name == "converge-linear":
        cfg["params"]["n_ref"] = "32"
        cfg["attractor"].update(ic_count="2", sample_count="2")
    else:
        cfg["params"]["n"] = "16"
        cfg["attractor"].update(ic_count="4", sample_count="3", tail_eps="1.0 0.5")
    return workload, cfg


@pytest.fixture(scope="module")
def produce(invoke):
    made = {}

    def _produce(name):
        if name not in made:
            workload, cfg = _shrunk(name)
            made[name] = workload, cfg, invoke(workload, cfg)
        return made[name]

    return _produce


@pytest.fixture(params=sorted(WORKLOADS))
def produced(request, produce):
    return produce(request.param)


def _copy(out, tmp_path):
    return shutil.copytree(out, tmp_path / "copy")


def _edit_csv(path, row, col, change):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[row][col] = repr(change(float(rows[row][col])))
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def test_program_output_passes(produced):
    workload, cfg, out = produced
    assert workload.check(out, cfg) == []


def test_reruns_are_byte_identical(produced, invoke):
    workload, cfg, out = produced
    first = run.digests(out)
    assert run.digests(invoke(workload, cfg, work=out.parent)) == first


@pytest.mark.parametrize("name, artifact, row, col, change, message", [
    ("simulate-long", "norms.csv", 300, 1, lambda y: y * (1 + 1e-9), "norms.csv row 299"),
    ("simulate-long", "norms.csv", 400, 1, lambda y: y + 0.5, "energy inequality"),
    ("simulate-long", "norms.csv", -1, 1, lambda y: 1.0, "absorbing radius"),
    ("simulate-long", "trajectory.csv", -1, 5, lambda x: x + 1e-6, "final state vs DOP853"),
    ("simulate-long", "trajectory.csv", 1, 3, lambda x: x + 1e-6, "initial norm"),
    ("converge-linear", "convergence.csv", 1, 1, lambda b: b * (1 + 1e-4), "beta_4 vs exact"),
    ("converge-linear", "convergence.csv", 3, 1, lambda b: 1.0, "not strictly decreasing"),
    ("attractor-wide", "cloud.csv", 2, 16, lambda x: 1.0, "Gronwall bound"),
    ("attractor-wide", "cloud.csv", 5, 16, lambda x: x + 1e-3, "contraction bound"),
    ("attractor-wide", "cloud.csv", 7, 1, lambda x: x + 1e-3, "worst_tail"),
])
def test_perturbed_value_fails(produce, tmp_path, name, artifact, row, col, change, message):
    workload, cfg, out = produce(name)
    copy = _copy(out, tmp_path)
    _edit_csv(copy / artifact, row, col, change)
    assert message in "\n".join(workload.check(copy, cfg))


def test_report_timing_does_not_count_as_a_difference(produced, tmp_path):
    workload, cfg, out = produced
    copy = _copy(out, tmp_path)
    report = json.loads((copy / "report.json").read_text())
    report["timing_s"] += 1.0
    (copy / "report.json").write_text(json.dumps(report))
    if workload.name == "converge-linear":
        _edit_csv(copy / "convergence.csv", 1, 3, lambda s: s + 1.0)
    assert run.digests(copy) == run.digests(out)
    _edit_csv(copy / next(p.name for p in copy.glob("*.csv")), 1, 1, lambda x: np.nextafter(x, 1.0))
    assert run.digests(copy) != run.digests(out)
