"""Every benchmark workload's config is one the CLI still reads: a knob that
the CLI drops but ``perfbench/workloads.py`` still sets fails here rather
than in every benchmark run."""

import importlib.util
import sys
from pathlib import Path

from latticedyn import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_by_path(name, module_name, monkeypatch):
    """``perfbench/<name>.py`` as the module ``module_name``, registered in
    ``sys.modules`` for the test (a dataclass needs its module there)."""
    spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, module_name, module)
    spec.loader.exec_module(module)
    return module


def test_every_workload_config_loads(tmp_path, monkeypatch):
    # workloads.py imports its sibling modules by their bare names; each
    # config is written as the benchmark writes it
    for name in ("checks", "oracle"):
        load_by_path(name, name, monkeypatch)
    workloads = load_by_path("workloads", "perfbench_workloads", monkeypatch).WORKLOADS
    run = load_by_path("run", "perfbench_run", monkeypatch)
    assert set(workloads) == {"simulate-long", "converge-linear", "attractor-wide"}
    for name, workload in workloads.items():
        path = tmp_path / f"{name}.ini"
        run.write_config(workload.config(101), path)
        cfg = cli.load_config(path)
        assert cfg.lam == 1.0 and workload.command in cli._COMMANDS
