import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]


@pytest.fixture(scope="session")
def invoke(tmp_path_factory):
    """Run one CLI subcommand on a config dict (in a fresh directory unless
    ``work`` is given); return the artifact directory."""
    from latticedyn import cli

    import run

    def _invoke(workload, config, seed=3, work=None):
        work = work or tmp_path_factory.mktemp(workload.name)
        run.write_config(config, work / "config.ini")
        code = cli.main([workload.command, "--config", str(work / "config.ini"),
                         "--out", str(work / "out"), "--seed", str(seed)])
        assert code == 0
        return work / "out"

    return _invoke
