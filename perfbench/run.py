"""Benchmark of the latticedyn command line, end to end and per layer.

    python3 perfbench/run.py --workload simulate-long --seed 1 --seconds 20 --trace 0

Runs one workload from this checkout's ``src`` in this process, on one
thread.  The INI config is generated from ``--seed``; ``latticedyn.cli.main``
is called in-process once to warm up and then repeatedly for ``--seconds``.
Every invocation must exit 0 and reproduce the warm-up's artifacts byte for
byte, and the artifacts must pass the workload's checks.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of one
invocation), ``setup_s`` (median time to import ``latticedyn.cli`` in a fresh
interpreter) and ``peak_rss_mb``.  ``--trace 1`` wraps latticedyn's layers
(see ``tracing.py``) and reports the per-layer metrics instead.  The last
line of standard output is one JSON object.
"""

import argparse
import configparser
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_SAMPLES = 3  # fresh interpreters per run for setup_s and attractor.import_s
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True, timeout=CHILD_TIMEOUT_S)


def setup_seconds() -> float:
    """Median time to ``import latticedyn.cli`` in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import latticedyn.cli; "
             "print(time.perf_counter() - t)")
    return statistics.median(float(_child(["-c", probe]).stdout) for _ in range(CHILD_SAMPLES))


def attractor_import_seconds() -> float | None:
    """Median cumulative ``-X importtime`` of ``latticedyn.attractor``, numpy
    preloaded; ``None`` when the module no longer exists."""
    pattern = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*latticedyn\.attractor\s*$", re.M)
    samples = []
    for _ in range(CHILD_SAMPLES):
        try:
            err = _child(["-X", "importtime", "-c", "import numpy, latticedyn.attractor"]).stderr
        except subprocess.CalledProcessError:
            return None
        samples.append(int(pattern.search(err).group(1)) * 1e-6)
    return statistics.median(samples)


def stable_bytes(path: Path) -> bytes:
    """An artifact's content without wall-clock readings (``timing_s`` in
    report.json, the ``runtime_s`` column of a CSV): what reruns reproduce."""
    data = path.read_bytes()
    if path.name == "report.json":
        report = json.loads(data)
        report.pop("timing_s", None)
        return json.dumps(report, sort_keys=True).encode()
    header = data.split(b"\n", 1)[0].split(b",")
    if path.suffix == ".csv" and b"runtime_s" in header:
        col = header.index(b"runtime_s")
        return b"\n".join(b",".join(f for j, f in enumerate(line.split(b",")) if j != col)
                          for line in data.split(b"\n"))
    return data


def digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(stable_bytes(p)).hexdigest() for p in sorted(out.iterdir())}


def artifact_bytes(out: Path) -> int:
    return sum(len(stable_bytes(p)) for p in out.iterdir() if p.name != "report.json")


def write_config(config: dict, path: Path) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(config)
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)


def run(workload, seed: int, seconds: float, traced: bool) -> dict:
    from latticedyn import cli

    import tracing

    work = OUT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    out = work / "artifacts"
    out.mkdir(parents=True)
    config = workload.config(seed)
    write_config(config, work / "config.ini")
    argv = [workload.command, "--config", str(work / "config.ini"), "--out", str(out),
            "--seed", str(seed)]

    failures: list[str] = []
    attempted = failed = 0
    reference = None

    def invoke() -> float:
        nonlocal attempted, failed, reference
        attempted += 1
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback escaping main() fails the operation
            code = repr(exc)
        wall = time.perf_counter() - started
        if code != 0:
            failed += 1
            print(f"{workload.name}: invocation {attempted} exited {code}", file=sys.stderr)
            return wall
        produced = digests(out)
        if reference is None:
            reference = produced
        elif produced != reference:
            failures.append(f"invocation {attempted}: artifacts differ from the first run")
        return wall

    invoke()  # warm-up: lazy imports and caches
    tracer = tracing.Tracer() if traced else None
    if traced:
        tracing.install(tracer)
    walls, layers = [], []
    deadline = time.perf_counter() + seconds
    try:
        while not walls or time.perf_counter() < deadline:
            if traced:
                tracer.reset()
            walls.append(invoke())
            if traced:
                layers.append(tracing.layer_metrics(tracer, artifact_bytes(out)))
    finally:
        if traced:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{workload.name}: wall_s per invocation {[round(w, 4) for w in walls]}", file=sys.stderr)

    if traced:
        values = {}
        for name in layers[0]:
            series = [m[name] for m in layers]
            if name in tracing.COUNTS and len(set(series)) > 1:
                failures.append(f"{name} varies between invocations: {sorted(set(series))}")
            values[name] = series[0] if name in tracing.COUNTS else statistics.median(series)
        values["attractor.import_s"] = attractor_import_seconds()
        missing = tracing.missing_metrics(tracer)
        if values["attractor.import_s"] is None:
            missing.add("attractor.import_s")
        if missing:
            print(f"{workload.name}: hooks missing, metrics not measured: {sorted(missing)}",
                  file=sys.stderr)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items() if name not in missing}
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": setup_seconds(),
                  "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS

    if reference is None:
        failures.append("no invocation succeeded")
    else:
        try:
            failures += workload.check(out, config)
        except Exception as exc:  # malformed artifacts fail the check, not the run
            failures.append(f"artifacts could not be checked: {exc!r}")
    for line in failures:
        print(f"{workload.name}: CHECK FAILED: {line}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latticedyn" / "cli.py").is_file():
        print(f"latticedyn sources not found under {SRC}", file=sys.stderr)
        return 2
    # one thread: BLAS pools pinned before numpy loads, here and in child interpreters
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"), LATTICE_LOG="quiet")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import latticedyn

    if not Path(latticedyn.__file__).resolve().is_relative_to(SRC):
        print(f"latticedyn imported from {latticedyn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
