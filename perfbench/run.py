"""Benchmark of the mvgehd command-line pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src and driven
in-process through its CLI entry point, `mvgehd.cli.main`; workloads are
defined in workloads.py. One run:

1. set-up, repeated SETUP_REPEATS times: import mvgehd in a fresh
   interpreter, then make the workload's inputs with `mvgehd generate`;
2. the pipeline, repeated until S seconds have passed and at least
   MIN_RUNS times. With --trace 1 untraced and traced runs alternate, and
   the traced ones record spans around each layer's public functions;
3. output checks, untimed. A failed check or CLI invocation counts as a
   failed op and does not stop the run.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. The lines before it record the
environment and every timed sample. Scratch files go to .bench_work/ and
are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import SpanRecorder, instrumented, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
IMPORT_PROBE = ("import time; t = time.perf_counter(); import mvgehd.cli; "
                "print(time.perf_counter() - t)")
PATCHED_MODULES = ("mvgehd.cli", "mvgehd.graph", "mvgehd.solver", "mvgehd.clustering")
SETUP_LAYERS = ("synth.generate.busy_s", "graph.save_multiview.busy_s",
                "cli.generate.wall_s")
QUALITY_LAYERS = ("metrics.node_nmi", "metrics.subject_acc_mean",
                  "hubs.row_norm_recall", "hubs.betweenness_recall")


class Tally:
    """Ops attempted and failed; an op is one CLI invocation or output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def load_package() -> dict:
    if not (SRC / "mvgehd" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mvgehd package under {SRC}; "
                         "run from the repository root")
    sys.path.insert(0, str(SRC))
    import mvgehd.cli  # noqa: F401  (imports every patched module)
    return {name: sys.modules[name] for name in PATCHED_MODULES}


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas(show_config) -> str:
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "mvgehd").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mvgehd_threads": int(os.environ["MVGEHD_THREADS"]),
        # BLAS threading is left at the library default, so the thread pool
        # and BLAS can oversubscribe the cores exactly as a user's run does.
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": _blas(numpy.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": _blas(scipy.show_config),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def run_cli(cli, argv: list, tally: Tally, recorder: SpanRecorder | None) -> None:
    def call() -> bool:
        try:
            return cli.main(argv) == 0
        except SystemExit:  # argparse rejected the arguments
            return False

    if recorder is None:
        tally.record(call())
    else:
        with recorder.span(f"cli.{argv[0]}"):
            tally.record(call())


def import_seconds() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


class Bench:
    def __init__(self, workload, seed: int, modules: dict, work: Path):
        self.workload = workload
        self.seed = seed
        self.modules = modules
        self.cli = modules["mvgehd.cli"]
        self.work = work
        self.tally = Tally()
        self.recorder = SpanRecorder()
        self.runs = 0
        self.out = work / "out0"

    def set_up(self, traced: bool) -> tuple:
        """Returns (inputs directory, set-up seconds per repeat, layer rows)."""
        seconds, rows = [], []
        for i in range(SETUP_REPEATS):
            inputs = self.work / f"inputs{i}"
            importing = import_seconds()
            generate = self.workload.generate(self.seed, inputs)
            seconds.append(importing + self._run([generate], traced))
            if traced:
                rows.append(layer_metrics(self.recorder.drain()))
        return inputs, seconds, rows

    def pipeline(self, inputs: Path, traced: bool) -> float:
        """Run the workload's CLI pipeline once; returns its wall seconds."""
        self.runs += 1
        self.out = self.work / f"out{self.runs}"
        self.out.mkdir(parents=True)
        return self._run(self.workload.pipeline(self.seed, inputs, self.out), traced)

    def _run(self, steps: list, traced: bool) -> float:
        """Run CLI invocations in order; returns their wall seconds."""
        recorder = self.recorder if traced else None
        with instrumented(self.modules, self.recorder) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            for argv in steps:
                run_cli(self.cli, argv, self.tally, recorder)
            return time.perf_counter() - start

    def check(self, inputs: Path) -> dict:
        """Run the output checks on the last pipeline's outputs; returns quality."""
        try:
            checks, quality = self.workload.evaluate(inputs, self.out)
        except Exception as exc:  # a missing or malformed output is a failed op
            print(f"perfbench: output check raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            self.tally.record(False)
            return {}
        for name, ok in checks.items():
            if not ok:
                print(f"perfbench: check {name} failed", file=sys.stderr)
            self.tally.record(ok)
        return quality


def _medians(rows: list, keys) -> dict:
    return {k: statistics.median(row[k] for row in rows) for k in keys}


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Set up, time the pipeline, check its outputs; returns metric -> value."""
    inputs, setup_seconds, setup_rows = bench.set_up(trace)
    plain, traced, rows = [], [], []
    start = time.perf_counter()
    while True:
        if trace:
            # Alternate which of the pair runs first, so warm-up and drift
            # do not land on one side of trace.overhead_s.
            for traced_run in (False, True) if len(traced) % 2 == 0 else (True, False):
                wall = bench.pipeline(inputs, traced=traced_run)
                (traced if traced_run else plain).append(wall)
            rows.append(layer_metrics(bench.recorder.drain()))
        else:
            plain.append(bench.pipeline(inputs, traced=False))
        enough = len(traced) >= MIN_TRACED_RUNS if trace else len(plain) >= MIN_RUNS
        if enough and time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps({"samples": {"setup_s": setup_seconds, "wall_s": plain,
                                  "traced_wall_s": traced}}))
    quality = bench.check(inputs)
    tally = bench.tally

    if not trace:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup_seconds),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
            "quality": min(quality.values(), default=0.0),
        }
        return values

    values = _medians(rows, [k for k in rows[0] if k not in SETUP_LAYERS])
    values.update(_medians(setup_rows, SETUP_LAYERS))
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    for name in QUALITY_LAYERS:
        values[name] = quality.get(name, 0.0)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    units = declared_units(bool(args.trace))
    modules = load_package()
    os.environ["MVGEHD_THREADS"] = str(len(os.sched_getaffinity(0)))
    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        print(json.dumps({"env": environment()}))
        bench = Bench(WORKLOADS[args.workload], args.seed, modules, work)
        values = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise SystemExit("perfbench: measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    tally = bench.tally
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
