"""Thread-safe span recording around the public functions of mvgehd's layers.

Tracing happens from outside the program: `instrumented` replaces a public
function with a timing wrapper in the module that looks it up at call time
(for example `mvgehd.cli.solve`, which `cmd_embed` reads from its module
globals), and puts the original back on exit. No file of the package
changes, and an untraced run executes none of this code.

A span holds its name, start, end, the id of the span that was open on the
same thread when it started (its parent), and any counts its wrapper
derived from the call. Spans stay in memory until `drain` hands them over.
Cohort solves run on the CLI's thread pool, so each thread keeps its own
parent stack and the shared span list is guarded by a lock.
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans = []
        self._last_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._last_id += 1
            span_id = self._last_id
        span = Span(name, span_id, stack[-1].span_id if stack else None,
                    time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._spans.append(span)

    def drain(self) -> list:
        """Return the finished spans and start an empty list."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans


def _csv_mb(args, kwargs, result) -> dict:
    return {"mb": os.path.getsize(args[0]) / 1e6}


def _solve_counts(args, kwargs, result) -> dict:
    # The solver forms M_v^T (Q M_v) for every view once at the start and once
    # per pass of its loop, which runs iterations + 1 times: 2 n^3 flops each.
    graph, trace = args[0], result[2]
    builds = graph.m * (trace.iterations + 2)
    return {"iterations": trace.iterations, "converged": int(trace.converged),
            "operator_gflop": builds * 2.0 * graph.n ** 3 / 1e9}


def _eigh_gflop(args, kwargs, result) -> dict:
    # Dense symmetric eigensolve of c = count pairs: 4/3 n^3 flops for the
    # tridiagonal reduction plus 2 n^2 c for the back-transformation.
    n = args[0].shape[0]
    count = args[1] if len(args) > 1 else kwargs["count"]
    return {"gflop": (4.0 / 3.0 * n ** 3 + 2.0 * n * n * count) / 1e9}


# (module, attribute, span name, counts derived from the call)
WRAPPED = (
    ("mvgehd.cli", "load_matrix_csv", "graph.load_matrix_csv", _csv_mb),
    ("mvgehd.graph", "load_matrix_csv", "graph.load_matrix_csv", _csv_mb),
    ("mvgehd.cli", "load_multiview", "graph.load_multiview", None),
    ("mvgehd.cli", "save_multiview", "graph.save_multiview", None),
    ("mvgehd.cli", "generate_multiview", "synth.generate", None),
    ("mvgehd.cli", "generate_cohort", "synth.generate", None),
    ("mvgehd.cli", "solve", "solver.solve", _solve_counts),
    ("mvgehd.solver", "residual_row_weights", "solver.residual_row_weights", None),
    ("mvgehd.solver", "auto_view_weights", "solver.auto_view_weights", None),
    ("mvgehd.solver", "embedding_objective", "solver.embedding_objective", None),
    ("mvgehd.solver", "smallest_eigenpairs", "linalg.eig_solver", _eigh_gflop),
    ("mvgehd.clustering", "smallest_eigenpairs", "linalg.eig_spectral", None),
    ("mvgehd.cli", "cluster_subjects", "clustering.cluster_subjects", None),
    ("mvgehd.clustering", "pairwise_similarity", "clustering.pairwise_similarity", None),
    ("mvgehd.clustering", "kmeans", "clustering.kmeans", None),
    ("mvgehd.cli", "evaluate", "metrics.evaluate", None),
    ("mvgehd.cli", "hub_scores", "hubs.hub_scores", None),
    ("mvgehd.cli", "betweenness", "hubs.betweenness", None),
)


def _wrap(fn, name, recorder, counts):
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if counts is not None:
                span.counts.update(counts(args, kwargs, result))
        return result
    return wrapper


@contextlib.contextmanager
def instrumented(modules: dict, recorder: SpanRecorder):
    """Wrap every function in WRAPPED for the duration of the block."""
    originals = []
    try:
        for module_name, attr, name, counts in WRAPPED:
            module = modules[module_name]
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, _wrap(fn, name, recorder, counts))
        yield
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.span_id: s.duration - _union_length(children.get(s.span_id, ()))
            for s in spans}


def _quantile(values, q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one pipeline run, keyed by per_layer metric name."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def of(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.duration for s in of(name))

    def self_s(name):
        return sum(own[s.span_id] for s in of(name))

    def total(name, key):
        # fsum is exactly rounded, so the order in which pool threads
        # finished cannot change a computed count.
        return math.fsum(s.counts[key] for s in of(name))

    solves = of("solver.solve")
    solve_times = [s.duration for s in solves]
    solve_union = _union_length((s.start, s.end) for s in solves)
    out = {
        "graph.load_matrix_csv.calls": len(of("graph.load_matrix_csv")),
        "graph.load_matrix_csv.busy_s": busy("graph.load_matrix_csv"),
        "graph.load_matrix_csv.mb": total("graph.load_matrix_csv", "mb"),
        "graph.load_multiview.self_s": self_s("graph.load_multiview"),
        "graph.save_multiview.busy_s": busy("graph.save_multiview"),
        "synth.generate.busy_s": busy("synth.generate"),
        "solver.solve.calls": len(solves),
        "solver.solve.busy_s": sum(solve_times),
        "solver.solve.p50_s": _quantile(solve_times, 0.5),
        "solver.solve.p90_s": _quantile(solve_times, 0.9),
        "solver.solve.self_s": self_s("solver.solve"),
        "solver.iterations": total("solver.solve", "iterations"),
        "solver.converged_ratio": (total("solver.solve", "converged") / len(solves)
                                   if solves else 0.0),
        "solver.operator_build.gflop": total("solver.solve", "operator_gflop"),
        "linalg.eig_solver.gflop": total("linalg.eig_solver", "gflop"),
        "clustering.cluster_subjects.self_s": self_s("clustering.cluster_subjects"),
        "hubs.hub_scores.busy_s": busy("hubs.hub_scores"),
        "cli.cohort_parallelism": (sum(solve_times) / solve_union
                                   if solve_union > 0 else 0.0),
    }
    for name in ("solver.residual_row_weights", "solver.auto_view_weights",
                 "solver.embedding_objective"):
        out[f"{name}.busy_s"] = busy(name)
    for name in ("linalg.eig_solver", "linalg.eig_spectral",
                 "clustering.pairwise_similarity", "clustering.kmeans",
                 "metrics.evaluate", "hubs.betweenness"):
        out[f"{name}.calls"] = len(of(name))
        out[f"{name}.busy_s"] = busy(name)
    for command in ("generate", "embed", "hubs", "cluster-nodes", "evaluate", "sweep-k"):
        out[f"cli.{command}.wall_s"] = busy(f"cli.{command}")
    out["trace.self_sum_s"] = sum(own.values())
    return out
