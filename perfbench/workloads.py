"""The benchmark's workloads: inputs, CLI pipeline, output checks, quality.

Each workload makes its inputs with `mvgehd generate` from the benchmark
seed, then runs a fixed pipeline of CLI invocations. Checks and quality
scores read the pipeline's output files after the timed region.

- embed-n800: one n=800 graph with 6 modules, 8 hubs and 3 views, the last
  pure noise. The dense O(n^3) solver and linalg path does almost all the
  work; file loads are few and large and clustering is trivial.
- cohort-sweep: the README cohort (20 + 20 subjects, n=60, 2 views) swept
  over k = 5..15 with 20 clustering repeats: 440 tiny solves where per-call
  overhead, thread-pool and BLAS oversubscription, 880 small CSV loads and
  the subject clustering layers cost more than flops. Never calls
  betweenness.
- hubs-betweenness: an n=200 graph whose run is dominated by the
  pure-Python Brandes betweenness; the solver does little and the cohort
  layers are bypassed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# A check fails only on gross breakage; smaller quality losses show in the
# bounded `quality` metric instead.
MIN_RECOVERY = 0.9
ORTHONORMAL_TOL = 1e-8
BETWEENNESS_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, Path], list]        # (seed, inputs) -> argv
    pipeline: Callable[[int, Path, Path], list]  # (seed, inputs, out) -> [argv]
    # (inputs, out) -> ({check: passed}, {per-layer quality metric: score})
    evaluate: Callable[[Path, Path], tuple]


def _read(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def _recall(selected, planted) -> float:
    planted = set(planted)
    return len(planted & set(selected)) / len(planted)


def _embed_n800_generate(seed, inputs):
    return ["generate", "--out", str(inputs), "--n", "800", "--clusters", "6",
            "--hubs", "8", "--views", "3", "--view-quality", "1.0,0.6,0.0",
            "--p-intra", "0.5", "--noise", "0.02", "--seed", str(seed)]


def _embed_n800_pipeline(seed, inputs, out):
    emb = out / "emb"
    return [
        ["embed", "--manifest", str(inputs / "manifest.json"), "--k", "5",
         "--out", str(emb)],
        ["hubs", "--method", "row_norm", "--embedding", str(emb / "embedding.csv"),
         "--hub-top", "8", "--out", str(out / "hubs.json")],
        ["cluster-nodes", "--embedding", str(emb / "embedding.csv"), "--k", "6",
         "--seed", str(seed), "--out", str(out / "labels.json")],
        ["evaluate", "--pred", str(out / "labels.json"),
         "--truth", str(inputs / "truth.json"), "--out", str(out / "eval.json")],
    ]


def _embed_n800_evaluate(inputs, out):
    f = np.loadtxt(out / "emb" / "embedding.csv", delimiter=",", ndmin=2)
    gram_error = float(np.max(np.abs(f.T @ f - np.eye(f.shape[1]))))
    node_nmi = float(_read(out / "eval.json")["nmi"])
    hub_recall = _recall(_read(out / "hubs.json")["selected"],
                         _read(inputs / "truth.json")["hub_set"])
    alphas = _read(out / "emb" / "weights.json")["alphas"]
    checks = {
        "embedding_orthonormal": gram_error <= ORTHONORMAL_TOL,
        "node_nmi": node_nmi >= MIN_RECOVERY,
        "hub_recall": hub_recall >= MIN_RECOVERY,
        "noise_view_weighted_lowest": int(np.argmin(alphas)) == len(alphas) - 1,
    }
    return checks, {"metrics.node_nmi": node_nmi, "hubs.row_norm_recall": hub_recall}


def _cohort_generate(seed, inputs):
    return ["generate", "--out", str(inputs), "--n", "60", "--clusters", "4",
            "--hubs", "5", "--views", "2", "--seed", str(seed),
            "--cohort", "20,20", "--b-clusters", "2", "--b-seed", str(seed + 1)]


def _cohort_pipeline(seed, inputs, out):
    return [["sweep-k", "--cohort", str(inputs / "cohort.json"),
             "--truth", str(inputs / "cohort_truth.json"),
             "--k-min", "5", "--k-max", "15", "--repeats", "20",
             "--seed", str(seed), "--out", str(out / "sweep.json")]]


def _cohort_evaluate(inputs, out):
    rows = _read(out / "sweep.json")["rows"]
    scores = [r[key] for r in rows for key in ("acc_mean", "nmi_mean")]
    checks = {
        "sweep_rows_k5_to_k15": [r["k"] for r in rows] == list(range(5, 16)),
        "sweep_scores_in_unit_interval": all(0.0 <= s <= 1.0 for s in scores),
    }
    return checks, {"metrics.subject_acc_mean": float(np.mean([r["acc_mean"] for r in rows]))}


def _hubs_generate(seed, inputs):
    return ["generate", "--out", str(inputs), "--n", "200", "--clusters", "4",
            "--hubs", "6", "--views", "2", "--seed", str(seed)]


def _hubs_pipeline(seed, inputs, out):
    emb = out / "emb"
    return [
        ["embed", "--manifest", str(inputs / "manifest.json"), "--k", "3",
         "--out", str(emb)],
        ["hubs", "--method", "row_norm", "--embedding", str(emb / "embedding.csv"),
         "--hub-top", "6", "--out", str(out / "hubs.json")],
        ["hubs", "--method", "betweenness", "--manifest", str(inputs / "manifest.json"),
         "--view", "0", "--hub-top", "6", "--out", str(out / "betweenness.json")],
    ]


def _networkx_betweenness(view: np.ndarray) -> np.ndarray:
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(view.shape[0]))
    rows, cols = np.nonzero(np.triu(view, 1))
    graph.add_weighted_edges_from(
        ((int(i), int(j), 1.0 / view[i, j]) for i, j in zip(rows, cols)), weight="dist")
    scores = nx.betweenness_centrality(graph, weight="dist", normalized=False)
    return np.array([scores[i] for i in range(view.shape[0])])


def _hubs_evaluate(inputs, out):
    planted = _read(inputs / "truth.json")["hub_set"]
    report = _read(out / "betweenness.json")
    view = np.loadtxt(inputs / _read(inputs / "manifest.json")["views"][0],
                      delimiter=",", ndmin=2)
    oracle = _networkx_betweenness(view)
    hub_recall = _recall(_read(out / "hubs.json")["selected"], planted)
    betweenness_recall = _recall(report["selected"], planted)
    checks = {
        "betweenness_matches_networkx": bool(np.allclose(
            report["scores"], oracle, rtol=BETWEENNESS_TOL, atol=BETWEENNESS_TOL)),
        "hub_recall": hub_recall >= MIN_RECOVERY,
        "betweenness_hub_recall": betweenness_recall >= MIN_RECOVERY,
    }
    return checks, {"hubs.row_norm_recall": hub_recall,
                    "hubs.betweenness_recall": betweenness_recall}


WORKLOADS = {w.name: w for w in (
    Workload("embed-n800", _embed_n800_generate, _embed_n800_pipeline,
             _embed_n800_evaluate),
    Workload("cohort-sweep", _cohort_generate, _cohort_pipeline, _cohort_evaluate),
    Workload("hubs-betweenness", _hubs_generate, _hubs_pipeline, _hubs_evaluate),
)}
