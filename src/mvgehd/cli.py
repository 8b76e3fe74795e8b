"""Command-line interface.

One subcommand per pipeline stage, composed through files:

  generate          synthetic graph or two-cohort dataset (manifest + CSVs + truth)
  embed             fit the multi-view embedding for one graph
  hubs              score and select hubs (embedding row norms or betweenness)
  cluster-nodes     k-means over embedding rows
  cluster-subjects  embed a cohort and spectrally cluster the subjects
  evaluate          ACC / NMI of predicted labels against truth labels
  sweep-k           embed a cohort over a grid of k and report mean +/- std

Structured outputs are JSON; matrices are headerless CSV. Every JSON result
embeds the invoking configuration and the library version, so identical
configs and seeds reproduce results bit for bit. Failures print a
machine-readable JSON object to stderr and exit nonzero.

Each command runs its tasks on at most one pool of worker processes,
started with fork at the first task, which yields results in task order.
The pool's modules (multiprocessing, concurrent.futures) are imported
there too, so a command that starts no worker does not load them.
Cohort commands (cluster-subjects, sweep-k) read every subject in this
process and check that the subjects share one node count n with room for
the embedding dimension; then the workers embed each subject, at every k
asked for, in one task, and sweep-k scores each k in one task. generate
writes the view files that are larger than graph.BLOCK_BYTES in blocks of
rows, on at most 8 workers, so a graph whose files each fit in one block
starts none. embed and hubs read their files in this process and start no
worker. The MVGEHD_THREADS environment variable caps the worker processes
(default: the cores this process may run on); the commands that start
workers check it before any view file is read or written, and at 1 no
worker starts: every task runs in this process. A worker exits once this
process is gone.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import sys
import time
from dataclasses import asdict
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import KMeansConfig, cluster_subjects, kmeans, node_clusters, spectral_rows
from .graph import (ISOLATED_POLICIES, load_matrix_csv, load_multiview, load_view,
                    read_manifest, save_matrix_csv, save_multiview)
from .hubs import HUB_METHODS, betweenness, check_selection, hub_report, hub_scores
from .metrics import as_labels, evaluate
from .solver import EmbedConfig, _matrix_free_applies, solve
from .synth import PlantedSpec, generate_cohort, generate_multiview


def _worker_count() -> int:
    env = os.environ.get("MVGEHD_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(f"MVGEHD_THREADS must be an integer >= 1, got {env!r}")
        return count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _plain(obj):
    """JSON form of numpy arrays and scalars, and of paths; TypeError otherwise."""
    return obj.tolist() if isinstance(obj, (np.ndarray, np.generic)) else os.fspath(obj)


def _write_json(path, payload: dict, args: argparse.Namespace) -> None:
    """Write every JSON result: `payload` plus the run config and version."""
    payload = dict(payload)
    payload["config"] = {k: v for k, v in vars(args).items() if k != "func"}
    payload["version"] = __version__
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, default=_plain) + "\n")


def _amend_json(path, args: argparse.Namespace) -> None:
    """Embed the run config and version into an already-written JSON file."""
    _write_json(path, json.loads(Path(path).read_text()), args)


def _read_labels(path) -> np.ndarray:
    obj = json.loads(Path(path).read_text())
    if "labels" not in obj:
        raise ValueError(f"{path} has no 'labels' field")
    return as_labels(obj["labels"])


def _parse_weights(text: str | None):
    if text is None:
        return None
    return tuple(float(x) for x in text.split(","))


def _parse_quality(text: str | None):
    if text is None:
        return PlantedSpec.view_quality
    parts = tuple(float(x) for x in text.split(","))
    return parts[0] if len(parts) == 1 else parts


def _embed_config(args: argparse.Namespace, k: int | None = None) -> EmbedConfig:
    return EmbedConfig(
        k=args.k if k is None else k,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        rel_tol=args.tol,
        weights=_parse_weights(args.weights),
        isolated_policy=args.isolated_policy,
    )


# Most workers generate starts to format file blocks. With one block queued
# beyond them, the parent holds at most 9 of a file's 64 blocks
# (graph.FILE_BLOCKS), about 0.3 of a view's 8 n^2 bytes as text.
_FILE_WORKERS = 8


def _exit_with_parent(parent: int) -> None:
    """Start a worker's watch on `parent`, the process that made its pool:
    once that is gone, the worker exits. A worker waits on its task queue,
    whose writing end it holds itself, so it would otherwise outlive a
    command killed by a signal, reparented and idle, holding its memory."""
    import threading

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@contextlib.contextmanager
def _ordered_map(workers: int):
    """A map that runs its tasks on `workers` worker processes and yields
    their results in order.

    With one worker it is the builtin map and no process starts. Otherwise
    the pool is made at the first task, so a command that maps nothing
    makes none. Threads would serialize the work, which is Python code, on
    the interpreter lock. Fork, named explicitly, starts workers fastest and
    needs no `__main__` guard in callers that run `main` in-process; each
    worker inherits the imported package and runs the functions it is
    handed, looked up by name, on their pickled arguments. The map keeps one
    task beyond the workers in flight, so the parent holds a few results,
    never every one done ahead of a slow one. Each worker exits within a
    second of the parent's death (see _exit_with_parent).
    """
    if workers == 1:
        yield map
        return
    pool = None

    def ordered_map(fn, *iterables):
        nonlocal pool
        if pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=multiprocessing.get_context("fork"),
                                       initializer=_exit_with_parent,
                                       initargs=(os.getpid(),))
        in_flight = collections.deque()
        for args in zip(*iterables):
            in_flight.append(pool.submit(fn, *args))
            if len(in_flight) > workers:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()

    try:
        yield ordered_map
    finally:
        # Waits for the tasks in flight. With cancel_futures=True, Python
        # 3.11's shutdown never returns once a task has failed to pickle.
        if pool is not None:
            pool.shutdown()


def _embed_subject(graph, configs) -> list:
    """One subject's embedding under each config, as one task."""
    return [solve(graph, config)[0] for config in configs]


def _load_cohort(manifests: list, ks, flag: str) -> list:
    """Every subject's graph, read in this process. Raises unless the
    subjects share one node count n and the largest embedding dimension k
    in `ks`, the value of `flag`, has k + 1 <= n, which a solve or the
    scoring would otherwise find only after others."""
    graphs = [load_multiview(manifest) for manifest in manifests]
    n = graphs[0].n
    for manifest, graph in zip(manifests, graphs):
        if graph.n != n:
            raise ValueError(
                f"subject {manifest} has {graph.n} nodes, but {manifests[0]} has {n}")
    k_max = max(ks)
    if k_max + 1 > n:
        raise ValueError(f"need {flag} + 1 <= {n}, the subjects' node count, got {flag} {k_max}")
    # Imported before the first task forks the workers, which inherit them;
    # otherwise each worker imports them on its first task, about 0.5 s of
    # CPU each. Only matrix-free solves reach `scipy.sparse.linalg`, about
    # 3.5 MB of the cohort benchmark's peak RSS.
    import scipy.linalg  # noqa: F401
    if any(_matrix_free_applies(graph, k) for graph in graphs for k in ks):
        import scipy.sparse.linalg  # noqa: F401
    return graphs


def _spec_from_args(args: argparse.Namespace, side: str = "") -> PlantedSpec:
    def pick(name):
        if side:
            override = getattr(args, f"b_{name}")
            if override is not None:
                return override
        return getattr(args, name)

    return PlantedSpec(
        n=args.n,
        clusters=pick("clusters"),
        hubs=pick("hubs"),
        views=args.views,
        p_intra=pick("p_intra"),
        p_inter=pick("p_inter"),
        noise_sigma=pick("noise"),
        view_quality=_parse_quality(pick("view_quality")),
        hub_spread=pick("hub_spread"),
        seed=pick("seed"),
    )


def cmd_generate(args: argparse.Namespace) -> None:
    out = Path(args.out)
    spec_a = _spec_from_args(args)
    with _ordered_map(min(_worker_count(), _FILE_WORKERS)) as mapper:
        if args.cohort is None:
            graph, truth = generate_multiview(spec_a)
            _amend_json(save_multiview(graph, out, mapper), args)
            _write_json(out / "truth.json", asdict(truth), args)
            return
        try:
            count_a, count_b = (int(x) for x in args.cohort.split(","))
        except ValueError:
            raise ValueError(
                f"--cohort must be NA,NB (two integers), got {args.cohort!r}") from None
        spec_b = _spec_from_args(args, side="b")
        subjects, labels = generate_cohort(spec_a, spec_b, count_a, count_b)
        manifest_paths = []
        for i, graph in enumerate(subjects):
            manifest = save_multiview(graph, out / f"subject_{i:03d}", mapper)
            manifest_paths.append(str(manifest.relative_to(out)))
    _write_json(out / "cohort.json", {"subjects": manifest_paths, "labels": labels}, args)
    _write_json(out / "cohort_truth.json", {"labels": labels}, args)


def cmd_embed(args: argparse.Namespace) -> None:
    graph = load_multiview(args.manifest)
    embedding, alphas, trace = solve(graph, _embed_config(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix_csv(embedding, out / "embedding.csv")
    _write_json(out / "weights.json", {"alphas": alphas}, args)
    _write_json(out / "trace.json", asdict(trace), args)


def cmd_hubs(args: argparse.Namespace) -> None:
    if (args.hub_top is None) == (args.hub_threshold is None):
        raise ValueError("give exactly one of --hub-top or --hub-threshold")
    if args.method == "row_norm":
        if args.embedding is None:
            raise ValueError("--method row_norm needs --embedding")
        data, score = load_matrix_csv(args.embedding), hub_scores
    else:
        if args.manifest is None:
            raise ValueError("--method betweenness needs --manifest")
        # Only the scored view is read, so the other views' files are not
        # parsed or checked.
        paths, transform, _ = read_manifest(args.manifest)
        if not 0 <= args.view < len(paths):
            raise ValueError(f"--view {args.view} out of range for {len(paths)} views")
        data, score = load_view(paths[args.view], transform), betweenness
    # Checked before scoring, which for betweenness is O(n^3).
    check_selection(len(data), top=args.hub_top, threshold=args.hub_threshold)
    report = hub_report(score(data), args.method, top=args.hub_top,
                        threshold=args.hub_threshold)
    _write_json(args.out, asdict(report), args)


def cmd_cluster_nodes(args: argparse.Namespace) -> None:
    embedding = load_matrix_csv(args.embedding)
    labels = node_clusters(embedding, args.k,
                           KMeansConfig(restarts=args.restarts, seed=args.seed))
    _write_json(args.out, {"k": args.k, "labels": labels}, args)


def _cohort_manifests(cohort_path) -> list:
    cohort_path = Path(cohort_path)
    obj = json.loads(cohort_path.read_text())
    if "subjects" not in obj:
        raise ValueError(f"{cohort_path} has no 'subjects' field")
    # A cohort of one subject has nothing to cluster.
    if len(obj["subjects"]) < 2:
        raise ValueError(f"need at least 2 subjects, got {len(obj['subjects'])}")
    return [cohort_path.parent / p for p in obj["subjects"]]


def cmd_cluster_subjects(args: argparse.Namespace) -> None:
    kmeans_config = KMeansConfig(restarts=args.restarts, seed=args.seed)
    workers = _worker_count()
    manifests = _cohort_manifests(args.cohort)
    if not 1 <= args.k <= len(manifests):
        raise ValueError(f"need 1 <= --k <= {len(manifests)} subjects, got --k {args.k}")
    config = _embed_config(args, k=args.embed_k)
    graphs = _load_cohort(manifests, [args.embed_k], "--embed-k")
    with _ordered_map(workers) as mapper:
        embeddings = [runs[0] for runs in mapper(_embed_subject, graphs, repeat([config]))]
    labels = cluster_subjects(embeddings, args.k, kmeans_config)
    _write_json(args.out, {"k": args.k, "labels": labels}, args)


def cmd_evaluate(args: argparse.Namespace) -> None:
    result = evaluate(_read_labels(args.pred), _read_labels(args.truth))
    _write_json(args.out, asdict(result), args)


def _score_k(k: int, embeddings, truth, groups: int, repeats: int, restarts: int,
             seed: int | None) -> dict:
    """ACC / NMI mean and std over `repeats` seeded clusterings of one k's
    embeddings into `groups` clusters; the spectral step is shared, only
    k-means is reseeded."""
    rows = spectral_rows(embeddings, groups)
    accs, nmis = [], []
    for rep in range(repeats):
        rep_seed = int(np.random.SeedSequence(
            [0 if seed is None else seed, k, rep]).generate_state(1)[0])
        labels = kmeans(rows, groups, KMeansConfig(restarts=restarts, seed=rep_seed))
        result = evaluate(labels, truth)
        accs.append(result.acc)
        nmis.append(result.nmi)
    return {
        "k": k,
        "acc_mean": float(np.mean(accs)),
        "acc_std": float(np.std(accs)),
        "nmi_mean": float(np.mean(nmis)),
        "nmi_std": float(np.std(nmis)),
    }


def cmd_sweep_k(args: argparse.Namespace) -> None:
    if not 1 <= args.k_min <= args.k_max:
        raise ValueError(
            f"need 1 <= --k-min <= --k-max, got --k-min {args.k_min} --k-max {args.k_max}")
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    KMeansConfig(restarts=args.restarts, seed=args.seed)  # checks --restarts, --seed
    ks = range(args.k_min, args.k_max + 1)
    configs = [_embed_config(args, k=k) for k in ks]
    workers = _worker_count()
    manifests = _cohort_manifests(args.cohort)
    truth = _read_labels(args.truth)
    # Subjects are clustered into as many groups as the truth has.
    groups = len(np.unique(truth))
    if not 2 <= groups <= len(manifests):
        raise ValueError(
            f"need 2 <= truth groups <= {len(manifests)} subjects, got {groups} groups")
    if len(truth) != len(manifests):
        raise ValueError(f"{len(truth)} truth labels for {len(manifests)} subjects")
    graphs = _load_cohort(manifests, ks, "--k-max")
    with _ordered_map(workers) as mapper:
        per_subject = list(mapper(_embed_subject, graphs, repeat(configs)))
        score = partial(_score_k, truth=truth, groups=groups, repeats=args.repeats,
                        restarts=args.restarts, seed=args.seed)
        rows = list(mapper(score, ks, zip(*per_subject)))
    best = max(rows, key=lambda r: r["acc_mean"])
    _write_json(args.out, {"rows": rows, "best": best}, args)


def _add_embed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=EmbedConfig.epsilon,
                   help="residual smoothing constant (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=EmbedConfig.max_iters,
                   help="iteration cap (default %(default)s)")
    p.add_argument("--tol", type=float, default=EmbedConfig.rel_tol,
                   help="relative objective-change stopping threshold (default %(default)s)")
    p.add_argument("--isolated-policy", choices=ISOLATED_POLICIES,
                   default=EmbedConfig.isolated_policy,
                   help="zero-degree node handling (default %(default)s)")
    p.add_argument("--weights", type=str, default=None,
                   help="comma list of fixed view weights (disables auto-weighting)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvgehd",
        description="Auto-weighted multi-view graph embedding with hub detection.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a planted graph or cohort")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--clusters", type=int, default=2)
    p.add_argument("--hubs", type=int, default=0)
    p.add_argument("--views", type=int, default=2)
    p.add_argument("--seed", type=int, default=PlantedSpec.seed)
    p.add_argument("--p-intra", type=float, default=PlantedSpec.p_intra)
    p.add_argument("--p-inter", type=float, default=PlantedSpec.p_inter)
    p.add_argument("--noise", type=float, default=PlantedSpec.noise_sigma)
    p.add_argument("--view-quality", type=str, default=None,
                   help="comma list of per-view structure strengths in [0,1] "
                        f"(default {PlantedSpec.view_quality} for every view)")
    p.add_argument("--hub-spread", type=float, default=PlantedSpec.hub_spread)
    p.add_argument("--cohort", type=str, default=None, metavar="NA,NB",
                   help="generate NA+NB subjects instead of a single graph")
    for name, typ in (("clusters", int), ("hubs", int), ("seed", int),
                      ("p-intra", float), ("p-inter", float), ("noise", float),
                      ("hub-spread", float), ("view-quality", str)):
        p.add_argument(f"--b-{name}", type=typ, default=None,
                       help=f"cohort B override for --{name}")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("embed", help="fit the multi-view embedding of one graph")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--k", type=int, required=True, help="embedding dimension")
    p.add_argument("--out", type=Path, required=True)
    _add_embed_flags(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("hubs", help="score nodes and select hubs")
    p.add_argument("--method", choices=HUB_METHODS, default="row_norm")
    p.add_argument("--embedding", type=Path, default=None,
                   help="embedding CSV (row_norm method)")
    p.add_argument("--manifest", type=Path, default=None,
                   help="graph manifest (betweenness method)")
    p.add_argument("--view", type=int, default=0, help="view index for betweenness")
    p.add_argument("--hub-top", type=int, default=None)
    p.add_argument("--hub-threshold", type=float, default=None)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_hubs)

    p = sub.add_parser("cluster-nodes", help="k-means on embedding rows")
    p.add_argument("--embedding", type=Path, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--restarts", type=int, default=KMeansConfig.restarts)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_cluster_nodes)

    p = sub.add_parser("cluster-subjects", help="embed a cohort and cluster subjects")
    p.add_argument("--cohort", type=Path, required=True,
                   help="cohort JSON listing subject manifests")
    p.add_argument("--embed-k", type=int, required=True, help="per-subject embedding dimension")
    p.add_argument("--k", type=int, default=2, help="number of subject clusters")
    p.add_argument("--restarts", type=int, default=KMeansConfig.restarts)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=Path, required=True)
    _add_embed_flags(p)
    p.set_defaults(func=cmd_cluster_subjects)

    p = sub.add_parser("evaluate", help="ACC / NMI against truth labels")
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--truth", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep-k", help="grid-search the embedding dimension")
    p.add_argument("--cohort", type=Path, required=True)
    p.add_argument("--truth", type=Path, required=True)
    p.add_argument("--k-min", type=int, default=5)
    p.add_argument("--k-max", type=int, default=15)
    p.add_argument("--repeats", type=int, default=20,
                   help="clustering repetitions per k (reseeding k-means)")
    p.add_argument("--restarts", type=int, default=KMeansConfig.restarts)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=Path, required=True)
    _add_embed_flags(p)
    p.set_defaults(func=cmd_sweep_k)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # surfaced as machine-readable JSON, nonzero exit
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
