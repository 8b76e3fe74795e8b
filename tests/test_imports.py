"""SciPy is loaded only by the stages that call it, cohort workers
inherit it from their parent rather than importing it after the fork, the
workers that format large view files import nothing, and the pool modules
are loaded only by a command that starts workers.

Each case runs in a fresh interpreter, because this test process has long
since imported SciPy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mvgehd
import mvgehd.graph
import mvgehd.solver
from mvgehd.cli import main
from mvgehd.graph import load_multiview

SRC = Path(mvgehd.__file__).resolve().parent.parent

SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
# concurrent.futures itself comes with numpy.testing, which SciPy imports;
# its process pool is a module of its own.
POOL_MODULES = ("sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing' "
                "or m == 'concurrent.futures.process')")

# Runs `main` on the command-line arguments; prints its exit code and the
# SciPy and pool modules loaded by then.
RUN_MAIN = f"""
import json, sys
from mvgehd.cli import main
code = main(sys.argv[1:])
print(json.dumps({{"code": code, "scipy": {SCIPY_MODULES}, "pool": {POOL_MODULES}}}))
"""

# Runs `main` with each cohort worker task wrapped to log, per task, the
# SciPy modules that appeared in the worker while it ran.
WATCH_WORKERS = f"""
import json, os, sys
import mvgehd.cli

LOG = os.environ["WATCH_LOG"]
embed_subject, score_k = mvgehd.cli._embed_subject, mvgehd.cli._score_k

def scipy_modules():
    return set({SCIPY_MODULES})

def watch(name, task, args, kwargs):
    before = scipy_modules()
    try:
        return task(*args, **kwargs)
    finally:
        with open(LOG, "a") as log:
            log.write(json.dumps([name, os.getpid(), sorted(scipy_modules() - before)]) + "\\n")

def watched_solve(*args, **kwargs):
    return watch("solve", embed_subject, args, kwargs)

def watched_score(*args, **kwargs):
    return watch("score", score_k, args, kwargs)

mvgehd.cli._embed_subject, mvgehd.cli._score_k = watched_solve, watched_score
print(json.dumps({{"code": mvgehd.cli.main(sys.argv[1:]), "pid": os.getpid()}}))
"""


# Runs `main` with each cohort worker task wrapped to log, per task, every
# SciPy module the worker holds once the task is done; prints the exit code
# and the SciPy modules of the parent.
LIST_WORKERS = f"""
import json, os, sys
import mvgehd.cli

LOG = os.environ["WATCH_LOG"]
embed_subject, score_k = mvgehd.cli._embed_subject, mvgehd.cli._score_k

def listed(name, task, args, kwargs):
    try:
        return task(*args, **kwargs)
    finally:
        with open(LOG, "a") as log:
            log.write(json.dumps([name, os.getpid(), {SCIPY_MODULES}]) + "\\n")

def listed_solve(*args, **kwargs):
    return listed("solve", embed_subject, args, kwargs)

def listed_score(*args, **kwargs):
    return listed("score", score_k, args, kwargs)

mvgehd.cli._embed_subject, mvgehd.cli._score_k = listed_solve, listed_score
code = mvgehd.cli.main(sys.argv[1:])
print(json.dumps({{"code": code, "pid": os.getpid(), "scipy": {SCIPY_MODULES}}}))
"""


# Runs `main` with the function that formats a block of rows wrapped to
# log, per block, the process and the SciPy modules it holds.
WATCH_BLOCKS = f"""
import json, os, sys
import mvgehd.cli, mvgehd.graph

LOG = os.environ["WATCH_LOG"]
rows_text = mvgehd.graph._rows_text

def watched_rows_text(*args):
    try:
        return rows_text(*args)
    finally:
        with open(LOG, "a") as log:
            log.write(json.dumps([os.getpid(), {SCIPY_MODULES}]) + "\\n")

mvgehd.graph._rows_text = watched_rows_text
print(json.dumps({{"code": mvgehd.cli.main(sys.argv[1:]), "pid": os.getpid()}}))
"""

# Views at this n are 4.6 MB, more than graph.BLOCK_BYTES, so each is
# graph.FILE_BLOCKS blocks.
BLOCKS_N = 500


def fresh(script, *args, **env):
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=environ,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def run_main(*argv, **env):
    """The SciPy and pool modules a fresh run of `main` on argv loads."""
    result = fresh(RUN_MAIN, *argv, **env)
    assert result["code"] == 0
    return result


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """An n = 40 graph, its embedding and node labels, made in this process."""
    out = tmp_path_factory.mktemp("small")
    assert main(["generate", "--out", str(out / "g"), "--n", "40", "--clusters", "2",
                 "--hubs", "2", "--views", "2", "--seed", "3"]) == 0
    assert main(["embed", "--manifest", str(out / "g" / "manifest.json"), "--k", "2",
                 "--out", str(out / "emb")]) == 0
    assert main(["cluster-nodes", "--embedding", str(out / "emb" / "embedding.csv"),
                 "--k", "3", "--seed", "0", "--out", str(out / "labels.json")]) == 0
    return out


@pytest.mark.parametrize("module", ["mvgehd", "mvgehd.cli"])
def test_import_loads_no_scipy(module):
    assert fresh(f"import json, sys, {module}; print(json.dumps({SCIPY_MODULES}))") == []


@pytest.mark.parametrize("stage", ["generate", "generate-blocks", "hubs", "cluster-nodes",
                                   "evaluate"])
def test_stage_loads_no_scipy(small, tmp_path, stage):
    embedding = small / "emb" / "embedding.csv"
    argv = {
        "generate": ["generate", "--n", 40, "--clusters", 2, "--hubs", 2, "--seed", 3],
        # Written in blocks on two worker processes.
        "generate-blocks": ["generate", "--n", BLOCKS_N, "--clusters", 4, "--hubs", 6,
                            "--seed", 5],
        "hubs": ["hubs", "--method", "row_norm", "--embedding", embedding, "--hub-top", 2],
        "cluster-nodes": ["cluster-nodes", "--embedding", embedding, "--k", 2, "--seed", 0],
        "evaluate": ["evaluate", "--pred", small / "labels.json",
                     "--truth", small / "g" / "truth.json"],
    }[stage]
    assert run_main(*argv, "--out", tmp_path / "out", MVGEHD_THREADS="2")["scipy"] == []


@pytest.mark.parametrize("command", ["generate"])
def test_block_workers_import_nothing(tmp_path, command):
    argv = ["--n", BLOCKS_N, "--clusters", 4, "--hubs", 6, "--seed", 5, "--out", tmp_path / "g"]
    log = tmp_path / "blocks.jsonl"
    result = fresh(WATCH_BLOCKS, command, *argv, WATCH_LOG=str(log), MVGEHD_THREADS="2")
    assert result["code"] == 0
    assert (tmp_path / "g" / "view_0.csv").stat().st_size > 2 * mvgehd.graph.BLOCK_BYTES
    blocks = [json.loads(line) for line in log.read_text().splitlines()]
    in_workers = [modules for pid, modules in blocks if pid != result["pid"]]
    # At least two blocks of each of the two view files.
    assert len(in_workers) >= 4
    assert in_workers == [[]] * len(in_workers)


def test_small_embed_loads_only_dense_scipy(small, tmp_path):
    loaded = run_main("embed", "--manifest", small / "g" / "manifest.json", "--k", 2,
                      "--out", tmp_path / "emb")["scipy"]
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.sparse")]


def test_hubs_spec_embed_at_n200_loads_only_dense_scipy(tmp_path):
    # The hubs benchmark's graph and k: connected, and below the matrix-free
    # crossover, so it solves dense.
    g = tmp_path / "g"
    assert main(["generate", "--out", str(g), "--n", "200", "--clusters", "4",
                 "--hubs", "6", "--views", "2", "--seed", "1"]) == 0
    assert not mvgehd.solver._matrix_free_applies(load_multiview(g / "manifest.json"), 3)
    loaded = run_main("embed", "--manifest", g / "manifest.json", "--k", 3,
                      "--out", tmp_path / "emb")["scipy"]
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.sparse")]


@pytest.mark.parametrize("stage", ["generate", "embed", "hubs", "hubs-betweenness",
                                   "cluster-nodes", "evaluate"])
def test_single_graph_commands_load_no_pool_modules(small, tmp_path, stage):
    manifest, embedding = small / "g" / "manifest.json", small / "emb" / "embedding.csv"
    argv = {
        # Files of one block each, so no worker starts.
        "generate": ["generate", "--n", 40, "--clusters", 2, "--hubs", 2, "--seed", 3],
        "embed": ["embed", "--manifest", manifest, "--k", 2],
        "hubs": ["hubs", "--method", "row_norm", "--embedding", embedding, "--hub-top", 2],
        "hubs-betweenness": ["hubs", "--method", "betweenness", "--manifest", manifest,
                             "--hub-top", 2],
        "cluster-nodes": ["cluster-nodes", "--embedding", embedding, "--k", 2, "--seed", 0],
        "evaluate": ["evaluate", "--pred", small / "labels.json",
                     "--truth", small / "g" / "truth.json"],
    }[stage]
    assert run_main(*argv, "--out", tmp_path / "out", MVGEHD_THREADS="2")["pool"] == []


@pytest.fixture(scope="module")
def cohort_matrix_free(tmp_path_factory):
    """Subjects at n = 320, whose solves at k = 3 run matrix-free, so the
    workers' tasks reach every SciPy module a cohort command uses."""
    out = tmp_path_factory.mktemp("cohort320") / "c"
    assert main(["generate", "--out", str(out), "--n", "320", "--clusters", "4",
                 "--hubs", "5", "--views", "2", "--seed", "11", "--cohort", "2,2",
                 "--b-clusters", "2", "--b-seed", "22"]) == 0
    subjects = json.loads((out / "cohort.json").read_text())["subjects"]
    assert all(mvgehd.solver._matrix_free_applies(load_multiview(out / s), 3)
               for s in subjects)
    return out


@pytest.mark.parametrize("command", ["cluster-subjects", "sweep-k"])
def test_workers_import_no_scipy_after_fork(cohort_matrix_free, tmp_path, command):
    flags = {"cluster-subjects": ["--embed-k", 3],
             # k = 3 solves matrix-free and k = 4 dense.
             "sweep-k": ["--truth", cohort_matrix_free / "cohort_truth.json",
                         "--k-min", 3, "--k-max", 4, "--repeats", 1]}[command]
    log = tmp_path / "tasks.jsonl"
    result = fresh(WATCH_WORKERS, command, "--cohort", cohort_matrix_free / "cohort.json",
                   *flags, "--max-iters", 2, "--seed", 0, "--out", tmp_path / "out.json",
                   WATCH_LOG=str(log), MVGEHD_THREADS="2")
    assert result["code"] == 0
    tasks = [json.loads(line) for line in log.read_text().splitlines()]
    want = {"cluster-subjects": {"solve"}, "sweep-k": {"solve", "score"}}[command]
    assert {name for name, _, _ in tasks} == want
    assert len([name for name, _, _ in tasks if name == "solve"]) == 4
    assert all(pid != result["pid"] for _, pid, _ in tasks)
    assert [imported for _, _, imported in tasks] == [[]] * len(tasks)


@pytest.fixture(scope="module")
def cohort_n60(tmp_path_factory):
    """A small cohort at n = 60, the size of the cohort benchmark's subjects."""
    out = tmp_path_factory.mktemp("cohort60") / "c"
    assert main(["generate", "--out", str(out), "--n", "60", "--clusters", "4",
                 "--hubs", "5", "--views", "2", "--seed", "11", "--cohort", "3,3",
                 "--b-clusters", "2", "--b-seed", "22"]) == 0
    return out


@pytest.mark.parametrize("command", ["cluster-subjects", "sweep-k"])
def test_cohort_commands_load_no_scipy_optimize(cohort_n60, tmp_path, command):
    flags = {"cluster-subjects": ["--embed-k", 3, "--k", 2],
             "sweep-k": ["--truth", cohort_n60 / "cohort_truth.json",
                         "--k-min", 3, "--k-max", 4, "--repeats", 2]}[command]
    log = tmp_path / "tasks.jsonl"
    result = fresh(LIST_WORKERS, command, "--cohort", cohort_n60 / "cohort.json",
                   *flags, "--seed", 0, "--out", tmp_path / "out.json",
                   WATCH_LOG=str(log), MVGEHD_THREADS="2")
    assert result["code"] == 0
    tasks = [json.loads(line) for line in log.read_text().splitlines()]
    want = {"cluster-subjects": {"solve"}, "sweep-k": {"solve", "score"}}[command]
    assert {name for name, _, _ in tasks} == want
    assert all(pid != result["pid"] for _, pid, _ in tasks)
    held = [result["scipy"]] + [modules for _, _, modules in tasks]
    assert all("scipy.linalg" in modules for modules in held)
    assert not [m for modules in held for m in modules if m.startswith("scipy.optimize")]
    # Subjects at n = 60 solve dense at every k here.
    assert not [m for modules in held for m in modules if m.startswith("scipy.sparse")]
