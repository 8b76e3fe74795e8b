"""SciPy is loaded only by the stages that call it, and cohort workers
inherit it from their parent rather than importing it after the fork.

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
from mvgehd.cli import main

SRC = Path(mvgehd.__file__).resolve().parent.parent

SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

# Runs `main` on the command-line arguments; prints its exit code and the
# SciPy modules loaded by then.
RUN_MAIN = f"""
import json, sys
from mvgehd.cli import main
code = main(sys.argv[1:])
print(json.dumps({{"code": code, "scipy": {SCIPY_MODULES}}}))
"""

# Runs `main` with each cohort worker task wrapped to log, per task, the
# SciPy modules that appeared in the worker while it ran.
WATCH_WORKERS = f"""
import json, os, sys
import mvgehd.cli

LOG = os.environ["WATCH_LOG"]
solve_embedding, score_k = mvgehd.cli._solve_embedding, mvgehd.cli._score_k

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
    return watch("solve", solve_embedding, args, kwargs)

def watched_score(*args, **kwargs):
    return watch("score", score_k, args, kwargs)

mvgehd.cli._solve_embedding, mvgehd.cli._score_k = watched_solve, watched_score
print(json.dumps({{"code": mvgehd.cli.main(sys.argv[1:]), "pid": os.getpid()}}))
"""


def fresh(script, *args, **env):
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=environ,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def run_main(*argv):
    result = fresh(RUN_MAIN, *argv)
    assert result["code"] == 0
    return result["scipy"]


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """An n = 40 graph and its embedding, made in this process."""
    out = tmp_path_factory.mktemp("small")
    assert main(["generate", "--out", str(out / "g"), "--n", "40", "--clusters", "2",
                 "--hubs", "2", "--views", "2", "--seed", "3"]) == 0
    assert main(["embed", "--manifest", str(out / "g" / "manifest.json"), "--k", "2",
                 "--out", str(out / "emb")]) == 0
    return out


@pytest.mark.parametrize("module", ["mvgehd", "mvgehd.cli"])
def test_import_loads_no_scipy(module):
    assert fresh(f"import json, sys, {module}; print(json.dumps({SCIPY_MODULES}))") == []


@pytest.mark.parametrize("stage", ["generate", "hubs", "cluster-nodes"])
def test_stage_loads_no_scipy(small, tmp_path, stage):
    embedding = small / "emb" / "embedding.csv"
    argv = {
        "generate": ["--n", 40, "--clusters", 2, "--hubs", 2, "--seed", 3],
        "hubs": ["--method", "row_norm", "--embedding", embedding, "--hub-top", 2],
        "cluster-nodes": ["--embedding", embedding, "--k", 2, "--seed", 0],
    }[stage]
    assert run_main(stage, *argv, "--out", tmp_path / "out") == []


def test_small_embed_loads_only_dense_scipy(small, tmp_path):
    loaded = run_main("embed", "--manifest", small / "g" / "manifest.json", "--k", 2,
                      "--out", tmp_path / "emb")
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.sparse")]


@pytest.fixture(scope="module")
def cohort_n200(tmp_path_factory):
    """Subjects at n = 200, whose solves run matrix-free, so the workers'
    tasks reach every SciPy module a cohort command uses."""
    out = tmp_path_factory.mktemp("cohort200") / "c"
    assert main(["generate", "--out", str(out), "--n", "200", "--clusters", "4",
                 "--hubs", "5", "--views", "2", "--seed", "11", "--cohort", "2,2",
                 "--b-clusters", "2", "--b-seed", "22"]) == 0
    return out


@pytest.mark.parametrize("command", ["cluster-subjects", "sweep-k"])
def test_workers_import_no_scipy_after_fork(cohort_n200, tmp_path, command):
    flags = {"cluster-subjects": ["--embed-k", 3],
             "sweep-k": ["--truth", cohort_n200 / "cohort_truth.json",
                         "--k-min", 3, "--k-max", 3, "--repeats", 1]}[command]
    log = tmp_path / "tasks.jsonl"
    result = fresh(WATCH_WORKERS, command, "--cohort", cohort_n200 / "cohort.json",
                   *flags, "--max-iters", 2, "--seed", 0, "--out", tmp_path / "out.json",
                   WATCH_LOG=str(log), MVGEHD_THREADS="2")
    assert result["code"] == 0
    tasks = [json.loads(line) for line in log.read_text().splitlines()]
    want = {"cluster-subjects": {"solve"}, "sweep-k": {"solve", "score"}}[command]
    assert {name for name, _, _ in tasks} == want
    assert len([name for name, _, _ in tasks if name == "solve"]) == 4
    assert all(pid != result["pid"] for _, pid, _ in tasks)
    assert [imported for _, _, imported in tasks] == [[]] * len(tasks)
