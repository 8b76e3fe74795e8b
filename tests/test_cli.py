"""End-to-end command-line flows in temporary directories."""

import concurrent.futures
import contextlib
import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

import mvgehd.cli
from mvgehd.cli import (_FILE_WORKERS, _embed_config, _ordered_map, _spec_from_args,
                        _worker_count, build_parser, main)
from mvgehd.clustering import KMeansConfig
from mvgehd.graph import load_matrix_csv, load_multiview, save_matrix_csv
from mvgehd.solver import EmbedConfig
from mvgehd.synth import PlantedSpec, planted_layout


def run(*argv):
    return main([str(a) for a in argv])


def read(path):
    return json.loads(path.read_text())


def running(pid: int) -> bool:
    """Whether process `pid` exists and is not a zombie."""
    try:
        os.kill(pid, 0)
        stat = Path(f"/proc/{pid}/stat")
        return not stat.exists() or stat.read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (ProcessLookupError, FileNotFoundError):
        return False


def without_config(path):
    obj = read(path)
    del obj["config"]
    return obj


def result_fields(path):
    """A JSON result without the run config and version every result carries."""
    obj = without_config(path)
    assert obj.pop("version") == mvgehd.__version__
    return obj


@pytest.fixture()
def generated(tmp_path):
    out = tmp_path / "g"
    assert run("generate", "--out", out, "--n", 40, "--clusters", 3, "--hubs", 3,
               "--views", 2, "--seed", 5) == 0
    return out


class TestGenerate:
    def test_writes_manifest_views_truth(self, generated):
        assert (generated / "manifest.json").exists()
        assert (generated / "view_0.csv").exists()
        assert (generated / "view_1.csv").exists()
        truth = read(generated / "truth.json")
        assert len(truth["labels"]) == 40
        assert len(truth["hub_set"]) == 3

    def test_truth_file_contents(self, generated):
        truth = planted_layout(PlantedSpec(n=40, clusters=3, hubs=3, views=2, seed=5))
        assert result_fields(generated / "truth.json") == {
            "labels": truth.labels.tolist(), "hub_set": truth.hub_set.tolist()}

    def test_embeds_config_and_version(self, generated):
        for name in ("manifest.json", "truth.json"):
            obj = read(generated / name)
            assert obj["version"]
            assert obj["config"]["seed"] == 5

    def test_rerun_bit_identical(self, generated, tmp_path):
        out2 = tmp_path / "g2"
        run("generate", "--out", out2, "--n", 40, "--clusters", 3, "--hubs", 3,
            "--views", 2, "--seed", 5)
        assert (out2 / "view_0.csv").read_text() == (generated / "view_0.csv").read_text()

    def test_cohort_layout(self, tmp_path):
        out = tmp_path / "c"
        assert run("generate", "--out", out, "--n", 20, "--clusters", 4, "--hubs", 2,
                   "--views", 2, "--seed", 1, "--cohort", "3,2", "--b-clusters", 2) == 0
        cohort = read(out / "cohort.json")
        assert len(cohort["subjects"]) == 5
        assert cohort["labels"] == [0, 0, 0, 1, 1]
        assert read(out / "cohort_truth.json")["labels"] == [0, 0, 0, 1, 1]
        assert (out / cohort["subjects"][0]).exists()

    @pytest.mark.parametrize("cohort", ["20", "20,20,5", "a,b"])
    def test_malformed_cohort(self, tmp_path, capsys, cohort):
        out = tmp_path / "c"
        assert run("generate", "--out", out, "--n", 20, "--cohort", cohort) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message":
                       f"--cohort must be NA,NB (two integers), got {cohort!r}"}
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--seed", -1],
                                       ["--cohort", "2,2", "--b-seed", -1]])
    def test_negative_seed_rejected(self, tmp_path, capsys, flags):
        out = tmp_path / "c"
        assert run("generate", "--out", out, "--n", 20, "--clusters", 2, *flags) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "seed must be an integer >= 0, got -1"}
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--b-clusters", 2], ["--b-seed", 4],
                                       ["--b-clusters", 2, "--b-seed", 4]])
    def test_group_b_flags_need_a_cohort(self, tmp_path, capsys, flags):
        out = tmp_path / "g"
        assert run("generate", "--out", out, "--n", 30, "--clusters", 3, *flags) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        for flag in ("--b-clusters", "--b-seed", "--cohort"):
            assert flag in err["message"]
        assert not out.exists()

    def test_group_b_is_group_a_with_its_flags(self, tmp_path, monkeypatch):
        specs = []
        generate_cohort = mvgehd.cli.generate_cohort

        def spy(spec_a, spec_b, *counts):
            specs.extend([spec_a, spec_b])
            return generate_cohort(spec_a, spec_b, *counts)

        monkeypatch.setattr("mvgehd.cli.generate_cohort", spy)
        assert run("generate", "--out", tmp_path / "c", "--n", 30, "--clusters", 3,
                   "--hubs", 2, "--views", 3, "--p-intra", 0.7, "--noise", 0.05,
                   "--view-quality", "1,0.5,0", "--hub-spread", 0.4, "--seed", 6,
                   "--cohort", "1,1", "--b-clusters", 2) == 0
        spec_a, spec_b = specs
        assert spec_b == dataclasses.replace(spec_a, clusters=2)
        assert spec_a.view_quality == (1.0, 0.5, 0.0) and spec_a.seed == 6


class TestEmbed:
    def test_writes_three_artifacts(self, generated, tmp_path):
        out = tmp_path / "emb"
        assert run("embed", "--manifest", generated / "manifest.json",
                   "--k", 2, "--out", out) == 0
        f = load_matrix_csv(out / "embedding.csv")
        assert f.shape == (40, 2)
        weights = read(out / "weights.json")
        assert len(weights["alphas"]) == 2
        trace = read(out / "trace.json")
        assert set(trace) >= {"objectives", "alpha_history", "iterations", "converged"}
        assert len(trace["objectives"]) == trace["iterations"] + 1

    def test_fixed_weights_mode_constant_history(self, generated, tmp_path):
        out = tmp_path / "emb"
        assert run("embed", "--manifest", generated / "manifest.json",
                   "--k", 2, "--weights", "0.5,0.5", "--out", out) == 0
        trace = read(out / "trace.json")
        assert all(row == [0.5, 0.5] for row in trace["alpha_history"])

    def test_invalid_k_nonzero_exit(self, generated, tmp_path, capsys):
        code = run("embed", "--manifest", generated / "manifest.json",
                   "--k", 0, "--out", tmp_path / "x")
        assert code != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] and err["message"]

    @pytest.mark.parametrize("flags, message", [
        (["--epsilon", "nan"], "epsilon"),
        (["--epsilon", "inf"], "epsilon"),
        (["--tol", "nan"], "rel_tol"),
        (["--tol", "inf"], "rel_tol"),
    ])
    def test_non_finite_solver_flags_rejected(self, generated, tmp_path, capsys,
                                              monkeypatch, flags, message):
        def fail(graph, config):
            raise AssertionError("solve ran with a non-finite solver flag")

        monkeypatch.setattr("mvgehd.cli.solve", fail)
        out = tmp_path / "emb"
        code = run("embed", "--manifest", generated / "manifest.json", "--k", 2,
                   *flags, "--out", out)
        assert code != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and message in err["message"]
        assert not out.exists()

    def test_rerun_bit_identical(self, generated, tmp_path):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        run("embed", "--manifest", generated / "manifest.json", "--k", 2, "--out", out1)
        run("embed", "--manifest", generated / "manifest.json", "--k", 2, "--out", out2)
        assert (out1 / "embedding.csv").read_text() == (out2 / "embedding.csv").read_text()


class TestHubsCommand:
    def test_row_norm_recovers_planted_hubs(self, generated, tmp_path):
        emb = tmp_path / "emb"
        run("embed", "--manifest", generated / "manifest.json", "--k", 2, "--out", emb)
        out = tmp_path / "hubs.json"
        assert run("hubs", "--method", "row_norm", "--embedding", emb / "embedding.csv",
                   "--hub-top", 3, "--out", out) == 0
        report = read(out)
        truth = read(generated / "truth.json")
        assert report["selected"] == truth["hub_set"]

    def test_betweenness_method(self, generated, tmp_path):
        out = tmp_path / "bc.json"
        assert run("hubs", "--method", "betweenness", "--manifest",
                   generated / "manifest.json", "--hub-top", 3, "--out", out) == 0
        report = read(out)
        assert report["method"] == "betweenness"
        assert len(report["selected"]) == 3
        assert sorted(report["ranking"]) == list(range(40))

    @pytest.mark.parametrize("method, threshold", [
        ("row_norm", "nan"), ("betweenness", "nan"), ("betweenness", "-1"),
    ])
    def test_bad_threshold_rejected(self, generated, tmp_path, capsys, monkeypatch,
                                    method, threshold):
        embedding = tmp_path / "embedding.csv"
        save_matrix_csv(np.array([[0.4], [0.1], [0.9]]), embedding)
        source = {"row_norm": ["--embedding", embedding],
                  "betweenness": ["--manifest", generated / "manifest.json"]}[method]
        calls = []
        real = mvgehd.cli.betweenness
        monkeypatch.setattr(mvgehd.cli, "betweenness",
                            lambda view: calls.append(1) or real(view))
        out = tmp_path / "h.json"
        code = run("hubs", "--method", method, *source, "--hub-threshold", threshold,
                   "--out", out)
        assert code != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "threshold" in err["message"]
        assert not out.exists()
        # The threshold is checked before the O(n^3) scoring.
        assert calls == []

    def test_non_finite_embedding_rejected(self, tmp_path, capsys):
        embedding = tmp_path / "embedding.csv"
        save_matrix_csv(np.array([[0.4], [np.nan], [0.9]]), embedding)
        out = tmp_path / "h.json"
        code = run("hubs", "--method", "row_norm", "--embedding", embedding,
                   "--hub-top", 1, "--out", out)
        assert code != 0
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "embedding contains non-finite entries"}
        assert not out.exists()

    def test_betweenness_reads_only_its_view(self, generated, tmp_path):
        want = tmp_path / "want.json"
        assert run("hubs", "--method", "betweenness", "--manifest",
                   generated / "manifest.json", "--view", 0, "--hub-top", 3,
                   "--out", want) == 0
        (generated / "view_1.csv").write_text("not,a\nmatrix\n")
        out = tmp_path / "bc.json"
        assert run("hubs", "--method", "betweenness", "--manifest",
                   generated / "manifest.json", "--view", 0, "--hub-top", 3,
                   "--out", out) == 0
        assert without_config(out) == without_config(want)

    @pytest.mark.parametrize("view", [2, -1])
    def test_betweenness_view_out_of_range(self, generated, tmp_path, capsys, view):
        code = run("hubs", "--method", "betweenness", "--manifest",
                   generated / "manifest.json", "--view", view, "--hub-top", 3,
                   "--out", tmp_path / "bc.json")
        assert code != 0
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": f"--view {view} out of range for 2 views"}

    def test_report_file_contents(self, tmp_path):
        embedding = tmp_path / "embedding.csv"
        save_matrix_csv(np.array([[0.4], [0.1], [0.9]]), embedding)
        out = tmp_path / "hubs.json"
        assert run("hubs", "--embedding", embedding, "--hub-top", 2, "--out", out) == 0
        assert result_fields(out) == {"method": "row_norm", "scores": [0.4, 0.1, 0.9],
                                      "ranking": [1, 0, 2], "selected": [0, 1]}

    def test_requires_selection_strategy(self, generated, tmp_path, capsys):
        emb = tmp_path / "emb"
        run("embed", "--manifest", generated / "manifest.json", "--k", 2, "--out", emb)
        code = run("hubs", "--embedding", emb / "embedding.csv",
                   "--out", tmp_path / "h.json")
        assert code != 0
        assert "hub-top" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("selection", [[], ["--hub-top", 3, "--hub-threshold", 1.0]])
    def test_selection_checked_before_scoring(self, generated, tmp_path, capsys,
                                              monkeypatch, selection):
        def fail(view):
            raise AssertionError("betweenness ran before the selection check")

        monkeypatch.setattr("mvgehd.cli.betweenness", fail)
        code = run("hubs", "--method", "betweenness", "--manifest",
                   generated / "manifest.json", *selection, "--out", tmp_path / "h.json")
        assert code != 0
        assert "hub-top" in json.loads(capsys.readouterr().err)["message"]


class TestClusterAndEvaluate:
    def test_node_clustering_pipeline(self, generated, tmp_path):
        emb = tmp_path / "emb"
        run("embed", "--manifest", generated / "manifest.json", "--k", 2, "--out", emb)
        labels_path = tmp_path / "labels.json"
        assert run("cluster-nodes", "--embedding", emb / "embedding.csv", "--k", 3,
                   "--seed", 0, "--out", labels_path) == 0
        labels = read(labels_path)
        assert labels["k"] == 3 and len(labels["labels"]) == 40
        eval_path = tmp_path / "eval.json"
        assert run("evaluate", "--pred", labels_path, "--truth",
                   generated / "truth.json", "--out", eval_path) == 0
        result = read(eval_path)
        assert result["acc"] >= 0.9 and 0.0 <= result["nmi"] <= 1.0

    def test_eval_file_contents(self, tmp_path):
        (tmp_path / "pred.json").write_text(json.dumps({"labels": [0, 0, 1]}))
        (tmp_path / "truth.json").write_text(json.dumps({"labels": [1, 1, 0]}))
        out = tmp_path / "eval.json"
        assert run("evaluate", "--pred", tmp_path / "pred.json",
                   "--truth", tmp_path / "truth.json", "--out", out) == 0
        assert result_fields(out) == {"acc": 1.0, "nmi": 1.0, "mapping": [1, 0]}

    def test_rejects_labels_that_are_not_whole_numbers(self, tmp_path, capsys):
        (tmp_path / "pred.json").write_text(json.dumps({"labels": [1.7, 0.2, 1.0]}))
        (tmp_path / "truth.json").write_text(json.dumps({"labels": [1, 0, 1]}))
        out = tmp_path / "eval.json"
        code = run("evaluate", "--pred", tmp_path / "pred.json",
                   "--truth", tmp_path / "truth.json", "--out", out)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "whole numbers" in err["message"]
        assert not out.exists()


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort") / "c"
    assert run("generate", "--out", out, "--n", 50, "--clusters", 4, "--hubs", 5,
               "--views", 2, "--seed", 11, "--cohort", "8,8",
               "--b-clusters", 2, "--b-seed", 22) == 0
    return out


class TestSubjectPipeline:
    def test_cluster_subjects_separates_cohorts(self, cohort_dir, tmp_path):
        out = tmp_path / "subj.json"
        assert run("cluster-subjects", "--cohort", cohort_dir / "cohort.json",
                   "--embed-k", 4, "--k", 2, "--seed", 0, "--out", out) == 0
        pred = read(out)
        assert pred["k"] == 2 and len(pred["labels"]) == 16
        eval_path = tmp_path / "ev.json"
        run("evaluate", "--pred", out, "--truth", cohort_dir / "cohort_truth.json",
            "--out", eval_path)
        assert read(eval_path)["acc"] >= 0.9

    def test_sweep_k_report_shape(self, cohort_dir, tmp_path):
        out = tmp_path / "sweep.json"
        assert run("sweep-k", "--cohort", cohort_dir / "cohort.json",
                   "--truth", cohort_dir / "cohort_truth.json",
                   "--k-min", 3, "--k-max", 5, "--repeats", 3,
                   "--seed", 1, "--out", out) == 0
        sweep = read(out)
        assert [r["k"] for r in sweep["rows"]] == [3, 4, 5]
        for row in sweep["rows"]:
            assert set(row) == {"k", "acc_mean", "acc_std", "nmi_mean", "nmi_std"}
        assert sweep["best"]["acc_mean"] == max(r["acc_mean"] for r in sweep["rows"])

    def test_thread_cap_env(self, cohort_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("MVGEHD_THREADS", "2")
        out = tmp_path / "subj.json"
        assert run("cluster-subjects", "--cohort", cohort_dir / "cohort.json",
                   "--embed-k", 3, "--k", 2, "--seed", 0, "--out", out) == 0

    def test_sweep_curve_peaks_interior(self, cohort_dir, tmp_path):
        # Too few dimensions underfit, too many add unstable directions, so
        # accuracy over k rises to an interior peak and falls off.
        out = tmp_path / "sweep.json"
        assert run("sweep-k", "--cohort", cohort_dir / "cohort.json",
                   "--truth", cohort_dir / "cohort_truth.json",
                   "--k-min", 3, "--k-max", 6, "--repeats", 2,
                   "--seed", 0, "--out", out) == 0
        rows = read(out)["rows"]
        means = [r["acc_mean"] for r in rows]
        best = int(np.argmax(means))
        assert 0 < best < len(means) - 1
        assert means[best] > means[0] and means[best] > means[-1]

    @pytest.mark.parametrize("command", ["cluster-subjects", "sweep-k"])
    def test_worker_count_does_not_change_output(self, cohort_dir, tmp_path,
                                                 monkeypatch, command):
        flags = {"cluster-subjects": ["--embed-k", 3, "--k", 2],
                 "sweep-k": ["--truth", cohort_dir / "cohort_truth.json",
                             "--k-min", 3, "--k-max", 5, "--repeats", 3]}[command]
        outputs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("MVGEHD_THREADS", workers)
            out = tmp_path / f"{workers}.json"
            assert run(command, "--cohort", cohort_dir / "cohort.json", *flags,
                       "--seed", 0, "--out", out) == 0
            outputs.append(without_config(out))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["cluster-subjects", "sweep-k"])
    def test_one_worker_starts_no_process(self, cohort_dir, tmp_path, monkeypatch, command):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was made")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("MVGEHD_THREADS", "1")
        flags = {"cluster-subjects": ["--embed-k", 3, "--k", 2],
                 "sweep-k": ["--truth", cohort_dir / "cohort_truth.json",
                             "--k-min", 3, "--k-max", 4, "--repeats", 2]}[command]
        assert run(command, "--cohort", cohort_dir / "cohort.json", *flags,
                   "--seed", 0, "--out", tmp_path / "out.json") == 0

    def test_task_that_cannot_be_pickled_fails_without_hanging(self, cohort_dir, tmp_path):
        # A lambda cannot be pickled by name, so the first task fails on
        # its way to a worker; the pool must still shut down. Run in a
        # fresh interpreter and its own process group, so a hang ends at the
        # timeout with the command and its workers killed.
        script = ("import sys, mvgehd.cli\n"
                  "mvgehd.cli._embed_subject = lambda graph, configs: None\n"
                  "sys.exit(mvgehd.cli.main(sys.argv[1:]))\n")
        src = Path(mvgehd.cli.__file__).resolve().parent.parent
        env = dict(os.environ, MVGEHD_THREADS="2", PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        argv = [sys.executable, "-c", script, "sweep-k",
                "--cohort", cohort_dir / "cohort.json", "--truth", cohort_dir / "cohort_truth.json",
                "--k-min", 3, "--k-max", 4, "--out", tmp_path / "sweep.json"]
        with subprocess.Popen([str(a) for a in argv], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                _, stderr = proc.communicate(timeout=60)
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
        assert proc.returncode == 1
        err = json.loads(stderr)
        assert err["error"] == "PicklingError" and "lambda" in err["message"]
        assert not (tmp_path / "sweep.json").exists()

    def test_workers_exit_when_the_command_is_killed(self, cohort_dir, tmp_path):
        # Each subject's embedding logs its worker's pid and sleeps, so the
        # command is killed with both workers in a task. It runs in a fresh
        # interpreter in its own session, so what is left can be killed.
        log = tmp_path / "pids.txt"
        script = ("import os, sys, time, mvgehd.cli\n"
                  "def slow_embed(graph, configs):\n"
                  "    with open(os.environ['PID_LOG'], 'a') as f:\n"
                  "        f.write(f'{os.getpid()}\\n')\n"
                  "    time.sleep(60)\n"
                  "mvgehd.cli._embed_subject = slow_embed\n"
                  "sys.exit(mvgehd.cli.main(sys.argv[1:]))\n")
        src = Path(mvgehd.cli.__file__).resolve().parent.parent
        env = dict(os.environ, MVGEHD_THREADS="2", PID_LOG=str(log), PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        argv = [sys.executable, "-c", script, "sweep-k",
                "--cohort", cohort_dir / "cohort.json", "--truth", cohort_dir / "cohort_truth.json",
                "--k-min", 3, "--k-max", 4, "--out", tmp_path / "sweep.json"]
        with subprocess.Popen([str(a) for a in argv], env=env,
                              start_new_session=True) as proc:
            try:
                deadline = time.monotonic() + 60
                while not log.exists() or len(set(log.read_text().split())) < 2:
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.05)
                workers = {int(pid) for pid in log.read_text().split()}
                proc.terminate()
                proc.wait(timeout=10)
                deadline = time.monotonic() + 5
                while any(map(running, workers)) and time.monotonic() < deadline:
                    time.sleep(0.1)
                assert not any(map(running, workers))
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)

    def test_sweep_loads_each_subject_once(self, cohort_dir, tmp_path, monkeypatch):
        # Every load appends a line to one file, whichever process it runs
        # in; the pool's two workers fork after the patch, so a load on a
        # worker would be counted too.
        log = tmp_path / "loads.txt"
        load = mvgehd.cli.load_multiview

        def counting_load(path):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {path}\n")
            return load(path)

        monkeypatch.setattr("mvgehd.cli.load_multiview", counting_load)
        monkeypatch.setenv("MVGEHD_THREADS", "2")
        assert run("sweep-k", "--cohort", cohort_dir / "cohort.json",
                   "--truth", cohort_dir / "cohort_truth.json",
                   "--k-min", 3, "--k-max", 5, "--repeats", 2,
                   "--seed", 0, "--out", tmp_path / "sweep.json") == 0
        pids, loaded = zip(*(line.split(" ", 1) for line in log.read_text().splitlines()))
        assert len(loaded) == 16 and len(set(loaded)) == 16
        assert set(pids) == {str(os.getpid())}

    @pytest.mark.parametrize("flags, message", [
        (["--k-min", 9, "--k-max", 5], "--k-min"),
        (["--k-min", 0, "--k-max", 5], "--k-min"),
        (["--repeats", 0], "--repeats"),
        (["--restarts", 0], "restarts"),
        (["--epsilon", "nan"], "epsilon"),
        (["--tol", "nan"], "rel_tol"),
    ])
    def test_sweep_arguments_checked_before_loading(self, cohort_dir, tmp_path, capsys,
                                                    monkeypatch, flags, message):
        def fail(path):
            raise AssertionError("a subject was loaded before the argument check")

        monkeypatch.setattr("mvgehd.cli.load_multiview", fail)
        out = tmp_path / "sweep.json"
        code = run("sweep-k", "--cohort", cohort_dir / "cohort.json",
                   "--truth", cohort_dir / "cohort_truth.json", *flags,
                   "--seed", 0, "--out", out)
        assert code != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and message in err["message"]
        assert not out.exists()

    def test_sweep_splits_into_the_truth_groups(self, cohort_dir, tmp_path):
        # Three distinct subjects, each listed three times: a split into
        # the truth's three groups scores 1, a split in two at most 6/9.
        subjects = read(cohort_dir / "cohort.json")["subjects"]
        cohort = tmp_path / "cohort.json"
        cohort.write_text(json.dumps({"subjects": [
            str(cohort_dir / subjects[i]) for i in (0, 0, 0, 8, 8, 8, 1, 1, 1)]}))
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"labels": [2, 2, 2, 0, 0, 0, 1, 1, 1]}))
        out = tmp_path / "sweep.json"
        assert run("sweep-k", "--cohort", cohort, "--truth", truth, "--k-min", 3,
                   "--k-max", 4, "--repeats", 2, "--seed", 0, "--out", out) == 0
        for row in read(out)["rows"]:
            assert row["acc_mean"] == row["nmi_mean"] == 1.0

    @pytest.mark.parametrize("labels, groups", [([0] * 16, 1), (list(range(17)), 17)])
    def test_sweep_truth_groups_checked_before_loading(self, cohort_dir, tmp_path, capsys,
                                                       monkeypatch, labels, groups):
        def fail(path):
            raise AssertionError("a subject was loaded before the truth check")

        monkeypatch.setattr("mvgehd.cli.load_multiview", fail)
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"labels": labels}))
        out = tmp_path / "sweep.json"
        code = run("sweep-k", "--cohort", cohort_dir / "cohort.json", "--truth", truth,
                   "--out", out)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message":
                       f"need 2 <= truth groups <= 16 subjects, got {groups} groups"}
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--restarts", 0], "restarts"),
        (["--k", 0], "--k"),
        (["--k", 17], "--k"),  # the cohort has 16 subjects
        (["--epsilon", "inf"], "epsilon"),
        (["--tol", "nan"], "rel_tol"),
    ])
    def test_cluster_subjects_arguments_checked_before_loading(
            self, cohort_dir, tmp_path, capsys, monkeypatch, flags, message):
        def fail(path):
            raise AssertionError("a subject was loaded before the argument check")

        monkeypatch.setattr("mvgehd.cli.load_multiview", fail)
        out = tmp_path / "subj.json"
        code = run("cluster-subjects", "--cohort", cohort_dir / "cohort.json",
                   "--embed-k", 3, *flags, "--seed", 0, "--out", out)
        assert code != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and message in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cluster-subjects", "sweep-k"])
    def test_negative_seed_rejected_before_any_embedding(self, cohort_dir, tmp_path, capsys,
                                                         monkeypatch, command):
        # One worker, so every embedding task runs in this process.
        monkeypatch.setenv("MVGEHD_THREADS", "1")
        calls = []
        embed = mvgehd.cli._embed_subject
        monkeypatch.setattr("mvgehd.cli._embed_subject",
                            lambda graph, configs: calls.append(1) or embed(graph, configs))
        flags = {"cluster-subjects": ["--embed-k", 3, "--k", 2],
                 "sweep-k": ["--truth", cohort_dir / "cohort_truth.json",
                             "--k-min", 3, "--k-max", 4, "--repeats", 2]}[command]
        out = tmp_path / "out.json"
        code = run(command, "--cohort", cohort_dir / "cohort.json", *flags,
                   "--seed", -1, "--out", out)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "seed must be None or an integer >= 0, got -1"}
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("command", ["cluster-subjects", "sweep-k"])
    def test_one_subject_cohort_rejected_before_loading(self, cohort_dir, tmp_path, capsys,
                                                        monkeypatch, command):
        def fail(path):
            raise AssertionError("a subject was loaded before the cohort size check")

        monkeypatch.setattr("mvgehd.cli.load_multiview", fail)
        subject = read(cohort_dir / "cohort.json")["subjects"][0]
        cohort = tmp_path / "cohort.json"
        cohort.write_text(json.dumps({"subjects": [str(cohort_dir / subject)]}))
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"labels": [0]}))
        flags = {"cluster-subjects": ["--embed-k", 3, "--k", 1],
                 "sweep-k": ["--truth", truth]}[command]
        out = tmp_path / "out.json"
        code = run(command, "--cohort", cohort, *flags, "--out", out)
        assert code != 0
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "need at least 2 subjects, got 1"}
        assert not out.exists()

    # A file that names subjects, but not as a list of manifest paths.
    @pytest.mark.parametrize("contents", [{"subjects": "ab"}, {"subjects": [1, 2]},
                                          "subjects/manifest.json"])
    @pytest.mark.parametrize("command", ["cluster-subjects", "sweep-k"])
    def test_subjects_must_list_manifest_paths(self, cohort_dir, tmp_path, capsys,
                                               monkeypatch, command, contents):
        def fail(path):
            raise AssertionError("a subject was loaded before the cohort file was checked")

        monkeypatch.setattr("mvgehd.cli.load_multiview", fail)
        cohort = tmp_path / "cohort.json"
        cohort.write_text(json.dumps(contents))
        flags = {"cluster-subjects": ["--embed-k", 3, "--k", 2],
                 "sweep-k": ["--truth", cohort_dir / "cohort_truth.json"]}[command]
        out = tmp_path / "out.json"
        assert run(command, "--cohort", cohort, *flags, "--out", out) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "'subjects'" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["abc", "0"])
    @pytest.mark.parametrize("command", ["cluster-subjects", "sweep-k"])
    def test_thread_env_checked_before_loading(self, cohort_dir, tmp_path, capsys,
                                               monkeypatch, command, threads):
        def fail(path):
            raise AssertionError("a subject was loaded before MVGEHD_THREADS was checked")

        monkeypatch.setattr("mvgehd.cli.load_multiview", fail)
        monkeypatch.setenv("MVGEHD_THREADS", threads)
        flags = {"cluster-subjects": ["--embed-k", 3],
                 "sweep-k": ["--truth", cohort_dir / "cohort_truth.json"]}[command]
        out = tmp_path / "out.json"
        code = run(command, "--cohort", cohort_dir / "cohort.json", *flags, "--out", out)
        assert code != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"] == f"MVGEHD_THREADS must be an integer >= 1, got '{threads}'"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["cluster-subjects", "sweep-k"])
    def test_embedding_dimension_checked_before_any_solve(self, cohort_dir, tmp_path,
                                                          capsys, monkeypatch, command):
        # The cohort's subjects have 50 nodes, so k = 49 is the largest
        # whose columns fit orthogonal to the constant.
        self.fail_any_solve(tmp_path, monkeypatch)
        flags = {"cluster-subjects": ["--embed-k", 50],
                 "sweep-k": ["--truth", cohort_dir / "cohort_truth.json",
                             "--k-min", 45, "--k-max", 50]}[command]
        flag = flags[-2]
        out = tmp_path / "out.json"
        code = run(command, "--cohort", cohort_dir / "cohort.json", *flags, "--out", out)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message":
                       f"need {flag} + 1 <= 50, the subjects' node count, got {flag} 50"}
        assert not out.exists() and not (tmp_path / "solves.txt").exists()

    @pytest.mark.parametrize("command", ["cluster-subjects", "sweep-k"])
    def test_node_counts_checked_before_any_solve(self, cohort_dir, tmp_path, capsys,
                                                  monkeypatch, command):
        # The third of four subjects has 40 nodes, the others 50.
        other = tmp_path / "other"
        assert run("generate", "--out", other, "--n", 40, "--clusters", 2, "--views", 2,
                   "--seed", 3, "--cohort", "1,1") == 0
        subjects = [cohort_dir / p for p in read(cohort_dir / "cohort.json")["subjects"]]
        odd = other / read(other / "cohort.json")["subjects"][0]
        cohort = tmp_path / "cohort.json"
        cohort.write_text(json.dumps({"subjects": [str(p) for p in
                                                   (subjects[0], subjects[1], odd, subjects[2])]}))
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"labels": [0, 0, 1, 1]}))
        self.fail_any_solve(tmp_path, monkeypatch)
        flags = {"cluster-subjects": ["--embed-k", 3],
                 "sweep-k": ["--truth", truth, "--k-min", 3, "--k-max", 4]}[command]
        out = tmp_path / "out.json"
        assert run(command, "--cohort", cohort, *flags, "--out", out) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": f"subject {odd} has 40 nodes, but {subjects[0]} has 50"}
        assert not out.exists() and not (tmp_path / "solves.txt").exists()

    @staticmethod
    def fail_any_solve(tmp_path, monkeypatch):
        """Make every solve, in any process, leave solves.txt and fail."""
        def fail(graph, config):
            (tmp_path / "solves.txt").write_text("solved")
            raise AssertionError("a subject was solved before the cohort checks")

        monkeypatch.setattr("mvgehd.cli.solve", fail)

    def test_isolated_node_error_from_worker(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run("generate", "--out", out, "--n", 20, "--clusters", 2, "--views", 2,
                   "--seed", 3, "--cohort", "2,2") == 0
        # Node 7 of subject 2 has zero degree in both views.
        subject = out / read(out / "cohort.json")["subjects"][2]
        for view in (subject.parent / "view_0.csv", subject.parent / "view_1.csv"):
            a = load_matrix_csv(view)
            a[7, :] = a[:, 7] = 0.0
            save_matrix_csv(a, view)
        code = run("cluster-subjects", "--cohort", out / "cohort.json", "--embed-k", 2,
                   "--seed", 0, "--out", tmp_path / "subj.json")
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "IsolatedNodeError"
        assert err["message"] == "node 7 has zero degree (isolated)"

    @pytest.mark.parametrize("broken", ["missing", "unparsable"])
    def test_first_subject_fails_with_its_own_load_error(self, cohort_dir, tmp_path, capsys,
                                                         broken):
        # A view file of the first subject that cannot be read fails the
        # command with the error of that subject's own load.
        subjects = [cohort_dir / p for p in read(cohort_dir / "cohort.json")["subjects"]]
        bad = tmp_path / "bad"
        shutil.copytree(subjects[0].parent, bad)
        view = bad / "view_0.csv"
        if broken == "missing":
            view.unlink()
        else:
            view.write_text("a,b\n")
        cohort = tmp_path / "cohort.json"
        cohort.write_text(json.dumps({"subjects": [str(bad / "manifest.json"),
                                                   *map(str, subjects[1:])]}))
        with pytest.raises((OSError, ValueError)) as want:
            load_multiview(bad / "manifest.json")
        assert run("cluster-subjects", "--cohort", cohort, "--embed-k", 3,
                   "--out", tmp_path / "subj.json") == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": type(want.value).__name__, "message": str(want.value)}


class TestRowBlockFiles:
    def test_worker_count_does_not_change_output(self, tmp_path, monkeypatch):
        # Each view file of this n = 40 graph is more than 4 KiB, so the
        # workers format it in blocks of at most one row.
        monkeypatch.setattr("mvgehd.graph.BLOCK_BYTES", 4096)
        trees = []
        for workers in ("1", "2"):
            monkeypatch.setenv("MVGEHD_THREADS", workers)
            run_dir = tmp_path / workers
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            assert run("generate", "--out", "g", "--n", 40, "--clusters", 3, "--hubs", 3,
                       "--views", 2, "--seed", 5) == 0
            assert Path("g/view_0.csv").stat().st_size > 4 * 4096
            assert run("embed", "--manifest", "g/manifest.json", "--k", 2, "--out", "emb") == 0
            assert run("hubs", "--method", "betweenness", "--manifest", "g/manifest.json",
                       "--hub-top", 3, "--out", "betweenness.json") == 0
            trees.append({str(f.relative_to(".")): f.read_bytes()
                          for f in sorted(Path(".").rglob("*")) if f.is_file()})
        assert len(trees[0]) == 8
        assert trees[0] == trees[1]

    def test_views_are_read_without_a_pool(self, tmp_path, monkeypatch):
        # generate writes these view files, each more than 4 KiB, in blocks
        # on a pool; embed and hubs read them in their own process.
        made = []
        pool = concurrent.futures.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            made.append(kwargs)
            return pool(*args, **kwargs)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", counting_pool)
        monkeypatch.setattr("mvgehd.graph.BLOCK_BYTES", 4096)
        monkeypatch.setenv("MVGEHD_THREADS", "2")
        monkeypatch.chdir(tmp_path)
        assert run("generate", "--out", "g", "--n", 40, "--clusters", 3, "--hubs", 3,
                   "--seed", 5) == 0
        assert Path("g/view_0.csv").stat().st_size > 4 * 4096
        assert len(made) == 1
        assert run("embed", "--manifest", "g/manifest.json", "--k", 2, "--out", "emb") == 0
        assert run("hubs", "--method", "betweenness", "--manifest", "g/manifest.json",
                   "--hub-top", 3, "--out", "betweenness.json") == 0
        assert len(made) == 1

    def test_file_mapper_keeps_one_task_beyond_the_workers_in_flight(self, monkeypatch):
        submitted = []

        class ResolvingPool:
            def __init__(self, max_workers, **kwargs):
                pass

            def submit(self, fn, *args):
                submitted.append(args)
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self):
                pass

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", ResolvingPool)
        monkeypatch.setenv("MVGEHD_THREADS", "2")
        with _ordered_map(min(_worker_count(), _FILE_WORKERS)) as mapper:
            seen = [(result, len(submitted)) for result in mapper(pow, range(6), repeat(2))]
        assert seen == [(0, 3), (1, 4), (4, 5), (9, 6), (16, 6), (25, 6)]


class TestWorkerCount:
    def test_env_caps_workers(self, monkeypatch):
        monkeypatch.setenv("MVGEHD_THREADS", "3")
        assert _worker_count() == 3

    def test_default_is_affinity_size(self, monkeypatch):
        monkeypatch.delenv("MVGEHD_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _worker_count() == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("MVGEHD_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _worker_count() == 3


REQUIRED_FLAGS = {
    "generate": ["--out", "g", "--n", "10"],
    "embed": ["--manifest", "m.json", "--k", "2", "--out", "e"],
    "cluster-nodes": ["--embedding", "e.csv", "--k", "2", "--out", "l.json"],
    "cluster-subjects": ["--cohort", "c.json", "--embed-k", "2", "--out", "s.json"],
    "sweep-k": ["--cohort", "c.json", "--truth", "t.json", "--out", "s.json"],
}
EMBEDDING_COMMANDS = ("embed", "cluster-subjects", "sweep-k")
OWNED_DEFAULTS = [  # (command, argparse dest, owning dataclass, field)
    *[("generate", dest, PlantedSpec, field) for dest, field in (
        ("seed", "seed"), ("p_intra", "p_intra"), ("p_inter", "p_inter"),
        ("noise", "noise_sigma"), ("hub_spread", "hub_spread"))],
    *[(command, dest, EmbedConfig, field) for command in EMBEDDING_COMMANDS
      for dest, field in (("epsilon", "epsilon"), ("max_iters", "max_iters"),
                          ("tol", "rel_tol"))],
    *[(command, "restarts", KMeansConfig, "restarts")
      for command in ("cluster-nodes", "cluster-subjects", "sweep-k")],
]


def parse_defaults(command):
    return build_parser().parse_args([command, *REQUIRED_FLAGS[command]])


class TestDefaults:
    @pytest.mark.parametrize("command, dest, owner, field", OWNED_DEFAULTS,
                             ids=[f"{c}-{d}" for c, d, _, _ in OWNED_DEFAULTS])
    def test_flag_default_is_read_from_its_dataclass(self, monkeypatch, command, dest,
                                                     owner, field):
        default = {f.name: f.default for f in dataclasses.fields(owner)}[field]
        assert getattr(parse_defaults(command), dest) == default
        moved = object()
        monkeypatch.setattr(owner, field, moved)
        assert getattr(parse_defaults(command), dest) is moved

    def test_default_flags_build_default_configs(self):
        spec = _spec_from_args(parse_defaults("generate"))
        assert spec == PlantedSpec(n=10, clusters=2, hubs=0, views=2)
        for command in EMBEDDING_COMMANDS:
            assert _embed_config(parse_defaults(command), k=3) == EmbedConfig(k=3)


class TestParser:
    def test_commands_after_the_first_leave_no_argparse_garbage(self, tmp_path):
        """main builds its parser once per process, so a command leaves none
        of the cyclic objects argparse makes per argument it adds for the
        collector to free at a time no one chose."""
        import argparse
        import gc

        def formatters():
            return sum(isinstance(o, argparse.HelpFormatter) for o in gc.get_objects())

        assert run("generate", "--out", tmp_path / "a", "--n", 10, "--clusters", 2) == 0
        gc.collect()
        gc.disable()
        try:
            before = formatters()
            assert run("generate", "--out", tmp_path / "b", "--n", 10, "--clusters", 2) == 0
            after = formatters()
        finally:
            gc.enable()
        assert after == before
