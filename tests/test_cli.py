"""End-to-end command-line flows in temporary directories."""

import dataclasses
import json
import os

import numpy as np
import pytest

import mvgehd.cli
from mvgehd.cli import _embed_config, _spec_from_args, _worker_count, build_parser, main
from mvgehd.clustering import KMeansConfig
from mvgehd.graph import load_matrix_csv, save_matrix_csv
from mvgehd.solver import EmbedConfig
from mvgehd.synth import PlantedSpec, planted_layout


def run(*argv):
    return main([str(a) for a in argv])


def read(path):
    return json.loads(path.read_text())


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

    def test_sweep_loads_each_subject_once(self, cohort_dir, tmp_path, monkeypatch):
        loaded = []
        load = mvgehd.cli.load_multiview

        def counting_load(path):
            loaded.append(str(path))
            return load(path)

        monkeypatch.setattr("mvgehd.cli.load_multiview", counting_load)
        assert run("sweep-k", "--cohort", cohort_dir / "cohort.json",
                   "--truth", cohort_dir / "cohort_truth.json",
                   "--k-min", 3, "--k-max", 5, "--repeats", 2,
                   "--seed", 0, "--out", tmp_path / "sweep.json") == 0
        assert len(loaded) == 16 and len(set(loaded)) == 16

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

    def test_isolated_node_error_from_worker(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run("generate", "--out", out, "--n", 20, "--clusters", 2, "--views", 2,
                   "--seed", 3, "--cohort", "2,2") == 0
        view = out / read(out / "cohort.json")["subjects"][2].replace(
            "manifest.json", "view_1.csv")
        a = load_matrix_csv(view)
        a[7, :] = a[:, 7] = 0.0
        save_matrix_csv(a, view)
        code = run("cluster-subjects", "--cohort", out / "cohort.json", "--embed-k", 2,
                   "--seed", 0, "--out", tmp_path / "subj.json")
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "IsolatedNodeError"
        assert err["message"] == "node 7 has zero degree (isolated)"


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
                          ("tol", "rel_tol"), ("isolated_policy", "isolated_policy"))],
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
