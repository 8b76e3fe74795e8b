"""Graph representation, validation, normalization, and file round-trips."""

import io
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import mvgehd.graph
from mvgehd.graph import (
    GraphValidationError,
    IsolatedNodeError,
    MultiViewGraph,
    affinity_and_degrees,
    apply_transform,
    load_matrix_csv,
    load_multiview,
    load_view,
    save_matrix_csv,
    save_multiview,
    validate_affinity,
)


def write_manifest(tmp_path, matrices, transform="reject", node_names=None):
    names = []
    for i, m in enumerate(matrices):
        name = f"m{i}.csv"
        save_matrix_csv(np.asarray(m, dtype=float), tmp_path / name)
        names.append(name)
    manifest = {"views": names, "transform": transform}
    if node_names is not None:
        manifest["node_names"] = node_names
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(GraphValidationError):
            validate_affinity(np.zeros((2, 3)))

    def test_rejects_negative(self):
        with pytest.raises(GraphValidationError, match="negative"):
            validate_affinity([[0, -0.1], [-0.1, 0]])

    def test_rejects_asymmetric(self):
        with pytest.raises(GraphValidationError, match="asymmetric"):
            validate_affinity([[0, 1.0], [1.1, 0]])

    def test_rejects_non_finite(self):
        with pytest.raises(GraphValidationError, match="non-finite"):
            validate_affinity([[0, np.inf], [np.inf, 0]])

    def test_strips_diagonal_with_warning(self):
        with pytest.warns(UserWarning, match="self-loops"):
            arr = validate_affinity([[0.5, 1.0], [1.0, 0]])
        assert arr[0, 0] == 0.0

    def test_result_is_read_only(self):
        arr = validate_affinity([[0, 1.0], [1.0, 0]])
        with pytest.raises(ValueError):
            arr[0, 1] = 2.0

    def test_asymmetry_reported_from_any_row_block(self):
        # Wider than one block of the symmetry check; the worst pair sits
        # in the last block.
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, size=(150, 150))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        validate_affinity(a)
        a[140, 3] += 3e-9
        a[20, 70] += 2e-9
        want = np.max(np.abs(a - a.T))
        with pytest.raises(GraphValidationError) as err:
            validate_affinity(a)
        assert str(err.value).endswith(f"max |a_ij - a_ji| = {want:g}")

    def test_copies_unless_read_only_and_owning(self):
        a = np.array([[0, 1.0], [1.0, 0]])
        assert validate_affinity(a) is not a
        a.setflags(write=False)
        assert validate_affinity(a) is a
        assert validate_affinity(a[:, :]) is not a

    def test_read_only_input_keeps_its_diagonal(self):
        a = np.array([[0.5, 1.0], [1.0, 0]])
        a.setflags(write=False)
        with pytest.warns(UserWarning, match="self-loops"):
            arr = validate_affinity(a)
        assert arr[0, 0] == 0.0 and a[0, 0] == 0.5

    def test_views_must_share_n(self):
        with pytest.raises(GraphValidationError, match="dimension mismatch"):
            MultiViewGraph(views=(np.zeros((3, 3)), np.zeros((4, 4))))

    def test_needs_at_least_one_view(self):
        with pytest.raises(GraphValidationError):
            MultiViewGraph(views=())

    def test_node_names_length_checked(self):
        with pytest.raises(GraphValidationError):
            MultiViewGraph(views=(np.zeros((2, 2)),), node_names=("a",))

    def test_string_node_names_rejected(self):
        # A string would otherwise give one name per character.
        with pytest.raises(GraphValidationError, match="string"):
            MultiViewGraph(views=(np.zeros((3, 3)),), node_names="abc")


class TestTransforms:
    def test_abs_flips_negative_entry(self):
        out = apply_transform(np.array([[0.0, -0.4], [-0.4, 0.0]]), "abs")
        assert out[0, 1] == 0.4

    def test_clamp0_zeroes_negatives(self):
        out = apply_transform(np.array([[0.0, -0.4], [-0.4, 0.0]]), "clamp0")
        assert out[0, 1] == 0.0

    def test_reject_raises(self):
        with pytest.raises(GraphValidationError):
            apply_transform(np.array([[0.0, -0.4], [-0.4, 0.0]]), "reject")

    def test_unknown_transform(self):
        with pytest.raises(GraphValidationError):
            apply_transform(np.zeros((2, 2)), "negate")


class TestRandomWalk:
    """affinity_and_degrees: the affinity A and degrees d of the walk A / d."""

    def test_two_node_swap(self):
        a, d = affinity_and_degrees(np.array([[0, 2], [2, 0]], float))
        np.testing.assert_array_equal(d, [2, 2])
        np.testing.assert_array_equal(a / d[:, None], [[0, 1], [1, 0]])

    def test_complete_graph(self):
        a, d = affinity_and_degrees(np.ones((3, 3)) - np.eye(3))
        np.testing.assert_array_equal(d, [2, 2, 2])
        np.testing.assert_allclose(a / d[:, None], (np.ones((3, 3)) - np.eye(3)) / 2)

    def test_isolated_error_reports_index(self):
        with pytest.raises(IsolatedNodeError) as err:
            affinity_and_degrees(np.zeros((2, 2)))
        assert err.value.index == 0

    def test_isolated_error_survives_pickle(self):
        # Worker processes hand exceptions back pickled.
        err = pickle.loads(pickle.dumps(IsolatedNodeError(3)))
        assert type(err) is IsolatedNodeError
        assert err.index == 3
        assert str(err) == "node 3 has zero degree (isolated)"

    def test_self_loop_policy(self):
        view = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], float)
        a, d = affinity_and_degrees(view, isolated_policy="self_loop")
        np.testing.assert_array_equal(d, [1, 1, 1])
        assert a[0, 0] == 1.0
        # The loop goes into a copy; the view is left as it was.
        assert a is not view and view[0, 0] == 0.0

    def test_rows_sum_to_one_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            a = rng.uniform(0.01, 1, size=(n, n))
            a = (a + a.T) / 2
            np.fill_diagonal(a, 0.0)
            affinity, d = affinity_and_degrees(a)
            assert affinity is a
            out = affinity / d[:, None]
            np.testing.assert_allclose(out.sum(axis=1), np.ones(n), atol=1e-12)
            assert np.all(out >= 0)


class TestManifestIO:
    def test_load_two_views(self, tmp_path):
        a = [[0, 1, 0], [1, 0, 2], [0, 2, 0]]
        b = [[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]]
        path = write_manifest(tmp_path, [a, b])
        g = load_multiview(path)
        assert g.n == 3 and g.m == 2

    def test_abs_transform_applied(self, tmp_path):
        a = [[0, -0.4], [-0.4, 0]]
        path = write_manifest(tmp_path, [a], transform="abs")
        g = load_multiview(path)
        assert g.views[0][0, 1] == 0.4

    def test_reject_negative(self, tmp_path):
        path = write_manifest(tmp_path, [[[0, -0.4], [-0.4, 0]]])
        with pytest.raises(GraphValidationError):
            load_multiview(path)

    def test_dimension_mismatch(self, tmp_path):
        path = write_manifest(tmp_path, [np.zeros((3, 3)), np.zeros((4, 4))])
        with pytest.raises(GraphValidationError):
            load_multiview(path)

    def test_node_names(self, tmp_path):
        path = write_manifest(tmp_path, [[[0, 1], [1, 0]]], node_names=["a", "b"])
        g = load_multiview(path)
        assert g.node_names == ("a", "b")

    @pytest.mark.parametrize("names", ["abc", [], {"a": 1}, 3],
                             ids=["string", "empty", "object", "number"])
    def test_node_names_must_be_a_full_list(self, tmp_path, names):
        path = write_manifest(tmp_path, [np.ones((3, 3)) - np.eye(3)], node_names=names)
        with pytest.raises(GraphValidationError, match="node"):
            load_multiview(path)

    @pytest.mark.parametrize("fields, message", [
        ({"transform": "clamp"}, "unknown transform 'clamp'"),
        ({"views": ["m0.csv", 5]}, "must list file paths, got 5"),
    ], ids=["unknown_transform", "non_string_view"])
    def test_manifest_checked_before_any_view_is_parsed(self, tmp_path, monkeypatch,
                                                         fields, message):
        path = write_manifest(tmp_path, [np.ones((3, 3)) - np.eye(3)])
        path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))
        parsed = []
        load = mvgehd.graph.load_matrix_csv

        def counting_load(*args, **kwargs):
            parsed.append(args[0])
            return load(*args, **kwargs)

        monkeypatch.setattr("mvgehd.graph.load_matrix_csv", counting_load)
        with pytest.raises(GraphValidationError, match=message):
            load_multiview(path)
        assert parsed == []

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        a = rng.uniform(0, 1, size=(7, 7))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        g = MultiViewGraph(views=(a,))
        manifest = save_multiview(g, tmp_path / "g")
        loaded = load_multiview(manifest)
        assert np.array_equal(loaded.views[0], g.views[0])
        # save -> load -> save -> load is a fixed point
        manifest2 = save_multiview(loaded, tmp_path / "g2")
        again = load_multiview(manifest2)
        assert np.array_equal(again.views[0], loaded.views[0])

    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 6))
        save_matrix_csv(m, tmp_path / "m.csv")
        np.testing.assert_array_equal(load_matrix_csv(tmp_path / "m.csv"), m)

    def test_csv_text_matches_per_float_repr(self, tmp_path):
        edge = [0.0, -0.0, 1e-05, 1e-4, 1e16, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]
        rng = np.random.default_rng(6)
        m = np.vstack([edge, -np.array(edge), rng.normal(scale=0.3, size=(3, 8))])
        save_matrix_csv(m, tmp_path / "m.csv")
        want = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in m)
        assert (tmp_path / "m.csv").read_bytes() == want.encode()
        got = load_matrix_csv(tmp_path / "m.csv")
        assert got.tobytes() == m.tobytes()


def use_small_blocks(monkeypatch):
    """Cut the files below, of more than 320 bytes, into 4 blocks, each of
    at least one data row: a block spans more than a data line plus a
    comment line."""
    monkeypatch.setattr("mvgehd.graph.BLOCK_BYTES", 320)
    monkeypatch.setattr("mvgehd.graph.FILE_BLOCKS", 4)


def matrix_lines(n=8):
    """n CSV lines of n values: random floats, -0.0, 1e-300 and integers."""
    rng = np.random.default_rng(7)
    rows = [[repr(float(x)) for x in rng.uniform(-1, 1, n)] for _ in range(n)]
    rows[0][1], rows[2][3], rows[4][5], rows[6][0] = "-0.0", "1e-300", "3", "-12"
    return [",".join(row) for row in rows]


LAYOUTS = {
    "lf": lambda lines: "\n".join(lines) + "\n",
    "crlf": lambda lines: "\r\n".join(lines) + "\r\n",
    "comment_lines": lambda lines: "# head\n" + "".join(
        f"{line}\n# after {i}\n" for i, line in enumerate(lines)),
    "blank_lines": lambda lines: "\n" + "".join(f"{line}\n\n" for line in lines),
    "no_final_newline": lambda lines: "\n".join(lines),
}


def comment_stretch_file(path):
    """The 8 matrix lines with more than half the file's bytes of comment
    lines between rows 3 and 4, so that some of its 4 blocks hold no row."""
    lines = matrix_lines()
    stretch = [f"# {i} " + "x" * 60 for i in range(30)]
    path.write_text("\n".join(lines[:4] + stretch + lines[4:]) + "\n")
    return path


def whole_file_parse(path):
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as executor:
        yield executor


def in_process_map(fn, *iterables):
    """Blocks run one after another in this process. Unlike the builtin
    map, which gets no blocks, it takes the block path."""
    return map(fn, *iterables)


@pytest.fixture(params=["in_process", "pool"])
def mapper(request):
    return in_process_map if request.param == "in_process" else request.getfixturevalue("pool").map


class TestRowBlocks:
    """Large matrix files go through blocks of rows; the results, files and
    errors are those of the whole-file path."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_read_equals_the_whole_file_parse(self, tmp_path, monkeypatch, mapper,
                                              layout):
        path = tmp_path / "m.csv"
        path.write_bytes(LAYOUTS[layout](matrix_lines()).encode())
        use_small_blocks(monkeypatch)
        assert len(mvgehd.graph._byte_blocks(path)) == 4
        want = whole_file_parse(path)
        # The blocks themselves make the matrix: no whole-file re-read.
        blocks = mvgehd.graph._load_blocks(path, mapper)
        assert blocks is not None and blocks.tobytes() == want.tobytes()
        got = load_matrix_csv(path, mapper)
        assert got.shape == want.shape == (8, 8)
        assert got.tobytes() == want.tobytes()

    def test_non_square_file_is_read_whole(self, tmp_path, monkeypatch, mapper):
        path = tmp_path / "m.csv"
        path.write_text("\n".join(matrix_lines() + matrix_lines()[:3]) + "\n")
        use_small_blocks(monkeypatch)
        assert mvgehd.graph._load_blocks(path, mapper) is None
        got = load_matrix_csv(path, mapper)
        assert got.shape == (11, 8)
        assert got.tobytes() == whole_file_parse(path).tobytes()

    @pytest.mark.parametrize("kind", ["ragged", "non_numeric", "missing",
                                      "more_rows", "fewer_rows"])
    def test_errors_are_the_whole_file_errors(self, tmp_path, monkeypatch, mapper, kind):
        lines = matrix_lines()
        if kind == "ragged":
            lines[6] = lines[6].rsplit(",", 1)[0]
        elif kind == "non_numeric":
            lines[6] = "x," + lines[6].split(",", 1)[1]
        elif kind == "more_rows":
            lines += lines[:2]
        elif kind == "fewer_rows":
            lines = lines[:-2]
        path = tmp_path / "m.csv"
        if kind != "missing":
            path.write_text("\n".join(lines) + "\n")
        with pytest.raises(Exception) as whole:
            load_view(path, "reject")
        use_small_blocks(monkeypatch)
        with pytest.raises(Exception) as blocked:
            load_view(path, "reject", mapper)
        assert type(blocked.value) is type(whole.value)
        # loadtxt numbers rows within what it parses, so a block's own error
        # would name another row than the whole file's.
        assert str(blocked.value) == str(whole.value)

    def test_blocks_of_comments_alone_are_skipped(self, tmp_path, monkeypatch, mapper):
        path = comment_stretch_file(tmp_path / "m.csv")
        use_small_blocks(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = [mvgehd.graph._parse_rows(path, *block)
                      for block in mvgehd.graph._byte_blocks(path)]
            assert [len(rows) for rows in blocks].count(0) >= 1
            # No whole-file re-read: the blocks make the matrix.
            got = mvgehd.graph._load_blocks(path, mapper)
        assert got is not None and got.tobytes() == whole_file_parse(path).tobytes()

    def test_workers_print_nothing_for_blocks_of_comments(self, tmp_path):
        # np.loadtxt warns on stderr about input without data; a worker
        # process shows that warning even where this test session would
        # collect it, so the load runs in a fresh interpreter.
        path = comment_stretch_file(tmp_path / "m.csv")
        script = """if True:
            import multiprocessing, sys
            from concurrent.futures import ProcessPoolExecutor
            import numpy as np
            import mvgehd.graph as graph
            graph.BLOCK_BYTES, graph.FILE_BLOCKS = 320, 4
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(2, mp_context=fork) as pool:
                got = graph._load_blocks(sys.argv[1], pool.map)
            want = np.loadtxt(sys.argv[1], delimiter=",", dtype=np.float64, ndmin=2)
            sys.exit(got is None or got.tobytes() != want.tobytes())
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(mvgehd.graph.__file__).parent.parent),
                        env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert done.stderr == ""

    def test_write_is_byte_identical(self, tmp_path, monkeypatch, mapper):
        m = whole_file_parse(LAYOUTS["lf"](matrix_lines()).splitlines())
        m = np.vstack([m, -m, m[::-1] * 1e-300])
        save_matrix_csv(m, tmp_path / "rows.csv")
        use_small_blocks(monkeypatch)
        handed = []

        def counting_mapper(fn, blocks):
            blocks = list(blocks)
            handed.append(len(blocks))
            return mapper(fn, blocks)

        save_matrix_csv(m, tmp_path / "blocks.csv", counting_mapper)
        assert handed[0] == 4
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_reads_what_loadtxt_reads(self, monkeypatch, mapper):
        monkeypatch.setattr("mvgehd.graph.BLOCK_BYTES", 1)
        for source in (["1,2", "3,4"], io.StringIO("1,2\n3,4\n")):
            assert load_matrix_csv(source, mapper).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_one_block_is_written_a_row_at_a_time(self, tmp_path):
        def failing_mapper(fn, blocks):
            raise AssertionError("a one-block matrix was handed to the mapper")

        m = np.arange(12.0).reshape(3, 4)
        save_matrix_csv(m, tmp_path / "m.csv", failing_mapper)
        assert (tmp_path / "m.csv").read_text() == "".join(
            ",".join(repr(float(x)) for x in row) + "\n" for row in m)

    def test_builtin_map_gets_no_blocks(self, tmp_path, monkeypatch):
        path = tmp_path / "m.csv"
        path.write_text(LAYOUTS["lf"](matrix_lines()))
        use_small_blocks(monkeypatch)
        blocked = []
        monkeypatch.setattr("mvgehd.graph._load_blocks", lambda *args: blocked.append(args))
        assert load_matrix_csv(path).tobytes() == whole_file_parse(path).tobytes()
        assert blocked == []
        m = whole_file_parse(path)
        monkeypatch.setattr("mvgehd.graph._rows_text", lambda rows: blocked.append(rows) or b"")
        save_matrix_csv(m, tmp_path / "rows.csv")
        assert [len(rows) for rows in blocked] == [1] * len(m)

    def test_multiview_round_trip(self, tmp_path, monkeypatch, mapper):
        rng = np.random.default_rng(3)
        views = []
        for _ in range(2):
            a = rng.uniform(0, 1, size=(12, 12))
            a = (a + a.T) / 2
            np.fill_diagonal(a, 0.0)
            views.append(a)
        g = MultiViewGraph(views=tuple(views))
        rows = save_multiview(g, tmp_path / "rows")
        use_small_blocks(monkeypatch)
        blocks = save_multiview(g, tmp_path / "blocks", mapper)
        for name in ("manifest.json", "view_0.csv", "view_1.csv"):
            assert (tmp_path / "blocks" / name).read_bytes() == (tmp_path / "rows" / name).read_bytes()
        loaded = load_multiview(blocks, mapper)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(loaded.views, g.views))
