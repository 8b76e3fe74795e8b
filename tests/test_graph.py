"""Graph representation, validation, normalization, and file round-trips."""

import json
import pickle

import numpy as np
import pytest

from mvgehd.graph import (
    GraphValidationError,
    IsolatedNodeError,
    MultiViewGraph,
    affinity_and_degrees,
    apply_transform,
    load_matrix_csv,
    load_multiview,
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
