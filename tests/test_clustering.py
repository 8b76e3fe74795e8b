"""K-means, node clustering, subject similarity, and subject clustering."""

import numpy as np
import pytest

from mvgehd.clustering import (
    KMeansConfig,
    _init_centers,
    _lloyd,
    _squared_distances,
    cluster_subjects,
    kmeans,
    node_clusters,
    pairwise_similarity,
    spectral_rows,
)
from mvgehd.metrics import accuracy


def wcss_of(points, labels):
    total = 0.0
    for c in np.unique(labels):
        member = points[labels == c]
        total += ((member - member.mean(axis=0)) ** 2).sum()
    return total


class TestKMeans:
    def test_well_separated_1d(self):
        pts = np.array([[0.0], [0.1], [10.0], [10.1]])
        labels = kmeans(pts, 2, KMeansConfig(seed=0))
        assert labels[0] == labels[1] and labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_identical_points_single_cluster(self):
        pts = np.tile([1.0, 2.0], (6, 1))
        labels = kmeans(pts, 1, KMeansConfig(seed=0))
        np.testing.assert_array_equal(labels, np.zeros(6, dtype=int))
        assert wcss_of(pts, labels) == 0.0

    def test_beats_random_assignment_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 2))
        labels = kmeans(pts, 3, KMeansConfig(seed=1))
        got = wcss_of(pts, labels)
        best_random = min(
            wcss_of(pts, rng.integers(0, 3, size=20)) for _ in range(1000))
        assert got <= best_random + 1e-9

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 4)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(30, 3))
        a = kmeans(pts, 4, KMeansConfig(seed=7))
        b = kmeans(pts, 4, KMeansConfig(seed=7))
        np.testing.assert_array_equal(a, b)

    def test_lloyd_wcss_non_increasing(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = rng.normal(size=(25, 2))
            centers = _init_centers(pts, 4, rng)
            _, _, history = _lloyd(pts, centers, 50)
            assert np.all(np.diff(history) <= 1e-9)

    def test_every_cluster_non_empty(self):
        # Two blobs and three centers, the third far from every point: the
        # first assignment leaves it empty, so Lloyd must re-seed it.
        rng = np.random.default_rng(4)
        pts = np.vstack([rng.normal(size=(6, 2)), rng.normal(size=(6, 2)) + 10])
        centers = np.array([[0.0, 0.0], [10.0, 10.0], [1e3, -1e3]])
        assert 2 not in np.argmin(_squared_distances(pts, centers), axis=1)
        labels, wcss, history = _lloyd(pts, centers, 50)
        assert len(np.unique(labels)) == 3
        assert wcss == history[-1] == pytest.approx(wcss_of(pts, labels), rel=1e-12)
        assert np.all(np.diff(history) <= 1e-9)


class TestNodeClusters:
    def test_indicator_blocks_exact(self):
        f = np.zeros((8, 2))
        f[:4, 0] = 0.5
        f[4:, 1] = 0.5
        labels = node_clusters(f, 2, KMeansConfig(seed=0))
        assert accuracy(labels, np.array([0] * 4 + [1] * 4)) == 1.0

    def test_k_equals_n(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=(5, 3))
        labels = node_clusters(f, 5, KMeansConfig(seed=0))
        assert sorted(labels) == list(range(5))
        assert wcss_of(f, labels) == 0.0


class TestPairwiseSimilarity:
    def test_identical_embeddings(self):
        f = np.eye(3)
        sim = pairwise_similarity([f, f.copy()])
        assert sim[0, 1] == 0.0

    def test_identity_difference(self):
        a = np.zeros((4, 2))
        b = a.copy()
        b[0, 0] = b[1, 1] = 1.0  # difference is I_2 padded with zeros
        sim = pairwise_similarity([a, b])
        assert sim[0, 1] == pytest.approx(-np.sqrt(2.0), abs=1e-15)

    def test_matches_frobenius_oracle(self):
        rng = np.random.default_rng(7)
        embs = [rng.normal(size=(5, 2)) for _ in range(4)]
        sim = pairwise_similarity(embs)
        for i in range(4):
            for j in range(4):
                want = -np.sqrt(((embs[i] - embs[j]) ** 2).sum())
                assert sim[i, j] == pytest.approx(want, abs=1e-12)

    def test_exactly_symmetric_zero_diagonal_nonpositive(self):
        rng = np.random.default_rng(8)
        embs = [rng.normal(size=(6, 3)) for _ in range(5)]
        sim = pairwise_similarity(embs)
        assert np.array_equal(sim, sim.T)
        assert np.all(np.diag(sim) == 0.0)
        assert np.all(sim <= 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_similarity([np.zeros((3, 2)), np.zeros((4, 2))])


class TestClusterSubjects:
    def test_two_tight_groups_exact_split(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 2))
        b = a + 50.0
        embs = [a, a.copy(), a.copy(), b, b.copy()]
        labels = cluster_subjects(embs, 2, KMeansConfig(seed=0))
        assert accuracy(labels, np.array([0, 0, 0, 1, 1])) == 1.0

    def test_n_equals_k_all_distinct(self):
        rng = np.random.default_rng(10)
        embs = [rng.normal(size=(4, 2)) + 10 * i for i in range(3)]
        labels = cluster_subjects(embs, 3, KMeansConfig(seed=0))
        assert sorted(labels) == [0, 1, 2]

    def test_all_identical_is_degenerate(self):
        f = np.eye(4)[:, :2]
        with pytest.raises(ValueError, match="degenerate"):
            cluster_subjects([f, f.copy(), f.copy()], 2, KMeansConfig(seed=0))

    def test_fewer_subjects_than_k(self):
        with pytest.raises(ValueError):
            cluster_subjects([np.zeros((3, 2))], 2)

    def test_reordering_invariance(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(5, 2))
        b = a + 30.0
        embs = [a + 0.01 * rng.normal(size=a.shape) for _ in range(4)]
        embs += [b + 0.01 * rng.normal(size=b.shape) for _ in range(4)]
        base = cluster_subjects(embs, 2, KMeansConfig(seed=3))
        perm = rng.permutation(8)
        permuted = cluster_subjects([embs[i] for i in perm], 2, KMeansConfig(seed=3))
        assert accuracy(permuted, base[perm]) == 1.0

    def test_is_kmeans_on_spectral_rows(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(5, 3))
        embs = [a + 0.3 * rng.normal(size=a.shape) for _ in range(5)]
        embs += [a + 2.0 + 0.3 * rng.normal(size=a.shape) for _ in range(5)]
        rows = spectral_rows(embs, 2)
        for seed in range(8):
            config = KMeansConfig(restarts=3, seed=seed)
            np.testing.assert_array_equal(kmeans(rows, 2, config),
                                          cluster_subjects(embs, 2, config))
