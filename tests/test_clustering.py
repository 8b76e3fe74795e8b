"""K-means, node clustering, subject similarity, and subject clustering."""

import numpy as np
import pytest

import mvgehd.clustering
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


# The oracle: restarted Lloyd k-means, one restart at a time. kmeans runs
# its restarts in lockstep batches and must reproduce it bit for bit.

def oracle_squared_distances(points, centers):
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def oracle_init_centers(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = oracle_squared_distances(points, centers[:1])[:, 0]
    for c in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:
            idx = rng.integers(n)
        centers[c] = points[idx]
        closest = np.minimum(closest, oracle_squared_distances(points, centers[c:c + 1])[:, 0])
    return centers


def oracle_lloyd(points, centers, max_iters):
    """(labels, centers, wcss) of Lloyd iterations from one restart's centers."""
    k = centers.shape[0]
    centers = centers.copy()
    labels, wcss = None, None
    for _ in range(max_iters):
        d2 = oracle_squared_distances(points, centers)
        new_labels = np.argmin(d2, axis=1)
        assigned = d2[np.arange(points.shape[0]), new_labels]
        for c in range(k):
            if not np.any(new_labels == c):
                far = int(np.argmax(assigned))
                new_labels[far] = c
                assigned[far] = 0.0
        for c in range(k):
            centers[c] = points[new_labels == c].mean(axis=0)
        d2 = oracle_squared_distances(points, centers)
        wcss = float(d2[np.arange(points.shape[0]), new_labels].sum())
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    return labels, centers, wcss


def oracle_kmeans(points, k, config):
    """Labels and centers of the restart with the lowest wcss, the earliest on ties."""
    best_labels, best_centers, best_wcss = None, None, np.inf
    for child in np.random.SeedSequence(config.seed).spawn(config.restarts):
        rng = np.random.default_rng(child)
        labels, centers, wcss = oracle_lloyd(points, oracle_init_centers(points, k, rng), 300)
        if wcss < best_wcss:
            best_labels, best_centers, best_wcss = labels, centers, wcss
    return best_labels, best_centers


def restart_rngs(config):
    return [np.random.default_rng(child)
            for child in np.random.SeedSequence(config.seed).spawn(config.restarts)]


def random_points(rng, n, d, kind):
    """n random points in d dimensions, on a random scale; `duplicates`
    repeats a third of them, `grid` rounds them so that distances tie."""
    points = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0)
    if kind == "duplicates":
        points = points[rng.integers(0, max(1, n // 3), size=n)]
    elif kind == "grid":
        points = np.round(points / np.abs(points).max() * 4)
    return points


def distinct(points):
    return len(np.unique(points, axis=0))


def assert_batch_is_oracle(points, centers, batch_labels, batch_centers, batch_wcss):
    """Each restart of a batch has the labels, centers and wcss, bit for
    bit, of the oracle run alone from its initial centers."""
    for b in range(len(centers)):
        labels, final, wcss = oracle_lloyd(points, centers[b], 300)
        np.testing.assert_array_equal(batch_labels[b], labels)
        assert batch_centers[b].tobytes() == final.tobytes()
        assert batch_wcss[b] == wcss


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

    @pytest.mark.parametrize("seed", [-1, 1.5, "0"])
    def test_config_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be None or an integer >= 0, got {seed!r}"):
            KMeansConfig(seed=seed)

    @pytest.mark.parametrize("seed", [None, 0, np.int64(7), 2 ** 70])
    def test_config_takes_none_and_non_negative_integers(self, seed):
        assert KMeansConfig(seed=seed).seed == seed

    def test_rejects_k_above_distinct_points(self, monkeypatch):
        # Eight points at two locations: with k = 4, Lloyd would re-seed an
        # empty cluster on every iteration of every restart, up to its cap.
        def no_restart(*args):
            raise AssertionError("a restart was drawn")

        monkeypatch.setattr(mvgehd.clustering, "_init_centers", no_restart)
        pts = np.array([[1.0, 2.0]] * 5 + [[3.0, -1.0]] * 3)
        with pytest.raises(ValueError, match="k=4 is more than the 2 distinct points"):
            kmeans(pts, 4, KMeansConfig(restarts=6, seed=5))

    def test_k_of_distinct_points_splits_them(self):
        pts = np.array([[1.0, 2.0]] * 5 + [[3.0, -1.0]] * 3)
        labels = kmeans(pts, 2, KMeansConfig(restarts=6, seed=5))
        np.testing.assert_array_equal(labels == labels[0], [True] * 5 + [False] * 3)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(30, 3))
        a = kmeans(pts, 4, KMeansConfig(seed=7))
        b = kmeans(pts, 4, KMeansConfig(seed=7))
        np.testing.assert_array_equal(a, b)

    def test_lloyd_wcss_non_increasing(self):
        # The wcss after t iterations, for t = 1..50, never rises, for each
        # restart of a batch.
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = rng.normal(size=(25, 2))
            centers = _init_centers(pts, 4, [rng, np.random.default_rng(rng.integers(99))])
            history = np.array([_lloyd(pts, centers, iters)[2] for iters in range(1, 51)])
            assert np.all(np.diff(history, axis=0) <= 1e-9)

    def test_every_cluster_non_empty(self):
        # Two blobs and three centers, the third far from every point: the
        # first assignment leaves it empty, so Lloyd must re-seed it.
        rng = np.random.default_rng(4)
        pts = np.vstack([rng.normal(size=(6, 2)), rng.normal(size=(6, 2)) + 10])
        centers = np.array([[[0.0, 0.0], [10.0, 10.0], [1e3, -1e3]]])
        assert 2 not in np.argmin(_squared_distances(pts, centers)[0], axis=1)
        labels, _, wcss = _lloyd(pts, centers, 50)
        assert len(np.unique(labels[0])) == 3
        assert wcss[0] == pytest.approx(wcss_of(pts, labels[0]), rel=1e-12)
        history = [_lloyd(pts, centers, iters)[2][0] for iters in range(1, 51)]
        assert history[-1] == wcss[0]
        assert np.all(np.diff(history) <= 1e-9)


class TestBatchedKMeansIsTheOracle:
    """Restarts in lockstep batches give, bit for bit, what running each
    restart alone gave."""

    @pytest.mark.parametrize("kind", ["normal", "duplicates", "grid"])
    def test_random_inputs(self, kind):
        rng = np.random.default_rng({"normal": 20, "duplicates": 21, "grid": 22}[kind])
        for _ in range(40):
            n = int(rng.integers(1, 60))
            pts = random_points(rng, n, int(rng.choice([1, 2, 3, 5, 20])), kind)
            # kmeans rejects k above the number of distinct points, where
            # Lloyd re-seeds empty clusters on every iteration up to its
            # cap; one case below runs Lloyd there.
            k = int(rng.integers(1, min(distinct(pts), 8) + 1))
            config = KMeansConfig(restarts=int(rng.choice([1, 2, 7, 20])),
                                  seed=int(rng.integers(1000)))
            want_labels, want_centers = oracle_kmeans(pts, k, config)
            np.testing.assert_array_equal(kmeans(pts, k, config), want_labels)
            centers = _init_centers(pts, k, restart_rngs(config))
            for b, rng_b in enumerate(restart_rngs(config)):
                assert centers[b].tobytes() == oracle_init_centers(pts, k, rng_b).tobytes()
            labels, final, wcss = _lloyd(pts, centers, 300)
            assert_batch_is_oracle(pts, centers, labels, final, wcss)
            # The restart kmeans picks holds the oracle's chosen centers.
            chosen = int(np.argmin(wcss))
            np.testing.assert_array_equal(labels[chosen], want_labels)
            assert final[chosen].tobytes() == want_centers.tobytes()

    @pytest.mark.parametrize("cap", [1, 300])
    def test_small_batches(self, monkeypatch, cap):
        # One restart per batch, and batches of a few restarts with a
        # shorter last one.
        monkeypatch.setattr(mvgehd.clustering, "_BATCH_ELEMENTS", cap)
        rng = np.random.default_rng(23)
        for _ in range(20):
            pts = random_points(rng, int(rng.integers(2, 40)), int(rng.integers(1, 5)), "grid")
            k = int(rng.integers(1, min(distinct(pts), 5) + 1))
            config = KMeansConfig(restarts=7, seed=int(rng.integers(1000)))
            np.testing.assert_array_equal(kmeans(pts, k, config),
                                          oracle_kmeans(pts, k, config)[0])

    def test_empty_clusters_reseeded_per_restart(self):
        # Only the second and fourth restarts start with a center that no
        # point is nearest to.
        rng = np.random.default_rng(24)
        pts = np.vstack([rng.normal(size=(6, 2)), rng.normal(size=(6, 2)) + 10])
        centers = np.array([
            pts[[0, 6, 1]],
            [[0.0, 0.0], [10.0, 10.0], [1e3, -1e3]],
            pts[[7, 2, 8]],
            [[-1e3, 1e3], [0.0, 0.0], [1e3, -1e3]],
        ])
        first = np.argmin(_squared_distances(pts, centers), axis=2)
        empty = [len(np.unique(row)) < 3 for row in first]
        assert empty == [False, True, False, True]
        assert_batch_is_oracle(pts, centers, *_lloyd(pts, centers, 300))

    # Re-seeding one empty cluster can empty another, whose mean is then
    # NaN with a RuntimeWarning, in the oracle as in kmeans.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_identical_points_reseed_in_init_and_lloyd(self):
        # Every D^2 weight is zero once each of the two distinct points is
        # a center, so k-means++ draws uniformly and can pick a point
        # twice; Lloyd then re-seeds.
        pts = np.array([[1.0, 2.0]] * 5 + [[3.0, -1.0]] * 3)
        config = KMeansConfig(restarts=6, seed=5)
        centers = _init_centers(pts, 4, restart_rngs(config))
        assert any(len(np.unique(c, axis=0)) < 4 for c in centers)
        assert_batch_is_oracle(pts, centers, *_lloyd(pts, centers, 300))
        with pytest.raises(ValueError, match="k=4 is more than the 2 distinct points"):
            kmeans(pts, 4, config)

    def test_one_dimension_sums_as_mean_does(self):
        # mean() adds a column of 8 or more values pairwise, not in row
        # order, so one-dimensional clusters of 20 points test that path.
        rng = np.random.default_rng(25)
        pts = np.concatenate([rng.normal(size=20) * 1e3, rng.normal(size=20) + 1e4])[:, None]
        config = KMeansConfig(restarts=5, seed=6)
        centers = _init_centers(pts, 2, restart_rngs(config))
        assert_batch_is_oracle(pts, centers, *_lloyd(pts, centers, 300))
        np.testing.assert_array_equal(kmeans(pts, 2, config), oracle_kmeans(pts, 2, config)[0])

    def test_ties_keep_the_earliest_restart(self):
        # Two separated blobs: every restart ends with the same wcss, and
        # the labels of restart 0 win.
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        config = KMeansConfig(restarts=6, seed=7)
        labels, _, wcss = _lloyd(pts, _init_centers(pts, 2, restart_rngs(config)), 300)
        assert len(set(wcss.tolist())) == 1
        assert len({tuple(row) for row in labels.tolist()}) == 2
        np.testing.assert_array_equal(kmeans(pts, 2, config), labels[0])


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
