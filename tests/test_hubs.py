"""Hub scoring, selection, betweenness, and hub-edge removal."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from mvgehd.graph import MultiViewGraph, validate_affinity
from mvgehd.hubs import (
    betweenness,
    hub_report,
    hub_scores,
    remove_hub_edges,
    select_hubs,
)


def brute_betweenness(a):
    """All-pairs shortest-path enumeration (distances 1/a_ij).

    Each pair is enumerated from both endpoints, with lengths summed outward
    from the starting one, and each direction carries half of the pair, so
    a tie that rounding makes from one endpoint only counts half.
    """
    n = a.shape[0]
    scores = np.zeros(n)
    for s in range(n):
        for t in range(n):
            if t == s:
                continue
            paths = []

            def dfs(node, length, path, visited):
                if node == t:
                    paths.append((length, tuple(path)))
                    return
                for w in range(n):
                    if a[node, w] > 0 and w not in visited:
                        dfs(w, length + 1.0 / a[node, w], path + [w], visited | {w})

            dfs(s, 0.0, [s], {s})
            if not paths:
                continue
            dmin = min(length for length, _ in paths)
            shortest = [p for length, p in paths if length == dmin]
            for p in shortest:
                for v in p[1:-1]:
                    scores[v] += 0.5 / len(shortest)
    return scores


def rank_recompute_betweenness(a):
    """Reference: Brandes over settle ranks with every predecessor mask
    built in the forward pass and rebuilt in the backward pass.

    Returns the scores and each settle rank's number of (source,
    predecessor) entries; betweenness keeps a rank's entries as index
    lists when that number is at most n.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = a.shape[0]
    edges = a > 0
    length = np.full((n, n), np.inf)
    length[edges] = 1.0 / a[edges]
    dist = dijkstra(csr_matrix(np.where(edges, length, 0.0)), directed=True)
    dist[np.isinf(dist)] = np.nan
    order = np.argsort(dist, axis=1, kind="stable")
    into = np.ascontiguousarray(length.T)
    src = np.arange(n)

    def predecessors(rank):
        w = order[:, rank]
        return w, dist + into[w] == dist[src, w][:, None]

    counts = np.zeros(n, dtype=np.int64)
    sigma = np.zeros((n, n))
    np.fill_diagonal(sigma, 1.0)
    for rank in range(1, n):
        w, pred = predecessors(rank)
        counts[rank] = np.count_nonzero(pred)
        sigma[src, w] = np.where(pred, sigma, 0.0).sum(axis=1)
    delta = np.zeros((n, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        for rank in range(n - 1, 0, -1):
            w, pred = predecessors(rank)
            share = sigma / sigma[src, w][:, None] * (1.0 + delta[src, w])[:, None]
            delta += np.where(pred, share, 0.0)
    np.fill_diagonal(delta, 0.0)
    return delta.sum(axis=0) / 2.0, counts


def binary_graph(rng, n, density):
    upper = np.triu(rng.uniform(size=(n, n)) < density, 1)
    return (upper | upper.T) * 1.0


def one_ended_tie_graph():
    """Path 0-1-2-3 costing 0.1, 0.2, 0.3 against edge 0-3 costing 0.6."""
    a = np.zeros((4, 4))
    for i, j, dist in ((0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3), (0, 3, 0.6)):
        a[i, j] = a[j, i] = 1 / dist
    return a


def random_weighted_graph(rng, n, density=0.6):
    a = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    w = rng.uniform(0.2, 1.0, iu[0].size)
    mask = rng.uniform(size=iu[0].size) < density
    a[iu] = np.where(mask, w, 0.0)
    return a + a.T


class TestHubScores:
    def test_zero_rows_most_hub_like(self):
        f = np.vstack([np.eye(2), np.zeros((2, 2))])
        got = hub_scores(f)
        np.testing.assert_array_equal(got, [1, 1, 0, 0])

    def test_equal_rows_equal_scores(self):
        f = np.tile([0.6, 0.8], (5, 1))
        np.testing.assert_allclose(hub_scores(f), np.ones(5))

    def test_matches_row_norm_oracle(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(9, 4))
        want = [np.sqrt(sum(x * x for x in row)) for row in f]
        np.testing.assert_allclose(hub_scores(f), want, rtol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        f = np.ones((3, 2))
        f[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hub_scores(f)


class TestSelectHubs:
    def test_top_two_smallest(self):
        got = select_hubs(np.array([0.1, 0.9, 0.8, 0.05]), top=2)
        assert set(got) == {3, 0}

    def test_tie_break_by_index(self):
        got = select_hubs(np.array([0.5, 0.5]), top=1)
        np.testing.assert_array_equal(got, [0])

    def test_threshold(self):
        got = select_hubs(np.array([0.1, 0.9, 0.8, 0.05]), threshold=0.2)
        assert set(got) == {0, 3}

    def test_top_too_large(self):
        with pytest.raises(ValueError):
            select_hubs(np.array([0.1, 0.2]), top=3)

    def test_exactly_one_strategy(self):
        with pytest.raises(ValueError):
            select_hubs(np.array([0.1]), top=1, threshold=0.5)
        with pytest.raises(ValueError):
            select_hubs(np.array([0.1]))

    def test_largest_top_breaks_ties_by_index(self):
        got = select_hubs(np.array([0.9, 0.1, 0.9, 0.5]), top=1, largest=True)
        np.testing.assert_array_equal(got, [0])

    def test_largest_threshold_is_inclusive(self):
        got = select_hubs(np.array([0.1, 0.9, 0.8, 0.05]), threshold=0.8, largest=True)
        np.testing.assert_array_equal(got, [1, 2])

    @pytest.mark.parametrize("largest", [False, True])
    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0])
    def test_rejects_bad_threshold(self, threshold, largest):
        with pytest.raises(ValueError, match="threshold"):
            select_hubs(np.array([0.1, 0.2]), threshold=threshold, largest=largest)


class TestBetweenness:
    def test_path_graph(self):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], float)
        np.testing.assert_allclose(betweenness(a), [0, 1, 0])

    def test_triangle(self):
        a = np.ones((3, 3)) - np.eye(3)
        np.testing.assert_allclose(betweenness(a), [0, 0, 0])

    def test_star_counts_all_pairs(self):
        n = 5
        a = np.zeros((n, n))
        a[0, 1:] = a[1:, 0] = 1.0
        # every one of the C(4,2) leaf pairs routes through the center
        np.testing.assert_allclose(betweenness(a), [6, 0, 0, 0, 0])

    def test_matches_enumeration_oracle(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 9))
            a = random_weighted_graph(rng, n)
            np.testing.assert_allclose(betweenness(a), brute_betweenness(a), atol=1e-9)

    def test_invariant_under_uniform_scaling(self):
        rng = np.random.default_rng(123)
        a = random_weighted_graph(rng, 10)
        base = betweenness(a)
        for c in (0.25, 4.0):
            np.testing.assert_array_equal(betweenness(c * a), base)

    def test_disconnected_pairs_contribute_nothing(self):
        a = np.zeros((5, 5))
        a[0, 1] = a[1, 0] = 1.0
        a[1, 2] = a[2, 1] = 1.0
        # nodes 3, 4 isolated: only the 0-2 pair routes through 1
        np.testing.assert_allclose(betweenness(a), [0, 1, 0, 0, 0])

    def test_dyadic_routes_tie_exactly(self):
        # 0-1-2 costs 0.25 + 0.25 and 0-2 costs 0.5: both sums are exact,
        # so the 0-2 pair splits and node 1 carries half of it.
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 4.0
        a[0, 2] = a[2, 0] = 2.0
        np.testing.assert_array_equal(betweenness(a), [0, 0.5, 0])
        np.testing.assert_array_equal(brute_betweenness(a), [0, 0.5, 0])

    def test_routes_equal_on_paper_do_not_tie(self):
        # 0-1-3 costs 0.1 + 0.2 and 0-2-3 costs 0.15 + 0.15; both are 0.3 on
        # paper, but the first rounds to 0.30000000000000004, so only node 2
        # carries the 0-3 pair. Node 0 carries the 1-2 pair (0.25 < 0.35).
        a = np.zeros((4, 4))
        for i, j, affinity in ((0, 1, 10.0), (1, 3, 5.0), (0, 2, 1 / 0.15), (2, 3, 1 / 0.15)):
            a[i, j] = a[j, i] = affinity
        assert 1 / a[0, 1] + 1 / a[1, 3] > 1 / a[0, 2] + 1 / a[2, 3]
        np.testing.assert_array_equal(betweenness(a), [1, 0, 1, 0])
        np.testing.assert_array_equal(brute_betweenness(a), [1, 0, 1, 0])

    def test_one_ended_tie_counts_half(self):
        # Path 0-1-2-3 costs 0.1, 0.2, 0.3 and edge 0-3 costs 0.6. Summed
        # from node 0 the path is 0.6000000000000001 and loses; summed from
        # node 3 it is 0.6 and ties, so nodes 1 and 2 each get a quarter of
        # the 0-3 pair on top of the 0-2 and 1-3 pairs they carry alone.
        a = one_ended_tie_graph()
        np.testing.assert_array_equal(betweenness(a), [0, 1.25, 1.25, 0])
        np.testing.assert_array_equal(brute_betweenness(a), [0, 1.25, 1.25, 0])

    @pytest.mark.parametrize("n", [1, 5])
    def test_edgeless_view_scores_zero(self, n):
        np.testing.assert_array_equal(betweenness(np.zeros((n, n))), np.zeros(n))


class TestBetweennessMatchesRankRecompute:
    """Bitwise equal to the reference on both kinds of settle rank: those
    kept as index lists (at most n predecessor entries) and those rebuilt
    as dense masks. Rank 1 always has at most n entries (the source is
    the only predecessor of its nearest node), so only ranks from 2 on
    tell the graphs apart."""

    @staticmethod
    def check(a, monkeypatch):
        want, counts = rank_recompute_betweenness(a)
        kept = counts[1:] <= a.shape[0]
        # betweenness turns each kept rank's mask into index lists with
        # one np.flatnonzero call, and makes no other.
        listed = []
        flatnonzero = np.flatnonzero

        def spy(mask):
            listed.append(mask.shape)
            return flatnonzero(mask)

        with monkeypatch.context() as patch:
            patch.setattr(np, "flatnonzero", spy)
            got = betweenness(a)
        assert np.array_equal(got, want)
        assert len(listed) == np.count_nonzero(kept)
        return kept[1:]

    def test_weighted_every_rank_kept(self, monkeypatch):
        a = random_weighted_graph(np.random.default_rng(3), 60, density=0.3)
        assert self.check(a, monkeypatch).all()

    @pytest.mark.parametrize("density", [0.1, 0.5])
    def test_binary_ties_rebuilt(self, monkeypatch, density):
        kept = self.check(binary_graph(np.random.default_rng(4), 60, density), monkeypatch)
        assert not kept.all()

    def test_mixed_runs_both_branches(self, monkeypatch):
        # Generic weights, with a binary block whose routes tie (dyadic
        # sums are exact) among nodes 0..19.
        rng = np.random.default_rng(5)
        a = random_weighted_graph(rng, 60, density=0.3)
        a[:20, :20] = binary_graph(rng, 20, 0.3) * 4.0
        kept = self.check(a, monkeypatch)
        assert kept.any() and not kept.all()

    def test_disconnected(self, monkeypatch):
        rng = np.random.default_rng(6)
        a = np.zeros((40, 40))
        a[:25, :25] = random_weighted_graph(rng, 25, 0.3)
        a[25:38, 25:38] = binary_graph(rng, 13, 0.4)
        assert connected_components(a, directed=False)[0] == 4
        self.check(a, monkeypatch)


def networkx_betweenness(a):
    """networkx Brandes betweenness on the upper triangle, distances 1/a_ij."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(a.shape[0]))
    rows, cols = np.nonzero(np.triu(a, 1))
    graph.add_weighted_edges_from(
        ((int(i), int(j), 1.0 / a[i, j]) for i, j in zip(rows, cols)), weight="dist")
    scores = nx.betweenness_centrality(graph, weight="dist", normalized=False)
    return np.array([scores[i] for i in range(a.shape[0])])


class TestBetweennessNetworkxOracle:
    @pytest.mark.parametrize("n", [30, 60])
    def test_symmetric_weighted(self, n):
        a = random_weighted_graph(np.random.default_rng(n), n, density=0.3)
        np.testing.assert_allclose(betweenness(a), networkx_betweenness(a), rtol=0, atol=1e-9)

    def test_unweighted_heavy_ties(self):
        a = (random_weighted_graph(np.random.default_rng(7), 40, density=0.15) > 0) * 1.0
        np.testing.assert_allclose(betweenness(a), networkx_betweenness(a), rtol=0, atol=1e-9)

    def test_one_ended_tie(self):
        a = one_ended_tie_graph()
        np.testing.assert_allclose(networkx_betweenness(a), [0, 1.25, 1.25, 0],
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(betweenness(a), networkx_betweenness(a), rtol=0, atol=1e-9)

    def test_two_components_and_isolated_node(self):
        rng = np.random.default_rng(8)
        a = np.zeros((22, 22))
        a[:12, :12] = random_weighted_graph(rng, 12, 0.4)
        a[12:21, 12:21] = random_weighted_graph(rng, 9, 0.5)
        assert connected_components(a, directed=False)[0] == 3
        got = betweenness(a)
        np.testing.assert_allclose(got, networkx_betweenness(a), rtol=0, atol=1e-9)
        assert got[21] == 0.0


class TestRemoveHubEdges:
    def test_single_hub_two_nodes(self):
        g = MultiViewGraph(views=(np.array([[0.0, 1.0], [1.0, 0.0]]),))
        out = remove_hub_edges(g, {0})
        np.testing.assert_array_equal(out.views[0], np.zeros((2, 2)))

    def test_empty_set_is_identity(self):
        g = MultiViewGraph(views=(np.array([[0.0, 1.0], [1.0, 0.0]]),))
        out = remove_hub_edges(g, set())
        np.testing.assert_array_equal(out.views[0], g.views[0])

    def test_triangle_keeps_far_edge(self):
        tri = np.ones((3, 3)) - np.eye(3)
        out = remove_hub_edges(MultiViewGraph(views=(tri,)), {1})
        want = np.zeros((3, 3))
        want[0, 2] = want[2, 0] = 1.0
        np.testing.assert_array_equal(out.views[0], want)

    def test_output_still_valid_affinity(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, size=(8, 8))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        out = remove_hub_edges(MultiViewGraph(views=(a,)), {2, 5})
        validate_affinity(out.views[0])

    def test_out_of_range(self):
        g = MultiViewGraph(views=(np.zeros((2, 2)),))
        with pytest.raises(ValueError):
            remove_hub_edges(g, {4})


class TestHubReport:
    def test_row_norm_selects_smallest(self):
        rep = hub_report(np.array([0.4, 0.1, 0.9]), "row_norm", top=1)
        np.testing.assert_array_equal(rep.selected, [1])
        np.testing.assert_array_equal(rep.ranking, [1, 0, 2])

    def test_betweenness_selects_largest(self):
        rep = hub_report(np.array([5.0, 0.5, 9.0]), "betweenness", top=1)
        np.testing.assert_array_equal(rep.selected, [2])

    def test_betweenness_threshold_selects_at_or_above(self):
        rep = hub_report(np.array([5.0, 0.5, 9.0]), "betweenness", threshold=5.0)
        np.testing.assert_array_equal(rep.selected, [0, 2])

    @pytest.mark.parametrize("method", ["row_norm", "betweenness"])
    @pytest.mark.parametrize("threshold", [np.nan, -1.0])
    def test_rejects_bad_threshold(self, method, threshold):
        with pytest.raises(ValueError, match="threshold"):
            hub_report(np.array([5.0, 0.5, 9.0]), method, threshold=threshold)

    def test_ranking_is_permutation(self):
        rng = np.random.default_rng(2)
        rep = hub_report(rng.uniform(size=12), "row_norm", top=3)
        assert sorted(rep.ranking) == list(range(12))
        assert set(rep.selected) <= set(rep.ranking)
