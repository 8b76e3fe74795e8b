"""Hub scoring, hub-set selection, and hub-edge removal.

Two hub signals are supported. The embedding row norm reads hubs directly
off the solver output: the row-sparse penalty drives boundary-spanning rows
toward zero, so a SMALL norm marks a hub. Shortest-path betweenness is the
classic standalone baseline, where a LARGE score marks a hub; affinities
convert to distances as 1/a_ij.

Betweenness follows Brandes (J. Math. Sociol. 2001) with every source
handled at once in array code. `scipy.sparse.csgraph.dijkstra` gives the
all-pairs distances; each source settles its nodes in a stable argsort of
its distance row. A forward pass over the settle ranks sums the path
counts of each node's shortest-path predecessors, and a backward pass over
the ranks in reverse pushes dependencies back to them. The forward pass
builds each rank's n-by-n predecessor mask once. A rank whose mask holds
at most n entries (one predecessor per source on average), which is every
rank of a graph with generic weights, keeps them as index lists, and both
passes work on those entries only; a rank with more (tied routes, as in
binary views) is summed from the dense mask and rebuilds it in the
backward pass. The lists hold at most n(n-1) entries, so time is O(n^3)
in n steps of at most n-by-n array work and memory stays O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MultiViewGraph

HUB_METHODS = ("row_norm", "betweenness")


@dataclass(frozen=True)
class HubReport:
    """Per-node hub scores with a ranking and the chosen hub set.

    ranking sorts node indices by ascending score (ties by lower index);
    for `row_norm` hubs sit at the front of the ranking, for `betweenness`
    at the back. selected is always stored in ascending index order.
    """
    method: str
    scores: np.ndarray
    ranking: np.ndarray
    selected: np.ndarray


def hub_scores(embedding: np.ndarray) -> np.ndarray:
    """Euclidean norm of each embedding row; small norm means hub-like."""
    f = np.asarray(embedding, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError(f"expected an n-by-k embedding, got shape {f.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("embedding contains non-finite entries")
    return np.linalg.norm(f, axis=1)


def score_ranking(scores: np.ndarray) -> np.ndarray:
    """Node indices sorted by ascending score, ties broken by lower index."""
    return np.argsort(np.asarray(scores), kind="stable")


def select_hubs(scores: np.ndarray, top: int | None = None,
                threshold: float | None = None, largest: bool = False) -> np.ndarray:
    """Pick low-score nodes, either the `top` smallest or all at or below `threshold`.

    With largest=True the direction flips: the `top` largest (ties by lower
    index), or all at or above `threshold`. Exactly one strategy must be
    given, and a threshold must be finite and >= 0. Returns indices in
    ascending order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    check_selection(scores.size, top, threshold)
    if top is not None:
        return np.sort(score_ranking(-scores if largest else scores)[:top])
    return np.flatnonzero(scores >= threshold if largest else scores <= threshold)


def check_selection(size: int, top: int | None, threshold: float | None) -> None:
    """Raise ValueError unless select_hubs can choose from `size` scores:
    exactly one of `top` (in 0..size) and `threshold` (finite, >= 0)."""
    if (top is None) == (threshold is None):
        raise ValueError("give exactly one of top= or threshold=")
    if top is not None and not 0 <= top <= size:
        raise ValueError(f"top must be in 0..{size}, got {top}")
    if threshold is not None and not (np.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")


def betweenness(view: np.ndarray) -> np.ndarray:
    """Shortest-path betweenness of each node on one weighted view.

    Edge distance is 1/a_ij for a_ij > 0 (strong affinity = short hop);
    zero affinities are non-edges. Edges are read directionally, row to
    column, so a view that is symmetric only within SYMMETRY_TOL is used as
    given. Scores are unnormalized pair counts: each unordered
    source/target pair splits one unit over its shortest paths, credited to
    intermediate nodes; disconnected pairs contribute nothing. Rescaling
    all affinities by a power of two leaves the scores bitwise unchanged;
    other factors can make or break float ties (below).

    Float-tie rule: a path length is the float sum of its edge distances,
    added outward from the source. Two paths tie only when their lengths
    are exactly equal (`==`, no tolerance), so routes that are equal on
    paper but round differently (0.1 + 0.2 against 0.3) do not tie, while
    dyadic ones (0.25 + 0.25 against 0.5) do. Each pair is scored from
    both endpoints and halved, so a tie that rounding keeps from one end
    only counts half. Nodes at equal distance from a source settle in
    node-index order. The rule assumes that adding an edge distance to a
    path length always changes it, which holds unless the largest and
    smallest affinity differ by a factor near 2**53 / n.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    a = np.asarray(view, dtype=np.float64)
    n = a.shape[0]
    edges = a > 0
    length = np.full((n, n), np.inf)
    length[edges] = 1.0 / a[edges]
    dist = dijkstra(csr_matrix(np.where(edges, length, 0.0)), directed=True)
    # NaN makes every comparison with an unreachable node False, so it is
    # never a predecessor and never has one; argsort settles it last.
    dist[np.isinf(dist)] = np.nan
    order = np.argsort(dist, axis=1, kind="stable")
    into = np.ascontiguousarray(length.T)  # into[w, v] = length of edge v -> w
    del length
    src = np.arange(n)

    def predecessors(w):
        # pred[s, v]: edge v -> w[s] ends a shortest s-w[s] path.
        through = into[w]
        through += dist
        return through == dist[src, w][:, None]

    # Forward pass: path counts sigma[s, w], one settle rank at a time. A
    # rank with at most n (source, predecessor) entries keeps them as index
    # lists for both passes; others (ties) rebuild the mask in the backward
    # pass. Path counts are whole numbers, exact in any summation order.
    sigma = np.zeros((n, n))
    np.fill_diagonal(sigma, 1.0)
    stored = [None] * n
    for rank in range(1, n):
        w = order[:, rank]
        pred = predecessors(w)
        if np.count_nonzero(pred) <= n:
            s, v = stored[rank] = np.divmod(np.flatnonzero(pred), n)
            sigma[src, w] = np.bincount(s, weights=sigma[s, v], minlength=n)
        else:
            sigma[src, w] = np.where(pred, sigma, 0.0).sum(axis=1)
    # Backward pass: dependencies delta[s, v], pushed from each node to its
    # predecessors in reverse settle order. sigma[s, w] is 0 only where w is
    # unreachable, and then pred is empty, so the shares divided by it are
    # discarded.
    delta = np.zeros((n, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        for rank in range(n - 1, 0, -1):
            w = order[:, rank]
            if stored[rank] is not None:
                s, v = stored[rank]
                ws = w[s]
                delta[s, v] += sigma[s, v] / sigma[s, ws] * (1.0 + delta[s, ws])
            else:
                share = sigma / sigma[src, w][:, None] * (1.0 + delta[src, w])[:, None]
                delta += np.where(predecessors(w), share, 0.0)
    np.fill_diagonal(delta, 0.0)
    # Each unordered pair was counted from both endpoints.
    return delta.sum(axis=0) / 2.0


def remove_hub_edges(graph: MultiViewGraph, hubs) -> MultiViewGraph:
    """Zero out the rows and columns of the hub nodes in every view.

    The hubs then have zero degree in every view, so `solve` rejects the
    stripped graph with IsolatedNodeError until they are dropped from it,
    as demos/02_hub_detection.py does.
    """
    idx = np.asarray(list(hubs), dtype=np.int64)
    n = graph.n
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"hub index out of range for {n} nodes: {idx}")
    views = []
    for view in graph.views:
        v = view.copy()
        v[idx, :] = 0.0
        v[:, idx] = 0.0
        views.append(v)
    return MultiViewGraph(views=tuple(views), node_names=graph.node_names)


def hub_report(scores: np.ndarray, method: str, top: int | None = None,
               threshold: float | None = None) -> HubReport:
    """Bundle scores, ranking, and a hub selection into a HubReport.

    For `row_norm` the selection favors small scores; for `betweenness` it
    favors large ones (top largest, or score >= threshold).
    """
    if method not in HUB_METHODS:
        raise ValueError(f"unknown hub method {method!r}; expected one of {HUB_METHODS}")
    scores = np.asarray(scores, dtype=np.float64)
    return HubReport(
        method=method,
        scores=scores,
        ranking=score_ranking(scores),
        selected=select_hubs(scores, top=top, threshold=threshold,
                             largest=method == "betweenness"),
    )
