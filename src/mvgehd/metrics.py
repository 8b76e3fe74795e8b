"""Clustering evaluation: accuracy under the best label bijection, and
normalized mutual information.

Accuracy maps predicted labels onto ground-truth labels with an optimal
assignment over the (negated) contingency table, so it is invariant to how
either side numbers its clusters. The assignment solver (`hungarian`) is
numpy alone, so scoring loads no SciPy. NMI is mutual information
normalized by the geometric mean of the two label entropies (natural
logs), with the zero-entropy case defined as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TIE_TOL = 1e-9


@dataclass(frozen=True)
class EvalResult:
    """Accuracy, NMI, and the label bijection accuracy used.

    mapping[i] = j maps the i-th smallest label that occurs in either input,
    as a prediction, onto the j-th smallest, as a truth (see
    contingency_table); when the labels are 0..k-1, label i onto label j.
    """
    acc: float
    nmi: float
    mapping: np.ndarray


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment of rows to columns of a square cost matrix.

    Returns perm with perm[i] = column assigned to row i, as an int64 array.

    The solver is the Hungarian method with shortest augmenting paths
    (Jonker & Volgenant, 1987): rows join one at a time, each along a
    shortest alternating path found over all columns at once, and the row
    and column potentials u, v keep every reduced cost c - u - v
    nonnegative, zero on the matching: O(k^3) work in at most k^2 steps,
    each vectorised over the columns.

    Ties: with `best` the optimal total, an edge is tight when its reduced
    cost is at most _TIE_TOL * max(1, |best|) (_TIE_TOL = 1e-9). Rows are
    fixed in order, each to the smallest unfixed column whose edge is tight
    and which leaves a perfect matching of tight edges among the rows and
    columns not yet fixed: when the current matching gives that column to a
    later row, that row is rerouted along an alternating path of tight
    edges to the column the fixed row gives up, and when no such path
    exists the next column is tried. The result is the lexicographically
    smallest permutation made of tight edges. Every optimal permutation is
    one; with integer costs, such as negated contingency tables, the
    potentials and reduced costs are integers and only the optimal
    permutations are, so the result is the lexicographically smallest
    optimal permutation.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix contains non-finite entries")
    k = c.shape[0]
    u, v = np.zeros(k), np.zeros(k)
    row_of = np.full(k, -1, dtype=np.int64)  # row matched to each column
    for i in range(k):
        # Dijkstra over columns from row i; way[j] is the column before j
        # on the shortest alternating path (-1: reached from row i itself).
        minv = np.full(k, np.inf)
        way = np.full(k, -1, dtype=np.int64)
        used = np.zeros(k, dtype=bool)
        tree_rows = [i]
        row, col = i, -1
        while True:
            reduced = c[row] - u[row] - v
            better = ~used & (reduced < minv)
            minv[better] = reduced[better]
            way[better] = col
            pending = np.where(used, np.inf, minv)
            col = int(pending.argmin())
            delta = minv[col]
            if row_of[col] >= 0:
                # Among equally near columns an unmatched one ends the path
                # now; without this, the zero rows and columns of a padded
                # table are each walked through every matched zero column.
                ends = np.flatnonzero((pending == delta) & (row_of < 0))
                if ends.size:
                    col = int(ends[0])
            u[tree_rows] += delta
            v[used] -= delta
            minv[~used] -= delta
            if row_of[col] < 0:
                break
            used[col] = True
            row = int(row_of[col])
            tree_rows.append(row)
        while col >= 0:
            prev = int(way[col])
            row_of[col] = i if prev < 0 else row_of[prev]
            col = prev
    col_of = np.empty(k, dtype=np.int64)
    col_of[row_of] = np.arange(k)
    best = float(c[np.arange(k), col_of].sum())
    tight = c - u[:, None] - v <= _TIE_TOL * max(1.0, abs(best))

    free = np.ones(k, dtype=bool)  # columns not yet fixed to a row
    for i in range(k):
        for j in np.flatnonzero(tight[i] & free):
            if j == col_of[i] or _reroute(tight, row_of, col_of, free, i, j):
                break
        free[col_of[i]] = False
    return col_of


def _reroute(tight, row_of, col_of, free, i, j) -> bool:
    """Give column j to row i within the tight edges, if it can be done.

    Row r = row_of[j] must then take a new column: a breadth-first search
    from r over alternating paths of tight edges, through free columns
    other than j, looks for the column i gives up. On success the matching
    is flipped along that path and True returned; otherwise nothing changes.
    """
    target = col_of[i]
    reached_from = np.full(len(col_of), -1, dtype=np.int64)  # row that reached each column
    seen = ~free
    seen[j] = True
    frontier = row_of[[j]]
    while frontier.size:
        reach = tight[frontier] & ~seen
        cols = np.flatnonzero(reach.any(axis=0))
        reached_from[cols] = frontier[reach[:, cols].argmax(axis=0)]
        if reached_from[target] >= 0:
            col = target
            while True:
                row = reached_from[col]
                col, col_of[row] = col_of[row], col
                row_of[col_of[row]] = row
                if col == j:
                    break
            col_of[i], row_of[j] = j, i
            return True
        seen[cols] = True
        frontier = row_of[cols]
    return False


def as_labels(labels) -> np.ndarray:
    """`labels` as a 1-D int64 array; ValueError unless all are nonnegative whole numbers."""
    a = np.asarray(labels)
    if a.dtype.kind == "f" and np.all(np.isfinite(a) & (a == np.round(a))):
        a = a.astype(np.int64)
    if a.dtype.kind not in "biu":
        raise ValueError("labels must be whole numbers")
    a = a.astype(np.int64, copy=False)
    if a.ndim != 1:
        raise ValueError("label arrays must be one-dimensional")
    if a.size and a.min() < 0:
        raise ValueError("labels must be nonnegative integers")
    return a


def _check_labels(pred, truth):
    p, t = as_labels(pred), as_labels(truth)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} predictions vs {t.shape[0]} truths")
    if p.size == 0:
        raise ValueError("label arrays must be non-empty")
    return p, t


def contingency_table(pred, truth) -> np.ndarray:
    """Square count matrix over the sorted union of the labels that occur.

    With `labels` that union, entry [i, j] counts samples with predicted
    label labels[i] and true label labels[j]; a label that occurs on one
    side only has an empty row or column there, so the table is square.
    When the labels are 0..k-1, index i is label i.
    """
    p, t = _check_labels(pred, truth)
    labels, index = np.unique(np.concatenate([p, t]), return_inverse=True)
    k = len(labels)
    table = np.zeros((k, k), dtype=np.int64)
    np.add.at(table, (index[:len(p)], index[len(p):]), 1)
    return table


def _best_match(table: np.ndarray):
    """Accuracy under the best label bijection of a contingency table, and
    that bijection."""
    perm = hungarian(-table.astype(np.float64))
    return float(table[np.arange(table.shape[0]), perm].sum()) / float(table.sum()), perm


def _nmi(table: np.ndarray) -> float:
    """NMI of a contingency table (see nmi)."""
    n = int(table.sum())
    # Marginals summed on the integer table are exact, so relabeling cannot
    # perturb them.
    pi = table.sum(axis=1) / n
    qj = table.sum(axis=0) / n
    joint = table / n
    nz = joint > 0
    mi = math.fsum(joint[nz] * np.log(joint[nz] / np.outer(pi, qj)[nz]))
    hp = -math.fsum(pi[pi > 0] * np.log(pi[pi > 0]))
    ht = -math.fsum(qj[qj > 0] * np.log(qj[qj > 0]))
    if hp * ht == 0.0:
        return 0.0
    return float(min(max(mi / math.sqrt(hp * ht), 0.0), 1.0))


def accuracy(pred, truth) -> float:
    """Fraction of samples matched under the best label bijection."""
    return _best_match(contingency_table(pred, truth))[0]


def nmi(pred, truth) -> float:
    """Mutual information over sqrt(H(pred) H(truth)); 0 if either entropy is 0.

    Sums go through math.fsum (exactly rounded), so relabeling either side
    permutes the terms without changing the result, bit for bit.
    """
    return _nmi(contingency_table(pred, truth))


def evaluate(pred, truth) -> EvalResult:
    """Accuracy, NMI, and the accuracy label mapping, from one contingency table."""
    table = contingency_table(pred, truth)
    acc, perm = _best_match(table)
    return EvalResult(acc=acc, nmi=_nmi(table), mapping=perm)
