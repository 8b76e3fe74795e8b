"""Clustering evaluation: accuracy under the best label bijection, and
normalized mutual information.

Accuracy maps predicted labels onto ground-truth labels with an optimal
assignment over the (negated) contingency table, so it is invariant to how
either side numbers its clusters. NMI is mutual information normalized by
the geometric mean of the two label entropies (natural logs), with the
zero-entropy case defined as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TIE_TOL = 1e-9


@dataclass(frozen=True)
class EvalResult:
    """Accuracy, NMI, and the label bijection accuracy used."""
    acc: float
    nmi: float
    mapping: np.ndarray


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment of rows to columns of a square cost matrix.

    Returns perm with perm[i] = column assigned to row i. Among all optimal
    assignments (ties within a 1e-9 relative tolerance on the total), the
    lexicographically smallest permutation is returned, which makes the
    result deterministic.
    """
    from scipy.optimize import linear_sum_assignment

    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix contains non-finite entries")
    k = c.shape[0]
    rows, cols = linear_sum_assignment(c)
    best = float(c[rows, cols].sum())
    tol = _TIE_TOL * max(1.0, abs(best))

    # Fix columns row by row, keeping the total optimal: the smallest
    # feasible column at each row yields the lexicographically smallest
    # optimal permutation.
    perm = np.full(k, -1, dtype=np.int64)
    used = np.zeros(k, dtype=bool)
    fixed_cost = 0.0
    for i in range(k):
        free_cols = np.flatnonzero(~used)
        for j in free_cols:
            rest_cols = free_cols[free_cols != j]
            if i + 1 == k:
                total = fixed_cost + c[i, j]
            else:
                sub = c[np.ix_(np.arange(i + 1, k), rest_cols)]
                r2, c2 = linear_sum_assignment(sub)
                total = fixed_cost + c[i, j] + float(sub[r2, c2].sum())
            if total <= best + tol:
                perm[i] = j
                used[j] = True
                fixed_cost += c[i, j]
                break
    return perm


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
    """Square count matrix over the union label alphabet.

    Entry [i, j] counts samples with predicted label i and true label j;
    the smaller alphabet is padded with empty labels so the table is square.
    """
    p, t = _check_labels(pred, truth)
    k = int(max(p.max(), t.max())) + 1
    table = np.zeros((k, k), dtype=np.int64)
    np.add.at(table, (p, t), 1)
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
