"""K-means on embedding rows, subject-level similarity, and spectral
clustering of subjects.

Node clustering runs restarted Lloyd k-means, seeded by k-means++, on the
rows of one embedding. The restarts run in lockstep batches; each keeps its
own generator and arithmetic, so the result is, bit for bit, that of
running them one at a time. Subject clustering compares whole embeddings by
Frobenius distance, converts the distances to a Gaussian affinity with a
median-heuristic bandwidth, and runs normalized spectral clustering on the
result. Comparing embeddings across subjects relies on the deterministic
eigenvector ordering and sign convention used by the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import smallest_eigenpairs

_KMEANS_MAX_ITERS = 300
# Most float64 elements of the (restarts, n, k, d) point-to-center
# differences that one batch of restarts holds, 256 KiB. The 20 restarts of
# a cohort's 40 two-dimensional points run as one batch. An n = 800, k = 6,
# d = 5 call (24000 elements a restart) runs one restart at a time: on a
# 2-vCPU host that took 34 ms against 31 ms for one batch of all 20, and
# peaked at 0.42 MB against 5.93 MB (tracemalloc).
_BATCH_ELEMENTS = 2 ** 15


@dataclass(frozen=True)
class KMeansConfig:
    """Restart count and seed for k-means with k-means++ seeding."""
    restarts: int = 20
    seed: int | None = None

    def __post_init__(self):
        if not (isinstance(self.restarts, (int, np.integer)) and self.restarts >= 1):
            raise ValueError(f"restarts must be an integer >= 1, got {self.restarts!r}")
        if self.seed is not None and not (isinstance(self.seed, (int, np.integer))
                                          and self.seed >= 0):
            raise ValueError(f"seed must be None or an integer >= 0, got {self.seed!r}")


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(B, n, k) squared distances from n points to each of B restarts' k centers."""
    diff = points[None, :, None, :] - centers[:, None, :, :]
    return np.einsum("bnkd,bnkd->bnk", diff, diff)


def _at_labels(d2: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """(B, n) entries of (B, n, k) distances at each point's label."""
    return np.take_along_axis(d2, labels[:, :, None], axis=2)[:, :, 0]


def _init_centers(points: np.ndarray, k: int, rngs) -> np.ndarray:
    """(B, k, d) k-means++ centers, one restart per generator: the first
    center uniform, then D^2 sampling. Each generator draws as a restart
    run alone would."""
    n = points.shape[0]
    centers = np.empty((len(rngs), k, points.shape[1]))
    centers[:, 0] = points[[rng.integers(n) for rng in rngs]]
    closest = _squared_distances(points, centers[:, :1])[:, :, 0]
    for c in range(1, k):
        totals = closest.sum(axis=1)
        for b, rng in enumerate(rngs):
            if totals[b] > 0:
                idx = rng.choice(n, p=closest[b] / totals[b])
            else:
                idx = rng.integers(n)
            centers[b, c] = points[idx]
        closest = np.minimum(closest, _squared_distances(points, centers[:, c:c + 1])[:, :, 0])
    return centers


def _cluster_means(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """(B, k, d) means of each restart's clusters, bitwise those of
    `points[labels[b] == c].mean(axis=0)`: for d >= 2 that adds rows in row
    order, as np.bincount does."""
    batch, (n, d) = len(labels), points.shape
    if d == 1:
        # mean() adds a single column pairwise, not in row order.
        return np.array([[points[row == c].mean(axis=0) for c in range(k)] for row in labels])
    bins = labels + k * np.arange(batch)[:, None]
    counts = np.bincount(bins.ravel(), minlength=batch * k)
    cells = (bins[:, :, None] * d + np.arange(d)).ravel()
    sums = np.bincount(cells, weights=np.broadcast_to(points, (batch, n, d)).ravel(),
                       minlength=batch * k * d)
    return sums.reshape(batch, k, d) / counts.reshape(batch, k, 1)


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iters: int):
    """Lloyd iterations of a batch of restarts from their (B, k, d) centers,
    in lockstep; a restart leaves the batch when its labels repeat.

    Returns each restart's labels (B, n), centers (B, k, d) and
    within-cluster sum of squares (B,). A restart's empty clusters are
    re-seeded from its point currently farthest from its center, so its
    within-cluster sum of squares never increases across iterations.
    """
    batch, k, _ = centers.shape
    centers = centers.copy()
    labels = np.empty((batch, points.shape[0]), dtype=np.intp)
    wcss = np.empty(batch)
    active, previous = np.arange(batch), np.full_like(labels, -1)
    for _ in range(max_iters):
        d2 = _squared_distances(points, centers[active])
        new_labels = np.argmin(d2, axis=2)
        assigned = _at_labels(d2, new_labels)
        counts = np.bincount((new_labels + k * np.arange(len(active))[:, None]).ravel(),
                             minlength=len(active) * k).reshape(-1, k)
        for r in np.flatnonzero(np.any(counts == 0, axis=1)):
            row, dist = new_labels[r], assigned[r]
            for c in range(k):
                if not np.any(row == c):
                    far = int(np.argmax(dist))
                    row[far] = c
                    dist[far] = 0.0
        centers[active] = means = _cluster_means(points, new_labels, k)
        wcss[active] = _at_labels(_squared_distances(points, means), new_labels).sum(axis=1)
        labels[active] = new_labels
        moving = np.any(new_labels != previous, axis=1)
        active, previous = active[moving], new_labels[moving]
        if not active.size:
            break
    return labels, centers, wcss


def kmeans(points: np.ndarray, k: int, config: KMeansConfig = KMeansConfig()) -> np.ndarray:
    """Best-of-restarts Lloyd k-means labels for N points in d dimensions.

    The run with the lowest within-cluster sum of squares wins; ties keep
    the earliest restart, so a fixed seed gives a fixed result. Restarts
    run in lockstep batches of at most _BATCH_ELEMENTS differences; each
    keeps its own generator, so the result is that of running them one by
    one.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected an N-by-d point matrix, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite entries")
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    # With fewer distinct points than k, every Lloyd iteration re-seeds an
    # empty cluster from a duplicate point and empties another, so each
    # restart would run to its iteration cap and a mean could turn NaN.
    distinct = len(np.unique(pts, axis=0))
    if k > distinct:
        raise ValueError(f"k={k} is more than the {distinct} distinct points")
    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(config.seed).spawn(config.restarts)]
    per_batch = max(1, _BATCH_ELEMENTS // (n * k * pts.shape[1]))
    best_labels, best_wcss = None, np.inf
    for start in range(0, len(rngs), per_batch):
        centers = _init_centers(pts, k, rngs[start:start + per_batch])
        labels, _, wcss = _lloyd(pts, centers, _KMEANS_MAX_ITERS)
        for row, row_wcss in zip(labels, wcss):
            if row_wcss < best_wcss:
                best_labels, best_wcss = row, row_wcss
    return best_labels


def node_clusters(embedding: np.ndarray, k: int,
                  config: KMeansConfig = KMeansConfig()) -> np.ndarray:
    """Cluster graph nodes by k-means on the rows of an embedding."""
    return kmeans(np.asarray(embedding, dtype=np.float64), k, config)


def pairwise_similarity(embeddings) -> np.ndarray:
    """Negated Frobenius distance between every pair of embeddings.

    Output is symmetric with zero diagonal and nonpositive entries; larger
    (closer to zero) means more similar.
    """
    mats = [np.asarray(e, dtype=np.float64) for e in embeddings]
    if len(mats) == 0:
        raise ValueError("need at least one embedding")
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise ValueError(f"embedding {i} has shape {m.shape}, expected {shape}")
    n = len(mats)
    sim = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(mats[i] - mats[j]))
            sim[i, j] = sim[j, i] = -d
    return sim


def spectral_rows(embeddings, k: int) -> np.ndarray:
    """Row-normalized spectral basis of the subjects, the points that
    subject clustering hands to k-means.

    Distances d_ij = ||F_i - F_j||_F become affinities
    exp(-d_ij^2 / (2 sigma^2)) with sigma the median off-diagonal distance;
    the k smallest eigenvectors of the symmetric-normalized Laplacian,
    row-normalized, give one row per subject. Only k-means is seeded, so a
    caller that clusters the same embeddings under several seeds computes
    this once.
    """
    n = len(embeddings)
    if n < k:
        raise ValueError(f"need at least k={k} embeddings, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dist = -pairwise_similarity(embeddings)
    off = dist[~np.eye(n, dtype=bool)]
    sigma = float(np.median(off)) if off.size else 0.0
    if sigma == 0.0:
        raise ValueError("degenerate input: embeddings are all identical (zero median distance)")
    affinity = np.exp(-(dist ** 2) / (2.0 * sigma ** 2))
    inv_sqrt_deg = 1.0 / np.sqrt(affinity.sum(axis=1))
    lap = np.eye(n) - inv_sqrt_deg[:, None] * affinity * inv_sqrt_deg[None, :]
    basis = smallest_eigenpairs(lap, k).eigenvectors
    norms = np.linalg.norm(basis, axis=1)
    return basis / np.where(norms > 0, norms, 1.0)[:, None]


def cluster_subjects(embeddings, k: int = 2,
                     config: KMeansConfig = KMeansConfig()) -> np.ndarray:
    """Group subjects by normalized spectral clustering of their embeddings:
    k-means on `spectral_rows(embeddings, k)`."""
    return kmeans(spectral_rows(embeddings, k), k, config)
