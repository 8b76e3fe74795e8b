"""K-means on embedding rows, subject-level similarity, and spectral
clustering of subjects.

Node clustering runs restarted Lloyd k-means, seeded by k-means++, on the
rows of one embedding. Subject clustering compares whole embeddings by
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


@dataclass(frozen=True)
class KMeansConfig:
    """Restart count and seed for k-means with k-means++ seeding."""
    restarts: int = 20
    seed: int | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _init_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    # k-means++: first center uniform, then D^2 sampling.
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = _squared_distances(points, centers[:1])[:, 0]
    for c in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(n, p=closest / total)
        else:
            idx = rng.integers(n)
        centers[c] = points[idx]
        closest = np.minimum(closest, _squared_distances(points, centers[c:c + 1])[:, 0])
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iters: int):
    """Lloyd iterations from given centers.

    Returns (labels, wcss, wcss_history). Empty clusters are re-seeded from
    the point currently farthest from its center, so the within-cluster sum
    of squares never increases across iterations.
    """
    k = centers.shape[0]
    centers = centers.copy()
    labels = None
    history = []
    for _ in range(max_iters):
        d2 = _squared_distances(points, centers)
        new_labels = np.argmin(d2, axis=1)
        assigned = d2[np.arange(points.shape[0]), new_labels]
        for c in range(k):
            if not np.any(new_labels == c):
                far = int(np.argmax(assigned))
                new_labels[far] = c
                assigned[far] = 0.0
        for c in range(k):
            centers[c] = points[new_labels == c].mean(axis=0)
        d2 = _squared_distances(points, centers)
        wcss = float(d2[np.arange(points.shape[0]), new_labels].sum())
        history.append(wcss)
        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
    return labels, history[-1], history


def kmeans(points: np.ndarray, k: int, config: KMeansConfig = KMeansConfig()) -> np.ndarray:
    """Best-of-restarts Lloyd k-means labels for N points in d dimensions.

    The run with the lowest within-cluster sum of squares wins; ties keep
    the earliest restart, so a fixed seed gives a fixed result.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected an N-by-d point matrix, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite entries")
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    best_labels, best_wcss = None, np.inf
    for child in np.random.SeedSequence(config.seed).spawn(config.restarts):
        rng = np.random.default_rng(child)
        centers = _init_centers(pts, k, rng)
        labels, wcss, _ = _lloyd(pts, centers, _KMEANS_MAX_ITERS)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
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
