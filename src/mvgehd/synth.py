"""Seeded synthetic multi-view graphs with planted modules and planted hubs.

Nodes split into contiguous modules of near-equal size, with the last
`hubs` nodes planted as boundary spanners. Pair weights are a base mean
plus symmetric Gaussian noise, clamped to [0, 1]:

  - internal pairs: p_inter between modules, and inside a module
    p_inter + quality * (p_intra - p_inter), so a view with quality 0
    degenerates to uniform noise (no structure at all);
  - hub pairs: a hub keeps full intra strength to its own module and
    hub_spread of the contrast toward two spanned foreign modules (chosen
    in rotation so no two hubs share the same span), giving it strong
    cross edges into several modules (the boundary-spanning signature).

Everything is a pure function of the spec, so the same spec reproduces the
same graphs bit for bit. The module layout depends only on (n, clusters,
hubs), never on the seed, which keeps embeddings comparable across subjects
drawn from the same spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MultiViewGraph


@dataclass(frozen=True)
class PlantedSpec:
    """Generator parameters for one multi-view graph with planted structure."""
    n: int
    clusters: int
    hubs: int
    views: int
    p_intra: float = 0.9
    p_inter: float = 0.01
    noise_sigma: float = 0.01
    view_quality: tuple = 1.0
    hub_spread: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.clusters < 1 or self.views < 1 or self.hubs < 0:
            raise ValueError("n, clusters, views must be >= 1 and hubs >= 0")
        if self.hubs + self.clusters > self.n:
            raise ValueError(
                f"infeasible spec: hubs ({self.hubs}) + clusters ({self.clusters}) > n ({self.n})")
        if self.hubs > 0 and self.clusters < 2:
            raise ValueError("planted hubs need at least 2 modules to span")
        if not 0.0 <= self.p_inter < self.p_intra <= 1.0:
            raise ValueError(
                f"need 0 <= p_inter < p_intra <= 1, got {self.p_inter}, {self.p_intra}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.hub_spread <= 1.0:
            raise ValueError(f"hub_spread must be in [0, 1], got {self.hub_spread}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        q = self.view_quality
        quality = tuple(float(x) for x in (q if np.iterable(q) else [q] * self.views))
        if len(quality) != self.views:
            raise ValueError(f"{len(quality)} view_quality values for {self.views} views")
        if not all(0.0 <= x <= 1.0 for x in quality):
            raise ValueError(f"view_quality values must be in [0, 1], got {quality}")
        object.__setattr__(self, "view_quality", quality)


@dataclass(frozen=True)
class PlantedTruth:
    """Ground truth for one generated graph: module labels and the hub set."""
    labels: np.ndarray
    hub_set: np.ndarray


def planted_layout(spec: PlantedSpec) -> PlantedTruth:
    """Module labels and hub indices implied by a spec (seed-independent)."""
    internal = spec.n - spec.hubs
    sizes = np.full(spec.clusters, internal // spec.clusters)
    sizes[: internal % spec.clusters] += 1
    labels = np.repeat(np.arange(spec.clusters), sizes)
    hub_labels = np.arange(spec.hubs) % spec.clusters
    labels = np.concatenate([labels, hub_labels])
    hub_set = np.arange(internal, spec.n)
    return PlantedTruth(labels=labels, hub_set=hub_set)


def hub_spans(spec: PlantedSpec, truth: PlantedTruth) -> list:
    """Foreign modules each hub spans (deterministic rotation over hubs).

    Every hub spans min(2, clusters - 1) modules other than its own; the
    rotation makes the spans of same-module hubs differ, so no two hubs
    have interchangeable neighborhoods.
    """
    spans = []
    for t, h in enumerate(truth.hub_set):
        own = int(truth.labels[h])
        others = [c for c in range(spec.clusters) if c != own]
        width = min(2, len(others))
        rot = t % len(others)
        spans.append({others[(rot + i) % len(others)] for i in range(width)})
    return spans


def _base_means(spec: PlantedSpec, truth: PlantedTruth, quality: float) -> np.ndarray:
    n = spec.n
    contrast = quality * (spec.p_intra - spec.p_inter)
    same = truth.labels[:, None] == truth.labels[None, :]
    base = np.full((n, n), spec.p_inter)
    base[same] += contrast
    # Hub rows/columns: full intra strength to the own module (as for any
    # node), plus hub_spread of the contrast into the spanned foreign modules.
    hub_set = truth.hub_set
    rows = base[hub_set]
    for row, span in zip(rows, hub_spans(spec, truth)):
        for c in span:
            row[truth.labels == c] += contrast * spec.hub_spread
    # A hub pair has two perspectives (each row assigns the other a
    # strength); keep the stronger tie, symmetrically.
    ties = rows[:, hub_set]
    rows[:, hub_set] = np.maximum(ties, ties.T)
    base[hub_set, :] = rows
    base[:, hub_set] = rows.T
    return base


def generate_multiview(spec: PlantedSpec, seed=None):
    """Draw one (MultiViewGraph, PlantedTruth) pair from a spec.

    `seed` overrides spec.seed (used for per-subject derived seeds);
    identical spec and seed reproduce identical matrices.
    """
    truth = planted_layout(spec)
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    n = spec.n
    iu = np.triu_indices(n, 1)
    views = []
    for quality in spec.view_quality:
        # Symmetric noise is added to the base means in place, and the view
        # is handed over read-only, so MultiViewGraph keeps it uncopied.
        w = _base_means(spec, truth, quality)
        noise = rng.normal(0.0, spec.noise_sigma, iu[0].size)
        w[iu] += noise
        w[iu[1], iu[0]] += noise
        np.clip(w, 0.0, 1.0, out=w)
        np.fill_diagonal(w, 0.0)
        w.flags.writeable = False
        views.append(w)
    return MultiViewGraph(views=tuple(views)), truth


def generate_cohort(spec_a: PlantedSpec, spec_b: PlantedSpec,
                    count_a: int, count_b: int):
    """Draw two groups of subjects, one per spec, with a cohort label vector.

    Subject i of a cohort is seeded by (spec.seed, i), so two cohorts built
    from identical specs produce pairwise-identical subjects.
    """
    if spec_a.n != spec_b.n:
        raise ValueError(f"specs disagree on n: {spec_a.n} vs {spec_b.n}")
    if spec_a.views != spec_b.views:
        raise ValueError(f"specs disagree on views: {spec_a.views} vs {spec_b.views}")
    if count_a < 0 or count_b < 0 or count_a + count_b == 0:
        raise ValueError("cohort sizes must be nonnegative and not both zero")
    subjects = []
    for spec, count in ((spec_a, count_a), (spec_b, count_b)):
        for i in range(count):
            seed = np.random.SeedSequence([spec.seed, i]).generate_state(1)[0]
            graph, _ = generate_multiview(spec, seed=int(seed))
            subjects.append(graph)
    labels = np.concatenate([np.zeros(count_a, dtype=np.int64),
                             np.ones(count_b, dtype=np.int64)])
    return subjects, labels

