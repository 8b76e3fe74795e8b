"""Planted-structure generator: shapes, determinism, separation, hub spans."""

import numpy as np
import pytest

from mvgehd.graph import validate_affinity
from mvgehd.synth import (
    PlantedSpec,
    generate_cohort,
    generate_multiview,
    hub_spans,
    planted_layout,
)


class TestSpecValidation:
    def test_infeasible_spec(self):
        with pytest.raises(ValueError, match="infeasible"):
            PlantedSpec(n=4, clusters=3, hubs=2, views=1)

    def test_separation_ordering(self):
        with pytest.raises(ValueError):
            PlantedSpec(n=10, clusters=2, hubs=0, views=1, p_intra=0.3, p_inter=0.5)

    def test_quality_broadcast_and_bounds(self):
        spec = PlantedSpec(n=10, clusters=2, hubs=0, views=3, view_quality=0.5)
        assert spec.view_quality == (0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            PlantedSpec(n=10, clusters=2, hubs=0, views=2, view_quality=(1.0, 1.5))
        with pytest.raises(ValueError):
            PlantedSpec(n=10, clusters=2, hubs=0, views=2, view_quality=(1.0,))

    def test_hubs_need_two_modules(self):
        with pytest.raises(ValueError):
            PlantedSpec(n=10, clusters=1, hubs=1, views=1)

    @pytest.mark.parametrize("seed", [-1, None, 2.0])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer >= 0, got {seed!r}"):
            PlantedSpec(n=10, clusters=2, hubs=0, views=1, seed=seed)


class TestGenerateMultiview:
    def test_shape_contract(self):
        spec = PlantedSpec(n=20, clusters=2, hubs=2, views=2, seed=7)
        graph, truth = generate_multiview(spec)
        assert graph.n == 20 and graph.m == 2
        assert set(truth.labels) <= {0, 1}
        assert truth.hub_set.size == 2

    def test_deterministic(self):
        spec = PlantedSpec(n=20, clusters=2, hubs=2, views=2, seed=7)
        g1, t1 = generate_multiview(spec)
        g2, t2 = generate_multiview(spec)
        for a, b in zip(g1.views, g2.views):
            assert np.array_equal(a, b)
        assert np.array_equal(t1.labels, t2.labels)

    def test_seeds_differ(self):
        a, _ = generate_multiview(PlantedSpec(n=20, clusters=2, hubs=0, views=1, seed=1))
        b, _ = generate_multiview(PlantedSpec(n=20, clusters=2, hubs=0, views=1, seed=2))
        assert not np.array_equal(a.views[0], b.views[0])

    def test_intra_exceeds_inter_in_every_view(self):
        spec = PlantedSpec(n=40, clusters=3, hubs=0, views=2, seed=3,
                           p_intra=0.9, p_inter=0.1, noise_sigma=0.05)
        graph, truth = generate_multiview(spec)
        same = truth.labels[:, None] == truth.labels[None, :]
        off = ~np.eye(40, dtype=bool)
        for view in graph.views:
            assert view[same & off].mean() > view[~same].mean()

    def test_passes_affinity_invariants(self):
        spec = PlantedSpec(n=30, clusters=3, hubs=3, views=2, seed=5)
        graph, _ = generate_multiview(spec)
        for view in graph.views:
            validate_affinity(view)
            assert view.min() >= 0.0 and view.max() <= 1.0

    def test_hubs_span_multiple_modules(self):
        spec = PlantedSpec(n=50, clusters=4, hubs=5, views=2, seed=11)
        graph, truth = generate_multiview(spec)
        midpoint = (spec.p_intra + spec.p_inter) / 2
        for h in truth.hub_set:
            strong = graph.views[0][h] > midpoint
            modules_hit = set(truth.labels[np.flatnonzero(strong)]) - {truth.labels[h]}
            assert len(modules_hit) >= 1
            assert len(set(truth.labels[np.flatnonzero(strong)])) >= 2

    def test_same_module_hubs_have_distinct_spans(self):
        spec = PlantedSpec(n=50, clusters=4, hubs=5, views=1, seed=0)
        truth = planted_layout(spec)
        spans = hub_spans(spec, truth)
        own = truth.labels[truth.hub_set]
        for i in range(len(spans)):
            for j in range(i + 1, len(spans)):
                if own[i] == own[j]:
                    assert spans[i] != spans[j]

    def test_quality_zero_removes_structure(self):
        spec = PlantedSpec(n=40, clusters=2, hubs=0, views=1, seed=9,
                           view_quality=0.0, noise_sigma=0.02)
        graph, truth = generate_multiview(spec)
        same = truth.labels[:, None] == truth.labels[None, :]
        off = ~np.eye(40, dtype=bool)
        intra = graph.views[0][same & off].mean()
        inter = graph.views[0][~same].mean()
        assert abs(intra - inter) < 0.01

    @pytest.mark.parametrize("view", [0, 1])
    def test_noise_free_means(self, view):
        # Modules 0-3 hold nodes 0-2, 3-5, 6-8 and 9-11. Hubs 12-15 sit in
        # modules 0-3 and span {1, 2}, {2, 3}, {3, 0} and {0, 1}.
        p_intra, p_inter, spread = 0.9, 0.1, 0.5
        quality = (1.0, 0.5)[view]
        spec = PlantedSpec(n=16, clusters=4, hubs=4, views=2, p_intra=p_intra,
                           p_inter=p_inter, noise_sigma=0.0, view_quality=(1.0, 0.5),
                           hub_spread=spread, seed=3)
        graph, truth = generate_multiview(spec)
        assert [sorted(span) for span in hub_spans(spec, truth)] == [[1, 2], [2, 3],
                                                                     [0, 3], [0, 1]]
        w = graph.views[view]
        contrast = quality * (p_intra - p_inter)
        strong, spanned = p_inter + contrast, p_inter + contrast * spread
        expected = {
            (0, 1): strong,     # inside module 0
            (0, 3): p_inter,    # modules 0 and 1
            (12, 0): strong,    # hub 12 and its own module
            (12, 3): spanned,   # hub 12 and module 1, which it spans
            (12, 9): p_inter,   # hub 12 and module 3, which it does not span
            # Hub 12 spans hub 13's module but not the reverse; hub 15
            # spans hub 12's module but not the reverse. The stronger tie wins.
            (12, 13): spanned,
            (12, 15): spanned,
        }
        for (i, j), value in expected.items():
            assert w[i, j] == w[j, i] == value, (i, j)
        assert not np.diag(w).any()


class TestLayout:
    def test_layout_is_seed_independent(self):
        a = planted_layout(PlantedSpec(n=33, clusters=4, hubs=3, views=1, seed=1))
        b = planted_layout(PlantedSpec(n=33, clusters=4, hubs=3, views=1, seed=999))
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.hub_set, b.hub_set)

    def test_module_sizes_near_equal(self):
        truth = planted_layout(PlantedSpec(n=23, clusters=4, hubs=3, views=1))
        sizes = np.bincount(truth.labels[:20])
        assert sizes.max() - sizes.min() <= 1


class TestGenerateCohort:
    def test_shape_contract(self):
        a = PlantedSpec(n=20, clusters=2, hubs=2, views=2, seed=1)
        b = PlantedSpec(n=20, clusters=4, hubs=2, views=2, seed=2)
        subjects, labels = generate_cohort(a, b, 3, 2)
        assert len(subjects) == 5
        np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1])

    def test_identical_specs_give_twin_subjects(self):
        a = PlantedSpec(n=15, clusters=3, hubs=0, views=1, seed=5)
        subjects, _ = generate_cohort(a, a, 2, 2)
        assert np.array_equal(subjects[0].views[0], subjects[2].views[0])
        assert np.array_equal(subjects[1].views[0], subjects[3].views[0])
        assert not np.array_equal(subjects[0].views[0], subjects[1].views[0])

    def test_mismatched_specs_rejected(self):
        a = PlantedSpec(n=20, clusters=2, hubs=0, views=2, seed=1)
        b = PlantedSpec(n=21, clusters=2, hubs=0, views=2, seed=1)
        with pytest.raises(ValueError):
            generate_cohort(a, b, 1, 1)
        c = PlantedSpec(n=20, clusters=2, hubs=0, views=1, seed=1)
        with pytest.raises(ValueError):
            generate_cohort(a, c, 1, 1)

