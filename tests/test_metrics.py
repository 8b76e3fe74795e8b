"""Assignment solver, clustering accuracy, and normalized mutual information."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

import mvgehd.metrics
from mvgehd.metrics import accuracy, evaluate, hungarian, nmi


def brute_force_assignment(cost):
    """Minimum-cost permutation by enumeration, lexicographically first."""
    k = cost.shape[0]
    best, best_perm = np.inf, None
    for perm in itertools.permutations(range(k)):
        total = sum(cost[i, perm[i]] for i in range(k))
        if total < best - 1e-12:
            best, best_perm = total, perm
    return np.array(best_perm), best


def brute_force_accuracy(pred, truth):
    """Best label bijection by enumeration over the union alphabet."""
    k = int(max(max(pred), max(truth))) + 1
    n = len(pred)
    best = 0
    for perm in itertools.permutations(range(k)):
        matches = sum(1 for p, t in zip(pred, truth) if perm[p] == t)
        best = max(best, matches)
    return best / n


def direct_nmi(pred, truth):
    """Contingency-table evaluation with plain Python loops."""
    n = len(pred)
    joint = Counter(zip(pred, truth))
    px = Counter(pred)
    py = Counter(truth)
    mi = 0.0
    for (x, y), c in joint.items():
        mi += (c / n) * math.log((c / n) / ((px[x] / n) * (py[y] / n)))
    hx = -sum((c / n) * math.log(c / n) for c in px.values())
    hy = -sum((c / n) * math.log(c / n) for c in py.values())
    if hx * hy == 0:
        return 0.0
    return mi / math.sqrt(hx * hy)


class TestHungarian:
    def test_diagonal_optimal(self):
        perm = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
        np.testing.assert_array_equal(perm, [0, 1])

    def test_swap_optimal(self):
        perm = hungarian(np.array([[4.0, 1.0], [2.0, 3.0]]))
        np.testing.assert_array_equal(perm, [1, 0])

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            k = int(rng.integers(2, 6))
            cost = rng.integers(0, 10, size=(k, k)).astype(float)
            got = hungarian(cost)
            want, best = brute_force_assignment(cost)
            np.testing.assert_array_equal(got, want)
            assert cost[np.arange(k), got].sum() == best

    def test_tie_break_lexicographic(self):
        # all-equal costs: every permutation optimal, identity is smallest
        perm = hungarian(np.ones((4, 4)))
        np.testing.assert_array_equal(perm, [0, 1, 2, 3])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            hungarian(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestAccuracy:
    def test_label_swap_is_perfect(self):
        assert accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_identity(self):
        assert accuracy([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0

    def test_partial_match(self):
        assert accuracy([0, 1, 1, 1], [0, 0, 1, 1]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0, 1, 1])

    def test_matches_bijection_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 4))
            pred = rng.integers(0, k, size=n)
            truth = rng.integers(0, k, size=n)
            assert accuracy(pred, truth) == brute_force_accuracy(pred, truth)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 3, size=30)
        truth = rng.integers(0, 3, size=30)
        base = accuracy(pred, truth)
        for perm in itertools.permutations(range(3)):
            relabeled = np.array([perm[p] for p in pred])
            assert accuracy(relabeled, truth) == base


class TestNmi:
    def test_identical_partitions(self):
        assert nmi([0, 1, 0, 2], [0, 1, 0, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_independent_partitions(self):
        assert nmi([0, 1, 0, 1], [0, 0, 1, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated_value(self):
        # pred (2,1,1) vs truth (2,2) contingency gives MI = ln 2,
        # H(pred) = 1.5 ln 2, H(truth) = ln 2, so NMI = sqrt(2/3).
        assert nmi([0, 0, 1, 2], [0, 0, 1, 1]) == pytest.approx(
            math.sqrt(2.0 / 3.0), abs=1e-12)

    def test_single_cluster_convention(self):
        assert nmi([0, 0, 0], [0, 1, 2]) == 0.0
        assert nmi([0, 0, 0], [0, 0, 0]) == 0.0

    def test_symmetric_and_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            pred = rng.integers(0, 4, size=n)
            truth = rng.integers(0, 3, size=n)
            got = nmi(pred, truth)
            assert got == pytest.approx(nmi(truth, pred), abs=1e-12)
            assert got == pytest.approx(
                min(max(direct_nmi(list(pred), list(truth)), 0.0), 1.0), abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        pred = rng.integers(0, 3, size=25)
        truth = rng.integers(0, 3, size=25)
        base = nmi(pred, truth)
        for perm in itertools.permutations(range(3)):
            relabeled = np.array([perm[t] for t in truth])
            assert nmi(pred, relabeled) == base


class TestEvaluate:
    def test_bundles_acc_nmi_mapping(self):
        res = evaluate([0, 0, 1, 1], [1, 1, 0, 0])
        assert res.acc == 1.0
        assert res.nmi == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(res.mapping, [1, 0])

    def test_mapping_is_bijection(self):
        rng = np.random.default_rng(5)
        pred = rng.integers(0, 4, size=40)
        truth = rng.integers(0, 3, size=40)
        res = evaluate(pred, truth)
        assert sorted(res.mapping) == list(range(len(res.mapping)))

    def test_rejects_labels_that_are_not_whole_numbers(self):
        with pytest.raises(ValueError, match="whole numbers"):
            evaluate([1.7, 0.2, 1.0], [1, 0, 1])
        for bad in ([0.0, np.nan, 1.0], [0.0, np.inf, 1.0], ["0", "1", "1"]):
            with pytest.raises(ValueError, match="whole numbers"):
                evaluate([0, 1, 1], bad)

    def test_integral_floats_equal_integers(self):
        pred, truth = [0, 2, 1, 1, 2], [1, 1, 0, 0, 2]
        as_ints = evaluate(pred, truth)
        as_floats = evaluate(np.array(pred, dtype=float), [float(t) for t in truth])
        assert (as_floats.acc, as_floats.nmi) == (as_ints.acc, as_ints.nmi)
        np.testing.assert_array_equal(as_floats.mapping, as_ints.mapping)

    def test_builds_one_contingency_table(self, monkeypatch):
        pred, truth = [0, 2, 1, 1, 2, 0], [1, 1, 0, 0, 2, 2]
        want = (accuracy(pred, truth), nmi(pred, truth))
        built = []
        table = mvgehd.metrics.contingency_table

        def counting(*args):
            built.append(args)
            return table(*args)

        monkeypatch.setattr(mvgehd.metrics, "contingency_table", counting)
        res = evaluate(pred, truth)
        assert len(built) == 1
        assert (res.acc, res.nmi) == want
