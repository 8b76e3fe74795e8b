"""Embedding solver: residuals, reweighting, operators, and the full loop."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg

import mvgehd.solver
from mvgehd.clustering import KMeansConfig, node_clusters
from mvgehd.graph import SYMMETRY_TOL, IsolatedNodeError, MultiViewGraph
from mvgehd.linalg import _fix_column_signs
from mvgehd.metrics import nmi
from mvgehd.solver import (
    EmbedConfig,
    ViewOperator,
    auto_view_weights,
    embedding_objective,
    residual_row_weights,
    smoothed_row_norm_sum,
    solve,
)
from mvgehd.synth import PlantedSpec, generate_multiview


def random_affinity(rng, n):
    a = rng.uniform(0, 1, size=(n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return a


def random_multiview(rng, n, m):
    return MultiViewGraph(views=tuple(random_affinity(rng, n) for _ in range(m)))


def quadratic_model(ops, f, alphas, g):
    """Phi(G) = sum_v alpha_v sum_j q_vj ||(M_v G)_j||^2, q_v taken at F: the
    bound that the eigen-step from F minimizes (see the mvgehd.solver
    docstring), from residuals alone, with no n-by-n operator."""
    total = 0.0
    for op, alpha in zip(ops, alphas):
        q = residual_row_weights(op.residual(f), EmbedConfig.epsilon)
        r = op.residual(g)
        total += alpha * float(q @ np.einsum("ij,ij->i", r, r))
    return total


def solve_steps(graph, config):
    """(F_0, ..., F_T, trace) of one solve: F_0 is the start that a
    max_iters=0 solve returns, the rest come from the update hook."""
    steps = [solve(graph, dataclasses.replace(config, max_iters=0))[0]]
    _, _, trace = solve(graph, config, on_update=lambda t, f: steps.append(f.copy()))
    return steps, trace


def step_ascents(graph, steps, trace):
    """Phi(F_{t+1}) - Phi(F_t) for every step t of a default-epsilon solve,
    with the q of F_t and the view weights trace.alpha_history[t] that the
    step used."""
    ops = [ViewOperator.from_view(v) for v in graph.views]
    return [quadratic_model(ops, steps[t], trace.alpha_history[t], steps[t + 1])
            - quadratic_model(ops, steps[t], trace.alpha_history[t], steps[t])
            for t in range(trace.iterations)]


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestWalkResidual:
    """ViewOperator.residual: F - W F."""

    def test_two_node_hand_computation(self):
        f = np.array([[1.0], [0.0]])
        np.testing.assert_array_equal(ViewOperator.from_view(SWAP).residual(f),
                                      [[1.0], [-1.0]])

    def test_constant_rows_give_zero(self):
        rng = np.random.default_rng(0)
        a = random_affinity(rng, 6)
        f = np.tile([0.3, -0.2], (6, 1))
        np.testing.assert_allclose(ViewOperator.from_view(a).residual(f), np.zeros((6, 2)),
                                   atol=1e-12)

    def test_matches_per_row_average_oracle(self):
        rng = np.random.default_rng(1)
        a = random_affinity(rng, 5)
        f = np.linalg.qr(rng.normal(size=(5, 2)))[0]
        got = ViewOperator.from_view(a).residual(f)
        d = a.sum(axis=1)
        want = np.array([f[i] - sum(a[i, j] * f[j] for j in range(5)) / d[i]
                         for i in range(5)])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            ViewOperator.from_view(SWAP).residual(np.zeros((3, 1)))


class TestResidualRowWeights:
    def test_zero_residual(self):
        np.testing.assert_allclose(
            residual_row_weights(np.zeros((4, 2)), 1e-4), np.full(4, 50.0))

    def test_three_four_row_small_epsilon(self):
        got = residual_row_weights(np.array([[3.0, 4.0]]), 1e-12)
        np.testing.assert_allclose(got, [0.1], rtol=1e-10)

    def test_formula_oracle_and_bounds(self):
        rng = np.random.default_rng(2)
        p = rng.normal(size=(7, 3))
        eps = 1e-4
        got = residual_row_weights(p, eps)
        want = np.array([1.0 / (2.0 * np.sqrt(np.dot(row, row) + eps)) for row in p])
        np.testing.assert_allclose(got, want, rtol=1e-14)
        assert np.all(got > 0) and np.all(got <= 1.0 / (2.0 * np.sqrt(eps)))

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            residual_row_weights(np.zeros((2, 1)), 0.0)


class TestSmoothedRowNormSum:
    def test_three_four_row_small_epsilon(self):
        got = smoothed_row_norm_sum(np.array([[3.0, 4.0]]), 1e-12)
        assert got == pytest.approx(5.0 - 1e-6, rel=1e-12)

    def test_zero_residual_costs_nothing(self):
        assert smoothed_row_norm_sum(np.zeros((4, 2)), 1e-4) == 0.0

    def test_formula_oracle(self):
        rng = np.random.default_rng(17)
        p = rng.normal(size=(7, 3))
        eps = 1e-4
        want = sum(np.sqrt(np.dot(row, row) + eps) - np.sqrt(eps) for row in p)
        assert smoothed_row_norm_sum(p, eps) == pytest.approx(want, rel=1e-12)

    def test_tiny_rows_keep_their_leading_term(self):
        # sqrt(x + eps) - sqrt(eps) rounds to 0 here; the sum is x / (2 sqrt(eps)).
        p = np.full((3, 1), 1e-10)
        np.testing.assert_allclose(smoothed_row_norm_sum(p, 1e-4), 3 * 1e-20 / 2e-2,
                                   rtol=1e-12)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            smoothed_row_norm_sum(np.zeros((2, 1)), 0.0)


def laplacian(op, row_weights):
    """M^T Q M with M = I - W and Q = diag(row_weights), formed in full and
    symmetrized: the oracle for ViewOperator's dense build, diagonal and
    apply."""
    n = op.affinity.shape[0]
    contrast = np.eye(n) - op.affinity / op.degrees[:, None]
    lap = contrast.T @ (row_weights[:, None] * contrast)
    return (lap + lap.T) / 2.0


def lower_operator(op, row_scale):
    """The lower triangle of M^T S M as add_operator builds it into a zero sum."""
    n = op.affinity.shape[0]
    return np.tril(op.add_operator(np.zeros((n, n), order="F"), row_scale))


def case_operator(rng, case, n=9):
    """A random view's operator; `case` adds a partial self-loop, an isolated
    node given a self-loop, or a one-directional edge within SYMMETRY_TOL."""
    a = random_affinity(rng, n)
    if case == "partial_loop":
        a[2, 2] = 0.7
    elif case == "isolated":
        a[2, :] = a[:, 2] = 0.0
    elif case == "asymmetric":
        # Validation lets a one-directional edge through within
        # SYMMETRY_TOL; only W^T = (A / d)^T, not W, applies it right.
        a[3, 5], a[5, 3] = 0.0, SYMMETRY_TOL / 2
        a = MultiViewGraph(views=(a,)).views[0]
    return ViewOperator.from_view(a)


OPERATOR_CASES = ["random", "partial_loop", "isolated", "asymmetric"]


class TestViewAddOperator:
    """ViewOperator.add_operator: M^T S M added into a lower triangle."""

    def test_two_node_hand_computation(self):
        got = lower_operator(ViewOperator.from_view(SWAP), np.array([0.5, 0.5]))
        np.testing.assert_allclose(got, [[1.0, 0.0], [-1.0, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("case", OPERATOR_CASES)
    def test_matches_oracle(self, case):
        rng = np.random.default_rng(33)
        for _ in range(3):
            op = case_operator(rng, case)
            s = rng.uniform(0.1, 2.0, size=9)
            np.testing.assert_allclose(lower_operator(op, s), np.tril(laplacian(op, s)),
                                       rtol=0, atol=1e-12)

    def test_adds_in_place_and_keeps_the_upper_triangle(self):
        rng = np.random.default_rng(34)
        op = case_operator(rng, "random")
        s = rng.uniform(0.1, 2.0, size=9)
        start = rng.normal(size=(9, 9))
        total = np.asfortranarray(start)
        got = op.add_operator(total, s)
        assert got is total
        np.testing.assert_array_equal(np.triu(got, 1), np.triu(start, 1))
        np.testing.assert_allclose(np.tril(got), np.tril(start + laplacian(op, s)),
                                   rtol=0, atol=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            op = ViewOperator.from_view(random_affinity(rng, 6))
            lower = lower_operator(op, rng.uniform(0.1, 2.0, size=6))
            assert np.linalg.eigvalsh(lower, UPLO="L").min() >= -1e-10

    def test_zero_degree_node_drops_out(self):
        # Its self-loop makes its row of W a point mass on itself, so the
        # contrast M is zero in its row and its column: the view says
        # nothing about it.
        rng = np.random.default_rng(38)
        op = case_operator(rng, "isolated")
        lower = lower_operator(op, rng.uniform(0.1, 2.0, size=9))
        full = lower + np.tril(lower, -1).T
        assert not full[2].any() and not full[:, 2].any()

    def test_kernel_contains_constants(self):
        rng = np.random.default_rng(4)
        op = ViewOperator.from_view(random_affinity(rng, 8))
        lower = lower_operator(op, rng.uniform(0.5, 1.5, size=8))
        full = lower + np.tril(lower, -1).T
        np.testing.assert_allclose(full @ np.ones(8), np.zeros(8), atol=1e-12)


class TestViewDiagonal:
    """ViewOperator.diagonal: diag(M^T S M), the Jacobi preconditioner's input."""

    def test_matches_dense_operator(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            a = random_affinity(rng, 9)
            q = rng.uniform(0.1, 2.0, size=9)
            op = ViewOperator.from_view(a)
            np.testing.assert_allclose(op.diagonal(q), np.diag(laplacian(op, q)),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("loop", ["partial", "isolated"])
    def test_self_loop_row(self, loop):
        rng = np.random.default_rng(31)
        a = random_affinity(rng, 8)
        if loop == "partial":
            a[2, 2] = 0.7
            op = ViewOperator.from_view(a)
        else:
            a[2, :] = a[:, 2] = 0.0
            op = ViewOperator.from_view(a)
        assert op.affinity[2, 2] != 0
        q = rng.uniform(0.1, 2.0, size=8)
        np.testing.assert_allclose(op.diagonal(q), np.diag(laplacian(op, q)),
                                   rtol=0, atol=1e-12)


def patch_apply_block_rows(monkeypatch, rows, n):
    """Make ViewOperator.apply and ViewOperator.residual read an n-node view
    in blocks of `rows` rows."""
    monkeypatch.setattr(mvgehd.solver, "_APPLY_BLOCK_BYTES", rows * 8 * n)


class TestViewApply:
    """ViewOperator.apply: M^T S M X, checked against laplacian(op, s) @ X."""

    @pytest.mark.parametrize("case", OPERATOR_CASES)
    def test_matches_dense_operator(self, monkeypatch, case):
        rng = np.random.default_rng(32)
        # One block; blocks of 4, 4 and 1 rows; one row a block.
        for rows in (9, 4, 1):
            patch_apply_block_rows(monkeypatch, rows, 9)
            for _ in range(3):
                op = case_operator(rng, case)
                s = rng.uniform(0.1, 2.0, size=9)
                x = rng.normal(size=(9, 4))
                np.testing.assert_allclose(op.apply(x, s), laplacian(op, s) @ x,
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [9, 200])
    @pytest.mark.parametrize("case", OPERATOR_CASES)
    def test_one_block_is_the_two_product_apply(self, case, n):
        # A view of one block gives the bytes of Z - A^T (Z / d) with
        # Z = S (X - (A X) / d), one product over the whole view each.
        rng = np.random.default_rng(35)
        op = case_operator(rng, case, n)
        a, d = op.affinity, op.degrees[:, None]
        assert 8 * n * n <= mvgehd.solver._APPLY_BLOCK_BYTES
        for k in (1, 3, 5):
            s = rng.uniform(0.1, 2.0, size=n)
            x = rng.normal(size=(n, k))
            z = s[:, None] * (x - (a @ x) / d)
            assert op.apply(x, s).tobytes() == (z - a.T @ (z / d)).tobytes()


class TestViewResidual:
    """ViewOperator.residual in row blocks, checked against F - (A F) / d."""

    @pytest.mark.parametrize("case", OPERATOR_CASES)
    def test_matches_whole_view_product(self, monkeypatch, case):
        rng = np.random.default_rng(36)
        # One block; blocks of 4, 4 and 1 rows; one row a block.
        for rows in (9, 4, 1):
            patch_apply_block_rows(monkeypatch, rows, 9)
            for _ in range(3):
                op = case_operator(rng, case)
                f = rng.normal(size=(9, 4))
                want = f - (op.affinity @ f) / op.degrees[:, None]
                np.testing.assert_allclose(op.residual(f), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [9, 200])
    @pytest.mark.parametrize("case", OPERATOR_CASES)
    def test_one_block_is_the_whole_view_product(self, case, n):
        rng = np.random.default_rng(37)
        op = case_operator(rng, case, n)
        assert 8 * n * n <= mvgehd.solver._APPLY_BLOCK_BYTES
        for k in (1, 3, 5):
            # The solver's embeddings are column slices of Fortran-ordered
            # eigenvector blocks.
            sliced = np.asfortranarray(rng.normal(size=(n, k + 1)))[:, 1:]
            for f in (rng.normal(size=(n, k)), sliced):
                want = f - (op.affinity @ f) / op.degrees[:, None]
                assert op.residual(f).tobytes() == want.tobytes()


class TestAutoViewWeights:
    def test_arithmetic(self):
        np.testing.assert_array_equal(auto_view_weights(np.array([0.25, 1.0])), [1.0, 0.5])

    def test_zero_trace_guard(self):
        # A view the embedding fits exactly has h_v = 0; h_v is floored at 1e-12.
        got = auto_view_weights(np.array([0.0]))
        assert got[0] == pytest.approx(1.0 / (2.0 * np.sqrt(1e-12)))
        assert np.isfinite(got[0])


class TestEmbeddingObjective:
    def test_single_trace(self):
        assert embedding_objective(np.array([4.0])) == 2.0

    def test_two_views(self):
        assert embedding_objective(np.array([1.0, 9.0])) == 4.0

    def test_zero(self):
        assert embedding_objective(np.zeros(3)) == 0.0

    def test_fixed_weights(self):
        assert embedding_objective(np.array([1.0, 9.0]), (0.5, 2.0)) == 18.5


class TestEmbedConfig:
    @pytest.mark.parametrize("field, value", [
        ("k", 2.5), ("k", 2.0), ("k", "2"), ("k", 0),
        ("max_iters", 1.5), ("max_iters", -1)])
    def test_rejects_a_size_that_is_not_a_whole_number_in_range(self, field, value):
        fields = {"k": 2, field: value}
        with pytest.raises(ValueError, match=rf"{field} must be an integer >= \d, got {value!r}"):
            EmbedConfig(**fields)

    @pytest.mark.parametrize("value", [np.int64(3), np.int32(3), 3])
    def test_takes_numpy_integers(self, value):
        config = EmbedConfig(k=value, max_iters=value)
        assert config.k == config.max_iters == 3

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    def test_rejects_bad_epsilon(self, value):
        with pytest.raises(ValueError, match="epsilon"):
            EmbedConfig(k=2, epsilon=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1e-6])
    def test_rejects_bad_rel_tol(self, value):
        with pytest.raises(ValueError, match="rel_tol"):
            EmbedConfig(k=2, rel_tol=value)


class TestSolve:
    def test_identical_views_equal_weights_every_iteration(self):
        rng = np.random.default_rng(6)
        a = random_affinity(rng, 20)
        g = MultiViewGraph(views=(a, a.copy()))
        _, alphas, trace = solve(g, EmbedConfig(k=3))
        np.testing.assert_array_equal(trace.alpha_history[:, 0], trace.alpha_history[:, 1])
        assert alphas[0] == alphas[1]

    def test_first_iteration_weights_are_equal_shares(self):
        rng = np.random.default_rng(7)
        g = random_multiview(rng, 15, 3)
        _, _, trace = solve(g, EmbedConfig(k=2))
        np.testing.assert_allclose(trace.alpha_history[0], np.full(3, 1 / 3))

    def test_orthogonality_and_positive_weights(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            g = random_multiview(np.random.default_rng(seed), int(rng.integers(10, 40)), 2)
            f, alphas, trace = solve(g, EmbedConfig(k=3))
            np.testing.assert_allclose(f.T @ f, np.eye(3), atol=1e-8)
            assert np.all(trace.alpha_history > 0)
            assert np.all(np.isfinite(trace.alpha_history))
            assert len(trace.objectives) == trace.iterations + 1

    def test_each_update_decreases_its_own_objective(self):
        # Each eigen-step minimizes the quadratic model Phi built at the
        # embedding it starts from, so Phi never rises across the step that
        # solve takes, with auto or fixed view weights.
        for seed in range(15):
            rng = np.random.default_rng(seed)
            n, m, k = int(rng.integers(12, 40)), int(rng.integers(1, 4)), 3
            g = random_multiview(rng, n, m)
            max_iters = int(rng.integers(1, 8))
            for weights in (None, tuple(rng.uniform(0.2, 3.0, size=m))):
                steps, trace = solve_steps(
                    g, EmbedConfig(k=k, max_iters=max_iters, weights=weights))
                assert len(steps) == trace.iterations + 1
                assert max(step_ascents(g, steps, trace)) <= 1e-8

    def test_reported_objective_is_smoothed_row_norm_sum(self):
        for seed in range(5):
            rng = np.random.default_rng(20 + seed)
            g = random_multiview(rng, int(rng.integers(12, 40)), int(rng.integers(1, 4)))
            f, _, trace = solve(g, EmbedConfig(k=3))
            eps = 1e-4
            want = 0.0
            for v in g.views:
                rows = ViewOperator.from_view(v).residual(f)
                want += np.sqrt(sum(np.sqrt(np.dot(r, r) + eps) - np.sqrt(eps)
                                    for r in rows))
            assert trace.objectives[-1] == pytest.approx(want, rel=1e-10)

    def test_view_weights_are_tangents_at_each_update(self):
        rng = np.random.default_rng(25)
        g = random_multiview(rng, 30, 3)
        seen = {}
        _, _, trace = solve(g, EmbedConfig(k=3, max_iters=6),
                            on_update=lambda t, f: seen.__setitem__(t, f.copy()))
        assert trace.iterations >= 1
        ops = [ViewOperator.from_view(v) for v in g.views]
        for t in range(1, trace.iterations + 1):
            sums = [smoothed_row_norm_sum(op.residual(seen[t]), 1e-4) for op in ops]
            np.testing.assert_allclose(trace.alpha_history[t],
                                       1.0 / (2.0 * np.sqrt(sums)), rtol=1e-12)

    def test_fixed_weight_trace_non_increasing(self):
        for seed in range(20):
            rng = np.random.default_rng(40 + seed)
            m = int(rng.integers(1, 4))
            g = random_multiview(rng, int(rng.integers(10, 40)), m)
            weights = tuple(rng.uniform(0.1, 2.0, size=m))
            _, _, trace = solve(g, EmbedConfig(k=int(rng.integers(1, 5)), weights=weights))
            assert np.all(np.diff(trace.objectives) <= 1e-8)

    def test_two_clique_recovery(self):
        # Two disconnected 5-cliques; the informative direction separates
        # them, and 2-means on the 1-column embedding recovers the cliques.
        from mvgehd.metrics import accuracy
        a = np.zeros((10, 10))
        a[:5, :5] = 1.0
        a[5:, 5:] = 1.0
        np.fill_diagonal(a, 0.0)
        g = MultiViewGraph(views=(a, a.copy()))
        f, _, _ = solve(g, EmbedConfig(k=1))
        labels = node_clusters(f, 2, KMeansConfig(seed=0))
        assert accuracy(labels, np.array([0] * 5 + [1] * 5)) == 1.0

    def test_structured_view_outweighs_noise_view(self):
        from mvgehd.synth import PlantedSpec, generate_multiview
        wins = 0
        for seed in range(5):
            spec = PlantedSpec(n=50, clusters=3, hubs=2, views=2, seed=seed,
                               view_quality=(1.0, 0.0))
            g, _ = generate_multiview(spec)
            _, alphas, _ = solve(g, EmbedConfig(k=2))
            wins += alphas[0] > alphas[1]
        assert wins >= 4

    def test_scaling_one_view_leaves_embedding_unchanged(self):
        rng = np.random.default_rng(9)
        v1, v2 = random_affinity(rng, 25), random_affinity(rng, 25)
        base, _, _ = solve(MultiViewGraph(views=(v1, v2)), EmbedConfig(k=3))
        for c in (0.1, 10.0):
            scaled, _, _ = solve(MultiViewGraph(views=(c * v1, v2)), EmbedConfig(k=3))
            np.testing.assert_allclose(scaled, base, atol=1e-10)

    def test_two_node_graph(self):
        # The operator has rank one, so its largest eigenvalue equals its
        # trace; the dense step still shifts the constant above it.
        f, _, _ = solve(MultiViewGraph(views=(SWAP,)), EmbedConfig(k=1))
        np.testing.assert_allclose(f, [[np.sqrt(0.5)], [-np.sqrt(0.5)]], rtol=0, atol=1e-15)

    def test_k_too_large(self):
        rng = np.random.default_rng(10)
        g = random_multiview(rng, 5, 1)
        with pytest.raises(ValueError, match="k"):
            solve(g, EmbedConfig(k=5))

    def test_fixed_weights_length_checked(self):
        rng = np.random.default_rng(11)
        g = random_multiview(rng, 8, 2)
        with pytest.raises(ValueError):
            solve(g, EmbedConfig(k=2, weights=(0.5,)))

    def test_fixed_weights_recorded_constant(self):
        rng = np.random.default_rng(12)
        g = random_multiview(rng, 12, 2)
        _, alphas, trace = solve(g, EmbedConfig(k=2, weights=(0.5, 0.5)))
        assert np.all(trace.alpha_history == 0.5)
        np.testing.assert_array_equal(alphas, [0.5, 0.5])

    def test_operators_built_only_for_eigen_steps(self, monkeypatch):
        # Row weights feed only the reweighted operators, so counting them
        # counts operator builds: one per view per eigen-step, none for the
        # pass that stops.
        calls = []
        real = mvgehd.solver.residual_row_weights
        monkeypatch.setattr(mvgehd.solver, "residual_row_weights",
                            lambda p, eps: calls.append(1) or real(p, eps))
        for seed, max_iters in ((17, 100), (18, 3), (19, 0)):
            rng = np.random.default_rng(seed)
            g = random_multiview(rng, 20, 3)
            calls.clear()
            _, _, trace = solve(g, EmbedConfig(k=2, max_iters=max_iters))
            assert len(calls) == g.m * trace.iterations

    def test_update_hook_called_per_iteration(self):
        rng = np.random.default_rng(16)
        g = random_multiview(rng, 15, 2)
        seen = []
        _, _, trace = solve(g, EmbedConfig(k=2, max_iters=5),
                            on_update=lambda t, f: seen.append(t))
        assert seen == list(range(1, trace.iterations + 1))


class TestSolveSingleView:
    """solve on a one-view graph, where the view weight cancels."""

    def test_auto_matches_unit_fixed_weight(self):
        # A single view weight scales the operator but not its eigenvectors.
        rng = np.random.default_rng(14)
        a = random_affinity(rng, 16)
        f_auto, _, _ = solve(MultiViewGraph(views=(a,)), EmbedConfig(k=2))
        f_fixed, _, _ = solve(MultiViewGraph(views=(a,)), EmbedConfig(k=2, weights=(1.0,)))
        np.testing.assert_allclose(f_auto, f_fixed, atol=1e-9)

    def test_component_indicator_structure(self):
        # Three disconnected blocks: both embedding columns lie in the
        # component-indicator space, so rows are constant per component.
        blocks = [np.ones((4, 4)) - np.eye(4) for _ in range(3)]
        a = np.zeros((12, 12))
        for i, b in enumerate(blocks):
            a[4 * i:4 * i + 4, 4 * i:4 * i + 4] = b
        f, _, _ = solve(MultiViewGraph(views=(a,)), EmbedConfig(k=2))
        for i in range(3):
            comp = f[4 * i:4 * i + 4]
            assert np.max(np.var(comp, axis=0)) < 1e-6

    def test_path_graph_trace_non_increasing(self):
        a = np.zeros((4, 4))
        for i in range(3):
            a[i, i + 1] = a[i + 1, i] = 1.0
        _, _, trace = solve(MultiViewGraph(views=(a,)), EmbedConfig(k=1))
        assert np.all(np.diff(trace.objectives) <= 1e-8)


def planted_graph(n, seed, **spec):
    params = dict(clusters=4, hubs=6, views=2, view_quality=(1.0, 0.5),
                  p_intra=0.5, noise_sigma=0.02)
    params.update(spec)
    return generate_multiview(PlantedSpec(n=n, seed=seed, **params))[0]


# The embed benchmark's spec: more MM iterations, and LOBPCG steps that take
# longer to converge.
BENCH_SPEC = dict(clusters=6, hubs=8, views=3, view_quality=(1.0, 0.6, 0.0),
                  p_intra=0.5, noise_sigma=0.02)


# The hubs benchmark's spec: the generator's defaults at n = 200.
HUBS_SPEC = dict(clusters=4, hubs=6, views=2, view_quality=1.0, p_intra=0.9,
                 noise_sigma=0.01)


def dense_solve(monkeypatch, graph, config):
    """solve with every eigen-step on the dense path."""
    with monkeypatch.context() as patch:
        patch.setattr(mvgehd.solver, "_MATRIX_FREE_NODES_PER_PAIR", 10 ** 9)
        return solve(graph, config)


def force_matrix_free(monkeypatch):
    """Drop the crossover from the matrix-free rule, leaving its n >= 5 (k + 1)
    guard: graphs below the crossover, which would solve dense, run
    matrix-free."""
    monkeypatch.setattr(mvgehd.solver, "_MATRIX_FREE_NODES_PER_PAIR", 0)


def count_dense_eigensolves(monkeypatch):
    calls = []
    real = mvgehd.solver.smallest_eigenpairs
    monkeypatch.setattr(mvgehd.solver, "smallest_eigenpairs",
                        lambda matrix, count: calls.append(count) or real(matrix, count))
    return calls


def assert_matches_dense_oracle(monkeypatch, graph, config):
    """A matrix-free solve takes no dense step and ends where the dense one
    does: same iterations, view weights within 1e-12, F within 1e-8."""
    f_dense, alphas_dense, trace_dense = dense_solve(monkeypatch, graph, config)
    dense_calls = count_dense_eigensolves(monkeypatch)
    f, alphas, trace = solve(graph, config)
    assert dense_calls == []
    assert trace.iterations == trace_dense.iterations >= 2
    assert np.max(np.abs(trace.alpha_history - trace_dense.alpha_history)) <= 1e-12
    assert np.max(np.abs(alphas - alphas_dense)) <= 1e-12
    cosines = np.linalg.svd(f_dense.T @ f, compute_uv=False)
    assert cosines.min() >= 1 - 1e-12
    assert np.max(np.abs(f - f_dense)) <= 1e-8
    np.testing.assert_array_equal(_fix_column_signs(f), f)
    pivots = np.argmax(np.abs(f_dense), axis=0)
    assert np.all(f[pivots, np.arange(config.k)] > 0)


def assert_backends_agree(monkeypatch, graph, config):
    """A matrix-free solve takes no dense step, as many iterations as the
    dense one and ends with FF^T within 1e-8 of it; both embeddings are
    orthogonal to the constant. Returns (F, F_dense)."""
    f_dense, _, trace_dense = dense_solve(monkeypatch, graph, config)
    dense_calls = count_dense_eigensolves(monkeypatch)
    f, _, trace = solve(graph, config)
    assert dense_calls == []
    assert trace.iterations == trace_dense.iterations
    assert np.max(np.abs(f @ f.T - f_dense @ f_dense.T)) <= 1e-8
    for emb in (f, f_dense):
        assert np.max(np.abs(emb.sum(axis=0))) <= 1e-10
    return f, f_dense


def assert_same_solve(got, want):
    f, alphas, trace = got
    f_want, alphas_want, trace_want = want
    np.testing.assert_array_equal(f, f_want)
    np.testing.assert_array_equal(alphas, alphas_want)
    np.testing.assert_array_equal(trace.objectives, trace_want.objectives)
    np.testing.assert_array_equal(trace.alpha_history, trace_want.alpha_history)
    assert (trace.iterations, trace.converged) == (trace_want.iterations, trace_want.converged)


def cut_off(graph, labels, modules):
    """`graph` with every edge between the nodes of `modules` (by planted
    label) and the other nodes removed in every view."""
    inside = np.isin(labels, modules)
    across = inside[:, None] != inside[None, :]
    return MultiViewGraph(views=tuple(np.where(across, 0.0, v) for v in graph.views))


def isolate(graph, nodes_per_view):
    """`graph` with the nodes of nodes_per_view[v] given zero degree in view v."""
    views = []
    for v, nodes in zip(graph.views, nodes_per_view):
        a = np.array(v)
        a[nodes, :] = a[:, nodes] = 0.0
        views.append(a)
    return MultiViewGraph(views=tuple(views))


def complete_graph(n):
    return MultiViewGraph(views=(np.ones((n, n)) - np.eye(n),))


class TestBackendRule:
    """Which graphs solve matrix-free, by n and k: from
    n = _MATRIX_FREE_NODES_PER_PAIR (k + 1), and never below LOBPCG's
    n = 5 (k + 1)."""

    @pytest.mark.parametrize("k", [3, 5, 8, 10, 15])
    def test_n200_solves_dense(self, k):
        assert not mvgehd.solver._matrix_free_applies(complete_graph(200), k)

    def test_embed_benchmark_size_solves_matrix_free(self):
        assert mvgehd.solver._matrix_free_applies(complete_graph(800), 5)

    @pytest.mark.parametrize("k", [3, 5, 8, 10, 15])
    def test_crossover(self, k):
        n = mvgehd.solver._MATRIX_FREE_NODES_PER_PAIR * (k + 1)
        assert mvgehd.solver._matrix_free_applies(complete_graph(n), k)
        assert not mvgehd.solver._matrix_free_applies(complete_graph(n - 1), k)

    @pytest.mark.parametrize("k", [1, 3, 40])
    def test_lobpcg_block_guard_holds_without_the_crossover(self, monkeypatch, k):
        force_matrix_free(monkeypatch)
        n = 5 * (k + 1)
        assert mvgehd.solver._matrix_free_applies(complete_graph(n), k)
        assert not mvgehd.solver._matrix_free_applies(complete_graph(n - 1), k)


class TestMatrixFreeEigenStep:
    """Every eigen-step, the unit-weight first one included, runs
    Jacobi-preconditioned LOBPCG on graphs inside the rule; the dense path
    is their oracle. The graphs here, at n = 200..400, are below
    the crossover, so the tests force the matrix-free path."""

    @pytest.fixture(autouse=True)
    def matrix_free(self, monkeypatch):
        force_matrix_free(monkeypatch)

    @pytest.mark.parametrize("n, k, spec", [
        (200, 5, BENCH_SPEC), (300, 5, BENCH_SPEC), (400, 5, BENCH_SPEC),
        (200, 3, HUBS_SPEC),
    ])
    def test_first_step_matches_dense_start(self, monkeypatch, n, k, spec):
        g = planted_graph(n, 0, **spec)
        config = EmbedConfig(k=k, max_iters=0)
        f_dense = dense_solve(monkeypatch, g, config)[0]
        dense_calls = count_dense_eigensolves(monkeypatch)
        f = solve(g, config)[0]
        assert dense_calls == []
        np.testing.assert_allclose(f.T @ f, np.eye(k), atol=1e-12)
        cosines = np.linalg.svd(f_dense.T @ f, compute_uv=False)
        assert cosines.min() >= 1 - 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bench_spec_solves_make_no_dense_eigensolve(self, monkeypatch, seed):
        g = planted_graph(200, seed, **BENCH_SPEC)
        dense_calls = count_dense_eigensolves(monkeypatch)
        _, _, trace = solve(g, EmbedConfig(k=5))
        assert trace.iterations >= 10
        assert dense_calls == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [200, 300, 400])
    def test_matches_dense_oracle(self, monkeypatch, n, seed):
        assert_matches_dense_oracle(monkeypatch, planted_graph(n, seed), EmbedConfig(k=3))

    def test_many_block_applies_match_dense_oracle(self, monkeypatch):
        # Each view read in 43 blocks, the last of 6 rows: the blocked
        # apply and residual of a large view, without a large dense solve.
        patch_apply_block_rows(monkeypatch, 7, 300)
        assert_matches_dense_oracle(monkeypatch, planted_graph(300, 0), EmbedConfig(k=3))

    def test_repeat_runs_are_byte_identical(self):
        g = planted_graph(300, 0)
        (f1, a1, t1), (f2, a2, t2) = (solve(g, EmbedConfig(k=3)) for _ in range(2))
        assert f1.tobytes() == f2.tobytes()
        assert a1.tobytes() == a2.tobytes()
        assert t1.objectives.tobytes() == t2.objectives.tobytes()

    def test_trace_monotone_at_n400(self, monkeypatch):
        g = planted_graph(400, 0, **BENCH_SPEC)
        dense_calls = count_dense_eigensolves(monkeypatch)
        seen = []
        _, _, trace = solve(g, EmbedConfig(k=5),
                            on_update=lambda t, f: seen.append((f, f.copy())))
        assert trace.iterations >= 10
        assert len(dense_calls) < trace.iterations
        assert np.all(np.diff(trace.objectives) <= 1e-8)
        # LOBPCG overwrites its start block; the embeddings handed out stay intact.
        for f, snapshot in seen:
            np.testing.assert_array_equal(f, snapshot)

    def test_default_solve_emits_no_warning(self):
        # Some of this solve's LOBPCG steps stop short of the tolerance,
        # and LOBPCG warns about each.
        g = planted_graph(400, 1, **BENCH_SPEC)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve(g, EmbedConfig(k=5))

    @pytest.mark.parametrize("broken", ["perturbed", "nan", "raises"])
    def test_inaccurate_step_is_redone_dense(self, monkeypatch, broken):
        g = planted_graph(200, 0)
        config = EmbedConfig(k=3)
        want = dense_solve(monkeypatch, g, config)
        real = scipy.sparse.linalg.lobpcg
        rng = np.random.default_rng(0)
        calls = []

        def inaccurate(*args, **kwargs):
            values, vectors = real(*args, **kwargs)
            calls.append(1)
            if broken == "raises":
                raise ValueError("eigh has failed in lobpcg postprocessing")
            if broken == "nan":
                return values, np.full_like(vectors, np.nan)
            return values, vectors + 1e-6 * rng.standard_normal(vectors.shape)

        # solve looks lobpcg up in scipy.sparse.linalg at each call.
        monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", inaccurate)
        got = solve(g, config)
        assert len(calls) == got[2].iterations + 1 >= 3  # the first step included
        assert_same_solve(got, want)

    @pytest.mark.parametrize("n, modules, k", [
        (150, [0], 3), (400, [0], 3), (480, [0], 5), (400, [0, 1], 3)],
        ids=["n150-cut0-k3", "n400-cut0-k3", "n480-cut0-k5", "n400-cut01-k3"])
    def test_disconnected_graph_matches_dense_oracle(self, monkeypatch, n, modules, k):
        # One or two modules cut off in every view: the operator also
        # annihilates the vectors constant on each component, and those
        # orthogonal to the constant take embedding columns on both paths.
        graph, truth = generate_multiview(PlantedSpec(n=n, clusters=4, hubs=6, views=2, seed=1))
        g = cut_off(graph, truth.labels, modules)
        for emb in assert_backends_agree(monkeypatch, g, EmbedConfig(k=k)):
            labels = node_clusters(emb, 4, KMeansConfig(seed=0))
            assert nmi(labels, truth.labels) >= 0.95

    @pytest.mark.parametrize("case", ["block_too_large"])
    def test_stays_dense_outside_the_rule(self, monkeypatch, case):
        # scipy's LOBPCG cannot take a block wider than (n - 1) / 5 with
        # the constant deflated.
        g = planted_graph(200, 0)
        config = EmbedConfig(k=40, max_iters=3)
        want = dense_solve(monkeypatch, g, config)
        monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", None)
        assert_same_solve(solve(g, config), want)


class TestZeroDegree:
    """A node with zero degree in some views drops out of those views and is
    placed by the others; one with zero degree in every view is rejected
    before any eigen-step."""

    @pytest.mark.parametrize("backend", ["dense", "matrix_free"])
    def test_node_isolated_in_every_view_is_rejected(self, monkeypatch, backend):
        g = isolate(planted_graph(300, 0), [[40, 7], [7, 40]])
        if backend == "matrix_free":
            force_matrix_free(monkeypatch)
        assert mvgehd.solver._matrix_free_applies(g, 3) == (backend == "matrix_free")
        # An eigen-step would fail with a TypeError.
        monkeypatch.setattr(mvgehd.solver, "smallest_eigenpairs", None)
        monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", None)
        with pytest.raises(IsolatedNodeError) as err:
            solve(g, EmbedConfig(k=3))
        assert err.value.index == 7

    def test_node_isolated_in_one_view_is_placed_by_the_others(self, monkeypatch):
        g = isolate(planted_graph(300, 0), [[7], [40]])
        force_matrix_free(monkeypatch)
        assert_backends_agree(monkeypatch, g, EmbedConfig(k=3))
