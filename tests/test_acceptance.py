"""Acceptance suite: one test per gate criterion, printed pass/fail lines.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the summary
lines inline). Thresholds were calibrated once against oracle runs and are
frozen here; each test prints the measured value next to its threshold.

The objective-trace monotonicity check (test_criterion_objective_trace_monotone)
holds because the solver reports the function its iteration majorizes: in
auto mode J(F) = sum_v sqrt(h_v(F)), with h_v the smoothed row-norm sum
sum_j (sqrt(||p_j||^2 + eps) - sqrt(eps)) of view v, and view weights that
are the tangent slopes of sqrt at h_v (see the mvgehd.solver docstring).
test_criterion_each_update_descends checks the step beneath that argument:
each eigen-step that solve takes does not raise the quadratic model it
minimizes, built from the row and view weights of the embedding it starts
from.
"""

import time

import numpy as np
import pytest

from mvgehd.clustering import KMeansConfig, cluster_subjects, node_clusters
from mvgehd.graph import MultiViewGraph
from mvgehd.hubs import betweenness, hub_scores, score_ranking
from mvgehd.linalg import smallest_eigenpairs
from mvgehd.metrics import accuracy, evaluate, hungarian, nmi
from mvgehd.solver import EmbedConfig, solve
from mvgehd.synth import PlantedSpec, generate_cohort, generate_multiview

from test_hubs import brute_betweenness, random_weighted_graph
from test_metrics import brute_force_accuracy, brute_force_assignment, direct_nmi
from test_solver import solve_steps, step_ascents


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_affinity(rng, n):
    a = rng.uniform(0, 1, size=(n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    return a


@pytest.fixture(scope="module")
def random_solve_batch():
    """50 seeded random multi-view solves (n in 20..60, m in 1..3, k in 2..6),
    each with every embedding F_0, ..., F_T it passed through: F_0 from a
    max_iters=0 solve, the rest from the update hook."""
    runs = []
    start = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 61))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(2, 7))
        graph = MultiViewGraph(views=tuple(random_affinity(rng, n) for _ in range(m)))
        steps, trace = solve_steps(graph, EmbedConfig(k=k))
        runs.append((graph, steps, trace))
    return runs, time.perf_counter() - start


def test_criterion_objective_trace_monotone(random_solve_batch):
    """Full objective trace non-increasing within 1e-8 on 50 random instances.

    The reported objective is the one the majorize-minimize iteration
    descends (see module docstring), so every step after the first is
    guaranteed not to rise; the first, taken with equal view weights, is
    checked here too.
    """
    runs, elapsed = random_solve_batch
    worst = max(float(np.diff(trace.objectives).max(initial=-np.inf))
                for _, _, trace in runs)
    violations = sum(np.diff(trace.objectives).max(initial=-np.inf) > 1e-8
                     for _, _, trace in runs)
    report("monotone objective trace (50 random instances)",
           violations == 0 and elapsed < 60.0,
           f"violations={violations}/50, worst increase={worst:.3e} "
           f"(slack 1e-8), runtime={elapsed:.1f}s (budget 60s)")


def test_criterion_each_update_descends(random_solve_batch):
    """Every eigen-step that solve takes descends the model it minimizes, within 1e-8.

    Step t -> t+1 minimizes Phi(G) = sum_v alpha_v sum_j q_vj ||(M_v G)_j||^2
    with q_v taken at F_t and alpha = trace.alpha_history[t], so
    Phi(F_{t+1}) <= Phi(F_t): the inequality the majorize-minimize argument
    rests on, checked on every step of every random run.
    """
    runs, _ = random_solve_batch
    ascents = [a for graph, steps, trace in runs for a in step_ascents(graph, steps, trace)]
    worst = max(ascents)
    report(f"per-update model descent ({len(ascents)} steps, 50 random instances)",
           worst <= 1e-8, f"worst ascent={worst:.3e} (slack 1e-8)")


def test_criterion_orthogonality_every_iteration(random_solve_batch):
    """max |F^T F - I| <= 1e-8 for every embedding of every random run."""
    runs, _ = random_solve_batch
    worst = max(float(np.max(np.abs(f.T @ f - np.eye(f.shape[1]))))
                for _, steps, _ in runs for f in steps)
    report("orthogonality after every iteration", worst <= 1e-8,
           f"worst max|F^T F - I|={worst:.2e} (tolerance 1e-8)")


def test_criterion_single_view_reduction():
    """Auto-weighted solve on one view equals the unit fixed-weight solve, 1e-6.

    For m = 1 the view weight only scales the operator, so minimizing
    sqrt(h) and minimizing h give the same embedding.
    """
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(10, 50))
        graph = MultiViewGraph(views=(random_affinity(rng, n),))
        f_auto, _, _ = solve(graph, EmbedConfig(k=3))
        f_fixed, _, _ = solve(graph, EmbedConfig(k=3, weights=(1.0,)))
        worst = max(worst, float(np.max(np.abs(f_auto - f_fixed))))
    report("single-view reduction (20 instances)", worst <= 1e-6,
           f"worst entrywise diff={worst:.2e} (tolerance 1e-6)")


def test_criterion_view_weight_ordering():
    """Structured view outweighs a pure-noise view on >= 18 of 20 seeds."""
    start = time.perf_counter()
    wins = 0
    for seed in range(20):
        spec = PlantedSpec(n=60, clusters=3, hubs=3, views=2, seed=seed,
                           view_quality=(1.0, 0.0))
        graph, _ = generate_multiview(spec)
        _, alphas, _ = solve(graph, EmbedConfig(k=2))
        wins += bool(alphas[0] > alphas[1])
    elapsed = time.perf_counter() - start
    report("view-weight ordering (structured > noise)",
           wins >= 18 and elapsed < 30.0,
           f"wins={wins}/20 (need >= 18), runtime={elapsed:.1f}s (budget 30s)")


@pytest.fixture(scope="module")
def planted_batch():
    """20 seeded runs of the showcase configuration: n=100, 4 modules,
    5 hubs, 2 views, default separation, embedding on the 3 module-contrast
    directions."""
    runs = []
    start = time.perf_counter()
    for seed in range(20):
        spec = PlantedSpec(n=100, clusters=4, hubs=5, views=2, seed=seed)
        graph, truth = generate_multiview(spec)
        embedding, _, _ = solve(graph, EmbedConfig(k=3))
        runs.append((embedding, truth, seed))
    return runs, time.perf_counter() - start


def test_criterion_planted_module_recovery(planted_batch):
    """Mean node-clustering NMI vs planted modules >= 0.9 over 20 seeds.

    Threshold frozen after calibration runs measured mean NMI = 1.000.
    """
    runs, elapsed = planted_batch
    scores = [nmi(node_clusters(emb, 4, KMeansConfig(seed=seed)), truth.labels)
              for emb, truth, seed in runs]
    mean = float(np.mean(scores))
    report("planted-module recovery (n=100, 4 modules, 5 hubs)",
           mean >= 0.9 and elapsed < 120.0,
           f"mean NMI={mean:.3f} (threshold 0.9), min={min(scores):.3f}, "
           f"embed runtime={elapsed:.1f}s (budget 120s)")


def test_criterion_hub_recovery(planted_batch):
    """Mean recall@5 of the row-norm hub ranking >= 0.8 over the same runs.

    Threshold frozen after calibration runs measured mean recall = 1.00.
    """
    runs, _ = planted_batch
    recalls = []
    for emb, truth, _ in runs:
        top5 = set(score_ranking(hub_scores(emb))[:5].tolist())
        recalls.append(len(top5 & set(truth.hub_set.tolist())) / 5.0)
    mean = float(np.mean(recalls))
    report("hub recovery recall@5", mean >= 0.8,
           f"mean recall={mean:.2f} (threshold 0.8), min={min(recalls):.2f}")


def test_criterion_cohort_separation():
    """Structurally different cohorts separate (ACC >= 0.9, NMI > 0.4);
    identical cohorts stay in the chance band (ACC in [0.4, 0.65])."""
    start = time.perf_counter()
    spec_a = PlantedSpec(n=60, clusters=4, hubs=5, views=2, seed=11)
    spec_b = PlantedSpec(n=60, clusters=2, hubs=5, views=2, seed=22)
    subjects, labels = generate_cohort(spec_a, spec_b, 20, 20)
    embeddings = [solve(g, EmbedConfig(k=4))[0] for g in subjects]
    result = evaluate(cluster_subjects(embeddings, 2, KMeansConfig(seed=0)), labels)

    twins, twin_labels = generate_cohort(spec_a, spec_a, 20, 20)
    twin_embeddings = [solve(g, EmbedConfig(k=4))[0] for g in twins]
    twin_acc = evaluate(
        cluster_subjects(twin_embeddings, 2, KMeansConfig(seed=0)), twin_labels).acc
    elapsed = time.perf_counter() - start
    report("cohort separation + chance band",
           result.acc >= 0.9 and result.nmi > 0.4 and 0.4 <= twin_acc <= 0.65
           and elapsed < 300.0,
           f"separable ACC={result.acc:.2f} (>=0.9), NMI={result.nmi:.2f} (>0.4); "
           f"identical ACC={twin_acc:.2f} (band [0.4, 0.65]); "
           f"runtime={elapsed:.0f}s (budget 300s)")


def test_criterion_metric_oracles():
    """accuracy == bijection search (exhaustive n<=4, sampled to n=8);
    nmi == direct contingency evaluation within 1e-12;
    hungarian == permutation enumeration for k <= 5, exactly."""
    rng = np.random.default_rng(0)
    acc_checked = nmi_worst = 0.0
    # exhaustive over every labeling pair for n <= 4, k <= 3
    for n in (2, 3, 4):
        for pcode in range(3 ** n):
            pred = [(pcode // 3 ** i) % 3 for i in range(n)]
            for tcode in range(3 ** n):
                truth = [(tcode // 3 ** i) % 3 for i in range(n)]
                assert accuracy(pred, truth) == brute_force_accuracy(pred, truth)
                nmi_worst = max(nmi_worst, abs(
                    nmi(pred, truth)
                    - min(max(direct_nmi(pred, truth), 0.0), 1.0)))
                acc_checked += 1
    # seeded sample for n = 5..8
    for n in (5, 6, 7, 8):
        for _ in range(500):
            pred = rng.integers(0, 3, size=n)
            truth = rng.integers(0, 3, size=n)
            assert accuracy(pred, truth) == brute_force_accuracy(pred, truth)
            nmi_worst = max(nmi_worst, abs(
                nmi(pred, truth)
                - min(max(direct_nmi(list(pred), list(truth)), 0.0), 1.0)))
            acc_checked += 1
    hung_checked = 0
    for _ in range(60):
        k = int(rng.integers(2, 6))
        for cost in (rng.integers(0, 10, size=(k, k)).astype(float),
                     rng.uniform(0, 1, size=(k, k))):
            want, _ = brute_force_assignment(cost)
            np.testing.assert_array_equal(hungarian(cost), want)
            hung_checked += 1
    report("metric oracles (accuracy, nmi, hungarian)",
           nmi_worst <= 1e-12,
           f"{int(acc_checked)} accuracy pairs exact, worst |nmi diff|={nmi_worst:.1e} "
           f"(tolerance 1e-12), {hung_checked} assignments exact")


def test_criterion_eigen_oracle():
    """Residuals <= 1e-8 and eigenvalues within 1e-9 of a full decomposition
    on 100 random symmetric matrices up to n=50."""
    rng = np.random.default_rng(1)
    worst_res, worst_gap = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        count = int(rng.integers(1, n + 1))
        m = rng.normal(size=(n, n))
        m = (m + m.T) / 2
        got = smallest_eigenpairs(m, count)
        scale = max(1.0, float(np.linalg.norm(m)))
        res = m @ got.eigenvectors - got.eigenvectors * got.eigenvalues
        worst_res = max(worst_res, float(np.max(np.linalg.norm(res, axis=0))) / scale)
        full = np.sort(np.linalg.eigvalsh(m))[:count]
        worst_gap = max(worst_gap, float(np.max(np.abs(got.eigenvalues - full))))
    report("eigen oracle (100 random symmetric matrices)",
           worst_res <= 1e-8 and worst_gap <= 1e-9,
           f"worst scaled residual={worst_res:.2e} (<=1e-8), "
           f"worst eigenvalue gap={worst_gap:.2e} (<=1e-9)")


def test_criterion_betweenness_oracle():
    """Matches exhaustive shortest-path enumeration on 50 random weighted
    graphs with n <= 8, within 1e-9."""
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        a = random_weighted_graph(rng, n)
        worst = max(worst, float(np.max(np.abs(betweenness(a) - brute_betweenness(a)))))
    report("betweenness oracle (50 graphs, n<=8)", worst <= 1e-9,
           f"worst |diff|={worst:.2e} (tolerance 1e-9)")


def test_criterion_uniform_scaling_invariance():
    """Scaling one view by c in {0.1, 10} changes the final embedding by
    at most 1e-10 entrywise."""
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(15, 40))
        views = (random_affinity(rng, n), random_affinity(rng, n))
        base, _, _ = solve(MultiViewGraph(views=views), EmbedConfig(k=3))
        for c in (0.1, 10.0):
            scaled, _, _ = solve(
                MultiViewGraph(views=(c * views[0], views[1])), EmbedConfig(k=3))
            worst = max(worst, float(np.max(np.abs(scaled - base))))
    report("uniform-scaling invariance (c in {0.1, 10})", worst <= 1e-10,
           f"worst entrywise diff={worst:.2e} (tolerance 1e-10)")
