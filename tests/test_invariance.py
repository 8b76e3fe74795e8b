"""Symmetries of the whole pipeline, on both eigen backends.

Renumbering the nodes of every view by one permutation, or listing the
views in reverse order, poses the same problem, so the solve, the hub
scores, the hub sets and the node labels must follow. Each graph is a
planted n-node, 3-module, 4-hub, 3-view graph (view quality 1.0, 0.6, 0.2)
embedded at k = 2: n = 60 solves dense, n = 240 matrix-free once the
crossover is dropped.

Largest deviations measured over seeds 0-39 (dense) and 0-19 (matrix-free)
of the same spec, with every iteration count and hub set equal and every
node labelling the same up to renaming:

    deviation                      dense      matrix-free
    FF^T, nodes permuted           9.6e-15    3.1e-13
    FF^T, views reversed           1.2e-13    3.5e-17
    alpha, views reversed          6.1e-15    1.7e-16
    hub scores, nodes permuted     6.9e-15    1.6e-12

The matrix-free first step starts from a seeded block that is not
permuted with the nodes, so only LOBPCG's 1e-10 residual ties the two
runs together there. Each bound is the largest value measured on either
backend times a margin: 1e-11 for FF^T (32 times 3.1e-13), 1e-13 for alpha
(16 times 6.1e-15) and 1e-10 for the hub scores (61 times 1.6e-12). The
scores get the widest bound because a row norm near zero, a hub's,
amplifies the error of FF^T's diagonal.
"""

import numpy as np
import pytest

import mvgehd.solver
from mvgehd.clustering import KMeansConfig, node_clusters
from mvgehd.graph import MultiViewGraph
from mvgehd.hubs import hub_scores, select_hubs
from mvgehd.metrics import evaluate
from mvgehd.solver import EmbedConfig, solve
from mvgehd.synth import PlantedSpec, generate_multiview
from test_solver import count_dense_eigensolves, force_matrix_free

CLUSTERS = 3
HUBS = 4
CONFIG = EmbedConfig(k=CLUSTERS - 1)
GRAM_TOL = 1e-11
ALPHA_TOL = 1e-13
SCORE_TOL = 1e-10


@pytest.fixture(params=["dense", "matrix_free"])
def backend(request, monkeypatch):
    """The node count for the backend; on the matrix-free one, the dense
    eigensolves made (a redone step), which must stay empty."""
    if request.param == "dense":
        return 60, None
    force_matrix_free(monkeypatch)
    return 240, count_dense_eigensolves(monkeypatch)


def planted(n, seed):
    spec = PlantedSpec(n=n, clusters=CLUSTERS, hubs=HUBS, views=3,
                       view_quality=(1.0, 0.6, 0.2), p_intra=0.6, noise_sigma=0.05,
                       seed=seed)
    return generate_multiview(spec)[0]


def gram(f):
    return f @ f.T


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_node_permutation(backend, seed):
    n, dense_calls = backend
    graph = planted(n, seed)
    assert mvgehd.solver._matrix_free_applies(graph, CONFIG.k) == (dense_calls is not None)
    perm = np.random.default_rng(100 + seed).permutation(n)
    back = np.argsort(perm)
    permuted = MultiViewGraph(tuple(v[np.ix_(perm, perm)] for v in graph.views))
    f, _, trace = solve(graph, CONFIG)
    g, _, permuted_trace = solve(permuted, CONFIG)
    assert permuted_trace.iterations == trace.iterations
    assert np.max(np.abs(gram(g[back]) - gram(f))) <= GRAM_TOL

    scores, permuted_scores = hub_scores(f), hub_scores(g)
    assert np.max(np.abs(permuted_scores[back] - scores)) <= SCORE_TOL
    hubs = select_hubs(scores, top=HUBS)
    np.testing.assert_array_equal(np.sort(perm[select_hubs(permuted_scores, top=HUBS)]), hubs)

    labels = node_clusters(f, CLUSTERS, KMeansConfig(seed=0))
    permuted_labels = node_clusters(g, CLUSTERS, KMeansConfig(seed=0))[back]
    # Accuracy under the best matching of labels is 1 exactly when the two
    # labellings differ only by a renaming.
    assert evaluate(permuted_labels, labels).acc == 1.0
    assert dense_calls in (None, [])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_view_reversal(backend, seed):
    n, dense_calls = backend
    graph = planted(n, seed)
    f, alphas, trace = solve(graph, CONFIG)
    g, reversed_alphas, reversed_trace = solve(MultiViewGraph(graph.views[::-1]), CONFIG)
    assert reversed_trace.iterations == trace.iterations
    assert np.max(np.abs(np.asarray(reversed_alphas)[::-1] - np.asarray(alphas))) <= ALPHA_TOL
    assert np.max(np.abs(gram(g) - gram(f))) <= GRAM_TOL
    assert dense_calls in (None, [])
