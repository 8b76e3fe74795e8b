"""Memory of the n-by-n layers: loading, matrix-free solving and writing
hold the views plus at most one more n-by-n array's worth, a dense
solve holds one n-by-n sum and one per-view buffer, and betweenness
holds O(n^2).

Peaks are measured with tracemalloc, which numpy reports its array
buffers to, as bytes allocated above what was held before the call.
"""

import tracemalloc

import numpy as np
import pytest

from mvgehd.graph import MultiViewGraph, load_multiview, save_matrix_csv, save_multiview
from mvgehd.hubs import betweenness
from mvgehd.solver import EmbedConfig, solve
from mvgehd.synth import PlantedSpec, generate_multiview

N = 400
VIEW_BYTES = 8 * N * N
# Parser buffers, manifest and small per-view arrays.
SLACK_BYTES = 2 ** 20


def peak_above_start(fn):
    """Run fn; return its result and the most bytes it held above the start."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def graph():
    # The embed benchmark's spec: 3 views, one pure noise; connected, so
    # its eigen-steps run matrix-free.
    spec = PlantedSpec(n=N, clusters=6, hubs=8, views=3, view_quality=(1.0, 0.6, 0.0),
                       p_intra=0.5, noise_sigma=0.02, seed=0)
    return generate_multiview(spec)[0]


def test_solve_holds_at_most_one_view_beyond_its_inputs(graph):
    config = EmbedConfig(k=5, max_iters=3)
    # Untraced first run: imports done on first use are not the solve's.
    solve(graph, config)
    (_, _, trace), peak = peak_above_start(lambda: solve(graph, config))
    assert trace.iterations == 3
    assert peak <= VIEW_BYTES


def test_dense_solve_holds_the_sum_and_one_view_buffer():
    # Below the matrix-free size, so every eigen-step runs dense on a
    # connected graph, where no view is copied for self-loops.
    n = 199
    spec = PlantedSpec(n=n, clusters=6, hubs=8, views=3, view_quality=(1.0, 0.6, 0.0),
                       p_intra=0.5, noise_sigma=0.02, seed=0)
    dense = generate_multiview(spec)[0]
    config = EmbedConfig(k=5, max_iters=2)
    solve(dense, config)
    (_, _, trace), peak = peak_above_start(lambda: solve(dense, config))
    assert trace.iterations == 2
    # About 2.37 views' worth: the sum, one row-scaled contrast and small
    # arrays. Forming each view's operator in full and symmetrizing the sum
    # before the eigensolve took 4.36.
    assert peak <= 2.5 * 8 * n * n


def test_dense_solve_sums_operators_in_one_buffer(graph):
    # Node 7 isolated in every view, given a self-loop: the union graph is
    # disconnected, so every eigen-step runs dense on n-by-n operators.
    views = []
    for v in graph.views:
        a = np.array(v)
        a[7, :] = a[:, 7] = 0.0
        views.append(a)
    isolated = MultiViewGraph(views=tuple(views))
    config = EmbedConfig(k=5, max_iters=2, isolated_policy="self_loop")
    solve(isolated, config)
    (_, _, trace), peak = peak_above_start(lambda: solve(isolated, config))
    assert trace.iterations == 2
    # About 5.13 views' worth here, 3 of them the self-looped copies of the
    # views; forming each operator in full took 7.1, and holding all m
    # operators before summing them 9.2.
    assert peak <= 5.5 * VIEW_BYTES


def test_load_holds_the_views_plus_one(graph, tmp_path):
    manifest = save_multiview(graph, tmp_path / "g")
    loaded, peak = peak_above_start(lambda: load_multiview(manifest))
    views = sum(v.nbytes for v in loaded.views)
    assert views == graph.m * VIEW_BYTES
    assert peak <= views + VIEW_BYTES + SLACK_BYTES


def test_save_streams_rows(graph, tmp_path):
    _, peak = peak_above_start(lambda: save_matrix_csv(graph.views[0], tmp_path / "v.csv"))
    assert peak <= N * N


@pytest.mark.parametrize("kind", ["weighted", "binary"])
def test_betweenness_stays_quadratic(graph, kind):
    view = np.array(graph.views[0])
    if kind == "binary":
        # Tied routes: 129 of the 399 settle ranks have more than n
        # predecessor entries and rebuild their masks.
        view = (view > 0) * 1.0
    betweenness(np.ones((2, 2)))  # imports done on first use
    _, peak = peak_above_start(lambda: betweenness(view))
    # About 7.5 (weighted) and 9.7 (binary) views' worth here, and 9.3 on
    # both when every mask is rebuilt; keeping every rank's dense mask
    # would add n^3 bytes, 50 views' worth.
    assert peak <= 12 * VIEW_BYTES
