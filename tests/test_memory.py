"""Memory of the n-by-n layers: generating holds the views plus two more
n-by-n arrays' worth; loading, matrix-free solving and writing
hold the views plus at most one more n-by-n array's worth, writing also
when a process pool formats the files' blocks of rows, a view file is
read into one array rather than one grown as rows arrive, a dense solve
holds one n-by-n sum and one per-view buffer, betweenness holds
O(n^2), and k-means on many points runs its restarts one at a time.

Peaks are measured with tracemalloc, which numpy reports its array
buffers to, as bytes allocated above what was held before the call.
"""

import tracemalloc

import numpy as np
import pytest

import mvgehd.solver
from mvgehd.cli import _FILE_WORKERS, _ordered_map, _worker_count
from mvgehd.clustering import KMeansConfig, kmeans
from mvgehd.graph import (BLOCK_BYTES, MultiViewGraph, load_matrix_csv, load_multiview,
                          save_matrix_csv, save_multiview)
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
    # its eigen-steps can run matrix-free.
    spec = PlantedSpec(n=N, clusters=6, hubs=8, views=3, view_quality=(1.0, 0.6, 0.0),
                       p_intra=0.5, noise_sigma=0.02, seed=0)
    return generate_multiview(spec)[0]


def test_generate_holds_the_views_plus_two():
    spec = PlantedSpec(n=N, clusters=6, hubs=8, views=3, view_quality=(1.0, 0.6, 0.0),
                       p_intra=0.5, noise_sigma=0.02, seed=0)
    generate_multiview(PlantedSpec(n=20, clusters=2, hubs=2, views=1))  # first-use setup
    generated, peak = peak_above_start(lambda: generate_multiview(spec)[0])
    # About 5.0 views' worth: the views, the upper-triangle indices (1
    # view) and the last view's noise and sums (1). Summing full n-by-n
    # noise and base means and copying the writable views took 9.2.
    assert all(not v.flags.writeable for v in generated.views)
    assert peak <= (generated.m + 2.5) * VIEW_BYTES


def test_solve_holds_at_most_one_view_beyond_its_inputs(graph, monkeypatch):
    # n = 400 is below the matrix-free crossover at k = 5 (480 nodes), so
    # the crossover is dropped to run this solve matrix-free.
    monkeypatch.setattr(mvgehd.solver, "_MATRIX_FREE_NODES_PER_PAIR", 0)
    config = EmbedConfig(k=5, max_iters=3)
    # Untraced first run: imports done on first use are not the solve's.
    solve(graph, config)
    (_, _, trace), peak = peak_above_start(lambda: solve(graph, config))
    assert trace.iterations == 3
    assert peak <= VIEW_BYTES


def test_dense_solve_holds_the_sum_and_one_view_buffer():
    # Below the matrix-free crossover, so every eigen-step runs dense on a
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
    # A different node isolated in each view, which gives it a self-loop in
    # a copy of that view, so every view is copied. n = 400 is below the
    # matrix-free crossover at k = 5 (480 nodes), so every eigen-step runs
    # dense on n-by-n operators.
    views = []
    for node, v in zip((7, 8, 9), graph.views):
        a = np.array(v)
        a[node, :] = a[:, node] = 0.0
        views.append(a)
    isolated = MultiViewGraph(views=tuple(views))
    config = EmbedConfig(k=5, max_iters=2)
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


def test_view_is_read_into_one_array(graph, tmp_path):
    save_matrix_csv(graph.views[0], tmp_path / "v.csv")
    load_matrix_csv(tmp_path / "v.csv")  # first-use setup
    view, peak = peak_above_start(lambda: load_matrix_csv(tmp_path / "v.csv"))
    assert view.nbytes == VIEW_BYTES
    # The array and the parser's buffers, 1.09 views here; np.loadtxt
    # growing its array as rows arrive held 1.30.
    assert peak <= 1.15 * VIEW_BYTES


def test_save_streams_rows(graph, tmp_path):
    _, peak = peak_above_start(lambda: save_matrix_csv(graph.views[0], tmp_path / "v.csv"))
    assert peak <= N * N


@pytest.fixture(params=["2", "8"])
def file_mapper(request, monkeypatch):
    """The CLI's map for file blocks, on 2 workers or on the most it starts."""
    monkeypatch.setenv("MVGEHD_THREADS", request.param)
    with _ordered_map(min(_worker_count(), _FILE_WORKERS)) as mapper:
        yield mapper


def test_pooled_save_holds_at_most_one_view(graph, tmp_path, file_mapper):
    _, peak = peak_above_start(
        lambda: save_matrix_csv(graph.views[0], tmp_path / "v.csv", file_mapper))
    assert (tmp_path / "v.csv").stat().st_size > BLOCK_BYTES
    # The text of the blocks in flight between the workers and the file;
    # the whole text is about 2 views' worth.
    assert peak <= VIEW_BYTES


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


def test_kmeans_on_many_points_holds_one_restart():
    # cluster-nodes on the n = 800 embed benchmark: one restart's n-by-k-by-d
    # point-to-center differences are 192 KB, so a batch of all 20
    # restarts would hold about 4 MB.
    n, k, d = 800, 6, 5
    rng = np.random.default_rng(0)
    points = rng.normal(size=(n, d)) + np.repeat(rng.normal(size=(k, d)) * 4, n // k + 1,
                                                 axis=0)[:n]
    config = KMeansConfig(seed=1)
    _, peak = peak_above_start(lambda: kmeans(points, k, config))
    assert peak <= 3 * 8 * n * k * d
