"""Auto-weighted multi-view graph embedding with hub suppression.

The embedding F (n-by-k, orthonormal columns) is fit so each node's row
stays close to the weighted average of its neighbors' rows in every view,
under a row-wise-sparse penalty: the per-row cost is the Euclidean norm of
the residual, not its square. Rows that cannot be reconciled with any one
cluster's average (boundary-spanning nodes) are driven toward zero instead
of distorting the cluster geometry, which is what makes small row norms a
hub signal downstream.

Per view, with W the row-stochastic walk matrix and p_j the rows of the
neighbor-average residual P = F - W F, the smoothed row-norm sum is

    h_v(F) = sum_j (sqrt(||p_j||^2 + epsilon) - sqrt(epsilon)).

The reported objective (embedding_objective) is J(F) = sum_v sqrt(h_v(F))
in auto mode and sum_v alpha_v h_v(F) with fixed view weights alpha_v.

One solver iteration, from the current embedding F:
  1. per view, form the residual P = F - W F;
  2. per view, convert P's row norms into diagonal reweighting factors
     q_j = 1 / (2 sqrt(||p_j||^2 + epsilon)), the slope of the smoothed row
     norm in ||p_j||^2, giving the reweighted operator L = M^T Q M with
     M = I - W;
  3. in auto mode, set each view weight to 1 / (2 sqrt(h_v(F))), the slope
     of sqrt at h_v (auto_view_weights), so views the current embedding
     fits well get large weights;
  4. refresh F as the eigenvectors of the k smallest eigenvalues of the
     weighted sum B of the per-view operators, among those orthogonal to
     the constant vector. Every walk has W 1 = 1, so M 1 = 0 and B 1 = 0
     on every graph: the constant is the one direction that no operator
     tells anything about. If the union graph (an edge wherever any view
     has one) has several components, B also annihilates the vectors
     constant on each component; those orthogonal to the constant take
     embedding columns, as in spectral clustering (von Luxburg 2007,
     Props. 2 and 4).

A node with zero degree in some views gets a unit self-loop in each of
them (see mvgehd.graph.affinity_and_degrees), so those views say nothing
about it. A node with zero degree in every view raises IsolatedNodeError
before any eigen-step: B would annihilate its spike, which would take an
embedding column, and the Jacobi preconditioner below would divide by its
zero diagonal entry.

Steps 2 and 3 take tangents of concave functions (sqrt(x + epsilon) in
x = ||p_j||^2, and sqrt in h_v), so the quadratic model

    Phi(G) = sum_v alpha_v sum_j q_vj ||(M_v G)_j||^2 = sum_v alpha_v Tr(G^T L_v G),

with q and alpha taken at the current F, lies above the reported objective
up to a constant and touches it at F. Step 4 minimizes Phi over orthonormal
G orthogonal to the constant, which F is too, so Phi does not rise across
a step and the reported objective never rises: the scheme is
majorize-minimize.

The first iteration uses equal view weights 1/m rather than the tangent
weights, so the descent guarantee covers every step after the first; the
first step has not been seen to raise J on random instances, but nothing
proves it cannot. The sqrt(epsilon) shift keeps zero-residual rows at zero
cost; without it an n sqrt(epsilon) floor inside the outer sqrt shrinks the
weight of well-fit views. Iteration stops when the relative change of the
reported objective falls below rel_tol, or at max_iters.

Each view enters the solve as a ViewOperator that holds the view's own
affinity A and its degrees d, and applies W = A / d without forming it,
so beyond its input a matrix-free solve holds O(m n k) floats and no
n-by-n array. A pass forms the residuals and h_v first and takes an
eigen-step only when one follows, so the pass that stops does none. Every
eigen-step, the first (unit row weights) included, picks its backend from
the graph:

  - matrix-free, when n >= 80 (k + 1), the crossover measured at
    _MATRIX_FREE_NODES_PER_PAIR. LOBPCG (Knyazev 2001) runs on the map
    X -> sum_v M_v^T (alpha_v q_v o (M_v X)), applied as
    Z = (alpha_v q_v) o (X - W_v X), then Z - W_v^T Z, in O(m n^2 k) per
    block product; no n-by-n operator is formed. Each product reads every
    view once, in cache-sized row blocks: a block's rows of Z and its share
    of W_v^T Z are formed while the block is still in cache (see
    ViewOperator.apply). Step 1's residuals are formed in the same row
    blocks, which keeps their products, like the applies', on the calling
    thread rather than BLAS's helper thread at small k (see
    _APPLY_BLOCK_BYTES). It is preconditioned by Jacobi, X -> X / diag(B)
    for the summed operator B, with diag(B) summed over the views from
    their affinities and degrees in O(m n^2).
    The first step starts from a fixed seeded Gaussian block, so repeat
    runs are byte-identical; later steps are warm-started from the current
    F. The constant vector is deflated, as LOBPCG's constraint block.
    Every column must then reach a residual ||B x - lambda x|| <= 1e-10,
    measured here rather than taken from LOBPCG; a step that misses it is
    redone dense. Eigenvalues are put in ascending order and the sign
    convention of mvgehd.linalg applies, as on the dense path.
  - dense otherwise: BLAS dsyrk adds each view's alpha_v M_v^T Q_v M_v, as
    C_v^T C_v with C_v = sqrt(alpha_v q_v) o M_v, into the lower triangle of
    one n-by-n sum B. Adding 2 trace(B) / n to every entry adds
    2 trace(B) u u^T for the unit constant vector u, which moves the
    constant's eigenvalue from 0 to 2 trace(B) and leaves the others: B is
    positive semi-definite, so none exceeds trace(B), and only on a
    two-node graph does one equal it. A subset eigh that reads only the
    lower triangle then returns the k smallest eigenpairs, all orthogonal
    to the constant. This path is the oracle the matrix-free one is tested
    against, and the faster one below the crossover.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import IsolatedNodeError, MultiViewGraph, affinity_and_degrees
from .linalg import _fix_column_signs, smallest_eigenpairs

# Floor on h_v in the auto view weight 1 / (2 sqrt(h_v)): a view the
# embedding fits exactly has h_v = 0.
_ALPHA_GUARD = 1e-12
# Smallest n / (k + 1) whose eigen-steps may run matrix-free (see the module
# docstring). A dense step costs O(n^3) whatever k, a LOBPCG iteration
# O(m n^2 k), so the matrix-free path pays off from some multiple of k + 1
# nodes. Whole solves were timed on both paths, on the embed and hubs
# benchmark specs at n = 150..800 and k = 3, 5, 8, 10, 15 (seeds 1-2, and
# 3-4 from n = 300; 260 cells, same iterations on both paths in each). The
# dense path was faster in 39 of the 40 cells at n <= 200, the matrix-free
# one in 30 of the 32 at k <= 5 and n >= 600. This rule picked the faster
# path in 207 cells; its solves took 115 s in all, against 159 s with
# every n >= 200 matrix-free and 105 s with the faster path in every cell.
_MATRIX_FREE_NODES_PER_PAIR = 80
# Residual norm every matrix-free eigenvector must reach, else the step is
# redone dense. On planted graphs of the embed benchmark's spec at
# n = 200..400 and k = 5, run matrix-free (seeds 0-3, 599 steps), a
# preconditioned step took at most 23 operator applies (median 10, p90 15),
# which is LOBPCG's iteration count plus 3; none was redone dense under this
# cap of 60, 5 were under a cap of 18 and 15 under a cap of 15. At k >= 8
# every matrix-free solve of the crossover grid (see
# _MATRIX_FREE_NODES_PER_PAIR) redid 1 to 17 steps dense, a median of 1 or
# 2; at k = 3 and 5, 4 of 104 solves redid 1 or 2 steps.
_MATRIX_FREE_TOL = 1e-10
_MATRIX_FREE_MAX_ITERS = 60
# Bytes of a view that ViewOperator.apply and ViewOperator.residual read per
# row block. In apply, the block is then still in a core's L2 cache when its
# transpose is read. On a 2 MiB-L2 host, an apply of 3 n = 800 views to 10
# columns took 2.4-2.6 ms with 384-768 KiB blocks, 3.7 ms with 1 MiB and
# 3.8 ms unblocked; at 5 columns 512 KiB-1 MiB were equal. Blocks also keep
# each product on the calling thread: OpenBLAS ran an 82-row block (n = 800)
# times 5 columns there alone, but split the whole view's product onto a
# second thread, which on a shared 2-vCPU host was seen to stall it for
# 4-8 ms against 0.45 ms, and whose first use adds about 2.6 MB of RSS.
_APPLY_BLOCK_BYTES = 2 ** 19


@dataclass(frozen=True)
class EmbedConfig:
    """Solver parameters.

    weights=None selects auto mode, which reports sum_v sqrt(h_v) and
    sets the view weights to 1 / (2 sqrt(h_v)), with h_v floored at 1e-12;
    a sequence of m positive floats fixes the view weights for the whole
    run (the non-adaptive variant), which reports sum_v alpha_v h_v. h_v is
    the smoothed row-norm sum of view v (see smoothed_row_norm_sum).
    """
    k: int
    epsilon: float = 1e-4
    max_iters: int = 100
    rel_tol: float = 1e-6
    weights: tuple | None = None

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ValueError(f"embedding dimension k must be an integer >= 1, got {self.k!r}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 0):
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")
        if not (np.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise ValueError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            if len(w) == 0 or not all(np.isfinite(x) and x > 0 for x in w):
                raise ValueError("fixed view weights must be positive finite floats")
            object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration objective values and view-weight history of one solve."""
    objectives: np.ndarray
    alpha_history: np.ndarray
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class ViewOperator:
    """One view's walk W = A / d, held as the affinity A and its degrees d.

    W (row i of A divided by d_i) is never formed: W X is applied as
    (A X) / d and W^T Z as A^T (Z / d), which hold for any A. `affinity` is
    the view itself, not a copy, unless zero-degree nodes were given
    self-loops (see mvgehd.graph.affinity_and_degrees). M = I - W is
    formed, row-scaled, only by add_operator, for the dense eigen-step.
    """
    affinity: np.ndarray
    degrees: np.ndarray

    @classmethod
    def from_view(cls, view: np.ndarray) -> ViewOperator:
        return cls(*affinity_and_degrees(view))

    def residual(self, embedding: np.ndarray) -> np.ndarray:
        """Residual of each row against its neighbor average: F - W F,
        formed in apply's row blocks, block R's rows from A_R F."""
        f = np.asarray(embedding, dtype=np.float64)
        if f.shape[0] != self.affinity.shape[0]:
            raise ValueError(
                f"embedding has {f.shape[0]} rows for a {self.affinity.shape[0]}-node view")
        out = np.empty(f.shape)
        for r, a_r, d_r in self._row_blocks():
            out[r] = f[r] - (a_r @ f) / d_r
        return out

    def add_operator(self, total: np.ndarray, row_scale: np.ndarray) -> np.ndarray:
        """Add M^T S M, S = diag(row_scale), into the lower triangle of the
        n-by-n `total` and return it, updated in place if Fortran-ordered.

        M^T S M = C^T C for C = sqrt(S) M, formed in one n-by-n buffer;
        BLAS dsyrk adds C^T C to one triangle and leaves the other as it was.
        """
        from scipy.linalg.blas import dsyrk

        root = np.sqrt(row_scale)
        contrast = self.affinity * (-root / self.degrees)[:, None]
        contrast.flat[::contrast.shape[0] + 1] += root
        # contrast.T is C^T in Fortran order, which dsyrk reads without a copy.
        return dsyrk(1.0, contrast.T, beta=1.0, c=total, lower=1, overwrite_c=1)

    def apply(self, block: np.ndarray, row_scale: np.ndarray) -> np.ndarray:
        """M^T S M X for S = diag(row_scale), without forming an n-by-n matrix.

        Z = S (X - W X) and W^T Z = A^T (Z / d) are taken in one pass over A,
        in row blocks R of about _APPLY_BLOCK_BYTES: Z_R from A_R X, then
        A_R^T (Z_R / d_R) while A_R is still in cache. Returns Z - W^T Z.
        """
        z = np.empty(block.shape)
        back = None
        for r, a_r, d_r in self._row_blocks():
            z[r] = row_scale[r, None] * (block[r] - (a_r @ block) / d_r)
            part = a_r.T @ (z[r] / d_r)
            # The first block's product is taken as it is, not added to
            # zeros, so a one-block apply is exactly Z - A^T (Z / d).
            if back is None:
                back = part
            else:
                back += part
        return z - back

    def _row_blocks(self):
        """The view's rows in blocks of about _APPLY_BLOCK_BYTES: for each
        block R, the slice R, A_R and d_R as a column."""
        a, d = self.affinity, self.degrees
        rows = max(1, _APPLY_BLOCK_BYTES // (a.itemsize * a.shape[0]))
        for start in range(0, a.shape[0], rows):
            r = slice(start, start + rows)
            yield r, a[r], d[r, None]

    def diagonal(self, row_scale: np.ndarray) -> np.ndarray:
        """diag(M^T S M)_i = s_i (1 - 2 W_ii) + sum_j s_j W_ji^2 with
        W_ji = A_ji / d_j, in O(n^2) without an n-by-n temporary."""
        a, d = self.affinity, self.degrees
        return (np.einsum("ji,ji,j->i", a, a, row_scale / d ** 2)
                + row_scale * (1.0 - 2.0 * np.diagonal(a) / d))


def residual_row_weights(residual: np.ndarray, epsilon: float) -> np.ndarray:
    """Diagonal reweighting factors q_j = 1 / (2 sqrt(||p_j||^2 + epsilon)).

    q_j is the slope of sqrt(||p_j||^2 + epsilon) in ||p_j||^2. All outputs
    lie in (0, 1/(2 sqrt(epsilon))]; epsilon keeps zero-residual rows finite.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    p = np.asarray(residual, dtype=np.float64)
    sq = np.einsum("ij,ij->i", p, p)
    return 1.0 / (2.0 * np.sqrt(sq + epsilon))


def smoothed_row_norm_sum(residual: np.ndarray, epsilon: float) -> float:
    """Smoothed l2,1 sum h = sum_j (sqrt(||p_j||^2 + epsilon) - sqrt(epsilon)).

    Each term is evaluated as ||p_j||^2 / (sqrt(||p_j||^2 + epsilon) +
    sqrt(epsilon)), which equals it without the cancellation of the
    difference form for rows much smaller than sqrt(epsilon).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    p = np.asarray(residual, dtype=np.float64)
    sq = np.einsum("ij,ij->i", p, p)
    return float(np.sum(sq / (np.sqrt(sq + epsilon) + np.sqrt(epsilon))))


def auto_view_weights(row_norm_sums: np.ndarray) -> np.ndarray:
    """Auto-mode view weights 1 / (2 sqrt(h_v)), the slope of sqrt at each
    view's smoothed row-norm sum h_v, with h_v floored at 1e-12."""
    return 1.0 / (2.0 * np.sqrt(np.maximum(row_norm_sums, _ALPHA_GUARD)))


def embedding_objective(row_norm_sums: np.ndarray, weights=None) -> float:
    """The reported objective from the views' smoothed row-norm sums h_v:
    sum_v sqrt(h_v) in auto mode (weights=None), sum_v alpha_v h_v with
    fixed view weights alpha."""
    if weights is None:
        return float(np.sqrt(row_norm_sums).sum())
    return float(np.asarray(weights, dtype=np.float64) @ row_norm_sums)


def _check_solve_inputs(n: int, m: int, config: EmbedConfig) -> None:
    if config.k + 1 > n:
        raise ValueError(
            f"need k + 1 <= n for k columns orthogonal to the constant: k={config.k}, n={n}")
    if config.weights is not None and len(config.weights) != m:
        raise ValueError(
            f"{len(config.weights)} fixed weights for {m} views")


def _matrix_free_applies(graph: MultiViewGraph, k: int) -> bool:
    """Whether the eigen-steps of a solve at dimension k, the first included,
    may run matrix-free."""
    n = graph.n
    # scipy's LOBPCG hands a block wider than (n - 1) / 5 to its own dense
    # solver, which rejects the deflated constant.
    return n >= _MATRIX_FREE_NODES_PER_PAIR * (k + 1) and n >= 5 * (k + 1)


def _matrix_free_embedding(ops, row_weights, alphas, start: np.ndarray):
    """The k bottom eigenvectors of sum_v alpha_v M_v^T Q_v M_v orthogonal to
    the constant, by Jacobi-preconditioned LOBPCG from `start`; None if
    LOBPCG breaks down or a residual misses _MATRIX_FREE_TOL."""
    from scipy.sparse.linalg import lobpcg

    n = start.shape[0]
    scales = [alpha * q for alpha, q in zip(alphas, row_weights)]

    def apply(block):
        out = ops[0].apply(block, scales[0])
        for op, scale in zip(ops[1:], scales[1:]):
            out += op.apply(block, scale)
        return out

    # Positive: solve has checked that every node has an edge in some view.
    diagonal = sum(op.diagonal(scale) for op, scale in zip(ops, scales))
    try:
        with warnings.catch_warnings():
            # Convergence is judged by the residual check below.
            warnings.simplefilter("ignore", UserWarning)
            # LOBPCG overwrites its start block, which the caller may hold.
            values, vectors = lobpcg(apply, start.copy(),
                                     M=lambda block: block / diagonal[:, None],
                                     Y=np.full((n, 1), 1.0 / np.sqrt(n)),
                                     tol=_MATRIX_FREE_TOL, maxiter=_MATRIX_FREE_MAX_ITERS,
                                     largest=False)
    except ValueError:
        # LOBPCG's breakdowns: a rank-deficient block or a failed final
        # Rayleigh-Ritz solve.
        return None
    order = np.argsort(values)
    values, vectors = values[order], vectors[:, order]
    residuals = np.linalg.norm(apply(vectors) - vectors * values, axis=0)
    if not np.all(residuals <= _MATRIX_FREE_TOL):
        return None
    return _fix_column_signs(vectors)


def solve(graph: MultiViewGraph, config: EmbedConfig, on_update=None):
    """Run the alternating embedding scheme on a multi-view graph.

    Returns (embedding, view_weights, trace): the final n-by-k orthonormal
    embedding, the final per-view weights, and the full iteration trace.
    The trace objectives include the initial embedding, so their length is
    trace.iterations + 1. If given, on_update(iteration, embedding) is
    called after each embedding refresh (instrumentation hook).
    """
    n, m = graph.n, graph.m
    _check_solve_inputs(n, m, config)
    ops = [ViewOperator.from_view(v) for v in graph.views]
    # The views have no diagonal, so a node whose one edge is a self-loop
    # had zero degree (see the module docstring).
    alone = np.logical_and.reduce([np.diagonal(op.affinity) == op.degrees for op in ops])
    if alone.any():
        raise IsolatedNodeError(np.flatnonzero(alone)[0])

    if config.weights is not None:
        alphas = np.array(config.weights, dtype=np.float64)
    else:
        alphas = np.full(m, 1.0 / m)

    matrix_free = _matrix_free_applies(graph, config.k)

    # Matrix-free where the rule allows it; dense otherwise, or when the
    # matrix-free step fails its residual check.
    def eigen_step(row_weights, weights, start):
        f_next = (_matrix_free_embedding(ops, row_weights, weights, start)
                  if matrix_free else None)
        if f_next is None:
            total = np.zeros((n, n), order="F")
            for op, q, w in zip(ops, row_weights, weights):
                total = op.add_operator(total, float(w) * q)
            # Moves the constant to the top of the spectrum (see the module
            # docstring).
            total += 2.0 * np.trace(total) / n
            f_next = smallest_eigenpairs(total, config.k).eigenvectors
        return f_next

    # Deterministic start: unweighted operators (unit row weights), equal
    # view weights; a matrix-free first step starts from a fixed seeded block.
    start = np.random.default_rng(0).standard_normal((n, config.k)) if matrix_free else None
    f = eigen_step([np.ones(n)] * m, np.full(m, 1.0 / m), start)

    objectives = []
    alpha_history = []
    iterations = 0
    converged = False
    while True:
        residuals = [op.residual(f) for op in ops]
        sums = np.array([smoothed_row_norm_sum(p, config.epsilon) for p in residuals])
        if config.weights is None and iterations > 0:
            alphas = auto_view_weights(sums)
        objectives.append(embedding_objective(sums, config.weights))
        alpha_history.append(alphas.copy())
        if len(objectives) >= 2:
            prev, cur = objectives[-2], objectives[-1]
            if abs(prev - cur) / max(prev, 1e-12) < config.rel_tol:
                converged = True
                break
        if iterations >= config.max_iters:
            break
        row_weights = [residual_row_weights(p, config.epsilon) for p in residuals]
        f = eigen_step(row_weights, alphas, f)
        iterations += 1
        if on_update is not None:
            on_update(iterations, f)

    trace = SolveTrace(
        objectives=np.array(objectives),
        alpha_history=np.array(alpha_history),
        iterations=iterations,
        converged=converged,
    )
    return f, alphas, trace
