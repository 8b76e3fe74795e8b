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
  4. refresh F as the eigenvectors of the 2nd through (k+1)-th smallest
     eigenvalues of the weighted sum of the per-view operators. M
     annihilates vectors that are constant on each connected component of
     the union graph (see below). If that graph is connected, the skipped
     bottom eigenvector is the uninformative constant direction; if not,
     only one component indicator is skipped and the others take
     embedding columns.

Steps 2 and 3 take tangents of concave functions (sqrt(x + epsilon) in
x = ||p_j||^2, and sqrt in h_v), so the quadratic model

    Phi(G) = sum_v alpha_v sum_j q_vj ||(M_v G)_j||^2 = sum_v alpha_v Tr(G^T L_v G),

with q and alpha taken at the current F, lies above the reported objective
up to a constant and touches it at F. Step 4 minimizes Phi over orthonormal
G orthogonal to the skipped bottom eigenvector, so Phi does not rise across
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

  - matrix-free, when n >= 200, n >= 5 (k + 1) and the union graph (an
    edge wherever any view has one) is connected, which a breadth-first
    search on a boolean mask decides. LOBPCG (Knyazev 2001) runs on the
    map X -> sum_v M_v^T (alpha_v q_v o (M_v X)), applied as
    Z = (alpha_v q_v) o (X - W_v X), then Z - W_v^T Z, in O(m n^2 k) per
    block product; no n-by-n operator is formed. Each product reads every
    view once, in cache-sized row blocks: a block's rows of Z and its share
    of W_v^T Z are formed while the block is still in cache (see
    ViewOperator.apply). It is preconditioned by Jacobi, X -> X / diag(B)
    for the summed operator B, with diag(B) summed over the views from
    their affinities and degrees in O(m n^2).
    The first step starts from a fixed seeded Gaussian block, so repeat
    runs are byte-identical; later steps are warm-started from the current
    F. The constant vector is deflated, which on a connected union graph
    is exactly the skipped bottom eigenvector. Every column must then reach
    a residual ||B x - lambda x|| <= 1e-10, measured here rather than
    taken from LOBPCG; a step that misses it is redone dense. Eigenvalues
    are put in ascending order and the sign convention of mvgehd.linalg
    applies, as on the dense path.
  - dense otherwise: BLAS dsyrk adds each view's alpha_v M_v^T Q_v M_v, as
    C_v^T C_v with C_v = sqrt(alpha_v q_v) o M_v, into the lower triangle of
    one n-by-n sum; a subset eigh that reads only that triangle returns the
    k + 1 smallest eigenpairs. This path is the oracle the matrix-free one
    is tested against, and the faster one on small graphs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import ISOLATED_POLICIES, MultiViewGraph, affinity_and_degrees
from .linalg import _fix_column_signs, smallest_eigenpairs

# Floor on h_v in the auto view weight 1 / (2 sqrt(h_v)): a view the
# embedding fits exactly has h_v = 0.
_ALPHA_GUARD = 1e-12
# Smallest graph whose eigen-steps may run matrix-free (see the module
# docstring); below it the dense subset eigh is faster.
_MATRIX_FREE_MIN_N = 200
# Residual norm every matrix-free eigenvector must reach, else the step is
# redone dense. On planted graphs of the embed benchmark's spec at
# n = 200..400 (seeds 0-3, 599 steps), a preconditioned step took at most 23
# operator applies (median 10, p90 15), which is LOBPCG's iteration count
# plus 3; none was redone dense under this cap of 60, 5 were under a cap of
# 18 and 15 under a cap of 15.
_MATRIX_FREE_TOL = 1e-10
_MATRIX_FREE_MAX_ITERS = 60
# Bytes of a view that ViewOperator.apply reads per row block, so that the
# block is still in a core's L2 cache when its transpose is read. On a
# 2 MiB-L2 host, an apply of 3 n = 800 views to 10 columns took 2.4-2.6 ms
# with 384-768 KiB blocks, 3.7 ms with 1 MiB and 3.8 ms unblocked; at 5
# columns 512 KiB-1 MiB were equal.
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
    isolated_policy: str = "error"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"embedding dimension k must be >= 1, got {self.k}")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not (np.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise ValueError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")
        if self.isolated_policy not in ISOLATED_POLICIES:
            raise ValueError(
                f"unknown isolated_policy {self.isolated_policy!r}; "
                f"expected one of {ISOLATED_POLICIES}")
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
    the view itself, not a copy, unless isolated nodes were given
    self-loops (see mvgehd.graph.affinity_and_degrees). M = I - W is
    formed, row-scaled, only by add_operator, for the dense eigen-step.
    """
    affinity: np.ndarray
    degrees: np.ndarray

    @classmethod
    def from_view(cls, view: np.ndarray, isolated_policy: str = "error") -> ViewOperator:
        return cls(*affinity_and_degrees(view, isolated_policy))

    def residual(self, embedding: np.ndarray) -> np.ndarray:
        """Residual of each row against its neighbor average: F - W F."""
        f = np.asarray(embedding, dtype=np.float64)
        if f.shape[0] != self.affinity.shape[0]:
            raise ValueError(
                f"embedding has {f.shape[0]} rows for a {self.affinity.shape[0]}-node view")
        return f - (self.affinity @ f) / self.degrees[:, None]

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
        a, d = self.affinity, self.degrees
        rows = max(1, _APPLY_BLOCK_BYTES // (a.itemsize * a.shape[0]))
        z = np.empty(block.shape)
        back = None
        for start in range(0, a.shape[0], rows):
            r = slice(start, start + rows)
            a_r, d_r = a[r], d[r, None]
            z[r] = row_scale[r, None] * (block[r] - (a_r @ block) / d_r)
            part = a_r.T @ (z[r] / d_r)
            # The first block's product is taken as it is, not added to
            # zeros, so a one-block apply is exactly Z - A^T (Z / d).
            if back is None:
                back = part
            else:
                back += part
        return z - back

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
            f"need k + 1 <= n to skip the bottom eigenvector: k={config.k}, n={n}")
    if config.weights is not None and len(config.weights) != m:
        raise ValueError(
            f"{len(config.weights)} fixed weights for {m} views")


def _matrix_free_applies(graph: MultiViewGraph, k: int) -> bool:
    """Whether the eigen-steps of a solve, the first included, may run matrix-free."""
    n = graph.n
    # scipy's LOBPCG hands a block wider than (n - 1) / 5 to its own dense
    # solver, which rejects the deflated constant.
    if n < _MATRIX_FREE_MIN_N or n < 5 * (k + 1):
        return False
    # Off a connected union graph the bottom eigenspace is not just the
    # constant, so deflating the constant would answer another problem.
    return _union_connected(graph.views)


def _union_connected(views) -> bool:
    """Whether the union graph, with an undirected edge i-j wherever some
    view has a_ij > 0 or a_ji > 0, is connected.

    A breadth-first search on a boolean mask: each node's row is scanned
    once when it joins the frontier, so O(n^2) work and n^2 bytes, no
    float temporary.
    """
    union = views[0] > 0
    for view in views[1:]:
        union |= view > 0
    # Validation allows a_ij > 0 = a_ji within SYMMETRY_TOL; such an edge
    # joins i and j either way.
    union |= union.T
    reached = np.zeros(union.shape[0], dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        frontier = union[frontier].any(axis=0) & ~reached
        reached |= frontier
    return bool(reached.all())


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

    # Positive on a connected union graph: every node has an edge in some view.
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
    ops = [ViewOperator.from_view(v, config.isolated_policy) for v in graph.views]

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
            f_next = smallest_eigenpairs(total, config.k + 1).eigenvectors[:, 1:]
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
