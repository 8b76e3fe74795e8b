"""Dense symmetric eigen-solves for the embedding solver and the subject
spectral step (mvgehd.clustering).

The eigen-solves here call LAPACK's dense symmetric driver dsyevr, by way
of scipy.linalg.lapack, which the first solve imports (importing this
module does not). They serve every eigen-step of the graphs the solver's
matrix-free rule leaves out (below n = 200, or with a disconnected union
graph), and redo any matrix-free step that misses its residual check; the
solver runs the steps of other graphs matrix-free, by LOBPCG, and checks
those against this dense path (see mvgehd.solver). dsyevr, like
scipy.linalg.eigh, reads only the lower triangle of a symmetric matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SymEigenResult:
    """Smallest eigenpairs of a symmetric matrix.

    eigenvalues are ascending; eigenvectors[:, i] pairs with eigenvalues[i],
    columns are orthonormal, and each column's sign is fixed so its
    largest-magnitude entry (lowest index on ties) is positive.
    """
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    np.argmax returns the first maximizer, which implements the
    ties-by-lowest-index rule and makes the convention deterministic.
    """
    pivot = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[pivot, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def smallest_eigenpairs(matrix: np.ndarray, count: int) -> SymEigenResult:
    """Algebraically smallest `count` eigenpairs of the symmetric matrix
    whose lower triangle `matrix` holds; its strict upper triangle is not read.

    The solve calls LAPACK's dsyevr directly, the driver scipy.linalg.eigh
    picks for an index subset, with its workspace sizes cached per order,
    so each call skips eigh's driver lookup and workspace query. dsyevr
    works in place: a Fortran-ordered float64 `matrix` is overwritten; any
    other is copied. A LAPACK failure raises numpy.linalg.LinAlgError.
    """
    from scipy.linalg.lapack import dsyevr

    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    if not 1 <= count <= n:
        raise ValueError(f"count must be in 1..{n}, got {count}")
    lwork, liwork = _syevr_workspace(n)
    eigenvalues, eigenvectors, found, _, info = dsyevr(
        m, range="I", il=1, iu=count, lower=1, lwork=lwork, liwork=liwork, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsyevr failed with info = {info}")
    return SymEigenResult(
        eigenvalues=eigenvalues[:found],
        eigenvectors=_fix_column_signs(eigenvectors[:, :found]),
    )


@functools.lru_cache(maxsize=32)
def _syevr_workspace(n: int) -> tuple[int, int]:
    """dsyevr's optimal (lwork, liwork) for order n, lower triangle."""
    from scipy.linalg.lapack import dsyevr_lwork

    work, iwork, info = dsyevr_lwork(n, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsyevr_lwork failed with info = {info}")
    return int(work), int(iwork)
