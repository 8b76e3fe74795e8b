"""Dense symmetric eigen-solves for the embedding solver and the subject
spectral step (mvgehd.clustering).

Each solve is one call to scipy.linalg.eigh with LAPACK's dsyevr driver for
an index subset; scipy.linalg is imported by the first solve, not by
importing this module. The solves serve every eigen-step of the graphs the
solver's matrix-free rule leaves out (below n = 80 (k + 1) nodes for k
embedding columns, or with a disconnected union graph), and redo any
matrix-free step that misses its residual check; the solver runs the steps
of other graphs matrix-free, by LOBPCG, and checks those against this dense
path (see mvgehd.solver). Only the lower triangle of a matrix is read.
"""

from __future__ import annotations

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

    The solve works in place: a Fortran-ordered float64 `matrix` is
    overwritten; any other is copied. A LAPACK failure raises
    numpy.linalg.LinAlgError.
    """
    from scipy.linalg import eigh

    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    if not 1 <= count <= n:
        raise ValueError(f"count must be in 1..{n}, got {count}")
    eigenvalues, eigenvectors = eigh(m, lower=True, subset_by_index=(0, count - 1),
                                     driver="evr", overwrite_a=True, check_finite=False)
    return SymEigenResult(eigenvalues, _fix_column_signs(eigenvectors))
