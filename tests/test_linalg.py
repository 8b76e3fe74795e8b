"""Eigen-solve contract and sign convention."""

import numpy as np
import pytest

from mvgehd.linalg import smallest_eigenpairs


def random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2


class TestSmallestEigenpairs:
    def test_diagonal_matrix(self):
        got = smallest_eigenpairs(np.diag([3.0, 1.0, 2.0]), 2)
        np.testing.assert_allclose(got.eigenvalues, [1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(got.eigenvectors),
                                   [[0, 0], [1, 0], [0, 1]], atol=1e-12)
        # sign convention: largest-magnitude entry positive
        assert got.eigenvectors[1, 0] > 0 and got.eigenvectors[2, 1] > 0

    def test_known_two_by_two_spectrum(self):
        got = smallest_eigenpairs(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
        np.testing.assert_allclose(got.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_residuals_and_charpoly_oracle(self):
        rng = np.random.default_rng(0)
        m = random_symmetric(rng, 10)
        got = smallest_eigenpairs(m, 4)
        scale = max(1.0, np.linalg.norm(m))
        for i in range(4):
            res = np.linalg.norm(m @ got.eigenvectors[:, i]
                                 - got.eigenvalues[i] * got.eigenvectors[:, i])
            assert res <= 1e-8 * scale
        # characteristic-polynomial roots as an independent spectral oracle
        roots = np.sort(np.roots(np.poly(m)).real)
        np.testing.assert_allclose(got.eigenvalues, roots[:4], atol=1e-6)

    def test_full_spectrum_oracle_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            count = int(rng.integers(1, n + 1))
            m = random_symmetric(rng, n)
            got = smallest_eigenpairs(m, count)
            want = np.sort(np.linalg.eigvalsh(m))[:count]
            np.testing.assert_allclose(got.eigenvalues, want, atol=1e-9)
            # ascending, orthonormal, small residuals
            assert np.all(np.diff(got.eigenvalues) >= -1e-12)
            gram = got.eigenvectors.T @ got.eigenvectors
            np.testing.assert_allclose(gram, np.eye(count), atol=1e-8)
            scale = max(1.0, np.linalg.norm(m))
            res = m @ got.eigenvectors - got.eigenvectors * got.eigenvalues
            assert np.max(np.linalg.norm(res, axis=0)) <= 1e-8 * scale

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(9)
        m = random_symmetric(rng, 12)
        a = smallest_eigenpairs(m, 5)
        b = smallest_eigenpairs(m.copy(), 5)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_sign_convention(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = random_symmetric(rng, 8)
            vecs = smallest_eigenpairs(m, 8).eigenvectors
            for i in range(8):
                col = vecs[:, i]
                assert col[np.argmax(np.abs(col))] > 0

    def test_reads_only_the_lower_triangle(self):
        rng = np.random.default_rng(23)
        m = random_symmetric(rng, 12)
        garbage = m.copy()
        upper = np.triu_indices(12, 1)
        garbage[upper] = rng.normal(scale=100.0, size=upper[0].size)
        held = garbage.copy()
        want = smallest_eigenpairs(m, 5)
        got = smallest_eigenpairs(garbage, 5)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)
        # A C-ordered argument is copied, not overwritten.
        assert np.array_equal(garbage, held)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            smallest_eigenpairs(np.array([[np.nan, 0.0], [0.0, 0.0]]), 1)
        with pytest.raises(ValueError, match="count"):
            smallest_eigenpairs(np.eye(3), 4)

