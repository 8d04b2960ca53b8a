"""Core linear-algebra primitives: conventions, invariants, known values."""

import numpy as np
import pytest

from lrdmd import (
    ComplexEigenSet,
    InvalidInput,
    eig_nonsymmetric,
    numerical_rank,
    thin_svd,
)
from lrdmd.linalg import _fix_phase

from conftest import row_space_projector


class TestThinSVD:
    def test_identity(self):
        svd = thin_svd(np.eye(3))
        np.testing.assert_allclose(svd.S, np.ones(3), atol=1e-14)
        np.testing.assert_allclose(svd.U, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(svd.V, np.eye(3), atol=1e-14)

    def test_diagonal_descending(self):
        svd = thin_svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(svd.S, [3.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(svd.U, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(svd.V, np.eye(2), atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((8, 5))
        svd = thin_svd(M)
        np.testing.assert_allclose(svd.U.T @ svd.U, np.eye(5), atol=1e-10)
        np.testing.assert_allclose(svd.V.T @ svd.V, np.eye(5), atol=1e-10)
        err = np.linalg.norm(svd.reconstruct() - M) / np.linalg.norm(M)
        assert err <= 1e-10
        assert np.all(np.diff(svd.S) <= 0) and np.all(svd.S >= 0)

    def test_wide_input_transposed(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((4, 9))
        svd = thin_svd(M)
        assert svd.transposed
        assert svd.S.size == 4
        assert svd.left.shape == (4, 4) and svd.right.shape == (9, 4)
        err = np.linalg.norm(svd.reconstruct() - M) / np.linalg.norm(M)
        assert err <= 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            M = rng.standard_normal((7, 4))
            svd = thin_svd(M)
            for j in range(4):
                i = int(np.argmax(np.abs(svd.U[:, j])))
                assert svd.U[i, j] >= 0

    def test_factors_c_contiguous(self):
        rng = np.random.default_rng(5)
        for shape in ((9, 4), (4, 9)):
            svd = thin_svd(rng.standard_normal(shape))
            assert svd.U.flags.c_contiguous and svd.V.flags.c_contiguous

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((10, 6))
        a, b = thin_svd(M), thin_svd(M.copy())
        assert a.U.tobytes() == b.U.tobytes()
        assert a.S.tobytes() == b.S.tobytes()
        assert a.V.tobytes() == b.V.tobytes()

    def test_rejects_nonfinite(self):
        M = np.ones((3, 3))
        M[1, 1] = np.nan
        with pytest.raises(InvalidInput):
            thin_svd(M)

    def test_reconstruction_property_sweep(self):
        rng = np.random.default_rng(4)
        for seed in range(25):
            p, q = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            M = rng.standard_normal((p, q)) * 10.0 ** rng.integers(-3, 4)
            svd = thin_svd(M)
            assert np.linalg.norm(svd.reconstruct() - M) <= 1e-10 * max(np.linalg.norm(M), 1e-30)


class TestNumericalRank:
    def test_known_values(self):
        svd = thin_svd(np.diag([3.0, 1.0, 0.0]))
        assert numerical_rank(svd) == 2

    def test_zero_matrix(self):
        assert numerical_rank(thin_svd(np.zeros((4, 3)))) == 0

    def test_below_threshold(self):
        svd = thin_svd(np.diag([1.0, 1e-13]))
        assert numerical_rank(svd) == 1


def column_space_projector(M: np.ndarray) -> np.ndarray:
    """``M M^+`` the way ``gen_toy`` setting i forms it: ``U_r U_r^T`` from ``thin_svd``."""
    svd = thin_svd(M)
    Ur = svd.left[:, : numerical_rank(svd)]
    return Ur @ Ur.T


class TestColumnSpaceProjector:
    def test_diagonal_with_zero(self):
        got = column_space_projector(np.diag([2.0, 0.0]))
        np.testing.assert_allclose(got, np.diag([1.0, 0.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(column_space_projector(np.eye(4)), np.eye(4), atol=1e-14)

    def test_full_rank_reproduces_columns(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((6, 4))
        np.testing.assert_allclose(column_space_projector(M) @ M, M, atol=1e-9)

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(6)
        for seed in range(10):
            M = rng.standard_normal((10, 6))
            if seed % 2:
                M[:, -2:] = M[:, :2]  # rank-deficient variant
            P = column_space_projector(M)
            np.testing.assert_allclose(P @ M, M, atol=1e-9)
            np.testing.assert_allclose(P @ P, P, atol=1e-9)
            np.testing.assert_allclose(P.T, P, atol=1e-12)
            np.testing.assert_allclose(P, M @ np.linalg.pinv(M, rcond=1e-12), atol=1e-9)

    def test_wide_matrix(self):
        rng = np.random.default_rng(7)
        M = rng.standard_normal((4, 9))
        np.testing.assert_allclose(column_space_projector(M), np.eye(4), atol=1e-9)


class TestRowSpaceProjector:
    def test_full_row_rank_is_identity(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((9, 5))  # rank 5 in its 5 columns
        P = row_space_projector(thin_svd(X))
        np.testing.assert_allclose(P, np.eye(5), atol=1e-10)

    def test_rank_one(self):
        X = np.zeros((4, 3))
        X[0, 0] = 2.0
        P = row_space_projector(thin_svd(X))
        np.testing.assert_allclose(P, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_idempotent_symmetric_and_reproduces_X(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            X = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 8))
            P = row_space_projector(thin_svd(X))
            assert np.linalg.norm(P @ P - P) <= 1e-10
            assert np.linalg.norm(P - P.T) <= 1e-12
            assert np.linalg.norm(X @ P - X) <= 1e-9 * np.linalg.norm(X)
            # rows of X orthogonal to the complement
            comp = (np.eye(8) - P) @ X.T
            assert np.max(np.abs(comp)) <= 1e-9 * np.linalg.norm(X)


class TestEigNonsymmetric:
    def test_diagonal(self):
        es = eig_nonsymmetric(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(es.values, [2.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(es.vectors), np.eye(2), atol=1e-12)

    def test_rotation_conjugate_pair(self):
        es = eig_nonsymmetric(np.array([[0.0, -1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(es.values, [1j, -1j], atol=1e-12)
        # positive imaginary part first
        assert es.values[0].imag > 0

    def test_residuals_random(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            M = rng.standard_normal((5, 5))
            es = eig_nonsymmetric(M)
            fro = np.linalg.norm(M)
            for lam, w in zip(es.values, es.vectors.T):
                assert np.linalg.norm(M @ w - lam * w) <= 1e-8 * fro
                assert abs(np.linalg.norm(w) - 1.0) <= 1e-10

    def test_trace_equals_eigensum(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            M = rng.standard_normal((8, 8))
            es = eig_nonsymmetric(M)
            assert abs(np.sum(es.values).real - np.trace(M)) <= 1e-8 * max(1.0, abs(np.trace(M)))
            assert abs(np.sum(es.values).imag) <= 1e-8

    def test_ordering_descending_modulus(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((7, 7))
        es = eig_nonsymmetric(M)
        mods = np.abs(es.values)
        assert np.all(np.diff(mods) <= 1e-12)

    def test_conjugate_pairs_adjacent(self):
        rng = np.random.default_rng(13)
        M = rng.standard_normal((6, 6))
        es = eig_nonsymmetric(M)
        vals = list(es.values)
        i = 0
        while i < len(vals):
            if abs(vals[i].imag) > 1e-12:
                assert abs(vals[i + 1] - np.conj(vals[i])) <= 1e-10 * max(1.0, abs(vals[i]))
                assert vals[i].imag > 0
                i += 2
            else:
                i += 1

    def test_phase_convention(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            M = rng.standard_normal((12, 12))
            es = eig_nonsymmetric(M)
            for lam, w in zip(es.values, es.vectors.T):
                pivot = w[np.argmax(np.abs(w))]
                assert pivot.real > 0 and abs(pivot.imag) <= 1e-15 * pivot.real
                assert abs(np.linalg.norm(w) - 1.0) <= 1e-14
                if lam.imag == 0:
                    assert not np.any(w.imag)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInput):
            eig_nonsymmetric(np.ones((2, 3)))

    def test_returns_eigenset_type(self):
        es = eig_nonsymmetric(np.eye(2))
        assert isinstance(es, ComplexEigenSet)


def _loop_fix_phase(M, *followers):
    """Per-column reference for ``_fix_phase``: the pivot is the lowest-index largest-magnitude entry."""
    M, followers = M.copy(), [F.copy() for F in followers]
    for j in range(M.shape[1]):
        pivot = M[int(np.argmax(np.abs(M[:, j]))), j]
        if abs(pivot) > 0:
            phase = np.conj(pivot) / abs(pivot)
            for A in (M, *followers):
                A[:, j] = A[:, j] * phase
    return M, followers


class TestPhaseRule:
    def _inputs(self, dtype):
        rng = np.random.default_rng(15)
        M = rng.standard_normal((6, 5)).astype(dtype)
        if dtype is complex:
            M += 1j * rng.standard_normal((6, 5))
        M[:, 1] = 0.0  # zero column: left alone, no 0/0
        M[:, 2] = [-2.0, 1.0, 2.0, 0.5, 0.0, -1.0]  # tie: the lower index wins
        return M, rng.standard_normal((3, 5)).astype(dtype)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bitwise_equal_to_per_column_loop(self, dtype):
        M, F = self._inputs(dtype)
        want_M, (want_F,) = _loop_fix_phase(M, F)
        _fix_phase(M, F)
        assert M.tobytes() == want_M.tobytes() and F.tobytes() == want_F.tobytes()
        assert not np.any(M[:, 1]) and M[0, 2] == 2.0 and M[2, 2] == -2.0
