"""Solver module: closed-form optimum, baselines, error formula, stationarity."""

import numpy as np
import pytest

import lrdmd
from lrdmd import (
    FactoredOperator,
    InvalidInput,
    InvalidRank,
    ReducedModel,
    SnapshotPair,
    SpectralModel,
    error_report,
    error_sweep,
    first_order_residual,
    fit_optimal,
    fit_projected,
    fit_truncated,
    optimal_error_closed_form,
    optimal_lowrank,
    projected_dmd_baseline,
    simulate_operator,
    truncated_baseline,
    unconstrained_solution,
)
from lrdmd.linalg import thin_svd
from lrdmd.solver import LowRankFit

from conftest import compute_Z, dense, random_instance, row_space_projector


class TestSnapshotPair:
    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            SnapshotPair(X=np.ones((3, 2)), Y=np.ones((3, 3)))

    def test_layout_consistency(self):
        with pytest.raises(InvalidInput):
            SnapshotPair(X=np.ones((3, 4)), Y=np.ones((3, 4)), n_traj=2, traj_len=4)

    def test_from_trajectories(self):
        t1 = np.arange(8.0).reshape(4, 2)  # T=4, n=2
        t2 = t1 + 100.0
        pair = SnapshotPair.from_trajectories([t1, t2])
        assert pair.m == 6 and pair.n == 2
        np.testing.assert_array_equal(pair.X[:, 0], t1[0])
        np.testing.assert_array_equal(pair.Y[:, 0], t1[1])
        np.testing.assert_array_equal(pair.X[:, 3], t2[0])
        np.testing.assert_array_equal(pair.Y[:, 5], t2[3])


_RANK1 = FactoredOperator(P=np.eye(3)[:, :1], Q=np.eye(3)[:, :1])
_PAIRED = "each complex eigenvalue a \\+ ib \\(b > 0\\) directly before its conjugate"


def _spectral(*lam, vecs=np.ones((4, 3))):
    return SpectralModel(eigvals=np.array(lam, dtype=complex), right_vecs=vecs, left_vecs=np.ones((4, 3)))


@pytest.mark.parametrize(
    "call, outcome",
    [
        (lambda: SnapshotPair(X=np.array([[1.0, np.nan]]), Y=np.ones((1, 2))), "non-finite entries"),
        (lambda: SnapshotPair(X=np.ones((1, 2)), Y=np.array([[np.inf, 1.0]])), "non-finite entries"),
        # cast to float, complex snapshots would be fitted by their real parts alone
        (lambda: SnapshotPair(X=np.ones((1, 2)) + 1j, Y=np.ones((1, 2))), "must be real, got complex entries"),
        (lambda: SnapshotPair(X=np.ones((1, 2)), Y=np.ones((1, 2)) + 1j), "must be real, got complex entries"),
        # linalg's matrix rule: an empty or 1-d X is rejected here, not by the first fit's thin_svd
        (lambda: SnapshotPair(X=np.ones((3, 0)), Y=np.ones((3, 0))), "X must be 2-d with positive dimensions"),
        (lambda: SnapshotPair(X=np.ones(3), Y=np.ones(3)), "X must be 2-d with positive dimensions"),
        (lambda: SnapshotPair.from_trajectories([]), "need at least one trajectory"),
        (lambda: SnapshotPair.from_trajectories([np.ones((3, 2)), np.ones((4, 2))]), "share a common shape"),
        (lambda: SnapshotPair.from_trajectories([np.ones((1, 2))]), "at least two snapshots"),
        (lambda: FactoredOperator(P=np.ones((4, 2)), Q=np.ones((4, 3))), "equal shapes"),
        (lambda: FactoredOperator(P=np.ones((4, 2)) + 0j, Q=np.ones((4, 2))), "P and Q must be real"),
        (lambda: ReducedModel(L=np.ones((4, 2)), R=np.ones((4, 2)), S=np.eye(2) + 0j), "L, R and S must be real"),
        (lambda: FactoredOperator(P=np.ones((4, 2)), Q=np.ones((4, 2))).apply(np.ones(3)), "length 4 expected"),
        # the real modal form of a spectral model: pairs adjacent, b > 0 first, real vectors
        (lambda: _spectral(0.9 + 0.1j, 0.5, 0.4), _PAIRED),
        (lambda: _spectral(0.9 - 0.1j, 0.9 + 0.1j, 0.4), _PAIRED),
        (lambda: _spectral(0.9 + 0.1j, 0.4, 0.9 - 0.1j), _PAIRED),
        (lambda: _spectral(0.9 + 0.1j, 0.9 - 0.1j, 0.4, vecs=np.ones((4, 3)) + 0j), "zeta and xi must be real"),
        # complex input is rejected, not cut to its real part
        (lambda: simulate_operator(_RANK1, np.ones(3) + 1j, 2), "initial condition must be real, got complex entries"),
        (lambda: _RANK1.apply(np.ones(3) + 1j), "vector must be real, got complex entries"),
        # X Y^T P = 0: the residual is 0 when X X^T Q vanishes too, and infinite otherwise
        (lambda: first_order_residual(_RANK1, SnapshotPair(X=np.zeros((3, 2)), Y=np.ones((3, 2)))), 0.0),
        (lambda: first_order_residual(_RANK1, SnapshotPair(X=np.eye(3), Y=np.zeros((3, 3)))), np.inf),
    ],
    ids=["x-nan", "y-inf", "x-complex", "y-complex", "x-empty", "x-1d", "no-trajectories", "unequal-trajectories",
         "one-snapshot", "p-q-shapes", "p-complex", "s-complex", "apply-length", "lone-complex-mode",
         "pair-b-negative-first", "pair-not-adjacent", "spectral-vectors-complex", "theta-complex", "apply-complex",
         "zero-lhs-zero-rhs", "zero-lhs"],
)
def test_input_checks(call, outcome):
    if isinstance(outcome, str):
        with pytest.raises(InvalidInput, match=outcome):
            call()
    else:
        assert call() == outcome


class TestUnconstrained:
    def test_identity_X(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((4, 4))
        op = unconstrained_solution(SnapshotPair(X=np.eye(4), Y=Y))
        np.testing.assert_allclose(dense(op), Y, atol=1e-12)

    def test_hand_computed_rank1(self):
        # X = diag(1,0), Y = [[0,0],[2,0]]: Y X^+ = [[0,0],[2,0]], residual 0
        X = np.diag([1.0, 0.0])
        Y = np.array([[0.0, 0.0], [2.0, 0.0]])
        op = unconstrained_solution(SnapshotPair(X=X, Y=Y))
        np.testing.assert_allclose(dense(op), [[0.0, 0.0], [2.0, 0.0]], atol=1e-13)
        assert op.residual_fro(SnapshotPair(X=X, Y=Y)) <= 1e-13

    def test_construct_then_solve(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((12, 12))
        G = rng.standard_normal((12, 12))
        data = SnapshotPair(X=X, Y=G @ X)
        op = unconstrained_solution(data)
        assert op.residual_fro(data) <= 1e-9 * np.linalg.norm(data.Y)

    def test_full_rank_zero_residual(self):
        rng = np.random.default_rng(2)
        data = SnapshotPair(X=rng.standard_normal((9, 5)), Y=rng.standard_normal((9, 5)))
        op = unconstrained_solution(data)
        assert op.residual_fro(data) <= 1e-10 * np.linalg.norm(data.Y)

    def test_zero_X_flagged(self):
        data = SnapshotPair(X=np.zeros((4, 3)), Y=np.ones((4, 3)))
        op = unconstrained_solution(data)
        assert "degenerate_x" in op.flags
        np.testing.assert_allclose(dense(op), np.zeros((4, 4)), atol=1e-15)


class TestOneFactorisationOfX:
    @staticmethod
    def _count_svds(monkeypatch, data: SnapshotPair) -> dict[str, int]:
        """Tally the solver's thin SVDs taken of ``data.X``, of ``data.Y`` and of any n-row matrix."""
        seen = {"X": 0, "Y": 0, "n_rows": 0}
        svd = lrdmd.solver.thin_svd

        def counting(M):
            seen["X"] += M is data.X
            seen["Y"] += M is data.Y
            seen["n_rows"] += M.shape[0] == data.n
            return svd(M)

        monkeypatch.setattr(lrdmd.solver, "thin_svd", counting)
        return seen

    def test_x_factored_once_per_pair(self, monkeypatch):
        rng = np.random.default_rng(31)
        data = SnapshotPair(X=rng.standard_normal((30, 12)), Y=rng.standard_normal((30, 12)))
        seen = self._count_svds(monkeypatch, data)
        optimal_lowrank(data, 3)
        optimal_error_closed_form(data, 3)
        truncated_baseline(data, 3)
        projected_dmd_baseline(data, 3)
        lrdmd.error_sweep(data, range(1, 13))
        assert seen["X"] == 1
        assert seen["n_rows"] == 2  # X and C = Y V_r, however many fits read them

    @pytest.mark.parametrize("case", ["tall", "deficient_x", "wide_x", "zero_x", "zero_y"])
    def test_refit_reuses_both_factorisations(self, case):
        from lrdmd import audit

        rng = np.random.default_rng(35)
        n, m = (8, 20) if case == "wide_x" else (40, 12)
        X, Y = rng.standard_normal((n, m)), rng.standard_normal((n, m))
        if case == "deficient_x":
            X = rng.standard_normal((n, 3)) @ rng.standard_normal((3, m))
        elif case == "zero_x":
            X = np.zeros((n, m))
        elif case == "zero_y":
            Y = np.zeros((n, m))
        data = SnapshotPair(X=X, Y=Y)
        for fit in (fit_optimal, fit_truncated, fit_projected):
            first = fit(data)
            with audit.tally() as t:
                again = fit(data)
            assert t.multiply_adds < n * m
            for k in (1, m):
                np.testing.assert_array_equal(again.operator(k).P, first.operator(k).P)
                np.testing.assert_array_equal(again.operator(k).Q, first.operator(k).Q)
        assert optimal_error_closed_form(data, 1) == pytest.approx(optimal_lowrank(data, 1).residual_fro(data) ** 2)

    @pytest.mark.parametrize("shape", [(30, 12), (8, 20)])
    def test_truncated_never_factors_y(self, monkeypatch, shape):
        rng = np.random.default_rng(32)
        data = SnapshotPair(X=rng.standard_normal(shape), Y=rng.standard_normal(shape))
        seen = self._count_svds(monkeypatch, data)
        fit_truncated(data)
        assert seen["Y"] == 0

    @pytest.mark.parametrize("n, m, rho", [(20, 8, 8), (20, 8, 3), (6, 15, 6), (6, 15, 2)])
    def test_truncation_matches_dense_svd_of_y_pinv_x(self, n, m, rho):
        # Tall and wide X, full and deficient rank, against the dense SVD of Y X^+.
        rng = np.random.default_rng(33 + rho)
        X = rng.standard_normal((n, rho)) @ rng.standard_normal((rho, m))
        data = SnapshotPair(X=X, Y=rng.standard_normal((n, m)))
        U, s, Vt = np.linalg.svd(data.Y @ np.linalg.pinv(data.X, rcond=1e-12))
        for k in range(1, rho + 1):
            oracle = (U[:, :k] * s[:k]) @ Vt[:k]
            np.testing.assert_allclose(dense(truncated_baseline(data, k)), oracle, atol=1e-9 * s[0])

    def test_cached_factors_are_read_only_and_operators_own_theirs(self):
        rng = np.random.default_rng(36)
        data = SnapshotPair(X=rng.standard_normal((9, 5)), Y=rng.standard_normal((9, 5)))
        for a in (*vars(data.svd_x).values(), *vars(data.svd_c[0]).values(), *vars(data.svd_b).values()):
            if isinstance(a, np.ndarray):
                assert not a.flags.writeable
        for name, solve in lrdmd.SOLVERS.items():
            fit = solve(data)
            with pytest.raises(ValueError):
                fit.p_basis[0, 0] = 1.0
            op = fit.operator(3)
            for M in (op.P, op.Q):
                assert M.flags.owndata and M.flags.writeable, name

    def test_arrays_are_read_only_views_of_the_callers(self):
        rng = np.random.default_rng(34)
        X, Y = rng.standard_normal((7, 4)), rng.standard_normal((7, 4))
        data = SnapshotPair(X=X, Y=Y)
        for mine, theirs in ((data.X, X), (data.Y, Y)):
            assert np.shares_memory(mine, theirs)
            with pytest.raises(ValueError):
                mine[0, 0] = 1.0
        X[0, 0] = Y[0, 0] = 1.0  # the caller's arrays stay writable
        assert data.X[0, 0] == data.Y[0, 0] == 1.0


class TestComputeZ:
    def test_full_rank_gives_Y(self):
        rng = np.random.default_rng(3)
        data = SnapshotPair(X=rng.standard_normal((8, 5)), Y=rng.standard_normal((8, 5)))
        np.testing.assert_allclose(compute_Z(data), data.Y, atol=1e-10)

    def test_zero_X(self):
        data = SnapshotPair(X=np.zeros((4, 3)), Y=np.ones((4, 3)))
        np.testing.assert_allclose(compute_Z(data), np.zeros((4, 3)), atol=0)

    def test_rank_one_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        X = np.outer(rng.standard_normal(6), rng.standard_normal(4))
        Y = rng.standard_normal((6, 4))
        data = SnapshotPair(X=X, Y=Y)
        P = row_space_projector(thin_svd(X))
        np.testing.assert_allclose(compute_Z(data), Y @ P, atol=1e-12)


class TestOptimal:
    def test_eckart_young_toy(self):
        data = SnapshotPair(X=np.eye(2), Y=np.diag([3.0, 1.0]))
        op = optimal_lowrank(data, 1)
        np.testing.assert_allclose(dense(op), np.diag([3.0, 0.0]), atol=1e-12)
        assert abs(op.residual_fro(data) - 1.0) <= 1e-12
        assert abs(optimal_error_closed_form(data, 1) - 1.0) <= 1e-12

    def test_k_equals_m_matches_unconstrained(self):
        rng = np.random.default_rng(5)
        data = SnapshotPair(X=rng.standard_normal((10, 6)), Y=rng.standard_normal((10, 6)))
        a = optimal_lowrank(data, 6)
        b = unconstrained_solution(data)
        np.testing.assert_allclose(dense(a), dense(b), atol=1e-10)

    def test_invalid_rank(self):
        data = SnapshotPair(X=np.eye(3), Y=np.eye(3))
        with pytest.raises(InvalidRank):
            optimal_lowrank(data, 4)
        with pytest.raises(InvalidRank):
            optimal_lowrank(data, 0)

    def test_orthonormal_p_and_projection_identity(self):
        rng = np.random.default_rng(6)
        data = SnapshotPair(X=rng.standard_normal((30, 12)), Y=rng.standard_normal((30, 12)))
        op = optimal_lowrank(data, 4)
        np.testing.assert_allclose(op.P.T @ op.P, np.eye(4), atol=1e-10)
        # A_k* v equals P P^T (Y X^+ v) on random vectors
        uncon = unconstrained_solution(data)
        for _ in range(5):
            v = rng.standard_normal(30)
            lhs = op.apply(v)
            rhs = op.P @ (op.P.T @ uncon.apply(v))
            np.testing.assert_allclose(lhs, rhs, atol=1e-9 * max(1.0, np.linalg.norm(rhs)))

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(7)
        data = SnapshotPair(X=rng.standard_normal((30, 12)), Y=rng.standard_normal((30, 12)))
        k = 4
        op = optimal_lowrank(data, k)
        e_opt = op.residual_fro(data)
        assert abs(e_opt**2 - optimal_error_closed_form(data, k)) <= 1e-8 * max(1.0, e_opt**2)
        for _ in range(1000):
            P = rng.standard_normal((30, k))
            Q = rng.standard_normal((30, k))
            e = np.linalg.norm(data.Y - P @ (Q.T @ data.X))
            assert e_opt <= e + 1e-10

    def test_rank_deficient_Z_flagged_and_truncated(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((20, 3)) @ rng.standard_normal((3, 10))
        data = SnapshotPair(X=X, Y=rng.standard_normal((20, 10)))
        op = optimal_lowrank(data, 7)
        assert "rank_deficient" in op.flags
        assert op.r == 3
        # rank(X) = 12 with singular values down to 1e-7 and Y = G X: at
        # k = 20 no noise direction beyond rank(X) may come back unflagged.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            U, _ = np.linalg.qr(rng.standard_normal((200, 12)))
            V, _ = np.linalg.qr(rng.standard_normal((30, 12)))
            X = (U * np.logspace(0, -7, 12)) @ V.T
            op = optimal_lowrank(SnapshotPair(X=X, Y=rng.standard_normal((200, 200)) @ X), 20)
            assert "rank_deficient" in op.flags
            assert op.r <= 12

    def test_y_orthogonal_to_row_space_of_x_flagged(self):
        # C = Y V_r is pure roundoff here; none of its directions is rank.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 10))
        V3 = thin_svd(X).V[:, :3]
        Y = rng.standard_normal((30, 10)) @ (np.eye(10) - V3 @ V3.T)
        op = optimal_lowrank(SnapshotPair(X=X, Y=Y), 2)
        assert "rank_deficient" in op.flags
        assert op.r == 0

    def test_never_materialises_nxn(self):
        from lrdmd import audit

        rng = np.random.default_rng(9)
        n = 300
        data = SnapshotPair(X=rng.standard_normal((n, 10)), Y=rng.standard_normal((n, 10)))
        with audit.tally() as t:
            optimal_lowrank(data, 5)
        assert t.max_elements < n * n


class TestFactoredOperator:
    def test_fro_norm_counts_its_products(self):
        # P^T P and Q^T Q, each n r^2 multiply-adds
        from lrdmd import audit

        rng = np.random.default_rng(42)
        data = SnapshotPair(X=rng.standard_normal((2000, 40)), Y=rng.standard_normal((2000, 40)))
        op = optimal_lowrank(data, 10)
        with audit.tally() as t:
            norm = op.fro_norm()
        assert t.multiply_adds == 2 * 2000 * 10 * 10
        assert norm == pytest.approx(np.linalg.norm(op.Q), rel=1e-12)  # P has orthonormal columns


class TestClosedFormError:
    def test_full_rank_reduces_to_Y_tail(self):
        rng = np.random.default_rng(10)
        data = SnapshotPair(X=rng.standard_normal((15, 8)), Y=rng.standard_normal((15, 8)))
        s_y = thin_svd(data.Y).S
        for k in range(1, 9):
            cf = optimal_error_closed_form(data, k)
            tail = float(np.sum(s_y[k:] ** 2))
            assert abs(cf - tail) <= 1e-10 * max(tail, s_y[0] ** 2 * 1e-10)

    def test_rank_deficient_matches_direct(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((25, 4)) @ rng.standard_normal((4, 12))
        data = SnapshotPair(X=X, Y=rng.standard_normal((25, 12)))
        for k in (1, 3, 6, 12):
            cf = optimal_error_closed_form(data, k)
            direct_sq = optimal_lowrank(data, k).residual_fro(data) ** 2
            assert abs(cf - direct_sq) <= 1e-8 * max(1.0, cf)

    def test_monotone_and_saturates(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((20, 5)) @ rng.standard_normal((5, 10))
        data = SnapshotPair(X=X, Y=rng.standard_normal((20, 10)))
        vals = [optimal_error_closed_form(data, k) for k in range(1, 11)]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(9))
        # beyond rank(Z) the error equals the row-space leakage term
        leak = float(np.sum((data.Y - compute_Z(data)) ** 2))
        for k in range(5, 11):
            assert abs(vals[k - 1] - leak) <= 1e-9 * max(1.0, leak)

    def test_double_sum_formula_oracle(self):
        # second term of the closed form written out as an explicit double sum
        # over right-singular-vector inner products
        rng = np.random.default_rng(13)
        X = rng.standard_normal((18, 4)) @ rng.standard_normal((4, 9))
        Y = rng.standard_normal((18, 9))
        data = SnapshotPair(X=X, Y=Y)
        svd_x, svd_y = thin_svd(X), thin_svd(Y)
        rank_x = int(np.sum(svd_x.S > 1e-12 * svd_x.S[0]))
        vx, vy, sy = svd_x.V, svd_y.V, svd_y.S
        second = sum(
            sy[j] ** 2 * float(vx[:, i] @ vy[:, j]) ** 2
            for i in range(rank_x, 9)
            for j in range(9)
        )
        s_z = thin_svd(compute_Z(data)).S
        for k in (1, 4, 8):
            cf = optimal_error_closed_form(data, k)
            explicit = float(np.sum(s_z[k:] ** 2)) + second
            assert abs(cf - explicit) <= 1e-9 * max(1.0, explicit)


class TestTruncatedBaseline:
    def test_k_equals_m_is_unconstrained(self):
        rng = np.random.default_rng(14)
        data = SnapshotPair(X=rng.standard_normal((9, 5)), Y=rng.standard_normal((9, 5)))
        a = truncated_baseline(data, 5)
        b = unconstrained_solution(data)
        np.testing.assert_allclose(dense(a), dense(b), atol=1e-10)

    def test_identity_X_coincides_with_optimal(self):
        data = SnapshotPair(X=np.eye(2), Y=np.diag([3.0, 1.0]))
        op = truncated_baseline(data, 1)
        np.testing.assert_allclose(dense(op), np.diag([3.0, 0.0]), atol=1e-12)

    def test_zero_Y_is_rank_deficient_not_degenerate(self):
        rng = np.random.default_rng(16)
        data = SnapshotPair(X=rng.standard_normal((10, 4)), Y=np.zeros((10, 4)))
        op = fit_truncated(data).operator(2)
        assert op.r == 0 and op.flags == ("rank_deficient",)
        assert op.flags == optimal_lowrank(data, 2).flags
        assert op.residual_fro(data) == 0.0

    def test_is_svd_truncation_oracle(self):
        rng = np.random.default_rng(15)
        data = SnapshotPair(X=rng.standard_normal((20, 8)), Y=rng.standard_normal((20, 8)))
        full = dense(unconstrained_solution(data))
        U, s, Vt = np.linalg.svd(full)
        for k in (1, 3, 6):
            oracle = (U[:, :k] * s[:k]) @ Vt[:k]
            got = dense(truncated_baseline(data, k))
            np.testing.assert_allclose(got, oracle, atol=1e-9 * max(1.0, s[0]))


class TestLowRankFitContract:
    def test_no_closed_form_for_the_baselines(self):
        rng = np.random.default_rng(21)
        data = SnapshotPair(X=rng.standard_normal((9, 5)), Y=rng.standard_normal((9, 5)))
        assert fit_truncated(data).error_sq(1) is None
        assert fit_projected(data).error_sq(1) is None
        assert fit_optimal(data).error_sq(1) is not None

    def test_every_method_returns_a_low_rank_fit(self):
        rng = np.random.default_rng(22)
        data = SnapshotPair(X=rng.standard_normal((9, 5)), Y=rng.standard_normal((9, 5)))
        for solve in lrdmd.SOLVERS.values():
            assert isinstance(solve(data), LowRankFit)

    @pytest.mark.parametrize("method", ["optimal", "truncated", "projected"])
    def test_wide_pair_beyond_n_is_rank_deficient(self, method):
        rng = np.random.default_rng(23)
        data = SnapshotPair(X=rng.standard_normal((4, 10)), Y=rng.standard_normal((4, 10)))
        op = lrdmd.SOLVERS[method](data).operator(6)
        assert op.r == 4 and op.flags == ("rank_deficient",)

    def test_own_flags_compose_with_rank_deficient(self):
        # All-zero X: each method keeps its own flags and adds "rank_deficient" past its rank 0.
        data = SnapshotPair(X=np.zeros((6, 4)), Y=np.random.default_rng(24).standard_normal((6, 4)))
        assert fit_truncated(data).operator(2).flags == ("degenerate_x", "rank_deficient")
        assert fit_projected(data).operator(2).flags == ("degenerate_x", "rank_deficient_x", "rank_deficient")
        assert fit_optimal(data).operator(2).flags == ("degenerate_x", "rank_deficient")
        assert fit_optimal(data).error_sq(2) == pytest.approx(float(np.sum(data.Y**2)), rel=1e-14)

    @pytest.mark.parametrize("method", ["optimal", "truncated", "projected"])
    def test_q_basis_is_u_r(self, method):
        rng = np.random.default_rng(41)
        X = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 8))  # rank 4 < m = 8
        data = SnapshotPair(X=X, Y=rng.standard_normal((12, 8)))
        fit = lrdmd.SOLVERS[method](data)
        np.testing.assert_array_equal(fit.q_basis, data.svd_x.U[:, :4])
        assert fit.q_mix.shape[0] == 4

    def test_rb_iv_projected_past_its_rank(self):
        # X of rb-iv (seed 1) has numerical rank 12 < m = 50, so projected DMD runs outside its assumption.
        fit = fit_projected(lrdmd.gen_physical("iv", seed=1))
        assert fit.operator(12).flags == ("rank_deficient_x",)
        for k in (13, 50):
            op = fit.operator(k)
            assert op.r == 12 and op.flags == ("rank_deficient_x", "rank_deficient")


class TestResidualsFro:
    """``LowRankFit.residuals_fro``: every k's direct residual in one call, so a shorter sweep is a prefix."""

    @pytest.mark.parametrize("method", ["optimal", "truncated", "projected"])
    def test_prefix(self, method):
        rng = np.random.default_rng(38)
        X = rng.standard_normal((12, 4)) @ rng.standard_normal((4, 8))  # rank 4 < m = 8
        data = SnapshotPair(X=X, Y=rng.standard_normal((12, 8)))
        fit = lrdmd.SOLVERS[method](data)
        full = fit.residuals_fro(data)
        assert full.shape == (8,)
        short, whole = error_sweep(data, [1, 2, 3], [method]), error_sweep(data, range(1, 9), [method])
        np.testing.assert_array_equal(short.errors[method], whole.errors[method][:3])
        assert short.flags[method] == whole.flags[method][:3]
        if method == "optimal":
            np.testing.assert_array_equal(short.closed_form, whole.closed_form[:3])
            np.testing.assert_array_equal(short.closed_form_gap, whole.closed_form_gap[:3])
        assert np.all(full[fit.rank :] == full[fit.rank - 1])  # past the rank, the rank's operator
        for k in range(1, 9):
            assert full[k - 1] == pytest.approx(fit.operator(k).residual_fro(data), rel=1e-12, abs=1e-14)

    def test_degenerate_fit_reads_norm_y(self):
        data = SnapshotPair(X=np.zeros((6, 4)), Y=np.random.default_rng(40).standard_normal((6, 4)))
        for solve in lrdmd.SOLVERS.values():
            np.testing.assert_allclose(solve(data).residuals_fro(data), data.norm_y, rtol=1e-15)


class TestNonuniqueAtK:
    @pytest.mark.parametrize("method", ["optimal", "truncated", "projected"])
    def test_flag_at_the_split_of_a_tied_pair_only(self, method):
        # X has orthonormal columns, so C, D and B all have singular values 3, 2, 2, 1.
        rng = np.random.default_rng(37)
        X, _ = np.linalg.qr(rng.standard_normal((6, 4)))
        U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        data = SnapshotPair(X=X, Y=X @ ((U * [3.0, 2.0, 2.0, 1.0]) @ V.T))
        fit = lrdmd.SOLVERS[method](data)
        assert [fit.operator(k).flags for k in range(1, 5)] == [(), ("nonunique_at_k",), (), ()]

    def test_rb_iv_truncated_tie(self):
        # sigma_9 and sigma_10 of D agree to 4.9e-12 of sigma_1 on rb-iv (seed 1).
        fit = fit_truncated(lrdmd.gen_physical("iv", seed=1))
        assert [fit.operator(k).flags for k in (8, 9, 10)] == [(), ("nonunique_at_k",), ()]


class TestProjectedBaseline:
    def test_k_equals_m_on_companion_data_matches_unconstrained(self, toy_datasets):
        # Only under the companion assumption does the k = m projected
        # operator recover the unconstrained error; on generic data its
        # out-of-span floor ||(U_X-perp)^T Y|| persists at every k.
        data = toy_datasets["i"]
        e_proj = projected_dmd_baseline(data, data.m).residual_fro(data)
        e_unc = unconstrained_solution(data).residual_fro(data)
        assert abs(e_proj - e_unc) <= 1e-9 * np.linalg.norm(data.Y)

    def test_generic_data_keeps_out_of_span_floor(self):
        rng = np.random.default_rng(16)
        data = SnapshotPair(X=rng.standard_normal((12, 6)), Y=rng.standard_normal((12, 6)))
        e_proj = projected_dmd_baseline(data, 6).residual_fro(data)
        floor = np.linalg.norm(data.Y - data.X @ (np.linalg.pinv(data.X) @ data.Y))
        assert abs(e_proj - floor) <= 1e-9 * max(1.0, floor)
        assert unconstrained_solution(data).residual_fro(data) <= 1e-10 * np.linalg.norm(data.Y)

    def test_exact_for_companion_data(self, toy_datasets):
        data = toy_datasets["i"]
        ny = np.linalg.norm(data.Y)
        for k in (1, 5, 17, 29):
            e_opt = optimal_lowrank(data, k).residual_fro(data) / ny
            e_proj = projected_dmd_baseline(data, k).residual_fro(data) / ny
            assert abs(e_opt - e_proj) <= 1e-8 * max(e_opt, e_proj)

    def test_deteriorates_on_cubic_data(self, toy_datasets):
        data = toy_datasets["iii"]
        ny = np.linalg.norm(data.Y)
        ratios = []
        for k in range(11, 41, 4):
            e_opt = optimal_lowrank(data, k).residual_fro(data) / ny
            e_proj = projected_dmd_baseline(data, k).residual_fro(data) / ny
            ratios.append(e_proj / max(e_opt, 1e-300))
        assert max(ratios) > 1.1

    def test_rank_counts_against_norm_of_y(self):
        # B has numerical rank 2; its roundoff directions must not count as rank.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 10))
        data = SnapshotPair(X=X, Y=rng.standard_normal((30, 2)) @ rng.standard_normal((2, 10)))
        op = projected_dmd_baseline(data, 5)
        assert op.r == 2 and op.flags == ("rank_deficient",)

    def test_rank_deficient_x_flag(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 6))
        data = SnapshotPair(X=X, Y=rng.standard_normal((10, 6)))
        op = projected_dmd_baseline(data, 3)
        assert "rank_deficient_x" in op.flags


class TestFirstOrderResidual:
    def test_optimal_small(self):
        rng = np.random.default_rng(18)
        data = SnapshotPair(X=rng.standard_normal((20, 9)), Y=rng.standard_normal((20, 9)))
        op = optimal_lowrank(data, 4)
        assert first_order_residual(op, data) <= 1e-8

    def test_identity_X_exact(self):
        rng = np.random.default_rng(19)
        data = SnapshotPair(X=np.eye(6), Y=rng.standard_normal((6, 6)))
        op = optimal_lowrank(data, 3)
        assert first_order_residual(op, data) <= 1e-12

    def test_truncated_is_a_stationary_point(self):
        # SVD truncation of the least-squares solution satisfies the
        # stationarity condition exactly (X X^T A^T = X Y^T carries over to
        # every truncation), so it is a critical point, just not the minimum.
        rng = np.random.default_rng(20)
        X = rng.standard_normal((25, 4)) @ rng.standard_normal((4, 12))
        data = SnapshotPair(X=X, Y=rng.standard_normal((25, 12)))
        assert first_order_residual(truncated_baseline(data, 2), data) <= 1e-10

    def test_projected_is_a_stationary_point(self):
        # The projected factors satisfy Q^T = P^T Y X^+ (P = U_X U_B[:, :k]
        # orthonormal, spanning the range of A_k), so the stationarity
        # condition holds on rank-deficient data as well.
        rng = np.random.default_rng(20)
        X = rng.standard_normal((25, 4)) @ rng.standard_normal((4, 12))
        data = SnapshotPair(X=X, Y=rng.standard_normal((25, 12)))
        assert first_order_residual(projected_dmd_baseline(data, 2), data) <= 1e-10


class TestDominance:
    def test_optimal_dominates_everywhere(self):
        for seed in range(25):
            data, m = random_instance(seed)
            for k in range(1, m + 1, max(1, m // 5)):
                e_o = optimal_lowrank(data, k).residual_fro(data)
                e_t = truncated_baseline(data, k).residual_fro(data)
                e_p = projected_dmd_baseline(data, k).residual_fro(data)
                assert e_o <= e_t + 1e-10
                assert e_o <= e_p + 1e-10

    def test_rank_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            rho_x, rho_y = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            X = rng.standard_normal((30, rho_x)) @ rng.standard_normal((rho_x, 14))
            Y = rng.standard_normal((30, rho_y)) @ rng.standard_normal((rho_y, 14))
            data = SnapshotPair(X=X, Y=Y)
            for k in (1, 4, 9, 14):
                op = optimal_lowrank(data, k)
                A = dense(op)
                got = int(np.sum(np.linalg.svd(A, compute_uv=False) > 1e-9 * max(np.linalg.norm(A), 1e-300)))
                assert got <= min(k, rho_x, rho_y)


class TestErrorReport:
    def test_gap_small_for_optimal(self):
        rng = np.random.default_rng(22)
        data = SnapshotPair(X=rng.standard_normal((16, 7)), Y=rng.standard_normal((16, 7)))
        op = optimal_lowrank(data, 3)
        rep = error_report(op, data, closed_form_sq=optimal_error_closed_form(data, 3))
        assert rep.closed_form_gap <= 1e-7 * max(1.0, rep.closed_form_error)
        assert abs(rep.normalized - rep.direct_error / np.linalg.norm(data.Y)) <= 1e-14

    def test_direct_only_for_baseline(self):
        rng = np.random.default_rng(23)
        data = SnapshotPair(X=rng.standard_normal((10, 5)), Y=rng.standard_normal((10, 5)))
        rep = error_report(truncated_baseline(data, 2), data)
        assert rep.closed_form_error is None and rep.closed_form_gap is None
