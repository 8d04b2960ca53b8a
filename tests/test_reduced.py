"""Reduced and spectral models: equivalence, eigen residuals, costs."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

import lrdmd
from lrdmd import (
    DiagonalisabilityWarning,
    FactoredOperator,
    InvalidInput,
    ReducedModel,
    SimulationBlowup,
    SnapshotPair,
    SpectralModel,
    build_spectral_model,
    build_svd_reduced_model,
    optimal_lowrank,
    simulate_operator,
    simulate_reduced,
    simulate_spectral,
)
from lrdmd import audit
from lrdmd.linalg import eig_nonsymmetric
from lrdmd import reduced
from lrdmd.reduced import CERTIFIED_BOUND, ZERO_EIG_TOL, _kept_left_rows

from conftest import dense, loop_spectral, match_multisets


def _loop_operator(op, theta, T):
    """Step-by-step reference: x_1 = theta, x_t = P (Q^T x_{t-1})."""
    out = np.empty((T, op.n))
    out[0] = theta
    for t in range(1, T):
        out[t] = op.P @ (op.Q.T @ out[t - 1])
    return out


def _loop_reduced(model, theta, T):
    """Step-by-step reference: x_1 = theta, x_t = R z_{t-1}, z_t = S z_{t-1}, z_1 = L^T theta."""
    out = np.empty((T, model.n))
    out[0] = theta
    z = model.L.T @ theta
    for t in range(1, T):
        out[t] = model.R @ z
        z = model.S @ z
    return out


def _decaying_operator(seed, n=60, gain=1.0):
    """A = P Q^T with orthonormal P and Q^T P of eigenvalues |lambda| ~ gain * 1e-2, two conjugate pairs among them."""
    rng = np.random.default_rng(seed)
    blocks = [(0.012, 0.7), (0.004, 2.0)]
    M = np.zeros((6, 6))
    for i, (rho, phi) in enumerate(blocks):
        M[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rho * np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    M[4, 4], M[5, 5] = 0.009, -0.011
    V = rng.standard_normal((6, 6))
    M = gain * (V @ M @ np.linalg.inv(V))
    P, _ = np.linalg.qr(rng.standard_normal((n, 6)))
    N = rng.standard_normal((n, 6))
    N -= P @ (P.T @ N)  # Q^T P = M whatever the part of Q orthogonal to P
    return FactoredOperator(P=P, Q=P @ M.T + N), rng


def _scaled_models(g, P_hat):
    """``A = g I`` on R^2 as a factored, a reduced and a spectral model, each decoded by ``1e160 P_hat``.

    The states are ``x_t = g^{t-1} theta`` and the latent path is ``g^{t-1} P_hat^{-1} theta / 1e160``.
    """
    c = 1e160
    Q = (g / c) * np.linalg.inv(P_hat).T
    P = c * P_hat
    spectral = SpectralModel(eigvals=np.full(2, g, dtype=complex), right_vecs=P, left_vecs=Q / g)
    return {
        simulate_operator: FactoredOperator(P=P, Q=Q),
        simulate_reduced: ReducedModel(L=Q, R=P, S=g * np.eye(2)),
        simulate_spectral: spectral,
    }


#: Decoder columns that cancel: for theta = [0, a] the latent path is about [1000 a, 1000 a] / 1e160, so the
#: r-space bound of a lifted row is 2000 times its largest entry.
CANCELLING = np.array([[1.0, -1.0], [0.0, 1e-3]])


def _random_optimal(seed, n=25, m=10, k=4):
    rng = np.random.default_rng(seed)
    data = SnapshotPair(X=rng.standard_normal((n, m)), Y=rng.standard_normal((n, m)))
    return optimal_lowrank(data, k), data, rng


_Z, _C = np.zeros((5, 3)), np.zeros((5, 3), dtype=complex)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ReducedModel(L=_Z[:, :2], R=_Z, S=np.eye(3)), "got L (5, 2), R (5, 3), S (3, 3)"),
        (lambda: ReducedModel(L=_Z, R=_Z[:4], S=np.eye(3)), "got L (5, 3), R (4, 3), S (3, 3)"),
        (lambda: ReducedModel(L=_Z, R=_Z, S=np.eye(3)[:2]), "got L (5, 3), R (5, 3), S (2, 3)"),
        (lambda: ReducedModel(L=_Z, R=_Z, S=np.ones(3)), "got L (5, 3), R (5, 3), S (3,)"),
        (lambda: SpectralModel(np.zeros(3, dtype=complex), _C, _C[:, :2]), "got eigvals (3,), zeta (5, 3), xi (5, 2)"),
        (lambda: SpectralModel(np.zeros(2, dtype=complex), _C, _C), "got eigvals (2,), zeta (5, 3), xi (5, 3)"),
        (lambda: SpectralModel(np.zeros((1, 3), dtype=complex), _C, _C), "got eigvals (1, 3), zeta (5, 3), xi (5, 3)"),
        (lambda: SpectralModel(np.zeros(5, dtype=complex), _C[0], _C[0]), "got eigvals (5,), zeta (3,), xi (3,)"),
    ],
    ids=["reduced-L", "reduced-R", "reduced-S-rows", "reduced-S-vector", "spectral-xi", "spectral-eigvals",
         "spectral-eigvals-matrix", "spectral-vectors-1-d"],
)
def test_models_check_their_shapes(build, message):
    with pytest.raises(InvalidInput, match=re.escape(message)):
        build()


class TestReducedModel:
    def test_rank1_toy(self):
        data = SnapshotPair(X=np.eye(2), Y=np.diag([3.0, 1.0]))
        op = optimal_lowrank(data, 1)
        model = build_svd_reduced_model(op)
        np.testing.assert_allclose(model.S, [[3.0]], atol=1e-12)
        np.testing.assert_allclose(np.abs(model.R.ravel()), [1.0, 0.0], atol=1e-12)

    def test_any_factors_reproduce_powers(self):
        # P = Q = ones: A = 2 * ones(3, 3), so A^t theta = 6^(t-1) * 2 * sum(theta) * ones(3)
        op = FactoredOperator(P=np.ones((3, 2)), Q=np.ones((3, 2)))
        model = build_svd_reduced_model(op)
        theta = np.array([1.0, -2.0, 4.0])
        states = simulate_reduced(model, theta, 6).states
        for t in range(1, 6):
            np.testing.assert_allclose(states[t], 6.0 ** (t - 1) * 2.0 * theta.sum() * np.ones(3), rtol=1e-14)
        np.testing.assert_array_equal(states, simulate_operator(op, theta, 6).states)

    def test_shares_the_operators_factors(self):
        op, _, _ = _random_optimal(8)
        model = build_svd_reduced_model(op)
        assert model.L is op.Q and model.R is op.P and model.S is op.propagator
        assert not model.S.flags.writeable
        np.testing.assert_array_equal(model.S, op.Q.T @ op.P)

    def test_one_operator_forms_its_propagator_once(self):
        # Q^T P is n r^2 multiply-adds; the reduced model, the spectral build and the simulator all read it.
        op, _, rng = _random_optimal(8)
        n, r, T = op.n, op.r, 5
        theta = rng.standard_normal(n)
        with audit.tally() as alone:
            build_spectral_model(FactoredOperator(P=op.P, Q=op.Q))
            simulate_operator(FactoredOperator(P=op.P, Q=op.Q), theta, T)
        with audit.tally() as shared:
            build_svd_reduced_model(op)
            build_spectral_model(op)
            simulate_operator(op, theta, T)
        assert alone.multiply_adds - shared.multiply_adds == n * r * r
        with audit.tally() as again:
            build_svd_reduced_model(op)
        assert again.multiply_adds == 0

    def test_power_identity(self):
        # R S^{t-1} L^T theta reproduces the t-th operator power applied to theta
        op, _, rng = _random_optimal(0)
        model = build_svd_reduced_model(op)
        theta = rng.standard_normal(25)
        states = simulate_reduced(model, theta, 11).states
        x = theta.copy()
        for t in range(1, 11):
            x = op.apply(x)
            got = states[t]
            np.testing.assert_allclose(got, x, atol=1e-9 * max(1.0, np.linalg.norm(x)))

    def test_matches_iterated_operator(self):
        op, _, rng = _random_optimal(1)
        model = build_svd_reduced_model(op)
        theta = rng.standard_normal(25)
        ref = simulate_operator(op, theta, 10).states
        got = simulate_reduced(model, theta, 10).states
        np.testing.assert_allclose(got, ref, atol=1e-9 * max(1.0, np.abs(ref).max()))

    def test_exact_rank_data_reproduces_trajectory(self):
        # data generated by a rank-k map: reduced model replays it exactly
        rng = np.random.default_rng(2)
        n, k = 30, 4
        G = rng.standard_normal((n, k)) @ rng.standard_normal((k, n)) / n
        theta = rng.standard_normal(n)
        traj = [theta]
        for _ in range(7):
            traj.append(G @ traj[-1])
        traj = np.array(traj)
        data = SnapshotPair(X=traj[:-1].T, Y=traj[1:].T)
        op = optimal_lowrank(data, k)
        model = build_svd_reduced_model(op)
        got = simulate_reduced(model, theta, 8).states
        scale = np.linalg.norm(traj, axis=1).max()
        np.testing.assert_allclose(got, traj, atol=1e-8 * scale)


class TestSimulateReduced:
    def test_first_state_is_theta(self):
        op, _, rng = _random_optimal(3)
        model = build_svd_reduced_model(op)
        theta = rng.standard_normal(25)
        traj = simulate_reduced(model, theta, 5)
        np.testing.assert_array_equal(traj.states[0], theta)

    def test_T1_trajectory_is_theta(self):
        op, _, rng = _random_optimal(4)
        model = build_svd_reduced_model(op)
        theta = rng.standard_normal(25)
        traj = simulate_reduced(model, theta, 1)
        assert traj.T == 1
        np.testing.assert_array_equal(traj.states[0], theta)

    def test_identity_propagator_constant_coordinates(self):
        L = np.eye(4)[:, :2]
        model = lrdmd.ReducedModel(L=L, R=L, S=np.eye(2))
        theta = np.array([1.0, 2.0, 3.0, 4.0])
        traj = simulate_reduced(model, theta, 6)
        for t in range(1, 6):
            np.testing.assert_allclose(traj.states[t], [1.0, 2.0, 0.0, 0.0], atol=1e-14)

    def test_dimension_mismatch(self):
        op, _, _ = _random_optimal(5)
        model = build_svd_reduced_model(op)
        with pytest.raises(InvalidInput):
            simulate_reduced(model, np.ones(7), 3)
        with pytest.raises(InvalidInput):
            simulate_reduced(model, np.ones(25), 0)

    def test_build_counts_its_products(self):
        # S = Q^T P alone: n r^2 multiply-adds
        op, _, _ = _random_optimal(7, n=1000, m=12, k=5)
        with audit.tally() as t:
            build_svd_reduced_model(op)
        assert t.multiply_adds == 1000 * 5 * 5

    def test_per_step_cost(self):
        op, _, rng = _random_optimal(6, n=120, m=12, k=5)
        model = build_svd_reduced_model(op)
        theta = rng.standard_normal(120)
        T = 21
        with audit.tally() as t:
            simulate_reduced(model, theta, T)
        per_step = t.multiply_adds / (T - 1)
        n, r = 120, 5
        assert per_step <= 2.0 * (r * n + r * r)
        assert per_step >= r * n


class TestSpectralModel:
    def test_rank1_unit(self):
        e1 = np.zeros((4, 1))
        e1[0, 0] = 1.0
        op = FactoredOperator(P=e1, Q=e1)
        model = build_spectral_model(op)
        assert model.r == 1
        np.testing.assert_allclose(model.eigvals, [1.0], atol=1e-12)
        np.testing.assert_allclose(model.right_vecs.real.ravel(), e1.ravel(), atol=1e-12)
        np.testing.assert_allclose(model.left_vecs.real.ravel(), e1.ravel(), atol=1e-12)

    def test_eigenvalues_match_dense_oracle(self):
        for seed in range(8):
            op, _, _ = _random_optimal(seed, n=40, m=12, k=5)
            model = build_spectral_model(op)
            A = dense(op)
            lam_all = np.linalg.eig(A)[0]
            lam_dense = lam_all[np.argsort(-np.abs(lam_all))][: model.r]
            scale = max(np.abs(lam_dense).max(), 1e-300)
            match_multisets(model.eigvals, lam_dense, tol=1e-8 * scale)

    def test_eigen_residuals_and_rayleigh(self):
        for seed in range(8):
            op, _, _ = _random_optimal(seed + 50, n=35, m=12, k=6)
            model = build_spectral_model(op)
            a_norm = op.fro_norm()
            Pc, Qc = op.P.astype(complex), op.Q.astype(complex)
            for lam, zeta, xi in zip(model.eigvals, *(v.T for v in model.complex_modes())):
                # right/left residuals via factors
                assert np.linalg.norm(Pc @ (Qc.T @ zeta) - lam * zeta) <= 1e-8 * a_norm
                assert np.linalg.norm(Qc @ (Pc.T @ xi) - lam * xi) <= 1e-8 * a_norm
                # normalisation and Rayleigh identity
                assert abs(np.sum(xi * zeta) - 1.0) <= 1e-9
                ray = complex(np.sum(xi * (Pc @ (Qc.T @ zeta))))
                assert abs(ray - lam) <= 1e-8 * max(1.0, abs(lam))

    def test_biorthogonality_for_separated_spectra(self):
        op, _, _ = _random_optimal(7, n=30, m=10, k=5)
        model = build_spectral_model(op)
        lam = model.eigvals
        sep = min(
            abs(lam[i] - lam[j])
            for i in range(len(lam))
            for j in range(len(lam))
            if i != j
        )
        if sep > 1e-6 * np.abs(lam).max():
            G = model.left_vecs.T @ model.right_vecs
            np.testing.assert_allclose(G, np.eye(model.r), atol=1e-6)

    def test_conjugate_pair_closure(self):
        op, _, _ = _random_optimal(8, n=30, m=12, k=6)
        model = build_spectral_model(op)
        lam = model.eigvals
        zeta, _ = model.complex_modes()
        i = 0
        while i < lam.size:
            if abs(lam[i].imag) > 1e-10 * abs(lam[i]):
                assert abs(lam[i + 1] - np.conj(lam[i])) <= 1e-9 * abs(lam[i])
                np.testing.assert_allclose(zeta[:, i + 1], np.conj(zeta[:, i]), atol=1e-9)
                i += 2
            else:
                i += 1

    def test_zero_eigenvalues_dropped(self):
        # operator with an exactly nilpotent part: Q^T P singular
        P = np.eye(5)[:, :2]
        Q = np.zeros((5, 2))
        Q[2, 0] = 1.0  # A = e1 e3^T: Q^T P = 0, all eigenvalues zero
        op = FactoredOperator(P=P, Q=Q)
        model = build_spectral_model(op)
        assert model.r == 0

    def test_recovers_generating_triples(self):
        # build a rank-3 operator from known triples, recover them
        rng = np.random.default_rng(9)
        n = 40
        zeta = rng.standard_normal((n, 3))
        xi_raw = rng.standard_normal((n, 3))
        # biorthogonalise xi against zeta
        xi = xi_raw @ np.linalg.inv(xi_raw.T @ zeta).T
        lam = np.array([0.9, 0.5, -0.3])
        base = lrdmd.SpectralModel(eigvals=lam.astype(complex), right_vecs=zeta, left_vecs=xi)
        data = lrdmd.gen_spectral_truth(base, N=4, T=9, seed=10)
        op = optimal_lowrank(data, 3)
        model = build_spectral_model(op)
        match_multisets(model.eigvals, lam.astype(complex), tol=1e-7)
        zeta_hat, _ = model.complex_modes()
        for lam_i, z_i in zip(lam, zeta.T):
            j = int(np.argmin(np.abs(model.eigvals - lam_i)))
            z_hat = zeta_hat[:, j]
            cos = abs(np.vdot(z_hat, z_i)) / (np.linalg.norm(z_hat) * np.linalg.norm(z_i))
            assert np.arccos(min(cos, 1.0)) <= 1e-6

    def test_near_defective_operator_warns_but_returns(self):
        # propagator Q^T P = [[1, 1], [0, 1 + d]]: eigenvector basis condition
        # ~ 1/d, pairing |xi^T zeta| ~ d still above the hard failure cutoff
        P = np.eye(6)[:, :2]
        Q = np.zeros((6, 2))
        Q[0, 0] = 1.0
        Q[1, 0] = 1.0
        Q[1, 1] = 1.0 + 1e-9
        op = FactoredOperator(P=P, Q=Q)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = build_spectral_model(op)
        assert any(issubclass(w.category, DiagonalisabilityWarning) for w in caught)
        assert "ill_conditioned_eigenbasis" in model.flags
        assert model.r == 2

    def test_exactly_defective_pairing_fails(self):
        # a true Jordan block has orthogonal left/right eigenvectors, so the
        # xi^T zeta = 1 normalisation is impossible
        P = np.eye(6)[:, :2]
        Q = np.zeros((6, 2))
        Q[0, 0] = 1.0
        Q[1, 0] = 1.0
        Q[1, 1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DiagonalisabilityWarning)
            with pytest.raises(lrdmd.PairingFailure):
                build_spectral_model(FactoredOperator(P=P, Q=Q))

    def test_failed_left_row_solve_is_a_pairing_failure(self, monkeypatch):
        def singular(K, lam, W):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(reduced, "_kept_left_rows", singular)
        with pytest.raises(lrdmd.PairingFailure, match=re.escape("numerically singular: max 1/|y^T w| = inf")):
            build_spectral_model(_random_optimal(3)[0])

    def test_defective_zero_block_is_dropped(self):
        # Q^T P = M has a 2x2 Jordan block at 0 and the eigenvalue 0.5: only the kept pair is inverted
        P = np.eye(6)[:, :3]
        M = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        op = FactoredOperator(P=P, Q=P @ M.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                model = build_spectral_model(op)
        assert model.r == 1 and model.flags == ()
        np.testing.assert_array_equal(model.eigvals, [0.5])
        theta = np.random.default_rng(5).standard_normal(6)
        a = simulate_operator(op, theta, 8).states
        b = simulate_spectral(model, theta, 8).states
        # A^t keeps only the 0.5 mode once the index-2 nilpotent part is gone (t >= 2, rows 2 onwards)
        assert np.max(np.abs(a[2:] - b[2:])) <= 1e-15 * np.abs(a[2:]).max()

    def test_dropped_zero_eigenvalues_keep_left_eigenvectors(self):
        # diagonalisable Q^T P with some exact zero eigenvalues, against the dense operator
        for seed in range(6):
            rng = np.random.default_rng(seed)
            P = np.linalg.qr(rng.standard_normal((30, 7)))[0]
            lam = rng.standard_normal(7)
            lam[: 1 + seed % 3] = 0.0
            V = rng.standard_normal((7, 7))
            op = FactoredOperator(P=P, Q=P @ (V @ np.diag(lam) @ np.linalg.inv(V)).T)
            model = build_spectral_model(op)
            assert model.r == 6 - seed % 3
            match_multisets(model.eigvals, lam[lam != 0].astype(complex), tol=1e-10)
            A = dense(op)
            np.testing.assert_allclose(model.left_vecs.T @ model.right_vecs, np.eye(model.r), atol=1e-10)
            assert np.max(np.abs(model.left_vecs.T @ A - model.eigvals[:, None] * model.left_vecs.T)) <= 1e-10

    def test_left_rows_are_the_inverse_when_nothing_is_dropped(self):
        for seed in range(12):
            op, _, _ = _random_optimal(seed, n=30, m=12, k=6)
            K = op.Q.T @ op.P
            eig = eig_nonsymmetric(K)
            assert np.all(np.abs(eig.values) > ZERO_EIG_TOL * np.abs(eig.values).max())
            W_inv = np.linalg.inv(eig.vectors)
            rows = _kept_left_rows(K, eig.values, eig.vectors)
            assert np.linalg.norm(rows - W_inv) <= 1e-12 * np.linalg.norm(W_inv)

    def test_real_eigenvalues_have_real_vectors(self):
        # the model file stores exact zeros for them, not inverse roundoff
        for seed in (8, 16):
            op, _, _ = _random_optimal(seed, n=30, m=12, k=6)
            model = build_spectral_model(op)
            real = model.eigvals.imag == 0
            assert 0 < np.sum(real) < model.r
            assert not np.any(model.right_vecs[:, real].imag) and not np.any(model.left_vecs[:, real].imag)

    def test_repeated_eigenvalues_match_factored(self):
        # Y = c X makes every eigenvalue of Q^T P equal to c: pairing left and right
        # vectors from two eigensolves is then arbitrary inside the repeated eigenspace
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 12))
        theta = rng.standard_normal(40)
        for c in (1.0, 2.0, 0.9):
            op = optimal_lowrank(SnapshotPair(X=X, Y=c * X), 5)
            model = build_spectral_model(op)
            a = simulate_operator(op, theta, 11).states
            b = simulate_spectral(model, theta, 11).states
            scale = np.abs(a[1:]).max()
            assert np.max(np.abs(a[1:] - b[1:])) <= 1e-10 * scale


def test_repeated_conjugate_pair_builds_and_matches_factored():
    # Q^T P = diag(rot, rot) repeats a + ib bit for bit; the modal form keeps each pair together.
    rot = np.array([[0.6, -0.7], [0.7, 0.6]])
    P = np.eye(20)[:, :4]
    op = FactoredOperator(P=P, Q=P @ np.kron(np.eye(2), rot).T)
    model = build_spectral_model(op)
    assert model.r == 4 and model.eigvals[0] == model.eigvals[2]
    theta = np.random.default_rng(6).standard_normal(20)
    a, b = simulate_operator(op, theta, 12).states, simulate_spectral(model, theta, 12).states
    assert np.max(np.abs(a - b)) <= 1e-12 * np.abs(a).max()


class TestWholeHorizon:
    """The latent path plus one-GEMM lift against the step-by-step loops, across the subnormal range."""

    T = 300  # at gain 1, |lambda|^t reaches the subnormal range near t = 160
    CASES = ((0, 1.0), (1, 1.0), (2, 80.0))  # (seed, gain): gain 80 keeps every lifted state above 1e-6

    def test_factored_and_reduced_match_loops(self):
        for seed, gain in self.CASES:
            op, rng = _decaying_operator(seed, gain=gain)
            theta = rng.standard_normal(op.n)
            for got, ref in (
                (simulate_operator(op, theta, self.T).states, _loop_operator(op, theta, self.T)),
                (
                    simulate_reduced(build_svd_reduced_model(op), theta, self.T).states,
                    _loop_reduced(build_svd_reduced_model(op), theta, self.T),
                ),
            ):
                np.testing.assert_array_equal(got[0], theta)
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.abs(ref).max()
                assert (np.abs(ref[-1]).max() < np.finfo(float).tiny) == (gain == 1.0)

    def test_spectral_matches_loop(self):
        for seed, gain in self.CASES:
            op, rng = _decaying_operator(seed, gain=gain)
            model = build_spectral_model(op)
            assert np.sum(np.abs(model.eigvals.imag) > 0) == 4
            theta = rng.standard_normal(op.n)
            traj = simulate_spectral(model, theta, self.T)
            ref = loop_spectral(model, theta, self.T)
            assert np.max(np.abs(traj.states - ref)) <= 1e-12 * np.abs(ref).max()

    def test_peak_memory_is_the_trajectory(self):
        # one lift GEMM writes into the output: the peak is the output plus O(nr) factors
        op, rng = _decaying_operator(4, n=4000)
        reduced, spectral = build_svd_reduced_model(op), build_spectral_model(op)
        theta = rng.standard_normal(op.n)
        for simulate, model in ((simulate_operator, op), (simulate_reduced, reduced), (simulate_spectral, spectral)):
            tracemalloc.start()
            try:
                traj = simulate(model, theta, self.T)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= traj.states.nbytes + 4 * op.n * model.r * 16, simulate.__name__

    def test_tally_counts_the_lift_and_records_no_trajectory(self):
        # The lift writes into the trajectory, so the largest array a tally records is r-space; its
        # multiply-adds are still counted, (T - 1) r n.  The spectral path starts one step ahead, at B L^T theta.
        op, rng = _decaying_operator(4, n=4000)
        n, r, T = op.n, op.r, self.T
        theta = rng.standard_normal(n)
        spectral = build_spectral_model(op)
        assert r == spectral.r == 6 and np.any(spectral.eigvals.imag)
        factors = r * n + (T - 2) * r * r + (T - 1) * (r * n + r)
        # The spectral build formed op's propagator; a fresh operator forms its own, n r^2 multiply-adds.
        cases = [
            (simulate_operator, op, factors),
            (simulate_operator, FactoredOperator(P=op.P, Q=op.Q), factors + n * r * r),
            (simulate_reduced, build_svd_reduced_model(op), factors),
            (simulate_spectral, spectral, factors + r * r),
        ]
        for simulate, model, madds in cases:
            with audit.tally() as t:
                simulate(model, theta, T)
            assert t.max_elements <= 2 * T * r, simulate.__name__
            assert t.multiply_adds == madds, simulate.__name__


class TestSimulateSpectral:
    def test_constant_unit_mode(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        model = lrdmd.SpectralModel(eigvals=np.array([1.0 + 0j]), right_vecs=e1.reshape(-1, 1), left_vecs=e1.reshape(-1, 1))
        traj = simulate_spectral(model, e1, 6)
        for t in range(6):
            np.testing.assert_allclose(traj.states[t], e1, atol=1e-14)

    def test_theta_orthogonal_to_left_vectors(self):
        op, _, rng = _random_optimal(11)
        model = build_spectral_model(op)
        # the recursion sees theta only through xi_i^T theta (plain transpose),
        # so any theta in the null space of [Re(L)^T; Im(L)^T] yields zero from t = 2 on
        L = model.left_vecs
        constraints = np.vstack([L.real.T, L.imag.T])
        _, s, Vt = np.linalg.svd(constraints)
        null_basis = Vt[np.count_nonzero(s > 1e-12 * s[0]) :].T
        theta_perp = null_basis @ rng.standard_normal(null_basis.shape[1])
        assert np.linalg.norm(L.T @ theta_perp.astype(complex)) <= 1e-10
        traj = simulate_spectral(model, theta_perp, 4)
        assert np.max(np.abs(traj.states[1:])) <= 1e-8 * max(1.0, np.linalg.norm(theta_perp))

    def test_matches_reduced(self):
        for seed in (12, 13, 14):
            op, _, rng = _random_optimal(seed)
            reduced = build_svd_reduced_model(op)
            spectral = build_spectral_model(op)
            theta = rng.standard_normal(25)
            a = simulate_reduced(reduced, theta, 11).states
            b = simulate_spectral(spectral, theta, 11).states
            scale = max(np.abs(a[1:]).max(), np.abs(b[1:]).max(), 1e-300)
            assert np.max(np.abs(a[1:] - b[1:])) <= 1e-8 * scale
            assert b.shape == (11, 25)

    def test_first_state_is_theta(self):
        op, _, rng = _random_optimal(15)
        model = build_spectral_model(op)
        theta = rng.standard_normal(25)
        traj = simulate_spectral(model, theta, 3)
        np.testing.assert_array_equal(traj.states[0], theta)

    def test_conjugate_closed_lift_is_r_columns(self):
        n = 300
        op, _, rng = _random_optimal(18, n=n, m=12, k=6)
        model = build_spectral_model(op)
        assert np.any(model.eigvals.imag != 0)
        theta = rng.standard_normal(n)
        madds = {}
        for T in (21, 41):
            with audit.tally() as t:
                simulate_spectral(model, theta, T)
            madds[T] = t.multiply_adds
        r = model.r
        assert (madds[41] - madds[21]) / 20 <= r * n + 4 * r * r

    def test_per_step_cost_linear_in_n(self):
        costs = {}
        for n in (200, 400):
            op, _, rng = _random_optimal(17, n=n, m=10, k=5)
            model = build_spectral_model(op)
            theta = rng.standard_normal(n)
            T = 21
            with audit.tally() as t:
                simulate_spectral(model, theta, T)
            costs[n] = t.multiply_adds / (T - 1)
            r = model.r
            assert costs[n] <= 3.0 * r * n
            assert costs[n] >= r * n
        assert costs[400] / costs[200] == pytest.approx(2.0, rel=0.2)


class TestFinitenessCertificate:
    """States are proved finite in r-space; only the rows the bound cannot certify are read back."""

    SIMULATORS = (simulate_operator, simulate_reduced, simulate_spectral)

    @pytest.mark.parametrize("simulate", SIMULATORS)
    def test_finite_factors_whose_product_overflows(self, simulate):
        # x_t = 10^{t-1} [1e300, 1e300]: the latent path stays below 1e150 and the basis at 1e160, yet row 9 overflows
        theta = np.full(2, 1e300)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimulationBlowup) as exc:
            simulate(_scaled_models(10.0, np.eye(2))[simulate], theta, 12)
        assert exc.value.step == 9

    @pytest.mark.parametrize("simulate", SIMULATORS)
    def test_huge_finite_states_are_checked_not_raised(self, simulate):
        theta = np.array([0.0, 5e304])
        assert 2000 * theta[1] > CERTIFIED_BOUND  # no row is certified
        traj = simulate(_scaled_models(1.0, CANCELLING)[simulate], theta, 6)
        assert np.all(np.isfinite(traj.states))
        np.testing.assert_allclose(traj.states[:, 1], theta[1], rtol=1e-12)
        assert np.max(np.abs(traj.states[:, 0])) <= 1e-12 * theta[1]

    @pytest.mark.parametrize("simulate", SIMULATORS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_theta_raises_at_row_0(self, simulate, bad):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimulationBlowup) as exc:
            simulate(_scaled_models(1.0, np.eye(2))[simulate], np.array([bad, 1.0]), 5)
        assert exc.value.step == 0

    def test_certified_rows_are_not_read_back(self, monkeypatch):
        op, _, rng = _random_optimal(19)
        theta = rng.standard_normal(op.n)
        checked = []
        check = reduced._raise_first_nonfinite

        def recording(out, rows):
            checked.extend(rows)
            check(out, rows)

        monkeypatch.setattr(reduced, "_raise_first_nonfinite", recording)
        for simulate, model in (
            (simulate_operator, op),
            (simulate_reduced, build_svd_reduced_model(op)),
            (simulate_spectral, build_spectral_model(op)),
        ):
            checked.clear()
            simulate(model, theta, 30)
            # only theta, the caller's row, is read
            assert checked == [0], simulate.__name__


def test_audit_counts_real_multiply_adds():
    a = np.ones((3, 4))
    with audit.tally() as t:
        audit.mm(a, a.T)
    assert t.multiply_adds == 3 * 4 * 3


class TestApplyOperator:
    def test_zero_and_identity(self):
        op, _, _ = _random_optimal(18)
        np.testing.assert_allclose(op.apply(np.zeros(25)), np.zeros(25), atol=0)
        I2 = np.eye(3)[:, :2]
        ident_op = FactoredOperator(P=I2, Q=I2)
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(ident_op.apply(x), [1.0, 2.0, 0.0], atol=1e-15)

    def test_matches_dense(self):
        op, _, rng = _random_optimal(19, n=60, m=15, k=6)
        A = dense(op)
        for _ in range(5):
            x = rng.standard_normal(60)
            np.testing.assert_allclose(op.apply(x), A @ x, atol=1e-10 * max(1.0, np.linalg.norm(A @ x)))


class TestRepresentationEquivalence:
    def test_three_way_agreement(self):
        for seed in range(20):
            op, _, rng = _random_optimal(seed + 100, n=40, m=12, k=5)
            reduced = build_svd_reduced_model(op)
            spectral = build_spectral_model(op)
            theta = rng.standard_normal(40)
            a = simulate_operator(op, theta, 11).states
            b = simulate_reduced(reduced, theta, 11).states
            c = simulate_spectral(spectral, theta, 11).states
            scale = max(np.abs(a[1:]).max(), 1e-300)
            assert np.max(np.abs(a[1:] - b[1:])) <= 1e-8 * scale
            assert np.max(np.abs(a[1:] - c[1:])) <= 1e-8 * scale
            assert np.max(np.abs(b[1:] - c[1:])) <= 1e-8 * scale
            np.testing.assert_array_equal(a[0], theta)
            np.testing.assert_array_equal(b[0], theta)
            np.testing.assert_array_equal(c[0], theta)
