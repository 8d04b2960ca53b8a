"""Invariances of the optimal solver checked as properties over random shapes.

Each example draws a shape, ranks for X and Y (rank-deficient included) and
a seed; the matrices themselves come from numpy's generator on that seed.
The real modal form of a spectral model is checked the same way on drawn models.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lrdmd

from conftest import loop_spectral, projected_dmd_dense

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, database=None)


@st.composite
def snapshot_pairs(draw):
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 16))
    full = min(n, m)
    rho_x = draw(st.integers(0, full))
    rho_y = draw(st.integers(0, full))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, m))
    if rho_x < full:  # rank-deficient X, possibly the zero matrix; Y likewise below
        X = rng.standard_normal((n, rho_x)) @ rng.standard_normal((rho_x, m))
    Y = rng.standard_normal((n, rho_y)) @ rng.standard_normal((rho_y, m))
    return lrdmd.SnapshotPair(X=X, Y=Y)


def _errors_sq(data):
    fit = lrdmd.fit_optimal(data)
    return np.array([fit.error_sq(k) for k in range(1, data.m + 1)])


def _tol(data):
    return 1e-9 * max(1.0, float(np.sum(data.Y**2)))


@PROPERTY_SETTINGS
@given(snapshot_pairs())
def test_closed_form_equals_direct_error(data):
    fit = lrdmd.fit_optimal(data)
    for k in range(1, data.m + 1):
        cf_sq = fit.error_sq(k)
        direct = fit.operator(k).residual_fro(data)
        assert abs(direct**2 - cf_sq) <= 1e-7 * max(1.0, cf_sq)


@PROPERTY_SETTINGS
@given(snapshot_pairs())
def test_dominates_both_baselines(data):
    fit = lrdmd.fit_optimal(data)
    truncated, projected = lrdmd.fit_truncated(data), lrdmd.fit_projected(data)
    tol = 1e-10 * max(1.0, float(np.linalg.norm(data.Y)))
    for k in range(1, data.m + 1):
        e_opt = fit.operator(k).residual_fro(data)
        assert e_opt <= truncated.operator(k).residual_fro(data) + tol
        assert e_opt <= projected.operator(k).residual_fro(data) + tol


@PROPERTY_SETTINGS
@given(snapshot_pairs(), st.randoms(use_true_random=False))
def test_invariant_under_column_permutation(data, rnd):
    perm = list(range(data.m))
    rnd.shuffle(perm)
    permuted = lrdmd.SnapshotPair(X=data.X[:, perm], Y=data.Y[:, perm])
    np.testing.assert_allclose(_errors_sq(permuted), _errors_sq(data), rtol=0, atol=_tol(data))


@PROPERTY_SETTINGS
@given(snapshot_pairs(), st.integers(0, 2**32 - 1))
def test_invariant_under_orthogonal_change_of_coordinates(data, seed):
    O, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((data.n, data.n)))
    rotated = lrdmd.SnapshotPair(X=O @ data.X, Y=O @ data.Y)
    np.testing.assert_allclose(_errors_sq(rotated), _errors_sq(data), rtol=0, atol=_tol(data))


@PROPERTY_SETTINGS
@given(snapshot_pairs(), st.sampled_from([1e-3, 0.5, 3.0, 1e4]))
def test_error_scales_with_Y(data, c):
    scaled = lrdmd.SnapshotPair(X=data.X, Y=c * data.Y)
    np.testing.assert_allclose(_errors_sq(scaled), c**2 * _errors_sq(data), rtol=0, atol=c**2 * _tol(data))


@PROPERTY_SETTINGS
@given(snapshot_pairs())
def test_fit_prefix_equals_single_k_solve(data):
    fit = lrdmd.fit_optimal(data)
    for k in range(1, data.m + 1):
        a, b = fit.operator(k), lrdmd.optimal_lowrank(data, k)
        assert a.flags == b.flags
        np.testing.assert_array_equal(a.P, b.P)
        np.testing.assert_array_equal(a.Q, b.Q)
        assert fit.error_sq(k) == lrdmd.optimal_error_closed_form(data, k)


@PROPERTY_SETTINGS
@given(snapshot_pairs())
def test_every_method_gives_rank_k_prefix_factors(data):
    tol = 1e-10 * max(1.0, float(np.linalg.norm(data.Y)))
    for name, solve in lrdmd.SOLVERS.items():
        fit = solve(data)
        for k in range(1, data.m + 1):
            op = fit.operator(k)
            assert op.r <= k
            np.testing.assert_allclose(op.P.T @ op.P, np.eye(op.r), rtol=0, atol=1e-10)
            if name == "projected":
                np.testing.assert_allclose(op.P @ op.Q.T, projected_dmd_dense(data, k), rtol=0, atol=tol)


def _pair(n, m, rank_x, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, rank_x)) @ rng.standard_normal((rank_x, m))
    return lrdmd.SnapshotPair(X=X, Y=rng.standard_normal((n, m)))


@PROPERTY_SETTINGS
@given(snapshot_pairs())
@example(_pair(5, 12, 5, 0))  # wide X
@example(_pair(30, 10, 4, 1))  # rank-deficient X
@example(_pair(6, 14, 3, 2))  # both
def test_every_methods_full_p_is_orthonormal(data):
    # LowRankFit.residuals_fro splits Y along the full P, so every k's residual needs P^T P = I.
    for name, solve in lrdmd.SOLVERS.items():
        fit = solve(data)
        P = fit.operator(data.m).P
        assert P.shape == (data.n, fit.rank), name
        np.testing.assert_allclose(P.T @ P, np.eye(fit.rank), rtol=0, atol=1e-13, err_msg=name)


@PROPERTY_SETTINGS
@given(snapshot_pairs())
def test_sweep_cells_are_each_operators_direct_residual(data):
    ks = range(1, data.m + 1)
    curve = lrdmd.error_sweep(data, ks)
    norm_y = float(np.linalg.norm(data.Y))
    for name, solve in lrdmd.SOLVERS.items():
        fit = solve(data)
        for j, k in enumerate(ks):
            op = fit.operator(k)
            want = op.residual_fro(data) / norm_y if norm_y > 0 else 0.0
            assert abs(curve.errors[name][j] - want) <= 1e-12, (name, k)
            assert curve.flags[name][j] == ";".join(op.flags), (name, k)


@st.composite
def spectral_models(draw):
    """A conjugate-closed spectral model in canonical order, with ``L^T R = I``.

    Real modes and conjugate pairs (``b > 0`` first) are listed by
    descending |lambda|; R is random and L its biorthogonal partner.
    """
    n_real, n_pairs = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    r = n_real + 2 * n_pairs
    n = r + 1 + draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = [[complex(rng.uniform(-1.0, 1.0))] for _ in range(n_real)]
    for _ in range(n_pairs):
        mu = rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0.1, 3.0))
        modes.append([mu, np.conj(mu)])
    modes.sort(key=lambda mode: -abs(mode[0]))
    R, M = rng.standard_normal((n, r)), rng.standard_normal((n, r))
    L = M @ np.linalg.inv(M.T @ R).T
    return lrdmd.SpectralModel(eigvals=np.array(sum(modes, []), dtype=complex).reshape(r), right_vecs=R, left_vecs=L)


@PROPERTY_SETTINGS
@given(spectral_models(), st.integers(1, 25), st.integers(0, 2**32 - 1))
def test_real_spectral_lift_matches_the_complex_loop(model, T, seed):
    theta = np.random.default_rng(seed).standard_normal(model.n)
    traj = lrdmd.simulate_spectral(model, theta, T)
    ref = loop_spectral(model, theta, T)
    np.testing.assert_array_equal(traj.states[0], theta)
    assert np.max(np.abs(traj.states[1:] - ref[1:]), initial=0.0) <= 1e-12 * np.max(np.abs(ref[1:]), initial=0.0)
    # The modal form of A = sum_i zeta_i lambda_i xi_i^T: A R = R B, L^T A = B L^T and L^T R = I.
    zeta, xi = model.complex_modes()
    A = (zeta * model.eigvals) @ xi.T
    R, L, B = model.right_vecs, model.left_vecs, lrdmd.modal_block(model.eigvals)
    scale = np.linalg.norm(R) * np.linalg.norm(L)
    assert np.max(np.abs(A.imag), initial=0.0) <= 1e-12 * scale
    assert np.max(np.abs(L.T @ R - np.eye(model.r)), initial=0.0) <= 1e-12 * scale
    assert np.max(np.abs(A.real @ R - R @ B), initial=0.0) <= 1e-12 * scale * np.linalg.norm(R)
    assert np.max(np.abs(L.T @ A.real - B @ L.T), initial=0.0) <= 1e-12 * scale * np.linalg.norm(L)
