"""Invariances of the optimal solver checked as properties over random shapes.

Each example draws a shape, ranks for X and Y (rank-deficient included) and
a seed; the matrices themselves come from numpy's generator on that seed.
The real spectral lift is checked the same way on drawn spectral models.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lrdmd

from lrdmd.reduced import _conjugate_groups

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
    """A spectral model of real modes, exactly conjugate pairs and lone complex modes, in shuffled order.

    Returns the model and the width of its real lift.  With ``perturb`` the
    partner vector of the first pair is moved by one ulp, so that pair no
    longer shares two columns; with ``closed_xi`` the left vectors are
    conjugate-closed too, and the states are real up to roundoff.
    """
    n_real, n_pairs, n_lone = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 2))
    perturb, closed_xi = draw(st.booleans()) and n_pairs > 0, draw(st.booleans())
    r = n_real + 2 * n_pairs + n_lone
    n = 2 * r + 1 + draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cvec():
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def cval():
        return rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0.1, 3.0))

    lam, zeta, xi = [], [], []
    for _ in range(n_real):
        lam.append(rng.uniform(-1.0, 1.0) + 0j)
        zeta.append(rng.standard_normal(n) + 0j)
        xi.append(cvec() if not closed_xi else rng.standard_normal(n) + 0j)
    for _ in range(n_pairs):
        mu, z, w = cval(), cvec(), cvec()
        lam += [mu, np.conj(mu)]
        zeta += [z, np.conj(z)]
        xi += [w, np.conj(w) if closed_xi else cvec()]
    for _ in range(n_lone):
        lam.append(cval())
        zeta.append(cvec())
        xi.append(cvec())
    if perturb:
        partner = zeta[n_real + 1]
        partner[0] = np.nextafter(partner[0].real, np.inf) + 1j * partner[0].imag
    order = rng.permutation(r)
    model = lrdmd.SpectralModel(
        eigvals=np.array(lam, dtype=complex)[order],
        right_vecs=np.array(zeta, dtype=complex).reshape(r, n).T[:, order],
        left_vecs=np.array(xi, dtype=complex).reshape(r, n).T[:, order],
    )
    return model, n_real + 2 * (n_pairs + n_lone) + (2 if perturb else 0)


@PROPERTY_SETTINGS
@given(spectral_models(), st.integers(1, 25), st.integers(0, 2**32 - 1))
def test_real_spectral_lift_matches_the_complex_loop(drawn, T, seed):
    model, width = drawn
    real, first, _ = _conjugate_groups(model.eigvals, model.right_vecs)
    assert real.size + 2 * first.size == width
    theta = np.random.default_rng(seed).standard_normal(model.n)
    traj = lrdmd.simulate_spectral(model, theta, T)
    ref, ref_residue = loop_spectral(model, theta, T)
    assert np.max(np.abs(traj.states - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0)
    assert traj.max_imag_residue == pytest.approx(ref_residue, rel=1e-9, abs=1e-12)
