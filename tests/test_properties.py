"""Invariances of the optimal solver checked as properties over random shapes.

Each example draws a shape, ranks for X and Y (rank-deficient included) and
a seed; the matrices themselves come from numpy's generator on that seed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import lrdmd

from conftest import projected_dmd_dense

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
