"""Shared fixtures and oracles for the test suite.

Datasets that are expensive to generate (the convection runs) are built once
per session.  Dense materialisation of factored operators is test-only and
guarded to small n, and so are the m-by-m row-space projector and
``Z = Y P_rows(X)``, which the solver never forms.
"""

import numpy as np
import pytest

import lrdmd
from lrdmd.linalg import DEFAULT_RANK_TOL, numerical_rank, thin_svd


def dense(op: lrdmd.FactoredOperator) -> np.ndarray:
    """Materialise P Q^T for oracle checks; never used at production scale."""
    assert op.n <= 200, "dense materialisation is a test-only path for small n"
    return op.P @ op.Q.T


def row_space_projector(svd_of_X: lrdmd.ThinSVD, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of the rows of X (an m-by-m matrix)."""
    Vr = svd_of_X.right[:, : numerical_rank(svd_of_X, rel_tol)]
    return Vr @ Vr.T


def compute_Z(data: lrdmd.SnapshotPair, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """``Z = Y @ (row-space projector of X)``; same shape as Y."""
    return data.Y @ row_space_projector(thin_svd(data.X), rank_tol)


def rel_close(a: float, b: float, rtol: float, floor: float = 0.0) -> bool:
    """|a - b| <= rtol * max(|a|,|b|), treating values under ``floor`` as zero."""
    scale = max(abs(a), abs(b))
    if scale <= floor:
        return True
    return abs(a - b) <= rtol * scale


def random_instance(seed: int) -> tuple[lrdmd.SnapshotPair, int]:
    """Seeded random snapshot pair mixing full-rank and rank-deficient X/Y.

    Dimensions stay within n <= 100, m <= 40; a quarter of the draws make Y
    exactly consistent with a low-rank map so the zero-residual branch is
    exercised too.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 101))
    m = int(rng.integers(2, 41))
    kind = seed % 4
    if kind == 0:
        X = rng.standard_normal((n, m))
        Y = rng.standard_normal((n, m))
    elif kind == 1:
        rho = int(rng.integers(1, min(n, m) + 1))
        X = rng.standard_normal((n, rho)) @ rng.standard_normal((rho, m))
        Y = rng.standard_normal((n, m))
    elif kind == 2:
        rho = int(rng.integers(1, min(n, m) + 1))
        X = rng.standard_normal((n, rho)) @ rng.standard_normal((rho, m))
        G = rng.standard_normal((n, rho)) @ rng.standard_normal((rho, n))
        Y = G @ X
    else:
        rho = int(rng.integers(1, min(n, m) + 1))
        X = rng.standard_normal((n, m))
        Y = rng.standard_normal((n, rho)) @ rng.standard_normal((rho, m))
    return lrdmd.SnapshotPair(X=X, Y=Y), m


def match_multisets(a: np.ndarray, b: np.ndarray, tol: float) -> float:
    """Greedy nearest matching of two complex multisets; returns the worst distance."""
    b = list(b)
    worst = 0.0
    assert len(a) == len(b)
    for v in a:
        dists = [abs(v - w) for w in b]
        i = int(np.argmin(dists))
        worst = max(worst, dists[i])
        b.pop(i)
    assert worst <= tol, f"multiset mismatch: worst distance {worst:.3e} > {tol:.3e}"
    return worst


@pytest.fixture(scope="session")
def toy_datasets():
    return {s: lrdmd.gen_toy(lrdmd.ToyConfig(setting=s, seed=11)) for s in ("i", "ii", "iii")}


@pytest.fixture(scope="session")
def rb_datasets():
    import time

    t0 = time.perf_counter()
    data = {s: lrdmd.gen_physical(s, seed=5) for s in ("iv", "v", "vi")}
    data["gen_seconds"] = time.perf_counter() - t0
    return data


@pytest.fixture(scope="session")
def spectral_datasets():
    base, clean = lrdmd.spectral_ground_truth(seed=5)
    noisy = lrdmd.add_noise_psnr(clean, 20.0, seed=7)
    return {"base": base, "clean": clean, "noisy": noisy}
