"""Shared fixtures and oracles for the test suite.

Datasets that are expensive to generate (the convection runs) are built once
per session.  Dense materialisation of factored operators is test-only and
guarded to small n, and so are the m-by-m row-space projector and
``Z = Y P_rows(X)``, which the solver never forms.
"""

import time

import numpy as np
import pytest

import lrdmd
from lrdmd.linalg import numerical_rank, thin_svd


def dense(op: lrdmd.FactoredOperator) -> np.ndarray:
    """Materialise P Q^T for oracle checks; never used at production scale."""
    assert op.n <= 200, "dense materialisation is a test-only path for small n"
    return op.P @ op.Q.T


def loop_spectral(model, theta, T):
    """Step-by-step reference: x_1 = theta, x_t = Re(zeta c_t) for t >= 2, c_t = lambda^{t-1} xi^T theta."""
    zeta, xi = model.complex_modes()
    out = np.empty((T, model.n))
    out[0] = theta
    coeff = xi.T @ theta.astype(complex)
    for t in range(1, T):
        coeff = coeff * model.eigvals
        out[t] = (zeta @ coeff).real
    return out


def row_space_projector(svd_of_X: lrdmd.ThinSVD) -> np.ndarray:
    """Orthogonal projector onto the span of the rows of X (an m-by-m matrix)."""
    Vr = svd_of_X.V[:, : numerical_rank(svd_of_X)]
    return Vr @ Vr.T


def compute_Z(data: lrdmd.SnapshotPair) -> np.ndarray:
    """``Z = Y @ (row-space projector of X)``; same shape as Y."""
    return data.Y @ row_space_projector(thin_svd(data.X))


def projected_dmd_dense(data: lrdmd.SnapshotPair, k: int) -> np.ndarray:
    """Projected DMD at rank k as the dense ``U_X B_k S_X^+ U_X^T``, B_k the rank-k truncation of ``U_X^T Y V_X``."""
    assert data.n <= 200, "dense materialisation is a test-only path for small n"
    svd_x = thin_svd(data.X)
    r = numerical_rank(svd_x)
    inv_sx = np.zeros_like(svd_x.S)
    inv_sx[:r] = 1.0 / svd_x.S[:r]
    Ux = svd_x.U
    b = thin_svd(Ux.T @ data.Y @ svd_x.V)
    B_k = (b.U[:, :k] * b.S[:k]) @ b.V[:, :k].T
    return Ux @ (B_k * inv_sx) @ Ux.T


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
def generated():
    """``lrdmd.generate(name, seed)``, made once per session, for tests that only read the dataset.

    Tests whose subject is generation itself call ``lrdmd.generate`` or the CLI directly.  The
    seconds each dataset took to generate are kept in ``get.seconds``, whichever test asked first.
    """
    made = {}

    def get(name: str, seed: int):
        if (name, seed) not in made:
            t0 = time.perf_counter()
            made[name, seed] = lrdmd.generate(name, seed)
            get.seconds[name, seed] = time.perf_counter() - t0
        return made[name, seed]

    get.seconds = {}
    return get


@pytest.fixture(scope="session")
def toy_datasets(generated):
    return {s: generated(f"toy-{s}", 11)[0] for s in ("i", "ii", "iii")}


@pytest.fixture(scope="session")
def rb_datasets(generated):
    data = {s: generated(f"rb-{s}", 5)[0] for s in ("iv", "v", "vi")}
    data["gen_seconds"] = sum(generated.seconds[f"rb-{s}", 5] for s in ("iv", "v", "vi"))
    return data


@pytest.fixture(scope="session")
def spectral_datasets(generated):
    clean, _, base = generated("spectral-vii", 5)
    noisy = lrdmd.add_noise_psnr(clean, 20.0, seed=7)
    return {"base": base, "clean": clean, "noisy": noisy}
