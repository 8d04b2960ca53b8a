"""Dense linear-algebra primitives with explicit rank and sign conventions.

Everything downstream (solvers, reduced models, benchmarks) is built on the
three operations here: thin SVD, pseudo-inverse and a small dense
nonsymmetric eigensolver.  LAPACK (via numpy) does the heavy lifting; this
module pins down the conventions LAPACK leaves open so that outputs are
reproducible run to run:

* singular values descending, singular-vector columns sign-fixed so the
  largest-magnitude entry (lowest index on ties) is non-negative;
* wide matrices (more columns than rows) factored through their transpose,
  recorded by a ``transposed`` flag;
* eigenvalues ordered by descending modulus, the member of a conjugate pair
  with positive imaginary part first, eigenvectors unit-norm and phase-fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigFailure, InvalidInput

#: Default relative cutoff for numerical rank decisions, relative to the
#: largest singular value.  Matches double-precision SVD backward error.
DEFAULT_RANK_TOL = 1e-12


def _require_matrix(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise InvalidInput(f"{name} must be 2-d with positive dimensions, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return M


def _fix_signs(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Largest-magnitude entry of each U column made non-negative; V follows.
    U = U.copy()
    V = V.copy()
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            U[:, j] = -U[:, j]
            V[:, j] = -V[:, j]
    return U, V


@dataclass(frozen=True)
class ThinSVD:
    """Thin SVD ``M = U diag(S) V^T`` of a p-by-q matrix with p >= q.

    For a wide input (p < q) the factorization is taken of the transpose and
    ``transposed`` is set; ``left``/``right`` below always refer to the
    original matrix regardless.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    transposed: bool = False

    @property
    def left(self) -> np.ndarray:
        """Left singular vectors of the original matrix."""
        return self.V if self.transposed else self.U

    @property
    def right(self) -> np.ndarray:
        """Right singular vectors of the original matrix."""
        return self.U if self.transposed else self.V

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.S) @ self.right.T


def thin_svd(M: np.ndarray) -> ThinSVD:
    """Thin SVD with descending singular values and fixed column signs.

    Deterministic for identical input bits.  Raises ``InvalidInput`` on
    non-finite entries.
    """
    M = _require_matrix(M)
    transposed = M.shape[0] < M.shape[1]
    work = M.T if transposed else M
    U, S, Vt = np.linalg.svd(work, full_matrices=False)
    U, V = _fix_signs(U, Vt.T)
    return ThinSVD(U=U, S=S, V=V, transposed=transposed)


def numerical_rank(svd: ThinSVD, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above ``rel_tol`` times the largest.

    Returns 0 for the zero matrix.
    """
    s = svd.S
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def _recip_singular(svd: ThinSVD, rel_tol: float) -> np.ndarray:
    r = numerical_rank(svd, rel_tol)
    inv = np.zeros_like(svd.S)
    inv[:r] = 1.0 / svd.S[:r]
    return inv


def pinv(svd: ThinSVD, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse ``V diag(1/sigma) U^T``.

    Singular values at or below ``rel_tol * sigma_1`` are treated as zero.
    """
    inv = _recip_singular(svd, rel_tol)
    return (svd.right * inv) @ svd.left.T


@dataclass(frozen=True)
class ComplexEigenSet:
    """Eigenpairs ordered by descending modulus, unit-norm vectors.

    ``values[i]`` goes with column ``vectors[:, i]``.  For a real source
    matrix, non-real eigenvalues appear in conjugate pairs with the positive
    imaginary part first.
    """

    values: np.ndarray
    vectors: np.ndarray


def _eig_order(values: np.ndarray) -> np.ndarray:
    # Descending |lambda|; conjugate partner with positive imag part first;
    # real part breaks remaining ties.  lexsort keys: last is primary.
    return np.lexsort((-values.imag, -values.real, -np.abs(values)))


def _fix_phase(vectors: np.ndarray) -> np.ndarray:
    vectors = vectors.copy()
    for j in range(vectors.shape[1]):
        v = vectors[:, j]
        nrm = np.linalg.norm(v)
        if nrm > 0:
            v = v / nrm
        i = int(np.argmax(np.abs(v)))
        pivot = v[i]
        if np.abs(pivot) > 0:
            v = v * (np.conj(pivot) / np.abs(pivot))
        vectors[:, j] = v
    return vectors


def eig_nonsymmetric(M: np.ndarray) -> ComplexEigenSet:
    """Full eigendecomposition of a small dense square matrix.

    Intended for the k-by-k propagator matrices (k up to a few hundred);
    raises ``EigFailure`` if the QR iteration does not converge.
    """
    M = _require_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise InvalidInput(f"matrix must be square, got shape {M.shape}")
    try:
        values, vectors = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise EigFailure(f"eigendecomposition failed: {exc}") from exc
    values = values.astype(np.complex128, copy=False)
    vectors = vectors.astype(np.complex128, copy=False)
    order = _eig_order(values)
    return ComplexEigenSet(values=values[order], vectors=_fix_phase(vectors[:, order]))
