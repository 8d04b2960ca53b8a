"""Dense linear-algebra primitives with explicit rank and sign conventions.

Everything downstream (solvers, reduced models, benchmarks) is built on the
two operations here: thin SVD and a small dense nonsymmetric eigensolver.
LAPACK (via numpy) does the heavy lifting; this module pins down the
conventions LAPACK leaves open so that outputs are reproducible run to run:

* one phase rule for singular and eigen vectors: each column is scaled so
  its largest-magnitude entry (lowest index on ties) is real and
  non-negative, the right singular vectors following the left ones;
* singular values descending; wide matrices (more columns than rows)
  factored through their transpose, recorded by a ``transposed`` flag;
* eigenvalues ordered by descending modulus, the member of a conjugate pair
  with positive imaginary part first, eigenvectors the unit-norm columns
  LAPACK returns;
* one numerical-rank cutoff, ``DEFAULT_RANK_TOL``, for every rank decision
  in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigFailure, InvalidInput

#: Relative cutoff for every numerical rank decision in the package, relative
#: to the largest singular value.  Matches double-precision SVD backward error.
DEFAULT_RANK_TOL = 1e-12


def _require_matrix(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise InvalidInput(f"{name} must be 2-d with positive dimensions, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return M


def _fix_phase(M: np.ndarray, *followers: np.ndarray) -> None:
    """Scale the columns of M in place so each one's pivot is real and non-negative.

    The pivot is the largest-magnitude entry, lowest index on ties.  Column j
    of every follower is scaled by the same unit factor.  For real input the
    factor is exactly +1 or -1; a zero column is left alone.
    """
    # |M| written transposed: argmax over axis 0 would copy it once more to make that axis contiguous.
    pivot = M[np.abs(M.T, order="C").argmax(axis=1), np.arange(M.shape[1])]
    mag = np.abs(pivot)
    phase = np.ones_like(pivot)
    np.divide(np.conj(pivot), mag, out=phase, where=mag > 0)
    for A in (M, *followers):
        A *= phase


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
    # U is copied although LAPACK's own buffer would do: keeping that buffer raised the peak
    # RSS of a 20000x200 fit-and-simulate run by 24 MiB, through glibc's adaptive mmap threshold.
    U, V = U.copy(), Vt.T.copy()
    _fix_phase(U, V)
    return ThinSVD(U=U, S=S, V=V, transposed=transposed)


def numerical_rank(svd: ThinSVD) -> int:
    """Number of singular values above ``DEFAULT_RANK_TOL`` times the largest.

    Returns 0 for the zero matrix.
    """
    s = svd.S
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > DEFAULT_RANK_TOL * s[0]))


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
    vectors = vectors[:, order]
    _fix_phase(vectors)
    return ComplexEigenSet(values=values[order], vectors=vectors)
