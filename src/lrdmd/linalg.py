"""Dense linear-algebra primitives with explicit rank and sign conventions.

Everything downstream (solvers, reduced models, benchmarks) is built on the
two operations here: thin SVD and a small dense nonsymmetric eigensolver.
LAPACK (via numpy) does the heavy lifting; this module pins down the
conventions LAPACK leaves open so that outputs are reproducible run to run:

* one phase rule for singular and eigen vectors: each column is scaled so
  its largest-magnitude entry (lowest index on ties) is real and
  non-negative, the right singular vectors following the left ones;
* singular values descending;
* eigenvalues ordered by descending modulus, each conjugate pair adjacent
  with its positive-imaginary member first (also for repeated pairs),
  eigenvectors the unit-norm columns LAPACK returns;
* one numerical-rank cutoff, ``DEFAULT_RANK_TOL``, for every rank decision
  in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EigFailure, InvalidInput

#: Relative cutoff for every numerical rank decision in the package, applied
#: against three scales: sigma_1(X) for rank(X) (``numerical_rank`` of X's SVD),
#: ||Y||_F for the fit ranks of C and of projected DMD's B, and sigma_1(M) for
#: the truncated fit's r-by-r M.  Matches double-precision SVD backward error.
DEFAULT_RANK_TOL = 1e-12


def _require_real(a, name: str) -> np.ndarray:
    """``a`` as a float array; complex input raises instead of being cut to its real part."""
    if np.iscomplexobj(a):
        raise InvalidInput(f"{name} must be real, got complex entries")
    return np.asarray(a, dtype=float)


def _require_matrix(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = _require_real(M, name)
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
    """Thin SVD ``M = U diag(S) V^T`` of a p-by-q matrix, with min(p, q) singular values."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def thin_svd(M: np.ndarray) -> ThinSVD:
    """Thin SVD with descending singular values and fixed column signs.

    Returns LAPACK's own U (C-contiguous), S, and V as a C-contiguous copy
    of LAPACK's Vᵀ transposed; the column signs of U and V are fixed in
    place.  Deterministic for identical input bits.  Raises ``InvalidInput``
    on non-finite or complex entries.
    """
    M = _require_matrix(M)
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    V = Vt.T.copy()
    _fix_phase(U, V)
    return ThinSVD(U=U, S=S, V=V)


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
    matrix, non-real eigenvalues appear in adjacent conjugate pairs with the
    positive imaginary part first, and a pair's vectors are conjugates.
    """

    values: np.ndarray
    vectors: np.ndarray


def _eig_order(values: np.ndarray) -> np.ndarray:
    # Descending |lambda|, then real part; among equal keys each conjugate pair (LAPACK lists it adjacent,
    # positive imaginary part first) keeps its place, so repeated pairs stay paired.  Last key is primary.
    pair = np.arange(values.size) - (values.imag < 0)
    return np.lexsort((-values.imag, pair, -values.real, -np.abs(values)))


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
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"eigendecomposition failed: {exc}") from exc
    values = values.astype(np.complex128, copy=False)
    vectors = vectors.astype(np.complex128, copy=False)
    order = _eig_order(values)
    vectors = vectors[:, order]
    _fix_phase(vectors)
    return ComplexEigenSet(values=values[order], vectors=vectors)
