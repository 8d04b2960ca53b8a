"""Reduced models built from a factored low-rank operator.

Two constructions, both running trajectories without ever touching an
n-by-n matrix:

* an encoder/propagator/decoder recursion (``z_1 = L^T theta``,
  ``z_t = S z_{t-1}``, ``x_t = R z_{t-1}`` for t >= 2) at O(r^2 + rn) per
  step, and
* a spectral model from the eigentriples of the operator, giving the
  O(rn)-per-step diagonal recursion
  ``x_t = sum_i zeta_i lambda_i^{t-1} (xi_i^T theta)``.

All three simulators (these two and the factored operator itself) share one
path: the whole latent path is computed first in r-space at O(T r^2), and the
n-space states are then written into the (T, n) output by one real GEMM.  A
matrix-vector product per step would re-read the n-by-r decoder for every
state it writes.  The spectral lift is real and r columns wide: an exactly
conjugate pair of modes shares the two columns ``[Re zeta, Im zeta]`` and a
mode with a real vector takes one.  The output is written once and never read
back: a bound computed in r-space proves each lifted row finite, and only the
rows it cannot certify are checked.

Note on the first construction: for ``A = P Q^T`` with orthonormal P, the
recursion that reproduces A-powers exactly is the one that encodes with Q
and decodes with P (then ``R S^{t-1} L^T = A^t``); encoding with P instead
silently projects the initial condition onto range(P).  We store the
encoder/decoder roles explicitly to keep this unambiguous.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import audit
from .errors import DiagonalisabilityWarning, InvalidInput, InvalidOperator, PairingFailure, SimulationBlowup
from .linalg import eig_nonsymmetric
from .solver import FactoredOperator

#: Eigenvalues below this fraction of the dominant modulus count as zero.
ZERO_EIG_TOL = 1e-10

#: Eigenvector-basis condition number beyond which the operator is treated
#: as numerically defective (warned, not fatal).
DEFECTIVE_COND = 1e8

#: A lifted row whose bound ``b_t = sum_j max_i |basis_ij| |path_tj|`` is at
#: most this is finite by construction: each GEMM entry is a sum of r products,
#: each at most b_t in size, so no partial sum reaches the overflow threshold.
CERTIFIED_BOUND = np.finfo(float).max / 4


@dataclass(frozen=True)
class ReducedModel:
    """Low-dimensional recursion (encoder L, propagator S, decoder R).

    Semantics: ``z_1 = L^T theta``; ``z_t = S z_{t-1}``;
    ``x_1 = theta`` and ``x_t = R z_{t-1}`` for t >= 2, so that
    ``R S^{t-1} L^T`` equals the t-th power of the underlying operator.
    """

    L: np.ndarray
    R: np.ndarray
    S: np.ndarray

    @property
    def r(self) -> int:
        return self.S.shape[0]

    @property
    def n(self) -> int:
        return self.R.shape[0]


@dataclass(frozen=True)
class SpectralModel:
    """Eigentriples (zeta_i, xi_i, lambda_i) of a low-rank operator.

    Ordered by descending |lambda|; rescaled so that ``xi_i^T zeta_i = 1``
    (plain transpose, no conjugation).  ``flags`` may contain
    "ill_conditioned_eigenbasis" when the operator is close to defective.
    """

    eigvals: np.ndarray
    right_vecs: np.ndarray
    left_vecs: np.ndarray
    flags: tuple[str, ...] = field(default=())

    @property
    def r(self) -> int:
        return self.eigvals.size

    @property
    def n(self) -> int:
        return self.right_vecs.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """States stacked row-wise: ``states[t-1]`` is the state at time t.

    A plain container.  The simulators guarantee finite states: they raise
    ``SimulationBlowup`` at the first non-finite one instead of returning.
    """

    states: np.ndarray
    max_imag_residue: float | None = None

    @property
    def T(self) -> int:
        return self.states.shape[0]


def build_svd_reduced_model(op: FactoredOperator) -> ReducedModel:
    """Reduced recursion from an optimal factored operator (encoder Q, decoder P)."""
    if not op.has_orthonormal_p():
        raise InvalidOperator("reduced model requires an operator with orthonormal P columns")
    return ReducedModel(L=op.Q.copy(), R=op.P.copy(), S=audit.mm(op.Q.T, op.P))


def _kept_left_rows(K: np.ndarray, lam: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Rows ``Y`` with ``Y W = I`` and ``Y K = diag(lam) Y`` for the eigenpairs ``(lam, W)`` of ``K``.

    In an orthonormal basis ``[U1 U2]`` with ``W = U1 R``, ``K`` is block upper
    triangular ``[[T11, T12], [0, T22]]`` and ``T22`` carries the other
    eigenvalues.  In that basis ``Y = [R^-1, Z]``, where row i of Z solves
    ``z (lam_i I - T22) = (R^-1 T12)_i``: one shifted solve per eigenvalue, and
    no inverse of the other block, which may be defective.
    """
    r = W.shape[1]
    U, R = np.linalg.qr(W, mode="complete")
    T = U.conj().T @ K @ U
    R_inv = np.linalg.inv(R[:r])
    shifted = lam[:, None, None] * np.eye(len(K) - r) - T[r:, r:]
    Z = np.linalg.solve(shifted.transpose(0, 2, 1), (R_inv @ T[:r, r:])[..., None])[..., 0]
    return R_inv @ U[:, :r].conj().T + Z @ U[:, r:].conj().T


def build_spectral_model(op: FactoredOperator) -> SpectralModel:
    """Eigentriples of ``A = P Q^T`` from one k-by-k eigensolve.

    Solves ``K W = W Lambda`` for ``K = Q^T P`` and keeps the eigenvalues above
    ``ZERO_EIG_TOL`` times the dominant modulus.  Sets ``zeta = P W`` and
    ``xi = Q W^{-T} Lambda^{-1}`` on the kept pairs, so ``xi^T zeta = I`` by
    construction, also inside a repeated eigenspace.  The left rows always
    come from the kept invariant subspace alone (``_kept_left_rows``), so a
    defective zero block among the dropped eigenvalues is never inverted.  A
    near-defective kept eigenbasis triggers a ``DiagonalisabilityWarning`` and
    a flag but still returns the model; a numerically singular one raises
    ``PairingFailure``.
    """
    z = np.zeros((op.n, 0), dtype=complex)
    empty = SpectralModel(eigvals=np.zeros(0, dtype=complex), right_vecs=z, left_vecs=z.copy())
    if op.r == 0:
        return empty
    K = audit.mm(op.Q.T, op.P)
    eig = eig_nonsymmetric(K)
    lam, W = eig.values, eig.vectors
    scale = float(np.max(np.abs(lam)))
    if scale <= 0.0:
        return empty
    keep = np.abs(lam) > ZERO_EIG_TOL * scale
    lam, W_kept = lam[keep], W[:, keep]

    flags: tuple[str, ...] = ()
    cond = np.linalg.cond(W_kept)
    if not np.isfinite(cond) or cond > DEFECTIVE_COND:
        warnings.warn(
            f"eigenvector basis condition number {cond:.3e}; operator may be defective",
            DiagonalisabilityWarning,
        )
        flags = ("ill_conditioned_eigenbasis",)
    # W has unit columns, so left row i has norm 1 / |y_i^T w_i| for the unit left
    # eigenvector y_i; a pair with |y_i^T w_i| < 1e-12 makes W numerically singular.
    try:
        W_inv = _kept_left_rows(K, lam, W_kept)
    except np.linalg.LinAlgError:
        W_inv = np.full_like(W_kept.T, np.inf)
    worst = float(np.max(np.linalg.norm(W_inv, axis=1)))
    if not worst <= 1e12:
        raise PairingFailure(f"eigenvector basis numerically singular: max 1/|y^T w| = {worst:.3e}")

    zeta = audit.mm(op.P, W_kept)
    xi = audit.mm(op.Q, W_inv.T) / lam[None, :]
    # A real eigenvalue has a real left vector; the complex inverse leaves roundoff in its imaginary part.
    xi[:, lam.imag == 0] = xi[:, lam.imag == 0].real
    return SpectralModel(eigvals=lam, right_vecs=zeta, left_vecs=xi, flags=flags)


def _checked(theta: np.ndarray, n: int, T: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if T < 1:
        raise InvalidInput(f"T must be >= 1, got {T}")
    if theta.shape != (n,):
        raise InvalidInput(f"initial condition of length {n} expected, got shape {theta.shape}")
    return theta


def _latent_path(z: np.ndarray, step, count: int) -> np.ndarray:
    """Rows ``z, step(z), step(step(z)), ...``: the first ``count`` latent states."""
    path = np.empty((count, z.size), dtype=z.dtype)
    path[:1] = z
    for t in range(1, count):
        path[t] = step(path[t - 1])
    # A decaying path passes through the subnormal range, where the few rows holding subnormal
    # entries made a whole lift up to 1.7x slower; zeroing them changes no entry by 2.3e-308 or more.
    parts = path.view(float)
    parts[np.abs(parts) < np.finfo(float).tiny] = 0.0
    return path


def _raise_first_nonfinite(out: np.ndarray, rows) -> None:
    for t in rows:
        if not np.all(np.isfinite(out[t])):
            raise SimulationBlowup(int(t))


def _lift(basis: np.ndarray, path: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[s + t] = basis @ path[t]`` for ``s = len(out) - len(path)``, by one GEMM into ``out``.

    Every row of ``out`` is then finite, or ``SimulationBlowup`` names the
    first that is not.  The first s rows are the caller's and are checked
    before the lift.  A lifted row whose r-space bound is at most
    ``CERTIFIED_BOUND`` is finite by construction; only the other rows (a
    nan or inf bound among them) are read back.
    """
    s = out.shape[0] - path.shape[0]
    _raise_first_nonfinite(out, range(s))
    audit.mm(path, basis.T, out=out[s:])
    bound = audit.mm(np.abs(path), np.max(np.abs(basis), axis=0, initial=0.0))
    _raise_first_nonfinite(out, s + np.flatnonzero(~(bound <= CERTIFIED_BOUND)))
    return out


def _simulate_factors(encoder: np.ndarray, S: np.ndarray, decoder: np.ndarray, theta, T: int) -> Trajectory:
    """``x_1 = theta`` and ``x_t = decoder S^{t-2} encoder^T theta`` for t >= 2."""
    theta = _checked(theta, decoder.shape[0], T)
    out = np.empty((T, theta.size))
    out[0] = theta
    path = _latent_path(audit.mm(encoder.T, theta), lambda z: audit.mm(S, z), T - 1)
    return Trajectory(states=_lift(decoder, path, out))


def simulate_reduced(model: ReducedModel, theta: np.ndarray, T: int) -> Trajectory:
    """Run the reduced recursion for T steps; the first state is theta itself."""
    return _simulate_factors(model.L, model.S, model.R, theta, T)


def _conjugate_groups(lam: np.ndarray, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modes with a real vector, and the other modes i each with their partner j (``r`` when there is none).

    j partners i when ``lam_j == conj(lam_i)`` and ``zeta_j == conj(zeta_i)`` exactly.
    """
    r = lam.size
    real = ~np.any(zeta.imag, axis=0)
    taken = real.copy()
    first, partner = [], []
    for i in range(r):
        if taken[i]:
            continue
        taken[i] = True
        candidates = np.flatnonzero(~taken & (lam == np.conj(lam[i])))
        j = next((j for j in candidates if np.array_equal(zeta[:, j], np.conj(zeta[:, i]))), r)
        if j < r:
            taken[j] = True
        first.append(i)
        partner.append(j)
    return np.flatnonzero(real), np.array(first, dtype=int), np.array(partner, dtype=int)


def simulate_spectral(model: SpectralModel, theta: np.ndarray, T: int) -> Trajectory:
    """Run the diagonal recursion ``x_t = sum_i zeta_i lambda_i^{t-1} xi_i^T theta``.

    O(rn) per step.  The output is ``Re(sum_i zeta_i c_i)`` for every model;
    the imaginary residue is measured, reported on the trajectory and
    discarded.  At t = 1 the formula returns theta projected onto the model's
    invariant subspace, not theta itself.
    """
    theta = _checked(theta, model.n, T)
    # c_t = lambda^{t-1} * nu by repeated products: a complex power adds imaginary roundoff.
    coeff = _latent_path(audit.mm(model.left_vecs.T, theta), lambda c: audit.scale(c, model.eigvals), T)
    zeta = model.right_vecs
    real, first, partner = _conjugate_groups(model.eigvals, zeta)
    # Real basis [Re zeta_real, Re zeta_first, Im zeta_first]; a missing partner reads as a zero coefficient.
    # For zeta_j = conj(zeta_i): Re(zeta_i c_i + zeta_j c_j) = Re zeta_i (Re c_i + Re c_j) + Im zeta_i (Im c_j - Im c_i)
    # and Im(zeta_i c_i + zeta_j c_j) = Re zeta_i (Im c_i + Im c_j) + Im zeta_i (Re c_i - Re c_j).
    re, im = (np.pad(part, ((0, 0), (0, 1))) for part in (coeff.real, coeff.imag))
    out_coeff = np.hstack([re[:, real], re[:, first] + re[:, partner], im[:, partner] - im[:, first]])
    imag_coeff = np.hstack([im[:, real], im[:, first] + im[:, partner], re[:, first] - re[:, partner]])
    basis = np.hstack([zeta.real[:, real], zeta.real[:, first], zeta.imag[:, first]])
    out = _lift(basis, out_coeff, np.empty((T, model.n)))
    # ||basis v|| = ||R v|| for the triangular factor of the basis: the residue costs O(r^2) per step.
    R = np.linalg.qr(basis, mode="r")
    re_part, im_part = audit.mm(out_coeff, R.T), audit.mm(imag_coeff, R.T)
    # The residue is a ratio, so each row is first scaled by its largest entry: the norm of a state
    # above about 1e154 would overflow.
    top = np.maximum(np.max(np.abs(re_part), axis=1, initial=0.0), np.max(np.abs(im_part), axis=1, initial=0.0))
    live = top > 0
    re_norm = np.linalg.norm(re_part[live] / top[live, None], axis=1)
    im_norm = np.linalg.norm(im_part[live] / top[live, None], axis=1)
    residue = float(np.max(im_norm / np.hypot(re_norm, im_norm), initial=0.0))
    return Trajectory(states=out, max_imag_residue=residue)


def apply_operator(op: FactoredOperator, x: np.ndarray) -> np.ndarray:
    """One application ``A x = P (Q^T x)`` at O(rn)."""
    return op.apply(x)


def simulate_operator(op: FactoredOperator, theta: np.ndarray, T: int) -> Trajectory:
    """Repeated application of the factored operator (x_1 = theta)."""
    return _simulate_factors(op.Q, audit.mm(op.Q.T, op.P), op.P, theta, T)
