"""Reduced models built from a factored low-rank operator.

Two constructions, both running trajectories without ever touching an
n-by-n matrix:

* an encoder/propagator/decoder recursion (``z_1 = L^T theta``,
  ``z_t = S z_{t-1}``, ``x_t = R z_{t-1}`` for t >= 2) at O(r^2 + rn) per
  step, and
* a spectral model from the eigentriples of the operator, giving the
  O(rn)-per-step diagonal recursion
  ``x_t = sum_i zeta_i lambda_i^{t-1} (xi_i^T theta)``.

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

#: Left/right eigenvalue matching tolerance, relative to the dominant modulus.
PAIRING_TOL = 1e-6


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

    def operator_power_apply(self, t: int, theta: np.ndarray) -> np.ndarray:
        """``A^t theta`` through the reduced recursion (t >= 0)."""
        if t == 0:
            return np.asarray(theta, dtype=float).copy()
        z = self.L.T @ theta
        for _ in range(t - 1):
            z = self.S @ z
        return self.R @ z


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
    """Finite states stacked row-wise: ``states[t-1]`` is the state at time t."""

    states: np.ndarray
    max_imag_residue: float | None = None

    def __post_init__(self):
        # One pass of row sums: an inf or nan makes its row's sum non-finite.
        # A sum can also overflow on finite entries, so candidates are confirmed.
        with np.errstate(over="ignore", invalid="ignore"):
            sums = self.states.sum(axis=1)
        for t in np.flatnonzero(~np.isfinite(sums)):
            if not np.all(np.isfinite(self.states[t])):
                raise SimulationBlowup(int(t))

    @property
    def T(self) -> int:
        return self.states.shape[0]


def build_svd_reduced_model(op: FactoredOperator) -> ReducedModel:
    """Reduced recursion from an optimal factored operator (encoder Q, decoder P)."""
    if not op.has_orthonormal_p():
        raise InvalidOperator("reduced model requires an operator with orthonormal P columns")
    return ReducedModel(L=op.Q.copy(), R=op.P.copy(), S=op.Q.T @ op.P)


def _match_left_right(lam_r: np.ndarray, lam_l: np.ndarray) -> np.ndarray:
    """Permutation aligning the left eigensolve's spectrum with the right one."""
    from scipy.optimize import linear_sum_assignment  # its only user; the import costs ~0.7 s

    dist = np.abs(lam_r[:, None] - lam_l[None, :])
    row, col = linear_sum_assignment(dist)
    perm = np.empty_like(col)
    perm[row] = col
    scale = float(np.max(np.abs(lam_r))) if lam_r.size else 0.0
    worst = float(np.max(dist[row, col])) if lam_r.size else 0.0
    if scale > 0 and worst > PAIRING_TOL * scale:
        raise PairingFailure(
            f"left/right eigenvalue matching ambiguous: worst distance {worst:.3e} "
            f"exceeds {PAIRING_TOL:.0e} * {scale:.3e}"
        )
    return perm


def build_spectral_model(op: FactoredOperator, zero_tol: float = ZERO_EIG_TOL) -> SpectralModel:
    """Eigentriples of ``A = P Q^T`` from the two k-by-k eigenproblems.

    Solves ``(Q^T P) w^r = lambda w^r`` and ``(P^T Q) w^l = lambda w^l``,
    keeps the eigenvalues above ``zero_tol`` times the dominant modulus,
    lifts the eigenvectors to R^n and rescales the left ones so that
    ``xi^T zeta = 1``.  A near-defective eigenbasis triggers a
    ``DiagonalisabilityWarning`` and a flag but still returns the model.
    """
    k = op.r
    if k == 0:
        z = np.zeros((op.n, 0), dtype=complex)
        return SpectralModel(eigvals=np.zeros(0, dtype=complex), right_vecs=z, left_vecs=z.copy())
    M = op.Q.T @ op.P
    right = eig_nonsymmetric(M)
    left = eig_nonsymmetric(M.T)
    perm = _match_left_right(right.values, left.values)
    lam = right.values
    w_r = right.vectors
    w_l = left.vectors[:, perm]

    scale = float(np.max(np.abs(lam)))
    if scale <= 0.0:
        z = np.zeros((op.n, 0), dtype=complex)
        return SpectralModel(eigvals=np.zeros(0, dtype=complex), right_vecs=z, left_vecs=z.copy())
    keep = np.abs(lam) > zero_tol * scale
    lam, w_r, w_l = lam[keep], w_r[:, keep], w_l[:, keep]

    flags: tuple[str, ...] = ()
    cond = np.linalg.cond(right.vectors)
    if not np.isfinite(cond) or cond > DEFECTIVE_COND:
        warnings.warn(
            f"eigenvector basis condition number {cond:.3e}; operator may be defective",
            DiagonalisabilityWarning,
        )
        flags = ("ill_conditioned_eigenbasis",)

    # zeta_i = lambda^{-1} P Q^T P w^r (= P w^r for exact eigenvectors),
    # xi_i = lambda^{-1} Q w^l; all lifts cost O(nk) per vector.
    zeta = (op.P @ (M @ w_r)) / lam[None, :]
    xi = (op.Q @ w_l) / lam[None, :]
    pairing = np.sum(xi * zeta, axis=0)  # plain transpose product
    bad = np.abs(pairing) < 1e-12
    if np.any(bad):
        raise PairingFailure(
            f"left/right eigenvector pairing degenerate for eigenvalue(s) {lam[bad]}"
        )
    xi = xi / pairing[None, :]
    return SpectralModel(eigvals=lam, right_vecs=zeta, left_vecs=xi, flags=flags)


def simulate_reduced(model: ReducedModel, theta: np.ndarray, T: int) -> Trajectory:
    """Run the reduced recursion for T steps; the first state is theta itself."""
    theta = np.asarray(theta, dtype=float)
    if T < 1:
        raise InvalidInput(f"T must be >= 1, got {T}")
    if theta.shape != (model.n,):
        raise InvalidInput(f"initial condition of length {model.n} expected, got shape {theta.shape}")
    out = np.empty((T, model.n))
    out[0] = theta
    if T == 1:
        return Trajectory(states=out)
    z = audit.mm(model.L.T, theta)
    for t in range(1, T):
        out[t] = audit.mm(model.R, z)
        if t < T - 1:
            z = audit.mm(model.S, z)
    return Trajectory(states=out)


def simulate_spectral(model: SpectralModel, theta: np.ndarray, T: int) -> Trajectory:
    """Run the diagonal recursion ``x_t = sum_i zeta_i lambda_i^{t-1} xi_i^T theta``.

    O(rn) per step.  The output is real (the imaginary residue of the
    conjugate-pair sums is measured, reported on the trajectory and
    discarded).  At t = 1 the formula returns theta projected onto the
    model's invariant subspace, not theta itself.
    """
    theta = np.asarray(theta, dtype=float)
    if T < 1:
        raise InvalidInput(f"T must be >= 1, got {T}")
    if theta.shape != (model.n,):
        raise InvalidInput(f"initial condition of length {model.n} expected, got shape {theta.shape}")
    out = np.empty((T, model.n))
    nu = audit.mm(model.left_vecs.T, theta.astype(complex))
    coeff = nu.copy()
    max_residue = 0.0
    for t in range(T):
        x = audit.mm(model.right_vecs, coeff)
        nrm = float(np.linalg.norm(x))
        if nrm > 0:
            max_residue = max(max_residue, float(np.linalg.norm(x.imag)) / nrm)
        out[t] = x.real
        if t < T - 1:
            coeff = audit.scale(coeff, model.eigvals)
    return Trajectory(states=out, max_imag_residue=max_residue)


def apply_operator(op: FactoredOperator, x: np.ndarray) -> np.ndarray:
    """One application ``A x = P (Q^T x)`` at O(rn)."""
    return op.apply(x)


def simulate_operator(op: FactoredOperator, theta: np.ndarray, T: int) -> Trajectory:
    """Repeated application of the factored operator (x_1 = theta)."""
    theta = np.asarray(theta, dtype=float)
    if T < 1:
        raise InvalidInput(f"T must be >= 1, got {T}")
    out = np.empty((T, op.n))
    out[0] = theta
    for t in range(1, T):
        out[t] = op.apply(out[t - 1])
    return Trajectory(states=out)
