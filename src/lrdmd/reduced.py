"""Reduced models built from a factored low-rank operator.

Two constructions, both running trajectories without ever touching an
n-by-n matrix:

* an encoder/propagator/decoder recursion (``z_1 = L^T theta``,
  ``z_t = S z_{t-1}``, ``x_t = R z_{t-1}`` for t >= 2) at O(r^2 + rn) per
  step, and
* a spectral model from the eigentriples of the operator, held in real
  modal form: ``x_t = R B^{t-1} L^T theta`` for t >= 2, where B is real
  block diagonal (lambda for a real mode, ``[[a, b], [-b, a]]`` for a
  conjugate pair a +- ib, whose columns of R are ``Re zeta, Im zeta``).

All three simulators (these two and the factored operator itself) run one
recursion from ``x_1 = theta``: the whole latent path is computed first in
r-space at O(T r^2), and the n-space states are then written into the (T, n)
output by one real GEMM.  A matrix-vector product per step would re-read the
n-by-r decoder for every state it writes.  The output is written once and
never read back: a bound computed in r-space proves each lifted row finite,
and only the rows it cannot certify are checked.

The first construction is the operator's own recursion: for any factors,
``R S^{t-1} L^T = P (Q^T P)^{t-1} Q^T = (P Q^T)^t``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import audit
from .errors import DiagonalisabilityWarning, InvalidInput, PairingFailure, SimulationBlowup
from .linalg import _require_real, eig_nonsymmetric
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

    def __post_init__(self):
        if any(np.iscomplexobj(M) for M in (self.L, self.R, self.S)):
            raise InvalidInput("L, R and S must be real, got complex entries")
        if self.L.ndim != 2 or self.R.shape != self.L.shape or self.S.shape != (self.L.shape[1],) * 2:
            raise InvalidInput(
                f"L and R must be n-by-r and S r-by-r, got L {self.L.shape}, R {self.R.shape}, S {self.S.shape}"
            )

    @property
    def r(self) -> int:
        return self.S.shape[0]

    @property
    def n(self) -> int:
        return self.R.shape[0]


def _conjugate_pairs(lam: np.ndarray) -> np.ndarray:
    """First index of each pair ``a + ib, a - ib`` (b > 0) of ``lam``: the modal layout, checked here alone."""
    lead = np.flatnonzero(lam.imag > 0)
    partner = lam[np.minimum(lead + 1, lam.size - 1)]
    if np.count_nonzero(lam.imag != 0) != 2 * lead.size or np.any(partner != np.conj(lam[lead])):
        raise InvalidInput("eigvals must list each complex eigenvalue a + ib (b > 0) directly before its conjugate")
    return lead


def modal_block(eigvals: np.ndarray) -> np.ndarray:
    """The real block-diagonal propagator B: lambda for a real mode, ``[[a, b], [-b, a]]`` for a pair a +- ib."""
    lead = _conjugate_pairs(eigvals)
    B = np.diag(eigvals.real)
    B[lead, lead + 1], B[lead + 1, lead] = eigvals.imag[lead], -eigvals.imag[lead]
    return B


@dataclass(frozen=True)
class SpectralModel:
    """Eigentriples (zeta_i, xi_i, lambda_i) of a low-rank operator, in real modal form.

    ``eigvals`` is complex, ordered by descending |lambda| with each
    conjugate pair adjacent and its ``b > 0`` member first.  ``right_vecs``
    R and ``left_vecs`` L are real n-by-r: a real mode's columns are zeta
    and xi, and a pair's two columns are ``Re zeta, Im zeta`` and
    ``2 Re xi, -2 Im xi``.  Then ``A R = R B``, ``L^T A = B L^T`` and
    ``L^T R = I`` for ``B = modal_block(eigvals)``; ``complex_modes`` gives
    the complex zeta and xi back.  ``flags`` may contain
    "ill_conditioned_eigenbasis" when the operator is close to defective.
    """

    eigvals: np.ndarray
    right_vecs: np.ndarray
    left_vecs: np.ndarray
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        z, x = self.right_vecs, self.left_vecs
        if self.eigvals.ndim != 1 or z.ndim != 2 or z.shape != x.shape or z.shape[1] != self.eigvals.size:
            raise InvalidInput(
                f"eigvals must have length r and zeta, xi be n-by-r, got eigvals {self.eigvals.shape}, "
                f"zeta {z.shape}, xi {x.shape}"
            )
        if np.iscomplexobj(z) or np.iscomplexobj(x):
            raise InvalidInput("zeta and xi must be real, got complex entries")
        _conjugate_pairs(self.eigvals)

    @property
    def r(self) -> int:
        return self.eigvals.size

    @property
    def n(self) -> int:
        return self.right_vecs.shape[0]

    def complex_modes(self) -> tuple[np.ndarray, np.ndarray]:
        """The complex eigenvectors (zeta, xi), n-by-r each, with ``xi^T zeta = I`` (plain transpose)."""
        lead = _conjugate_pairs(self.eigvals)
        R, L = self.right_vecs, self.left_vecs
        zeta, xi = R.astype(complex), L.astype(complex)
        zeta.imag[:, lead] = R[:, lead + 1]
        xi[:, lead] = (L[:, lead] - 1j * L[:, lead + 1]) / 2
        zeta[:, lead + 1], xi[:, lead + 1] = zeta[:, lead].conj(), xi[:, lead].conj()
        return zeta, xi


@dataclass(frozen=True)
class Trajectory:
    """States stacked row-wise: ``states[t-1]`` is the state at time t.

    A plain container.  The simulators guarantee finite states: they raise
    ``SimulationBlowup`` at the first non-finite one instead of returning.
    """

    states: np.ndarray

    @property
    def T(self) -> int:
        return self.states.shape[0]


def build_svd_reduced_model(op: FactoredOperator) -> ReducedModel:
    """The recursion of ``A = P Q^T`` (encoder Q, propagator ``Q^T P``, decoder P): the operator's own three arrays."""
    return ReducedModel(L=op.Q, R=op.P, S=op.propagator)


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
    """Eigentriples of ``A = P Q^T`` from one k-by-k eigensolve, in real modal form.

    Solves ``K W = W Lambda`` for the operator's ``propagator`` ``K = Q^T P``
    and keeps the eigenvalues above ``ZERO_EIG_TOL`` times the dominant
    modulus.  ``zeta = P W`` and ``xi = Q (Lambda^{-1} W^{-1})^T`` on the kept
    pairs, each one real GEMM of the real form of W (a pair's columns
    ``Re w, Im w``) or of the rows y of ``Lambda^{-1} W^{-1}`` (a pair's rows
    ``Re(y + y')`` and ``Re(i (y - y'))``, y' the partner row), so
    ``L^T R = I`` by construction, also inside a repeated eigenspace.  The
    left rows always come from the kept invariant subspace alone
    (``_kept_left_rows``), so a defective zero block among the dropped
    eigenvalues is never inverted.  A near-defective kept eigenbasis triggers
    a ``DiagonalisabilityWarning`` and a flag but still returns the model; a
    numerically singular one raises ``PairingFailure``.
    """
    z = np.zeros((op.n, 0))
    empty = SpectralModel(eigvals=np.zeros(0, dtype=complex), right_vecs=z, left_vecs=z.copy())
    if op.r == 0:
        return empty
    K = op.propagator
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

    lead = _conjugate_pairs(lam)
    Y = W_inv / lam[:, None]
    W_real, Y_real = W_kept.real.copy(), Y.real.copy()
    W_real[:, lead + 1] = W_kept.imag[:, lead]
    # Both rows of a pair are read: that drops the roundoff by which they are not exact conjugates.
    Y_real[lead], Y_real[lead + 1] = Y[lead].real + Y[lead + 1].real, Y[lead + 1].imag - Y[lead].imag
    return SpectralModel(lam, audit.mm(op.P, W_real), audit.mm(op.Q, Y_real.T), flags)


def _checked(theta: np.ndarray, n: int, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The initial condition as floats, and the uninitialised (T, n) output of a simulation from it."""
    theta = _require_real(theta, "initial condition")
    if T < 1:
        raise InvalidInput(f"T must be >= 1, got {T}")
    if theta.shape != (n,):
        raise InvalidInput(f"initial condition of length {n} expected, got shape {theta.shape}")
    try:
        return theta, np.empty((T, n))
    except (ValueError, MemoryError) as exc:
        raise InvalidInput(f"a {T} x {n} trajectory cannot be allocated: {exc}") from exc


def _latent_path(z: np.ndarray, step, count: int) -> np.ndarray:
    """Rows ``z, step(z), step(step(z)), ...``: the first ``count`` latent states."""
    path = np.empty((count, z.size))
    path[:1] = z
    for t in range(1, count):
        path[t] = step(path[t - 1])
    # A decaying path passes through the subnormal range, where the few rows holding subnormal
    # entries made a whole lift up to 1.7x slower; zeroing them changes no entry by 2.3e-308 or more.
    path[np.abs(path) < np.finfo(float).tiny] = 0.0
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


def _simulate_factors(encoder: np.ndarray, S: np.ndarray, decoder: np.ndarray, theta, T: int, lead: int = 0):
    """``x_1 = theta`` and ``x_t = decoder S^{t-2+lead} encoder^T theta`` for t >= 2, as a ``Trajectory``."""
    theta, out = _checked(theta, decoder.shape[0], T)
    out[0] = theta
    path = _latent_path(audit.mm(encoder.T, theta), lambda z: audit.mm(S, z), T - 1 + lead)
    return Trajectory(states=_lift(decoder, path[lead:], out))


def simulate_reduced(model: ReducedModel, theta: np.ndarray, T: int) -> Trajectory:
    """Run the reduced recursion for T steps; the first state is theta itself."""
    return _simulate_factors(model.L, model.S, model.R, theta, T)


def simulate_spectral(model: SpectralModel, theta: np.ndarray, T: int) -> Trajectory:
    """Run ``x_t = R B^{t-1} L^T theta = Re sum_i zeta_i lambda_i^{t-1} xi_i^T theta`` for T steps; ``x_1 = theta``."""
    return _simulate_factors(model.left_vecs, modal_block(model.eigvals), model.right_vecs, theta, T, lead=1)


def simulate_operator(op: FactoredOperator, theta: np.ndarray, T: int) -> Trajectory:
    """Repeated application of the factored operator (x_1 = theta), propagated by its ``propagator``."""
    return _simulate_factors(op.Q, op.propagator, op.P, theta, T)
