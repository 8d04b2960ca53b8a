"""Rank-constrained least-squares solvers for snapshot data.

Given snapshot matrices X, Y (columns are consecutive state pairs), the
problem is ``min ||Y - A X||_F  s.t.  rank(A) <= k``.  Each method is fitted
once (``fit_optimal``, ``fit_truncated``, ``fit_projected``) and every k is
then read off the fit as a column prefix:

* the exact closed-form minimiser from two thin SVDs: with
  ``X = U_x S_x V_x^T`` of numerical rank r and ``C = Y V_r = U s W^T``,
  ``P_k = U[:, :k]``, ``Q_k = U_r S_r^{-1} W[:, :k] diag(s[:k])`` and
  squared error ``sum(s[k:]^2) + ||Y - C V_r^T||_F^2``,
* the two sub-optimal baselines it is benchmarked against: SVD truncation
  of the unconstrained solution ``Y X^+ = (Y V_r S_r^{-1}) U_r^T``, the same
  computation on C rescaled by ``S_r^{-1}``, and projected DMD
  (companion-matrix assumption),
* the first-order optimality residual used as an independent check.

All three methods start from the row space of X.  A ``SnapshotPair``
factors X once, on first use, and every fit of that pair (and so every
single-k view and sweep) reads that one SVD.

All operators are returned in factored form ``A = P Q^T`` with
``P, Q in R^{n x r}``; nothing here ever materialises an n-by-n array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import audit
from .errors import InvalidInput, InvalidRank
from .linalg import (
    DEFAULT_RANK_TOL,
    ThinSVD,
    _recip_singular,
    numerical_rank,
    thin_svd,
)


@dataclass(frozen=True)
class SnapshotPair:
    """Snapshot matrices X, Y (n states by m snapshots) plus trajectory layout.

    Column j of Y is the one-step image of column j of X.  ``n_traj`` and
    ``traj_len`` record how the columns were assembled from trajectories
    (m = n_traj * (traj_len - 1)); they are optional for bare matrix pairs
    but required by the noise model, which must corrupt a snapshot shared
    between X and Y consistently.

    A pair does not copy its arrays: X and Y are read-only views of the
    arrays passed in (float input is not converted), so the caller must not
    change those arrays after construction.  ``svd_x``, the thin SVD of X,
    is computed on first use and read by every fit of the pair.
    """

    X: np.ndarray
    Y: np.ndarray
    n_traj: int | None = None
    traj_len: int | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 2 or X.shape != Y.shape:
            raise InvalidInput(f"X and Y must be matrices of identical shape, got {X.shape} vs {Y.shape}")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise InvalidInput("snapshot matrices contain non-finite entries")
        if self.n_traj is not None and self.traj_len is not None:
            if self.n_traj * (self.traj_len - 1) != X.shape[1]:
                raise InvalidInput(
                    f"m={X.shape[1]} inconsistent with {self.n_traj} trajectories of length {self.traj_len}"
                )
        for name, M in (("X", X), ("Y", Y)):
            view = M.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @cached_property
    def svd_x(self) -> ThinSVD:
        """Thin SVD of X, shared by every fit of this pair."""
        return thin_svd(self.X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @classmethod
    def from_trajectories(cls, trajectories: list[np.ndarray]) -> "SnapshotPair":
        """Assemble X, Y from trajectories given as (T, n) arrays."""
        if not trajectories:
            raise InvalidInput("need at least one trajectory")
        T = trajectories[0].shape[0]
        if any(tr.shape != trajectories[0].shape for tr in trajectories):
            raise InvalidInput("trajectories must share a common shape")
        if T < 2:
            raise InvalidInput("trajectories must contain at least two snapshots")
        X = np.hstack([tr[:-1].T for tr in trajectories])
        Y = np.hstack([tr[1:].T for tr in trajectories])
        return cls(X=X, Y=Y, n_traj=len(trajectories), traj_len=T)


@dataclass(frozen=True)
class FactoredOperator:
    """Rank-r linear operator stored as ``A = P Q^T``, never densified.

    ``flags`` records solver-side caveats ("rank_deficient" when the
    requested rank exceeded the data's numerical rank, "degenerate_x" for
    all-zero X, "rank_deficient_x" when projected DMD ran outside its
    full-rank assumption).
    """

    P: np.ndarray
    Q: np.ndarray
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.P.ndim != 2 or self.Q.ndim != 2 or self.P.shape != self.Q.shape:
            raise InvalidInput(f"P and Q must be n-by-r with equal shapes, got {self.P.shape} vs {self.Q.shape}")

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def r(self) -> int:
        return self.P.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``A x`` at O(rn) cost."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InvalidInput(f"vector of length {self.n} expected, got shape {x.shape}")
        return audit.mm(self.P, audit.mm(self.Q.T, x))

    def apply_matrix(self, X: np.ndarray) -> np.ndarray:
        """``A X`` columnwise, O(rnm)."""
        return audit.mm(self.P, audit.mm(self.Q.T, X))

    def residual_fro(self, data: SnapshotPair) -> float:
        """``||Y - A X||_F`` computed from the factors."""
        return float(np.linalg.norm(data.Y - self.apply_matrix(data.X)))

    def fro_norm(self) -> float:
        """``||A||_F`` from the factors via trace(P^T P Q^T Q)."""
        g = float(np.sum((self.P.T @ self.P) * (self.Q.T @ self.Q)))
        return float(np.sqrt(max(g, 0.0)))

    def has_orthonormal_p(self, tol: float = 1e-8) -> bool:
        g = self.P.T @ self.P
        return bool(np.linalg.norm(g - np.eye(self.r)) <= tol * max(1.0, self.r))


@dataclass(frozen=True)
class ErrorReport:
    """Direct and (for the optimal method) closed-form approximation errors.

    ``closed_form_error`` is the square root of the closed-form squared
    error so that it is directly comparable with ``direct_error``.
    """

    direct_error: float
    normalized: float
    closed_form_error: float | None = None
    closed_form_gap: float | None = None


def _check_k(k: int, m: int) -> None:
    if not (1 <= k <= m):
        raise InvalidRank(f"k must satisfy 1 <= k <= m={m}, got {k}")


@dataclass(frozen=True)
class LowRankFit:
    """One method fitted to one snapshot pair, answering every rank k at once.

    The rank-k operator is the first ``min(k, rank)`` columns of
    ``P = p_basis`` and ``Q = q_basis @ q_mix``, built per k so that it owns
    them alone; a slice view would pin the whole n-by-rank factor.  ``s``,
    ``leak_sq``: the optimal method's closed form.
    """

    m: int
    rank: int
    p_basis: np.ndarray
    q_basis: np.ndarray
    q_mix: np.ndarray
    flags: tuple[str, ...] = ()
    s: np.ndarray | None = None
    leak_sq: float | None = None

    def operator(self, k: int) -> FactoredOperator:
        """Rank-k operator; fewer columns and "rank_deficient" when k exceeds ``rank``."""
        _check_k(k, self.m)
        keep = min(k, self.rank)
        flags = self.flags or (("rank_deficient",) if keep < k else ())
        P = self.p_basis[:, :keep].copy()
        return FactoredOperator(P=P, Q=audit.mm(self.q_basis, self.q_mix[:, :keep]), flags=flags)

    def error_sq(self, k: int) -> float:
        """Closed-form squared error ``sum(s[k:]^2) + leak_sq`` (optimal fits only)."""
        _check_k(k, self.m)
        return float(np.sum(self.s[k:] ** 2)) + self.leak_sq


def fit_optimal(data: SnapshotPair, rank_tol: float = DEFAULT_RANK_TOL) -> LowRankFit:
    """The optimum for every k from the thin SVDs of X and ``C = Y V_r``, in O(m^2 (m + n)).

    Formulas in the module docstring.  The fit's rank counts the singular
    values of C above ``rank_tol * ||Y||_F``: measured against C's own largest
    one, pure roundoff (Y's rows orthogonal to the row space of X) would count.
    """
    svd_x = data.svd_x
    r = numerical_rank(svd_x, rank_tol)
    Vr = svd_x.right[:, :r]
    C = audit.mm(data.Y, Vr)
    svd_c = thin_svd(C) if r else ThinSVD(U=C, S=np.zeros(0), V=np.zeros((0, 0)))
    # Y's energy outside the row space of X, from the residual: ||Y||^2 - ||C||^2 cancels.
    leak = audit.mm(C, Vr.T)
    np.subtract(data.Y, leak, out=leak)
    Q_mix = svd_c.right * svd_c.S / svd_x.S[:r, None]
    rank = int(np.count_nonzero(svd_c.S > rank_tol * np.linalg.norm(data.Y)))
    return LowRankFit(data.m, rank, svd_c.left, svd_x.left[:, :r], Q_mix, s=svd_c.S, leak_sq=float(np.vdot(leak, leak)))


def fit_truncated(data: SnapshotPair, rank_tol: float = DEFAULT_RANK_TOL) -> LowRankFit:
    """SVD truncations of ``Y X^+`` for every k: ``fit_optimal``'s route on ``D = Y V_r S_r^{-1}``.

    ``Y X^+ = D U_r^T`` and U_r is orthonormal, so the thin SVD
    ``D = U_D S_D V_D^T`` gives ``P_k = U_D[:, :k]`` and
    ``Q_k = U_r V_D[:, :k] diag(S_D[:k])``; Y itself is never factored.
    """
    if not (np.any(data.X) and np.any(data.Y)):
        empty = np.zeros((data.n, 0))
        return LowRankFit(data.m, 0, empty, empty, np.zeros((0, 0)), flags=("degenerate_x",))
    svd_x = data.svd_x
    r = numerical_rank(svd_x, rank_tol)
    svd_d = thin_svd(audit.scale(audit.mm(data.Y, svd_x.right[:, :r]), 1.0 / svd_x.S[:r]))
    return LowRankFit(data.m, numerical_rank(svd_d, rank_tol), svd_d.left, svd_x.left[:, :r], svd_d.right * svd_d.S)


@dataclass(frozen=True)
class ProjectedFit:
    """Projected DMD for every k: ``P = U_X`` whole and ``Q_k = U_X S_X^+ B_k^T``, B_k from the SVD of B."""

    m: int
    Ux: np.ndarray
    inv_sx: np.ndarray  # S_X^+
    svd_b: ThinSVD
    flags: tuple[str, ...] = ()

    def operator(self, k: int) -> FactoredOperator:
        _check_k(k, self.m)
        b, keep = self.svd_b, min(k, self.svd_b.S.size)
        B_trunc = (b.left[:, :keep] * b.S[:keep]) @ b.right[:, :keep].T
        return FactoredOperator(P=self.Ux, Q=audit.mm(self.Ux, self.inv_sx[:, None] * B_trunc.T), flags=self.flags)


def fit_projected(data: SnapshotPair, rank_tol: float = DEFAULT_RANK_TOL) -> ProjectedFit:
    """Fit projected DMD once: thin SVDs of X and of ``B = U_X^T Y V_X``.

    Exact when the data admits a companion matrix (columns of A X inside the
    span of X).  Rank-deficient X falls outside the method's assumption; the
    pseudo-inverse of S_X is used there and the operators are flagged.
    """
    if not np.any(data.X):
        no_b = ThinSVD(U=np.zeros((0, 0)), S=np.zeros(0), V=np.zeros((0, 0)))
        return ProjectedFit(data.m, np.zeros((data.n, 0)), np.zeros(0), no_b, ("degenerate_x", "rank_deficient_x"))
    svd_x = data.svd_x
    flags = ("rank_deficient_x",) if numerical_rank(svd_x, rank_tol) < min(data.n, data.m) else ()
    B = audit.mm(audit.mm(svd_x.left.T, data.Y), svd_x.right)
    return ProjectedFit(data.m, svd_x.left, _recip_singular(svd_x, rank_tol), thin_svd(B), flags)


def unconstrained_solution(data: SnapshotPair, rank_tol: float = DEFAULT_RANK_TOL) -> FactoredOperator:
    """Least-squares solution ``Y X^+``: the truncation baseline at k = m."""
    return fit_truncated(data, rank_tol).operator(data.m)


def optimal_lowrank(data: SnapshotPair, k: int, rank_tol: float = DEFAULT_RANK_TOL) -> FactoredOperator:
    """Closed-form minimiser of ``||Y - A X||_F`` over rank(A) <= k.

    ``A = U_k U_k^T Y X^+``, U_k the leading left singular vectors of the
    n-by-r ``C = Y V_r = U diag(s) W^T`` (those of ``Z = Y V_r V_r^T``):
    ``P = U[:, :k]``, ``Q = U_r S_r^{-1} W[:, :k] diag(s[:k])``.  Past the
    numerical rank of C the operator has fewer columns and "rank_deficient".
    """
    return fit_optimal(data, rank_tol).operator(k)


def optimal_error_closed_form(data: SnapshotPair, k: int, rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Closed-form SQUARED optimal error ``sum_{i>k} s_i^2 + ||Y (I - P_rows(X))||_F^2`` (see ``fit_optimal``)."""
    return fit_optimal(data, rank_tol).error_sq(k)


def truncated_baseline(data: SnapshotPair, k: int, rank_tol: float = DEFAULT_RANK_TOL) -> FactoredOperator:
    """k-term SVD truncation of the unconstrained solution ``Y X^+`` (see ``fit_truncated``)."""
    return fit_truncated(data, rank_tol).operator(k)


def projected_dmd_baseline(data: SnapshotPair, k: int, rank_tol: float = DEFAULT_RANK_TOL) -> FactoredOperator:
    """Projected-DMD approximation at rank k (see ``fit_projected``)."""
    return fit_projected(data, rank_tol).operator(k)


def first_order_residual(op: FactoredOperator, data: SnapshotPair) -> float:
    """Relative residual of the stationarity condition ``X Y^T P = X X^T Q``.

    Vanishes (to roundoff) for the optimal solver's output; generically
    order-one for the sub-optimal baselines on rank-deficient data.
    """
    lhs = audit.mm(data.X, audit.mm(data.Y.T, op.P))
    rhs = audit.mm(data.X, audit.mm(data.X.T, op.Q))
    denom = float(np.linalg.norm(lhs))
    if denom == 0.0:
        return 0.0 if float(np.linalg.norm(rhs)) == 0.0 else np.inf
    return float(np.linalg.norm(lhs - rhs)) / denom


def error_report(
    op: FactoredOperator,
    data: SnapshotPair,
    closed_form_sq: float | None = None,
) -> ErrorReport:
    """Direct residual of an operator on the data, optionally with the closed form."""
    direct = op.residual_fro(data)
    norm_y = float(np.linalg.norm(data.Y))
    normalized = direct / norm_y if norm_y > 0 else 0.0
    if closed_form_sq is None:
        return ErrorReport(direct_error=direct, normalized=normalized)
    cf = float(np.sqrt(max(closed_form_sq, 0.0)))
    return ErrorReport(
        direct_error=direct,
        normalized=normalized,
        closed_form_error=cf,
        closed_form_gap=abs(direct - cf),
    )
