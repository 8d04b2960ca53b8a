"""Rank-constrained least-squares solvers for snapshot data.

Given snapshot matrices X, Y (columns are consecutive state pairs), the
problem is ``min ||Y - A X||_F  s.t.  rank(A) <= k``.  Each method is fitted
once, by ``fit_optimal``, ``fit_truncated`` or ``fit_projected``, into one
``LowRankFit``, and every k is then read off that fit as a column prefix:

* the exact closed-form minimiser from two thin SVDs: with
  ``X = U_x S_x V_x^T`` of numerical rank r and ``C = Y V_r = U s W^T``,
  ``P_k = U[:, :k]``, ``Q_k = U_r S_r^{-1} W[:, :k] diag(s[:k])`` and
  squared error ``sum(s[k:]^2) + ||Y - C V_r^T||_F^2``,
* the two sub-optimal baselines it is benchmarked against: SVD truncation
  of the unconstrained solution ``Y X^+ = (C S_r^{-1}) U_r^T``, read from
  the SVD of C and one r-by-r SVD, and projected DMD (companion-matrix
  assumption), the truncation of ``B = U_x^T Y V_x = U_B S_B V_B^T`` with
  ``P_k = U_x U_B[:, :k]``,
* the first-order optimality residual used as an independent check.

All three methods start from the row space of X.  A ``SnapshotPair``
caches three factorisations, of X, of C and of the m-by-m B, each on first
use, and every fit of that pair (and so every single-k view and sweep) reads
them: a pair takes two tall SVDs and one n-row product ``U_x^T Y`` however
many fits read it, and a refit of any method costs O(m^2) past them.  Every
rank decision uses the one cutoff ``linalg.DEFAULT_RANK_TOL``; no function
here takes a tolerance.

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
    numerical_rank,
    thin_svd,
)


def _read_only(svd: ThinSVD) -> ThinSVD:
    for a in (svd.U, svd.S, svd.V):
        a.flags.writeable = False
    return svd


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
    change those arrays after construction.  Three factorisations are
    computed on first use and read by every fit of the pair: ``svd_x``, the
    thin SVD of X, ``svd_c``, that of ``C = Y V_r`` with Y's energy outside
    the row space of X, and ``svd_b``, that of the m-by-m
    ``B = U_x^T Y V_x``.  Their arrays are read-only, and they hold two
    n-by-r bases (U_x and C's left vectors) for the pair's lifetime.
    ``rank_x`` caches the numerical rank of X and ``norm_y`` caches
    ``||Y||_F`` the same way, so a refit reads neither X nor Y.
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
        return _read_only(thin_svd(self.X))

    @cached_property
    def rank_x(self) -> int:
        """Numerical rank of X, r: the singular values of ``svd_x`` above the rank cutoff."""
        return numerical_rank(self.svd_x)

    @cached_property
    def svd_c(self) -> tuple[ThinSVD, float]:
        """Thin SVD of ``C = Y V_r`` and ``||Y - C V_r^T||_F^2``, shared by the optimal and truncated fits.

        V_r holds the right singular vectors of X above the rank cutoff; the
        second value is Y's energy outside the row space of X.
        """
        r = self.rank_x
        Vr = self.svd_x.V[:, :r]
        C = audit.mm(self.Y, Vr)
        svd = thin_svd(C) if r else ThinSVD(U=C, S=np.zeros(0), V=np.zeros((0, 0)))
        # From the residual: ||Y||^2 - ||C||^2 cancels.
        leak = audit.mm(C, Vr.T)
        np.subtract(self.Y, leak, out=leak)
        return _read_only(svd), float(np.vdot(leak, leak))

    @cached_property
    def svd_b(self) -> ThinSVD:
        """Thin SVD of the m-by-m ``B = (U_x^T Y) V_x``, read by the projected fit."""
        svd_x = self.svd_x
        return _read_only(thin_svd(audit.mm(audit.mm(svd_x.U.T, self.Y), svd_x.V)))

    @cached_property
    def norm_y(self) -> float:
        """``||Y||_F``, the scale of the fits' rank cutoff."""
        return float(np.linalg.norm(self.Y))

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
    full-rank assumption, "nonunique_at_k" when the rank-k truncation splits
    tied singular values).
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

    def has_orthonormal_p(self) -> bool:
        g = audit.mm(self.P.T, self.P)
        return bool(np.linalg.norm(g - np.eye(self.r)) <= 1e-8 * max(1.0, self.r))


@dataclass(frozen=True)
class ErrorReport:
    """Direct and (for the optimal method) closed-form approximation errors.

    ``closed_form_error`` is the square root of the closed-form squared
    error so that it is directly comparable with ``direct_error``.
    ``closed_form_gap`` is the relative gap ``|direct^2 - closed^2| / max(1, closed^2)``
    that ``lrdmd verify`` checks against 1e-7.
    """

    direct_error: float
    normalized: float
    closed_form_error: float | None = None
    closed_form_gap: float | None = None


def _check_k(k: int, m: int) -> None:
    if not (1 <= k <= m):
        raise InvalidRank(f"k must satisfy 1 <= k <= m={m}, got {k}")


#: Relative gap ``(s[k-1] - s[k]) / s[0]`` at or below which the rank-k
#: truncation splits a (numerically) repeated singular value, so that the
#: rank-k operator is not unique and is flagged "nonunique_at_k".
TIE_RTOL = 1e-10


@dataclass(frozen=True)
class LowRankFit:
    """One method fitted to one snapshot pair, answering every rank k at once.

    Returned by all three methods (``fit_optimal``, ``fit_truncated``,
    ``fit_projected``).  The rank-k operator is the first ``min(k, rank)``
    columns of ``P = p_basis @ p_mix`` (``p_basis`` alone when ``p_mix`` is
    None) and ``Q = q_basis @ q_mix``, built per k so that it owns them alone;
    a slice view would pin the whole n-by-rank factor.  ``s`` holds the
    singular values whose prefix the fit takes (those of C, D or B), and
    ``leak_sq`` the optimal method's closed-form floor.
    """

    m: int
    rank: int
    p_basis: np.ndarray
    q_basis: np.ndarray
    q_mix: np.ndarray
    s: np.ndarray
    flags: tuple[str, ...] = ()
    leak_sq: float | None = None
    p_mix: np.ndarray | None = None

    def operator(self, k: int) -> FactoredOperator:
        """Rank-k operator; fewer columns and "rank_deficient", after the fit's own flags, when k exceeds ``rank``.

        Flagged "nonunique_at_k" when k splits singular values ``s[k-1]`` and
        ``s[k]`` that agree to ``TIE_RTOL * s[0]``.
        """
        _check_k(k, self.m)
        keep = min(k, self.rank)
        flags = self.flags + (("rank_deficient",) if keep < k else ())
        if k < self.rank and self.s[k - 1] - self.s[k] <= TIE_RTOL * self.s[0]:
            flags += ("nonunique_at_k",)
        P = self.p_basis[:, :keep].copy() if self.p_mix is None else audit.mm(self.p_basis, self.p_mix[:, :keep])
        return FactoredOperator(P=P, Q=audit.mm(self.q_basis, self.q_mix[:, :keep]), flags=flags)

    def error_sq(self, k: int) -> float | None:
        """Closed-form squared error ``sum(s[k:]^2) + leak_sq``; None for a fit without one."""
        _check_k(k, self.m)
        if self.leak_sq is None:
            return None
        return float(np.sum(self.s[k:] ** 2)) + self.leak_sq


def _degenerate_fit(data: SnapshotPair, *flags: str) -> LowRankFit:
    empty = np.zeros((data.n, 0))
    return LowRankFit(data.m, 0, empty, empty, np.zeros((0, 0)), np.zeros(0), flags=("degenerate_x", *flags))


def _rank_against_y(s: np.ndarray, data: SnapshotPair) -> int:
    """Singular values above ``DEFAULT_RANK_TOL * ||Y||_F``.

    Measured against the matrix's own largest one, pure roundoff (Y's rows
    orthogonal to the row space of X) would count.
    """
    return int(np.count_nonzero(s > DEFAULT_RANK_TOL * data.norm_y))


def fit_optimal(data: SnapshotPair) -> LowRankFit:
    """The optimum for every k from the thin SVDs of X and ``C = Y V_r``, in O(m^2 (m + n)).

    Formulas in the module docstring.  Both SVDs are the pair's cached ones,
    so a further fit of the same pair costs O(r^2).  The fit's rank counts
    the singular values of C above ``DEFAULT_RANK_TOL * ||Y||_F``.  All-zero
    X is flagged "degenerate_x" and keeps the closed form
    ``error_sq(k) = ||Y||_F^2``.
    """
    svd_x = data.svd_x
    svd_c, leak_sq = data.svd_c
    r = svd_c.S.size
    Q_mix = svd_c.V * svd_c.S / svd_x.S[:r, None]
    flags = () if r else ("degenerate_x",)
    return LowRankFit(
        data.m, _rank_against_y(svd_c.S, data), svd_c.U, svd_x.U[:, :r], Q_mix, svd_c.S, flags=flags, leak_sq=leak_sq
    )


def fit_truncated(data: SnapshotPair) -> LowRankFit:
    """SVD truncations of ``Y X^+`` for every k, from the pair's SVD of C and one r-by-r SVD.

    ``Y X^+ = D U_r^T`` with ``D = C S_r^{-1} = U_C M`` and the r-by-r
    ``M = diag(s) W^T S_r^{-1} = U_M S_D V_M^T``, so ``D = (U_C U_M) S_D V_M^T``
    and ``P_k = U_C U_M[:, :k]`` (orthonormal, a product of orthonormal
    factors) and ``Q_k = U_r V_M[:, :k] diag(S_D[:k])``.  No n-row matrix
    is factored beyond the pair's two cached SVDs.
    """
    svd_x = data.svd_x
    r = data.rank_x
    if r == 0:
        return _degenerate_fit(data)
    svd_c, _ = data.svd_c
    svd_m = thin_svd(audit.scale(svd_c.S[:, None] * svd_c.V.T, 1.0 / svd_x.S[:r]))
    return LowRankFit(
        data.m, numerical_rank(svd_m), svd_c.U, svd_x.U[:, :r], svd_m.V * svd_m.S, svd_m.S, p_mix=svd_m.U
    )


def fit_projected(data: SnapshotPair) -> LowRankFit:
    """Projected DMD for every k from the pair's thin SVDs of X and ``B = U_X^T Y V_X = U_B S_B V_B^T``.

    ``A_k = U_X B_k S_X^+ U_X^T`` for the rank-k truncation B_k of B, so
    ``P_k = U_X U_B[:, :k]`` and ``Q_k = U_X S_X^+ V_B[:, :k] diag(S_B[:k])``.
    Exact when the data admits a companion matrix (columns of A X inside the
    span of X).  Rank-deficient X falls outside the method's assumption; the
    pseudo-inverse of S_X is used there and the operators are flagged.  The
    fit's rank counts S_B against ``fit_optimal``'s cutoff.  Both SVDs are
    the pair's cached ones, so a further fit costs O(m^2).
    """
    svd_x = data.svd_x
    r = data.rank_x
    if r == 0:
        return _degenerate_fit(data, "rank_deficient_x")
    flags = ("rank_deficient_x",) if r < min(data.n, data.m) else ()
    svd_b = data.svd_b
    inv_sx = np.zeros_like(svd_x.S)
    inv_sx[:r] = 1.0 / svd_x.S[:r]
    Q_mix = inv_sx[:, None] * svd_b.V * svd_b.S
    return LowRankFit(
        data.m, _rank_against_y(svd_b.S, data), svd_x.U, svd_x.U, Q_mix, svd_b.S, flags=flags, p_mix=svd_b.U
    )


def unconstrained_solution(data: SnapshotPair) -> FactoredOperator:
    """Least-squares solution ``Y X^+``: the truncation baseline at k = m."""
    return fit_truncated(data).operator(data.m)


def optimal_lowrank(data: SnapshotPair, k: int) -> FactoredOperator:
    """Closed-form minimiser of ``||Y - A X||_F`` over rank(A) <= k.

    ``A = U_k U_k^T Y X^+``, U_k the leading left singular vectors of the
    n-by-r ``C = Y V_r = U diag(s) W^T`` (those of ``Z = Y V_r V_r^T``):
    ``P = U[:, :k]``, ``Q = U_r S_r^{-1} W[:, :k] diag(s[:k])``.  Past the
    numerical rank of C the operator has fewer columns and "rank_deficient".
    """
    return fit_optimal(data).operator(k)


def optimal_error_closed_form(data: SnapshotPair, k: int) -> float:
    """Closed-form SQUARED optimal error ``sum_{i>k} s_i^2 + ||Y (I - P_rows(X))||_F^2`` (see ``fit_optimal``)."""
    return fit_optimal(data).error_sq(k)


def truncated_baseline(data: SnapshotPair, k: int) -> FactoredOperator:
    """k-term SVD truncation of the unconstrained solution ``Y X^+`` (see ``fit_truncated``)."""
    return fit_truncated(data).operator(k)


def projected_dmd_baseline(data: SnapshotPair, k: int) -> FactoredOperator:
    """Projected-DMD approximation at rank k (see ``fit_projected``)."""
    return fit_projected(data).operator(k)


def first_order_residual(op: FactoredOperator, data: SnapshotPair) -> float:
    """Relative residual of the stationarity condition ``X Y^T P = X X^T Q``.

    Vanishes (to roundoff) whenever ``Q^T = P^T Y X^+``, which holds for the
    factors of all three methods: it certifies a stationary point, not the
    minimum.
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
    norm_y = data.norm_y
    normalized = direct / norm_y if norm_y > 0 else 0.0
    if closed_form_sq is None:
        return ErrorReport(direct_error=direct, normalized=normalized)
    return ErrorReport(
        direct_error=direct,
        normalized=normalized,
        closed_form_error=float(np.sqrt(max(closed_form_sq, 0.0))),
        closed_form_gap=abs(direct**2 - closed_form_sq) / max(1.0, closed_form_sq),
    )
