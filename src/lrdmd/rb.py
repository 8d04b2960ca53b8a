"""Rayleigh-Benard convection on the unit cell, pseudo-spectral + integrating-factor RK4.

The coupled system for buoyancy b and temperature tau,

    d_t b   + v . grad b   - sigma Lap b - sigma nu d_s1 tau = 0
    d_t tau + v . grad tau -       Lap tau -  d_s1 Lap^-1 b  = 0
    v = grad_perp Lap^-1 b,

is discretised on an n1 x n2 grid of the cell [0,1)^2.  The s1 direction is
periodic.  Along s2 every field is a half-sine series, sin(pi q s2) for
q = 1..n2-1 (b, tau, v2 and the d_s1 fields), or a half-cosine series (v1 and
the d_s2 fields); the sine subspace is invariant under the dynamics.  s2 = 0
is the wall, where every sine field vanishes, so input fields are projected
onto the sine series: their s2 = 0 column is ignored and every sampled state
has an exactly zero s2 = 0 column.  Along s1 each field is its ``rfft`` half
spectrum, f1 = 0..n1/2.  Lap, Lap^-1, d_s1, d_s2 (sine to cosine) and the
forcing are diagonal multipliers on these coefficients; Lap has no zero mode
on sine modes.  The first-derivative wavenumber is zero at the s1 Nyquist
frequency, where a real field has no derivative.  Time stepping is Lawson's
integrating-factor RK4 (SIAM J. Numer. Anal. 4, 1967): the diffusion, sigma Lap
on b and Lap on tau, is integrated exactly, and RK4 steps the rest, so the
step is set by accuracy, not by diffusive stability.

Coefficients are held field-major, as (field, q, batch, f1) arrays, so each
field is one contiguous block; the batch axis is a stack of trajectories
stepped together.  Every transform is a real GEMM on the complex array viewed
as float pairs: along s2 a sine or cosine matrix on axis 1, one GEMM per field
over the whole stack (a broadcast ``np.matmul``), along s1 a real DFT matrix
on the last axis.  The s1 matrices are built once per grid from ``np.fft``
(Boyd, *Chebyshev and Fourier Spectral Methods*, 2nd ed., sections 9-11:
matrix-multiply transforms at small n), which is never called while stepping
or sampling.  The advection products are odd in s2, so they are formed only on
the n1 x (n2 - 1) interior points, and their analysis computes only the rows
q < 2 n2 / 3 and the columns f1 < n1 / 3 that the 2/3 rule keeps.  One
right-hand side is one synthesis of the stream function, b and tau with their
derivatives, and one analysis of the two advection products, each written
into buffers made once per simulate call.  In the linear (Taylor-vortex)
regime the buoyancy is analytic and shared by every trajectory: its velocity
and forcing are formed once and scaled by exp(-rate t) at each stage.

State layout: x = (b; tau), each field raveled row-major over (i1, i2), so
n = 2 * n1 * n2 (1024 for the default 16 x 32 grid).  The simulators return
(n_samples, n) for one trajectory and time-major (n_samples, N, n) for a
stack of N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, SimulationBlowup
from .linalg import _require_real

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class RBConfig:
    """Physical and numerical parameters of the convection run."""

    sigma: float = 1.0  # Prandtl number
    nu: float = 0.0  # Rayleigh number
    grid: tuple[int, int] = (16, 32)
    dt: float = 1e-4
    sample_stride: int = 100

    @property
    def n(self) -> int:
        return 2 * self.grid[0] * self.grid[1]

    def scheme(self) -> dict:
        """The discretisation this configuration runs, as recorded in dataset manifests."""
        return {
            "space": "sine series in s2 (q = 1..n2-1), rfft half spectrum in s1, transforms applied as GEMMs",
            "dealias": "2/3 rule",
            "time": "integrating-factor (Lawson) RK4, diffusion exact",
            "dt": self.dt,
            "sample_stride": self.sample_stride,
            "grid": list(self.grid),
        }


@dataclass(frozen=True)
class InitCondition:
    """Lorenz-style initial condition parameters.

    b(s, 1)   = kappa_b  sin(a_b s1) sin(pi s2)
    tau(s, 1) = kappa_t1 cos(a_t s1) sin(pi s2) - kappa_t2 sin(2 pi s2)

    The s1 wavenumbers must be integer multiples of 2 pi so the fields are
    periodic over the unit cell.
    """

    a_b: float = TWO_PI
    a_tau: float = TWO_PI
    kappa_b: float = 0.0
    kappa_tau1: float = 0.0
    kappa_tau2: float = 0.0

    def __post_init__(self):
        vals = (self.a_b, self.a_tau, self.kappa_b, self.kappa_tau1, self.kappa_tau2)
        if not all(np.isfinite(v) for v in vals):
            raise InvalidInput("initial-condition parameters must be finite")
        for name, a in (("a_b", self.a_b), ("a_tau", self.a_tau)):
            if abs(a / TWO_PI - round(a / TWO_PI)) > 1e-9:
                raise InvalidInput(f"{name}={a} is not an integer multiple of 2*pi (non-periodic in s1)")


def taylor_decay_rate(sigma: float, a_b: float) -> float:
    """Exact decay rate of the single buoyancy mode sin(a_b s1) sin(pi s2).

    The mode is a Laplacian eigenfunction with eigenvalue -(a_b^2 + pi^2) and
    its self-advection vanishes identically, so under nu = 0 the buoyancy
    decays at sigma * (a_b^2 + pi^2) for any amplitude.
    """
    return sigma * (a_b**2 + np.pi**2)


def degenerate_kappa_b(sigma: float, a_b: float) -> float:
    """Buoyancy amplitude of the linear (Taylor-vortex) regime, 1/(sigma (pi a_b)^2)."""
    return 1.0 / (sigma * (np.pi * a_b) ** 2)


def cell_mesh(grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates (S1, S2) of the n1 x n2 cell grid, s = i / n along each axis."""
    n1, n2 = grid
    if n1 < 4 or n2 < 4:
        raise InvalidInput(f"grid too small: {grid}")
    return np.meshgrid(np.arange(n1) / n1, np.arange(n2) / n2, indexing="ij")


def _pairs(C: np.ndarray) -> np.ndarray:
    """Complex (F, q, ...) coefficients as (F, q, rest) float pairs; a view of a contiguous ``C``."""
    return C.view(np.float64).reshape(C.shape[0], C.shape[1], -1)


def _s2(M: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Apply the real (rows, q) matrix ``M`` to axis 1 of complex (F, q, ...) ``C``, one GEMM per field."""
    return np.matmul(M, _pairs(C)).view(np.complex128).reshape(C.shape[:1] + (len(M),) + C.shape[2:])


def _s1(a: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Apply the real (cols, out) matrix ``M`` to the last axis of real ``a`` as one GEMM."""
    return (a.reshape(-1, a.shape[-1]) @ M).reshape(a.shape[:-1] + (M.shape[1],))


class _SineFourier:
    """Sine-Fourier coefficients and diagonal operators for one (n1, n2) cell grid.

    A coefficient array is field-major, (field, q, batch, f1): sine modes
    q = 1..n2-1 along s2 and the ``rfft`` half spectrum f1 = 0..n1/2 along s1,
    so each field's coefficients are one contiguous block.  Grid arrays are
    (field, variant, j, batch, i1) on the interior points s2 = j / n2,
    j = 1..n2-1, where the variants of ``grad_grid`` are (d_s2, d_s1).  The
    diagonal operators are (q, 1, f1) and broadcast over field and batch.
    The s1 synthesis ``synth`` is 2 (n1/2 + 1) x n1 and acts on the float
    pairs (re, im) of a half spectrum; ``synth_grad1`` stacks it with the same
    synthesis with ``d1`` folded in.  The s1 analysis ``analysis1`` is
    n1 x 2 (n1/2 + 1) and ``analysis1_dealiased`` keeps its first 2 keep_f1
    columns.
    """

    def __init__(self, grid: tuple[int, int]):
        cell_mesh(grid)  # validates the grid
        n1, n2 = grid
        self.n1, self.n2 = n1, n2
        q = np.arange(1, n2)
        f1 = np.arange(n1 // 2 + 1)
        kq = np.pi * q
        k1 = TWO_PI * f1
        self.lap = -(k1**2 + kq[:, None, None] ** 2)
        self.inv_lap = 1.0 / self.lap  # q >= 1: Lap is never zero on sine modes
        self.d1 = 1j * np.where(f1 == n1 / 2, 0.0, k1)
        self.forcing = self.d1 * self.inv_lap  # d_s1 Lap^-1
        phase = np.pi * np.outer(q, q) / n2  # (j, q) = (q, j): DST-I is symmetric
        self.sine = np.sin(phase)
        # Synthesis of d_s2 (cosine modes, pi q each) over synthesis of the sine modes.
        self.synth_grad = np.concatenate([np.cos(phase) * kq, self.sine])
        self.analysis = (2.0 / n2) * self.sine
        # 2/3 rule: the advection products keep q < 2 n2 / 3 and f1 < n1 / 3.
        self.keep_q = int(np.sum(q < 2 * n2 / 3.0))
        self.keep_f1 = int(np.sum(f1 < n1 / 3.0))
        self.analysis_dealiased = self.analysis[: self.keep_q]
        # Synthesis rows are the irfft of each unit real and unit imaginary coefficient, so the
        # imaginary rows of f1 = 0 and f1 = n1/2 are zero, as irfft ignores those parts.
        unit = np.zeros((2 * f1.size, f1.size), dtype=complex)
        unit[0::2] = np.eye(f1.size)
        unit[1::2] = 1j * np.eye(f1.size)
        self.synth = np.fft.irfft(unit, n=n1)
        self.synth_grad1 = np.stack([self.synth, np.fft.irfft(unit * self.d1, n=n1)])
        self.analysis1 = np.fft.rfft(np.eye(n1)).view(np.float64)
        self.analysis1_dealiased = np.ascontiguousarray(self.analysis1[:, : 2 * self.keep_f1])

    def from_cell(self, fields: np.ndarray) -> np.ndarray:
        """(F, N, n1, n2) cell-grid fields to coefficients (F, q, N, f1), projected onto the sine modes."""
        interior = fields[..., 1:].transpose(0, 3, 1, 2)
        return _s2(self.analysis, _s1(interior, self.analysis1).view(np.complex128))

    def to_cell(self, U: np.ndarray) -> np.ndarray:
        """Coefficients (F, q, N, f1) to (N, F * n1 * n2) cell-grid states; the s2 = 0 column is 0."""
        g = _s1(_s2(self.sine, U).view(np.float64), self.synth)
        cell = np.zeros((g.shape[2], len(g), self.n1, self.n2))
        cell[..., 1:] = g.transpose(2, 0, 3, 1)
        return cell.reshape(len(cell), -1)


class _Workspace:
    """The grid transforms of one right-hand side, in float buffers made once per simulate call.

    ``grad_grid`` synthesises ``fields`` coefficient fields of a batch, and
    ``advection`` analyses v . grad f for the last ``advected`` of them.  Each
    returns a buffer that the next call overwrites.
    """

    def __init__(self, sp: _SineFourier, fields: int, advected: int, batch: int):
        j, n1, pairs1, keep2 = sp.n2 - 1, sp.n1, sp.synth.shape[0], 2 * sp.keep_f1
        rows = j * batch
        self.sp = sp
        self.grid = np.empty((fields, 2, j, batch, n1))
        self._d2, self._d1 = self.grid[fields - advected :, 0], self.grid[fields - advected :, 1]
        # Each buffer as its GEMMs see it: one matrix per field, or per field and variant.
        s2 = np.empty(fields * 2 * rows * pairs1)
        self._s2 = s2.reshape(fields, 2 * j, batch * pairs1)
        self._s2_variants = s2.reshape(fields, 2, rows, pairs1)
        self._grid_variants = self.grid.reshape(fields, 2, rows, n1)
        self._d1_rows = self._d1.reshape(advected, rows, n1)
        # The s2 synthesis is spent once the grid is formed, so both analyses write into its front.
        s1, analysis = np.split(s2[: advected * (j + sp.keep_q) * batch * keep2], [advected * rows * keep2])
        self._s1_rows = s1.reshape(advected, rows, keep2)
        self._s1 = s1.reshape(advected, j, batch * keep2)
        self._analysis = analysis.reshape(advected, sp.keep_q, batch * keep2)
        self._advection = analysis.reshape(advected, sp.keep_q, batch, keep2)

    def grad_grid(self, U: np.ndarray) -> np.ndarray:
        """(d_s2, d_s1) of sine fields (F, q, N, f1) on the interior grid, (F, 2, j, N, n1)."""
        np.matmul(self.sp.synth_grad, _pairs(U), out=self._s2)
        # d_s1 acts on f1 alone, so it commutes with the s2 synthesis and is folded into the s1 one.
        np.matmul(self._s2_variants, self.sp.synth_grad1, out=self._grid_variants)
        return self.grid

    def advection(self, psi: np.ndarray) -> np.ndarray:
        """Dealiased float pairs (A, keep_q, N, 2 keep_f1) of v . grad f for the A advected fields f.

        f's gradients are those of the last ``grad_grid``, which the products
        overwrite.  ``psi`` is the (2, j, N, n1) ``grad_grid`` of the stream
        function psi, and v = (d_s2 psi, -d_s1 psi).
        """
        np.multiply(psi[0], self._d1, out=self._d1)
        np.multiply(psi[1], self._d2, out=self._d2)
        np.subtract(self._d1, self._d2, out=self._d1)  # d_s2 psi d_s1 f - d_s1 psi d_s2 f
        np.matmul(self._d1_rows, self.sp.analysis1_dealiased, out=self._s1_rows)
        np.matmul(self.sp.analysis_dealiased, self._s1, out=self._analysis)
        return self._advection


def _lorenz_fields(ic: InitCondition, S1: np.ndarray, S2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    b = ic.kappa_b * np.sin(ic.a_b * S1) * np.sin(np.pi * S2)
    tau = ic.kappa_tau1 * np.cos(ic.a_tau * S1) * np.sin(np.pi * S2) - ic.kappa_tau2 * np.sin(TWO_PI * S2)
    return b, tau


def lorenz_init(ic: InitCondition, grid: tuple[int, int] = (16, 32)) -> np.ndarray:
    """Stacked (b; tau) state vector of the Lorenz-style initial condition."""
    b, tau = _lorenz_fields(ic, *cell_mesh(grid))
    return np.concatenate([b.ravel(), tau.ravel()])


def split_state(x: np.ndarray, grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of the (b; tau) stacking."""
    n1, n2 = grid
    nf = n1 * n2
    if x.shape != (2 * nf,):
        raise InvalidInput(f"state of length {2 * nf} expected, got shape {x.shape}")
    return x[:nf].reshape(n1, n2), x[nf:].reshape(n1, n2)


def _as_batch(grid: tuple[int, int], *fields) -> tuple[list[np.ndarray], bool]:
    """Cell-grid fields as (N, n1, n2) stacks, and whether they came as single fields."""
    grid = tuple(grid)
    arrays = [_require_real(f, "initial fields") for f in fields]
    shape = arrays[0].shape
    if shape[-2:] != grid or len(shape) not in (2, 3) or any(a.shape != shape for a in arrays):
        raise InvalidInput(f"fields of shape {grid} or (N, *{grid}) expected, got {[a.shape for a in arrays]}")
    return [a.reshape((-1,) + grid) for a in arrays], len(shape) == 2


def _check_finite(x: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(x)):
        raise SimulationBlowup(step)


def _flush_tiny(U: np.ndarray) -> None:
    """Zero, in place, the float parts of ``U`` below 1e-290.

    Decaying high modes otherwise pass through the subnormal range, where the
    s2 GEMMs run several times slower; no state moves by more than 1e-290.
    """
    pairs = U.view(np.float64)
    pairs[np.abs(pairs) < 1e-290] = 0.0


def _integrate(cfg: RBConfig, U: np.ndarray, decay: np.ndarray, rhs, sample, n_samples: int) -> np.ndarray:
    """Lawson RK4 of ``dU/dt = decay U + rhs(U, t)``, diagonal ``decay`` exact; ``sample(U, t)`` is (N, n) states.

    ``U`` is stepped in place.  Each stage is formed on the float pairs of the
    complex coefficients, in three preallocated buffers, with the factors
    broadcast to those pairs once: a real factor scales each float part (the
    complex product numpy would form differs at most in the sign of a zero), and
    a contiguous float op skips the broadcast over the batch axis.  ``rhs`` must
    not keep its argument, a buffer that the next stage overwrites.  ``rhs`` may
    return the same buffer at every call: each stage's value is read, and
    scaled in place, before the next call.
    """
    if n_samples < 1:
        raise InvalidInput(f"n_samples must be >= 1, got {n_samples}")
    first = sample(U, 0.0)
    out = np.empty((n_samples,) + first.shape)
    out[0] = first
    del first  # copied: not held while stepping
    _check_finite(out[0], 0)
    h, t = cfg.dt, 0.0
    u = U.view(np.float64)
    E, E2 = (np.broadcast_to(np.repeat(np.exp(c * decay), 2, axis=-1), u.shape).copy() for c in (h, 0.5 * h))
    E2_twice = 2.0 * E2
    acc, arg, term = np.empty_like(u), np.empty_like(u), np.empty_like(u)
    stage = arg.view(np.complex128)
    for s in range(1, n_samples):
        for _ in range(cfg.sample_stride):
            # E k1 + 2 E2 (k2 + k3) + k4, summed as the stages come: one stage held at a time.
            k = rhs(U, t).view(np.float64)
            np.multiply(E, k, out=acc)
            np.multiply(0.5 * h, k, out=arg)
            arg += u
            arg *= E2
            k = rhs(stage, t + 0.5 * h).view(np.float64)
            acc += np.multiply(E2_twice, k, out=term)
            np.multiply(E2, u, out=arg)
            arg += np.multiply(0.5 * h, k, out=term)
            k = rhs(stage, t + 0.5 * h).view(np.float64)
            k *= E2
            acc += np.multiply(2.0, k, out=term)
            u *= E
            np.multiply(h, k, out=arg)
            arg += u
            acc += rhs(stage, t + h).view(np.float64)
            acc *= h / 6.0
            u += acc
            _flush_tiny(U)
            t += h
        out[s] = sample(U, t)
        _check_finite(out[s], s * cfg.sample_stride)
    return out


def simulate_fields(
    cfg: RBConfig,
    b0: np.ndarray,
    tau0: np.ndarray,
    n_samples: int,
) -> np.ndarray:
    """Integrate the full nonlinear system from cell-grid fields b0, tau0.

    Returns an (n_samples, n) array of states; the first row is the initial
    state, consecutive rows are ``sample_stride`` steps apart.  Stacked
    (N, n1, n2) fields are stepped together and give (n_samples, N, n).
    Raises ``SimulationBlowup`` (with the step index) if any state leaves
    the finite range.
    """
    (b0, tau0), single = _as_batch(cfg.grid, b0, tau0)
    sp = _SineFourier(cfg.grid)
    U0 = sp.from_cell(np.stack([b0, tau0]))
    # (sigma nu d_s1; d_s1 Lap^-1) multiply the (tau; b) of each mode: the coupling of b and tau.
    couple = np.stack([np.broadcast_to(cfg.sigma * cfg.nu * sp.d1, sp.forcing.shape), sp.forcing])
    couple = np.broadcast_to(couple, U0.shape).copy()  # over the batch axis once, not at every stage
    # Lap^-1 is real: it scales each float part of b, broadcast over the batch once.
    inv_lap = np.broadcast_to(np.repeat(sp.inv_lap, 2, axis=-1), U0.view(np.float64)[0].shape).copy()
    # Stream function Lap^-1 b, b and tau: the fields synthesised with their gradients.
    fields = np.empty((3,) + U0.shape[1:], dtype=complex)
    psi_pairs = fields.view(np.float64)[0]
    work = _Workspace(sp, 3, 2, U0.shape[2])
    psi = work.grid[0]
    out = np.empty_like(U0)
    dealiased = out.view(np.float64)[:, : sp.keep_q, :, : 2 * sp.keep_f1]

    def rhs(U, t):
        np.multiply(inv_lap, U.view(np.float64)[0], out=psi_pairs)
        fields[1:] = U
        work.grad_grid(fields)
        np.multiply(couple, U[::-1], out=out)  # (tau; b): the field axis reversed
        np.subtract(dealiased, work.advection(psi), out=dealiased)
        return out

    decay = np.stack([cfg.sigma * sp.lap, sp.lap])
    states = _integrate(cfg, U0, decay, rhs, lambda U, t: sp.to_cell(U), n_samples)
    return states[:, 0] if single else states


def simulate_rb(cfg: RBConfig, ic: InitCondition, n_samples: int) -> np.ndarray:
    """Nonlinear convection run from a Lorenz-style initial condition."""
    b0, tau0 = _lorenz_fields(ic, *cell_mesh(cfg.grid))
    return simulate_fields(cfg, b0, tau0, n_samples)


def analytic_buoyancy(cfg: RBConfig, ic: InitCondition, t_phys: float) -> np.ndarray:
    """Taylor-vortex buoyancy field at physical time ``t_phys``.

    Exact solution of the buoyancy equation for nu = 0: the initial mode
    decays at ``taylor_decay_rate`` (its nonlinear self-advection vanishes
    identically), so b(s, t) = kappa_b exp(-rate t) sin(a_b s1) sin(pi s2).
    """
    S1, S2 = cell_mesh(cfg.grid)
    rate = taylor_decay_rate(cfg.sigma, ic.a_b)
    return ic.kappa_b * np.exp(-rate * t_phys) * np.sin(ic.a_b * S1) * np.sin(np.pi * S2)


def simulate_linear_fields(
    cfg: RBConfig,
    ic: InitCondition,
    tau0: np.ndarray,
    n_samples: int,
) -> np.ndarray:
    """Integrate the linear (Taylor-vortex) regime: analytic b, stepped tau.

    Buoyancy is evaluated, not stepped; the tau equation is advanced with
    exact diffusion and the velocity and forcing of the analytic buoyancy at
    each stage time.  ``ic`` sets the buoyancy of every trajectory; a stack
    of (N, n1, n2) tau fields gives (n_samples, N, n), one field
    (n_samples, n).
    """
    (tau0,), single = _as_batch(cfg.grid, tau0)
    sp = _SineFourier(cfg.grid)
    rate = taylor_decay_rate(cfg.sigma, ic.a_b)
    b0 = analytic_buoyancy(cfg, ic, 0.0)
    B0 = sp.from_cell(b0[None, None])
    psi = _Workspace(sp, 1, 0, 1).grad_grid(sp.inv_lap * B0)[0]
    T0 = sp.from_cell(tau0[None])
    force = sp.forcing * B0
    work = _Workspace(sp, 1, 1, T0.shape[2])
    out = np.empty_like(T0)
    dealiased = out.view(np.float64)[:, : sp.keep_q, :, : 2 * sp.keep_f1]

    def rhs(T, t):
        np.copyto(out, force)
        work.grad_grid(T)
        np.subtract(dealiased, work.advection(psi), out=dealiased)
        np.multiply(out, np.exp(-rate * t), out=out)
        return out

    def sample(T, t):
        tau = sp.to_cell(T)
        return np.concatenate([np.broadcast_to(np.exp(-rate * t) * b0.ravel(), tau.shape), tau], axis=1)

    states = _integrate(cfg, T0, sp.lap, rhs, sample, n_samples)
    return states[:, 0] if single else states


def simulate_rb_linear(cfg: RBConfig, ic: InitCondition, n_samples: int) -> np.ndarray:
    """Linear-regime run from a Lorenz-style initial condition."""
    _, tau0 = _lorenz_fields(ic, *cell_mesh(cfg.grid))
    return simulate_linear_fields(cfg, ic, tau0, n_samples)
