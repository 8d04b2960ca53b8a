"""Rayleigh-Benard convection on the unit cell, pseudo-spectral + RK4.

The coupled system for buoyancy b and temperature tau,

    d_t b   + v . grad b   - sigma Lap b - sigma nu d_s1 tau = 0
    d_t tau + v . grad tau -       Lap tau -  d_s1 Lap^-1 b  = 0
    v = grad_perp Lap^-1 b,

is discretised on an n1 x n2 grid of the cell [0,1)^2.  The s1 direction is
periodic.  The s2 direction carries half-sine data (sin(pi s2), sin(2 pi s2),
...), which is handled by odd extension to a period-2 domain so every field
is an exact Fourier mode of the extended grid; the odd subspace is invariant
under the dynamics, so the restriction back to [0,1) is lossless.  All
derivatives and Lap^-1 are spectral (zero mode of Lap^-1 gauged to zero);
advection products are formed pointwise and 2/3-dealiased.  Time stepping is
plain explicit RK4; the default dt=1e-4 keeps |Lap|_max * dt inside the RK4
stability interval for the default grid with sigma, nu of order one.

Fields are real, so each is held as its half spectrum: ``np.fft.rfft2`` over
the last two axes of the extended grid gives n1 x (n2 + 1) coefficients, all
s1 frequencies and the non-negative s2 ones.  First-derivative wavenumbers
are zero at the two Nyquist frequencies, where a real field has no
derivative.  Leading axes are a batch of trajectories stepped together, so
one right-hand side costs one ``irfft2`` of the stacked derivative fields
and one ``rfft2`` of the stacked advection products for the whole batch.  In
the linear (Taylor-vortex) regime the buoyancy is analytic and shared by
every trajectory: its velocity and forcing are formed once and scaled by
exp(-rate t) at each RK4 stage.

State layout: x = (b; tau), each field raveled row-major over (i1, i2), so
n = 2 * n1 * n2 (1024 for the default 16 x 32 grid).  The simulators return
(n_samples, n) for one trajectory and time-major (n_samples, N, n) for a
stack of N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, SimulationBlowup

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class RBConfig:
    """Physical and numerical parameters of the convection run."""

    sigma: float = 1.0  # Prandtl number
    nu: float = 0.0  # Rayleigh number
    grid: tuple[int, int] = (16, 32)
    dt: float = 1e-4
    sample_stride: int = 100
    seed: int = 0

    @property
    def n(self) -> int:
        return 2 * self.grid[0] * self.grid[1]


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


class _Spectral:
    """Half-spectrum wavenumber grids and operator products for one (n1, n2) cell grid."""

    def __init__(self, grid: tuple[int, int]):
        n1, n2 = grid
        if n1 < 4 or n2 < 4:
            raise InvalidInput(f"grid too small: {grid}")
        self.n1, self.n2 = n1, n2
        self.shape = (n1, 2 * n2)  # odd-extended grid
        f1 = (np.fft.fftfreq(n1) * n1)[:, None]  # integer cycle counts
        f2 = (np.fft.rfftfreq(2 * n2) * (2 * n2))[None, :]
        k1 = TWO_PI * f1  # cell length 1 in s1
        k2 = np.pi * f2  # cell length 2 in s2
        self.lap = -(k1**2 + k2**2)
        inv_lap = np.divide(1.0, self.lap, out=np.zeros_like(self.lap), where=self.lap != 0.0)
        self.d1 = 1j * np.where(f1 == -n1 / 2, 0.0, k1) * np.ones_like(k2)
        d2 = 1j * np.where(f2 == n2, 0.0, k2) * np.ones_like(k1)
        # Applied to b: v1 = d_s2 Lap^-1 b, v2 = -d_s1 Lap^-1 b, d_s1 b, d_s2 b.
        self.velocity_grad = np.stack([d2 * inv_lap, -self.d1 * inv_lap, self.d1, d2])[:, None]
        self.grad = self.velocity_grad[2:]
        self.forcing = self.d1 * inv_lap  # d_s1 Lap^-1
        self.dealias = (np.abs(f1) < n1 / 3.0) & (f2 < 2 * n2 / 3.0)

    def to_grid(self, F: np.ndarray) -> np.ndarray:
        return np.fft.irfft2(F, s=self.shape)

    def extend_odd(self, f: np.ndarray) -> np.ndarray:
        n2 = self.n2
        ext = np.zeros(f.shape[:-1] + (2 * n2,))
        ext[..., :n2] = f
        ext[..., n2 + 1 :] = -f[..., :0:-1]
        return ext

    def restrict(self, fe: np.ndarray) -> np.ndarray:
        return fe[..., : self.n2]

    def mesh_extended(self) -> tuple[np.ndarray, np.ndarray]:
        s1 = np.arange(self.n1) / self.n1
        s2 = np.arange(2 * self.n2) / self.n2
        return s1[:, None] * np.ones((1, 2 * self.n2)), np.ones((self.n1, 1)) * s2[None, :]

    def mesh_cell(self) -> tuple[np.ndarray, np.ndarray]:
        s1 = np.arange(self.n1) / self.n1
        s2 = np.arange(self.n2) / self.n2
        return s1[:, None] * np.ones((1, self.n2)), np.ones((self.n1, 1)) * s2[None, :]


def _lorenz_fields(ic: InitCondition, S1: np.ndarray, S2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    b = ic.kappa_b * np.sin(ic.a_b * S1) * np.sin(np.pi * S2)
    tau = ic.kappa_tau1 * np.cos(ic.a_tau * S1) * np.sin(np.pi * S2) - ic.kappa_tau2 * np.sin(TWO_PI * S2)
    return b, tau


def lorenz_init(ic: InitCondition, grid: tuple[int, int] = (16, 32)) -> np.ndarray:
    """Stacked (b; tau) state vector of the Lorenz-style initial condition."""
    sp = _Spectral(grid)
    S1, S2 = sp.mesh_cell()
    b, tau = _lorenz_fields(ic, S1, S2)
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
    arrays = [np.asarray(f, dtype=float) for f in fields]
    shape = arrays[0].shape
    if shape[-2:] != grid or len(shape) not in (2, 3) or any(a.shape != shape for a in arrays):
        raise InvalidInput(f"fields of shape {grid} or (N, *{grid}) expected, got {[a.shape for a in arrays]}")
    return [a.reshape((-1,) + grid) for a in arrays], len(shape) == 2


def _check_finite(x: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(x)):
        raise SimulationBlowup(step)


def _integrate(cfg: RBConfig, U: np.ndarray, rhs, sample, n_samples: int) -> np.ndarray:
    """RK4 from spectral state ``U``; ``rhs(U, t)`` is its time derivative, ``sample(U, t)`` its (N, n) states."""
    if n_samples < 1:
        raise InvalidInput(f"n_samples must be >= 1, got {n_samples}")
    first = sample(U, 0.0)
    out = np.empty((n_samples,) + first.shape)
    out[0] = first
    _check_finite(out[0], 0)
    dt = cfg.dt
    step = 0
    t = 0.0
    for s in range(1, n_samples):
        for _ in range(cfg.sample_stride):
            # k1 + 2 k2 + 2 k3 + k4, summed as the stages come: one stage held at a time.
            acc = k = rhs(U, t)
            k = rhs(U + 0.5 * dt * k, t + 0.5 * dt)
            acc += 2 * k
            k = rhs(U + 0.5 * dt * k, t + 0.5 * dt)
            acc += 2 * k
            acc += rhs(U + dt * k, t + dt)
            U += (dt / 6.0) * acc
            step += 1
            t += dt
        out[s] = sample(U, t)
        _check_finite(out[s], step)
    return out


def simulate_fields(
    cfg: RBConfig,
    b0: np.ndarray,
    tau0: np.ndarray,
    n_samples: int,
) -> np.ndarray:
    """Integrate the full nonlinear system from cell-grid fields b0, tau0.

    Returns an (n_samples, n) array of states; the first row is the initial
    state, consecutive rows are ``sample_stride`` RK4 steps apart.  Stacked
    (N, n1, n2) fields are stepped together and give (n_samples, N, n).
    Raises ``SimulationBlowup`` (with the step index) if any state leaves
    the finite range.
    """
    (b0, tau0), single = _as_batch(cfg.grid, b0, tau0)
    sp = _Spectral(cfg.grid)
    diffuse_b = cfg.sigma * sp.lap
    couple = cfg.sigma * cfg.nu * sp.d1

    def rhs(U, t):
        B, T = U
        v1, v2, bx, by, tx, ty = sp.to_grid(np.concatenate([sp.velocity_grad * B, sp.grad * T]))
        adv_b, adv_t = sp.dealias * np.fft.rfft2(np.stack([v1 * bx + v2 * by, v1 * tx + v2 * ty]))
        return np.stack([diffuse_b * B + couple * T - adv_b, sp.lap * T + sp.forcing * B - adv_t])

    def sample(U, t):
        return sp.restrict(sp.to_grid(U)).swapaxes(0, 1).reshape(len(b0), -1)

    U = np.fft.rfft2(sp.extend_odd(np.stack([b0, tau0])))
    out = _integrate(cfg, U, rhs, sample, n_samples)
    return out[:, 0] if single else out


def simulate_rb(cfg: RBConfig, ic: InitCondition, n_samples: int) -> np.ndarray:
    """Nonlinear convection run from a Lorenz-style initial condition."""
    sp = _Spectral(cfg.grid)
    S1, S2 = sp.mesh_cell()
    b0, tau0 = _lorenz_fields(ic, S1, S2)
    return simulate_fields(cfg, b0, tau0, n_samples)


def analytic_buoyancy(
    cfg: RBConfig, ic: InitCondition, t_phys: float, extended: bool = False
) -> np.ndarray:
    """Taylor-vortex buoyancy field at physical time ``t_phys``.

    Exact solution of the buoyancy equation for nu = 0: the initial mode
    decays at ``taylor_decay_rate`` (its nonlinear self-advection vanishes
    identically), so b(s, t) = kappa_b exp(-rate t) sin(a_b s1) sin(pi s2).
    """
    sp = _Spectral(cfg.grid)
    S1, S2 = sp.mesh_extended() if extended else sp.mesh_cell()
    rate = taylor_decay_rate(cfg.sigma, ic.a_b)
    return ic.kappa_b * np.exp(-rate * t_phys) * np.sin(ic.a_b * S1) * np.sin(np.pi * S2)


def simulate_linear_fields(
    cfg: RBConfig,
    ic: InitCondition,
    tau0: np.ndarray,
    n_samples: int,
) -> np.ndarray:
    """Integrate the linear (Taylor-vortex) regime: analytic b, stepped tau.

    Buoyancy is evaluated, not stepped; the tau equation is advanced by RK4
    with the velocity and forcing of the analytic buoyancy at each stage
    time.  ``ic`` sets the buoyancy of every trajectory; a stack of (N, n1,
    n2) tau fields gives (n_samples, N, n), one field (n_samples, n).
    """
    (tau0,), single = _as_batch(cfg.grid, tau0)
    sp = _Spectral(cfg.grid)
    rate = taylor_decay_rate(cfg.sigma, ic.a_b)
    Bh0 = np.fft.rfft2(analytic_buoyancy(cfg, ic, 0.0, extended=True))
    v1, v2 = sp.to_grid(sp.velocity_grad[:2, 0] * Bh0)
    force = sp.forcing * Bh0
    b0 = analytic_buoyancy(cfg, ic, 0.0).ravel()

    def rhs(T, t):
        decay = np.exp(-rate * t)
        tx, ty = sp.to_grid(sp.grad * T)
        adv = sp.dealias * np.fft.rfft2(decay * (v1 * tx + v2 * ty))
        return sp.lap * T + decay * force - adv

    def sample(T, t):
        tau = sp.restrict(sp.to_grid(T)).reshape(len(T), -1)
        return np.concatenate([np.broadcast_to(np.exp(-rate * t) * b0, tau.shape), tau], axis=1)

    out = _integrate(cfg, np.fft.rfft2(sp.extend_odd(tau0)), rhs, sample, n_samples)
    return out[:, 0] if single else out


def simulate_rb_linear(cfg: RBConfig, ic: InitCondition, n_samples: int) -> np.ndarray:
    """Linear-regime run from a Lorenz-style initial condition."""
    sp = _Spectral(cfg.grid)
    S1, S2 = sp.mesh_cell()
    _, tau0 = _lorenz_fields(ic, S1, S2)
    return simulate_linear_fields(cfg, ic, tau0, n_samples)
