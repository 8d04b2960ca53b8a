"""Benchmark dataset generators and error-versus-rank sweeps.

Eight dataset families: three synthetic toy settings (companion-compatible
linear, plain linear, cubic), three Rayleigh-Benard settings (one-step
linear, long linear, long nonlinear), and the exact-rank-3 spectral pair
(noiseless / 20 dB Gaussian noise).  All generators are deterministic in
(config, seed); randomness comes from a named generator (numpy PCG64 with
ziggurat normals) recorded in dataset manifests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import InvalidInput, LrdmdError
from .linalg import numerical_rank, thin_svd
from .rb import (
    RBConfig,
    InitCondition,
    TWO_PI,
    _lorenz_fields,
    cell_mesh,
    degenerate_kappa_b,
    simulate_fields,
    simulate_linear_fields,
)
from .reduced import SpectralModel, build_spectral_model, simulate_spectral
from .solver import SnapshotPair, _report, fit_optimal, fit_projected, fit_truncated, optimal_lowrank

RNG_NAME = "numpy-pcg64/standard_normal"

#: Dataset names ``generate`` accepts: toy i-iii, Rayleigh-Benard iv-vi, spectral vii-viii.
GENERATORS = ("toy-i", "toy-ii", "toy-iii", "rb-iv", "rb-v", "rb-vi", "spectral-vii", "spectral-viii")

#: Method name -> function fitting that method once for every k.
SOLVERS = {
    "optimal": fit_optimal,
    "truncated": fit_truncated,
    "projected": fit_projected,
}


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InvalidInput(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# Toy settings i) - iii)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToyConfig:
    """Synthetic benchmark: m one-step trajectories of a rank-r map in R^n."""

    setting: str = "ii"
    n: int = 50
    m: int = 40
    r: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.setting not in ("i", "ii", "iii"):
            raise InvalidInput(f"unknown toy setting {self.setting!r}")
        if not (1 <= self.r <= self.m <= self.n):
            raise InvalidInput(f"need 1 <= r <= m <= n, got r={self.r}, m={self.m}, n={self.n}")


def gen_toy(cfg: ToyConfig) -> SnapshotPair:
    """Snapshot pair for one of the toy settings.

    The underlying rank-r map is ``F = sum_i phi_i phi_i^T`` with standard
    normal phi_i.  Initial conditions are m independent standard normal
    vectors (m trajectories of length 2).  Setting "i" projects F X onto the
    snapshot span, ``Y = X X^+ F X = U_r U_r^T F X`` (U_r the left singular
    vectors of X above the rank cutoff), which makes the companion property
    A X = X A^c hold by construction; "ii" is the plain
    linear map; "iii" adds the cubic term ``F diag(x)^2 x``.
    """
    rng = _rng(cfg.seed)
    phi = rng.standard_normal((cfg.r, cfg.n))
    F = phi.T @ phi
    X = rng.standard_normal((cfg.n, cfg.m))
    if cfg.setting == "i":
        svd = thin_svd(X)
        Ur = svd.U[:, : numerical_rank(svd)]
        Y = Ur @ (Ur.T @ (F @ X))
    elif cfg.setting == "ii":
        Y = F @ X
    else:
        Y = F @ (X + X**3)
    return SnapshotPair(X=X, Y=Y, n_traj=cfg.m, traj_len=2)


# ---------------------------------------------------------------------------
# Rayleigh-Benard settings iv) - vi)
# ---------------------------------------------------------------------------

#: Extra temperature modes whose amplitudes take up the hypercube coordinates
#: beyond (a_tau, kappas).  Chosen so the one-step linear dataset (setting iv)
#: spans exactly 10 dimensions: 3 cos(a_tau s1)sin(pi s2) shapes + sin(2 pi s2)
#: + these 5 + the shared buoyancy/forcing direction.
_EXTRA_MODES = (
    (1, 1, "sin"),  # sin(2 pi s1) sin(pi s2)
    (1, 2, "cos"),  # cos(2 pi s1) sin(2 pi s2)
    (2, 1, "sin"),
    (2, 2, "cos"),
    (1, 3, "sin"),
)

PHYSICAL_LAYOUT = {"iv": (50, 2), "v": (5, 11), "vi": (5, 11)}

HYPERCUBE_DIM = 10


def _extra_tau(S1: np.ndarray, S2: np.ndarray, amps: np.ndarray, n_modes: int) -> np.ndarray:
    tau = np.zeros_like(S1)
    for a, (p, q, kind) in zip(amps[:n_modes], _EXTRA_MODES[:n_modes]):
        base = np.sin(TWO_PI * p * S1) if kind == "sin" else np.cos(TWO_PI * p * S1)
        tau += a * base * np.sin(np.pi * q * S2)
    return tau


def physical_config(setting: str) -> RBConfig:
    """Solver configuration for a physical setting.

    The linear settings need nu = 0 (the Taylor-vortex degeneracy); the
    nonlinear setting runs at a supercritical Rayleigh number so convective
    modes grow and the snapshots are genuinely nonlinear over the sampled
    window.  Samples are 0.01 apart.  Diffusion is integrated exactly, so
    the step is set by accuracy: 2e-3 in the linear settings, and 1e-4 in the
    nonlinear one, where advection and the coupling set the error as they
    did for explicit RK4 (a longer step loses accuracy at some seeds).
    """
    if setting not in PHYSICAL_LAYOUT:
        raise InvalidInput(f"unknown physical setting {setting!r}")
    if setting in ("iv", "v"):
        return RBConfig(sigma=1.0, nu=0.0, dt=2e-3, sample_stride=5)
    return RBConfig(sigma=1.0, nu=6000.0, dt=1e-4, sample_stride=100)


def gen_physical(setting: str, seed: int) -> SnapshotPair:
    """Convection snapshot pair for setting iv), v) or vi) (m = 50, n = 1024).

    Initial-condition parameters are drawn per trajectory from a 10-dim unit
    hypercube: coordinate 0 picks a_tau in 2*pi*{1,2,3}, coordinates 1-2 the
    temperature amplitudes, the middle block feeds extra temperature modes
    (and kappa_b in the nonlinear setting), and the last two are fine
    perturbations of the amplitudes.  The linear settings pin the buoyancy to
    the Taylor-vortex degeneracy (a_b = 2*pi, kappa_b = 1/(sigma (pi a_b)^2)).
    The N trajectories of a setting are stepped together in one simulator call.
    """
    cfg = physical_config(setting)
    N, T = PHYSICAL_LAYOUT[setting]
    rng = _rng(seed)
    S1, S2 = cell_mesh(cfg.grid)
    linear = setting in ("iv", "v")
    buoyancy = InitCondition(a_b=TWO_PI, kappa_b=degenerate_kappa_b(cfg.sigma, TWO_PI))
    b0s, tau0s = [], []
    for _ in range(N):
        u = rng.random(HYPERCUBE_DIM)
        a_tau = TWO_PI * (1 + min(int(3 * u[0]), 2))
        if linear:
            ic = replace(
                buoyancy,
                a_tau=a_tau,
                kappa_tau1=0.1 * u[1] + 0.01 * (u[8] - 0.5),
                kappa_tau2=0.1 * u[2] + 0.01 * (u[9] - 0.5),
            )
            _, tau0 = _lorenz_fields(ic, S1, S2)
            tau0 = tau0 + _extra_tau(S1, S2, 0.05 * u[3:8], 5)
            # Trace amounts of the two slowest temperature modes.  They carry
            # negligible data energy (the optimal fit at k = 10 ignores them)
            # but the largest one-step gains, so SVD truncation of the
            # unconstrained solution ranks them first and drops energetic
            # directions instead.
            tau0 = tau0 + 5e-8 * (0.5 + u[8]) * np.sin(np.pi * S2)
            tau0 = tau0 + 5e-8 * (0.5 + u[9]) * np.sin(3 * np.pi * S2)
        else:
            ic = InitCondition(
                a_b=a_tau,  # a_b = a_tau in the nonlinear setting
                a_tau=a_tau,
                kappa_b=0.125 + 0.375 * u[3],
                kappa_tau1=0.5 * u[1] + 0.05 * (u[8] - 0.5),
                kappa_tau2=0.5 * u[2] + 0.05 * (u[9] - 0.5),
            )
            b0, tau0 = _lorenz_fields(ic, S1, S2)
            tau0 = tau0 + _extra_tau(S1, S2, 0.25 * u[4:8], 4)
            b0s.append(b0)
        tau0s.append(tau0)
    if linear:
        states = simulate_linear_fields(cfg, buoyancy, np.stack(tau0s), T)
    else:
        states = simulate_fields(cfg, np.stack(b0s), np.stack(tau0s), T)
    return SnapshotPair.from_trajectories(list(states.swapaxes(0, 1)))


# ---------------------------------------------------------------------------
# Spectral ground-truth settings vii) - viii)
# ---------------------------------------------------------------------------


def gen_spectral_truth(base: SpectralModel, N: int, T: int, seed: int) -> SnapshotPair:
    """Exact rank-3 linear snapshots from known eigentriples.

    The generator is ``G = (zeta_1 zeta_2 zeta_3) diag(lambda) (xi_1 xi_2
    xi_3)^T`` applied in factored form; G is real for conjugate-closed
    triples and never materialised.  Initial conditions are real random
    combinations of the generating eigenvectors (normalised per mode so all
    three modes carry comparable energy) plus a small generic component, so
    every eigendirection is identifiable from the data.  Each trajectory is
    the spectral recursion from theta, whose first state is theta itself.
    """
    if base.r != 3:
        raise InvalidInput(f"rank-3 spectral model expected, got r={base.r}")
    zeta, xi = base.complex_modes()
    pair = np.sum(xi * zeta, axis=0)
    if np.max(np.abs(pair - 1.0)) > 1e-6:
        raise InvalidInput("base model is not normalised to xi^T zeta = 1")
    rng = _rng(seed)
    n = base.n
    col_scale = np.linalg.norm(zeta, axis=0)
    z_re = zeta.real / col_scale
    z_im = zeta.imag / col_scale
    trajectories = []
    for _ in range(N):
        theta = z_re @ rng.standard_normal(3) + z_im @ rng.standard_normal(3)
        theta = theta + 0.02 * rng.standard_normal(n) / np.sqrt(n)
        trajectories.append(simulate_spectral(base, theta, T).states)
    return SnapshotPair.from_trajectories(trajectories)


#: The spectral datasets' generator is the optimal fit at this rank to the dataset of this physical setting.
_SPECTRAL_BASE_SETTING, _SPECTRAL_BASE_K = "vi", 3


def spectral_ground_truth(seed: int):
    """Build the rank-3 generator of the noise study from the nonlinear dataset.

    Returns ``(base_model, data)``: the eigentriples extracted at k = 3 from
    a setting-vi dataset, and the exact rank-3 snapshot pair they generate.
    """
    vi = gen_physical(_SPECTRAL_BASE_SETTING, seed)
    op = optimal_lowrank(vi, _SPECTRAL_BASE_K)
    base = build_spectral_model(op)
    data = gen_spectral_truth(base, N=5, T=11, seed=seed + 1)
    return base, data


# ---------------------------------------------------------------------------
# Noise model
# ---------------------------------------------------------------------------


def add_noise_psnr(data: SnapshotPair, psnr_db: float, seed: int) -> SnapshotPair:
    """Corrupt every snapshot with iid Gaussian noise at a target PSNR.

    The noise scale solves ``psnr = 20 log10(peak / sigma)`` with peak the
    largest absolute entry over all snapshots; a snapshot shared between X
    and Y receives one noise realisation (the overlap columns stay equal).
    ``psnr_db = +inf`` returns the data unchanged; a finite ``psnr_db`` whose
    noise scale comes out 0 or non-finite raises ``InvalidInput``.
    """
    if psnr_db == np.inf:
        return data
    if not np.isfinite(psnr_db):
        raise InvalidInput("psnr must be finite or +inf")
    if data.n_traj is None or data.traj_len is None:
        raise InvalidInput("noise model needs the trajectory layout of the snapshot pair")
    peak = max(float(np.max(np.abs(data.X))), float(np.max(np.abs(data.Y))))
    if peak == 0.0:
        raise InvalidInput("cannot set a PSNR against all-zero data")
    try:
        sigma = peak / (10.0 ** (psnr_db / 20.0))
    except (OverflowError, ZeroDivisionError):  # the power overflows, or underflows to 0
        sigma = np.nan
    if not 0.0 < sigma < np.inf:
        raise InvalidInput(f"psnr {psnr_db:g} dB puts the noise scale for peak {peak:g} outside the float range")
    N, T = data.n_traj, data.traj_len
    # One draw per snapshot in (trajectory, time) order, laid out as the data's own trajectories.
    noise = SnapshotPair.from_trajectories(list(sigma * _rng(seed).standard_normal((N, T, data.n))))
    return SnapshotPair(X=data.X + noise.X, Y=data.Y + noise.Y, n_traj=N, traj_len=T)


# ---------------------------------------------------------------------------
# Datasets by name
# ---------------------------------------------------------------------------


def generate(name: str, seed: int, psnr_db: float | None = None) -> tuple[SnapshotPair, dict, SpectralModel | None]:
    """Dataset ``name`` at ``seed`` as ``lrdmd generate`` writes it: (pair, manifest fields, truth).

    The manifest lacks only what ``io.write_dataset`` adds; truth is the spectral datasets' model, else None.
    Noise at ``psnr_db`` (spectral-viii: 20 dB by default) is drawn from ``seed + 2``; ``+inf`` adds and records none.
    """
    if name not in GENERATORS:
        raise InvalidInput(f"unknown generator {name!r}")
    family, setting = name.split("-", 1)
    manifest: dict = {"generator": name, "seed": seed, "rng": RNG_NAME}
    truth = None
    if family == "toy":
        cfg = ToyConfig(setting=setting, seed=seed)
        data = gen_toy(cfg)
    elif family == "rb":
        cfg = physical_config(setting)
        data = gen_physical(setting, seed)
    else:
        cfg = physical_config(_SPECTRAL_BASE_SETTING)
        truth, data = spectral_ground_truth(seed)
        manifest["base_model"] = {"fitted_from": f"rb-{_SPECTRAL_BASE_SETTING}", "k": _SPECTRAL_BASE_K, "seed": seed}
    manifest["config"] = asdict(cfg)
    if family != "toy":
        manifest["scheme"] = cfg.scheme()
    psnr_db = 20.0 if psnr_db is None and name == "spectral-viii" else psnr_db
    if psnr_db is not None:
        data = add_noise_psnr(data, psnr_db, seed + 2)
        if psnr_db != np.inf:
            manifest["psnr_db"] = psnr_db
    return data, manifest, truth


# ---------------------------------------------------------------------------
# Error sweep
# ---------------------------------------------------------------------------


@dataclass
class ErrorCurve:
    """Normalised errors per (method, k); failed cells hold NaN plus a flag.

    Each cell's flags are one string, the operator's flags joined by ";".
    """

    ks: np.ndarray
    errors: dict[str, np.ndarray]
    closed_form: np.ndarray | None = None
    closed_form_gap: np.ndarray | None = None
    flags: dict[str, list[str]] = field(default_factory=dict)

    @property
    def methods(self) -> list[str]:
        return list(self.errors)


def error_sweep(
    data: SnapshotPair,
    k_range,
    methods=tuple(SOLVERS),
) -> ErrorCurve:
    """Normalised error ``||Y - A_k X||_F / ||Y||_F`` over k for each method.

    Each k is kept once, in ascending order, and each method once, in the
    given order.  Each method is fitted once, and ``LowRankFit.residuals_fro``
    reads every k's direct residual off one orthogonal split of Y along that
    fit's ``P``, in O(n m^2).  A method whose fit fails has its cells flagged
    and left NaN instead of aborting the sweep.  For the optimal method the
    normalised closed-form error and the error theorem's relative gap are
    reported as well.
    """
    ks = np.array(sorted({int(k) for k in k_range}), dtype=int)
    if ks.size == 0 or ks[0] < 1 or ks[-1] > data.m:
        raise InvalidInput(f"k range must lie within [1, {data.m}]")
    methods = tuple(dict.fromkeys(methods))
    unknown = [m for m in methods if m not in SOLVERS]
    if unknown:
        raise InvalidInput(f"unknown methods: {unknown}")
    norm_y = data.norm_y
    errors = {m: np.full(ks.size, np.nan) for m in methods}
    flags: dict[str, list[str]] = {m: [""] * ks.size for m in methods}
    closed = np.full(ks.size, np.nan) if "optimal" in methods else None
    gap = np.full(ks.size, np.nan) if "optimal" in methods else None
    for name in methods:
        try:
            fit = SOLVERS[name](data)
        except LrdmdError as exc:
            flags[name] = [f"error:{type(exc).__name__}"] * ks.size
            continue
        direct = fit.residuals_fro(data)
        for j, k in enumerate(ks.tolist()):
            rep = _report(float(direct[k - 1]), data, fit.error_sq(k))
            if rep.closed_form_error is not None:
                closed[j] = rep.closed_form_error / norm_y if norm_y > 0 else 0.0
                gap[j] = rep.closed_form_gap
            errors[name][j] = rep.normalized
            flags[name][j] = ";".join(fit._flags_at(k))
    return ErrorCurve(ks=ks, errors=errors, closed_form=closed, closed_form_gap=gap, flags=flags)
