"""Optimal low-rank dynamic mode decomposition.

Closed-form solver for the rank-constrained least-squares problem over
snapshot pairs, reduced models built from the solution (SVD-based recursion
and spectral/DMD recursion), the sub-optimal baselines it is benchmarked
against, and the benchmark data generators.
"""

from .errors import (
    DiagonalisabilityWarning,
    EigFailure,
    InvalidInput,
    InvalidOperator,
    InvalidRank,
    LrdmdError,
    PairingFailure,
    SimulationBlowup,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    ComplexEigenSet,
    ThinSVD,
    eig_nonsymmetric,
    numerical_rank,
    thin_svd,
)
from .solver import (
    ErrorReport,
    FactoredOperator,
    SnapshotPair,
    error_report,
    first_order_residual,
    fit_optimal,
    fit_projected,
    fit_truncated,
    optimal_error_closed_form,
    optimal_lowrank,
    projected_dmd_baseline,
    truncated_baseline,
    unconstrained_solution,
)
from .reduced import (
    ReducedModel,
    SpectralModel,
    Trajectory,
    apply_operator,
    build_spectral_model,
    build_svd_reduced_model,
    simulate_operator,
    simulate_reduced,
    simulate_spectral,
)
from .rb import (
    InitCondition,
    RBConfig,
    analytic_buoyancy,
    degenerate_kappa_b,
    lorenz_init,
    simulate_rb,
    simulate_rb_linear,
    taylor_decay_rate,
)
from .benchmarks import (
    ErrorCurve,
    SOLVERS,
    ToyConfig,
    add_noise_psnr,
    error_sweep,
    gen_physical,
    gen_spectral_truth,
    gen_toy,
    spectral_ground_truth,
)

__version__ = "0.1.0"
