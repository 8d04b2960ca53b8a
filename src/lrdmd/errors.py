"""Exception and warning types shared across the package."""


class LrdmdError(Exception):
    """Base class for all package errors."""


class InvalidInput(LrdmdError):
    """Non-finite entries, bad shapes, or otherwise unusable input."""


class InvalidRank(LrdmdError):
    """Requested rank outside [1, m]."""


class EigFailure(LrdmdError):
    """Dense eigensolver failed to converge."""


class PairingFailure(LrdmdError):
    """Left/right eigenvalue sets could not be matched unambiguously."""


class SimulationBlowup(LrdmdError):
    """Time integration produced NaN/Inf; carries the failing step index."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


class DiagonalisabilityWarning(UserWarning):
    """Eigenvector basis is ill-conditioned; spectral model may be inaccurate."""
