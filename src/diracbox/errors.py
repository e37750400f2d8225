"""Exception types shared across the package."""

__all__ = ["SolverError", "DegenerateRatioError", "ClusterResolutionError",
           "ConsistencyError"]


class SolverError(RuntimeError):
    """Eigensolver failed to meet its residual contract.

    Carries the best eigenvalue estimate found so far, if any.
    """

    def __init__(self, message, best_mu=None, residual=None, iterations=0):
        super().__init__(message)
        self.best_mu = best_mu
        self.residual = residual
        self.iterations = iterations


class DegenerateRatioError(RuntimeError):
    """A norm ratio needed by the alternating scheme collapsed to zero."""


class ClusterResolutionError(RuntimeError):
    """An eigenvalue cluster is not resolved well enough to classify."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, never a valid result."""
