"""Exception types shared across the package."""


class FellerError(Exception):
    """Base class for all package-specific errors."""


class InvalidPointError(FellerError):
    """Coordinates violate the chart constraint of the manifold."""


class IncompatibleBaseError(FellerError):
    """A point or field used with a manifold it does not live on."""


class BeyondInjectivityRadiusError(FellerError):
    """log map requested across the cut locus (e.g. antipodal points)."""


class NotParallelizableError(FellerError):
    """Orthonormal global frame requested on a non-parallelizable manifold."""


class UnsupportedOperationError(FellerError):
    """Operation has no implementation for this manifold (user-supplied metrics)."""


class DegenerateFieldsError(FellerError):
    """Fields fail to span the tangent space at a sampled point."""


class StepLimitExceededError(FellerError):
    """ODE integrator hit max_steps before reaching the requested time."""


class BudgetExceededError(FellerError):
    """Exact branch-tree evaluation would exceed the leaf budget."""


class VariantIncompatibleError(FellerError):
    """Chernoff variant incompatible with the generator or manifold."""


class PotentialStepError(FellerError):
    """A step with dt*|c| > 1 where the potential branch's weight dt*c is
    evaluated: the potential term outweighs the whole step (for c < 0 the
    weight 1 + dt*c turns negative and S(dt) is no longer positive)."""


class ResolutionTooCoarseError(FellerError):
    """Grid too coarse for the requested operation."""


class TruncationBudgetError(FellerError):
    """Series/quadrature oracle failed to converge within its budget."""


class EmptySampleError(FellerError):
    """Statistic requested on an empty sample."""


class OracleUnavailableError(FellerError):
    """No reference oracle available for the requested configuration."""
