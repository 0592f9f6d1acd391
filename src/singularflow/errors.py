"""Exception types shared across the package."""


class SingularFlowError(Exception):
    """Base class for all package errors."""


class OriginEvaluation(SingularFlowError):
    """Ideal field evaluated too close to the singular origin."""


class NotUnitVector(SingularFlowError):
    """A direction argument deviates from the unit sphere beyond tolerance."""


class UnknownField(SingularFlowError):
    """Requested built-in field name does not exist."""


class SingularBlend(SingularFlowError):
    """Polynomial blend cannot suppress the singularity for this exponent."""


class StepFailure(SingularFlowError):
    """Adaptive step size underflowed; carries the partial trajectory."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class NotBlowingUp(SingularFlowError):
    """Trajectory tail is not monotonically collapsing toward the origin."""


class OutOfRange(SingularFlowError):
    """Interpolation query outside the sampled range."""


class OutOfDomain(SingularFlowError):
    """Continuation family evaluated at a time where it is not defined."""


class LimitCycleNotFound(SingularFlowError):
    """No periodic recurrence detected within the search budget."""


class NonPositiveMean(SingularFlowError):
    """Cycle continuation requires a positive mean radial value."""


class SignError(SingularFlowError):
    """Radial coefficient has the wrong sign for the requested solution."""


class UnknownFigure(SingularFlowError):
    """Requested figure identifier does not exist."""


class ConfigError(SingularFlowError):
    """Run configuration failed to parse or validate."""
