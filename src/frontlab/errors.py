"""Exception types shared across the lab."""


class FrontLabError(Exception):
    """Base class for all frontlab errors."""


class InvalidKernelError(FrontLabError):
    """Kernel data violates the dispersal-kernel requirements."""


class NumericFailureError(FrontLabError):
    """A numerical routine failed to reach its accuracy target."""


class ResolutionError(FrontLabError):
    """Grid spacing too coarse for the requested operation."""


class BracketFailureError(FrontLabError):
    """A minimizer could not bracket a minimum (pathological input)."""


class NoRootError(FrontLabError):
    """Root solve failed: the target value is unreachable."""


class InstabilityError(FrontLabError):
    """Initial data lie below the undershoot floor, which no time step can lift."""


class BoundaryContaminationError(FrontLabError):
    """A front reached the edge of the truncated domain."""


class NoFrontError(FrontLabError):
    """No level-set crossing exists in the field."""


class InsufficientDataError(FrontLabError):
    """Not enough samples for the requested estimate."""


class InvariantViolationError(FrontLabError):
    """State or initial data lies outside the invariant box."""


class ConfigError(FrontLabError):
    """Invalid or inconsistent experiment configuration."""
