"""Exception types shared across the package."""


class LatticeError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LatticeError):
    """Malformed, missing, or contradictory experiment configuration."""


class ParameterError(LatticeError, ValueError):
    """A numeric parameter is outside its admissible range."""


class DimensionError(LatticeError, ValueError):
    """A state vector does not match the expected lattice width."""


class CapacityError(LatticeError, ValueError):
    """A padded container is too narrow for the requested content."""


class NonlinearityConditionError(LatticeError, ValueError):
    """A declared nonlinearity contract failed its registration check."""


class StrictModeRequiredError(LatticeError, ValueError):
    """An operation needs a strictly negative feedback margin (alpha > 0)."""


class DivergenceError(LatticeError, RuntimeError):
    """The integrator produced a non-finite state."""


class UnsettledCloudError(DivergenceError):
    """A pullback cloud ended outside its absorbing bound: the run has not
    settled (step too large or burn-in too short)."""


class BoundaryContaminationError(LatticeError, RuntimeError):
    """State mass reached the edge of the padded working array."""


class EmptyCloudError(LatticeError, ValueError):
    """A point-cloud operation received an empty cloud."""
