"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the model's admissible domain (validation failure)."""


class IntegrationError(RuntimeError):
    """The integrator could not produce a trustworthy trajectory."""


class BadBracketError(ValueError):
    """Bracket endpoints do not straddle the sought transition."""


class AmbiguousBracketError(ValueError):
    """Both bracket endpoints land on the degenerate boundary case."""


class NotEnoughZerosError(ValueError):
    """Trajectory has fewer sign changes than the requested construction needs."""


class NegativeBaseError(ValueError):
    """Power-law map applied where the base is not positive."""


class IllPosedPotentialError(ValueError):
    """Potential tail integral diverges for these parameters."""


class InfiniteMassError(ValueError):
    """Profile does not decay; its mass integral diverges."""


class NoSupportRadiusError(ValueError):
    """Trajectory never reached zero, so no support radius exists."""


class InsufficientRangeError(ValueError):
    """Radial range too short for a trustworthy asymptotic fit."""


class OutOfTimeDomainError(ValueError):
    """Time argument outside the solution's interval of existence."""


class EnergyLawError(AssertionError):
    """Computed energy violates its regime's monotonicity or conservation law."""


class DeltaTestError(AssertionError):
    """Concentration deviation failed to decrease toward the singular time."""
