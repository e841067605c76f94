"""Exception types shared across the package.

Each type carries the exit code the command line returns when it escapes a
command: 2 for invalid arguments, 3 for solver failures, 4 for an unusable
critical-height bracket.
"""


class PlksError(Exception):
    """Base of every plks failure; exit_code is the CLI's code for it."""

    exit_code = 3


class DomainError(PlksError, ValueError):
    """Argument outside the model's admissible domain (validation failure)."""

    exit_code = 2


class IntegrationError(PlksError, RuntimeError):
    """The integrator could not produce a trustworthy trajectory."""


class BadBracketError(PlksError, ValueError):
    """Bracket endpoints do not straddle the sought transition."""

    exit_code = 4


class AmbiguousBracketError(PlksError, ValueError):
    """Both bracket endpoints land on the degenerate boundary case."""


class NegativeBaseError(PlksError, ValueError):
    """Power-law map applied where the base is not positive."""


class IllPosedPotentialError(PlksError, ValueError):
    """Potential tail integral diverges for these parameters."""


class InfiniteMassError(PlksError, ValueError):
    """Profile does not decay; its mass integral diverges."""


class NoSupportRadiusError(PlksError, ValueError):
    """Trajectory never reached zero, so no support radius exists."""


class InsufficientRangeError(PlksError, ValueError):
    """Radial range too short for a trustworthy asymptotic fit."""


class OutOfTimeDomainError(PlksError, ValueError):
    """Time argument outside the solution's interval of existence."""


class EnergyLawError(PlksError, AssertionError):
    """Computed energy violates its regime's monotonicity or conservation law."""


class DeltaTestError(PlksError, AssertionError):
    """Concentration deviation failed to decrease toward the singular time."""
