"""The package surface: the public names the modules' __all__ export, the
integrator's settings and the command line's flags."""

import argparse
import dataclasses
import types

import plks
from plks.cli import _build_parser

# the package's public names; a name dropped from a module's __all__ would
# vanish from the package without notice
_PUBLIC = {
    "AmbiguousBracketError", "BadBracketError", "Classification",
    "CompactTail", "CriticalResult", "DecayFit",
    "DeltaTestError", "Direction", "DomainError", "EnergyCheck",
    "EnergyLawError", "EnvelopeReport", "Event", "EventKind",
    "ForwardProfile", "IllPosedPotentialError",
    "InfiniteMassError", "InsufficientRangeError", "IntegrationError",
    "IntegratorOptions", "LocalResidualReport", "LogQuadraticTail",
    "ModelParams", "NegativeBaseError", "NoSupportRadiusError",
    "OutOfTimeDomainError",
    "PhiProfile", "PlksError", "PowerTail", "ProfileClass",
    "ProfileSolution", "PsiProfile", "RadialODE", "Regime",
    "SelfSimilarSolution", "StepStats", "SupportEdge", "SweepResult",
    "SystemResidual", "Termination", "admissible_p_threshold", "assemble",
    "backward_ode", "classify", "compact_support_admissible", "delta_test",
    "derive_params", "energy",
    "energy_derivative_check", "envelope_check", "evaluate",
    "find_critical_a", "fit_decay_rate", "forward_ode", "integrate",
    "kinetic_energy", "limit_ode", "local_residual_check", "mass",
    "phi_from_forward", "phi_from_u", "phi_of_u",
    "psi_from_phi", "psi_well_posed_threshold", "radial_delta_test",
    "rescaled_limit_check",
    "residual_grade", "solve_backward", "solve_forward",
    "support_radius", "support_radius_upper_bound", "surface_area_unit_ball",
    "sweep_a", "system_residual", "uprime_from_w", "zero_energy_height",
}

# the integrator's settings: a new option shows up as a change to this tuple
_INTEGRATOR_OPTIONS = (
    "rel_tol", "abs_tol", "r_max", "r0",
    "stop_at_u_zero", "stop_at_first_minimum", "h_max",
)

# each subcommand's option strings, in the parser's order: a new flag
# shows up as a change to this table
_COMMON_FLAGS = ("-h", "--help", "--N", "--p", "--chi", "--r-max", "--rel-tol",
                 "--abs-tol", "--output", "--format", "--timing", "--gnuplot")
_CLI_OPTIONS = {
    "solve-backward": _COMMON_FLAGS + ("--a",),
    "solve-forward": _COMMON_FLAGS + ("--b", "--fit-decay"),
    "find-critical": _COMMON_FLAGS + ("--a-lo", "--a-hi", "--a-tol"),
    "sweep": _COMMON_FLAGS + ("--a-grid",),
    "reconstruct": _COMMON_FLAGS + ("--a", "--b", "--residual-grade"),
    "delta-test": _COMMON_FLAGS + ("--a", "--b", "--T", "--t0", "--ratio",
                                   "--steps"),
}


def test_public_names_are_pinned():
    names = {n for n, v in vars(plks).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == _PUBLIC


def test_integrator_options_are_pinned():
    fields = tuple(f.name for f in dataclasses.fields(plks.IntegratorOptions))
    assert fields == _INTEGRATOR_OPTIONS


def test_cli_options_are_pinned():
    top = _build_parser()
    sub = next(a for a in top._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: tuple(s for a in sp._actions for s in a.option_strings)
               for name, sp in sub.choices.items()}
    assert options == _CLI_OPTIONS
