"""The package namespace: the public names the modules' __all__ export."""

import dataclasses
import types

import plks

# the package's public names; a name dropped from a module's __all__ would
# vanish from the package without notice
_PUBLIC = {
    "AmbiguousBracketError", "BadBracketError", "Classification",
    "ClassifyOptions", "CompactTail", "CriticalResult", "DecayFit",
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
    "derive_params", "effective_startup_radius", "energy",
    "energy_derivative_check", "envelope_check", "evaluate",
    "find_critical_a", "fit_decay_rate", "forward_ode", "integrate",
    "kinetic_energy", "limit_ode", "local_residual_check", "mass",
    "phi_from_forward", "phi_from_u", "phi_of_u",
    "psi_from_phi", "psi_well_posed_threshold", "radial_delta_test",
    "rescaled_limit_check",
    "residual_grade", "solve_backward", "solve_forward", "startup_state",
    "support_radius", "support_radius_upper_bound", "surface_area_unit_ball",
    "sweep_a", "system_residual", "uprime_from_w", "zero_energy_height",
}

# the integrator's settings: a new option shows up as a change to this tuple
_INTEGRATOR_OPTIONS = (
    "rel_tol", "abs_tol", "r_max", "r0",
    "stop_at_u_zero", "stop_at_first_minimum", "h_max",
)


def test_public_names_are_pinned():
    names = {n for n, v in vars(plks).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == _PUBLIC


def test_integrator_options_are_pinned():
    fields = tuple(f.name for f in dataclasses.fields(plks.IntegratorOptions))
    assert fields == _INTEGRATOR_OPTIONS
