"""The package namespace: the public names the modules' __all__ export."""

import types

import plks

# the names plks exported when its __init__ listed them by hand, plus the
# common base of its error types and radial_delta_test, less Forcing and its
# three factories, which RadialODE absorbed; a name dropped from a module's __all__
# would vanish from the package without notice
_PUBLIC = {
    "AmbiguousBracketError", "BadBracketError", "Classification",
    "ClassifyOptions", "CompactTail", "CriticalResult", "DecayFit",
    "DeltaTestError", "Direction", "DomainError", "EnergyCheck",
    "EnergyLawError", "EnvelopeReport", "Event", "EventKind",
    "ForwardOptions", "ForwardProfile", "IllPosedPotentialError",
    "InfiniteMassError", "InsufficientRangeError", "IntegrationError",
    "IntegratorOptions", "LocalResidualReport", "LogQuadraticTail",
    "ModelParams", "MultiBubbleProfile", "NegativeBaseError",
    "NoSupportRadiusError", "NotEnoughZerosError", "OutOfTimeDomainError",
    "PhiProfile", "PlksError", "PowerTail", "ProfileClass",
    "ProfileSolution", "PsiProfile", "RadialODE", "Regime",
    "SelfSimilarSolution", "StepStats", "SupportEdge", "SweepResult",
    "SystemResidual", "Termination", "admissible_p_threshold", "assemble",
    "backward_ode", "build_multi_bubble", "classify",
    "compact_support_admissible", "critical_p_from_m", "delta_test",
    "derive_params", "effective_startup_radius", "energy",
    "energy_derivative_check", "envelope_check", "evaluate",
    "find_critical_a", "fit_decay_rate", "forward_ode", "integrate",
    "kinetic_energy", "limit_ode", "local_residual_check", "mass",
    "phi_from_forward", "phi_from_multi_bubble", "phi_from_u", "phi_of_u",
    "psi_from_phi", "psi_well_posed_threshold", "radial_delta_test",
    "rescaled_limit_check",
    "residual_grade", "solve_backward", "solve_forward", "startup_state",
    "support_radius", "support_radius_upper_bound", "surface_area_unit_ball",
    "sweep_a", "system_residual", "uprime_from_w", "zero_energy_height",
}


def test_public_names_are_pinned():
    names = {n for n, v in vars(plks).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == _PUBLIC
