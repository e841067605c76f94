"""Self-similar radial profiles of the critical p-Laplacian Keller-Segel system.

Shooting, classification, and verification for the backward (blow-up) and
forward (spreading) similarity profile families, plus reconstruction of the
full space-time solution pair and its conservation/consistency checks.
"""

from .errors import (
    DomainError,
    IntegrationError,
    BadBracketError,
    AmbiguousBracketError,
    NotEnoughZerosError,
    NegativeBaseError,
    IllPosedPotentialError,
    InfiniteMassError,
    NoSupportRadiusError,
    InsufficientRangeError,
    OutOfTimeDomainError,
    EnergyLawError,
    DeltaTestError,
)
from .params import (
    Regime,
    ModelParams,
    derive_params,
    phi_of_u,
    critical_p_from_m,
    admissible_p_threshold,
    compact_support_admissible,
)
from .radial_ode import (
    Forcing,
    forcing_backward,
    forcing_forward,
    forcing_limit,
    RadialODE,
    backward_ode,
    forward_ode,
    limit_ode,
    EventKind,
    Termination,
    Event,
    IntegratorOptions,
    ProfileSolution,
    StepStats,
    startup_state,
    effective_startup_radius,
    integrate,
    uprime_from_w,
    energy,
    kinetic_energy,
    EnergyCheck,
    energy_derivative_check,
    LocalResidualReport,
    local_residual_check,
)
from .forward import (
    PowerTail,
    LogQuadraticTail,
    CompactTail,
    ForwardOptions,
    ForwardProfile,
    solve_forward,
    SupportEdge,
    support_radius,
    support_radius_upper_bound,
    DecayFit,
    fit_decay_rate,
    EnvelopeReport,
    envelope_check,
)
from .backward import (
    ProfileClass,
    Classification,
    ClassifyOptions,
    solve_backward,
    classify,
    SweepResult,
    sweep_a,
    CriticalResult,
    find_critical_a,
    zero_energy_height,
    rescaled_limit_check,
    MultiBubbleProfile,
    build_multi_bubble,
)
from .reconstruct import (
    Direction,
    PhiProfile,
    phi_from_u,
    phi_from_forward,
    phi_from_multi_bubble,
    PsiProfile,
    psi_from_phi,
    psi_well_posed_threshold,
    surface_area_unit_ball,
    mass,
    SelfSimilarSolution,
    assemble,
    evaluate,
    delta_test,
    SystemResidual,
    system_residual,
    residual_grade,
)

__version__ = "0.1.0"
