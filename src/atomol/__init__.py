"""Mean-field dynamics of a dissipative atom-molecule conversion system.

Library layout:

    model         state representations and right-hand sides
    integrate     one adaptive solve loop, its embedded pairs, pole guards
    fixed_points  fixed-point enumeration, Jacobian, stability
    regimes       (C, R) parameter-plane cartography
    experiments   portraits, conversion sweeps, self-trapping runs
    io, cli       configs, manifests, serialization, command line
"""

from .io import __version__
from .model import (
    Amplitudes,
    BareParams,
    CanonicalState,
    NumericalError,
    Params,
    PoleError,
    ReducedParams,
    amplitudes_from_canonical,
    derived_quantities,
    effective_energy,
    reduce_bare_params,
)
from .integrate import (
    IntegratorConfig,
    PoleEvent,
    StepBudgetError,
    StepUnderflowError,
    Trajectory,
    evolve,
    evolve_reduced,
)
from .fixed_points import (
    CubicCoefficients,
    FixedPoint,
    boundary_fixed_point,
    cubic_coefficients,
    interior_fixed_points,
    threshold_gamma,
)
from .regimes import (
    RegimeLabel,
    RegimeMap,
    classify_regime,
    fixed_point_locus,
    scan_plane,
    trace_boundaries,
)
from .experiments import (
    EfficiencyReport,
    SweepProtocol,
    oscillation_amplitude,
    phase_portrait,
    self_trapping_run,
    sweep_conversion,
)

__all__ = [
    "__version__",
    "Amplitudes", "BareParams", "CanonicalState", "NumericalError", "Params",
    "PoleError", "ReducedParams", "amplitudes_from_canonical",
    "derived_quantities", "effective_energy", "reduce_bare_params",
    "IntegratorConfig", "PoleEvent", "StepBudgetError", "StepUnderflowError",
    "Trajectory",
    "evolve", "evolve_reduced",
    "CubicCoefficients", "FixedPoint", "boundary_fixed_point",
    "cubic_coefficients", "interior_fixed_points", "threshold_gamma",
    "RegimeLabel", "RegimeMap", "classify_regime", "fixed_point_locus",
    "scan_plane", "trace_boundaries",
    "EfficiencyReport", "SweepProtocol", "oscillation_amplitude",
    "phase_portrait", "self_trapping_run", "sweep_conversion",
]
