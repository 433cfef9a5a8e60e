"""Frequency-invariant differential beamforming on arbitrary planar
arrays of first-order directional elements: modal-matching design,
metric evaluation, and Monte Carlo robustness studies."""

from .errors import (
    AllTrialsFailedError,
    DegeneratePatternError,
    FrequencyGridError,
    GeometryMismatchError,
    InfeasibleGeometryError,
    InvalidFilterError,
    RankDeficientSystemError,
)
from .geometry import (
    ArrayElement,
    ArrayGeometry,
    GeometryReport,
    PhysicalConstants,
    geometry_digest,
    sample_random_geometry,
    validate_geometry,
)
from .metrics import beampattern, gain_curves
from .modal import ModalSystem, build_modal_system, build_xi_matrix, harmonic_tensor
from .montecarlo import (
    OrderComparison,
    TrialConfig,
    TrialStatistics,
    compare_orders,
    run_trials,
    trial_seed,
)
# scalar references, re-exported for the acceptance criteria
from .oracles import (
    bessel_j,
    bessel_j_prime,
    build_psi_matrix,
    directivity_factor,
    hansen_bessel_quadrature,
    harmonic_coefficient,
    harmonic_coefficient_quadrature,
)
from .patterns import (
    PatternCoefficients,
    SteeredTarget,
    SymmetricB,
    a_to_b,
    apply_steering,
    b_to_a,
    cardioid_family_coefficients,
    evaluate_target,
    hypercardioid_coefficients,
    normalize_distortionless,
    resolve_pattern,
)
from .solver import BeamformerFilter, FrequencyGrid, design_filter

__version__ = "0.1.0"

__all__ = [
    "AllTrialsFailedError",
    "ArrayElement",
    "ArrayGeometry",
    "BeamformerFilter",
    "DegeneratePatternError",
    "FrequencyGrid",
    "FrequencyGridError",
    "GeometryMismatchError",
    "GeometryReport",
    "InfeasibleGeometryError",
    "InvalidFilterError",
    "ModalSystem",
    "OrderComparison",
    "PatternCoefficients",
    "PhysicalConstants",
    "RankDeficientSystemError",
    "SteeredTarget",
    "SymmetricB",
    "TrialConfig",
    "TrialStatistics",
    "a_to_b",
    "apply_steering",
    "b_to_a",
    "beampattern",
    "bessel_j",
    "bessel_j_prime",
    "build_modal_system",
    "build_psi_matrix",
    "build_xi_matrix",
    "cardioid_family_coefficients",
    "compare_orders",
    "design_filter",
    "directivity_factor",
    "evaluate_target",
    "gain_curves",
    "geometry_digest",
    "hansen_bessel_quadrature",
    "harmonic_coefficient",
    "harmonic_coefficient_quadrature",
    "harmonic_tensor",
    "hypercardioid_coefficients",
    "normalize_distortionless",
    "resolve_pattern",
    "run_trials",
    "sample_random_geometry",
    "trial_seed",
    "validate_geometry",
]
