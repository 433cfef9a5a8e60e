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
from .metrics import beampattern
from .montecarlo import TrialConfig, TrialStatistics, run_trials, trial_seed
# scalar references and test-only builders, re-exported for the acceptance
# criteria and the tests
from .oracles import (
    ModalSystem,
    b_to_a,
    bessel_j,
    bessel_j_prime,
    build_modal_system,
    build_psi_matrix,
    build_xi_matrix,
    directivity_factor,
    gain_curves,
    hansen_bessel_quadrature,
    harmonic_coefficient,
    harmonic_coefficient_quadrature,
    harmonic_tensor,
)
from .patterns import (
    PatternCoefficients,
    SteeredTarget,
    SymmetricB,
    a_to_b,
    apply_steering,
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
