"""Phase retrieval from coded diffraction patterns via PhaseLift.

The package simulates masked-Fourier intensity measurements, solves the
lifted semidefinite relaxation with first-order splitting methods, and ships
a certification engine that turns the recovery guarantee's proof ingredients
(near-isotropy, robust injectivity, measurement truncation, golfing-scheme
dual certificates) into concrete numerical checks.
"""

from .diffraction import (
    MaskDistribution,
    MaskSet,
    MeasurementFrame,
    MeasurementVector,
    apply_A,
    apply_A_adjoint,
    apply_R,
    crt_frequency,
    crt_relabeling,
    dft_vector,
    measure,
    sample_masks,
    ternary_mask_distribution,
    truncation_rate,
    validate_moments,
)
from .hermitian import (
    TangentSpace,
    norm,
    phase_aligned_distance,
    psd_project,
)
from .certify import (
    DualCertificate,
    GolfingFailure,
    GolfingParams,
    InjectivityReport,
    certify_optimality,
    check_near_isotropy_exact,
    check_two_design_exact,
    golfing_construct,
    injectivity_spectrum,
    truncation_statistics,
    variance_bound_check,
    verify_certificate,
)
from .solver import SolveResult, SolverConfig, extract_signal, solve_phaselift, verify_feasibility

__all__ = [
    "MaskDistribution",
    "MaskSet",
    "MeasurementFrame",
    "MeasurementVector",
    "apply_A",
    "apply_A_adjoint",
    "apply_R",
    "crt_frequency",
    "crt_relabeling",
    "dft_vector",
    "measure",
    "sample_masks",
    "ternary_mask_distribution",
    "truncation_rate",
    "TangentSpace",
    "norm",
    "phase_aligned_distance",
    "psd_project",
    "DualCertificate",
    "GolfingFailure",
    "GolfingParams",
    "InjectivityReport",
    "certify_optimality",
    "check_near_isotropy_exact",
    "check_two_design_exact",
    "golfing_construct",
    "injectivity_spectrum",
    "truncation_statistics",
    "validate_moments",
    "variance_bound_check",
    "verify_certificate",
    "ExperimentConfig",
    "run_experiment",
    "run_lower_bound",
    "SolverConfig",
    "SolveResult",
    "solve_phaselift",
    "extract_signal",
    "verify_feasibility",
]

# The experiment harness (yaml, csv) loads on first use, so a process that
# only solves or certifies does not pay for it (PEP 562).
_LAZY = {"ExperimentConfig", "run_experiment", "run_lower_bound"}


def __getattr__(name):
    if name in _LAZY:
        from . import experiments

        return getattr(experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
