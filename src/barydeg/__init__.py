"""Barycentric rational approximation with relative-degree control.

Fit frequency-response samples with rational models in barycentric form,
impose a prescribed relative degree through linear constraints on the
barycentric weights, identify an unknown relative degree by model
selection, and evaluate the result stably far outside the sampled band.
"""

from .aaa import AaaConfig, aaa
from .asymptotic import (
    AsymptoticModel,
    PiecewiseModel,
    classify_degree,
    cutoff_radius,
    eval_asymptotic,
    eval_piecewise,
    make_piecewise,
    moments,
)
from .benchmarks import (
    MassChainSystem,
    add_noise,
    chain_matrices,
    forward_tf,
    inverse_tf,
    load_samples,
    mass_chain_samples,
    sample_grid,
    save_samples,
)
from .core import (
    BarycentricModel,
    FitReport,
    GeneralBarycentricModel,
    SampleSet,
    loewner_matrix,
    nullspace_basis,
    solve_constrained_weights,
    vandermonde,
)
from .errors import (
    BarydegError,
    ConfigurationError,
    ConstraintError,
    GridError,
    PoleEvaluationError,
    TrivialModelError,
    UndefinedValueError,
)
from .identify import (
    CandidateRecord,
    IdentificationResult,
    aaa_backend,
    better,
    identify,
    vf_backend,
)
from .vf import VfConfig, geometric_supports, vf_adaptive, vf_solve

__version__ = "0.1.0"

__all__ = [
    "AaaConfig",
    "AsymptoticModel",
    "BarycentricModel",
    "BarydegError",
    "CandidateRecord",
    "ConfigurationError",
    "ConstraintError",
    "FitReport",
    "GeneralBarycentricModel",
    "GridError",
    "IdentificationResult",
    "MassChainSystem",
    "PiecewiseModel",
    "PoleEvaluationError",
    "SampleSet",
    "TrivialModelError",
    "UndefinedValueError",
    "VfConfig",
    "aaa",
    "aaa_backend",
    "add_noise",
    "better",
    "chain_matrices",
    "classify_degree",
    "cutoff_radius",
    "eval_asymptotic",
    "eval_piecewise",
    "forward_tf",
    "geometric_supports",
    "identify",
    "inverse_tf",
    "load_samples",
    "loewner_matrix",
    "make_piecewise",
    "mass_chain_samples",
    "moments",
    "nullspace_basis",
    "sample_grid",
    "save_samples",
    "solve_constrained_weights",
    "vandermonde",
    "vf_adaptive",
    "vf_backend",
    "vf_solve",
]
