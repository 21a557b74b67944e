"""Barycentric rational approximation with relative-degree control.

Fit frequency-response samples with rational models in barycentric form,
impose a prescribed relative degree through linear constraints on the
barycentric weights, identify an unknown relative degree by model
selection, and evaluate the result stably far outside the sampled band.

The solver building blocks beneath the fits are not exported here; they
are imported from ``barydeg.core`` and ``barydeg.vf``.
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
from .core import BarycentricModel, FitReport, GeneralBarycentricModel, SampleSet
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
from .vf import VfConfig, vf_adaptive

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
    "identify",
    "inverse_tf",
    "load_samples",
    "make_piecewise",
    "mass_chain_samples",
    "moments",
    "sample_grid",
    "save_samples",
    "vf_adaptive",
    "vf_backend",
]
