"""Computable bounds for secure semantic communication over degraded
wiretap channels.

The package evaluates, for a semantic source (an intrinsic component S
observed through U) transmitted over a degraded wiretap channel:

* closed-form rate-distortion functions (Gaussian and binary models) and a
  general two-constraint Blahut solver for discrete sources,
* converse bounds: equivocation caps and the minimal channel-use ratio
  compatible with distortion and secrecy targets,
* a Monte-Carlo inner-bound scan over jointly Gaussian auxiliary
  structures, and
* the binary semantic distortion-equivocation tradeoff curve.

See the ``semsec`` CLI for runnable presets and artifact generation.
"""

from .binary import (
    SemanticSourceBinary,
    WiretapChannelBinary,
    binary_converse_caps,
    binary_min_r,
    binary_rdf_joint,
    binary_rdf_obs,
    binary_rdf_sem,
    delta_s_curve,
)
from .config import (
    RunConfig,
    config_hash,
    dump_config,
    get_preset,
    load_config,
    preset_names,
)
from .errors import (
    ConsistencyError,
    DomainError,
    InfeasibleError,
    SemsecError,
    ValidationError,
)
from .gaussian import (
    SemanticSourceGaussian,
    WiretapChannelGaussian,
    converse_equivocation_caps,
    converse_min_r,
    draw_inner_samples,
    gaussian_rdf_joint,
    gaussian_rdf_obs,
    gaussian_rdf_sem,
    inner_bound_scan,
)
from .info import (
    Pmf,
    appendix_inequality_slack,
    binary_entropy,
    entropy,
    mutual_information,
    star,
)
from .rdf import (
    DiscreteSemanticSource,
    DistortionMatrix,
    RdfPoint,
    TwoConstraintSolver,
    hamming_distortion,
    modified_distortion,
    rdf_classic,
    rdf_semantic_case1,
    rdf_semantic_case2,
)
from .regions import (
    DISABLED,
    EquivocationCaps,
    EquivocationTargets,
    MinRateResult,
    RegionSurface,
    TradeoffCurve,
    converse_surface,
)
from .verify import run_verification

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "SemsecError", "DomainError", "ValidationError", "ConsistencyError",
    "InfeasibleError",
    # information primitives
    "Pmf", "binary_entropy", "star", "entropy", "mutual_information",
    "appendix_inequality_slack",
    # discrete RDF machinery
    "DiscreteSemanticSource", "DistortionMatrix", "RdfPoint",
    "TwoConstraintSolver", "hamming_distortion", "modified_distortion",
    "rdf_classic", "rdf_semantic_case1", "rdf_semantic_case2",
    # targets, shared result types and the converse surface
    "DISABLED", "EquivocationTargets", "EquivocationCaps", "MinRateResult",
    "RegionSurface", "TradeoffCurve", "converse_surface",
    # Gaussian model
    "SemanticSourceGaussian", "WiretapChannelGaussian",
    "gaussian_rdf_obs", "gaussian_rdf_sem", "gaussian_rdf_joint",
    "converse_equivocation_caps", "converse_min_r",
    "inner_bound_scan", "draw_inner_samples",
    # binary model
    "SemanticSourceBinary", "WiretapChannelBinary",
    "binary_rdf_obs", "binary_rdf_sem", "binary_rdf_joint",
    "binary_converse_caps", "binary_min_r", "delta_s_curve",
    # config and verification
    "RunConfig", "load_config", "dump_config", "config_hash",
    "get_preset", "preset_names", "run_verification",
]
