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

import importlib

__version__ = "1.0.0"

#: module: the names the package root exports from it. A module is imported
#: the first time one of its names is read, so that a run loads only the
#: model it evaluates.
_EXPORTS = {
    # errors
    "errors": ("SemsecError", "DomainError", "ValidationError", "ConsistencyError",
               "InfeasibleError"),
    # information primitives
    "info": ("Pmf", "binary_entropy", "star", "entropy", "mutual_information",
             "appendix_inequality_slack"),
    # discrete RDF machinery
    "rdf": ("DiscreteSemanticSource", "DistortionMatrix", "RdfPoint",
            "TwoConstraintSolver", "hamming_distortion", "modified_distortion",
            "rdf_classic", "rdf_semantic_case1", "rdf_semantic_case2"),
    # targets, shared result types and the converse routines of both models
    "regions": ("DISABLED", "EquivocationTargets", "EquivocationCaps", "MinRateResult",
                "RegionSurface", "TradeoffCurve", "min_ratio", "equivocation_caps",
                "converse_surface"),
    # Gaussian model
    "gaussian": ("SemanticSourceGaussian", "WiretapChannelGaussian",
                 "gaussian_rdf_joint", "converse_min_r",
                 "inner_bound_scan", "draw_inner_samples"),
    # binary model
    "binary": ("SemanticSourceBinary", "WiretapChannelBinary",
               "binary_min_r", "delta_s_curve"),
    # config and verification
    "config": ("RunConfig", "load_config", "dump_config", "config_hash",
               "get_preset", "preset_names"),
    "verify": ("run_verification",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """An exported name, read from its module, which is imported now if it
    was not yet; a submodule of ``_EXPORTS`` by its own name."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
