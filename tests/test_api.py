"""Public API: every exported name resolves, removed names stay removed, and
the shared layers do not reach into a model."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import semsec
from semsec import binary, gaussian, rdf, regions

MODULES = [importlib.import_module(f"semsec.{m.name}") for m in pkgutil.iter_modules(semsec.__path__)]
REMOVED = (
    "CovMatrix", "gaussian_mi", "schur_conditional", "gaussian_entropy",
    "NotPsdError", "SingularBlockError", "brute_force_rdf",
    "secrecy_term", "binary_secrecy_term",
    # Each source type's rdf_components method evaluates its model's RDFs.
    "rdf_components",
)
# Options that nothing at run time set: the solver has no knobs, and the
# converse no split.
REMOVED_PARAMETERS = (
    (rdf.TwoConstraintSolver, "ba_tol"),
    (rdf.TwoConstraintSolver, "ba_max_iter"),
    (rdf.rdf_semantic_case1, "solver"),
    (rdf.rdf_semantic_case2, "solver"),
    (rdf._ba_tilted, "return_trace"),
    (rdf.DiscreteSemanticSource, "s_support"),
    (rdf.DiscreteSemanticSource, "u_support"),
    # The converse's secrecy slope is the channel's secrecy capacity.
    (gaussian.converse_min_r, "beta1"),
    (gaussian.converse_min_r, "beta2"),
    (gaussian.converse_equivocation_caps, "beta1"),
    (gaussian.converse_equivocation_caps, "beta2"),
    (binary.binary_min_r, "gamma1"),
    (binary.binary_min_r, "gamma2"),
    (binary.binary_converse_caps, "gamma1"),
    (binary.binary_converse_caps, "gamma2"),
    (binary.delta_s_curve, "gamma1"),
)
# Methods that nothing reads: the CLI zips the curve's arrays itself.
REMOVED_METHODS = (
    (regions.TradeoffCurve, "rows"),
)


@pytest.mark.parametrize("module", [semsec, *MODULES], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    for module in (semsec, *MODULES):
        assert name not in getattr(module, "__all__", ())
        assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("func,name", REMOVED_PARAMETERS,
                         ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_removed_parameters_are_gone(func, name):
    assert name not in inspect.signature(func).parameters


@pytest.mark.parametrize("cls,name", REMOVED_METHODS,
                         ids=lambda x: x if isinstance(x, str) else x.__name__)
def test_removed_methods_are_gone(cls, name):
    assert not hasattr(cls, name)


@pytest.mark.parametrize("func", [regions.min_ratio, regions.equivocation_caps],
                         ids=lambda f: f.__name__)
def test_converse_routines_take_no_callable(func):
    # They read the secrecy capacity from the channel, not a slope callback.
    params = inspect.signature(func).parameters
    assert "slope" not in params
    assert not any("Callable" in str(p.annotation) for p in params.values())


def _semsec_imports(name):
    """The ``semsec`` modules that module ``name`` imports, found by an AST scan."""
    tree = ast.parse((Path(semsec.__file__).parent / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("semsec." if node.level else "") + (node.module or "")
            base = base.rstrip(".") or "semsec"
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return {dotted.split(".")[1] for dotted in found if dotted.startswith("semsec.")}


@pytest.mark.parametrize("layer, forbidden", [
    ("regions", {"gaussian", "binary"}),
    ("rdf", {"gaussian", "binary", "regions"}),
])
def test_shared_layers_import_no_model(layer, forbidden):
    # The converse routines and the discrete solver serve both models; each
    # model's RDFs live with its source type.
    assert _semsec_imports(layer) & forbidden == set()
