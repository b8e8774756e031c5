"""Public API: every exported name resolves, and removed names stay removed."""

import importlib
import inspect
import pkgutil

import pytest

import semsec
from semsec import rdf

MODULES = [importlib.import_module(f"semsec.{m.name}") for m in pkgutil.iter_modules(semsec.__path__)]
REMOVED = (
    "CovMatrix", "gaussian_mi", "schur_conditional", "gaussian_entropy",
    "NotPsdError", "SingularBlockError", "brute_force_rdf",
)
# Options that nothing at run time set: the solver has no knobs.
REMOVED_PARAMETERS = (
    (rdf.TwoConstraintSolver, "ba_tol"),
    (rdf.TwoConstraintSolver, "ba_max_iter"),
    (rdf.rdf_semantic_case1, "solver"),
    (rdf.rdf_semantic_case2, "solver"),
    (rdf._ba_tilted, "return_trace"),
    (rdf.DiscreteSemanticSource, "s_support"),
    (rdf.DiscreteSemanticSource, "u_support"),
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
