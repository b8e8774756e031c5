"""Public API: every exported name resolves, and removed names stay removed."""

import importlib
import pkgutil

import pytest

import semsec

MODULES = [importlib.import_module(f"semsec.{m.name}") for m in pkgutil.iter_modules(semsec.__path__)]
REMOVED = (
    "CovMatrix", "gaussian_mi", "schur_conditional", "gaussian_entropy",
    "NotPsdError", "SingularBlockError", "brute_force_rdf",
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
