"""Public API: every exported name resolves, removed names stay removed, the
shared layers do not reach into a model, and the README's example runs."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import semsec
from semsec import binary, config, gaussian, info, rdf, regions

MODULES = [importlib.import_module(f"semsec.{m.name}") for m in pkgutil.iter_modules(semsec.__path__)]
REMOVED = (
    "CovMatrix", "gaussian_mi", "schur_conditional", "gaussian_entropy",
    "NotPsdError", "SingularBlockError", "brute_force_rdf",
    "secrecy_term", "binary_secrecy_term",
    # Each source type's rdf_components method evaluates its model's RDFs.
    "rdf_components",
    # Scalar RDFs and caps per model: regions.min_ratio and
    # regions.equivocation_caps take the source and read its rdf_components.
    "gaussian_rdf_obs", "gaussian_rdf_sem", "_check_reach", "converse_equivocation_caps",
    "binary_rdf_obs", "binary_rdf_sem", "binary_rdf_joint", "binary_converse_caps",
    # Binary case 2 solves each distinct cell of a call once, with no
    # module-level cache.
    "_binary_joint_case2_cached",
    # Each source type's rdf_sem method evaluates its semantic RDF.
    "_rdf_sem", "_binary_sem",
)
# Options that nothing at run time set: the solver has no knobs, and the
# converse no split. Blahut-Arimoto reads its tolerance and iteration cap
# from module constants, Hamming distortion is square, a pmf is given
# shaped, and a config's targets carry its own key rate.
REMOVED_PARAMETERS = (
    (rdf.TwoConstraintSolver, "ba_tol"),
    (rdf.TwoConstraintSolver, "ba_max_iter"),
    (rdf.rdf_semantic_case1, "solver"),
    (rdf.rdf_semantic_case2, "solver"),
    (rdf._ba_tilted, "return_trace"),
    (rdf._ba_tilted, "tol"),
    (rdf._ba_tilted, "max_iter"),
    (rdf.hamming_distortion, "m"),
    (info.Pmf, "shape"),
    (rdf.DiscreteSemanticSource, "s_support"),
    (rdf.DiscreteSemanticSource, "u_support"),
    (config.RunConfig.targets, "R_k"),
    # The converse's secrecy slope is the channel's secrecy capacity.
    (gaussian.converse_min_r, "beta1"),
    (gaussian.converse_min_r, "beta2"),
    (regions.equivocation_caps, "beta1"),
    (regions.equivocation_caps, "beta2"),
    (binary.binary_min_r, "gamma1"),
    (binary.binary_min_r, "gamma2"),
    (regions.equivocation_caps, "gamma1"),
    (regions.equivocation_caps, "gamma2"),
    (binary.delta_s_curve, "gamma1"),
    # A result type stores no flag it can derive: feasibility from the
    # values, the clamp flags from the raw and clamped caps.
    (regions.RegionSurface, "feasible"),
    (regions.MinRateResult, "feasible"),
    (regions.EquivocationCaps, "capped_s"),
    (regions.EquivocationCaps, "capped_u"),
    (regions.EquivocationCaps, "capped_su"),
    (regions.TradeoffCurve, "capped"),
    (regions.TradeoffCurve, "d_s_star"),
)
# Methods and attributes that nothing reads: the CLI zips the curve's arrays
# itself, the minimal ratio skips a disabled target by its value, and the
# caps are read by name.
REMOVED_METHODS = (
    (regions.TradeoffCurve, "rows"),
    (regions.EquivocationTargets, "active"),
    (regions.EquivocationCaps, "__iter__"),
    (regions.EquivocationCaps, "from_raw"),
    (binary.SemanticSourceBinary, "h_alpha"),
    (rdf.DiscreteSemanticSource, "marginal_s"),
    (gaussian.SemanticSourceGaussian, "K"),
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


def test_a_discrete_source_keeps_its_alphabet():
    # The zero-mass pruning and its support fields are gone. They were set
    # per instance, so the class-level check above cannot see them.
    src = rdf.DiscreteSemanticSource(info.Pmf(np.array([[0.5, 0.0], [0.5, 0.0]])))
    assert (src.n_s, src.n_u) == (2, 2)
    assert not hasattr(src, "s_support")
    assert not hasattr(src, "u_support")


@pytest.mark.parametrize("module", [semsec, *MODULES], ids=lambda m: m.__name__)
def test_no_module_imports_a_name_it_does_not_use(module):
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used - set(getattr(module, "__all__", ())) == set()


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


#: The scalar wrappers of the converse routines, each with its home module.
SCALAR_WRAPPERS = {"converse_min_r": "gaussian", "gaussian_rdf_joint": "gaussian",
                   "binary_min_r": "binary"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_module_uses_a_scalar_wrapper(module):
    # The package reads min_ratio, rdf_components and equivocation_caps; the
    # wrappers stay for the benchmark and the tests, and the package root
    # re-exports them.
    tree = ast.parse(Path(module.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    home = module.__name__.rsplit(".", 1)[1]
    assert {name for name, owner in SCALAR_WRAPPERS.items() if owner != home} & used == set()


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_benchmark_imports_resolve():
    # The benchmark imports semsec names inside its functions, so a rename
    # would only show when a workload runs.
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("semsec"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"


def test_the_names_the_benchmark_traces_exist():
    # The traced run counts solves and reads draws under these span names,
    # and reads rate, dual bound and convergence off each solve's point.
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    booked = {node.targets[0].id: node.value.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)}
    assert booked["SOLVE"] == "rdf.TwoConstraintSolver.solve"
    assert booked["DRAW"] == "gaussian.draw_inner_samples"
    for name in (booked["SOLVE"], booked["DRAW"]):
        layer, top, *rest = name.split(".")
        module = importlib.import_module(f"semsec.{layer}")
        obj = getattr(module, top)
        assert obj.__module__ == module.__name__, name
        for attr in rest:
            obj = getattr(obj, attr)
        assert callable(obj), name
    fields = {field.name for field in dataclasses.fields(rdf.RdfPoint)}
    assert {"rate", "dual_bound", "converged"} <= fields


def test_readme_example_runs(capsys):
    # The README's Python example is the public API's first use; it must
    # keep running and printing what its last comment says.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    printed = block.rstrip().rsplit("# ", 1)[1]
    assert printed == "0.2589676311711625 delta_s"
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == printed + "\n"
