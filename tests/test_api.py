"""Public API guard: every exported name resolves, no import is unused, and no
module imports another's private names."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import ajscc

MODULES = ["mosfet", "codec", "channel", "phenomenon", "experiments"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"ajscc.{name}")
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"ajscc.{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_resolve_to_their_modules():
    assert len(ajscc.__all__) == len(set(ajscc.__all__))
    homes = [importlib.import_module(f"ajscc.{name}") for name in MODULES]
    for attr in ajscc.__all__:
        obj = getattr(ajscc, attr)
        assert any(attr in mod.__all__ and getattr(mod, attr) is obj for mod in homes), attr


def test_star_import_exposes_exactly_all():
    ns = {}
    exec("from ajscc import *", ns)
    assert sorted(k for k in ns if k != "__builtins__") == sorted(ajscc.__all__)


def test_benchmark_names_resolve():
    # bench/tracing.py wraps these names and bench/run.py calls these, so
    # a removal that breaks the benchmark fails here, not only under bench/
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(mod.__name__, attr) for mod, attr, _, _ in tracing.WRAPPED]
    called = [("ajscc.experiments", attr) for attr in (
        "DEFAULT_DELTA_GRID", "run_link_point", "LinkConfig", "sweep_delta", "sweep_lambda")]
    called += [("ajscc.cli", "main")]
    called += [("ajscc.phenomenon", attr)
               for attr in ("generate_field", "field_to_csv", "field_from_csv")]
    missing = [(mod, attr) for mod, attr in wrapped + called
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing


# Imported only so that bench/tracing.py can wrap them in the experiments namespace
TRACER_IMPORTS = {("experiments", "simulate_link"), ("experiments", "decode_pairs")}


def test_no_unused_imports():
    # a name a module imports must be used in it or listed in its __all__
    unused = set()
    for path in sorted(Path(ajscc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(getattr(importlib.import_module(f"ajscc.{path.stem}"), "__all__", ()))
        unused |= {(path.stem, name) for name in imported - used - exported}
    assert unused == TRACER_IMPORTS


def test_no_private_cross_module_imports():
    # a rule one module needs from another goes through a public name, so
    # each check keeps one home
    private = []
    for path in sorted(Path(ajscc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "ajscc"):
                private += [(path.stem, alias.name) for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
