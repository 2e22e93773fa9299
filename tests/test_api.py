"""Public API guard: every exported name resolves."""

import importlib

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

