"""Package surface: every exported name resolves."""

import importlib

import pytest

MODULES = ["statmap"] + [f"statmap.{name}" for name in (
    "chart", "dataio", "gpmap", "harness", "propagation", "rateselect",
    "stats")]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
