"""Package surface: every exported name resolves, every public name of a
submodule has a caller inside the package, every name the benchmark's span
recorder wraps exists, every config field is read by the package, and
threads and Cholesky factorizations each have one home."""

import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import statmap
from statmap.harness import (
    ChartTrainingConfig,
    ExperimentConfig,
    MismatchDemoConfig,
)
from statmap.propagation import PointProcessConfig, ScenarioConfig

MODULES = ["statmap"] + [f"statmap.{name}" for name in (
    "chart", "dataio", "gpmap", "harness", "propagation", "rateselect",
    "stats")]
SRC = Path(statmap.__file__).resolve().parent
# Public names that may lack a caller in the package.
NO_CALLER_ALLOWED = set()
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# the identifier each kind of reference carries
IDENTIFIER = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
              ast.ImportFrom: "module"}


def references(kinds=tuple(IDENTIFIER)):
    """(module, name, top-level definition it sits in, or None) for every
    reference of the given kinds (by default Name, Attribute, imported name
    and the module a from-import reads) in the package's source."""
    refs = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, kinds):
                    refs.add((path.stem,
                              getattr(node, IDENTIFIER[type(node)]), owner))
    return refs


def test_every_public_name_has_a_caller_in_the_package():
    # a name counts as used when it is referenced outside its own def or
    # class; a name that only tests call is deleted instead
    refs = references()
    orphans = set()
    for module_name in MODULES[1:]:
        short = module_name.rsplit(".", 1)[1]
        for name in importlib.import_module(module_name).__all__:
            if not any(n == name and (m, owner) != (short, name)
                       for m, n, owner in refs):
                orphans.add(f"{short}.{name}")
    assert orphans == NO_CALLER_ALLOWED


def test_every_traced_name_resolves(monkeypatch):
    # a traced benchmark run wraps these names; a rename in the package
    # fails here rather than in the benchmark
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    recorder = spans.SpanRecorder()
    try:
        recorder.install()
    finally:
        recorder.uninstall()


def test_every_config_field_is_read_outside_its_class():
    # a field whose only reads are its own class's checks changes no output:
    # an inert knob, deleted instead
    reads = references(ast.Attribute)
    inert = set()
    for cls in (ScenarioConfig, PointProcessConfig, ExperimentConfig,
                ChartTrainingConfig, MismatchDemoConfig):
        home = (cls.__module__.rsplit(".", 1)[1], cls.__name__)
        for f in dataclasses.fields(cls):
            if not any(n == f.name and (m, owner) != home
                       for m, n, owner in reads):
                inert.add(f"{cls.__name__}.{f.name}")
    assert inert == set()


def test_threads_and_cholesky_factorizations_each_have_one_home():
    # only _threads makes threads, so every worker runs under its caller's
    # numpy error state; every factorization and solve of a kernel goes
    # through gpmap's lock-free LAPACK shim, never scipy's f2py wrappers
    refs = references()
    makers = {m for m, n, _ in refs
              if n and (n.startswith("concurrent") or n == "threading")}
    assert makers == {"_threads"}
    assert {(m, n) for m, n, _ in refs if n in ("cholesky", "cho_solve")} == (
        set())
