import ast
import importlib
from pathlib import Path

import pytest

# the modules whose __all__ functions bench/tracer.py wraps; it skips a
# missing name silently, so a stale entry would drop a function from traces
MODULES = ("specfun", "simplex", "monotone", "ineq", "spoly", "estimate", "report", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    mod = importlib.import_module(f"bernsimplex.{name}")
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []


def _layer_func_names():
    """The keys of LAYER_FUNCS in bench/run.py, read from its source."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCS" for t in node.targets):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("bench/run.py defines no LAYER_FUNCS")


def test_traced_names_include_methods():
    assert {"simplex.SampleSet.to_csv", "report.ScanReport.record"} <= set(_layer_func_names())


@pytest.mark.parametrize("dotted", _layer_func_names())
def test_every_traced_name_resolves(dotted):
    # the tracer skips a missing name silently, so a renamed kernel would drop out of traces
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"bernsimplex.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)
