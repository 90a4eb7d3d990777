import importlib

import pytest

# the modules whose __all__ functions bench/tracer.py wraps; it skips a
# missing name silently, so a stale entry would drop a function from traces
MODULES = ("specfun", "simplex", "monotone", "ineq", "spoly", "estimate", "report", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    mod = importlib.import_module(f"bernsimplex.{name}")
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []
