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


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _layer_funcs_node() -> ast.Dict:
    """The LAYER_FUNCS dict display of bench/run.py, parsed from its source."""
    tree = ast.parse((BENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCS" for t in node.targets):
            return node.value
    raise AssertionError("bench/run.py defines no LAYER_FUNCS")


def _layer_func_names():
    """The keys of LAYER_FUNCS in bench/run.py."""
    return [ast.literal_eval(key) for key in _layer_funcs_node().keys]


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


def test_every_traced_name_is_wrapped(monkeypatch):
    # the never_hit gate of a traced bench/run.py, and the test below, skip a
    # name the tracer did not wrap: a function dropped from its module's
    # __all__ would escape both, so every LAYER_FUNCS key must be wrapped
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    import bernsimplex  # noqa: F401  (the tracer wraps the loaded modules)

    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert [name for name in _layer_func_names() if name not in tracer.present] == []


@pytest.mark.parametrize("workload", ("certify", "fuzz", "asymptotics", "estimate"))
def test_every_layer_func_is_called(workload, tmp_path, monkeypatch):
    # what the never_hit gate of a traced bench/run.py asserts: every name of
    # LAYER_FUNCS that serves the workload, and that the tracer wrapped, is
    # called in one pass of the workload's plan
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer
    from workloads import WORKLOADS, build_plan

    from bernsimplex import cli

    node = _layer_funcs_node()
    # a value naming WORKLOADS (cli.main's) serves every workload
    serves = {ast.literal_eval(key): WORKLOADS if isinstance(value, ast.Name)
              else ast.literal_eval(value) for key, value in zip(node.keys, node.values)}
    plan = build_plan(workload, 5)
    monkeypatch.chdir(tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        rcs = [cli.main(list(inv.argv)) for inv in plan]
    finally:
        tracer.uninstall()
    assert rcs == [inv.expect_rc for inv in plan]
    never_hit = [name for name, where in serves.items()
                 if workload in where and name in tracer.present
                 and tracer.stats[name].calls == 0]
    assert never_hit == []


SRC = Path(__file__).resolve().parents[1] / "src" / "bernsimplex"


def test_point_rule_has_one_owner():
    # the closed-simplex tolerance is read by simplex alone, so every point
    # check goes through its _simplex_rows rather than a fork of the rule
    users = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if ("_TOL" in (getattr(node, "id", None), getattr(node, "attr", None))
                    or isinstance(node, ast.alias) and node.name == "_TOL"):
                users.add(path.name)
    assert users == {"simplex.py"}


def test_query_points_have_one_owner():
    # simplex._at_points applies the one-point rule and blocks the query rows;
    # S, det, phi and the estimators only hand it a kernel
    uses = set()
    for name in ("spoly.py", "estimate.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            if (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np"
                    and node.attr in ("ndim", "atleast_2d")
                    or "_block_len" in (getattr(node, "id", None), getattr(node, "name", None))):
                uses.add((name, ast.unparse(node)))
    assert uses == set()


def _defined_names(tree: ast.AST) -> set:
    """The names a module's functions, classes and assignments bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_lattice_weights_have_one_owner():
    # the multinomial weights of S and of the estimators come from one kernel,
    # simplex's Poisson tables; the log-pmf kernel they replaced is a test oracle
    kernel = ("_deviance", "_stirling_errors", "_STIRLING_ERRORS")
    owners, log_pmf = {}, set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined = _defined_names(tree)
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        for name in defined.intersection(kernel):
            owners.setdefault(name, set()).add(path.name)
        if "lattice_log_pmf" in defined | imported:
            log_pmf.add(path.name)
    assert owners == dict.fromkeys(kernel, {"simplex.py"})
    assert log_pmf == set()


def test_row_totals_have_one_rule():
    # every row total (||x||, M, ln C, ln g, h^{(n)}) is simplex._row_sum's
    # left fold: no other fold, no np.add.accumulate and no built-in sum over
    # rows, which Python 3.12+ compensates
    owners, forks = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        if "_row_sum" in _defined_names(tree):
            owners.add(path.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and ast.unparse(node) == "np.add.accumulate"
                    or isinstance(node, ast.Call) and ast.unparse(node.func) == "map"
                    and node.args and ast.unparse(node.args[0]) == "sum"):
                forks.add((path.name, ast.unparse(node)))
    assert owners == {"simplex.py"}
    assert forks == set()


def _np_uses(tree: ast.AST, attrs) -> set:
    """(enclosing function, attr) for each np.<attr> in attrs; '' at module level."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "np"
                and node.attr in attrs):
            found.add((where, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return found


def test_compositions_have_one_kernel():
    # sums over the compositions of m go through one convolution chain,
    # spoly.composition_coefficient; and no module keeps process-wide state
    # behind a global statement (the ln j! cache was the last)
    uses, globals_ = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        uses.update((path.name, *use) for use in _np_uses(tree, ("convolve", "correlate")))
        globals_.update(path.name for node in ast.walk(tree) if isinstance(node, ast.Global))
    assert uses == {("spoly.py", "composition_coefficient", "convolve")}
    assert globals_ == set()


def test_one_process_wide_cache():
    # a functools cache on a function keeps state for the whole process, as a
    # global does; the one allowed is cli's per-name parser, which parsing
    # leaves as it was (test_cli.py's TestParserCache)
    names, caches = ("cache", "lru_cache", "cached_property"), set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                caches.update((path.name, a.name) for a in node.names if a.name in names)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    deco = deco.func if isinstance(deco, ast.Call) else deco
                    if getattr(deco, "attr", getattr(deco, "id", None)) in names:
                        caches.add((path.name, node.name))
    assert caches == {("cli.py", "_build_parser")}
