"""The dependency rule: the library and the benchmark import nothing but the
standard library, treestop itself and the benchmark's own modules.  The
library also states its invariants as exceptions that ``python -O`` keeps,
and calls an instance's functions in ``lattice.py`` only, where node data
become finite Fractions."""

import ast
import sys
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@lru_cache(maxsize=None)
def _parsed(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_modules(path: Path):
    for node in ast.walk(_parsed(path)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_and_benchmark_import_only_the_standard_library():
    bench_modules = {path.stem for path in (ROOT / "bench").rglob("*.py")}
    allowed = {"src": set(sys.stdlib_module_names) | {"treestop"},
               "bench": set(sys.stdlib_module_names) | {"treestop"} | bench_modules}
    checked, outside = 0, []
    for top in ("src", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            checked += 1
            for name in _imported_modules(path):
                if name.split(".")[0] not in allowed[top]:
                    outside.append(f"{path.relative_to(ROOT)}: {name}")
    assert checked > 10
    assert outside == []


def test_library_states_no_invariant_as_an_assertion():
    # `assert` vanishes under python -O; invariants raise InvariantViolation
    found, checked = [], 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        checked += 1
        for node in ast.walk(_parsed(path)):
            raised = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(raised, ast.Call):
                raised = raised.func
            if isinstance(node, ast.Assert) or (
                    isinstance(raised, ast.Name) and raised.id == "AssertionError"):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert checked > 10
    assert found == []


def test_only_the_lattice_reads_the_instance_functions():
    # reward, integrands, terminal payoff, drift and diffusion are called and
    # coerced in one module; the engines read the results from it
    functions = {"reward", "terminal", "_drift", "_diff", "inequalities",
                 "equalities"}
    found, checked = [], 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        checked += 1
        if path.name == "lattice.py":
            continue
        for node in ast.walk(_parsed(path)):
            if isinstance(node, ast.Attribute) and node.attr in functions:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} .{node.attr}")
    assert checked > 10
    assert found == []


def test_node_data_path_holds_no_ext():
    # lattice.py makes node data finite Fractions; Ext (with its infinities)
    # is for budgets and targets, so these engines neither import nor unwrap it
    src = ROOT / "src" / "treestop"
    for name in ("measures.py", "dpp.py"):
        assert not [node for node in ast.walk(_parsed(src / name))
                    if isinstance(node, ast.ImportFrom) and node.module == "xreal"], name
    assert not [node for node in ast.walk(_parsed(src / "dp.py"))
                if isinstance(node, ast.Attribute) and node.attr == "fraction"]
