"""The dependency rule: the library and the benchmark import nothing but the
standard library, treestop itself and the benchmark's own modules."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
