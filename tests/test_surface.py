"""The library's exports have program callers.

A name that ``treestop/__init__.py`` exports must be read by a program:
the library itself (outside the name's own definition and ``__init__``),
the benchmark, a demo or the CI workflow.  Tests do not count; a helper
only tests call belongs in ``tests/oracles.py``.  A use is a code
identifier (a name or an attribute) or a word of a string constant that
is not a docstring, such as the benchmark's patch-point names; in the
workflow, any word of its text.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "treestop"


def _exports():
    init = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _docstrings(tree):
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def _used(tree, skip=None):
    """The words a module reads, outside the definition named ``skip``."""
    docs, out, todo = _docstrings(tree), set(), [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node.name == skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docs:
            out.update(re.findall(r"\w+", node.value))
        todo.extend(ast.iter_child_nodes(node))
    return out


def test_every_export_has_a_program_caller():
    exports = _exports()
    callers = set()
    for top in ("bench", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            callers |= _used(ast.parse(path.read_text()))
    for path in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        callers |= set(re.findall(r"\w+", path.read_text()))
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    assert len(exports) > 50 and len(modules) > 10
    used = {stem: _used(tree) for stem, tree in modules.items()}
    unused = [name for name, home in exports.items()
              if name not in callers and name not in _used(modules[home], name)
              and not any(name in words for stem, words in used.items() if stem != home)]
    assert unused == []
