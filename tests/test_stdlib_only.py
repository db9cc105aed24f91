"""The library imports nothing outside the standard library.

Only the tests and the tooling may use third-party packages (sympy for
the symbolic ring tests, pytest).  Every module under src/bijacobsthal is
parsed, and each absolute import, at any depth, must name a standard
library module or `__future__`; relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bijacobsthal"


def absolute_imports(source: str) -> set[str]:
    """The top-level names of every absolute import in `source`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_absolute_imports_are_found_at_any_depth():
    source = ("import os.path\nfrom . import exact\nfrom json import dumps\n"
              "def f():\n    import sympy\n")
    assert absolute_imports(source) == {"os", "json", "sympy"}


def test_library_is_stdlib_only():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    allowed = sys.stdlib_module_names | {"__future__"}
    outside = {
        path.name: sorted(absolute_imports(path.read_text(encoding="utf-8")) - allowed)
        for path in modules
    }
    assert {name: mods for name, mods in outside.items() if mods} == {}
