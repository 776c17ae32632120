"""The package's only third-party runtime dependency is numpy."""

import ast
import sys
from pathlib import Path

import dynseg

ALLOWED = {"numpy", "dynseg"}


def imported_modules(tree: ast.AST):
    """(line, module) of every absolute import anywhere in a module, function bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_stdlib_numpy_and_itself():
    outside = []
    for path in sorted(Path(dynseg.__file__).parent.rglob("*.py")):
        for line, module in imported_modules(ast.parse(path.read_text(), str(path))):
            top = module.split(".")[0]
            if top not in sys.stdlib_module_names and top not in ALLOWED:
                outside.append(f"{path.name}:{line}: {module}")
    assert outside == []


def test_guard_sees_imports_inside_functions():
    tree = ast.parse("def f():\n    from scipy import special\n    import mpmath.libmp\n")
    assert list(imported_modules(tree)) == [(2, "scipy"), (3, "mpmath.libmp")]
