"""Properties of the package source itself."""

import ast
from pathlib import Path

import afel


def test_no_assert_statements():
    """Invariant checks raise TheoryViolationError: `python -O` strips
    assert statements, and with them the check."""
    offenders = []
    for path in sorted(Path(afel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_no_function_local_imports():
    """Imports sit at module level, where an import cycle shows at once."""
    offenders = []
    for path in sorted(Path(afel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert offenders == []
