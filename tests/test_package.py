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
