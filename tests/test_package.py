"""Properties of the package source itself."""

import ast
import importlib
import subprocess
import sys
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


def test_no_unused_imports():
    """Every name a module imports at module level is used in that module
    (`__init__` re-exports, so it is left out)."""
    offenders = []
    for path in sorted(Path(afel.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders += [f"{path.name}:{line} {name}" for name, line in imported.items()
                      if name not in used]
    assert offenders == []


def test_only_geometry_imports_integerize():
    """Outside `linalg`, which defines it, only `geometry` reaches
    `integerize`: a body's integer image (`VPolytope.image`) is built in one
    module, and every other module reads it there."""
    users = set()
    for path in sorted(Path(afel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and any(a.name == "integerize" for a in node.names)
                    or isinstance(node, ast.Attribute) and node.attr == "integerize"):
                users.add(path.stem)
    assert users == {"geometry"}


def test_traced_names_resolve():
    """Every (module, function) pair in the benchmark tracer's TARGETS names
    a callable in afel: `afelbench/run.py --trace 1` looks each one up, and
    a deleted name would stop every traced run."""
    path = Path(__file__).resolve().parent.parent / "afelbench" / "tracer.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)]
    missing = [f"{m}.{f}" for m, f in targets
               if not callable(getattr(importlib.import_module(f"afel.{m}"), f, None))]
    assert len(targets) >= 20 and missing == []


def test_benchmark_selftest_passes():
    """`afelbench/selftest.py` exits 0: the benchmark's checks reject planted
    wrong values and every workload runs on its smoke instances.  It is the
    one test of the tracer's reads of `HullResult.vertex_ids` and of
    `minkowski_sum`'s arguments."""
    script = Path(__file__).resolve().parent.parent / "afelbench" / "selftest.py"
    r = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert r.returncode == 0, r.stdout[-2000:] + r.stderr[-2000:]
