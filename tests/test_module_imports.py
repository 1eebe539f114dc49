"""Every import in `src/stochgame` sits at module level.

A process that re-imports the package (dropping the old modules from
`sys.modules`, as the benchmark's harness does between set-ups) can keep
running functions of the old copy.  An import inside a function body would
then bind the new copy's names, so the old copy's `isinstance` tests would
meet the new copy's classes (an `IntPoly` germ that is not an `IntPoly`)
and take the wrong branch.  Module-level imports bind each copy to itself.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stochgame"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def nested_imports(tree: ast.Module) -> list[int]:
    """Line numbers of the imports inside a function body (or a class method's)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, SCOPES):
            lines += [inner.lineno for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return sorted(set(lines))


def test_no_import_inside_a_function():
    sources = sorted(SRC.rglob("*.py"))
    assert len(sources) > 5
    found = [f"{path.relative_to(SRC)}:{line}"
             for path in sources
             for line in nested_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"imports inside function bodies: {found}"


def test_the_scan_sees_a_nested_import():
    tree = ast.parse("import math\n\ndef f():\n    from . import x\n    return x\n")
    assert nested_imports(tree) == [4]
