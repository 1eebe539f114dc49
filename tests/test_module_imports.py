"""Every import in `src/stochgame` sits at module level, and is read.

A process that re-imports the package (dropping the old modules from
`sys.modules`, as the benchmark's harness does between set-ups) can keep
running functions of the old copy.  An import inside a function body would
then bind the new copy's names, so the old copy's `isinstance` tests would
meet the new copy's classes (an `IntPoly` germ that is not an `IntPoly`)
and take the wrong branch.  Module-level imports bind each copy to itself.

An import the module never reads is dead, unless the benchmark's trace
layer wraps that module attribute by name (`traced_names`).
"""

import ast
import os
import subprocess
import symtable
import sys
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


LAYERS = SRC.parent.parent / "perfbench" / "layers.py"


def traced_names() -> set[tuple[str, str]]:
    """(module, name) of each `(module, "name", spec)` row in the trace layer's table.

    Such an import stays bound although its module may never read it: the
    benchmark's trace layer (`perfbench/layers.py`) wraps `module.name` by
    name, so it must exist for a call through it to be spanned.
    """
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    return {(node.elts[0].id, node.elts[1].value) for node in ast.walk(tree)
            if isinstance(node, ast.Tuple) and len(node.elts) == 3
            and isinstance(node.elts[0], ast.Name) and isinstance(node.elts[1], ast.Constant)}


def imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module-level imports, `from __future__` aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def global_reads(table: symtable.SymbolTable) -> set[str]:
    """Names a scope or any scope inside it reads as module globals.

    A name bound locally (a function's `det = ...`) hides the global, as
    Python's own scoping does.
    """
    at_module = table.get_type() == "module"
    names = {s.get_name() for s in table.get_symbols()
             if s.is_referenced() and (at_module or s.is_global())}
    for child in table.get_children():
        names |= global_reads(child)
    return names


def annotation_names(tree: ast.Module) -> set[str]:
    """Names read in annotations, which `from __future__ import annotations` leaves unevaluated."""
    notes = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    notes += [n.returns for n in ast.walk(tree)
              if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    names = set()
    for note in filter(None, notes):
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            note = ast.parse(note.value, mode="eval")
        names |= {n.id for n in ast.walk(note) if isinstance(n, ast.Name)}
    return names


def exported_names(tree: ast.Module) -> set[str]:
    """The strings of a module-level `__all__` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    used = global_reads(symtable.symtable(source, "<module>", "exec"))
    return imported_names(tree) - used - annotation_names(tree) - exported_names(tree)


def test_every_module_level_import_is_read():
    found = {(path.stem, name)
             for path in SRC.rglob("*.py")
             for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert found - traced_names() == set(), "unused imports"


def test_the_scan_sees_a_hidden_import():
    source = (
        "from __future__ import annotations\n"
        "from m import det, kept, noted, listed\n"
        "__all__ = ['listed']\n\n"
        "def f(x: noted) -> int:\n"
        "    det = kept(x)\n"
        "    return det\n"
    )
    assert unused_imports(source) == {"det"}


# What a cold CLI call must not pay for: the class generator of `dataclasses`
# (which pulls in `inspect`, `ast`, `dis` and `tokenize`) and the resource-loader
# stack that finding the fixtures beside the package does not need.
STARTUP_EXCLUDED = ("dataclasses", "inspect", "importlib.resources", "tempfile")
STARTUP_PROBE = f"""
import sys
import stochgame, stochgame.cli
print(",".join(m for m in {STARTUP_EXCLUDED!r} if m in sys.modules))
"""


def test_importing_the_cli_stays_within_the_import_budget():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-S", "-c", STARTUP_PROBE],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "", "loaded at import"
