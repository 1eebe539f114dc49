"""The hand mutants of `mutants/table.py` still name text of the library.

`mutants/run.py` checks its table before it runs anything: names are
unique, and each mutant's old text occurs exactly once in its file.
Applying that rule here too makes a refactor that orphans a mutant fail
the library tests in well under a second, not only the mutant run.
"""

import importlib
import sys
from pathlib import Path

import pytest

MUTANTS_DIR = Path(__file__).resolve().parent.parent / "mutants"


@pytest.fixture
def runner(monkeypatch):
    monkeypatch.syspath_prepend(str(MUTANTS_DIR))
    try:
        yield importlib.import_module("run")
    finally:
        for name in ("run", "table"):
            sys.modules.pop(name, None)


def test_every_mutant_names_text_that_occurs_once(runner):
    runner.check_table(runner.MUTANTS)


def test_an_orphaned_or_repeated_mutant_is_refused(runner):
    first, second = runner.MUTANTS[:2]
    with pytest.raises(SystemExit, match=f"{first.name}: old text occurs 0 times"):
        runner.check_table([first._replace(old=first.old + " # gone")])
    with pytest.raises(SystemExit, match="mutant names repeat"):
        runner.check_table([first, second._replace(name=first.name)])
