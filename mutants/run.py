"""Run the hand mutants of `mutants/table.py`, one at a time, and report survivors.

    python mutants/run.py    # the control, then every mutant

Each run copies `src/`, `tests/` and `pyproject.toml` to a temporary
directory, applies one mutant there (never in the working tree) and runs
its test subset with `python -m pytest -q -x` in one child process, with
bytecode writing off: a mutant restored within the same second at the same
size would otherwise reuse a stale `.pyc`.  The control applies nothing
and runs the union of the subsets, which must pass.  A mutant is killed
when its subset fails (pytest exit code 1) or runs past the timeout; any
other exit code is reported as an error.  A survivor or an error is
printed with its old -> new text and what it breaks.  Exits 0 when the
control passes and every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from table import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


def check_table(mutants) -> None:
    """Every mutant's old text occurs exactly once in its file, and names are unique."""
    names = [m.name for m in mutants]
    if len(set(names)) != len(names):
        raise SystemExit("mutant names repeat")
    for m in mutants:
        count = (ROOT / "src" / "stochgame" / m.file).read_text().count(m.old)
        if count != 1:
            raise SystemExit(f"{m.name}: old text occurs {count} times in {m.file}")


def run_subset(mutant: Mutant | None, tests: tuple[str, ...]) -> tuple[int | None, float, str]:
    """(pytest exit code or None on timeout, seconds, first failed test) on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        if mutant is not None:
            path = copy / "src" / "stochgame" / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        start = time.perf_counter()
        try:
            done = subprocess.run(
                argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - start, ""
        seconds = time.perf_counter() - start
        failures = [line for line in done.stdout.splitlines() if line.startswith("FAILED ")]
        return done.returncode, seconds, failures[0][len("FAILED "):].split(" - ")[0] if failures else ""


def main() -> int:
    check_table(MUTANTS)
    subsets = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    code, seconds, first = run_subset(None, subsets)
    print(f"control  {'passed' if code == 0 else f'FAILED (exit {code}) {first}'}  {seconds:.1f}s",
          flush=True)
    failed = code != 0
    for m in MUTANTS:
        code, seconds, first = run_subset(m, m.tests)
        if code == 1:
            verdict = f"killed by {first}"
        elif code is None:
            verdict = "killed (timeout)"
        else:
            verdict = "SURVIVED" if code == 0 else f"ERROR (pytest exit {code})"
        print(f"{m.name}  {verdict}  {seconds:.1f}s", flush=True)
        if code not in (1, None):
            print(f"  {m.file}: {m.old!r} -> {m.new!r}\n  breaks: {m.breaks}", flush=True)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
