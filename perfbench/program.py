"""Loading stochgame from the checkout's source tree and calling its CLI."""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Modules whose public functions the traced run wraps.
MODULES = ("absorbing", "checks", "cli", "gamefile", "matrixgame", "oracle",
           "pencil", "ratlinalg", "solver")


class ProgramMissing(RuntimeError):
    pass


def import_program() -> dict:
    """Import stochgame afresh from SRC; returns {short module name: module}.

    Any stochgame modules already loaded are dropped first, so repeated
    calls each pay the full import.
    """
    if not (SRC / "stochgame" / "cli.py").is_file():
        raise ProgramMissing(f"no stochgame sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "stochgame" or m.startswith("stochgame.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"stochgame.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissing(f"stochgame was imported from {origin}, not from {SRC}")
    return mods


@dataclass
class CliOutcome:
    code: int | None  # None when the call raised
    stdout: str
    error: str


def call_cli(cli_module, argv: list[str]) -> CliOutcome:
    """Run stochgame.cli.main(argv) in process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_module.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        return CliOutcome(None, out.getvalue(), traceback.format_exc())
    return CliOutcome(code, out.getvalue(), err.getvalue())
