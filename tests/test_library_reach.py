"""The library is what the CLI runs: every module-level function in it is entered.

One call of each subcommand, in text and `--json` form, runs on four
fixtures (one absorbing, one one-player) in a fresh interpreter under
`sys.setprofile`.  The hook is set before `stochgame` is imported, so
functions that run at import (`cli.build_parser` and its helpers) count
as entered.  Code that only the tests reach belongs in `tests/`, as the
Shapley-Snow kernel, the one-player brute force and the chain references
do; a function of `src/stochgame` that no call enters fails this test
unless the allowlist below names it and says why it stays.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CALLS = [
    ["info", "--list-fixtures"],
    ["info", "two_state_2x2", "--json"],
    ["discounted", "two_state_2x2", "--lambda", "1/4", "--precision", "6", "--trace"],
    ["discounted", "absorbing_mix", "--lambda", "1/3", "--precision", "6", "--json"],
    ["value", "absorbing_mix", "--precision", "6", "--trace"],
    ["value", "cycle_mdp", "--precision", "6", "--json"],
    ["oracle", "single_2x2", "--lambda", "1/4", "--tol", "1/64"],
    ["oracle", "cycle_mdp", "--lambda", "1/2", "--json"],
    # the polish finds no exact fixed point here, so the iterate is evaluated
    ["oracle", "two_state_2x2", "--lambda", "1/4", "--tol", "1/64"],
    ["check", "absorbing_mix", "--seed", "1"],
    ["check", "single_2x2", "--json"],
]

ALLOWED = {
    # the benchmark's trace layer (perfbench/layers.py) wraps these by name
    "ratlinalg.det",
    "pencil.payoff_denominator",
    "pencil.pencil_matrix",
    "matrixgame.solve_matrix_game",
    # the writer of the library's own game-file format
    "gamefile.serialize_game",
    # the benchmark's fixture loader
    "gamefile.load_fixture",
}

PROBE = r"""
import contextlib, importlib, inspect, io, json, pkgutil, sys

entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(hook)
import stochgame
from stochgame import cli

with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
missed = []
for info in pkgutil.iter_modules(stochgame.__path__):
    module = importlib.import_module(f"stochgame.{info.name}")
    for name, f in vars(module).items():
        if (inspect.isfunction(f) and f.__module__ == module.__name__
                and f.__qualname__ == name and f.__code__ not in entered):
            missed.append(f"{info.name}.{name}")
print(json.dumps({"origin": stochgame.__file__, "codes": codes, "missed": missed}))
"""


def test_every_library_function_is_entered_by_the_cli():
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(CALLS)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert Path(report["origin"]).resolve().is_relative_to(SRC)
    assert report["codes"] == [0] * len(CALLS)
    assert sorted(set(report["missed"]) - ALLOWED) == []
