"""The benchmark's trace table resolves against the library's current names.

`perfbench/layers.install` patches stochgame functions by name; a deleted
or renamed one would break `perfbench/run.py --trace 1`.  This installs
the table on the already-imported modules (no fresh import), runs one
`value` and one `check` through the CLI, and uninstalls.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings(mods: dict) -> dict:
    owners = list(mods.values()) + [mods["pencil"].GamePencil]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_trace_table_installs_and_uninstalls(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    program = importlib.import_module("program")
    spans = importlib.import_module("spans")
    mods = {name: importlib.import_module(f"stochgame.{name}") for name in program.MODULES}
    before = _bindings(mods)
    tracer = spans.Tracer()
    try:
        layers.install(tracer, mods)
        assert _bindings(mods) != before
        assert mods["cli"].main(["value", "big_match", "--precision", "4", "--json"]) == 0
        assert mods["cli"].main(["check", "absorbing_mix", "--json"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    after = _bindings(mods)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    metrics = layers.per_layer_metrics(tracer, untraced_s=1.0)
    for layer in ("gamefile.parse", "solver", "checks", "pencil.build",
                  "pencil.kronecker", "absorbing.kohlberg"):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert metrics["solver.probes"] > 0
