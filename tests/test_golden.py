"""Golden outputs: CLI answers pinned bit for bit across rewrites.

tests/data/golden.json holds the `--json` output (minus `elapsed_s`) of
`discounted FIX --lambda 1/4 --precision 20` and `check FIX --seed 0` on
every bundled fixture, and of `value FIX --precision 6` on all but the two
slowest ones, as recorded before the integer pencil grids replaced the
rational ones.  Any change of value, radius, trace or check outcome fails.
"""

import json
from pathlib import Path

import pytest

from stochgame.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_cli_output_matches_golden(case, capsys):
    code = main(case["argv"] + ["--json"])
    payload = json.loads(capsys.readouterr().out)
    payload.pop("elapsed_s")
    assert code == case["exit"]
    assert payload == case["output"]
