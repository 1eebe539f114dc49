"""Golden outputs: CLI answers pinned bit for bit across rewrites.

tests/data/golden.json holds the `--json` output (minus `elapsed_s`) of
`discounted FIX --lambda 1/4 --precision 20`, `check FIX --seed 0` and
`value FIX --precision 6` on every bundled fixture, as recorded before the
integer pencil grids replaced the rational ones.  `value` on
three_state_2x2 and two_state_3x3 was recorded later, before the exact sign
over Z[lam] replaced the anchored discount ladder; at that switch every
`value` output lost only the ladder's two keys.  `oracle FIX --lambda 1/4`
and `oracle FIX --lambda 2/3 --tol 1/4096` on every fixture were recorded
before the Shapley operator moved from Fraction matrices to integer grids.
`check absorbing_mix --seed S` and `check big_match --seed S` for
S = 3..9, `oracle FIX --lambda 1/7 --tol 1/65536` and
`discounted FIX --lambda 1/1000 --precision 12` on every fixture were
recorded before `Game` took over the integer scaling and the absorbing
identity moved to integer grids.
Any change of value, radius, trace, oracle vector or check outcome fails.
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
