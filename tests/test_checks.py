import pytest

from stochgame import pencil
from stochgame.checks import run_invariant_checks
from stochgame.pencil import DEFAULT_MAX_ENTRIES

EXPECTED_NAMES = [
    "denominator-lower-bound",
    "pencil-multilinearity",
    "value-strict-decrease",
    "root-at-oracle-value",
    "kronecker-equivalence",
    "absorbing-identity",
]


@pytest.mark.parametrize("name", ["single_2x2", "two_state_2x2", "absorbing_mix", "cycle_mdp"])
def test_fixture_suites_pass(name, fixture_docs):
    outcomes = run_invariant_checks(fixture_docs[name].game, seed=3)
    assert [o.name for o in outcomes] == EXPECTED_NAMES
    failed = [o for o in outcomes if not o.passed]
    assert not failed, failed


def test_deterministic_per_seed(fixture_docs):
    game = fixture_docs["two_state_2x2"].game
    first = run_invariant_checks(game, seed=7)
    second = run_invariant_checks(game, seed=7)
    assert first == second


def test_exact_oracle_branch_reported(fixture_docs):
    outcomes = run_invariant_checks(fixture_docs["big_match"].game, seed=1)
    by_name = {o.name: o for o in outcomes}
    assert by_name["root-at-oracle-value"].passed
    assert "exact" in by_name["root-at-oracle-value"].detail


def test_every_pencil_gets_the_callers_cap(fixture_docs, monkeypatch):
    # every pencil construction checks its cap through pencil._check_cap
    seen = []
    check_cap = pencil._check_cap

    def recording(game, max_entries):
        seen.append(max_entries)
        return check_cap(game, max_entries)

    monkeypatch.setattr(pencil, "_check_cap", recording)
    cap = DEFAULT_MAX_ENTRIES + 1
    outcomes = run_invariant_checks(fixture_docs["absorbing_mix"].game, seed=2, max_entries=cap)
    assert all(o.passed for o in outcomes)
    assert "skipped" not in outcomes[-1].detail
    assert len(seen) >= 4 and set(seen) == {cap}

