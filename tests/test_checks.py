import itertools
import random
import tracemalloc

import pytest

from stochgame import pencil
from stochgame.checks import _sampled_profile_pairs, run_invariant_checks
from stochgame.pencil import DEFAULT_MAX_ENTRIES, player1_profiles, player2_profiles

from gens import rand_game

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



def listed_profile_pairs(game, rng):
    """Reference: list every profile pair, then sample 48 if there are more."""
    pairs = list(itertools.product(player1_profiles(game), player2_profiles(game)))
    return rng.sample(pairs, 48) if len(pairs) > 48 else pairs


def test_sampled_pairs_match_the_full_listing():
    rng = random.Random(31)
    for _ in range(40):
        game = rand_game(rng, rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3))
        seed = rng.randrange(2**32)
        drawn, listed = random.Random(seed), random.Random(seed)
        assert _sampled_profile_pairs(game, drawn) == listed_profile_pairs(game, listed)
        assert drawn.getstate() == listed.getstate()


def test_sampling_does_not_list_the_pairs():
    # a 10-state 2x2 game has 2**20 profile pairs; listing them took 67 MB
    game = rand_game(random.Random(32), 10, 2, 2)
    tracemalloc.start()
    try:
        pairs = _sampled_profile_pairs(game, random.Random(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) == 48
    assert peak < 1_000_000
