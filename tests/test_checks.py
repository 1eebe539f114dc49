import random
import re
from fractions import Fraction

import pytest

from stochgame import checks, pencil
from stochgame.checks import run_invariant_checks
from stochgame.pencil import DEFAULT_MAX_ENTRIES, GamePencil
from stochgame.ratlinalg import det

from chain_refs import StationaryStrategy, chain_system
from gens import rand_game, rand_profile
from mdp_refs import pure

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


def test_polished_oracle_value_is_not_evaluated_again(fixture_docs, monkeypatch):
    def operator(game, lam, u):
        raise AssertionError("fixed point evaluated again")

    monkeypatch.setattr(checks, "shapley_operator", operator)
    outcomes = run_invariant_checks(fixture_docs["big_match"].game, seed=1)
    by_name = {o.name: o for o in outcomes}
    assert by_name["root-at-oracle-value"].detail == "oracle value exact, root exact"


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


@pytest.mark.parametrize("name, seed", [("two_state_3x3", 1), ("three_state_2x2", 0)])
def test_one_pencil_per_state_and_rate(name, seed, fixture_docs, monkeypatch):
    # the checks read 3 + 6 + 4 pencils at the given state (the bound's three
    # rates, whose lam = 1/4 is the root check's, then the multilinearity and
    # strict-decrease draws) and one per state for the Kronecker check;
    # repeated (state, lam) pairs are built once
    built = []
    build_pencil = checks.build_pencil

    def recording(game, k, lam, max_entries):
        built.append((k, lam))
        return build_pencil(game, k, lam, max_entries)

    monkeypatch.setattr(checks, "build_pencil", recording)
    game = fixture_docs[name].game
    outcomes = run_invariant_checks(game, seed=seed)
    assert all(o.passed for o in outcomes)
    assert len(built) == len(set(built))
    assert len(built) < 6 + 4 + 1 + game.n_states


@pytest.mark.parametrize("name", ["absorbing_mix", "big_match"])
def test_identity_check_shares_the_runs_pencils(name, fixture_docs, monkeypatch):
    # the identity check reads the game's (1, lam) pencil from the run's
    # table; no raw pencil is built twice
    game = fixture_docs[name].game
    built = []
    build_pencil = checks.build_pencil

    def recording(g, k, lam, max_entries):
        if g is game:
            built.append((k, lam))
        return build_pencil(g, k, lam, max_entries)

    monkeypatch.setattr(checks, "build_pencil", recording)
    for seed in range(10):
        built.clear()
        outcomes = run_invariant_checks(game, seed=seed)
        assert outcome(outcomes, "absorbing-identity").passed
        assert "skipped" not in outcome(outcomes, "absorbing-identity").detail
        assert len(built) == len(set(built)), seed


def outcome(outcomes, name):
    (found,) = [o for o in outcomes if o.name == name]
    return found


def test_kronecker_mismatch_fails(fixture_docs, monkeypatch):
    kronecker = checks.pencil_matrix_kronecker

    def off_by_one(game, k, lam, max_entries):
        built = kronecker(game, k, lam, max_entries)
        first = (built.numerators[0][0] + 1,) + built.numerators[0][1:]
        return GamePencil((first,) + built.numerators[1:], built.denominators, built.scale)

    monkeypatch.setattr(checks, "pencil_matrix_kronecker", off_by_one)
    outcomes = run_invariant_checks(fixture_docs["two_state_2x2"].game)
    found = outcome(outcomes, "kronecker-equivalence")
    assert found.passed is False
    assert re.fullmatch(r"constructions disagree at state 1, lam=1/\d", found.detail)


def test_denominator_below_the_bound_fails(fixture_docs, monkeypatch):
    build_pencil = checks.build_pencil

    def zeroed(game, k, lam, max_entries):
        built = build_pencil(game, k, lam, max_entries)
        first = (0,) + built.denominators[0][1:]
        return GamePencil(built.numerators, (first,) + built.denominators[1:], built.scale)

    monkeypatch.setattr(checks, "build_pencil", zeroed)
    outcomes = run_invariant_checks(fixture_docs["two_state_2x2"].game)
    found = outcome(outcomes, "denominator-lower-bound")
    assert found.passed is False
    assert found.detail == "denominator 0 < 1/4 at lam=1/2, profile pair (0, 0)"


def test_mixed_determinants_match_the_rational_route():
    # the Fraction determinants of the chain system and its Cramer matrix,
    # with player 1 mixing integer weights over each row's sum
    rng = random.Random(21)
    for trial in range(40):
        n = trial % 3 + 1
        game = rand_game(rng, n, rng.randint(1, 3), rng.randint(1, 3))
        weights = checks._random_strategy(rng, n, game.n_actions1)
        x = StationaryStrategy([[Fraction(w, sum(row)) for w in row] for row in weights])
        j_vec = rand_profile(rng, n, game.n_actions2)
        k = rng.randint(1, n)
        lam = Fraction(rng.randint(1, 9), rng.randint(9, 12))
        system, rhs = chain_system(game, x, pure(j_vec, game.n_actions2), lam)
        assert checks._mixed_determinants(game, weights, j_vec, k, lam) == (
            det(system.replace_column(k, rhs)), det(system)
        ), trial


def test_multilinearity_mismatch_fails(fixture_docs, monkeypatch):
    mixed_determinants = checks._mixed_determinants

    def shifted(*args):
        numerator, denominator = mixed_determinants(*args)
        return numerator + 1, denominator

    monkeypatch.setattr(checks, "_mixed_determinants", shifted)
    outcomes = run_invariant_checks(fixture_docs["two_state_2x2"].game)
    found = outcome(outcomes, "pencil-multilinearity")
    assert found.passed is False
    assert re.fullmatch(r"numerator mismatch at lam=1/\d, column profile \(\d, \d\)",
                        found.detail)


@pytest.mark.parametrize("name, seed", [("absorbing_mix", 0), ("big_match", 1)])
def test_every_profile_pencil_is_built_through_checks(name, seed, fixture_docs, monkeypatch):
    # every `build_pencil` starts from `pencil._integer_rows`, whoever calls it;
    # in a check run each comes through `checks.build_pencil`, once per
    # (game, state, lam): the game's, or its value-reduced copy's at state 1,
    # that copy made once per run
    game = fixture_docs[name].game
    built, eliminated, reduced = [], [], []
    build_pencil, integer_rows = checks.build_pencil, pencil._integer_rows
    value_reduced_game = checks.value_reduced_game

    def recording(g, k, lam, max_entries):
        built.append((g, k, lam))
        return build_pencil(g, k, lam, max_entries)

    def counting(g, lam, order):
        eliminated.append(g)
        return integer_rows(g, lam, order)

    def reducing(ab):
        reduced.append(value_reduced_game(ab))
        return reduced[-1]

    monkeypatch.setattr(checks, "build_pencil", recording)
    monkeypatch.setattr(pencil, "_integer_rows", counting)
    monkeypatch.setattr(checks, "value_reduced_game", reducing)
    outcomes = run_invariant_checks(game, seed=seed)
    assert all(o.passed for o in outcomes)
    assert "skipped" not in outcome(outcomes, "absorbing-identity").detail
    assert [id(g) for g in eliminated] == [id(g) for g, _, _ in built]
    keys = [(id(g), k, lam) for g, k, lam in built]
    assert len(keys) == len(set(keys))
    (copy,) = reduced
    assert {id(g) for g, _, _ in built} == {id(game), id(copy)}
    assert {k for g, k, _ in built if g is copy} == {1}
