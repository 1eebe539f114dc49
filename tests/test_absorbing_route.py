"""The solver's absorbing routes: no pencil for a state that is never left, and
state 1's one-shot game minus z instead of the profile pencil.

A start state that stays put with probability 1 at every action pair is
answered exactly, with no probe (`absorbing.absorbed_value`).  For an
absorbing game at a live state 1 the solver signs Kohlberg's one-shot game
minus z (`absorbing.live_pencil`); every other game and state keeps the
profile pencil.  Both signs are sign(v_lam - z) at every z, so those
bisections must agree entry for entry, and an exact answer must lie in
the profile route's enclosure (`tests/absorbed_ref.py`).
"""

import random
from fractions import Fraction

import pytest

from stochgame import Game, load_fixture, solver
from stochgame.cli import main
from stochgame.errors import GameValidationError, ResourceCapError
from stochgame.pencil import build_pencil
from stochgame.ratlinalg import LAM
from stochgame.solver import discounted_value, limit_value

from absorbed_ref import assert_same_answer, reward_value, stays
from gens import rand_absorbing_game, rand_game
from sign_ref import matrix_game_sign
from test_integer_form import prime_absorbing_game

RATES = (Fraction(1, 4), Fraction(1, 1000), Fraction(1))


def profile_route(game, lam, r: int, k: int = 1) -> solver.BisectionResult:
    """The bisection on the state-k profile pencil, as the solver ran it for every game."""
    ngame, scale, offset, r_eff = solver._normalized(game, r)
    pencil = build_pencil(ngame, k, lam)
    return solver._bisect(lambda z: matrix_game_sign(pencil.scaled_at(z)), r_eff, scale, offset)


def absorbing_games(count: int):
    """Seeded absorbing games with 1-3 states; every odd one on >= 30-bit prime denominators."""
    rng = random.Random(12)
    for index in range(count):
        if index % 2:
            # the profile route costs about 0.5 s on a bigger prime game
            yield prime_absorbing_game(rng, rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2))
        else:
            n = rng.randint(1, 3)
            top = 3 if n < 3 else 2
            yield rand_absorbing_game(rng, n, rng.randint(1, top), rng.randint(1, top))


def test_traces_match_the_profile_route():
    bisected_roots = 0
    for game in absorbing_games(200):
        for lam in (LAM,) + RATES:
            got = limit_value(game, 1, 8) if lam is LAM else discounted_value(game, 1, lam, 8)
            assert_same_answer(got, profile_route(game, lam, 8), game, 1)
            bisected_roots += got.iterations > 0 and got.radius == 0
    assert bisected_roots > 0


def with_state_kept(game: Game, k: int) -> Game:
    """The game with state k made absorbing: it stays put at every action pair."""
    stay = [int(t == k - 1) for t in range(game.n_states)]
    transitions = [list(rows) for rows in game.transitions]
    transitions[k - 1] = [[stay] * game.n_actions2] * game.n_actions1
    return Game(game.rewards, transitions)


def absorbing_starts():
    """240 seeded (game, k) pairs with k never left, and big_match from states 2 and 3.

    One-state games of 1-3 x 1-3 actions; two-state games whose state 2 or
    state 1 is kept, the other state general; three-state absorbing games
    from state 3.  Every fourth game is on >= 30-bit prime denominators.
    """
    rng = random.Random(22)
    big_match = load_fixture("big_match").game
    yield big_match, 2
    yield big_match, 3
    for index in range(240):
        kind = index % 4
        if kind == 0:
            yield rand_game(rng, 1, rng.randint(1, 3), rng.randint(1, 3)), 1
        elif kind == 1:
            yield prime_absorbing_game(rng, 2, rng.randint(1, 2), rng.randint(1, 2)), 2
        elif kind == 2:
            k = rng.randint(1, 2)
            yield with_state_kept(rand_game(rng, 2, rng.randint(1, 2), rng.randint(1, 2)), k), k
        else:
            yield rand_absorbing_game(rng, 3, *rng.choice([(1, 2), (2, 1)])), 3


def test_absorbing_starts_are_answered_exactly():
    count = 0
    for game, k in absorbing_starts():
        assert stays(game, k)
        for lam in (LAM,) + RATES:
            got = limit_value(game, k, 8) if lam is LAM else discounted_value(game, k, lam, 8)
            assert_same_answer(got, profile_route(game, lam, 8, k), game, k)
        count += 1
    assert count >= 200


def raising_pencil(*args, **kwargs):
    raise AssertionError("a pencil was built")


@pytest.mark.parametrize("name, k", [
    ("big_match", 2), ("big_match", 3), ("absorbing_mix", 2), ("single_2x2", 1), ("single_1x1", 1),
])
def test_absorbing_starts_build_no_pencil(name, k, fixture_docs, monkeypatch):
    monkeypatch.setattr(solver, "build_pencil", raising_pencil)
    monkeypatch.setattr(solver, "live_pencil", raising_pencil)
    game = fixture_docs[name].game
    for got in (limit_value(game, k, 6), discounted_value(game, k, Fraction(1, 3), 6)):
        assert (got.value_estimate, got.radius, got.trace) == (reward_value(game, k), 0, ())


def raising_absorbed_value(*args):
    raise AssertionError("a value was read")


@pytest.mark.parametrize("argv", [
    ["value", "single_2x2", "--precision", "-1"],
    ["discounted", "single_2x2", "--lambda", "1/4", "--precision", "-1"],
])
def test_absorbing_starts_reject_a_negative_precision(argv, monkeypatch, capsys):
    monkeypatch.setattr(solver, "absorbed_value", raising_absorbed_value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--precision: must be nonnegative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["value", "single_2x2", "--max-entries", "1"],
    ["discounted", "big_match", "--state", "2", "--lambda", "1/4", "--max-entries", "63"],
])
def test_absorbing_starts_keep_the_entry_cap(argv, monkeypatch, capsys):
    # the cap is checked before any value is read
    monkeypatch.setattr(solver, "absorbed_value", raising_absorbed_value)
    assert main(argv) == 3
    assert "above the cap of" in capsys.readouterr().err


def test_absorbing_starts_check_the_precision_and_the_cap_first(fixture_docs, monkeypatch):
    monkeypatch.setattr(solver, "absorbed_value", raising_absorbed_value)
    game = fixture_docs["single_2x2"].game
    with pytest.raises(GameValidationError, match="precision"):
        limit_value(game, 1, -1)
    with pytest.raises(GameValidationError, match="precision"):
        discounted_value(game, 1, Fraction(1, 4), -1)
    with pytest.raises(ResourceCapError):
        limit_value(game, 1, 8, max_entries=3)


def raising_build_pencil(*args, **kwargs):
    raise AssertionError("the profile pencil was built")


def test_absorbing_state_one_never_builds_the_profile_pencil(fixture_docs, monkeypatch):
    monkeypatch.setattr(solver, "build_pencil", raising_build_pencil)
    for name in ("big_match", "absorbing_mix", "single_mp"):
        game = fixture_docs[name].game
        limit_value(game, 1, 6)
        discounted_value(game, 1, Fraction(1, 3), 6)


@pytest.mark.parametrize("name, k", [("switcher", 2), ("two_state_2x2", 1)])
def test_other_states_and_games_keep_the_profile_pencil(name, k, fixture_docs, monkeypatch):
    monkeypatch.setattr(solver, "build_pencil", raising_build_pencil)
    game = fixture_docs[name].game
    for solve in (lambda: limit_value(game, k, 6),
                  lambda: discounted_value(game, k, Fraction(1, 3), 6)):
        with pytest.raises(AssertionError, match="profile pencil was built"):
            solve()


@pytest.mark.parametrize("argv", [
    ["value", "big_match"],
    ["discounted", "big_match", "--lambda", "1/3"],
])
def test_absorbing_route_keeps_the_entry_cap(argv, capsys):
    # big_match has 3 states and an 8 x 8 profile matrix
    assert main(argv + ["--max-entries", "63"]) == 3
    assert capsys.readouterr().err == (
        "error: profile matrix would have 8 x 8 = 64 entries, above the cap of 63; "
        "raise the cap only if you accept the exponential cost\n"
        "hint: raise --max-entries or shrink the game\n"
    )
    assert main(argv + ["--max-entries", "64", "--precision", "2"]) == 0
