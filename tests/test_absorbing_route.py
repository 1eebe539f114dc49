"""The solver's absorbing route: state 1's one-shot game minus z instead of the profile pencil.

For an absorbing game at state 1 the solver signs Kohlberg's one-shot
game minus z (`absorbing.live_pencil`); every other game and
state keeps the profile pencil.  Both signs are sign(v_lam - z) at every
z, so the bisections must agree entry for entry.
"""

import random
from fractions import Fraction

import pytest

from stochgame import solver
from stochgame.cli import main
from stochgame.pencil import build_pencil
from stochgame.ratlinalg import LAM
from stochgame.solver import discounted_value, limit_value

from gens import rand_absorbing_game
from sign_ref import matrix_game_sign
from test_integer_form import prime_absorbing_game

RATES = (Fraction(1, 4), Fraction(1, 1000), Fraction(1))


def profile_route(game, lam, r: int) -> solver.BisectionResult:
    """The bisection on the state-1 profile pencil, as the solver ran it for every game."""
    ngame, scale, offset, r_eff = solver._normalized(game, r)
    pencil = build_pencil(ngame, 1, lam)
    return solver._bisect(lambda z: matrix_game_sign(pencil.scaled_at(z)), r_eff, scale, offset)


def outcome(result: solver.BisectionResult) -> tuple:
    return result.value_estimate, result.radius, result.trace


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
    exact_roots = 0
    for game in absorbing_games(200):
        got = limit_value(game, 1, 8)
        assert outcome(got) == outcome(profile_route(game, LAM, 8))
        exact_roots += got.radius == 0
        for lam in RATES:
            got = discounted_value(game, 1, lam, 8)
            assert outcome(got) == outcome(profile_route(game, lam, 8)), lam
            exact_roots += got.radius == 0
    assert exact_roots > 0


def raising_build_pencil(*args, **kwargs):
    raise AssertionError("the profile pencil was built")


def test_absorbing_state_one_never_builds_the_profile_pencil(fixture_docs, monkeypatch):
    monkeypatch.setattr(solver, "build_pencil", raising_build_pencil)
    for name in ("big_match", "absorbing_mix", "single_mp"):
        game = fixture_docs[name].game
        limit_value(game, 1, 6)
        discounted_value(game, 1, Fraction(1, 3), 6)


@pytest.mark.parametrize("name, k", [("big_match", 2), ("two_state_2x2", 1)])
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
