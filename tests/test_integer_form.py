"""The game's one integer form, and the absorbing identity read from it.

`Game.int_rewards` and `Game.int_transitions` must be the game data times
its least common denominator, and `stochgame.absorbing`, which reads
every value from integer grids, must report exactly what the Fraction
route kept in `absorbing_refs` reports.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import absorbing_refs
from stochgame import absorbing
from stochgame.absorbing import AbsorbingGame
from stochgame.gamecore import Game, affine_normalize
from stochgame.pencil import build_pencil

from gens import rand_absorbing_game, rand_game
from test_absorbing import absorbing_with_state2
from test_pencil import BIG_PRIMES, coprime_games

IDENTITY_LAMBDAS = (Fraction(1, 2), Fraction(1, 7), Fraction(1), Fraction(1, 1000))
# profile-matrix entries per drawn game, so the Fraction reference stays quick
_ENTRY_LIMIT = 729


def _assert_integer_form(game: Game) -> None:
    big_l = game.denominator_lcm()
    ints = (game.int_rewards, game.int_transitions)
    scaled = (
        tuple(tuple(tuple(big_l * x for x in row) for row in state) for state in game.rewards),
        tuple(
            tuple(tuple(tuple(big_l * p for p in dist) for dist in row) for row in state)
            for state in game.transitions
        ),
    )
    assert ints == scaled
    flat = [x for state in game.int_rewards for row in state for x in row]
    flat += [p for state in game.int_transitions for row in state for d in row for p in d]
    assert all(type(x) is int for x in flat)


@settings(max_examples=60, deadline=None)
@given(st.one_of(coprime_games(), st.integers(0, 2**32).map(
    lambda seed: rand_game(random.Random(seed), 2, 2, 3, max_den=12)
)))
def test_integer_form_is_the_data_times_the_common_denominator(game):
    _assert_integer_form(game)
    _assert_integer_form(affine_normalize(game)[0])


def prime_absorbing_game(rng: random.Random, n: int, n1: int, n2: int) -> Game:
    """Absorbing game whose data share three >= 30-bit prime denominators."""
    primes = rng.sample(BIG_PRIMES, 3)

    def reward() -> Fraction:
        den = rng.choice(primes)
        return Fraction(rng.randint(-2 * den, 2 * den), den)

    def live_row() -> list[Fraction]:
        den = rng.choice(primes)
        cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
        bounds = [0] + cuts + [den]
        return [Fraction(hi - lo, den) for lo, hi in zip(bounds, bounds[1:])]

    stay = [[[[int(t == l) for t in range(n)]] * n2] * n1 for l in range(1, n)]
    return Game(
        [[[reward() for _ in range(n2)] for _ in range(n1)] for _ in range(n)],
        [[[live_row() for _ in range(n2)] for _ in range(n1)]] + stay,
    )


def _identity_cases(count: int):
    rng = random.Random(909)
    for index in range(count):
        while True:
            n, n1, n2 = rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 3)
            if (n1 * n2) ** n <= _ENTRY_LIMIT:
                break
        if index % 2:
            game = prime_absorbing_game(rng, n, n1, n2)
        else:
            game = rand_absorbing_game(rng, n, n1, n2)
        lam = IDENTITY_LAMBDAS[index % len(IDENTITY_LAMBDAS)]
        z = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        yield AbsorbingGame.from_game(game), lam, z


def test_identity_matches_fraction_reference():
    seen_z = set()
    for ab, lam, z in _identity_cases(208):
        seen_z.add((z < 0, z > 1))
        assert ab.absorbed_values == absorbing_refs.absorbed_values(ab)
        quotient = absorbing.kohlberg_quotient(ab, lam, z)
        assert quotient == absorbing_refs.kohlberg_quotient(ab, lam, z)
        # IdentityReport's == compares all six fields
        report = absorbing.verify_kohlberg_identity(ab, lam, z, build_pencil(ab.game, 1, lam))
        assert report == absorbing_refs.verify_kohlberg_identity(ab, lam, z)
    assert {(True, False), (False, True)} <= seen_z


def test_forced_dependence_failure_matches_reference(monkeypatch):
    # absorbed rewards vary with actions, so the raw pencil is not block-constant
    ab = AbsorbingGame.from_game(absorbing_with_state2([[3, 1], [0, 2]]))
    monkeypatch.setattr(absorbing, "value_reduced_game", lambda ab: ab.game)
    lam, z = Fraction(1, 3), Fraction(1, 5)
    report = absorbing.verify_kohlberg_identity(ab, lam, z, build_pencil(ab.game, 1, lam))
    expected = absorbing_refs.verify_kohlberg_identity(ab, lam, z)
    assert not report.dependence_ok
    assert report.detail == expected.detail
    assert report == expected
