"""The game's one integer form, and the absorbing identity read from it.

`Game.int_rewards` and `Game.int_transitions` must be the game data times
its least common denominator, and `stochgame.absorbing`, which reads
every value from integer grids, must report exactly what the Fraction
route kept in `absorbing_refs` reports.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import absorbing_refs
from stochgame import absorbing
from stochgame.absorbing import AbsorbingGame
from stochgame.gamecore import Game, affine_normalize
from stochgame.pencil import GamePencil, build_pencil

from gens import rand_absorbing_game, rand_game, rand_stochastic_row
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


def fraction_normalize(game: Game) -> tuple[Game, Fraction, Fraction]:
    """The reference: rewards r -> (r - m)/(M - m) in Fraction arithmetic, through `Game`."""
    m, big = game.min_reward(), game.max_reward()
    span = big - m
    if span == 0:
        rewards = [[[Fraction(0) for _ in row] for row in state] for state in game.rewards]
        return Game(rewards, game.transitions), Fraction(1), m
    rewards = [[[(x - m) / span for x in row] for row in state] for state in game.rewards]
    return Game(rewards, game.transitions), span, m


def assert_same_game(got: Game, want: Game) -> None:
    assert got == want
    assert got.int_rewards == want.int_rewards
    assert got.int_transitions == want.int_transitions
    assert got.denominator_lcm() == want.denominator_lcm()
    assert (got.n_states, got.n_actions1, got.n_actions2) == (
        want.n_states, want.n_actions1, want.n_actions2
    )


@st.composite
def reward_games(draw) -> Game:
    """Games whose rewards are constant, all nonpositive, or over >= 30-bit denominators."""
    n, n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["constant", "negative", "wide"]))
    if kind == "constant":
        value = draw(st.fractions(min_value=-9, max_value=9, max_denominator=2**40))
        rewards = [[[value] * n2 for _ in range(n1)] for _ in range(n)]
    else:
        if kind == "negative":
            entry = st.fractions(max_value=0, max_denominator=50)
        else:
            entry = st.builds(Fraction, st.integers(-2**45, 2**45), st.integers(2**30, 2**62))
        rewards = [[[draw(entry) for _ in range(n2)] for _ in range(n1)] for _ in range(n)]
    rng = random.Random(draw(st.integers(0, 2**32)))
    transitions = [[[rand_stochastic_row(rng, n) for _ in range(n2)] for _ in range(n1)]
                   for _ in range(n)]
    return Game(rewards, transitions)


@settings(max_examples=150, deadline=None)
@given(reward_games())
def test_integer_normalization_matches_the_fraction_formula(game):
    got, c, d = affine_normalize(game)
    want, ref_c, ref_d = fraction_normalize(game)
    assert_same_game(got, want)
    assert (c, d) == (ref_c, ref_d)
    assert type(c) is Fraction and type(d) is Fraction


def test_value_reduced_game_is_the_validated_game():
    rng = random.Random(31)
    for index in range(60):
        n, n1, n2 = rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 3)
        if index % 2:
            game = prime_absorbing_game(rng, n, n1, n2)
        else:
            game = rand_absorbing_game(rng, n, n1, n2)
        ab = AbsorbingGame.from_game(game)
        values = ab.absorbed_values
        rewards = [game.rewards[0]] + [
            [[values[l - 1]] * n2 for _ in range(n1)] for l in range(1, n)
        ]
        assert_same_game(absorbing.value_reduced_game(ab), Game(rewards, game.transitions))


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
        report = absorbing_refs.built_identity(ab, lam, z)
        assert report == absorbing_refs.verify_kohlberg_identity(ab, lam, z)
    assert {(True, False), (False, True)} <= seen_z


def test_forced_dependence_failure_matches_reference(monkeypatch):
    # absorbed rewards vary with actions, so the raw pencil is not block-constant
    # (the raw pencil handed in as the reduced one, and patched in for the reference)
    ab = AbsorbingGame.from_game(absorbing_with_state2([[3, 1], [0, 2]]))
    monkeypatch.setattr(absorbing, "value_reduced_game", lambda ab: ab.game)
    lam, z = Fraction(1, 3), Fraction(1, 5)
    pencil = build_pencil(ab.game, 1, lam)
    report = absorbing.verify_kohlberg_identity(ab, lam, z, pencil, pencil)
    expected = absorbing_refs.verify_kohlberg_identity(ab, lam, z)
    assert not report.dependence_ok
    assert report.detail == expected.detail
    assert report == expected


def test_block_route_matches_the_full_grid(fixture_docs, monkeypatch):
    # once the reduced grid is block-constant its value is read at |I| x |J|;
    # the report must be the one the whole grid gives
    solved = []
    value = absorbing.matrix_game_value

    def recorded(rows):
        solved.append((len(rows), len(rows[0])))
        return value(rows)

    monkeypatch.setattr(absorbing, "matrix_game_value", recorded)
    rng = random.Random(1974)
    games = [rand_absorbing_game(rng, 2 + index % 2, rng.randint(1, 3), rng.randint(1, 3))
             for index in range(208)]
    games += [doc.game for doc in fixture_docs.values() if absorbing.is_absorbing(doc.game)]
    assert len(games) > 208
    for index, game in enumerate(games):
        ab = AbsorbingGame.from_game(game)
        lam = IDENTITY_LAMBDAS[index % len(IDENTITY_LAMBDAS)]
        z = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        pencil = build_pencil(game, 1, lam)
        # the absorbed values are solved here, once, and kept: not the identity's own solves
        reduced = build_pencil(absorbing.value_reduced_game(ab), 1, lam)
        solved.clear()
        report = absorbing.verify_kohlberg_identity(ab, lam, z, pencil, reduced)
        assert report.ok, (index, report.detail)
        assert solved == [(game.n_actions1, game.n_actions2)], index
        assert report == absorbing_refs.full_grid_identity(ab, lam, z, pencil, reduced), index


def _broken_reduced_case(shift):
    """(ab, lam, z, raw pencil, the reduced pencil with `shift` applied to its numerator rows)."""
    ab = AbsorbingGame.from_game(rand_absorbing_game(random.Random(5), 2, 2, 2))
    lam, z = Fraction(1, 3), Fraction(1, 5)
    reduced = build_pencil(absorbing.value_reduced_game(ab), 1, lam)
    numerators = tuple(tuple(shift(r, c, x, reduced.scale) for c, x in enumerate(row))
                       for r, row in enumerate(reduced.numerators))
    broken = GamePencil(numerators, reduced.denominators, reduced.scale)
    return ab, lam, z, build_pencil(ab.game, 1, lam), broken


def test_broken_block_constancy_reports_the_dependence():
    # one more at profile pair (1, 2), whose block representative is (0, 2)
    ab, lam, z, pencil, broken = _broken_reduced_case(
        lambda r, c, x, scale: x + ((r, c) == (1, 2)))
    report = absorbing.verify_kohlberg_identity(ab, lam, z, pencil, broken)
    assert not report.dependence_ok and not report.ok
    assert report.detail.startswith("reduced-game entry at profile pair (1, 2) is ")
    assert report.detail.endswith("from its live-state action block")
    assert report == absorbing_refs.full_grid_identity(ab, lam, z, pencil, broken)


def test_broken_column_block_reports_the_dependence():
    # one more down all of column 3, whose block representative is column 2: every
    # row block stays constant down its columns, so only the column test sees it
    ab, lam, z, pencil, broken = _broken_reduced_case(lambda r, c, x, scale: x + (c == 3))
    report = absorbing.verify_kohlberg_identity(ab, lam, z, pencil, broken)
    assert not report.dependence_ok and not report.ok
    assert report.detail.startswith("reduced-game entry at profile pair (0, 3) is ")
    assert report == absorbing_refs.full_grid_identity(ab, lam, z, pencil, broken)


@pytest.mark.parametrize("step", [1, -1])
def test_broken_reduced_value_is_reported(step):
    # every reduced entry moved by `step` at every z: still block-constant, but
    # its value is the raw pencil's plus `step`
    ab, lam, z, pencil, broken = _broken_reduced_case(
        lambda r, c, x, scale: x + step * scale)
    report = absorbing.verify_kohlberg_identity(ab, lam, z, pencil, broken)
    assert report.dependence_ok and report.values_equal
    assert not report.reduction_exact and not report.ok
    assert report.detail.startswith("value-reduced pencil value ")
    assert report == absorbing_refs.full_grid_identity(ab, lam, z, pencil, broken)
