"""The one sign route: `GamePencil.sign_at` against the per-probe sign test it replaced.

`sign_at` shifts a pencil positive once per integer bound c = max(1,
ceil(z)) and runs the pivot loop on q*(N + S) - p*D at z = p/q; the
reference (`tests/sign_ref.py`) shifts the grid at z, `scaled_at(z)`, on
every call.  Both read the exact sign of the same game's value, so they
must agree at every z, below 0, inside (0, 1), above 1 and at an exact
root, on integer and germ pencils alike.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from stochgame import Game, load_fixture, matrixgame, pencil as pencil_mod
from stochgame.absorbing import AbsorbingGame, is_absorbing, live_pencil
from stochgame.checks import run_invariant_checks
from stochgame.pencil import GamePencil, build_pencil
from stochgame.ratlinalg import LAM, IntPoly
from stochgame.solver import discounted_value, limit_value

from gens import rand_game
from sign_ref import matrix_game_sign
from test_lam_reduction import small_games

# z below 0, in (0, 1), above 1, and the integers where z meets its bound c
probe_points = st.one_of(
    st.fractions(min_value=Fraction(-3), max_value=Fraction(0), max_denominator=16),
    st.fractions(min_value=Fraction(0), max_value=Fraction(1), max_denominator=64),
    st.fractions(min_value=Fraction(1), max_value=Fraction(9, 2), max_denominator=16),
    st.integers(min_value=1, max_value=4).map(Fraction),
)

ints = st.integers(min_value=-9, max_value=9)
germs = st.lists(st.integers(min_value=-4, max_value=4), max_size=3).map(IntPoly)
positive_germs = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=-4, max_value=4), max_size=2),
).map(lambda t: IntPoly((0,) * t[0] + (t[1], *t[2])))


@st.composite
def raw_pencils(draw):
    """Pencils of up to 3 x 3 with any numerators and positive denominators, int or germ."""
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    num, den = (germs, positive_germs) if draw(st.booleans()) else (ints, st.integers(1, 9))

    def grid(entries):
        return tuple(tuple(draw(entries) for _ in range(q)) for _ in range(p))

    return GamePencil(grid(num), grid(den), draw(st.integers(1, 9)))


@st.composite
def built_pencils(draw):
    """A small game's profile pencil at a rate or at LAM, or its live pencil."""
    game = draw(small_games())
    kind = draw(st.sampled_from(["rate", "germ", "live"]))
    if kind == "live" and game.n_states > 1 and is_absorbing(game):
        lam = draw(st.sampled_from([Fraction(1, 4), Fraction(1), LAM]))
        return live_pencil(AbsorbingGame(game), lam)
    k = draw(st.integers(1, game.n_states))
    if kind == "rate":
        return build_pencil(game, k, Fraction(1, draw(st.integers(1, 9))))
    return build_pencil(game, k, LAM)


def at_root(pencil: GamePencil, z: Fraction) -> GamePencil:
    """A pencil whose game value is exactly 0 at z: (b*q*N - a, b*q*D), a/b the value at z.

    val(b*M - a) = b*val(M) - a for b > 0, and b*q*N - a - z*b*q*D is
    b*scaled_at(z) - a, so z is a root; the denominators stay positive.
    """
    rows = pencil.scaled_at(z)
    a, b = matrixgame._value_ratio(rows, [max(col) for col in zip(*rows)])
    bq = b * z.denominator
    return GamePencil(
        tuple(tuple(bq * x - a for x in row) for row in pencil.numerators),
        tuple(tuple(bq * x for x in row) for row in pencil.denominators),
        pencil.scale,
    )


def positive_ratio_spy(seen: list):
    """`pencil.positive_ratio` that records each call's rows after checking they are all > 0."""
    def spy(rows, col_max):
        assert all(x > 0 for row in rows for x in row), rows
        seen.append(rows)
        return matrixgame.positive_ratio(rows, col_max)
    return spy


def assert_same_sign(pencil: GamePencil, z: Fraction) -> int:
    seen = []
    with mock.patch.object(pencil_mod, "positive_ratio", positive_ratio_spy(seen)):
        got = pencil.sign_at(z)
    assert len(seen) == 1
    assert got == matrix_game_sign(pencil.scaled_at(z)), (pencil, z)
    return got


class TestRouteEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(raw_pencils(), probe_points)
    @example(GamePencil(((0, 5), (3, -2)), ((1, 2), (2, 1)), 1), Fraction(1))
    @example(GamePencil(((IntPoly((0, 1)),),), ((IntPoly((0, 2)),),), 1), Fraction(7, 2))
    def test_raw_pencils(self, pencil, z):
        assert_same_sign(pencil, z)

    @settings(max_examples=60, deadline=None)
    @given(built_pencils(), probe_points)
    def test_built_pencils(self, pencil, z):
        assert_same_sign(pencil, z)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(raw_pencils(), built_pencils()), probe_points)
    def test_exact_roots(self, pencil, z):
        root = at_root(pencil, z)
        assert assert_same_sign(root, z) == 0
        # the value falls strictly in z, so the sign flips across the root
        step = Fraction(1, 4 * z.denominator)
        assert assert_same_sign(root, z - step) == 1
        assert assert_same_sign(root, z + step) == -1

    def test_fixture_pencils(self, fixture_docs):
        for name, doc in fixture_docs.items():
            game = doc.game
            pencils = [build_pencil(game, 1, LAM), build_pencil(game, 1, Fraction(1, 3))]
            if game.n_states > 1 and is_absorbing(game):
                pencils.append(live_pencil(AbsorbingGame(game), LAM))
            for pencil in pencils:
                for z in (Fraction(-5, 3), Fraction(1, 3), Fraction(1), Fraction(7, 3)):
                    assert_same_sign(pencil, z)


class TestShift:
    def test_profile_germ_pencils_shift_by_one(self, fixture_docs):
        for doc in fixture_docs.values():
            pencil = build_pencil(doc.game, 1, LAM)
            shift, lifted = pencil._lift(1)
            assert shift == 1
            assert lifted == tuple(tuple(x + 1 for x in row) for row in pencil.numerators)

    def test_integer_shift_is_one_minus_the_least_entry(self):
        pencil = GamePencil(((4, -2), (0, 7)), ((1, 3), (2, 2)), 5)
        # N - c*D at c = 1: 3, -5, -2, 5; at c = 3: 1, -11, -6, 1
        assert pencil._lift(1) == (6, ((10, 4), (6, 13)))
        assert pencil._lift(3)[0] == 12
        assert GamePencil(((4, 5),), ((1, 1),), 1)._lift(1) == (0, ((4, 5),))

    def test_germ_shift_reads_constant_terms_only(self):
        pencil = GamePencil(((IntPoly((2, -9)), IntPoly((0, 5))),),
                            ((IntPoly((1, 1)), IntPoly((0, 0, 3))),), 1)
        # constant terms of N - 2D: 0 and 0, whatever the higher orders
        assert pencil._lift(2)[0] == 1


def solve_spied(solve, *args):
    """A solve with every shift computation and every pivot-loop matrix recorded."""
    bounds, seen = [], []
    lift = GamePencil._lift

    def counted_lift(pencil, c):
        bounds.append(c)
        return lift(pencil, c)

    with mock.patch.object(GamePencil, "_lift", counted_lift), \
            mock.patch.object(pencil_mod, "positive_ratio", positive_ratio_spy(seen)):
        result = solve(*args)
    return result, bounds, seen


class TestHoist:
    def test_one_shift_per_limit_solve(self, fixture_docs):
        most = 0
        for name in ("two_state_2x2", "three_state_2x2", "absorbing_mix", "single_2x2"):
            result, bounds, seen = solve_spied(limit_value, fixture_docs[name].game, 1, 10)
            # a one-state game is answered exactly: no shift and no pivot loop
            assert bounds == ([] if name == "single_2x2" else [1]), name
            assert len(seen) == result.iterations, name
            most = max(most, result.iterations)
        # some solves stop on an exact root at once; the longest probes 10+ times
        assert most >= 10

    def test_one_shift_per_discounted_solve(self, fixture_docs):
        game = rand_game(random.Random(4), 4, 2, 2)
        for lam in (Fraction(1, 4), Fraction(1, 1000)):
            result, bounds, seen = solve_spied(discounted_value, game, 1, lam, 12)
            assert bounds == [1]
            assert len(seen) == result.iterations >= 12


def scaled_rewards(game: Game, factor: int) -> Game:
    rewards = [[[factor * g for g in row] for row in state] for state in game.rewards]
    return Game(rewards, game.transitions)


class TestCheckRoute:
    FIXTURES = ("two_state_2x2", "single_2x2", "absorbing_mix", "three_state_2x2", "big_match")

    def probed(self, game: Game) -> tuple[list, list]:
        """(probed z, computed bounds c) of the root check; every outcome must pass."""
        points, bounds = [], []
        sign_at, lift = GamePencil.sign_at, GamePencil._lift

        def seen_sign(pencil, z):
            points.append(Fraction(z))
            return sign_at(pencil, z)

        def seen_lift(pencil, c):
            bounds.append(c)
            return lift(pencil, c)

        with mock.patch.object(GamePencil, "sign_at", seen_sign), \
                mock.patch.object(GamePencil, "_lift", seen_lift):
            outcomes = run_invariant_checks(game, 1, seed=3)
        assert all(o.passed for o in outcomes), outcomes
        return points, bounds

    def test_rewards_times_seven_probe_above_one(self):
        bounds = []
        for name in self.FIXTURES:
            points, seen = self.probed(scaled_rewards(load_fixture(name).game, 7))
            assert points
            for z in points:
                assert max(1, math.ceil(z)) in seen
            bounds += seen
        assert max(bounds) > 1

    def test_rewards_times_minus_five_probe_below_zero(self):
        below = []
        for name in self.FIXTURES:
            points, bounds = self.probed(scaled_rewards(load_fixture(name).game, -5))
            assert set(bounds) == {1}
            below += [z for z in points if z < 0]
        assert below
