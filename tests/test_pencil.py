import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stochgame.absorbing import AbsorbingGame, is_absorbing, live_pencil
from stochgame.errors import ResourceCapError
from stochgame.gamecore import Game, StationaryStrategy, discounted_payoff
from stochgame.matrixgame import solve_matrix_game
from stochgame.pencil import (
    _IntegerSystem,
    build_pencil,
    payoff_denominator,
    payoff_numerator,
    pencil_matrix,
    pencil_matrix_kronecker,
    player1_profiles,
    player2_profiles,
    profile_row_index,
)
from stochgame.ratlinalg import LAM, RatMatrix, det

from bland_ref import plain_row
from gens import rand_game, rand_profile, rand_stochastic_matrix, rand_strategy
from pencil_refs import kronecker_by_permutations, two_pass_dets

from test_gamecore import cycle_game, one_state_game


def zero_reward_game(rng: random.Random) -> Game:
    game = rand_game(rng, 2, 2, 2)
    zeros = tuple(
        tuple(tuple(Fraction(0) for _ in row) for row in state) for state in game.rewards
    )
    return Game(zeros, game.transitions)


class TestDenominator:
    def test_single_state_is_lambda(self):
        game = one_state_game([[3, 1], [0, 2]])
        for lam in (Fraction(1, 5), Fraction(2, 3)):
            assert payoff_denominator(game, (0,), (1,), lam) == lam

    def test_full_discount_gives_identity(self):
        rng = random.Random(30)
        game = rand_game(rng, 3, 2, 2)
        assert payoff_denominator(game, (0, 1, 0), (1, 0, 1), 1) == 1

    def test_cycle_hand_value(self):
        assert payoff_denominator(cycle_game(), (0, 0), (0, 0), Fraction(1, 2)) == Fraction(3, 4)

    def test_ostrovski_lower_bound(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 4)
            p = rand_stochastic_matrix(rng, n)
            lam = Fraction(1, rng.randint(2, 50))
            m = RatMatrix(
                [
                    [Fraction(int(i == j)) - (1 - lam) * p.rows[i][j] for j in range(n)]
                    for i in range(n)
                ]
            )
            assert det(m) >= lam**n


class TestNumerator:
    def test_single_state(self):
        game = one_state_game([[3, 1], [0, 2]])
        lam = Fraction(1, 3)
        assert payoff_numerator(game, 1, (0,), (1,), lam) == lam * 1

    def test_zero_rewards_vanish(self):
        rng = random.Random(32)
        game = zero_reward_game(rng)
        for k in (1, 2):
            for _ in range(5):
                i_vec = rand_profile(rng, 2, 2)
                j_vec = rand_profile(rng, 2, 2)
                lam = Fraction(1, rng.randint(2, 7))
                assert payoff_numerator(game, k, i_vec, j_vec, lam) == 0

    def test_cycle_hand_value(self):
        num = payoff_numerator(cycle_game(), 1, (0, 0), (0, 0), Fraction(1, 2))
        assert num == Fraction(1, 2)
        den = payoff_denominator(cycle_game(), (0, 0), (0, 0), Fraction(1, 2))
        assert num / den == Fraction(2, 3)

    def test_state_index_checked(self):
        with pytest.raises(Exception):
            payoff_numerator(cycle_game(), 3, (0, 0), (0, 0), Fraction(1, 2))


class TestPencilMatrix:
    def test_single_state_entries_and_value(self):
        game = one_state_game([[3, 1], [0, 2]])
        lam = Fraction(1, 4)
        for z in (Fraction(0), Fraction(3, 2), Fraction(4)):
            built = pencil_matrix(game, 1, lam, z)
            expected = RatMatrix(
                [[lam * (game.rewards[0][i][j] - z) for j in range(2)] for i in range(2)]
            )
            assert built == expected
            assert solve_matrix_game(built).value == lam * (Fraction(3, 2) - z)

    def test_zero_rewards_at_zero_target(self):
        rng = random.Random(33)
        game = zero_reward_game(rng)
        built = pencil_matrix(game, 1, Fraction(1, 3), 0)
        assert all(x == 0 for row in built.rows for x in row)

    def test_big_match_spot_entries(self, fixture_docs):
        game = fixture_docs["big_match"].game
        lam = Fraction(1, 2)
        # profile (absorb, *, *) vs (match, *, *): system det lam**2, numerator lam**2
        assert payoff_denominator(game, (0, 0, 0), (0, 0, 0), lam) == Fraction(1, 4)
        assert payoff_numerator(game, 1, (0, 0, 0), (0, 0, 0), lam) == Fraction(1, 4)
        # profile (stay, *, *) vs (match, *, *): det lam**3, numerator 0
        assert payoff_denominator(game, (1, 0, 0), (0, 0, 0), lam) == Fraction(1, 8)
        assert payoff_numerator(game, 1, (1, 0, 0), (0, 0, 0), lam) == 0
        z = Fraction(1, 3)
        built = pencil_matrix(game, 1, lam, z)
        assert built.entry(0, 0) == Fraction(1, 4) - z * Fraction(1, 4)
        row = profile_row_index((1, 0, 0), 2)
        assert built.entry(row, 0) == 0 - z * Fraction(1, 8)

    def test_resource_cap(self):
        game = one_state_game([[3, 1], [0, 2]])
        with pytest.raises(ResourceCapError, match="cap"):
            pencil_matrix(game, 1, Fraction(1, 2), 0, max_entries=3)
        with pytest.raises(ResourceCapError):
            pencil_matrix_kronecker(game, 1, Fraction(1, 2), max_entries=3)

    def test_profile_enumeration_order(self):
        game = cycle_game()
        rows = list(player1_profiles(game))
        assert rows == [(0, 0)]
        rng = random.Random(34)
        game = rand_game(rng, 2, 3, 2)
        rows = list(player1_profiles(game))
        assert rows[0] == (0, 0) and rows[1] == (0, 1)  # state 1 most significant
        for idx, prof in enumerate(rows):
            assert profile_row_index(prof, 3) == idx
        cols = list(player2_profiles(game))
        for idx, prof in enumerate(cols):
            assert profile_row_index(prof, 2) == idx


class TestKroneckerConstruction:
    def test_single_state_identical(self):
        game = one_state_game([[3, 1], [0, 2]])
        lam = Fraction(2, 5)
        assert pencil_matrix_kronecker(game, 1, lam) == build_pencil(game, 1, lam)

    def test_zero_game(self):
        rng = random.Random(35)
        game = zero_reward_game(rng)
        built = pencil_matrix_kronecker(game, 2, Fraction(1, 3))
        assert all(x == 0 for row in built.numerators for x in row)

    def test_fixture_equivalence(self, fixture_docs):
        rng = random.Random(36)
        for name in ("two_state_2x2", "big_match", "cycle_mdp", "mdp_two_state"):
            game = fixture_docs[name].game
            k = rng.randint(1, game.n_states)
            lam = Fraction(1, rng.randint(2, 8))
            assert pencil_matrix_kronecker(game, k, lam) == build_pencil(game, k, lam)

    def test_random_equivalence(self):
        rng = random.Random(37)
        for _ in range(10):
            game = rand_game(rng, 2, rng.randint(1, 3), rng.randint(1, 3))
            k = rng.randint(1, 2)
            lam = Fraction(1, rng.randint(2, 9))
            assert pencil_matrix_kronecker(game, k, lam) == build_pencil(game, k, lam)


class TestMultilinearity:
    def test_determinants_mix_linearly(self):
        # both the system determinant and the Cramer numerator of a mixed
        # strategy are the profile-weighted sums of the pure ones
        rng = random.Random(38)
        for _ in range(8):
            game = rand_game(rng, 2, 2, 2)
            k = rng.randint(1, 2)
            x = rand_strategy(rng, 2, 2)
            j_vec = rand_profile(rng, 2, 2)
            lam = Fraction(1, rng.randint(2, 6))
            y = StationaryStrategy.pure(j_vec, 2)
            from stochgame.gamecore import expected_reward, transition_matrix

            q = transition_matrix(game, x, y)
            g = expected_reward(game, x, y)
            system = RatMatrix(
                [
                    [Fraction(int(l == t)) - (1 - lam) * q.rows[l][t] for t in range(2)]
                    for l in range(2)
                ]
            )
            mixed_den = det(system)
            mixed_num = det(system.replace_column(k, [lam * gv for gv in g]))
            total_den = Fraction(0)
            total_num = Fraction(0)
            for i_vec in player1_profiles(game):
                weight = x.rows[0][i_vec[0]] * x.rows[1][i_vec[1]]
                total_den += weight * payoff_denominator(game, i_vec, j_vec, lam)
                total_num += weight * payoff_numerator(game, k, i_vec, j_vec, lam)
            assert mixed_den == total_den
            assert mixed_num == total_num

    def test_pencil_row_mix(self):
        rng = random.Random(39)
        game = rand_game(rng, 2, 2, 2)
        k, lam, z = 1, Fraction(1, 5), Fraction(2, 7)
        pencil = build_pencil(game, k, lam)
        matrix = pencil.matrix_at(z)
        x = rand_strategy(rng, 2, 2)
        j_vec = rand_profile(rng, 2, 2)
        col = profile_row_index(j_vec, 2)
        mixed_entry = Fraction(0)
        for row, i_vec in enumerate(player1_profiles(game)):
            weight = x.rows[0][i_vec[0]] * x.rows[1][i_vec[1]]
            mixed_entry += weight * matrix.entry(row, col)
        y = StationaryStrategy.pure(j_vec, 2)
        from stochgame.gamecore import expected_reward, transition_matrix

        q = transition_matrix(game, x, y)
        g = expected_reward(game, x, y)
        system = RatMatrix(
            [
                [Fraction(int(l == t)) - (1 - lam) * q.rows[l][t] for t in range(2)]
                for l in range(2)
            ]
        )
        num = det(system.replace_column(k, [lam * gv for gv in g]))
        den = det(system)
        assert mixed_entry == num - z * den


def _primes_above(start: int, count: int) -> list[int]:
    found: list[int] = []
    m = start | 1
    while len(found) < count:
        if all(m % d for d in range(3, int(m**0.5) + 1, 2)):
            found.append(m)
        m += 2
    return found


# distinct primes, so every reward and every transition row of a drawn game
# has its own >= 30-bit denominator and the least common denominator L is
# the product of all of them
BIG_PRIMES = _primes_above(2**30, 24)
# 1 makes c = b - a vanish; 2**-1400 is an anchored-ladder rung
CROSS_CHECK_LAMBDAS = (
    Fraction(2, 5), Fraction(3, 7), Fraction(5, 6), Fraction(1), Fraction(1, 2**1400)
)


def prime_game(rng: random.Random, n: int, n1: int, n2: int) -> Game:
    """Game whose every reward and transition row has a denominator from BIG_PRIMES."""

    def reward() -> Fraction:
        den = rng.choice(BIG_PRIMES)
        return Fraction(rng.randint(-den, den), den)

    def transition_row() -> list[Fraction]:
        den = rng.choice(BIG_PRIMES)
        cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
        bounds = [0] + cuts + [den]
        return [Fraction(hi - lo, den) for lo, hi in zip(bounds, bounds[1:])]

    rewards = [[[reward() for _ in range(n2)] for _ in range(n1)] for _ in range(n)]
    transitions = [[[transition_row() for _ in range(n2)] for _ in range(n1)] for _ in range(n)]
    return Game(rewards, transitions)


@st.composite
def coprime_games(draw) -> Game:
    n = draw(st.integers(1, 3))
    n1 = draw(st.integers(1, 2))
    n2 = draw(st.integers(1, 3 if n < 3 else 2))
    primes = iter(draw(st.permutations(BIG_PRIMES)))

    def reward() -> Fraction:
        den = next(primes)
        return Fraction(draw(st.integers(-den, den)), den)

    def transition_row() -> list[Fraction]:
        den = next(primes)
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=n - 1, max_size=n - 1)))
        bounds = [0] + cuts + [den]
        return [Fraction(hi - lo, den) for lo, hi in zip(bounds, bounds[1:])]

    rewards = [[[reward() for _ in range(n2)] for _ in range(n1)] for _ in range(n)]
    transitions = [[[transition_row() for _ in range(n2)] for _ in range(n1)] for _ in range(n)]
    return Game(rewards, transitions)


class TestIntegerGridCrossChecks:
    """The integer grids against two routes that never scale to integers."""

    @settings(max_examples=25, deadline=None)
    @given(coprime_games())
    def test_grid_matches_kronecker_route(self, game):
        for lam in CROSS_CHECK_LAMBDAS:
            for k in range(1, game.n_states + 1):
                assert pencil_matrix_kronecker(game, k, lam) == build_pencil(game, k, lam)

    @settings(max_examples=12, deadline=None)
    @given(coprime_games())
    def test_grid_matches_discounted_payoff(self, game):
        n = game.n_states
        for lam in CROSS_CHECK_LAMBDAS:
            for k in range(1, n + 1):
                at_zero = pencil_matrix(game, k, lam, 0)
                at_one = pencil_matrix(game, k, lam, 1)
                for r, i_vec in enumerate(player1_profiles(game)):
                    x = StationaryStrategy.pure(i_vec, game.n_actions1)
                    for c, j_vec in enumerate(player2_profiles(game)):
                        y = StationaryStrategy.pure(j_vec, game.n_actions2)
                        num = payoff_numerator(game, k, i_vec, j_vec, lam)
                        den = payoff_denominator(game, i_vec, j_vec, lam)
                        assert den >= lam**n
                        assert num == discounted_payoff(game, x, y, lam)[k - 1] * den
                        assert at_zero.entry(r, c) == num
                        assert at_one.entry(r, c) == num - den


REFERENCE_LAMBDAS = (Fraction(2, 5), Fraction(1), Fraction(1, 1000))


def absorbing_copy(game: Game) -> Game:
    """The game with states 2..n made absorbing: zero transition entries."""
    n = game.n_states
    transitions = [game.transitions[0]] + [
        [[[Fraction(int(t == l)) for t in range(n)] for _ in row] for row in game.transitions[l]]
        for l in range(1, n)
    ]
    return Game(game.rewards, transitions)


@st.composite
def reference_games(draw) -> Game:
    """1-4-state games, half with >= 30-bit prime denominators, half absorbing."""
    n = draw(st.integers(1, 4))
    n1 = draw(st.integers(1, 2))
    n2 = draw(st.integers(1, 3 if n < 3 else 2))
    if draw(st.booleans()):
        primes = st.sampled_from(BIG_PRIMES)

        def reward() -> Fraction:
            den = draw(primes)
            return Fraction(draw(st.integers(-den, den)), den)

        def transition_row() -> list[Fraction]:
            den = draw(primes)
            cuts = sorted(draw(st.lists(st.integers(0, den), min_size=n - 1, max_size=n - 1)))
            bounds = [0] + cuts + [den]
            return [Fraction(hi - lo, den) for lo, hi in zip(bounds, bounds[1:])]

        rewards = [[[reward() for _ in range(n2)] for _ in range(n1)] for _ in range(n)]
        transitions = [
            [[transition_row() for _ in range(n2)] for _ in range(n1)] for _ in range(n)
        ]
        game = Game(rewards, transitions)
    else:
        game = rand_game(random.Random(draw(st.integers(0, 2**32))), n, n1, n2)
    return absorbing_copy(game) if draw(st.booleans()) else game


class TestAgainstKeptReferences:
    """One bordered Bareiss pass and shared block minors against the routes they replaced."""

    @settings(max_examples=30, deadline=None)
    @given(reference_games())
    def test_bordered_dets_match_two_eliminations(self, game):
        for lam in REFERENCE_LAMBDAS + (LAM,):
            ints = _IntegerSystem(game, lam)
            for k in range(1, game.n_states + 1):
                for i_vec in player1_profiles(game):
                    for j_vec in player2_profiles(game):
                        assert ints.dets(k, i_vec, j_vec) == two_pass_dets(ints, k, i_vec, j_vec)

    @settings(max_examples=20, deadline=None)
    @given(reference_games(), st.fractions(min_value=-2, max_value=2, max_denominator=2**40))
    def test_block_minors_match_permutation_expansion(self, game, z):
        for lam in REFERENCE_LAMBDAS:
            for k in range(1, game.n_states + 1):
                blockwise = pencil_matrix_kronecker(game, k, lam)
                assert blockwise.matrix_at(z) == kronecker_by_permutations(game, k, lam, z)

    def test_integer_block_minors_on_prime_denominators(self):
        # a 4-state game whose rewards and transition rows carry >= 30-bit
        # prime denominators, so D = b*L runs to hundreds of bits; z on
        # both sides of [0, 1], lam = 1 (c = 0) and a small rate
        game = prime_game(random.Random(4242), 4, 2, 2)
        for lam in (Fraction(1), Fraction(1, 1000)):
            for k in range(1, 5):
                blockwise = pencil_matrix_kronecker(game, k, lam)
                assert blockwise == build_pencil(game, k, lam)
                for z in (Fraction(-7, 3), Fraction(19, 8)):
                    assert blockwise.matrix_at(z) == kronecker_by_permutations(game, k, lam, z)

    def test_first_bordered_pivot_zero(self):
        # at lam = 1 the system is diagonal, so for k = 1 the bordered
        # matrix starts with column 2 of A: a zero pivot and one row swap
        game = rand_game(random.Random(61), 3, 2, 2)
        ints = _IntegerSystem(game, Fraction(1))
        i_vec, j_vec = (0, 1, 1), (1, 0, 1)
        assert ints._bordered_row(1, 0, 0, 1)[0] == 0
        num, den = ints.dets(1, i_vec, j_vec)
        assert (num, den) == two_pass_dets(ints, 1, i_vec, j_vec)
        assert den == ints.scale
        g = game.rewards[0][0][1]
        assert Fraction(num, ints.scale) == g


class TestGermScaledAt:
    """The fused germ step in `scaled_at` against the plain q*num - p*den."""

    ZS = (Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(5, 2), Fraction(2**40 + 1, 2**41))

    @staticmethod
    def plain_at(pencil, z):
        return [plain_row(num_row, den_row, z.denominator, z.numerator, 1)
                for num_row, den_row in zip(pencil.numerators, pencil.denominators)]

    def test_profile_pencils(self, fixture_docs):
        for doc in fixture_docs.values():
            game = doc.game
            for k in range(1, game.n_states + 1):
                pencil = build_pencil(game, k, LAM)
                for z in self.ZS:
                    assert pencil.scaled_at(z) == self.plain_at(pencil, z)

    def test_live_pencils(self, fixture_docs):
        games = [doc.game for doc in fixture_docs.values() if is_absorbing(doc.game)]
        assert games
        for game in games:
            pencil = live_pencil(AbsorbingGame.from_game(game), LAM)
            for z in self.ZS:
                assert pencil.scaled_at(z) == self.plain_at(pencil, z)
