import random
from fractions import Fraction

import pytest

from stochgame.errors import GameValidationError
from stochgame.gamecore import Game, affine_normalize, check_discount
from stochgame.pencil import build_pencil, payoff_denominator, profile_row_index
from stochgame.ratlinalg import RatMatrix

from chain_refs import StationaryStrategy, discounted_payoff, expected_reward, transition_matrix
from gens import rand_game, rand_profile, rand_strategy
from mdp_refs import pure


def cycle_game() -> Game:
    """Two-state deterministic cycle with rewards (1, 0), single actions."""
    return Game(
        rewards=[[[1]], [[0]]],
        transitions=[[[[0, 1]]], [[[1, 0]]]],
    )


def pure_pair(game: Game, i_vec, j_vec) -> tuple[StationaryStrategy, StationaryStrategy]:
    return pure(i_vec, game.n_actions1), pure(j_vec, game.n_actions2)


def grid_numerator(game: Game, k: int, i_vec, j_vec, lam) -> Fraction:
    """A profile pair's Cramer numerator, read from the pencil's numerator grid."""
    pencil = build_pencil(game, k, lam)
    r = profile_row_index(i_vec, game.n_actions1)
    c = profile_row_index(j_vec, game.n_actions2)
    return Fraction(pencil.numerators[r][c], pencil.scale)


def uniform(n_states: int, n_actions: int) -> StationaryStrategy:
    return StationaryStrategy([[Fraction(1, n_actions)] * n_actions] * n_states)


def one_state_game(payoff_rows) -> Game:
    n_i = len(payoff_rows)
    n_j = len(payoff_rows[0])
    return Game(
        rewards=[payoff_rows],
        transitions=[[[[1] for _ in range(n_j)] for _ in range(n_i)]],
    )


class TestValidation:
    def test_row_sum_violation_names_indices(self):
        with pytest.raises(GameValidationError, match=r"state 1, i 1, j 1.*99/100"):
            Game(rewards=[[[0]]], transitions=[[[["99/100"]]]])

    def test_negative_probability(self):
        with pytest.raises(GameValidationError, match="negative"):
            Game(
                rewards=[[[0]], [[0]]],
                transitions=[[[["3/2", "-1/2"]]], [[[0, 1]]]],
            )

    def test_wrong_target_count(self):
        with pytest.raises(GameValidationError, match="targets"):
            Game(rewards=[[[0]], [[0]]], transitions=[[[[1]]], [[[0, 1]]]])

    def test_discount_range(self):
        assert check_discount("1/3") == Fraction(1, 3)
        assert check_discount(1) == 1
        for bad in (0, Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(GameValidationError):
                check_discount(bad)

    def test_strategy_rows_must_be_distributions(self):
        with pytest.raises(GameValidationError, match="sums"):
            StationaryStrategy([[Fraction(1, 2), Fraction(1, 3)]])
        with pytest.raises(GameValidationError, match="negative"):
            StationaryStrategy([[Fraction(3, 2), Fraction(-1, 2)]])

    def test_profile_validation(self):
        game = one_state_game([[1, 0], [0, 1]])
        x, y = pure_pair(game, (0,), (1,))
        assert transition_matrix(game, x, y) == RatMatrix([[1]])
        with pytest.raises(GameValidationError, match="out of range"):
            pure((2,), game.n_actions1)
        with pytest.raises(GameValidationError, match="state count"):
            transition_matrix(game, pure((0, 0), game.n_actions1), y)

    def test_strategy_game_shape_mismatch(self):
        game = one_state_game([[1, 0], [0, 1]])
        bad = StationaryStrategy([[1]])
        with pytest.raises(GameValidationError):
            transition_matrix(game, bad, bad)


class TestTransitionMatrix:
    def test_pure_profile_reads_kernel(self, fixture_docs):
        game = fixture_docs["switcher"].game
        x, y = pure_pair(game, (0, 0), (0, 0))
        q = transition_matrix(game, x, y)
        assert q == RatMatrix([[0, 1], [1, 0]])

    def test_single_state(self):
        game = one_state_game([[1, 0], [0, 1]])
        x = uniform(1, 2)
        assert transition_matrix(game, x, x) == RatMatrix([[1]])

    def test_uniform_mixes_average_the_pure_kernels(self, fixture_docs):
        game = fixture_docs["two_state_2x2"].game
        xu = uniform(2, 2)
        yu = uniform(2, 2)
        # oracle: average the four pure-action rows per state by hand
        expected = []
        for l in range(2):
            row = [Fraction(0), Fraction(0)]
            for i in range(2):
                for j in range(2):
                    for t in range(2):
                        row[t] += Fraction(1, 4) * game.transitions[l][i][j][t]
            expected.append(row)
        assert transition_matrix(game, xu, yu) == RatMatrix(expected)

    def test_rows_sum_to_one_for_random_strategies(self):
        rng = random.Random(20)
        for _ in range(20):
            game = rand_game(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
            x = rand_strategy(rng, game.n_states, game.n_actions1)
            y = rand_strategy(rng, game.n_states, game.n_actions2)
            q = transition_matrix(game, x, y)
            assert all(sum(row) == 1 for row in q.rows)


class TestExpectedReward:
    def test_pure_profile_reads_rewards(self, fixture_docs):
        game = fixture_docs["two_state_2x2"].game
        x, y = pure_pair(game, (1, 0), (0, 1))
        g = expected_reward(game, x, y)
        assert g == (game.rewards[0][1][0], game.rewards[1][0][1])

    def test_constant_rewards(self, fixture_docs):
        game = fixture_docs["single_const"].game
        rng = random.Random(21)
        for _ in range(5):
            x = rand_strategy(rng, 1, 2)
            y = rand_strategy(rng, 1, 2)
            assert expected_reward(game, x, y) == (5,)

    def test_uniform_average(self):
        game = one_state_game([[3, 1], [0, 2]])
        u = uniform(1, 2)
        assert expected_reward(game, u, u) == (Fraction(3, 2),)


class TestDiscountedPayoff:
    def test_constant_single_state(self):
        game = one_state_game([["5/3"]])
        x = pure((0,), 1)
        for lam in (Fraction(1, 7), Fraction(1, 2), Fraction(1)):
            assert discounted_payoff(game, x, x, lam) == (Fraction(5, 3),)

    def test_cycle_hand_values(self):
        game = cycle_game()
        x = pure((0, 0), 1)
        assert discounted_payoff(game, x, x, Fraction(1, 2)) == (
            Fraction(2, 3),
            Fraction(1, 3),
        )

    def test_myopic_at_full_discount(self):
        rng = random.Random(22)
        game = rand_game(rng, 2, 2, 2)
        x = rand_strategy(rng, 2, 2)
        y = rand_strategy(rng, 2, 2)
        assert discounted_payoff(game, x, y, 1) == expected_reward(game, x, y)

    def test_fixed_point_identity(self):
        rng = random.Random(23)
        for _ in range(10):
            game = rand_game(rng, rng.randint(1, 3), 2, 2)
            x = rand_strategy(rng, game.n_states, 2)
            y = rand_strategy(rng, game.n_states, 2)
            lam = Fraction(1, rng.randint(2, 9))
            gamma = discounted_payoff(game, x, y, lam)
            q = transition_matrix(game, x, y)
            g = expected_reward(game, x, y)
            flow = (q @ RatMatrix([[v] for v in gamma])).column(0)
            assert gamma == tuple(
                lam * g[l] + (1 - lam) * flow[l] for l in range(game.n_states)
            )

    def test_cramer_ratio_identity(self):
        rng = random.Random(24)
        for _ in range(10):
            game = rand_game(rng, rng.randint(1, 3), 2, 2)
            i_vec = rand_profile(rng, game.n_states, 2)
            j_vec = rand_profile(rng, game.n_states, 2)
            lam = Fraction(1, rng.randint(2, 9))
            x, y = pure_pair(game, i_vec, j_vec)
            gamma = discounted_payoff(game, x, y, lam)
            for k in range(1, game.n_states + 1):
                num = grid_numerator(game, k, i_vec, j_vec, lam)
                den = payoff_denominator(game, i_vec, j_vec, lam)
                assert gamma[k - 1] * den == num

    def test_multilinearity_in_one_state(self):
        rng = random.Random(25)
        game = rand_game(rng, 2, 3, 2)
        y = rand_strategy(rng, 2, 2)
        a = rand_strategy(rng, 2, 3)
        b = rand_strategy(rng, 2, 3)
        alpha = Fraction(2, 5)
        mixed_rows = [
            tuple(alpha * p + (1 - alpha) * q for p, q in zip(a.rows[0], b.rows[0])),
            a.rows[1],
        ]
        mixed = StationaryStrategy(mixed_rows)
        b_swapped = StationaryStrategy([b.rows[0], a.rows[1]])
        qa = transition_matrix(game, a, y)
        qb = transition_matrix(game, b_swapped, y)
        qm = transition_matrix(game, mixed, y)
        for l in range(2):
            for t in range(2):
                assert qm.rows[l][t] == alpha * qa.rows[l][t] + (1 - alpha) * qb.rows[l][t]
        ga = expected_reward(game, a, y)
        gb = expected_reward(game, b_swapped, y)
        gm = expected_reward(game, mixed, y)
        assert gm == tuple(alpha * u + (1 - alpha) * v for u, v in zip(ga, gb))


class TestAffineNormalize:
    def test_zero_one_rewards_unchanged(self, fixture_docs):
        game = fixture_docs["single_mp"].game
        ngame, c, d = affine_normalize(game)
        assert ngame == game and c == 1 and d == 0

    def test_constant_game(self, fixture_docs):
        game = fixture_docs["single_const"].game
        ngame, c, d = affine_normalize(game)
        assert ngame.min_reward() == 0 and ngame.max_reward() == 0
        assert c * ngame.rewards[0][0][0] + d == 5

    def test_two_point_map(self):
        game = one_state_game([[-1, 3], [3, -1]])
        ngame, c, d = affine_normalize(game)
        assert {ngame.min_reward(), ngame.max_reward()} == {Fraction(0), Fraction(1)}
        assert c == 4 and d == -1

    def test_payoff_equivariance(self):
        rng = random.Random(26)
        for _ in range(8):
            game = rand_game(rng, 2, 2, 2)
            ngame, c, d = affine_normalize(game)
            x = rand_strategy(rng, 2, 2)
            y = rand_strategy(rng, 2, 2)
            lam = Fraction(1, rng.randint(2, 6))
            raw = discounted_payoff(game, x, y, lam)
            normalized = discounted_payoff(ngame, x, y, lam)
            assert raw == tuple(c * v + d for v in normalized)
