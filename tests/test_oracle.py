import random
from fractions import Fraction

import pytest

from stochgame.errors import GameValidationError
from stochgame.gamecore import StationaryStrategy, discounted_payoff
from stochgame.oracle import (
    mdp_brute_force,
    mdp_limit_brute_force,
    shapley_auxiliary,
    shapley_operator,
    value_iteration,
)
from gens import rand_fraction, rand_game, rand_one_player_game

from test_gamecore import cycle_game, one_state_game


def sup_dist(u, v) -> Fraction:
    return max(abs(a - b) for a, b in zip(u, v))


class TestShapleyAuxiliary:
    def test_entries_formula(self, fixture_docs):
        game = fixture_docs["two_state_2x2"].game
        lam = Fraction(1, 3)
        u = (Fraction(1, 2), Fraction(-1, 4))
        aux = shapley_auxiliary(game, lam, u, 2)
        l = 1
        for i in range(2):
            for j in range(2):
                expected = lam * game.rewards[l][i][j] + (1 - lam) * sum(
                    game.transitions[l][i][j][t] * u[t] for t in range(2)
                )
                assert aux.entry(i, j) == expected

    def test_dimension_mismatch(self, fixture_docs):
        game = fixture_docs["two_state_2x2"].game
        with pytest.raises(GameValidationError):
            shapley_operator(game, Fraction(1, 2), (Fraction(0),))


class TestShapleyOperator:
    def test_myopic_single_state(self):
        game = one_state_game([[3, 1], [0, 2]])
        assert shapley_operator(game, 1, (0,)) == (Fraction(3, 2),)

    def test_constant_fixed_point(self, fixture_docs):
        game = fixture_docs["single_const"].game
        assert shapley_operator(game, Fraction(1, 3), (5,)) == (Fraction(5),)

    def test_contraction(self):
        rng = random.Random(50)
        for _ in range(10):
            game = rand_game(rng, 2, 2, 2)
            lam = Fraction(1, rng.randint(2, 6))
            u = tuple(rand_fraction(rng) for _ in range(2))
            w = tuple(rand_fraction(rng) for _ in range(2))
            assert sup_dist(
                shapley_operator(game, lam, u), shapley_operator(game, lam, w)
            ) <= (1 - lam) * sup_dist(u, w)

    def test_monotonicity(self):
        rng = random.Random(51)
        for _ in range(10):
            game = rand_game(rng, 2, 2, 2)
            lam = Fraction(1, rng.randint(2, 6))
            u = tuple(rand_fraction(rng) for _ in range(2))
            bump = tuple(Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(2))
            up = tuple(a + b for a, b in zip(u, bump))
            fu = shapley_operator(game, lam, u)
            fup = shapley_operator(game, lam, up)
            assert all(a <= b for a, b in zip(fu, fup))

    def test_big_match_fixed_point(self, fixture_docs):
        game = fixture_docs["big_match"].game
        u = (Fraction(1, 2), Fraction(1), Fraction(0))
        for lam in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 16)):
            assert shapley_operator(game, lam, u) == u


class TestValueIteration:
    def test_constant_game_exact(self, fixture_docs):
        game = fixture_docs["single_const"].game
        u = value_iteration(game, Fraction(1, 3), Fraction(1, 2**10))
        assert u == (5,)

    def test_single_state_within_tol(self):
        game = one_state_game([[3, 1], [0, 2]])
        tol = Fraction(1, 2**12)
        u = value_iteration(game, Fraction(1, 4), tol)
        assert abs(u[0] - Fraction(3, 2)) <= tol

    def test_full_discount_is_exact_myopic(self):
        game = one_state_game([[3, 1], [0, 2]])
        assert value_iteration(game, 1, Fraction(1, 2**8)) == (Fraction(3, 2),)

    def test_cycle_polishes_to_exact(self, fixture_docs):
        game = fixture_docs["cycle_mdp"].game
        u = value_iteration(game, Fraction(1, 2), Fraction(1, 2**10))
        assert u == (Fraction(2, 3), Fraction(1, 3))

    def test_fixed_point_residual(self, fixture_docs):
        tol = Fraction(1, 2**10)
        for name in ("two_state_2x2", "big_match", "absorbing_mix"):
            game = fixture_docs[name].game
            lam = Fraction(1, 4)
            u = value_iteration(game, lam, tol)
            assert sup_dist(shapley_operator(game, lam, u), u) <= 2 * tol

    def test_tolerance_validation(self):
        with pytest.raises(GameValidationError):
            value_iteration(cycle_game(), Fraction(1, 2), 0)


class TestMdpBruteForce:
    def test_both_single_action(self, fixture_docs):
        game = fixture_docs["cycle_mdp"].game
        assert mdp_brute_force(game, 1, Fraction(1, 2)) == Fraction(2, 3)
        assert mdp_brute_force(game, 2, Fraction(1, 2)) == Fraction(1, 3)

    def test_matches_profile_enumeration(self, fixture_docs):
        game = fixture_docs["mdp_two_state"].game
        lam = Fraction(1, 2)
        y = StationaryStrategy.pure((0, 0), 1)
        best = max(
            discounted_payoff(
                game, StationaryStrategy.pure(prof, 2), y, lam
            )[0]
            for prof in [(0, 0), (0, 1), (1, 0), (1, 1)]
        )
        assert mdp_brute_force(game, 1, lam) == best

    def test_minimizer_side(self):
        rng = random.Random(52)
        game = rand_one_player_game(rng, 2, 3, maximizer=False)
        lam = Fraction(1, 3)
        x = StationaryStrategy.pure((0, 0), 1)
        values = [
            discounted_payoff(game, x, StationaryStrategy.pure(prof, 3), lam)[0]
            for prof in [(a, b) for a in range(3) for b in range(3)]
        ]
        assert mdp_brute_force(game, 1, lam) == min(values)

    def test_constant_rewards(self, fixture_docs):
        # constant-reward two-player game is not one-player: rejected
        with pytest.raises(GameValidationError):
            mdp_brute_force(fixture_docs["single_const"].game, 1, Fraction(1, 2))

    def test_agrees_with_value_iteration(self, fixture_docs):
        game = fixture_docs["mdp_two_state"].game
        lam = Fraction(1, 4)
        tol = Fraction(1, 2**12)
        exact = mdp_brute_force(game, 1, lam)
        approx = value_iteration(game, lam, tol)[0]
        assert abs(exact - approx) <= tol

    def test_agrees_with_bisection(self, fixture_docs):
        from stochgame.solver import discounted_value

        game = fixture_docs["mdp_two_state"].game
        lam = Fraction(1, 4)
        exact = mdp_brute_force(game, 1, lam)
        result = discounted_value(game, 1, lam, 10)
        assert abs(result.value_estimate - exact) <= result.radius


class TestMdpLimitBruteForce:
    def test_cycle_limit(self, fixture_docs):
        ref = mdp_limit_brute_force(fixture_docs["cycle_mdp"].game, 1)
        assert ref == Fraction(1, 2)

    def test_two_state_mdp_limit(self, fixture_docs):
        ref = mdp_limit_brute_force(fixture_docs["mdp_two_state"].game, 1)
        assert ref == Fraction(5, 8)

    def test_rejects_two_player_games(self, fixture_docs):
        with pytest.raises(GameValidationError):
            mdp_limit_brute_force(fixture_docs["two_state_2x2"].game, 1)
