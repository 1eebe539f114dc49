import random
from fractions import Fraction

import pytest

from stochgame import Game
from stochgame.errors import GameValidationError
from stochgame.matrixgame import solve_matrix_game
from stochgame.pencil import build_pencil
from stochgame.ratlinalg import LAM, sign
from stochgame.solver import _bisect, _normalized, discounted_value, limit_value

from absorbed_ref import assert_same_answer
from gens import rand_absorbing_game, rand_game
from ladder import (
    anchor_pencils,
    anchor_rungs,
    anchored_limit_value,
    anchored_sign,
    lambda_r_exponent,
    shallow_ladder_sign,
)
from mdp_refs import mdp_limit_brute_force

from test_gamecore import cycle_game, one_state_game


class TestPencilValue:
    def test_single_state_reduction(self):
        game = one_state_game([[3, 1], [0, 2]])
        val_g = Fraction(3, 2)
        for lam in (Fraction(1, 4), Fraction(2, 3)):
            pencil = build_pencil(game, 1, lam)
            for z in (Fraction(0), Fraction(1), val_g):
                assert pencil.value_at(z) == lam * (val_g - z)
        assert build_pencil(game, 1, Fraction(1, 4)).value_at(val_g) == 0

    def test_large_target_is_negative(self):
        rng = random.Random(40)
        game = rand_game(rng, 2, 2, 2, reward_lo=-2, reward_hi=2)
        z = game.max_reward() + 1
        assert build_pencil(game, 1, Fraction(1, 3)).value_at(z) < 0

    def test_strict_decrease_quantified(self):
        rng = random.Random(41)
        for _ in range(15):
            game = rand_game(rng, 2, 2, 2, reward_lo=0, reward_hi=2)
            lam = Fraction(1, rng.randint(2, 6))
            z1 = Fraction(rng.randint(0, 4), rng.randint(1, 5))
            z2 = z1 + Fraction(rng.randint(1, 3), rng.randint(1, 4))
            pencil = build_pencil(game, 1, lam)
            v1 = solve_matrix_game(pencil.matrix_at(z1)).value
            v2 = solve_matrix_game(pencil.matrix_at(z2)).value
            assert v1 - v2 >= (z2 - z1) * lam**game.n_states


class TestDiscountedValue:
    def test_single_state_converges_to_matrix_value(self):
        game = one_state_game([[3, 1], [0, 2]])
        result = discounted_value(game, 1, Fraction(1, 4), 10)
        assert abs(result.value_estimate - Fraction(3, 2)) <= result.radius
        assert result.radius <= Fraction(1, 2**10)

    def test_constant_game_is_exact(self, fixture_docs):
        game = fixture_docs["single_const"].game
        result = discounted_value(game, 1, Fraction(1, 3), 8)
        assert result.value_estimate == 5
        assert result.radius <= Fraction(1, 2**8)

    def test_big_match_hits_exact_root(self, fixture_docs):
        game = fixture_docs["big_match"].game
        result = discounted_value(game, 1, Fraction(1, 4), 10)
        assert result.value_estimate == Fraction(1, 2)
        assert result.radius == 0
        assert result.iterations == 1

    def test_cycle_value(self, fixture_docs):
        game = fixture_docs["cycle_mdp"].game
        result = discounted_value(game, 1, Fraction(1, 2), 12)
        assert abs(result.value_estimate - Fraction(2, 3)) <= result.radius

    def test_bracketing_discipline(self, fixture_docs):
        game = fixture_docs["two_state_2x2"].game
        result = discounted_value(game, 1, Fraction(1, 3), 8)
        lo, hi = Fraction(0), Fraction(1)
        prev_width = hi - lo
        for z, s in result.trace:
            assert z == (lo + hi) / 2
            if s >= 0:
                lo = z
            if s <= 0:
                hi = z
            assert hi - lo <= prev_width / 2
            prev_width = hi - lo
        assert result.value_estimate == result.scale * lo + result.offset

    def test_reward_span_above_one_keeps_radius(self):
        # span is 4 here, so two extra iterations are needed for 2^-r.  State
        # 1 moves to state 2 (absorbing, same rewards) with probability 1/2,
        # so it is bisected, and both states are worth val(g) = 8/5
        g = [[4, 1], [0, 2]]
        half = [Fraction(1, 2), Fraction(1, 2)]
        stay = [0, 1]
        game = Game([g, g], [[[half] * 2] * 2, [[stay] * 2] * 2])
        result = discounted_value(game, 1, Fraction(1, 2), 6)
        assert result.radius <= Fraction(1, 2**6)
        assert result.iterations == 8
        assert abs(result.value_estimate - Fraction(8, 5)) <= result.radius

    def test_precision_validation(self):
        with pytest.raises(GameValidationError):
            discounted_value(cycle_game(), 1, Fraction(1, 2), -1)

    def test_matches_fraction_value_route_on_random_games(self):
        # signs read from the integer grid == signs of the rational game values;
        # an absorbing start (every one-state game) is answered exactly
        rng = random.Random(45)
        for trial in range(15):
            n_states = trial % 3 + 1
            actions = (rng.randint(1, 3), rng.randint(1, 3)) if n_states == 1 else (2, 2)
            game = rand_game(rng, n_states, *actions)
            k = rng.randint(1, n_states)
            r = 8
            ngame, scale, offset, r_eff = _normalized(game, r)
            for lam in (Fraction(1, 4), Fraction(2, 3), Fraction(1, 9), Fraction(1)):
                pencil = build_pencil(ngame, k, lam)
                reference = _bisect(
                    lambda z: sign(solve_matrix_game(pencil.matrix_at(z)).value),
                    r_eff, scale, offset,
                )
                assert_same_answer(discounted_value(game, k, lam, r), reference, game, k)


class TestLimitSign:
    def test_single_state_signs(self):
        germs = build_pencil(one_state_game([[3, 1], [0, 2]]), 1, LAM)
        val_g = Fraction(3, 2)
        assert germs.sign_at(val_g - 1) == 1
        assert germs.sign_at(val_g + 1) == -1
        assert germs.sign_at(val_g) == 0

    def test_rewards_below_half_make_one_negative(self):
        rng = random.Random(42)
        game = rand_game(rng, 2, 2, 2, reward_lo=0, reward_hi=1, max_den=2)
        halved = type(game)(
            tuple(tuple(tuple(x / 2 for x in row) for row in s) for s in game.rewards),
            game.transitions,
        )
        assert build_pencil(halved, 1, LAM).sign_at(1) == -1

    def test_shallow_comparison_on_small_game(self):
        game = one_state_game([[1, 0], [0, 1]])
        z = Fraction(1, 4)
        shallow, _ = shallow_ladder_sign(game, 1, z)
        anchored = anchored_sign(anchor_pencils(game, 1, 4), z)
        exact = build_pencil(game, 1, LAM).sign_at(z)
        assert shallow == anchored == exact == 1
        assert anchor_rungs(game, 4)[0] == 40

    def test_shallow_ladder_transient_sign_is_caught(self, fixture_docs):
        # the depth-1 heuristic stabilizes on a wrong transient sign here;
        # the exact sign and the anchored ladder both give the true one
        game = fixture_docs["cycle_mdp"].game
        z = Fraction(17, 32)
        shallow, depth = shallow_ladder_sign(game, 1, z)
        assert shallow == 1  # transient: 1/(2 - lam) > z only above lam = 2/17
        assert build_pencil(game, 1, LAM).sign_at(z) == -1
        assert anchored_sign(anchor_pencils(game, 1, 8), z) == -1


class TestLimitValue:
    def test_single_state(self):
        game = one_state_game([[3, 1], [0, 2]])
        result = limit_value(game, 1, 8)
        assert abs(result.value_estimate - Fraction(3, 2)) <= result.radius
        assert result.radius <= Fraction(1, 2**8)

    def test_big_match(self, fixture_docs):
        result = limit_value(fixture_docs["big_match"].game, 1, 10)
        assert result.value_estimate == Fraction(1, 2)
        assert result.trace == ((Fraction(1, 2), 0),) and result.radius == 0

    def test_cycle_limit_is_half(self, fixture_docs):
        # discounted value 1/(2 - lam) tends to 1/2
        result = limit_value(fixture_docs["cycle_mdp"].game, 1, 8)
        assert abs(result.value_estimate - Fraction(1, 2)) <= Fraction(1, 2**8)

    def test_mdp_agrees_with_brute_force(self, fixture_docs):
        game = fixture_docs["mdp_two_state"].game
        result = limit_value(game, 1, 10)
        reference = mdp_limit_brute_force(game, 1)
        assert abs(result.value_estimate - reference) <= result.radius
        # hand-derived limit: the best policy cycles both states evenly,
        # averaging rewards 3/4 and 1/2
        assert reference == Fraction(5, 8)

    def test_sign_stability_after_stabilization(self, fixture_docs):
        # rungs below the anchored ladder's window keep the exact sign
        game = fixture_docs["two_state_2x2"].game
        deepest = anchor_rungs(game, 4)[-1]
        germs = build_pencil(game, 1, LAM)
        rungs = [build_pencil(game, 1, Fraction(1, 2**extra))
                 for extra in range(deepest + 1, deepest + 6)]
        for z in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            exact = germs.sign_at(z)
            for pencil in rungs:
                deeper = pencil.value_at(z)
                s = (deeper > 0) - (deeper < 0)
                assert s == exact

    def test_matches_anchored_ladder_on_random_games(self):
        # the exact sign and the anchored ladder give bit-identical runs; an
        # absorbing start is answered exactly inside the ladder's enclosure
        rng = random.Random(44)
        for trial in range(48):
            kind = trial % 4
            if kind == 0:
                game = rand_game(rng, 1, rng.randint(1, 3), rng.randint(1, 3))
            elif kind == 1:
                game = rand_game(rng, 2, rng.randint(1, 2), rng.randint(1, 2))
            elif kind == 2:
                game = rand_absorbing_game(rng, rng.randint(2, 3), rng.randint(1, 2), rng.randint(1, 2))
            else:
                game = rand_game(rng, 2, 2, 2)
            k = rng.randint(1, game.n_states)
            assert_same_answer(limit_value(game, k, 8), anchored_limit_value(game, k, 8), game, k)

    def test_four_state_pin(self):
        # recorded under the pure Bland pivot loop, which took about 90 s on a
        # 2-vCPU VM; with Dantzig's entering rule it took 0.9-1.2 s there, and
        # with the first pivot at the pure minimax column it takes 0.40-0.55 s
        result = limit_value(rand_game(random.Random(4), 4, 2, 2), 1, 10)
        assert (result.value_estimate, result.radius) == (Fraction(-2073, 4096), Fraction(3, 4096))
        assert result.trace == (
            (Fraction(1, 2), -1), (Fraction(1, 4), 1), (Fraction(3, 8), 1),
            (Fraction(7, 16), -1), (Fraction(13, 32), 1), (Fraction(27, 64), -1),
            (Fraction(53, 128), 1), (Fraction(107, 256), -1), (Fraction(213, 512), -1),
            (Fraction(425, 1024), 1), (Fraction(851, 2048), 1), (Fraction(1703, 4096), -1),
            (Fraction(3405, 8192), 1),
        )


class TestLambdaRExponent:
    def test_monotone_in_precision(self, fixture_docs):
        game = fixture_docs["two_state_2x2"].game
        e4 = lambda_r_exponent(game, 4)
        e8 = lambda_r_exponent(game, 8)
        assert 0 < e4 < e8

    def test_known_value_single_state(self):
        game = one_state_game([[1, 0], [0, 1]])
        # n=1, d=2, N=1: 4*1*2*(1+2+1) + r*1*2
        assert lambda_r_exponent(game, 4) == 32 + 8
