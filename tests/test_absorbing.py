import random
from fractions import Fraction

import pytest

from stochgame.absorbing import (
    AbsorbingGame,
    is_absorbing,
    kohlberg_quotient,
    value_reduced_game,
)
from stochgame.errors import GameValidationError
from stochgame.gamecore import Game
from stochgame.matrixgame import solve_matrix_game
from stochgame.pencil import build_pencil, pencil_matrix
from stochgame.ratlinalg import LAM, RatMatrix

from absorbing_refs import built_identity
from gens import rand_absorbing_game

from test_gamecore import one_state_game
from oracle_refs import fraction_auxiliary


def absorbing_with_state2(rewards2) -> Game:
    """Two-state absorbing game: state 1 moves to state 2 with odds 1/2."""
    half = Fraction(1, 2)
    return Game(
        rewards=[[[1, 0], [0, 1]], rewards2],
        transitions=[
            [[[half, half], [half, half]], [[half, half], [half, half]]],
            [[[0, 1], [0, 1]], [[0, 1], [0, 1]]],
        ],
    )


class TestStructure:
    def test_is_absorbing_on_fixtures(self, fixture_docs):
        assert is_absorbing(fixture_docs["absorbing_mix"].game)
        assert is_absorbing(fixture_docs["big_match"].game)
        assert not is_absorbing(fixture_docs["two_state_2x2"].game)
        assert is_absorbing(fixture_docs["single_mp"].game)  # trivially: no other states

    def test_from_game_rejects_non_absorbing(self, fixture_docs):
        with pytest.raises(GameValidationError, match="not absorbing"):
            AbsorbingGame.from_game(fixture_docs["two_state_2x2"].game)
        # the first leak in (state, i, j) order is named
        for name, message in (
            ("mdp_two_state", "state 2 is not absorbing: stay probability 1/2 at actions (2, 1)"),
            ("three_state_2x2", "state 2 is not absorbing: stay probability 0 at actions (1, 2)"),
        ):
            with pytest.raises(GameValidationError) as info:
                AbsorbingGame.from_game(fixture_docs[name].game)
            assert str(info.value) == message


class TestAbsorbedValues:
    def test_constant_one(self, fixture_docs):
        ab = AbsorbingGame.from_game(fixture_docs["big_match"].game)
        assert ab.absorbed_values == (1, 0)

    def test_matching_pennies_absorbed_state(self):
        ab = AbsorbingGame.from_game(absorbing_with_state2([[1, -1], [-1, 1]]))
        assert ab.absorbed_values == (0,)

    def test_hand_solved_absorbed_state(self):
        ab = AbsorbingGame.from_game(absorbing_with_state2([[3, 1], [0, 2]]))
        assert ab.absorbed_values == (Fraction(3, 2),)


class TestKohlbergQuotient:
    def test_myopic_at_full_discount(self, fixture_docs):
        ab = AbsorbingGame.from_game(fixture_docs["absorbing_mix"].game)
        g1 = RatMatrix(ab.game.rewards[0])
        z = Fraction(2, 7)
        assert kohlberg_quotient(ab, 1, z) == solve_matrix_game(g1).value - z

    def test_full_absorption_one_liner(self):
        # state 1 pays nothing and jumps to state 2 surely:
        # quotient is ((1 - lam) v2 - z) / lam
        v2 = Fraction(3, 2)
        game = Game(
            rewards=[[[0, 0], [0, 0]], [[3, 1], [0, 2]]],
            transitions=[
                [[[0, 1], [0, 1]], [[0, 1], [0, 1]]],
                [[[0, 1], [0, 1]], [[0, 1], [0, 1]]],
            ],
        )
        ab = AbsorbingGame.from_game(game)
        for lam, z in ((Fraction(1, 3), Fraction(1, 5)), (Fraction(2, 5), Fraction(-1))):
            assert kohlberg_quotient(ab, lam, z) == ((1 - lam) * v2 - z) / lam

    def test_zero_at_the_value(self, fixture_docs):
        ab = AbsorbingGame.from_game(fixture_docs["big_match"].game)
        for t in range(1, 8):
            assert kohlberg_quotient(ab, Fraction(1, 2**t), Fraction(1, 2)) == 0

    def test_sign_stabilizes_around_the_value(self, fixture_docs):
        ab = AbsorbingGame.from_game(fixture_docs["big_match"].game)
        for z, expected in ((Fraction(1, 4), 1), (Fraction(3, 4), -1)):
            signs = set()
            for t in range(6, 10):
                q = kohlberg_quotient(ab, Fraction(1, 2**t), z)
                signs.add((q > 0) - (q < 0))
            assert signs == {expected}


class TestIdentity:
    def test_big_match_exact(self, fixture_docs):
        ab = AbsorbingGame.from_game(fixture_docs["big_match"].game)
        lam = z = Fraction(1, 2)
        report = built_identity(ab, lam, z)
        assert report.ok
        assert report.pencil_side == report.quotient_side == 0

    def test_single_state_degenerate(self):
        game = one_state_game([[3, 1], [0, 2]])
        ab = AbsorbingGame.from_game(game)
        lam, z = Fraction(1, 3), Fraction(1, 4)
        report = built_identity(ab, lam, z)
        assert report.ok
        assert report.pencil_side == Fraction(3, 2) - z

    def test_random_absorbing_games(self):
        rng = random.Random(60)
        for _ in range(12):
            game = rand_absorbing_game(rng, rng.randint(2, 3), 2, 2)
            ab = AbsorbingGame.from_game(game)
            lam = Fraction(1, rng.randint(2, 9))
            z = Fraction(rng.randint(-3, 6), rng.randint(1, 5))
            report = built_identity(ab, lam, z)
            assert report.ok, report.detail

    def test_dedup_affine_identity(self, fixture_docs):
        # val(profile matrix) equals lam**(n-1) * val(one-shot matrix - z)
        for name in ("big_match", "absorbing_mix"):
            game = fixture_docs[name].game
            ab = AbsorbingGame.from_game(game)
            n = game.n_states
            for lam, z in ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 5), Fraction(3, 4))):
                u = (z,) + ab.absorbed_values
                aux = fraction_auxiliary(game, lam, u, 0)
                shifted = aux + RatMatrix.constant(aux.n_rows, aux.n_cols, -z)
                lhs = solve_matrix_game(pencil_matrix(game, 1, lam, z)).value
                rhs = lam ** (n - 1) * solve_matrix_game(shifted).value
                assert lhs == rhs

    def test_reduced_game_rows_collapse(self, fixture_docs):
        ab = AbsorbingGame.from_game(fixture_docs["absorbing_mix"].game)
        reduced = value_reduced_game(ab)
        built = pencil_matrix(reduced, 1, Fraction(1, 3), Fraction(1, 5))
        # rows sharing the live-state action are identical in the reduced game
        assert built.rows[0] == built.rows[1]
        assert built.rows[2] == built.rows[3]

    def test_sign_agreement_with_limit_sign(self, fixture_docs):
        game = fixture_docs["absorbing_mix"].game
        ab = AbsorbingGame.from_game(game)
        germs = build_pencil(game, 1, LAM)
        for z in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            quotient_signs = set()
            for t in range(8, 12):
                q = kohlberg_quotient(ab, Fraction(1, 2**t), z)
                quotient_signs.add((q > 0) - (q < 0))
            assert quotient_signs == {germs.sign_at(z)}
