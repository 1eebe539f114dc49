import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stochgame.errors import GameValidationError
from stochgame.gamecore import Game
from stochgame import matrixgame
from stochgame.oracle import (
    _grid_bits,
    _integer_vector,
    _one_shot_grids,
    shapley_operator,
    value_iteration,
)
from stochgame.ratlinalg import RatMatrix
import oracle_refs
from oracle_refs import fraction_auxiliary, lp_shapley_operator
from chain_refs import discounted_payoff
from gens import (
    rand_absorbing_game,
    rand_fraction,
    rand_game,
    rand_one_player_game,
    rand_stochastic_row,
)
from mdp_refs import mdp_brute_force, mdp_limit_brute_force, pure

from test_gamecore import cycle_game, one_state_game
from test_pencil import prime_game


def sup_dist(u, v) -> Fraction:
    return max(abs(a - b) for a, b in zip(u, v))


def grid_auxiliaries(game, lam, u) -> list[RatMatrix]:
    """Every state's one-shot game as the oracle builds it: its integer grid over the scale."""
    du, d = _integer_vector(game, u)
    grids, scale = _one_shot_grids(game, lam, du, d, range(game.n_states))
    return [RatMatrix([[Fraction(x, scale) for x in row] for row in grid]) for grid in grids]


# primes of 31 and 32 bits: every reward and transition denominator of a
# drawn game is one of them, so the game's common denominator L is their product
PRIMES = (1073741827, 1073741831, 1073741833, 2147483647, 4294967279, 4294967291)


@st.composite
def prime_denominator_games(draw) -> Game:
    n = draw(st.integers(1, 3))
    a1, a2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def reward() -> Fraction:
        big = draw(st.sampled_from(PRIMES))
        return Fraction(draw(st.integers(-3 * big, 3 * big)), big)

    def dist() -> list[Fraction]:
        big = draw(st.sampled_from(PRIMES))
        cuts = sorted(draw(st.lists(st.integers(0, big), min_size=n - 1, max_size=n - 1)))
        return [Fraction(hi - lo, big) for lo, hi in zip([0] + cuts, cuts + [big])]

    rewards = [[[reward() for _ in range(a2)] for _ in range(a1)] for _ in range(n)]
    transitions = [[[dist() for _ in range(a2)] for _ in range(a1)] for _ in range(n)]
    return Game(rewards, transitions)


# continuation entries over unrelated denominators that are not powers of two
continuation_entries = st.builds(
    Fraction,
    st.integers(-(10**9), 10**9),
    st.integers(3, 10**9).filter(lambda m: m & (m - 1)),
)


class TestShapleyAuxiliary:
    def test_entries_formula(self, fixture_docs):
        game = fixture_docs["two_state_2x2"].game
        lam = Fraction(1, 3)
        u = (Fraction(1, 2), Fraction(-1, 4))
        aux = grid_auxiliaries(game, lam, u)[1]
        l = 1
        for i in range(2):
            for j in range(2):
                expected = lam * game.rewards[l][i][j] + (1 - lam) * sum(
                    game.transitions[l][i][j][t] * u[t] for t in range(2)
                )
                assert aux.entry(i, j) == expected

    def test_dimension_mismatch(self, fixture_docs):
        game = fixture_docs["two_state_2x2"].game
        for u in ((Fraction(0),), (0, Fraction(1, 3), 1)):
            with pytest.raises(GameValidationError):
                shapley_operator(game, Fraction(1, 2), u)


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

    @settings(max_examples=60, deadline=None)
    @given(
        prime_denominator_games(),
        st.sampled_from((Fraction(1, 4), Fraction(2, 5), Fraction(1))),
        st.data(),
    )
    def test_integer_grid_matches_fraction_reference(self, game, lam, data):
        u = tuple(data.draw(continuation_entries) for _ in range(game.n_states))
        assert shapley_operator(game, lam, u) == lp_shapley_operator(game, lam, u)
        for l, aux in enumerate(grid_auxiliaries(game, lam, u)):
            assert aux == fraction_auxiliary(game, lam, u, l)

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

    def test_polished_flag_is_the_polish_verdict(self, fixture_docs):
        # polished marks an exact fixed point; an unpolished vector is the
        # last iterate, exact or not
        polished = []
        for doc in fixture_docs.values():
            for lam in (Fraction(1, 4), Fraction(2, 3), Fraction(1, 7)):
                u = value_iteration(doc.game, lam, Fraction(1, 2**12))
                assert isinstance(u, tuple) and u == tuple(u)
                if u.polished:
                    assert shapley_operator(doc.game, lam, u) == u
                polished.append(u.polished)
        assert True in polished and False in polished

    def test_matches_fraction_loop_reference(self):
        # 210 seeded games, a third absorbing and a third on >= 30-bit prime
        # denominators, each at one of the 15 (lam, tol) pairs in turn
        lams = (Fraction(1), Fraction(2, 3), Fraction(1, 4), Fraction(1, 7), Fraction(1, 20))
        tols = (Fraction(1, 64), Fraction(1, 4096), Fraction(1, 65536))
        rng = random.Random(53)
        for index in range(210):
            n, n1, n2 = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            if index % 3 == 0:
                game = rand_game(rng, n, n1, n2)
            elif index % 3 == 1:
                game = rand_absorbing_game(rng, n, n1, n2)
            else:
                game = prime_game(rng, n, min(n1, 2), min(n2, 2))
            lam, tol = lams[index % 5], tols[index // 5 % 3]
            got = value_iteration(game, lam, tol)
            assert (got, got.polished) == oracle_refs.value_iteration(game, lam, tol)


def moved_alike_game(rng: random.Random, n: int, n1: int, n2: int) -> Game:
    """A seeded game whose state 1 moves by one transition row under every action pair."""
    base = rand_game(rng, n, n1, n2)
    dist = rand_stochastic_row(rng, n)
    return Game(base.rewards, [[[dist] * n2] * n1] + list(base.transitions[1:]))


class TestOneShotShapes:
    """The oracle against the LP reference where its one-shot games take both routes.

    Absorbed states of 3x3 actions give one-shot games with no saddle
    point that reach the pivot loop; two-action states are read in closed
    form; a live state that moves alike under every action pair adds one
    continuation to every entry.  Each case pairs a rate with a tolerance; at lam = 1/1000 the iterates
    contract by 0.999 a step, and a tolerance of 1/2 keeps the runs short
    (2 to 1,100 steps on these games).
    """

    CASES = ((Fraction(1), Fraction(1, 64)), (Fraction(1, 4), Fraction(1, 64)),
             (Fraction(1, 1000), Fraction(1, 2)))

    @pytest.fixture(scope="class")
    def games(self) -> list[Game]:
        # absorbing games, every third with 3x3 absorbed states, and games
        # whose one live state moves alike under every action pair
        rng = random.Random(62)
        out = []
        for index in range(12):
            n = rng.randint(2, 3)
            if index % 3 == 0:
                out.append(rand_absorbing_game(rng, n, 3, 3))
            elif index % 3 == 1:
                out.append(rand_absorbing_game(rng, n, rng.randint(1, 3), rng.randint(1, 3)))
            else:
                out.append(moved_alike_game(rng, n, rng.randint(2, 3), rng.randint(2, 3)))
        return out

    def test_games_reach_the_pivot_loop_and_the_closed_form(self, games, monkeypatch):
        reached = set()
        for name in ("_simplex", "_two_row_ratio"):
            original = getattr(matrixgame, name)
            monkeypatch.setattr(
                matrixgame, name,
                lambda *args, name=name, original=original: reached.add(name) or original(*args),
            )
        for game in games:
            shapley_operator(game, Fraction(1, 4), [0] * game.n_states)
        assert reached == {"_simplex", "_two_row_ratio"}

    def test_operator_matches_the_lp_reference(self, games):
        rng = random.Random(63)
        for game in games:
            for lam, _ in self.CASES:
                for _ in range(3):
                    u = tuple(rand_fraction(rng) for _ in range(game.n_states))
                    assert shapley_operator(game, lam, u) == lp_shapley_operator(game, lam, u)

    def test_value_iteration_matches_the_lp_reference(self, games):
        verdicts = set()
        for game in games:
            for lam, tol in self.CASES:
                got = value_iteration(game, lam, tol)
                ref = oracle_refs.value_iteration(game, lam, tol, operator=lp_shapley_operator)
                assert (got, got.polished) == ref
                verdicts.add(got.polished)
        assert verdicts == {True, False}


@given(
    st.builds(Fraction, st.integers(1, 2**80), st.integers(1, 2**80)),
    st.builds(lambda a, b: Fraction(a, a + b), st.integers(1, 2**40), st.integers(0, 2**40)),
)
def test_grid_bits_is_the_least_fine_enough_grid(tol, lam):
    # 2**-(p+1) <= tol * lam**2 / 8, and p is the least such p >= 1
    p = _grid_bits(tol, lam)
    target = tol * lam * lam / 8
    assert p >= 1 and Fraction(1, 2 ** (p + 1)) <= target
    assert p == 1 or Fraction(1, 2**p) > target


class TestMdpBruteForce:
    def test_both_single_action(self, fixture_docs):
        game = fixture_docs["cycle_mdp"].game
        assert mdp_brute_force(game, 1, Fraction(1, 2)) == Fraction(2, 3)
        assert mdp_brute_force(game, 2, Fraction(1, 2)) == Fraction(1, 3)

    def test_matches_profile_enumeration(self, fixture_docs):
        game = fixture_docs["mdp_two_state"].game
        lam = Fraction(1, 2)
        y = pure((0, 0), 1)
        best = max(
            discounted_payoff(game, pure(prof, 2), y, lam)[0]
            for prof in [(0, 0), (0, 1), (1, 0), (1, 1)]
        )
        assert mdp_brute_force(game, 1, lam) == best

    def test_minimizer_side(self):
        rng = random.Random(52)
        game = rand_one_player_game(rng, 2, 3, maximizer=False)
        lam = Fraction(1, 3)
        x = pure((0, 0), 1)
        values = [
            discounted_payoff(game, x, pure(prof, 3), lam)[0]
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
