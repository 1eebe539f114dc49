import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from stochgame import matrixgame
from stochgame.gamecore import affine_normalize
from stochgame.matrixgame import (
    matrix_game_sign,
    matrix_game_value,
    shapley_snow_certificate,
    shapley_snow_value,
    solve_matrix_game,
)
from stochgame.pencil import build_pencil
from stochgame.ratlinalg import LAM, RatMatrix, sign

from gens import rand_fraction, rand_matrix

payoff_matrices = st.integers(min_value=1, max_value=3).flatmap(
    lambda q: st.lists(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=8),
            min_size=q,
            max_size=q,
        ),
        min_size=1,
        max_size=3,
    )
).map(RatMatrix)

# up to 4x4 with denominators up to 2**40: the simplex's common denominator
# then runs to hundreds of bits
wide_payoff_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda q: st.lists(
        st.lists(
            st.builds(
                Fraction,
                st.integers(min_value=-(2**40), max_value=2**40),
                st.integers(min_value=1, max_value=2**40),
            ),
            min_size=q,
            max_size=q,
        ),
        min_size=1,
        max_size=4,
    )
).map(RatMatrix)

# the second pivot ties on the ratio test, and Bland's rule lets the
# smallest basic variable (w_1, not the slack of row 1) leave
BLAND_TIE = RatMatrix([[-2, -1], [2, -1]])
# every entry <= 0, so the solver must shift before its LP is bounded
NONPOSITIVE = RatMatrix([[0, "-3/2", -1], [-2, "-1/3", "-5/7"]])
# saddle points: maximin = minimax, so matrix_game_value returns the entry
# without pivoting while solve_matrix_game still runs the simplex
STRICT_SADDLE = RatMatrix([[2, 3], [0, 1]])
TIED_SADDLES = RatMatrix([[3, 1, 1], [0, 1, 1], [2, 1, 1]])
CONSTANT = RatMatrix([["-5/2"] * 3] * 2)
ZERO_SADDLE = RatMatrix([[0, 2], [-1, 3]])


@pytest.fixture(scope="module")
def anchor_rung_matrices(fixture_docs) -> list[RatMatrix]:
    """Profile matrices of limit-ladder rungs lam = 2**-t: 600-4200-bit entries."""
    out = []
    for name in ("two_state_2x2", "big_match", "absorbing_mix"):
        game, _, _ = affine_normalize(fixture_docs[name].game)
        for t in (300, 700, 1000, 1400):
            pencil = build_pencil(game, 1, Fraction(1, 2**t))
            out += [pencil.matrix_at(z) for z in (Fraction(1, 3), Fraction(55, 128), Fraction(1, 2))]
    return out


def assert_solution_certifies(payoff: RatMatrix, sol) -> None:
    """The returned strategies are a complete optimality certificate."""
    p, q = payoff.shape
    assert all(v >= 0 for v in sol.x_opt) and sum(sol.x_opt) == 1
    assert all(v >= 0 for v in sol.y_opt) and sum(sol.y_opt) == 1
    for b in range(q):
        assert sum(sol.x_opt[a] * payoff.rows[a][b] for a in range(p)) >= sol.value
    for a in range(p):
        assert sum(payoff.rows[a][b] * sol.y_opt[b] for b in range(q)) <= sol.value


class TestSolve:
    def test_single_entry(self):
        sol = solve_matrix_game(RatMatrix([["-7/3"]]))
        assert sol.value == Fraction(-7, 3)
        assert sol.x_opt == (1,) and sol.y_opt == (1,)

    def test_matching_pennies(self):
        sol = solve_matrix_game(RatMatrix([[1, -1], [-1, 1]]))
        assert sol.value == 0
        assert sol.x_opt == (Fraction(1, 2), Fraction(1, 2))
        assert sol.y_opt == (Fraction(1, 2), Fraction(1, 2))

    def test_hand_solved_2x2(self):
        sol = solve_matrix_game(RatMatrix([[3, 1], [0, 2]]))
        assert sol.value == Fraction(3, 2)
        assert sol.x_opt == (Fraction(1, 2), Fraction(1, 2))
        assert sol.y_opt == (Fraction(1, 4), Fraction(3, 4))

    def test_saddle_point_game(self):
        sol = solve_matrix_game(STRICT_SADDLE)
        assert sol.value == 2
        assert_solution_certifies(STRICT_SADDLE, sol)

    def test_bland_tie_break(self):
        sol = solve_matrix_game(BLAND_TIE)
        assert sol.value == -1
        # the other tie-break would pick the also optimal x = (3/4, 1/4)
        assert sol.x_opt == (0, 1)
        assert sol.y_opt == (0, 1)

    def test_random_solutions_certify(self, anchor_rung_matrices):
        rng = random.Random(10)
        for _ in range(60):
            m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert_solution_certifies(m, solve_matrix_game(m))
        for m in anchor_rung_matrices:
            assert_solution_certifies(m, solve_matrix_game(m))

    def test_value_sandwich(self):
        rng = random.Random(11)
        for _ in range(40):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            value = solve_matrix_game(m).value
            maximin = max(min(row) for row in m.rows)
            minimax = min(max(col) for col in zip(*m.rows))
            assert maximin <= value <= minimax

    def test_transpose_antisymmetry(self):
        rng = random.Random(12)
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            assert solve_matrix_game((-m).transpose()).value == -solve_matrix_game(m).value

    def test_monotonicity(self):
        rng = random.Random(13)
        for _ in range(30):
            p, q = rng.randint(1, 4), rng.randint(1, 4)
            m = rand_matrix(rng, p, q)
            bump = RatMatrix(
                [[Fraction(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(q)] for _ in range(p)]
            )
            assert solve_matrix_game(m).value <= solve_matrix_game(m + bump).value

    def test_affine_invariance(self):
        rng = random.Random(14)
        for _ in range(20):
            m = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
            c = Fraction(rng.randint(1, 5), rng.randint(1, 4))
            d = rand_fraction(rng)
            moved = m.scaled(c) + RatMatrix.constant(m.n_rows, m.n_cols, d)
            assert solve_matrix_game(moved).value == c * solve_matrix_game(m).value + d


def integer_rows(m: RatMatrix) -> list[list[int]]:
    """m times the lcm of its denominators, as ints."""
    scale = math.lcm(*(x.denominator for row in m.rows for x in row))
    return [[int(x * scale) for x in row] for row in m.rows]


class TestMatrixGameSign:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(payoff_matrices, wide_payoff_matrices))
    @example(BLAND_TIE)
    @example(NONPOSITIVE)
    @example(STRICT_SADDLE)
    @example(TIED_SADDLES)
    @example(CONSTANT)
    @example(ZERO_SADDLE)
    def test_integer_sign_matches_value(self, m):
        rows = integer_rows(m)
        value = matrix_game_value(rows)
        assert value == solve_matrix_game(RatMatrix(rows)).value
        assert matrix_game_sign(rows) == sign(value) == sign(solve_matrix_game(m).value)

    def test_saddle_point_skips_the_pivot_loop(self, monkeypatch):
        def pivot_loop(rows, scale):
            raise AssertionError("pivot loop reached")

        monkeypatch.setattr(matrixgame, "_bland_simplex", pivot_loop)
        assert matrix_game_value(integer_rows(STRICT_SADDLE)) == 2
        assert matrix_game_value(integer_rows(ZERO_SADDLE)) == 0
        with pytest.raises(AssertionError, match="pivot loop reached"):
            matrix_game_value([[1, -1], [-1, 1]])

    def test_germ_sign_is_led_by_the_constant_term(self):
        # val(A + lam*B) -> val(A) as lam -> 0+, so a nonzero val(A) decides;
        # with A = 0 the value is lam*val(B)
        rng = random.Random(17)
        for _ in range(40):
            p, q = rng.randint(1, 4), rng.randint(1, 4)
            a = integer_rows(rand_matrix(rng, p, q))
            b = integer_rows(rand_matrix(rng, p, q))
            germ = [[x + LAM * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
            led = matrix_game_sign(a)
            if led:
                assert matrix_game_sign(germ) == led
            assert matrix_game_sign([[LAM * y for y in row] for row in b]) == matrix_game_sign(b)


class TestShapleySnow:
    def test_single_entry_kernel(self):
        cert = shapley_snow_certificate(RatMatrix([["5/9"]]))
        assert cert.value == Fraction(5, 9)
        assert cert.cofactor_total == 1

    def test_hand_kernel(self):
        cert = shapley_snow_certificate(RatMatrix([[3, 1], [0, 2]]))
        assert cert.kernel_det == 6
        assert cert.cofactor_total == 4
        assert cert.value == Fraction(3, 2)
        assert cert.row_support == (0, 1) and cert.col_support == (0, 1)
        assert cert.x_opt == (Fraction(1, 2), Fraction(1, 2))
        assert cert.y_opt == (Fraction(1, 4), Fraction(3, 4))

    def test_constant_matrix_uses_smallest_kernel(self):
        cert = shapley_snow_certificate(RatMatrix([[2, 2], [2, 2]]))
        assert cert.value == 2
        # size-ascending lexicographic enumeration: first certified wins
        assert cert.row_support == (0,) and cert.col_support == (0,)

    def test_agreement_with_lp(self, anchor_rung_matrices):
        rng = random.Random(15)
        for _ in range(80):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            assert shapley_snow_value(m) == solve_matrix_game(m).value
        for m in anchor_rung_matrices:
            assert shapley_snow_value(m) == solve_matrix_game(m).value

    def test_certificate_strategies_are_optimal(self):
        rng = random.Random(16)
        for _ in range(30):
            m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            cert = shapley_snow_certificate(m)
            assert_solution_certifies(m, cert)


class TestPropertyBased:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(payoff_matrices, wide_payoff_matrices))
    @example(BLAND_TIE)
    @example(NONPOSITIVE)
    def test_solution_always_certifies(self, m):
        assert_solution_certifies(m, solve_matrix_game(m))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(payoff_matrices, wide_payoff_matrices))
    @example(BLAND_TIE)
    @example(NONPOSITIVE)
    def test_kernel_value_matches_lp(self, m):
        assert shapley_snow_value(m) == solve_matrix_game(m).value
