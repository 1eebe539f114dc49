import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from stochgame import matrixgame, solver
from stochgame.absorbing import AbsorbingGame, is_absorbing, live_pencil
from stochgame.gamecore import affine_normalize
from stochgame.matrixgame import (
    matrix_game_sign,
    matrix_game_value,
    solve_matrix_game,
)
from stochgame.pencil import build_pencil
from stochgame.ratlinalg import LAM, IntPoly, RatMatrix, bareiss_row, int_row, sign
from stochgame.solver import limit_value

from bland_ref import bland_value_ratio
from gens import rand_fraction, rand_game, rand_matrix
from simplex_ref import full_simplex
from snow_ref import shapley_snow_certificate

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

# the third pivot ties on the ratio test, and Bland's rule lets the
# smallest basic variable (w_1, not the slack of row 1) leave
BLAND_TIE = RatMatrix([[-1, -1, 0], [-1, 0, -1], [1, -1, 0]])
# the first pivot (w_1, the pure minimax column) ties on the ratio test
# and leaves row 2's right-hand side 0; Dantzig's second pivot leaves from
# that row, a degenerate pivot, so the third enters Bland's column (w_3,
# the lowest negative cost), not Dantzig's (w_4, the most negative).  That
# gives y = (0, 0, 2/3, 1/3), where Dantzig's rule throughout stops at the
# also optimal y = (0, 1/3, 0, 2/3).
DEGENERATE = RatMatrix([[0, -2, -1, 0], [0, 2, 0, -2]])
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
        assert sol.value == Fraction(-1, 2)
        # the other tie-break would pick the also optimal x = (1/4, 1/2, 1/4)
        assert sol.x_opt == (0, Fraction(1, 2), Fraction(1, 2))
        assert sol.y_opt == (0, Fraction(1, 2), Fraction(1, 2))

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
        def pivot_loop(rows, scale, col_max):
            raise AssertionError("pivot loop reached")

        monkeypatch.setattr(matrixgame, "_simplex", pivot_loop)
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


germs = st.lists(st.integers(min_value=-3, max_value=3), max_size=3).map(IntPoly)
germ_matrices = st.integers(min_value=1, max_value=3).flatmap(
    lambda q: st.lists(st.lists(germs, min_size=q, max_size=q), min_size=1, max_size=3)
)


@pytest.fixture(scope="module")
def pencil_germ_grids(fixture_docs) -> list[list[list]]:
    """The germ grids the limit bisection signs: every fixture's state-1 pencil at LAM."""
    out = []
    for doc in fixture_docs.values():
        game, _, _ = affine_normalize(doc.game)
        if is_absorbing(game):
            pencil = live_pencil(AbsorbingGame(game), LAM)
        else:
            pencil = build_pencil(game, 1, LAM)
        out += [pencil.scaled_at(z) for z in (Fraction(1, 3), Fraction(1, 2), Fraction(55, 128))]
    return out


class TestPivotRule:
    """Dantzig's entering rule with Bland's after a degenerate pivot, against pure Bland."""

    def test_degenerate_pivot_falls_back_to_bland(self):
        sol = solve_matrix_game(DEGENERATE)
        assert sol.value == Fraction(-2, 3)
        assert sol.x_opt == (Fraction(2, 3), Fraction(1, 3))
        assert sol.y_opt == (0, 0, Fraction(2, 3), Fraction(1, 3))
        assert_solution_certifies(DEGENERATE, sol)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(payoff_matrices, wide_payoff_matrices))
    @example(BLAND_TIE)
    @example(NONPOSITIVE)
    @example(DEGENERATE)
    def test_values_match_the_bland_loop(self, m):
        rows = integer_rows(m)
        num, total = bland_value_ratio(rows)
        assert matrix_game_value(rows) == Fraction(num, total)
        assert matrix_game_sign(rows) == sign(num)
        scale = math.lcm(*(x.denominator for row in m.rows for x in row))
        sol = solve_matrix_game(m)
        assert sol.value == Fraction(num, total * scale)
        assert_solution_certifies(m, sol)

    @settings(max_examples=80, deadline=None)
    @given(germ_matrices)
    def test_germ_signs_and_values_match_the_bland_loop(self, rows):
        num, total = matrixgame._value_ratio(rows, column_maxima(rows))
        ref_num, ref_total = bland_value_ratio(rows)
        assert matrix_game_sign(rows) == sign(ref_num)
        assert num * ref_total == ref_num * total

    def test_pencil_germ_grids_match_the_bland_loop(self, pencil_germ_grids):
        for rows in pencil_germ_grids:
            num, total = matrixgame._value_ratio(rows, column_maxima(rows))
            ref_num, ref_total = bland_value_ratio(rows)
            assert matrix_game_sign(rows) == sign(ref_num)
            assert num * ref_total == ref_num * total


def column_maxima(rows: list[list]) -> list:
    return [max(col) for col in zip(*rows)]


def condensed_run(rows: list[list], scale) -> tuple:
    """`matrixgame._simplex` with its pivots recorded as (entering variable, leaving row).

    The first pivot comes from `_first_pivot`, at the slack basis, where
    column j holds variable j; every later one from `_pivot`.
    """
    path = []
    first_pivot, pivot = matrixgame._first_pivot, matrixgame._pivot

    def recorded_first(rows, col_max):
        chosen = first_pivot(rows, col_max)
        path.append(chosen)
        return chosen

    def recorded(tableau, cost, labels, basis, bland):
        chosen = pivot(tableau, cost, labels, basis, bland)
        if chosen is not None:
            path.append((labels[chosen[0]], chosen[1]))
        return chosen

    with mock.patch.object(matrixgame, "_first_pivot", recorded_first), \
            mock.patch.object(matrixgame, "_pivot", recorded):
        return matrixgame._simplex(rows, scale, column_maxima(rows)), path


def assert_same_pivots(rows: list[list], scale) -> list[tuple[int, int]]:
    """The condensed loop takes the full tableau's pivots and stores its nonbasic entries.

    The rows are shifted positive first, as `matrixgame._value_ratio` does;
    returns the pivot path.
    """
    shift = matrixgame._shift(rows)
    rows = [[x + shift for x in row] for row in rows]
    (tableau, cost, basis, labels, det), path = condensed_run(rows, scale)
    ref_path = []
    ref_tableau, ref_cost, ref_basis, ref_det = full_simplex(rows, scale, ref_path)
    p, q = len(rows), len(rows[0])
    assert path == ref_path
    assert (det, cost[-1], basis) == (ref_det, ref_cost[-1], ref_basis)
    duals = [0] * p
    for j, var in enumerate(labels):
        if var >= q:
            duals[var - q] = cost[j]
    assert duals == ref_cost[q:-1]
    assert sorted(labels + basis) == list(range(p + q))
    for j, var in enumerate(labels):
        assert cost[j] == ref_cost[var]
        assert [row[j] for row in tableau] == [row[var] for row in ref_tableau]
    assert [row[-1] for row in tableau] == [row[-1] for row in ref_tableau]
    return path


integer_grids = st.integers(min_value=1, max_value=4).flatmap(
    lambda q: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=q, max_size=q),
        min_size=1,
        max_size=4,
    )
)


class TestCondensedTableau:
    """The condensed pivot loop against the full-tableau loop it replaced (`tests/simplex_ref.py`).

    The property tests take their example count from the hypothesis profile,
    so CI's profile (tests/conftest.py) runs them four times harder.
    """

    @settings(deadline=None)
    @given(integer_grids, st.integers(min_value=1, max_value=12))
    @example([[-2, -1], [2, -1]], 1)
    @example([[2, 0, -1, 1], [2, 0, 0, 0]], 1)
    @example([[1, 1], [1, 1]], 1)
    @example([[3, 1, 1], [0, 1, 1], [2, 1, 1]], 1)
    def test_integer_pivots_match_the_full_tableau(self, rows, scale):
        assert_same_pivots(rows, scale)

    @settings(deadline=None)
    @given(germ_matrices)
    def test_germ_pivots_match_the_full_tableau(self, rows):
        assert_same_pivots(rows, 1)

    def test_degenerate_and_tied_games_match_the_full_tableau(self):
        for m in (BLAND_TIE, DEGENERATE, NONPOSITIVE, TIED_SADDLES, CONSTANT):
            assert assert_same_pivots(integer_rows(m), 1), m

    def test_anchor_rung_pivots_match_the_full_tableau(self, anchor_rung_matrices):
        for m in anchor_rung_matrices:
            scale = math.lcm(*(x.denominator for row in m.rows for x in row))
            assert_same_pivots([[int(x * scale) for x in row] for row in m.rows], scale)

    def test_pencil_germ_grid_pivots_match_the_full_tableau(self, pencil_germ_grids):
        for rows in pencil_germ_grids:
            assert_same_pivots(rows, 1)


def counting_sign(tally: list):
    """`matrix_game_sign` that appends each call's pivot count to `tally`.

    Every pivot updates the p - 1 other rows and the cost row by one row
    step, so a solve on p rows takes p steps per pivot.
    """
    steps = [0]

    def counted(step):
        def wrapped(*args):
            steps[0] += 1
            return step(*args)
        return wrapped

    def sign_of(rows):
        steps[0] = 0
        with mock.patch.object(matrixgame, "int_row", counted(int_row)), \
                mock.patch.object(matrixgame, "bareiss_row", counted(bareiss_row)):
            out = matrix_game_sign(rows)
        assert steps[0] % len(rows) == 0
        tally.append(steps[0] // len(rows))
        return out

    return sign_of


class TestPivotCount:
    """Pivots the one loop takes on profile grids, pinned at the pure minimax start.

    Entering column 0 first (every reduced cost starts at -1) took 172,
    400 and 63 pivots on these three sets.
    """

    def test_profile_grid_pivots(self):
        rng = random.Random(19)
        tallies = {}
        for shape in ((3, 2, 2), (2, 3, 3)):
            tally = tallies[shape] = []
            sign_of = counting_sign(tally)
            for _ in range(4):
                game, _, _ = affine_normalize(rand_game(rng, *shape))
                for d in range(2, 7):
                    pencil = build_pencil(game, 1, Fraction(1, d))
                    for _ in range(3):
                        sign_of(pencil.scaled_at(Fraction(rng.randint(1, 31), 32)))
        assert [len(t) for t in tallies.values()] == [60, 60]
        assert sum(tallies[3, 2, 2]) <= 113  # 8x8 grids
        assert sum(tallies[2, 3, 3]) <= 242  # 9x9 grids

    def test_four_state_pin_germ_grid_pivots(self):
        tally = []
        with mock.patch.object(solver, "matrix_game_sign", counting_sign(tally)):
            result = limit_value(rand_game(random.Random(4), 4, 2, 2), 1, 10)
        assert len(tally) == result.iterations == 13
        assert sum(tally) <= 31  # 16x16 germ grids


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
            assert shapley_snow_certificate(m).value == solve_matrix_game(m).value
        for m in anchor_rung_matrices:
            assert shapley_snow_certificate(m).value == solve_matrix_game(m).value

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
        assert shapley_snow_certificate(m).value == solve_matrix_game(m).value
