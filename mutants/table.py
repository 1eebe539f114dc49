"""Hand mutants of the library, each with the test subset that must kill it.

A mutant replaces one exact piece of text, which must occur once in its
file, and names what the change breaks.  `mutants/run.py` applies each to
a temporary copy of the repository and runs its test subset there; the
subset must fail.  The control changes nothing, and the union of every
subset must pass on it.

Add the mutants a change was checked against here, with the smallest
subset that kills each.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/stochgame
    old: str
    new: str
    breaks: str
    tests: tuple[str, ...]  # pytest arguments, relative to the repository root


SIGN_ROUTE_TESTS = ("tests/test_sign_route.py",)
ABSORBING_START_TESTS = ("tests/test_absorbing_route.py::test_absorbing_starts_are_answered_exactly",)

MUTANTS = (
    Mutant(
        "shift-off-by-one",
        "pencil.py",
        "shift = max(0, 1 - low)",
        "shift = max(0, -low)",
        "the least entry of q*(N + S) - p*D is 0 at z = c, not at least q",
        SIGN_ROUTE_TESTS,
    ),
    Mutant(
        "bound-ignores-z-above-one",
        "pencil.py",
        "c = max(1, math.ceil(z))",
        "c = 1",
        "probes above 1 (check's oracle values) run the loop on nonpositive rows",
        SIGN_ROUTE_TESTS,
    ),
    Mutant(
        "offset-drops-q",
        "pencil.py",
        "sign(det - q * shift * total)",
        "sign(det - shift * total)",
        "the shift is undone at scale 1 instead of q: wrong signs at z = p/q, q > 1",
        SIGN_ROUTE_TESTS,
    ),
    Mutant(
        "offset-sign-flipped",
        "pencil.py",
        "sign(det - q * shift * total)",
        "sign(det + q * shift * total)",
        "the shift is added twice instead of undone",
        SIGN_ROUTE_TESTS,
    ),
    Mutant(
        "bisection-zero-not-a-root",
        "solver.py",
        "if s >= 0:",
        "if s > 0:",
        "an exact zero lowers only the upper bracket, so an exact root is not reported",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "bland-leaving-tie-reversed",
        "matrixgame.py",
        "(lhs == rhs and basis[i] < basis[leave])",
        "(lhs == rhs and basis[i] > basis[leave])",
        "ratio ties leave at the largest basic variable, off the full tableau's path",
        ("tests/test_matrixgame.py",),
    ),
    Mutant(
        "oracle-rounds-half-up",
        "oracle.py",
        "if 2 * r > den or (2 * r == den and q % 2):",
        "if 2 * r >= den:",
        "value-iteration ties round up instead of to even",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "pencil-state-order-k-first",
        "pencil.py",
        "order = [s for s in range(n) if s != k - 1] + [k - 1]",
        "order = [k - 1] + [s for s in range(n) if s != k - 1]",
        "the last elimination row is not state k's, so the Cramer numerator is another state's",
        ("tests/test_pencil.py",),
    ),
    Mutant(
        "int-row-sign",
        "ratlinalg.py",
        "return [(x * piv - f * y) // det for x, y in zip(row, pivot_row)]",
        "return [(x * piv + f * y) // det for x, y in zip(row, pivot_row)]",
        "the integer Bareiss step adds the pivot row instead of eliminating with it",
        ("tests/test_ratlinalg.py",),
    ),
    Mutant(
        "live-pencil-slope-off-by-d",
        "absorbing.py",
        "cd = (lam.denominator - lam.numerator) * d",
        "cd = (lam.denominator - lam.numerator + 1) * d",
        "state 1's one-shot game falls in z at the wrong rate, so its root moves",
        ("tests/test_absorbing_route.py",),
    ),
    Mutant(
        "stay-test-reads-state-one",
        "absorbing.py",
        "if _exit(game, l) is None:",
        "if _exit(game, 0) is None:",
        "a start state k is answered by state 1's stay test, so an absorbing k >= 2 is bisected",
        ABSORBING_START_TESTS,
    ),
    Mutant(
        "absorbed-value-reads-state-one",
        "absorbing.py",
        "matrix_game_value(game.int_rewards[l])",
        "matrix_game_value(game.int_rewards[0])",
        "an absorbing start k >= 2 is answered with state 1's reward-matrix value",
        ABSORBING_START_TESTS,
    ),
    Mutant(
        "bareiss-row-adds-pivot-row",
        "ratlinalg.py",
        "acc[i + j] -= a * c",
        "acc[i + j] += a * c",
        "the germ Bareiss step adds f times the pivot row instead of eliminating with it",
        ("tests/test_ratlinalg.py",),
    ),
    Mutant(
        "oracle-bound-without-lam",
        "oracle.py",
        "bd = a * dd * ed",
        "bd = b * dd * ed",
        "value iteration's stopping bound drops its division by lam, so it stops too early",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "kronecker-numerator-sign",
        "pencil.py",
        "sign = (-1) ** k",
        "sign = (-1) ** (k + 1)",
        "the Kronecker numerator grid comes out negated",
        ("tests/test_pencil.py",),
    ),
    Mutant(
        "kohlberg-representative-row-only",
        "absorbing.py",
        "grid[r - r % row_block][c - c % col_block]",
        "grid[r - r % row_block][c]",
        "each reduced entry is compared with its row block's first row only, so an "
        "entry that differs across its column block passes as block-constant",
        ("tests/test_integer_form.py::test_broken_column_block_reports_the_dependence",),
    ),
    Mutant(
        "kohlberg-reduced-value-one-sided",
        "absorbing.py",
        "reduction_exact = value == reduced_value",
        "reduction_exact = value <= reduced_value",
        "a value-reduced pencil whose value exceeds the raw pencil's passes as exact",
        ("tests/test_integer_form.py::test_broken_reduced_value_is_reported",),
    ),
    Mutant(
        "walk-hands-down-stale-pivot",
        "pencil.py",
        "walk(r + dr, c + dc, later, piv)",
        "walk(r + dr, c + dc, later, prev)",
        "the Bareiss step below depth 1 divides by the pivot before last: wrong "
        "determinants from three states on",
        ("tests/test_pencil.py",),
    ),
    Mutant(
        "walk-row-offset-state-one-last",
        "pencil.py",
        "(i * n1 ** (n - 1 - s),",
        "(i * n1 ** s,",
        "player 1's profile ranks take state 1 as least significant, so rows land "
        "at the wrong profiles",
        ("tests/test_pencil.py",),
    ),
    Mutant(
        "parser-row-sum-one-sided",
        "gamefile.py",
        "if sum(den // p.denominator * p.numerator for p in dist) != den:",
        "if sum(den // p.denominator * p.numerator for p in dist) > den:",
        "transition rows summing below 1 are accepted",
        ("tests/test_gamefile.py",),
    ),
    Mutant(
        "pencil-equality-ignores-scale",
        "pencil.py",
        "isinstance(other, GamePencil) and self.scale == other.scale",
        "isinstance(other, GamePencil)",
        "pencils over different scales, so with different values, compare equal",
        ("tests/test_records.py::TestGamePencil",),
    ),
    Mutant(
        "pencil-equality-ignores-denominators",
        "pencil.py",
        "(self.numerators, self.denominators) == (other.numerators, other.denominators)",
        "self.numerators == other.numerators",
        "pencils whose values fall at different rates in z compare equal",
        ("tests/test_records.py::TestGamePencil",),
    ),
    Mutant(
        "fixtures-one-level-too-high",
        "gamefile.py",
        'Path(__file__).with_name("fixtures")',
        'Path(__file__).parent.with_name("fixtures")',
        "the bundled games are looked for beside the package instead of inside it",
        ("tests/test_gamefile.py::test_fixtures_are_found_beside_a_relocated_package",),
    ),
    Mutant(
        "last-step-denominator-reads-cramer-entry",
        "pencil.py",
        "(y0 * piv - f * t0) // prev",
        "(y0 * piv - f * t1) // prev",
        "the integer last elimination step takes the pivot row's Cramer entry for its "
        "system column, so numerator and denominator cross",
        ("tests/test_pencil.py::TestCrossRing",),
    ),
    Mutant(
        "last-step-divides-by-own-pivot",
        "pencil.py",
        "(y1 * piv - f * t1) // prev",
        "(y1 * piv - f * t1) // piv",
        "the integer last elimination step divides by its own pivot instead of the one "
        "handed down, so every numerator from two states on is wrong",
        ("tests/test_pencil.py::TestCrossRing",),
    ),
    Mutant(
        "integer-rows-ignore-order",
        "pencil.py",
        "for t in order]",
        "for t in range(len(order))]",
        "the bordered rows keep their columns in natural state order while the rows follow "
        "the walk's order, so state k's column is not eliminated last",
        ("tests/test_pencil.py::TestNumerator",),
    ),
    Mutant(
        "two-row-denominator-unflipped",
        "matrixgame.py",
        "num, den = b * c - a * d, b + c - a - d",
        "num, den = b * c - a * d, a + d - b - c",
        "a two-column subgame whose off-diagonal lies above its diagonal gets a negative "
        "denominator, so its value's sign flips",
        ("tests/test_matrixgame.py::TestTwoActionGames::test_value_matches_the_pivot_loop_and_the_kernel",),
    ),
    Mutant(
        "two-row-greatest-pair",
        "matrixgame.py",
        "if best_num is None or num * best_den < best_num * den:",
        "if best_num is None or num * best_den > best_num * den:",
        "a two-row game takes its greatest two-column value, not its least",
        ("tests/test_matrixgame.py::TestTwoActionGames::test_value_is_the_least_two_column_value",),
    ),
    Mutant(
        "two-column-transpose-not-negated",
        "matrixgame.py",
        "return -num, den",
        "return num, den",
        "a two-column game is answered with val(-A^T), not -val(-A^T)",
        ("tests/test_matrixgame.py::TestTwoActionGames::test_value_is_the_least_two_column_value",),
    ),
    Mutant(
        "two-row-closed-form-uncapped",
        "matrixgame.py",
        "if len(rows) == 2 and len(col_max) <= 3:",
        "if len(rows) == 2:",
        "a 2 x q game of any width takes the closed form, which checks every pair of columns",
        ("tests/test_matrixgame.py::TestTwoActionGames::test_wide_game_pivots_as_before",),
    ),
)
