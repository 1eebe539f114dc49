"""Exact value and optimal mixed strategies of zero-sum matrix games.

A matrix game is identified with its rational payoff matrix (rows are the
maximizer's pure actions, columns the minimizer's).  `solve_matrix_game`
runs an exact simplex on the standard LP formulation, fraction-free over
one common denominator: the tableau holds integers and each pivot divides
exactly by the previous pivot (Edmonds 1967, the Bareiss scheme of
`ratlinalg.int_det`), so no Fraction is normalised until the answer.
The tableau is condensed: in the full tableau [M | I | b] every basic
column is the pivot times a unit vector, so only the nonbasic columns are
stored, p + 1 rows of q + 1 entries for a p x q game, with the variable
of each column (`labels`) and of each row (`basis`).  A pivot writes the
leaving variable's column into the entering column's place, so every
stored entry, comparison and pivot is the full tableau's.
The first pivot enters the pure minimax column (the column whose largest
entry is smallest) at its first largest entry: every reduced cost starts
at -1 and every right-hand side at the same scale, so that is the pivot
that raises the objective most.  Later pivots enter Dantzig's column (most
negative reduced cost) until the first degenerate pivot and Bland's from
then on, both ranked by variable, which keeps the paths short and the loop
finite.  The start rule has no switch: callers hand `_simplex` the column
maxima, which `matrix_game_ratio`'s saddle test computes anyway.
Every entry point runs that one pivot loop (`_simplex`).
`solve_matrix_game` takes a `RatMatrix` and returns the value with both
optimal strategies.  `matrix_game_value` takes an integer grid (a game
scaled by a positive integer, as the oracle and the pencil build them)
and returns only its exact value, pivoting only if it has no saddle point;
`matrix_game_ratio` returns that value as an integer pair.
`positive_ratio` is the loop's one entry for strictly positive rows over
any ordered ring with exact division: it returns the value as (det,
total).  `matrix_game_ratio` reaches it after a per-call shift
(`_value_ratio`), and the one sign route, `pencil.GamePencil.sign_at`,
hands it rows its pencil keeps positive with a shift computed once per
pencil.  Over `ratlinalg.IntPoly` germs the sign read from that pair is
the sign for every small enough discount rate, and each row update is one
fused `ratlinalg.bareiss_row` step.
The Shapley-Snow kernel certificate that cross-checks the LP, the
full-tableau loop the condensed one replaced, and the per-probe sign test
the pencil route replaced live in the test suite (`tests/snow_ref.py`,
`tests/simplex_ref.py`, `tests/sign_ref.py`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .ratlinalg import IntPoly, RatMatrix, bareiss_row, int_row


class GameSolution(NamedTuple):
    """Exact value plus optimal mixed strategies for both players.

    The strategies satisfy the optimality inequalities exactly:
    x_opt guarantees at least `value` against every column, and y_opt
    concedes at most `value` against every row.  A named tuple, so it
    also unpacks as (value, x_opt, y_opt).
    """

    value: Fraction
    x_opt: tuple[Fraction, ...]
    y_opt: tuple[Fraction, ...]


def _first_pivot(rows: list[list], col_max: list) -> tuple[int, int]:
    """(entering column, leaving row) of the first pivot: the pure minimax column.

    `col_max` holds the column maxima of `rows`.  At the slack basis every
    reduced cost is -1 and every right-hand side is the same `scale`, so
    entering column j raises the objective by scale / col_max[j]: the
    column whose largest entry is smallest (ties to the lowest variable) is
    the greatest-improvement pivot among the tied costs.  It leaves at the
    column's first largest entry, the least ratio with ties to the
    smallest slack, which is Bland's leaving row.  The pivot is
    non-degenerate, since its right-hand side is `scale` > 0.
    """
    enter = col_max.index(min(col_max))
    top = col_max[enter]
    return enter, next(i for i, row in enumerate(rows) if row[enter] == top)


def _pivot(tableau: list[list], cost: list, labels: list[int], basis: list[int], bland: bool):
    """(entering column, leaving row) of every pivot after the first, or None at the optimum.

    Columns are positions in the condensed tableau and are ranked by their
    variables (`labels`), so both rules pick the variable the full tableau
    [rows | I | scale] would.  The entering column is Dantzig's (the most
    negative reduced cost, ties to the lowest variable) or, once `bland`
    is set, Bland's (the lowest variable with a negative cost).  The
    leaving row is Bland's: the least ratio rhs/a over a > 0, ties to the
    smallest basic variable, with ratios compared by cross-multiplication.
    """
    enter = low = None
    for j, label in enumerate(labels):
        c = cost[j]
        if c < 0 and (
            enter is None or (label < labels[enter] if bland or c == low else c < low)
        ):
            enter, low = j, c
    if enter is None:
        return None
    leave = None
    for i, row in enumerate(tableau):
        a = row[enter]
        if a > 0:
            if leave is None:
                leave = i
                continue
            lhs = row[-1] * tableau[leave][enter]
            rhs = tableau[leave][-1] * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
    if leave is None:  # impossible with strictly positive columns
        raise ArithmeticError("unbounded matrix-game LP")
    return enter, leave


def _simplex(rows: list[list], scale, col_max: list) -> tuple:
    """Fraction-free simplex on the condensed tableau [rows | scale].

    The entries of `rows` are strictly positive elements of an ordered
    ring with exact division (ints, or `ratlinalg.IntPoly` ordered at
    lam -> 0+).  Solves  max 1.w  s.t. rows w <= scale, w >= 0  with
    Edmonds/Bareiss pivots: after each pivot every entry equals det * (the
    rational tableau entry), where det is the current pivot (the basis
    determinant, always positive), so all signs and comparisons agree with
    a rational tableau.  Variables 0..q-1 are w and q..q+p-1 the slacks.
    Only the nonbasic columns are stored, in p rows and a cost row of
    q + 1 entries each: `labels[j]` is the variable of column j and
    `basis[i]` that of row i.  In the full tableau [rows | I | scale]
    a basic column is det * e_r, so it carries no information.

    A pivot on (row `leave`, column `enter`) updates each non-pivot row,
    the cost row included, to (x * piv - f * y) // det_prev, an exact
    division by Sylvester's identity, and then sets its entering entry,
    which now holds the leaving variable, to -f; the pivot row keeps its
    entries but for that one, which becomes det_prev.  Those are the
    leaving variable's column in the full tableau, so every stored entry,
    comparison and pivot is the full tableau's.  The ring is read once,
    from the first entry of `rows`: a germ tableau updates its rows by
    `ratlinalg.bareiss_row`, one `IntPoly` per entry, and an integer
    tableau by `ratlinalg.int_row`.

    The first pivot enters the pure minimax column, read from `col_max`
    (the column maxima of `rows`), at its first largest entry
    (`_first_pivot`).  Every later entering column is Dantzig's until the
    first degenerate pivot (its pivot row has right-hand side 0) and
    Bland's from then on; the leaving row is always Bland's (`_pivot`).
    So the loop terminates: the first pivot is non-degenerate and every
    pivot before the switch raises the objective, so no basis repeats,
    and Bland's rule terminates from any basis (Bland, Math. OR 1977).
    Returns (tableau, cost row, basis, labels, det); the optimum 1.w is
    cost[-1] / det > 0, and a nonbasic variable's reduced cost is its
    column's cost entry (a basic one's is 0).
    """
    p, q = len(rows), len(rows[0])
    tableau = [list(row) + [scale] for row in rows]
    cost = [-1] * q + [0]
    labels = list(range(q))
    basis = list(range(q, q + p))
    det = 1
    bland = False
    step = bareiss_row if isinstance(rows[0][0], IntPoly) else int_row

    chosen = _first_pivot(rows, col_max)
    while chosen is not None:
        enter, leave = chosen
        pivot_row = tableau[leave]
        piv = pivot_row[enter]
        bland = bland or not pivot_row[-1]
        for i in range(p):
            if i != leave:
                f = tableau[i][enter]
                tableau[i] = step(tableau[i], pivot_row, piv, f, det)
                tableau[i][enter] = -f
        f = cost[enter]
        cost = step(cost, pivot_row, piv, f, det)
        cost[enter] = -f
        pivot_row[enter] = det
        det = piv
        labels[enter], basis[leave] = basis[leave], labels[enter]
        chosen = _pivot(tableau, cost, labels, basis, bland)
    return tableau, cost, basis, labels, det


def _shift(rows):
    """Shift that makes every payoff positive: 1 - min if min <= 0, else 0."""
    low = min(min(row) for row in rows)
    return 1 - low if low <= 0 else 0


def solve_matrix_game(payoff: RatMatrix) -> GameSolution:
    """Exact simplex solve of the matrix game.

    Payoffs are shifted to be strictly positive (undone on output), then
    the minimizer's LP  max 1.w  s.t. M w <= 1, w >= 0  is solved by
    `_simplex` on integers: the shifted matrix is scaled by the lcm
    D of its denominators, giving rows [D*M | D] for  D*M w <= D  (the
    slacks are scaled by D).  The maximizer's strategy is read off the
    dual values, and Fractions are built only from the final integers.
    """
    p, q = payoff.shape
    shift = _shift(payoff.rows)
    m = [[x + shift for x in row] for row in payoff.rows]
    scale = math.lcm(*(x.denominator for row in m for x in row))
    rows = [[x.numerator * (scale // x.denominator) for x in row] for row in m]
    tableau, cost, basis, labels, det = _simplex(rows, scale, [max(col) for col in zip(*rows)])
    # optimal 1.w = total / det = 1 / val(shifted game) > 0; the slack
    # reduced costs are the duals over D (0 for a basic slack), and det
    # cancels from every ratio
    total = cost[-1]
    w = [0] * q
    for i, var in enumerate(basis):
        if var < q:
            w[var] = tableau[i][-1]
    duals = [0] * p
    for j, var in enumerate(labels):
        if var >= q:
            duals[var - q] = cost[j]
    value = Fraction(det, total) - shift
    x_opt = tuple(Fraction(scale * u, total) for u in duals)
    y_opt = tuple(Fraction(v, total) for v in w)
    return GameSolution(value=value, x_opt=x_opt, y_opt=y_opt)


def positive_ratio(rows: list[list], col_max: list) -> tuple:
    """(det, total), both positive: the value det / total of a strictly positive game.

    `rows` are strictly positive ints or `ratlinalg.IntPoly` germs and
    `col_max` their column maxima.  Runs the same pivots as
    `solve_matrix_game` with scale 1.
    """
    _, cost, _, _, det = _simplex(rows, 1, col_max)
    return det, cost[-1]


def _value_ratio(rows: list[list], col_max: list) -> tuple:
    """(det - shift * total, total): the game value's numerator and positive denominator.

    `col_max` holds the column maxima of `rows`, which are shifted
    positive first: the value is det / total - shift.
    """
    shift = _shift(rows)
    det, total = positive_ratio(
        [[x + shift for x in row] for row in rows], [x + shift for x in col_max]
    )
    return det - shift * total, total


def matrix_game_ratio(rows: list[list[int]]) -> tuple[int, int]:
    """(numerator, positive denominator) of an integer matrix game's exact value, not reduced.

    A saddle entry (maximin = minimax) is the value over 1, with no pivot;
    otherwise the column maxima of the saddle test pick the first pivot.
    """
    col_max = [max(col) for col in zip(*rows)]
    maximin = max(min(row) for row in rows)
    if maximin == min(col_max):
        return maximin, 1
    return _value_ratio(rows, col_max)


def matrix_game_value(rows: list[list[int]]) -> Fraction:
    """Exact value of an integer matrix game (`matrix_game_ratio` as a Fraction)."""
    return Fraction(*matrix_game_ratio(rows))
