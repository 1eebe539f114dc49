"""Exact value and optimal mixed strategies of zero-sum matrix games.

A matrix game is identified with its rational payoff matrix (rows are the
maximizer's pure actions, columns the minimizer's).  `solve_matrix_game`
runs an exact simplex on the standard LP formulation, fraction-free over
one common denominator: the tableau holds integers and each pivot divides
exactly by the previous pivot (Edmonds 1967, the Bareiss scheme of
`ratlinalg.int_det`), so no Fraction is normalised until the answer.
The entering column is Dantzig's (most negative reduced cost) until the
first degenerate pivot and Bland's from then on, which keeps the paths
short and the loop finite.
There are three entry points over that one pivot loop (`_simplex`).
`solve_matrix_game` takes a `RatMatrix` and returns the value with both
optimal strategies.  `matrix_game_value` takes an integer grid (a game
scaled by a positive integer, as the oracle and the pencil build them)
and returns only its exact value, pivoting only if it has no saddle point.
`matrix_game_sign` runs the same loop over any ordered ring with exact
division and returns only the sign of the value; over `ratlinalg.IntPoly`
germs that is the sign for every small enough discount rate.
`shapley_snow_value` recomputes the value by enumerating
square kernels and certifying one, which serves as an independent
cross-check of the LP throughout the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .ratlinalg import RatMatrix, int_adjugate, sign


@dataclass(frozen=True)
class GameSolution:
    """Exact value plus optimal mixed strategies for both players.

    The strategies satisfy the optimality inequalities exactly:
    x_opt guarantees at least `value` against every column, and y_opt
    concedes at most `value` against every row.
    """

    value: Fraction
    x_opt: tuple[Fraction, ...]
    y_opt: tuple[Fraction, ...]


@dataclass(frozen=True)
class SnowCertificate:
    """A certified square kernel: value = kernel_det / cofactor_total."""

    value: Fraction
    row_support: tuple[int, ...]
    col_support: tuple[int, ...]
    kernel_det: Fraction
    cofactor_total: Fraction
    x_opt: tuple[Fraction, ...]
    y_opt: tuple[Fraction, ...]


def _simplex(rows: list[list], scale) -> tuple:
    """Fraction-free simplex on the tableau [rows | I | scale].

    The entries of `rows` are strictly positive elements of an ordered
    ring with exact division (ints, or `ratlinalg.IntPoly` ordered at
    lam -> 0+).  Solves  max 1.w  s.t. rows w <= scale, w >= 0  with
    Edmonds/Bareiss pivots: after each pivot every entry equals det * (the
    rational tableau entry), where det is the current pivot (the basis
    determinant, always positive), so all signs and comparisons agree with
    a rational tableau.  Each non-pivot row, the cost row included, is
    updated to (x * piv - f * y) // det_prev, an exact division by
    Sylvester's identity; the pivot row is left unchanged.

    The entering column is Dantzig's: the most negative reduced cost, ties
    to the lowest index.  From the first degenerate pivot (its pivot row
    has right-hand side 0) to the end of the solve it is Bland's: the
    lowest index with a negative cost.  The leaving row is always Bland's,
    so the loop terminates: every pivot before that one raises the
    objective, so no basis repeats, and Bland's rule terminates from any
    basis (Bland, Math. OR 1977).  Returns (tableau, cost row, basis,
    det); the optimum 1.w is cost[-1] / det > 0.
    """
    p, q = len(rows), len(rows[0])
    tableau = [list(row) + [int(i == r) for r in range(p)] + [scale] for i, row in enumerate(rows)]
    cost = [-1] * q + [0] * (p + 1)
    basis = list(range(q, q + p))
    det = 1
    bland = False

    while True:
        negative = [j for j in range(q + p) if cost[j] < 0]
        if not negative:
            return tableau, cost, basis, det
        enter = negative[0] if bland else min(negative, key=cost.__getitem__)
        # Bland's leaving rule: least ratio rhs/a over a > 0, ties to the
        # smallest basic variable; ratios compared by cross-multiplication
        leave = None
        for i in range(p):
            a = tableau[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                lhs = tableau[i][-1] * tableau[leave][enter]
                rhs = tableau[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:  # impossible with strictly positive columns
            raise ArithmeticError("unbounded matrix-game LP")
        pivot_row = tableau[leave]
        piv = pivot_row[enter]
        bland = bland or not pivot_row[-1]
        for i in range(p):
            if i != leave:
                f = tableau[i][enter]
                tableau[i] = [(x * piv - f * y) // det for x, y in zip(tableau[i], pivot_row)]
        f = cost[enter]
        cost = [(x * piv - f * y) // det for x, y in zip(cost, pivot_row)]
        det = piv
        basis[leave] = enter


def _shift(rows):
    """Shift that makes every payoff positive: 1 - min if min <= 0, else 0."""
    low = min(min(row) for row in rows)
    return 1 - low if low <= 0 else 0


def solve_matrix_game(payoff: RatMatrix) -> GameSolution:
    """Exact simplex solve of the matrix game.

    Payoffs are shifted to be strictly positive (undone on output), then
    the minimizer's LP  max 1.w  s.t. M w <= 1, w >= 0  is solved by
    `_simplex` on integers: the shifted matrix is scaled by the lcm
    D of its denominators, giving rows [D*M | I | D] (the slacks are
    scaled by D).  The maximizer's strategy is read off the dual values,
    and Fractions are built only from the final integers.
    """
    q = payoff.n_cols
    shift = _shift(payoff.rows)
    m = [[x + shift for x in row] for row in payoff.rows]
    scale = math.lcm(*(x.denominator for row in m for x in row))
    tableau, cost, basis, det = _simplex(
        [[x.numerator * (scale // x.denominator) for x in row] for row in m], scale
    )
    # optimal 1.w = total / det = 1 / val(shifted game) > 0; the slack
    # reduced costs are the duals over D, and det cancels from every ratio
    total = cost[-1]
    w = [0] * q
    for i, var in enumerate(basis):
        if var < q:
            w[var] = tableau[i][-1]
    value = Fraction(det, total) - shift
    x_opt = tuple(Fraction(scale * u, total) for u in cost[q:-1])
    y_opt = tuple(Fraction(v, total) for v in w)
    return GameSolution(value=value, x_opt=x_opt, y_opt=y_opt)


def _value_ratio(rows: list[list]) -> tuple:
    """(det - shift * total, total): the game value's numerator and positive denominator.

    Runs the same pivots as `solve_matrix_game` with scale 1: the value is
    det / total - shift with det, total > 0.
    """
    shift = _shift(rows)
    _, cost, _, det = _simplex([[x + shift for x in row] for row in rows], 1)
    total = cost[-1]
    return det - shift * total, total


def matrix_game_value(rows: list[list[int]]) -> Fraction:
    """Exact value of an integer matrix game; a saddle entry (maximin = minimax) needs no pivot."""
    maximin = max(min(row) for row in rows)
    if maximin == min(max(col) for col in zip(*rows)):
        return Fraction(maximin)
    num, total = _value_ratio(rows)
    return Fraction(num, total)


def matrix_game_sign(rows: list[list]) -> int:
    """Sign of the value of a matrix game over an ordered ring.

    The entries are ints or `ratlinalg.IntPoly` germs; for germs the sign
    is that of the value for every small enough lam > 0.
    """
    return sign(_value_ratio(rows)[0])


def _minor_table(memo: dict, int_rows: list[list[int]], prefix: tuple[int, ...], q: int) -> dict:
    """Memoized minors over the rows in `prefix`, keyed by column subset.

    Level t is built from level t-1 by Laplace expansion along the newest
    row, so every table is computed once and shared across all candidate
    kernels with the same row prefix.
    """
    table = memo.get(prefix)
    if table is None:
        parent = _minor_table(memo, int_rows, prefix[:-1], q)
        row = int_rows[prefix[-1]]
        depth = len(prefix) - 1
        table = {}
        for cols in itertools.combinations(range(q), len(prefix)):
            acc = 0
            for pos in range(len(cols)):
                minor = parent[cols[:pos] + cols[pos + 1 :]]
                if minor:
                    term = row[cols[pos]] * minor
                    acc += term if (depth + pos) % 2 == 0 else -term
            table[cols] = acc
        memo[prefix] = table
    return table


def shapley_snow_certificate(payoff: RatMatrix) -> SnowCertificate:
    """Find a square kernel certifying the game value.

    Square submatrices are enumerated by size ascending and lexicographic
    position within a size; the first candidate whose induced strategies
    are nonnegative and pass the exact optimality inequalities is returned.

    Candidate screening runs over an integer view with one global
    denominator D: a size-s kernel's determinant and cofactor sum both
    scale by D**s, so det/phi is a ratio of integers, and the cofactor sum
    comes from the rank-one identity det(M + D*J) = det(M) + D**s * phi.
    A candidate whose det/phi falls outside the maximin..minimax sandwich
    cannot certify (the certified ratio is the unique game value), so only
    the rare survivors pay for exact rational strategies.
    """
    p, q = payoff.shape
    rows = payoff.rows
    maximin = max(min(row) for row in rows)
    minimax = min(max(col) for col in zip(*rows))
    lo_n, lo_d = maximin.numerator, maximin.denominator
    hi_n, hi_d = minimax.numerator, minimax.denominator
    denom = math.lcm(*(x.denominator for row in rows for x in row))
    int_rows = [[int(x * denom) for x in row] for row in rows]
    shift_rows = [[x + denom for x in row] for row in int_rows]
    memo_raw: dict = {(): {(): 1}}
    memo_shift: dict = {(): {(): 1}}
    for size in range(1, min(p, q) + 1):
        depth = size - 1
        for row_support in itertools.combinations(range(p), size):
            prefix = row_support[:-1]
            raw_table = _minor_table(memo_raw, int_rows, prefix, q)
            shift_table = _minor_table(memo_shift, shift_rows, prefix, q)
            raw_last = int_rows[row_support[-1]]
            shift_last = shift_rows[row_support[-1]]
            for col_support in itertools.combinations(range(q), size):
                kernel_int = 0
                shifted_int = 0
                for pos in range(size):
                    sub_cols = col_support[:pos] + col_support[pos + 1 :]
                    c = col_support[pos]
                    negate = (depth + pos) % 2
                    minor = raw_table[sub_cols]
                    if minor:
                        term = raw_last[c] * minor
                        kernel_int += -term if negate else term
                    minor = shift_table[sub_cols]
                    if minor:
                        term = shift_last[c] * minor
                        shifted_int += -term if negate else term
                phi_int = shifted_int - kernel_int
                if phi_int == 0:
                    continue
                if phi_int > 0:
                    if (
                        kernel_int * lo_d < lo_n * phi_int
                        or kernel_int * hi_d > hi_n * phi_int
                    ):
                        continue
                else:
                    if (
                        kernel_int * lo_d > lo_n * phi_int
                        or kernel_int * hi_d < hi_n * phi_int
                    ):
                        continue
                # a certified ratio is also the value of the kernel itself,
                # so it must fall in the kernel's own (scaled) sandwich
                sub_int = [[int_rows[r][c] for c in col_support] for r in row_support]
                sub_lo = max(min(row) for row in sub_int)
                sub_hi = min(max(col) for col in zip(*sub_int))
                scaled = kernel_int * denom
                if phi_int > 0:
                    if scaled < sub_lo * phi_int or scaled > sub_hi * phi_int:
                        continue
                else:
                    if scaled > sub_lo * phi_int or scaled < sub_hi * phi_int:
                        continue
                # induced strategies: adjugate column/row sums over phi,
                # computed on the integer view (the D**(s-1) scale and the
                # sign of phi cancel out of every test below)
                adj_int = int_adjugate(sub_int)
                phi_sign = 1 if phi_int > 0 else -1
                col_sums = [sum(adj_int[i][j] for i in range(size)) for j in range(size)]
                if any(cs * phi_sign < 0 for cs in col_sums):
                    continue
                row_sums = [sum(adj_int[i][j] for j in range(size)) for i in range(size)]
                if any(rs * phi_sign < 0 for rs in row_sums):
                    continue
                if any(
                    (
                        sum(
                            col_sums[pos] * int_rows[row_support[pos]][b]
                            for pos in range(size)
                        )
                        - kernel_int
                    )
                    * phi_sign
                    < 0
                    for b in range(q)
                ):
                    continue
                if any(
                    (
                        sum(
                            row_sums[pos] * int_rows[a][col_support[pos]]
                            for pos in range(size)
                        )
                        - kernel_int
                    )
                    * phi_sign
                    > 0
                    for a in range(p)
                ):
                    continue
                x = [Fraction(0)] * p
                for pos, r in enumerate(row_support):
                    x[r] = Fraction(denom * col_sums[pos], phi_int)
                y = [Fraction(0)] * q
                for pos, c in enumerate(col_support):
                    y[c] = Fraction(denom * row_sums[pos], phi_int)
                area = denom**size
                return SnowCertificate(
                    value=Fraction(kernel_int, phi_int),
                    row_support=row_support,
                    col_support=col_support,
                    kernel_det=Fraction(kernel_int, area),
                    cofactor_total=Fraction(phi_int, area),
                    x_opt=tuple(x),
                    y_opt=tuple(y),
                )
    raise RuntimeError(
        "internal error: no square submatrix certifies the game value"
    )


def shapley_snow_value(payoff: RatMatrix) -> Fraction:
    """Game value via kernel enumeration; equals solve_matrix_game exactly."""
    return shapley_snow_certificate(payoff).value
