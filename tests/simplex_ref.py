"""The full-tableau pivot loop, kept as a test-side reference.

`matrixgame._simplex` stores only the nonbasic columns of the tableau
[rows | I | scale]: a basic column is det * e_r, so it carries nothing.
The loop it replaced updated every column; it stays here verbatim, but
for the `path` argument, which records each pivot as (entering variable,
leaving row), and for its first entering column, the pure minimax
column that `matrixgame._simplex` starts from.  The condensed loop must
take the same pivots and store the same entries, so both return the
same det, objective, basis and slack duals.
"""

from __future__ import annotations

from stochgame.ratlinalg import IntPoly, bareiss_row, int_row


def full_simplex(rows: list[list], scale, path: list | None = None) -> tuple:
    """Fraction-free simplex on the tableau [rows | I | scale].

    The entries of `rows` are strictly positive elements of an ordered
    ring with exact division (ints, or `ratlinalg.IntPoly` ordered at
    lam -> 0+).  Solves  max 1.w  s.t. rows w <= scale, w >= 0  with
    Edmonds/Bareiss pivots: after each pivot every entry equals det * (the
    rational tableau entry), where det is the current pivot (the basis
    determinant, always positive), so all signs and comparisons agree with
    a rational tableau.  Each non-pivot row, the cost row included, is
    updated to (x * piv - f * y) // det_prev, an exact division by
    Sylvester's identity; the pivot row is left unchanged.  The ring is
    read once, from the first entry of `rows`: a germ tableau updates its
    rows by `ratlinalg.bareiss_row`, one `IntPoly` per entry, and an
    integer tableau by `ratlinalg.int_row`.

    The first entering column is the one whose largest entry is smallest,
    ties to the lowest index; every right-hand side is `scale` then, so
    the ratio test leaves at its first largest entry.  After it the
    entering column is Dantzig's: the most negative reduced cost, ties
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
    first = True
    step = bareiss_row if isinstance(rows[0][0], IntPoly) else int_row

    while True:
        negative = [j for j in range(q + p) if cost[j] < 0]
        if not negative:
            return tableau, cost, basis, det
        if first:
            enter = min(range(q), key=lambda j: max(row[j] for row in rows))
            first = False
        else:
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
                tableau[i] = step(tableau[i], pivot_row, piv, tableau[i][enter], det)
        cost = step(cost, pivot_row, piv, cost[enter], det)
        det = piv
        basis[leave] = enter
        if path is not None:
            path.append((enter, leave))

