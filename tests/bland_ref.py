"""The pure Bland pivot loop, kept as a test-side cross-check.

`matrixgame._simplex` enters Dantzig's column (the most negative reduced
cost) and falls back to Bland's rule after a degenerate pivot.  The loop
it replaced entered by Bland's rule throughout, with the same Bareiss
updates and the same leaving rule; it stays here as an independent
reference for the signs and values over any ordered ring with exact
division (ints, or `ratlinalg.IntPoly` germs).  Its row update is the
plain expression `plain_row`, which also serves as the reference for the
fused germ step `ratlinalg.bareiss_row`.
"""

from __future__ import annotations

from stochgame.matrixgame import _shift


def plain_row(row, pivot_row, piv, f, det) -> list:
    """The Sylvester/Bareiss row step by the ring's own operators."""
    return [(x * piv - f * y) // det for x, y in zip(row, pivot_row)]


def bland_simplex(rows: list[list], scale) -> tuple:
    """Fraction-free Bland simplex on [rows | I | scale]; (tableau, cost, basis, det)."""
    p, q = len(rows), len(rows[0])
    tableau = [list(row) + [int(i == r) for r in range(p)] + [scale] for i, row in enumerate(rows)]
    cost = [-1] * q + [0] * (p + 1)
    basis = list(range(q, q + p))
    det = 1
    while True:
        enter = next((j for j in range(q + p) if cost[j] < 0), None)
        if enter is None:
            return tableau, cost, basis, det
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
        pivot_row = tableau[leave]
        piv = pivot_row[enter]
        for i in range(p):
            if i != leave:
                tableau[i] = plain_row(tableau[i], pivot_row, piv, tableau[i][enter], det)
        cost = plain_row(cost, pivot_row, piv, cost[enter], det)
        det = piv
        basis[leave] = enter


def bland_value_ratio(rows: list[list]) -> tuple:
    """(numerator, positive denominator) of the game value, by the pure Bland loop."""
    shift = _shift(rows)
    _, cost, _, det = bland_simplex([[x + shift for x in row] for row in rows], 1)
    total = cost[-1]
    return det - shift * total, total
