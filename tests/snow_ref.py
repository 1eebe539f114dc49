"""The Shapley-Snow kernel certificate, kept as a test-side reference.

Shapley and Snow (1950): every matrix game has a square kernel whose
determinant over its cofactor sum is the value, with optimal strategies
read from the kernel's adjugate.  `shapley_snow_certificate` recomputes
the value by enumerating square kernels and certifying one, with exact
optimality verification, and so cross-checks the simplex of
`stochgame.matrixgame` throughout the test suite.  `int_adjugate` is its
one helper.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from stochgame.ratlinalg import RatMatrix, int_det


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


def int_adjugate(a: list[list[int]]) -> list[list[int]]:
    """Adjugate of an integer matrix via Bareiss cofactor minors."""
    n = len(a)
    if n == 1:
        return [[1]]
    idx = range(n)
    out = [[0] * n for _ in idx]
    for i in idx:
        rows = [a[r] for r in idx if r != i]
        for j in idx:
            cof = int_det([[row[c] for c in idx if c != j] for row in rows])
            out[j][i] = cof if (i + j) % 2 == 0 else -cof
    return out


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
