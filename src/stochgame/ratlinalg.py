"""Exact rational scalars, vectors and matrices.

Every quantity in this package is a `fractions.Fraction`, which already
guarantees the canonical form we rely on everywhere: positive denominator
and gcd(|numerator|, denominator) = 1 after each operation.  This module
adds strict text parsing, correctly rounded decimal rendering, and small
dense matrices with exact determinants and linear solves.  There is no
floating point anywhere; zero tests are exact.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import SingularMatrixError

RationalLike = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse the strict text form "p/q" or "p" (optional leading sign)."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"malformed rational {text!r}: expected 'p' or 'p/q'")
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"malformed rational {text!r}: zero denominator")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and strict rational strings; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot convert {type(value).__name__} to an exact rational")


def format_decimal(value: Fraction, digits: int) -> str:
    """Render ``value`` rounded to ``digits`` decimal places (ties to even)."""
    if digits < 0:
        raise ValueError("digit count must be nonnegative")
    num = value.numerator * 10**digits
    den = value.denominator
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2 != 0):
        q += 1
    if digits == 0:
        return str(q)
    sign_str = "-" if q < 0 else ""
    a = abs(q)
    return f"{sign_str}{a // 10**digits}.{a % 10**digits:0{digits}d}"


def sign(value: Fraction) -> int:
    """Exact sign: -1, 0 or +1."""
    n = value.numerator
    return (n > 0) - (n < 0)


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Rational with the smallest denominator (then numerator) in [lo, hi].

    Standard Stern-Brocot descent; used to recover exact values from
    certified enclosing intervals.
    """
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_between(-hi, -lo)
    ceil_lo = -((-lo.numerator) // lo.denominator)
    if ceil_lo <= hi:
        # an integer lies in the interval; the smallest one is simplest
        return Fraction(ceil_lo)
    floor_lo = lo.numerator // lo.denominator
    frac = simplest_between(1 / (hi - floor_lo), 1 / (lo - floor_lo))
    return floor_lo + 1 / frac


class RatMatrix:
    """Immutable dense matrix of Fractions (desk scale, row major)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        data = tuple(tuple(to_fraction(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("rows have inconsistent lengths")
        object.__setattr__(self, "rows", data)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def constant(cls, n_rows: int, n_cols: int, value: RationalLike) -> "RatMatrix":
        v = to_fraction(value)
        return cls([[v] * n_cols for _ in range(n_rows)])

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.n_cols

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(zip(*self.rows))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RatMatrix":
        return RatMatrix([[self.rows[i][j] for j in col_idx] for i in row_idx])

    def replace_column(self, k: int, values: Sequence[RationalLike]) -> "RatMatrix":
        """Copy with 1-based column ``k`` replaced by ``values``."""
        if not self.is_square:
            raise ValueError("column replacement is defined for square matrices")
        if not 1 <= k <= self.n_cols:
            raise ValueError(f"column index {k} out of range 1..{self.n_cols}")
        vec = [to_fraction(v) for v in values]
        if len(vec) != self.n_rows:
            raise ValueError(f"replacement length {len(vec)} != size {self.n_rows}")
        j = k - 1
        return RatMatrix(
            [row[:j] + (vec[i],) + row[j + 1 :] for i, row in enumerate(self.rows)]
        )

    def scaled(self, c: RationalLike) -> "RatMatrix":
        c = to_fraction(c)
        return RatMatrix([[c * x for x in row] for row in self.rows])

    def __neg__(self) -> "RatMatrix":
        return self.scaled(-1)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return RatMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError(f"inner dimensions differ: {self.shape} @ {other.shape}")
        cols = other.transpose().rows
        return RatMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"RatMatrix[{body}]"


def mat_vec(m: RatMatrix, v: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    vec = [to_fraction(x) for x in v]
    if len(vec) != m.n_cols:
        raise ValueError(f"vector length {len(vec)} != column count {m.n_cols}")
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in m.rows)


def int_det(a: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination.

    Mutates its argument.  Every interior division is exact by Sylvester's
    identity, which keeps intermediate entries at minor-sized bit growth.
    """
    n = len(a)
    if n == 1:
        return a[0][0]
    flips = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    flips = -flips
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return flips * a[n - 1][n - 1]


def det(m: RatMatrix) -> Fraction:
    """Exact determinant: clear denominators row by row, then run Bareiss."""
    if not m.is_square:
        raise ValueError(f"determinant of non-square matrix {m.shape}")
    scale = 1
    a: list[list[int]] = []
    for row in m.rows:
        mult = math.lcm(*(x.denominator for x in row))
        a.append([int(x * mult) for x in row])
        scale *= mult
    return Fraction(int_det(a), scale)


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


def adjugate(m: RatMatrix) -> RatMatrix:
    """Adjugate (transposed cofactor matrix); satisfies M @ adj(M) = det(M) I.

    Clears one common denominator D and uses adj(M) = adj(D M) / D**(n-1).
    """
    if not m.is_square:
        raise ValueError(f"adjugate of non-square matrix {m.shape}")
    denom = math.lcm(*(x.denominator for row in m.rows for x in row))
    a = [[x.numerator * (denom // x.denominator) for x in row] for row in m.rows]
    area = denom ** (m.n_rows - 1)
    return RatMatrix([[Fraction(c, area) for c in row] for row in int_adjugate(a)])


def cofactor_sum(m: RatMatrix) -> Fraction:
    """Sum of all cofactors of a square matrix (1 for a 1x1 matrix).

    Uses the rank-one update identity det(M + 11^T) = det(M) + sum of
    cofactors, which needs only two Bareiss determinants.
    """
    if not m.is_square:
        raise ValueError(f"cofactor sum of non-square matrix {m.shape}")
    bumped = m + RatMatrix.constant(m.n_rows, m.n_cols, 1)
    return det(bumped) - det(m)


def solve_linear(a: RatMatrix, b: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """Exact solution of A x = b via Gaussian elimination.

    Pivot rule: first nonzero entry in column order (exact arithmetic makes
    the choice irrelevant to the result).  Raises SingularMatrixError when
    no pivot exists.
    """
    if not a.is_square:
        raise ValueError(f"linear solve needs a square matrix, got {a.shape}")
    n = a.n_rows
    rhs = [to_fraction(x) for x in b]
    if len(rhs) != n:
        raise ValueError(f"right-hand side length {len(rhs)} != size {n}")
    rows = [list(row) for row in a.rows]
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if rows[r][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"singular matrix: no pivot in column {k + 1}")
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            rhs[k], rhs[pivot_row] = rhs[pivot_row], rhs[k]
        pivot = rows[k][k]
        for i in range(k + 1, n):
            factor = rows[i][k] / pivot
            if factor == 0:
                continue
            for j in range(k, n):
                rows[i][j] -= factor * rows[k][j]
            rhs[i] -= factor * rhs[k]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        acc = rhs[k] - sum(rows[k][j] * x[j] for j in range(k + 1, n))
        x[k] = acc / rows[k][k]
    return tuple(x)


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Kronecker product a (x) b."""
    out = []
    for row_a in a.rows:
        for row_b in b.rows:
            out.append([x * y for x in row_a for y in row_b])
    return RatMatrix(out)


def permutations_with_parity(n: int):
    """Yield (permutation, parity) for all permutations of range(n)."""
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        yield perm, -1 if inversions % 2 else 1
