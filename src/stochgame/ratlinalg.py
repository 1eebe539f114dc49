"""Exact rational scalars, vectors and matrices.

Every quantity in this package is a `fractions.Fraction`, which already
guarantees the canonical form we rely on everywhere: positive denominator
and gcd(|numerator|, denominator) = 1 after each operation.  This module
adds strict text parsing and rendering at any length (`int_of_digits`,
`int_text`, `rational_text`), correctly rounded decimals, and small
dense matrices with exact determinants.  `IntPoly` is the one other
number type: an integer polynomial in the discount rate, ordered by its
sign as the rate tends to 0.  `bareiss_row` is the
Sylvester/Bareiss row step (x*piv - f*y) // det over those germs, fused
on coefficient lists; the germ pencils (`pencil.build_pencil` at `LAM`),
their entries at z, germ determinants (`int_det`) and the germ simplex
tableaux all update through it, while integer matrices take the plain
integer step `int_row`.  There is no
floating point anywhere; zero tests are exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

RationalLike = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse the strict text form "p/q" or "p" (optional sign, ASCII digits only), at any length."""
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"malformed rational {text!r}: expected 'p' or 'p/q'")
    num, _, den = s.partition("/")
    if den:
        q = int_of_digits(den)
        if q == 0:
            raise ValueError(f"malformed rational {text!r}: zero denominator")
        return Fraction(int_of_digits(num), q)
    return Fraction(int_of_digits(num))


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and strict rational strings; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot convert {type(value).__name__} to an exact rational")


# digits per int() or str() call: Python refuses int <-> str conversions above a
# digit limit (4300 by default, never set below 640), so longer numbers go in chunks
_CHUNK = 600
_CHUNK_BASE = 10**_CHUNK


def int_of_digits(text: str) -> int:
    """int(text) for ASCII digits with an optional sign, at any length."""
    if len(text) <= _CHUNK:
        return int(text)
    if text[0] in "+-":
        value = int_of_digits(text[1:])
        return -value if text[0] == "-" else value
    low = len(text) // 2
    return int_of_digits(text[:-low]) * 10**low + int_of_digits(text[-low:])


def _digits(n: int, width: int) -> str:
    """Decimal digits of n >= 0, zero-padded to at least width >= 1, chunk by chunk."""
    chunks = []
    while n >= _CHUNK_BASE:
        n, low = divmod(n, _CHUNK_BASE)
        chunks.append(f"{low:0{_CHUNK}d}")
        width -= _CHUNK
    chunks.append(f"{n:0{max(width, 1)}d}")
    return "".join(reversed(chunks))


def int_text(n: int) -> str:
    """str(n), at any length."""
    if -_CHUNK_BASE < n < _CHUNK_BASE:
        return str(n)
    return ("-" if n < 0 else "") + _digits(abs(n), 1)


def rational_text(x: Fraction) -> str:
    """str(x) ("p" or "p/q"), at any length."""
    if x.denominator == 1:
        return int_text(x.numerator)
    return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


def format_decimal(value: Fraction, digits: int) -> str:
    """Render ``value`` rounded to ``digits`` decimal places (ties to even), at any length."""
    if digits < 0:
        raise ValueError("digit count must be nonnegative")
    num = value.numerator * 10**digits
    den = value.denominator
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2 != 0):
        q += 1
    sign_str = "-" if q < 0 else ""
    if digits == 0:
        return sign_str + _digits(abs(q), 1)
    whole, frac = divmod(abs(q), 10**digits)
    return f"{sign_str}{_digits(whole, 1)}.{_digits(frac, digits)}"


def ceil_log2(x: Fraction) -> int:
    """Smallest integer e >= 0 with 2**e >= x (x > 0)."""
    return (math.ceil(x) - 1).bit_length()


def sign(value: Fraction) -> int:
    """Exact sign: -1, 0 or +1."""
    n = value.numerator
    return (n > 0) - (n < 0)


def simplest_between(lo_num: int, lo_den: int, hi_num: int, hi_den: int) -> tuple[int, int]:
    """Reduced (num, den > 0) of the simplest rational in [lo_num/lo_den, hi_num/hi_den].

    Simplest means the smallest denominator, then the smallest |numerator|.
    Both denominators are positive; neither pair need be reduced.  This is
    the standard Stern-Brocot descent (one continued-fraction digit per
    step) on integer pairs; it recovers exact values from certified
    enclosing intervals.
    """
    if lo_num * hi_den > hi_num * lo_den:
        raise ValueError("empty interval")
    if lo_num <= 0 <= hi_num:
        return 0, 1
    if hi_num < 0:
        num, den = simplest_between(-hi_num, hi_den, -lo_num, lo_den)
        return -num, den
    ceil_lo = -(-lo_num // lo_den)
    if ceil_lo * hi_den <= hi_num:
        # an integer lies in the interval; the smallest one is simplest
        return ceil_lo, 1
    # lo is not an integer: recurse on [1/(hi - floor_lo), 1/(lo - floor_lo)],
    # whose simplest rational num/den gives floor_lo + den/num
    floor_lo = lo_num // lo_den
    num, den = simplest_between(
        hi_den, hi_num - floor_lo * hi_den, lo_den, lo_num - floor_lo * lo_den
    )
    return floor_lo * num + den, num


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


class IntPoly:
    """Immutable integer polynomial in lam, ordered as lam -> 0+.

    coeffs[i] is the coefficient of lam**i, without trailing zeros (zero
    is the empty tuple); ints mix in as constants.  `+ - *` are exact,
    `//` is exact division and raises ArithmeticError if a remainder is
    left, and comparisons go by the sign of the lowest-order nonzero
    coefficient: p > 0 exactly when p(lam) > 0 for every small enough
    lam > 0 (the ordered ring of Jeroslow's asymptotic linear
    programming).  Like an int it is its own numerator over denominator
    1, so integer code such as `int_det` runs over it unchanged.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and not c[-1]:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def numerator(self) -> "IntPoly":
        return self

    @property
    def denominator(self) -> int:
        return 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def sign(self) -> int:
        c = self.coeffs
        return (c[_order(c)] > 0) * 2 - 1 if c else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __neg__(self) -> "IntPoly":
        return _wrap(tuple(-x for x in self.coeffs))

    def __add__(self, other) -> "IntPoly":
        return _sum(self.coeffs, _coeffs(other), 1)

    __radd__ = __add__

    def __sub__(self, other) -> "IntPoly":
        return _sum(self.coeffs, _coeffs(other), -1)

    def __rsub__(self, other) -> "IntPoly":
        return _sum(_coeffs(other), self.coeffs, -1)

    def __mul__(self, other) -> "IntPoly":
        a, b = self.coeffs, _coeffs(other)
        if not a or not b:
            return _ZERO
        # a constant factor scales the other's coefficients
        if len(b) == 1:
            c = b[0]
            return _wrap(tuple(x * c for x in a))
        if len(a) == 1:
            c = a[0]
            return _wrap(tuple(c * y for y in b))
        # multiply the parts above the lowest nonzero terms
        va, vb = _order(a), _order(b)
        a, b = a[va:], b[vb:]
        out = [0] * (va + vb + len(a) + len(b) - 1)
        for i, x in enumerate(a, va + vb):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _wrap(tuple(out))

    __rmul__ = __mul__

    def __floordiv__(self, other) -> "IntPoly":
        div = _coeffs(other)
        if not div:
            raise ZeroDivisionError("IntPoly division by zero")
        return _wrap(_quotient(self.coeffs, div))

    def __rfloordiv__(self, other) -> "IntPoly":
        return _wrap(_coeffs(other)) // self

    def __eq__(self, other) -> bool:
        if isinstance(other, (IntPoly, int)):
            return self.coeffs == _coeffs(other)
        return NotImplemented

    def __hash__(self) -> int:
        c = self.coeffs
        return hash(c[0] if len(c) == 1 else c or 0)

    def _sign_minus(self, other) -> int:
        return (self if isinstance(other, int) and not other else self - other).sign()

    def __lt__(self, other) -> bool:
        return self._sign_minus(other) < 0

    def __le__(self, other) -> bool:
        return self._sign_minus(other) <= 0

    def __gt__(self, other) -> bool:
        return self._sign_minus(other) > 0

    def __ge__(self, other) -> bool:
        return self._sign_minus(other) >= 0

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs})"


def _wrap(coeffs: tuple) -> IntPoly:
    """IntPoly over coefficients that are already trimmed."""
    p = object.__new__(IntPoly)
    object.__setattr__(p, "coeffs", coeffs)
    return p


_ZERO = _wrap(())


def _coeffs(x) -> tuple:
    """Coefficients of an IntPoly, or of an int as a constant."""
    if isinstance(x, IntPoly):
        return x.coeffs
    return (x,) if x else ()


def _order(c: tuple) -> int:
    i = 0
    while not c[i]:
        i += 1
    return i


def _sum(a: tuple, b: tuple, f: int) -> IntPoly:
    """a + f*b for f = +1 or -1."""
    if len(a) > len(b):
        out = list(a)
        for i, y in enumerate(b):
            out[i] += f * y
        return _wrap(tuple(out))
    out = [f * y for y in b]
    for i, x in enumerate(a):
        out[i] += x
    if len(a) == len(b):
        while out and not out[-1]:
            out.pop()
    return _wrap(tuple(out))


def _quotient(num, div: tuple) -> tuple:
    """Exact quotient of trimmed coefficient sequences, div nonzero.

    Raises ArithmeticError if a remainder is left.  A constant divisor
    divides each coefficient; any other is divided out by long division
    from the top, on the parts above the lowest terms.
    """
    if len(div) == 1:
        c = div[0]
        if c == 1:
            return tuple(num)
        quot = []
        for x in num:
            q, r = divmod(x, c)
            if r:
                raise ArithmeticError("inexact IntPoly division")
            quot.append(q)
        return tuple(quot)
    if not num:
        return ()
    shift = _order(div)
    if _order(num) < shift:
        raise ArithmeticError("inexact IntPoly division")
    rem, div = list(num[shift:]), div[shift:]
    top = len(div) - 1
    lead = div[top]
    quot = [0] * max(len(rem) - top, 0)
    for i in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[i + top], lead)
        if r:
            raise ArithmeticError("inexact IntPoly division")
        if q:
            quot[i] = q
            for j, d in enumerate(div, i):
                rem[j] -= q * d
    if any(rem):
        raise ArithmeticError("inexact IntPoly division")
    return tuple(quot)


def bareiss_row(row, pivot_row, piv, f, det) -> list[IntPoly]:
    """The Sylvester/Bareiss row step over germs, one `IntPoly` per entry.

    Returns [(x*piv - f*y) // det for x, y in zip(row, pivot_row)] for
    entries that are `IntPoly` germs or ints (the result holds germs).
    Both products accumulate into one coefficient list, skipping zero
    entries and zero coefficients, and one exact division by det follows;
    it raises ArithmeticError if a remainder is left.  Each caller picks
    the ring once, by whether the first entry of its grid is an `IntPoly`,
    and runs the plain expression on integer grids.
    """
    dc = _coeffs(det)
    if not dc:
        raise ZeroDivisionError("IntPoly division by zero")
    pc, fc = _coeffs(piv), _coeffs(f)
    # the nonzero terms (power, coefficient) of the two fixed factors
    p_terms = [(j, c) for j, c in enumerate(pc) if c]
    f_terms = [(j, c) for j, c in enumerate(fc) if c]
    p_len, f_len = len(pc) - 1, len(fc) - 1
    out = []
    for x, y in zip(row, pivot_row):
        xc = x.coeffs if isinstance(x, IntPoly) else ((x,) if x else ())
        yc = y.coeffs if isinstance(y, IntPoly) else ((y,) if y else ())
        # coefficients of x*piv - f*y, 0 when both products vanish
        size = max(len(xc) + p_len if xc and p_terms else 0,
                   len(yc) + f_len if yc and f_terms else 0)
        if not size:
            out.append(_ZERO)
            continue
        acc = [0] * size
        for i, a in enumerate(xc):
            if a:
                for j, c in p_terms:
                    acc[i + j] += a * c
        for i, a in enumerate(yc):
            if a:
                for j, c in f_terms:
                    acc[i + j] -= a * c
        while acc and not acc[-1]:
            acc.pop()
        out.append(_wrap(_quotient(acc, dc)) if acc else _ZERO)
    return out


def int_row(row, pivot_row, piv, f, det) -> list[int]:
    """The Sylvester/Bareiss row step (x*piv - f*y) // det on integers."""
    return [(x * piv - f * y) // det for x, y in zip(row, pivot_row)]


LAM = IntPoly((0, 1))


def int_det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss elimination.

    Mutates its argument.  Each column's pivot is the first nonzero entry
    on or below the diagonal; a row swap flips the sign, and a column
    without one makes the determinant 0.  After step k, by Sylvester's
    identity, every entry below and right of the pivot is a (k+2)-minor of
    the row-swapped matrix, so every division is exact and the last entry
    is the determinant up to the swaps' sign.  A matrix whose top-left
    entry is an `IntPoly` takes each row step as one `bareiss_row` call;
    any other takes `int_row`, which is exact over germs too.
    """
    n = len(a)
    step = bareiss_row if isinstance(a[0][0], IntPoly) else int_row
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
        tail_k = a[k][k + 1 :]
        for row_i in a[k + 1 :]:
            row_i[k + 1 :] = step(row_i[k + 1 :], tail_k, pivot, row_i[k], prev)
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
