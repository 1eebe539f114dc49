import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from stochgame import ratlinalg
from stochgame.ratlinalg import (
    LAM,
    IntPoly,
    RatMatrix,
    bareiss_row,
    ceil_log2,
    det,
    format_decimal,
    int_det,
    int_of_digits,
    int_text,
    parse_rational,
    rational_text,
    sign,
    to_fraction,
)

from bland_ref import plain_row
from chain_refs import SingularMatrixError, solve_linear
from gens import rand_fraction, rand_matrix
from mdp_refs import germ_order
from oracle_refs import simplest_between
from pencil_refs import kron
from snow_ref import int_adjugate

fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
)


def naive_det(m: RatMatrix) -> Fraction:
    """First-row cofactor expansion, the independent determinant oracle."""
    n = m.n_rows
    if n == 1:
        return m.rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if m.rows[0][j] == 0:
            continue
        minor = m.submatrix(range(1, n), [c for c in range(n) if c != j])
        total += (-1) ** j * m.rows[0][j] * naive_det(minor)
    return total


class TestParsing:
    def test_canonical_form_is_unique(self):
        assert parse_rational("2/4") == parse_rational("1/2")
        assert parse_rational("2/4").denominator == 2

    @pytest.mark.parametrize(
        "text,expected",
        [("3", Fraction(3)), ("-3/4", Fraction(-3, 4)), ("+7/14", Fraction(1, 2)), ("0", 0)],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "text", ["1.5", "", "1/0", "3/-4", "a/b", "1e3", "1 / 2", "1_0", "１", "٣/4"]
    )
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_to_fraction_rejects_floats(self):
        with pytest.raises(TypeError):
            to_fraction(0.5)

    @given(fractions_st)
    def test_roundtrip(self, x):
        assert parse_rational(str(x)) == x


# Decimal converts ints to text and back without Python's int/str digit limit
def decimal_text(n: int) -> str:
    return str(Decimal(n))


class TestLongNumbers:
    """Numbers longer than the int/str digit limit (never below 640) parse and render."""

    def test_int_text_and_back(self):
        # pytest would name parametrized cases by str(n), so one loop runs them
        for n in (10**3000 + 1, -(10**2999 + 3), 7**5000, 10**600, 10**600 - 1, 10**601,
                  -(10**600), 0, -1, 5, 10**599):
            text = int_text(n)
            assert text == decimal_text(n)
            assert int_of_digits(text) == n

    @pytest.mark.parametrize("sign", ["", "+", "-"])
    def test_int_of_digits_reads_signs_and_leading_zeros(self, sign):
        digits = "000" + decimal_text(7**5000)
        assert int_of_digits(sign + digits) == (-(7**5000) if sign == "-" else 7**5000)

    def test_rational_text_and_parse(self):
        x = Fraction(-(7**5000), 10**3000 + 1)
        text = rational_text(x)
        assert text == f"{decimal_text(x.numerator)}/{decimal_text(x.denominator)}"
        assert parse_rational(text) == x
        assert rational_text(Fraction(7**5000)) == decimal_text(7**5000)

    def test_zero_denominator_of_any_length(self):
        with pytest.raises(ValueError, match="zero denominator") as exc:
            parse_rational("1/" + "0" * 5000)
        assert "set_int_max_str_digits" not in str(exc.value)

    @given(fractions_st)
    def test_rational_text_is_str(self, x):
        assert rational_text(x) == str(x)


class TestDecimalRendering:
    @pytest.mark.parametrize(
        "value,digits,expected",
        [
            (Fraction(1, 3), 4, "0.3333"),
            (Fraction(2, 3), 4, "0.6667"),
            (Fraction(-1, 8), 2, "-0.12"),  # ties to even
            (Fraction(1, 8), 2, "0.12"),
            (Fraction(3, 8), 2, "0.38"),
            (Fraction(3, 2), 0, "2"),
            (Fraction(1, 2), 0, "0"),
            (Fraction(-1, 100), 2, "-0.01"),
            (Fraction(5), 3, "5.000"),
        ],
    )
    def test_examples(self, value, digits, expected):
        assert format_decimal(value, digits) == expected

    @given(fractions_st, st.integers(min_value=0, max_value=6))
    def test_correct_rounding(self, x, digits):
        rendered = format_decimal(x, digits)
        as_fraction = Fraction(rendered.replace(".", "")) / 10**digits if "." in rendered else Fraction(rendered)
        assert abs(as_fraction - x) <= Fraction(1, 2 * 10**digits)


class TestSimplestBetween:
    def test_examples(self):
        assert simplest_between(Fraction(4999, 10000), Fraction(5001, 10000)) == Fraction(1, 2)
        assert simplest_between(Fraction(2), Fraction(3)) == 2
        assert simplest_between(Fraction(1, 3), Fraction(1, 3)) == Fraction(1, 3)
        assert simplest_between(Fraction(-1, 2), Fraction(1, 5)) == 0
        assert simplest_between(Fraction(-7, 10), Fraction(-6, 10)) == Fraction(-2, 3)

    @given(fractions_st, st.fractions(min_value=0, max_value=2, max_denominator=64))
    def test_lands_inside_and_no_simpler(self, lo, width):
        hi = lo + width
        best = simplest_between(lo, hi)
        assert lo <= best <= hi
        for den in range(1, best.denominator):
            lo_num = -((-lo.numerator * den) // lo.denominator)  # ceil(lo * den)
            assert lo_num > hi * den, f"simpler denominator {den} exists"


# (num, den) pairs, den > 0, not necessarily reduced: negative, zero and
# positive values, integers among them
unreduced_pairs = st.tuples(
    st.integers(min_value=-300, max_value=300), st.integers(min_value=1, max_value=40)
)


class TestIntegerSimplestBetween:
    """The library's integer Stern-Brocot descent against the Fraction reference."""

    def test_examples(self):
        assert ratlinalg.simplest_between(4999, 10000, 5001, 10000) == (1, 2)
        assert ratlinalg.simplest_between(4, 2, 6, 2) == (2, 1)
        assert ratlinalg.simplest_between(2, 6, 2, 6) == (1, 3)
        assert ratlinalg.simplest_between(-1, 2, 1, 5) == (0, 1)
        assert ratlinalg.simplest_between(-7, 10, -6, 10) == (-2, 3)
        with pytest.raises(ValueError, match="empty interval"):
            ratlinalg.simplest_between(1, 2, 1, 3)

    @given(unreduced_pairs, unreduced_pairs)
    @example((-3, 4), (-3, 4))
    @example((6, 3), (6, 3))
    @example((-6, 4), (5, 3))
    @example((-8, 4), (-2, 2))
    @example((1, 3), (3, 1))
    def test_matches_the_fraction_reference(self, a, b):
        (ln, ld), (hn, hd) = sorted((a, b), key=lambda v: Fraction(*v))
        num, den = ratlinalg.simplest_between(ln, ld, hn, hd)
        assert den > 0 and math.gcd(num, den) == 1
        assert Fraction(num, den) == simplest_between(Fraction(ln, ld), Fraction(hn, hd))


class TestDeterminant:
    def test_identity(self):
        assert det(RatMatrix.identity(3)) == 1

    def test_single_entry(self):
        assert det(RatMatrix([["5/7"]])) == Fraction(5, 7)

    def test_two_by_two_hand_value(self):
        assert det(RatMatrix([[1, 2], [3, 4]])) == -2

    def test_singular(self):
        assert det(RatMatrix([[1, 2], [2, 4]])) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det(RatMatrix([[1, 2]]))

    def test_matches_cofactor_oracle(self):
        rng = random.Random(1)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rand_matrix(rng, n, n)
            assert det(m) == naive_det(m)

    def test_product_rule(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.randint(1, 3)
            a = rand_matrix(rng, n, n)
            b = rand_matrix(rng, n, n)
            assert det(a @ b) == det(a) * det(b)

    def test_column_linearity(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 3)
            m = rand_matrix(rng, n, n)
            k = rng.randint(1, n)
            u = [rand_fraction(rng) for _ in range(n)]
            w = [rand_fraction(rng) for _ in range(n)]
            alpha, beta = rand_fraction(rng), rand_fraction(rng)
            mixed = [alpha * a + beta * b for a, b in zip(u, w)]
            assert det(m.replace_column(k, mixed)) == alpha * det(
                m.replace_column(k, u)
            ) + beta * det(m.replace_column(k, w))

    def test_int_det_pivot_search(self):
        assert int_det([[0, 1], [1, 0]]) == -1
        assert int_det([[0, 0], [0, 0]]) == 0


class TestReplaceColumn:
    def test_direct_substitution(self):
        m = RatMatrix.identity(2)
        assert m.replace_column(1, [5, 7]) == RatMatrix([[5, 0], [7, 1]])

    def test_idempotent_replacement(self):
        rng = random.Random(4)
        m = rand_matrix(rng, 3, 3)
        assert m.replace_column(2, m.column(1)) == m

    def test_singular_by_construction(self):
        m = RatMatrix.identity(2).replace_column(2, [0, 0])
        assert det(m) == 0

    def test_original_unchanged(self):
        m = RatMatrix.identity(2)
        m.replace_column(1, [5, 7])
        assert m == RatMatrix.identity(2)

    @pytest.mark.parametrize("k", [0, 3])
    def test_index_out_of_range(self, k):
        with pytest.raises(ValueError):
            RatMatrix.identity(2).replace_column(k, [1, 2])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            RatMatrix.identity(2).replace_column(1, [1, 2, 3])


class TestCeilLog2:
    @given(st.builds(Fraction, st.integers(1, 2**200), st.integers(1, 2**200)))
    def test_least_nonnegative_exponent(self, x):
        e = ceil_log2(x)
        assert e >= 0 and 2**e >= x
        assert e == 0 or 2 ** (e - 1) < x

    @pytest.mark.parametrize("e", [0, 1, 2, 10, 64, 300])
    def test_powers_of_two_and_neighbours(self, e):
        eps = Fraction(1, 10**9)
        assert ceil_log2(Fraction(2**e)) == e
        assert ceil_log2(2**e - eps) == e
        assert ceil_log2(2**e + eps) == e + 1


class TestIntAdjugate:
    def test_adjugate_identity(self):
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            adj = RatMatrix(int_adjugate(a))
            d = int_det([row[:] for row in a])
            assert RatMatrix(a) @ adj == RatMatrix.identity(n).scaled(d)


class TestSolveLinear:
    def test_identity(self):
        b = [Fraction(2), Fraction(-5, 3)]
        assert solve_linear(RatMatrix.identity(2), b) == tuple(b)

    def test_diagonal(self):
        assert solve_linear(RatMatrix([[2, 0], [0, 4]]), [1, 1]) == (
            Fraction(1, 2),
            Fraction(1, 4),
        )

    def test_residual_is_exactly_zero(self):
        rng = random.Random(7)
        solved = 0
        while solved < 20:
            a = rand_matrix(rng, 3, 3)
            if det(a) == 0:
                continue
            b = [rand_fraction(rng) for _ in range(3)]
            x = solve_linear(a, b)
            assert a @ RatMatrix([[v] for v in x]) == RatMatrix([[v] for v in b])
            solved += 1

    def test_cramer_consistency(self):
        rng = random.Random(8)
        solved = 0
        while solved < 20:
            n = rng.randint(1, 3)
            a = rand_matrix(rng, n, n)
            d = det(a)
            if d == 0:
                continue
            b = [rand_fraction(rng) for _ in range(n)]
            x = solve_linear(a, b)
            for k in range(1, n + 1):
                assert x[k - 1] * d == det(a.replace_column(k, b))
            solved += 1

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(RatMatrix([[1, 2], [2, 4]]), [1, 1])


class TestMatrixBasics:
    def test_kron_shape_and_entries(self):
        a = RatMatrix([[1, 2]])
        b = RatMatrix([[0, 1], [1, 0]])
        k = kron(a, b)
        assert k.shape == (2, 4)
        assert k == RatMatrix([[0, 1, 0, 2], [1, 0, 2, 0]])

    def test_immutability(self):
        m = RatMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = ()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RatMatrix([])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            RatMatrix([[1, 2], [3]])

    def test_sign(self):
        assert sign(Fraction(-3, 7)) == -1
        assert sign(Fraction(0)) == 0
        assert sign(Fraction(2)) == 1


def test_format_decimal_rejects_negative_digits():
    with pytest.raises(ValueError):
        format_decimal(Fraction(1, 3), -1)


coefficients = st.lists(
    st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)), max_size=6
)
polys = coefficients.map(IntPoly)
constants = st.one_of(st.integers(-(2**70), 2**70), st.integers(-9, 9).map(lambda k: IntPoly((k,))))


def at(p: IntPoly, x):
    """p evaluated at x by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


class TestIntPoly:
    def test_normal_form_and_constants(self):
        assert IntPoly((3, 0, 0)).coeffs == (3,)
        assert IntPoly((0, 0)) == 0 and not IntPoly()
        assert IntPoly((5,)) == 5 and hash(IntPoly((5,))) == hash(5)
        assert LAM * LAM - 1 == IntPoly((-1, 0, 1))
        assert 2 - LAM == IntPoly((2, -1)) and 3 * LAM == LAM * 3 == IntPoly((0, 3))
        assert germ_order(IntPoly((0, 0, 7, 1))) == 2 and IntPoly((1, 2)).coeff(5) == 0

    def test_zero_has_no_order(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            germ_order(IntPoly(()))

    @given(polys, polys, polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == 0 and a + 0 == a and a * 1 == a and a * 0 == 0
        assert -(a - b) == b - a

    @given(polys, polys, st.integers(-5, 5))
    def test_agrees_with_evaluation(self, a, b, x):
        assert at(a + b, x) == at(a, x) + at(b, x)
        assert at(a - b, x) == at(a, x) - at(b, x)
        assert at(a * b, x) == at(a, x) * at(b, x)

    @given(polys, polys)
    def test_exact_division(self, a, b):
        if b:
            assert (a * b) // b == a
            assert (a * b) // IntPoly(b.coeffs) == a

    @given(polys, constants, st.integers(-5, 5))
    def test_constant_operands(self, a, c, x):
        # an int or a constant germ scales the coefficients, both ways round
        k = c.coeff(0) if isinstance(c, IntPoly) else c
        assert at(a * c, x) == at(c * a, x) == at(a, x) * k
        if k:
            assert (a * c) // c == a
            if k not in (1, -1):
                with pytest.raises(ArithmeticError):
                    (a * c + 1) // c

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            IntPoly((1, 1)) // 2
        with pytest.raises(ArithmeticError):
            (LAM * LAM + 1) // (LAM + 1)
        with pytest.raises(ArithmeticError):
            IntPoly((1, 0, 1)) // LAM  # lam does not divide 1 + lam^2
        with pytest.raises(ArithmeticError):
            3 // (LAM + 1)
        with pytest.raises(ZeroDivisionError):
            LAM // IntPoly()

    @given(polys)
    def test_sign_is_the_sign_at_small_lam(self, p):
        # past t, the lowest-order term outweighs all others at lam = 2^-t
        t = sum(abs(c) for c in p.coeffs).bit_length() + 2
        assert p.sign() == sign(Fraction(at(p, Fraction(1, 2**t))))
        assert (p > 0, p == 0, p < 0) == (p.sign() > 0, p.sign() == 0, p.sign() < 0)

    @given(polys, polys)
    def test_order_is_total_and_compatible(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1
        assert (a <= b) == ((a - b).sign() <= 0) and (a >= b) == (b <= a)
        assert (a < b) == (a + LAM < b + LAM)

    @given(st.lists(st.lists(coefficients, min_size=3, max_size=3), min_size=3, max_size=3),
           st.integers(-4, 4))
    def test_bareiss_over_polynomials(self, rows, x):
        # int_det runs over Z[lam]; its divisions are exact there too
        m = [[IntPoly(c) for c in row] for row in rows]
        expected = int_det([[at(p, x) for p in row] for row in m])
        assert at(IntPoly(()) + int_det([list(row) for row in m]), x) == expected



# entries of a row step: zero, constants, germs of positive order, negative
# coefficients, and plain ints of both sizes
step_entries = st.one_of(
    polys,
    coefficients.map(lambda c: IntPoly([0, 0] + c)),
    st.integers(-9, 9),
    st.integers(-(2**70), 2**70),
)


def leibniz3(m):
    """3x3 determinant by the six-term expansion, in the entries' own ring."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


class TestBareissRow:
    @given(st.lists(st.tuples(step_entries, step_entries), max_size=6),
           step_entries, step_entries, step_entries)
    def test_matches_the_plain_expression(self, pairs, piv, f, det):
        # scaling both rows by det makes every division exact
        if not det:
            det = 1
        row = [x * det for x, _ in pairs]
        pivot_row = [y * det for _, y in pairs]
        got = bareiss_row(row, pivot_row, piv, f, det)
        assert got == plain_row(row, pivot_row, piv, f, det)
        assert all(isinstance(x, IntPoly) for x in got)

    @pytest.mark.parametrize("m", [
        [[2 + LAM, 3, 1 + LAM], [1, LAM, 3], [LAM, 1, 2]],
        [[2, 3, 5], [3, 7, 11], [5, 13, 17]],
    ])
    def test_two_steps_give_the_determinant(self, m):
        first = [bareiss_row(row[1:], m[0][1:], m[0][0], row[0], 1) for row in m[1:]]
        (piv, *upper), (f, *lower) = first
        # the second step divides by the first pivot, which divides neither
        # product on its own, only their difference
        for product in (lower[0] * piv, f * upper[0]):
            with pytest.raises(ArithmeticError):
                product // m[0][0]
        (last,) = bareiss_row(lower, upper, piv, f, m[0][0])
        assert last == leibniz3(m)
        for t in range(-3, 4):
            ints = [[at(IntPoly(()) + x, t) for x in row] for row in m]
            assert at(last, t) == int_det(ints)

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            bareiss_row([1, 2], [0, 0], 1, 0, 2)
        with pytest.raises(ArithmeticError):
            bareiss_row([LAM + 1], [LAM], 1, 1, LAM)
        with pytest.raises(ArithmeticError):
            bareiss_row([LAM * LAM + 1], [0], 1, 0, LAM + 1)
        with pytest.raises(ZeroDivisionError):
            bareiss_row([LAM], [1], 1, 1, IntPoly(()))
