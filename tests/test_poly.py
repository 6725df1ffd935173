from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cellred import poly
from cellred.poly import (
    DegreeExceedsNu,
    IntPoly,
    ZeroPolynomial,
    check_magnitude,
    check_window,
    reverse_at,
    window_offset,
)

from klref import from_array, laurent_matmul

V = IntPoly({1: 1})
VI = IntPoly({-1: 1})


def test_laurent_basics():
    assert (V + VI) * (V - VI) == IntPoly({2: 1, -2: -1})
    assert (VI + V) * (VI + V) == IntPoly({-2: 1, 0: 2, 2: 1})
    assert (IntPoly({3: 1}) + 2 * V).degree() == 3
    assert (V - 2 * VI).degree() == 1
    assert (VI * VI).degree() == -2  # a real Laurent degree
    assert IntPoly().is_zero
    assert (V - V).is_zero
    assert IntPoly({0: 5}) == 5
    assert V * IntPoly({-2: 1}) == VI


def test_laurent_leading_of_zero():
    for ask in (IntPoly.degree, IntPoly.lowest_degree, IntPoly.leading_coefficient):
        with pytest.raises(ZeroPolynomial):
            ask(IntPoly())


# Coefficients mix ints and fractions, as Hecke and dimension data do.
scalars = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=12)
laurents = st.dictionaries(st.integers(-6, 6), scalars, max_size=5).map(IntPoly)


@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + IntPoly() == a
    assert a * IntPoly({0: 1}) == a
    assert a - a == 0
    assert (a - b) + b == a
    assert hash(a + b) == hash(b + a)


@given(st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5),
       st.integers(6, 9))
def test_from_array_round_trip(coeffs, off):
    f = IntPoly(coeffs)
    row = np.zeros(2 * off + 1, dtype=np.int64)
    for k, a in f.coeffs().items():
        row[k + off] = a
    assert from_array(row, off) == f


def _poly_matrix(a, off):
    return [[from_array(e, off) for e in row] for row in a]


small_arrays = st.tuples(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
    st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32),
)


@given(small_arrays, st.integers(0, 3), st.integers(0, 3))
def test_laurent_matmul_is_the_laurent_poly_product(shape, off_a, off_b):
    # reference: the same product entry by entry over IntPoly
    i, k, j, da, db, seed = shape
    rng = np.random.default_rng(seed)
    a = rng.integers(-5, 6, size=(i, k, da))
    b = rng.integers(-5, 6, size=(k, j, db))
    out = laurent_matmul(a, b)
    assert out.shape == (i, j, da + db - 1)
    pa, pb = _poly_matrix(a, off_a), _poly_matrix(b, off_b)
    for r in range(i):
        for c in range(j):
            want = IntPoly()
            for m in range(k):
                want = want + pa[r][m] * pb[m][c]
            assert from_array(out[r, c], off_a + off_b) == want


def test_laurent_array_guards():
    off = window_offset(3)
    a = np.zeros((2, 2 * off + 1), dtype=np.int64)
    a[1, 1] = a[0, -2] = 7
    check_window(a, "test")
    for edge in (0, -1):
        b = a.copy()
        b[1, edge] = 1
        with pytest.raises(AssertionError, match="test exponent window exceeded"):
            check_window(b, "test")
    check_magnitude(poly.MAGNITUDE_GUARD - 1, "test")
    with pytest.raises(AssertionError, match="test magnitude guard tripped"):
        check_magnitude(poly.MAGNITUDE_GUARD, "test")


def test_intpoly_parse_render_examples():
    f = IntPoly.parse("t(t+1)(t+2)/6")
    assert f.coeffs() == {1: Fraction(1, 3), 2: Fraction(1, 2), 3: Fraction(1, 6)}
    assert IntPoly.parse(f.render()) == f
    assert IntPoly.parse("t^6").render() == "t^6"
    assert IntPoly.parse("1").render() == "1"
    assert IntPoly.parse("t(t+1)^2(t^2-t+1)/2")(2) == 2 * 9 * 3 / 2
    assert IntPoly.parse("t^2(5t^2+1)/6") == IntPoly.parse("(5t^4+t^2)/6")


def test_evaluation_is_exact():
    # at an int: an int for integer coefficients; a Fraction coefficient or a
    # negative exponent gives a Fraction, never a float
    value = IntPoly.parse("t^2+1")(3)
    assert value == 10 and type(value) is int
    assert IntPoly({-2: 3, 1: Fraction(1, 2)})(2) == Fraction(7, 4)
    assert IntPoly({-1: 1})(Fraction(2, 3)) == Fraction(3, 2)
    assert IntPoly.zero()(5) == 0


def test_intpoly_parse_rejects_junk():
    for bad in ("", "t+", "(t", "t^", "q", "t//2"):
        with pytest.raises(ValueError):
            IntPoly.parse(bad)


@pytest.mark.parametrize("text", ["t(t+1)^\u0662/\u0662", "t^\u00b2"])
def test_intpoly_parse_takes_only_ascii_digits(text):
    # str.isdigit takes both: the first was read as t(t+1)^2/2, and the
    # superscript reached int(), which raised its own message
    with pytest.raises(ValueError, match="^bad polynomial "):
        IntPoly.parse(text)


def test_reverse_at_pairs_from_the_tables():
    # the two transcribed reversal pairs
    f = IntPoly.parse("t(t+1)(t+2)/6")
    assert reverse_at(4, f) == IntPoly.parse("t(t+1)(2t+1)/6")
    g = IntPoly.parse("t^2(5t^2+1)/6")
    assert reverse_at(6, g) == IntPoly.parse("t^2(t^2+5)/6")
    assert reverse_at(6, IntPoly.one()) == IntPoly.monomial(6)


def test_reverse_at_degree_guard():
    with pytest.raises(DegreeExceedsNu):
        reverse_at(2, IntPoly.monomial(3))


def test_reverse_at_zero():
    # zero has no degree, so no degree guard applies; it reverses to zero
    assert reverse_at(0, IntPoly.zero()).is_zero
    assert reverse_at(4, IntPoly.zero()) == 0


def test_lowest_degree():
    assert IntPoly.parse("t(t-1)(t-2)/6").lowest_degree() == 1
    assert IntPoly.one().lowest_degree() == 0
    assert IntPoly.monomial(6).lowest_degree() == 6
    with pytest.raises(ZeroPolynomial):
        IntPoly.zero().lowest_degree()


coeff = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
intpolys = st.lists(coeff, max_size=6).map(lambda cs: IntPoly(dict(enumerate(cs))))


@given(intpolys)
def test_reverse_at_is_an_involution(f):
    nu = max(f.coeffs(), default=0) + 2
    assert reverse_at(nu, reverse_at(nu, f)) == f


@given(intpolys)
def test_parse_render_round_trip(f):
    assert IntPoly.parse(f.render()) == f


@given(intpolys, intpolys, st.integers(-20, 20))
def test_product_evaluates_pointwise(f, g, k):
    assert (f * g)(k) == f(k) * g(k)


def test_integer_valuedness():
    assert IntPoly.parse("t(t+1)/2").is_integer_valued()
    assert IntPoly.parse("t(t+1)(2t+1)/6").is_integer_valued()
    assert not IntPoly.parse("t/2").is_integer_valued()
    assert IntPoly.zero().is_integer_valued()
