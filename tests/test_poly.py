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

from conftest import deadline
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


# -- IntPoly against a reference model: exponent -> nonzero Fraction

def m_norm(c):
    return {k: Fraction(a) for k, a in c.items() if a}


def m_add(a, b):
    out = dict(a)
    for k, x in b.items():
        out[k] = out.get(k, 0) + x
    return m_norm(out)


def m_scale(a, s):
    return m_norm({k: x * s for k, x in a.items()})


def m_mul(a, b):
    out = {}
    for k1, x1 in a.items():
        for k2, x2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, 0) + x1 * x2
    return m_norm(out)


def m_pow(a, n):
    out = {0: Fraction(1)}
    for _ in range(n):
        out = m_mul(out, a)
    return out


def m_eval(a, x):
    return sum((c * Fraction(x) ** k for k, c in a.items()), Fraction(0))


def m_integer_valued(a):
    return all(m_eval(a, x).denominator == 1 for x in range(max(a, default=0) + 2))


model_laurents = st.dictionaries(st.integers(-4, 6), scalars, max_size=5)
model_polys = st.dictionaries(st.integers(0, 6), scalars, max_size=5)
nonzero_points = st.integers(-9, 9).filter(bool) | st.fractions(-5, 5, max_denominator=7).filter(bool)


@given(model_laurents, model_laurents, st.integers(-12, 12).filter(bool), st.integers(0, 4))
def test_intpoly_arithmetic_matches_the_fraction_model(a, b, k, n):
    pa, pb = IntPoly(a), IntPoly(b)
    assert pa.coeffs() == m_norm(a)
    assert (pa + pb).coeffs() == m_add(a, b)
    assert (pa - pb).coeffs() == m_add(a, m_scale(b, -1))
    assert (pa * pb).coeffs() == m_mul(a, b)
    assert (k * pa).coeffs() == m_scale(a, k)
    assert (pa / k).coeffs() == m_scale(a, Fraction(1, k))
    assert (pa ** n).coeffs() == m_pow(a, n)
    if m_norm(a):
        top = m_norm(a)[max(m_norm(a))]
        assert pa.leading_coefficient() == top
        assert pa.leading_sign() == (1 if top > 0 else -1)


@given(model_laurents, nonzero_points)
def test_intpoly_evaluation_matches_the_fraction_model(a, x):
    value = IntPoly(a)(x)
    assert value == m_eval(a, x)
    if isinstance(x, int) and min(a, default=0) >= 0 and m_eval(a, x).denominator == 1:
        assert type(value) is int


@given(model_polys, st.integers(0, 8))
def test_intpoly_reverse_render_and_parse_match_the_fraction_model(a, extra):
    pa = IntPoly(a)
    nu = max(m_norm(a), default=0) + extra
    assert reverse_at(nu, pa).coeffs() == {nu - k: c for k, c in m_norm(a).items()}
    assert IntPoly.parse(pa.render(), nu).coeffs() == m_norm(a)


# integer combinations of the binomials C(t, j), over a small divisor: some
# integer valued, some not
binomial_combos = st.tuples(st.lists(st.integers(-4, 4), max_size=6), st.integers(1, 4))


@given(binomial_combos)
def test_intpoly_integer_valuedness_matches_the_fraction_model(combo):
    weights, divisor = combo
    a, binom = {}, {0: Fraction(1)}
    for j, w in enumerate(weights):
        a = m_add(a, m_scale(binom, Fraction(w, divisor)))
        binom = m_mul(binom, {1: Fraction(1, j + 1), 0: Fraction(-j, j + 1)})
    assert IntPoly(a).is_integer_valued() == m_integer_valued(a)


@given(st.dictionaries(st.integers(-4, 6), st.integers(-9, 9), max_size=5), st.integers(1, 30))
def test_one_value_built_two_ways_is_equal_with_equal_hash(ints, m):
    direct = IntPoly(ints)
    scaled = IntPoly.over({k: c * m for k, c in ints.items()}, m)
    assert scaled == direct and hash(scaled) == hash(direct)
    assert scaled.coeffs() == direct.coeffs() == m_norm(ints)


def test_a_fraction_given_unreduced_is_the_same_value():
    half = IntPoly({1: Fraction(1, 2)})
    for other in (IntPoly({1: Fraction(2, 4)}), IntPoly.over({1: 2}, 4), IntPoly.over({1: -3}, -6),
                  IntPoly({1: Fraction(1, 6)}) + IntPoly({1: Fraction(1, 3)})):
        assert other == half and hash(other) == hash(half)
    assert IntPoly({0: Fraction(1, 2)}) + IntPoly({0: Fraction(1, 2)}) == IntPoly.one()
    assert hash(IntPoly({0: Fraction(1, 2)}) * 2) == hash(IntPoly.one())


@pytest.mark.parametrize("text", ["(t+1)^100000", "((((2^4)^4)^4)^4)^4"])
def test_intpoly_parse_refuses_a_huge_power_at_once(text):
    # every power was multiplied out: (t+1)^1200 took 0.5 s, 2^200000 1.5 s
    for max_degree in (None, 4):
        with deadline(1), pytest.raises(ValueError, match="^bad polynomial "):
            IntPoly.parse(text, max_degree)


def test_intpoly_parse_degree_bound():
    assert IntPoly.parse("t(t+1)^2(t^2-t+1)/2", 5).degree() == 5
    assert IntPoly.parse("t^9 - t^9 + 1", 9) == 1
    for text in ("t^2(t+1)^2(t^2-t+1)/2", "t^6", "(t^2+1)^3", "t*t*t*t*t*t"):
        with pytest.raises(ValueError, match=r"^bad polynomial .*: degree 6 exceeds 5"):
            IntPoly.parse(text, 5)


def test_intpoly_parse_magnitude_guard():
    big = poly.MAGNITUDE_GUARD
    assert IntPoly.parse(f"{big - 1}t/{big - 1}") == IntPoly.monomial(1)
    assert IntPoly.parse("0" * 40 + "7") == 7
    for text in (f"{big}", f"t/{big}", f"{big // 2}t * 2", "9" * 5000, f"t^{10 ** 400}"):
        with deadline(1), pytest.raises(ValueError, match="^bad polynomial .*magnitude guard"):
            IntPoly.parse(text)
