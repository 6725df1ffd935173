import ast
import math
from fractions import Fraction
from pathlib import Path

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
    for ask in (IntPoly.degree, IntPoly.lowest_degree):
        with pytest.raises(ZeroPolynomial):
            ask(IntPoly())
    assert IntPoly().leading_sign() == 0


# Integer numerators over a denominator, as Hecke (1) and dimension data have.
laurents = st.builds(IntPoly.over, st.dictionaries(st.integers(-6, 6), st.integers(-99, 99),
                                                   max_size=5), st.integers(1, 12))


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
    row = np.zeros(2 * off + 1, dtype=np.int64)
    for k, a in coeffs.items():
        row[k + off] = a
    assert from_array(row, off) == IntPoly(coeffs)


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
    f = IntPoly.parse("t(t+1)(t+2)/6", 3)
    assert f == IntPoly.over({1: 2, 2: 3, 3: 1}, 6)
    assert IntPoly.parse(f.render(), 3) == f
    assert IntPoly.parse("t^6", 6).render() == "t^6"
    assert IntPoly.parse("1", 0).render() == "1"
    assert IntPoly.parse("t(t+1)^2(t^2-t+1)/2", 5)(2) == 2 * 9 * 3 // 2
    assert IntPoly.parse("t^2(5t^2+1)/6", 4) == IntPoly.parse("(5t^4+t^2)/6", 4)


def test_evaluation_is_exact():
    # ints in, ints out: a value that is not an integer, or a negative
    # exponent, is refused, so no float or rational is formed
    value = IntPoly.parse("t^2+1", 2)(3)
    assert value == 10 and type(value) is int
    value = IntPoly.parse("t(t+1)/2", 2)(-4)
    assert value == 6 and type(value) is int
    assert IntPoly.zero()(5) == 0
    with pytest.raises(ValueError, match="negative exponent"):
        IntPoly({-2: 3, 1: 1})(2)
    with pytest.raises(ValueError, match="the value at 3 is not an integer"):
        IntPoly.over({1: 1}, 2)(3)
    with pytest.raises(TypeError):
        IntPoly({-1: 1})(Fraction(2, 3))


def test_intpoly_takes_and_gives_ints_only():
    for coeff in (Fraction(1, 2), Fraction(2), 0.5, 1.0):
        with pytest.raises(TypeError):
            IntPoly({1: coeff})
        with pytest.raises(TypeError):
            IntPoly.over({1: coeff}, 1)
        with pytest.raises(TypeError):
            IntPoly.monomial(1) * coeff
        with pytest.raises(TypeError):
            IntPoly.monomial(1) / coeff
    with pytest.raises(TypeError):
        IntPoly.over({1: 1}, 1.0)


def test_intpoly_parse_rejects_junk():
    for bad in ("", "t+", "(t", "t^", "q", "t//2"):
        with pytest.raises(ValueError):
            IntPoly.parse(bad, 4)


@pytest.mark.parametrize("text", ["t(t+1)^\u0662/\u0662", "t^\u00b2"])
def test_intpoly_parse_takes_only_ascii_digits(text):
    # str.isdigit takes both: the first was read as t(t+1)^2/2, and the
    # superscript reached int(), which raised its own message
    with pytest.raises(ValueError, match="^bad polynomial "):
        IntPoly.parse(text, 4)


def test_reverse_at_pairs_from_the_tables():
    # the two transcribed reversal pairs
    f = IntPoly.parse("t(t+1)(t+2)/6", 4)
    assert reverse_at(4, f) == IntPoly.parse("t(t+1)(2t+1)/6", 4)
    g = IntPoly.parse("t^2(5t^2+1)/6", 6)
    assert reverse_at(6, g) == IntPoly.parse("t^2(t^2+5)/6", 6)
    assert reverse_at(6, IntPoly.one()) == IntPoly.monomial(6)


def test_reverse_at_degree_guard():
    with pytest.raises(DegreeExceedsNu):
        reverse_at(2, IntPoly.monomial(3))


def test_reverse_at_zero():
    # zero has no degree, so no degree guard applies; it reverses to zero
    assert reverse_at(0, IntPoly.zero()).is_zero
    assert reverse_at(4, IntPoly.zero()) == 0


def test_lowest_degree():
    assert IntPoly.parse("t(t-1)(t-2)/6", 3).lowest_degree() == 1
    assert IntPoly.one().lowest_degree() == 0
    assert IntPoly.monomial(6).lowest_degree() == 6
    with pytest.raises(ZeroPolynomial):
        IntPoly.zero().lowest_degree()


intpolys = st.builds(lambda ns, den: IntPoly.over(dict(enumerate(ns)), den),
                     st.lists(st.integers(-120, 120), max_size=6), st.integers(1, 12))


def binomial_sum(weights: list[int]) -> IntPoly:
    """sum(weights[j] * C(t, j)): integer valued, with denominators up to j!."""
    out, binom = IntPoly.zero(), IntPoly.one()
    for j, w in enumerate(weights):
        out = out + w * binom
        binom = binom * IntPoly({1: 1, 0: -j}) / (j + 1)
    return out


integer_valued = st.lists(st.integers(-4, 4), max_size=6).map(binomial_sum)


@given(intpolys)
def test_reverse_at_is_an_involution(f):
    nu = (0 if f.is_zero else f.degree()) + 2
    assert reverse_at(nu, reverse_at(nu, f)) == f


@given(intpolys)
def test_parse_render_round_trip(f):
    assert IntPoly.parse(f.render(), 5) == f


@given(integer_valued, integer_valued, st.integers(-20, 20))
def test_product_evaluates_pointwise(f, g, k):
    assert (f * g)(k) == f(k) * g(k)


def test_integer_valuedness():
    assert IntPoly.parse("t(t+1)/2", 2).is_integer_valued()
    assert IntPoly.parse("t(t+1)(2t+1)/6", 3).is_integer_valued()
    assert not IntPoly.parse("t/2", 1).is_integer_valued()
    assert IntPoly.zero().is_integer_valued()


# -- IntPoly against a reference model: exponent -> nonzero Fraction

def m_norm(c):
    return {k: Fraction(a) for k, a in c.items() if a}


def from_model(c) -> IntPoly:
    """The IntPoly equal to the model ``c``, over the product of its
    denominators, which ``IntPoly.over`` must reduce."""
    den = math.prod(Fraction(a).denominator for a in c.values())
    return IntPoly.over({k: int(a * den) for k, a in c.items()}, den)


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


# Coefficients mix ints and fractions, as Hecke and dimension data do.
scalars = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=12)
model_laurents = st.dictionaries(st.integers(-4, 6), scalars, max_size=5)
model_polys = st.dictionaries(st.integers(0, 6), scalars, max_size=5)
# small enough that a fourth power stays below the parser's magnitude guard
small_scalars = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=6)
small_polys = st.dictionaries(st.integers(0, 3), small_scalars, max_size=3)


@given(model_laurents, model_laurents, st.integers(-12, 12).filter(bool))
def test_intpoly_arithmetic_matches_the_fraction_model(a, b, k):
    pa, pb = from_model(a), from_model(b)
    assert pa + pb == from_model(m_add(a, b))
    assert pa - pb == from_model(m_add(a, m_scale(b, -1)))
    assert pa * pb == from_model(m_mul(a, b))
    assert k * pa == from_model(m_scale(a, k))
    assert pa / k == from_model(m_scale(a, Fraction(1, k)))
    top = m_norm(a)[max(m_norm(a))] if m_norm(a) else 0
    assert pa.leading_sign() == (top > 0) - (top < 0)


@given(small_polys, st.integers(0, 4))
def test_intpoly_parsed_power_matches_the_fraction_model(a, n):
    assert IntPoly.parse(f"({from_model(a).render()})^{n}", 12) == from_model(m_pow(a, n))


@given(model_laurents, st.integers(-9, 9))
def test_intpoly_evaluation_matches_the_fraction_model(a, x):
    a = m_norm(a)
    pa = from_model(a)
    if min(a, default=0) < 0:
        with pytest.raises(ValueError, match="negative exponent"):
            pa(x)
    elif m_eval(a, x).denominator != 1:
        with pytest.raises(ValueError, match="not an integer"):
            pa(x)
    else:
        value = pa(x)
        assert value == m_eval(a, x) and type(value) is int


@given(model_polys, st.integers(0, 8))
def test_intpoly_reverse_render_and_parse_match_the_fraction_model(a, extra):
    pa = from_model(a)
    nu = max(m_norm(a), default=0) + extra
    assert reverse_at(nu, pa) == from_model({nu - k: c for k, c in a.items()})
    assert IntPoly.parse(pa.render(), nu) == from_model(a)


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
    assert from_model(a).is_integer_valued() == m_integer_valued(a)


@given(st.dictionaries(st.integers(-4, 6), st.integers(-9, 9), max_size=5) | st.integers(-9, 9),
       st.integers(1, 30))
def test_one_value_built_two_ways_is_equal_with_equal_hash(value, m):
    # an int is the constant polynomial it equals, so it hashes the same
    ints = {0: value} if isinstance(value, int) else value
    direct = value if isinstance(value, int) else IntPoly(ints)
    scaled = IntPoly.over({k: c * m for k, c in ints.items()}, m)
    assert scaled == direct and hash(scaled) == hash(direct)
    assert scaled == from_model(ints)


def test_a_fraction_given_unreduced_is_the_same_value():
    half = IntPoly.over({1: 1}, 2)
    for other in (IntPoly.over({1: 2}, 4), IntPoly.over({1: -3}, -6),
                  IntPoly.over({1: 1}, 6) + IntPoly.over({1: 1}, 3), IntPoly.monomial(1) / 2):
        assert other == half and hash(other) == hash(half)
    assert IntPoly.over({0: 1}, 2) + IntPoly.over({0: 1}, 2) == IntPoly.one()
    assert hash(IntPoly.over({0: 1}, 2) * 2) == hash(IntPoly.one())


@pytest.mark.parametrize("text", ["(t+1)^100000", "((((2^4)^4)^4)^4)^4"])
def test_intpoly_parse_refuses_a_huge_power_at_once(text):
    # every power was multiplied out: (t+1)^1200 took 0.5 s, 2^200000 1.5 s;
    # under a bound it does not reach, the magnitude guard refuses it
    for max_degree in (10 ** 6, 4):
        with deadline(1), pytest.raises(ValueError, match="^bad polynomial "):
            IntPoly.parse(text, max_degree)


def test_intpoly_parse_refuses_a_long_product_by_its_degree_at_once():
    # with no bound, (1+t)(1+t^2)...(1+t^32768) built all 65,536 terms
    text = "(1+t)" + "".join(f"(1+t^{2 ** i})" for i in range(1, 16))
    with deadline(1), pytest.raises(ValueError, match=r"^bad polynomial .*: degree \d+ exceeds 6$"):
        IntPoly.parse(text, 6)


def test_intpoly_parse_requires_a_degree_bound():
    with pytest.raises(TypeError):
        IntPoly.parse("t")  # type: ignore[call-arg]


def test_no_module_of_the_package_imports_fractions():
    # every import statement, those in functions and TYPE_CHECKING blocks
    # too, and every name and attribute
    paths = sorted(Path(poly.__file__).parent.glob("*.py"))
    assert len(paths) > 5
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [getattr(node, "id", None) or node.attr]
            else:
                continue
            found += [(path.name, name) for name in names if name in ("fractions", "Fraction")]
    assert found == []


def test_intpoly_parse_degree_bound():
    assert IntPoly.parse("t(t+1)^2(t^2-t+1)/2", 5).degree() == 5
    assert IntPoly.parse("t^9 - t^9 + 1", 9) == 1
    for text in ("t^2(t+1)^2(t^2-t+1)/2", "t^6", "(t^2+1)^3", "t*t*t*t*t*t"):
        with pytest.raises(ValueError, match=r"^bad polynomial .*: degree 6 exceeds 5"):
            IntPoly.parse(text, 5)


def test_intpoly_parse_magnitude_guard():
    big = poly.MAGNITUDE_GUARD
    assert IntPoly.parse(f"{big - 1}t/{big - 1}", 1) == IntPoly.monomial(1)
    assert IntPoly.parse("0" * 40 + "7", 0) == 7
    for text in (f"{big}", f"t/{big}", f"{big // 2}t * 2", "9" * 5000, f"t^{10 ** 400}"):
        with deadline(1), pytest.raises(ValueError, match="^bad polynomial .*magnitude guard"):
            IntPoly.parse(text, 1)
