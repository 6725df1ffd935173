import pytest
from hypothesis import given, strategies as st

from cellred.coxeter import BadGeneratorIndex, generate
from cellred.rootdata import ALL_TYPES, CartanType, Weight

from klref import bruhat_lower_set

ORDERS = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "G2": 12}
NUS = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "G2": 6}


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_group_orders_and_longest(name):
    g = generate(CartanType.parse(name))
    assert g.size == ORDERS[name]
    assert g.nu == NUS[name]
    assert g.w0.length == g.nu
    assert g.left_descent_set(g.w0) == frozenset(range(1, g.rank + 1))
    assert g.left_descent_set(g.identity) == frozenset()


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_group_arrays_are_read_only(name):
    # one cached group is shared by every context, so no reader may write it
    g = generate(CartanType.parse(name))
    for arr in (g.rmul, g.lmul, g.inv, g.length):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    assert g.length[0] == 0 and g.inv[0] == 0 and g.rmul[0, 0] == g.lmul[0, 0] == 1


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_lmul_is_left_multiplication(name):
    g = generate(CartanType.parse(name))
    for w in g.elements:
        for i in range(1, g.rank + 1):
            assert g.lmul[g.index(w), i - 1] == g.index(g.mult(g.generator(i), w))


def test_parse_word_examples():
    b2 = generate(CartanType.parse("B2"))
    assert b2.parse_word("1212") == b2.w0
    a2 = generate(CartanType.parse("A2"))
    assert a2.parse_word("11") == a2.identity
    assert a2.parse_word("e") == a2.identity
    a3 = generate(CartanType.parse("A3"))
    w = a3.parse_word("121321")
    assert w == a3.w0 and w.length == 6
    with pytest.raises(BadGeneratorIndex):
        a2.parse_word("13")
    with pytest.raises(BadGeneratorIndex):
        a2.parse_word("x")


def test_descent_example_b2():
    b2 = generate(CartanType.parse("B2"))
    assert b2.left_descent_set(b2.parse_word("212")) == {2}


@pytest.mark.parametrize("ct", ALL_TYPES, ids=lambda t: t.name)
def test_length_and_descents_exhaustive(ct):
    g = generate(ct)
    for w in g.elements:
        wi = g.index(w)
        for i in range(1, g.rank + 1):
            sw = g.element(g.lmul[wi, i - 1])
            assert abs(sw.length - w.length) == 1
            assert (i in g.left_descent_set(w)) == (sw.length < w.length)


@pytest.mark.parametrize("ct", ALL_TYPES, ids=lambda t: t.name)
def test_inverse_is_length_preserving_antiautomorphism(ct):
    g = generate(ct)
    for w in g.elements:
        wi = g.inverse(w)
        assert wi.length == w.length
        assert g.mult(w, wi) == g.identity
        right_descents = {
            i for i in range(1, g.rank + 1)
            if g.mult(w, g.generator(i)).length < w.length
        }
        assert g.left_descent_set(wi) == right_descents
    for a in g.elements[: min(g.size, 12)]:
        for b in g.elements[: min(g.size, 12)]:
            assert g.inverse(g.mult(a, b)) == g.mult(g.inverse(b), g.inverse(a))


def test_action_examples():
    a2 = generate(CartanType.parse("A2"))
    s1 = a2.generator(1)
    assert a2.act_on_weight(s1, Weight((3, 5))) == Weight((-3, 8))
    assert a2.act_on_weight(a2.identity, Weight((4, -2))) == Weight((4, -2))
    a1 = generate(CartanType.parse("A1"))
    assert a1.act_on_weight(a1.generator(1), Weight((7,))) == Weight((-7,))


@pytest.mark.parametrize("ct", ALL_TYPES, ids=lambda t: t.name)
def test_action_is_faithful(ct):
    g = generate(ct)
    fundamentals = [
        Weight(tuple(int(i == j) for j in range(g.rank))) for i in range(g.rank)
    ]
    fixing = [
        w for w in g.elements
        if all(g.act_on_weight(w, f) == f for f in fundamentals)
    ]
    assert fixing == [g.identity]


def test_w0_sends_dominant_to_antidominant():
    for ct in ALL_TYPES:
        g = generate(ct)
        image = g.act_on_weight(g.w0, Weight((1,) * g.rank))
        assert all(c < 0 for c in image.coords)


@pytest.mark.parametrize("ct", ALL_TYPES, ids=lambda t: t.name)
def test_canonical_words_are_shortlex_minimal(ct):
    g = generate(ct)
    # multiplying out the word gives the element back, and no shorter or
    # lexically smaller word of the same length reaches it first in BFS order
    for w in g.elements:
        assert g.parse_word(str(w)) == w
    lengths = [w.length for w in g.elements]
    assert lengths == sorted(lengths)


@given(
    st.lists(st.integers(1, 3), max_size=10),
    st.lists(st.integers(1, 3), max_size=10),
)
def test_word_folding_is_a_homomorphism(wa, wb):
    g = generate(CartanType.parse("A3"))
    a = g.parse_word("".join(map(str, wa)))
    b = g.parse_word("".join(map(str, wb)))
    assert g.mult(a, b) == g.parse_word("".join(map(str, wa + wb)))


@given(st.lists(st.integers(1, 2), max_size=12))
def test_action_respects_words(word):
    g = generate(CartanType.parse("G2"))
    lam = Weight((2, -1))
    w = g.parse_word("".join(map(str, word)))
    expect = lam
    for i in reversed(word):
        expect = g.act_on_weight(g.generator(i), expect)
    assert g.act_on_weight(w, lam) == expect


def test_bruhat_order_basics():
    a3 = generate(CartanType.parse("A3"))
    lower = bruhat_lower_set(a3, a3.w0)
    assert len(lower) == a3.size  # w0 dominates everything
    s2 = a3.parse_word("2")
    w = a3.parse_word("2132")
    assert s2 in bruhat_lower_set(a3, w)
    assert w not in bruhat_lower_set(a3, s2)
    assert a3.identity in bruhat_lower_set(a3, s2)
