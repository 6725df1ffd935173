import pytest
from hypothesis import given, strategies as st

from cellred.coxeter import BadGeneratorIndex, generate
from cellred.rootdata import ALL_TYPES, CartanType, Weight

from klref import bruhat_lower_set, mult

ORDERS = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "G2": 12}
NUS = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "G2": 6}


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_group_orders_and_longest(name):
    g = generate(CartanType.parse(name))
    assert g.size == ORDERS[name]
    assert g.nu == NUS[name]
    w0 = g.size - 1
    assert g.length[w0] == g.nu
    assert g.left_descent_set(w0) == frozenset(range(1, g.rank + 1))
    assert g.left_descent_set(0) == frozenset()


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
    for w in range(g.size):
        for i in range(1, g.rank + 1):
            assert g.lmul[w, i - 1] == mult(g, g.parse_word(str(i)), w)


def test_parse_word_examples():
    b2 = generate(CartanType.parse("B2"))
    assert b2.parse_word("1212") == b2.size - 1
    a2 = generate(CartanType.parse("A2"))
    assert a2.parse_word("11") == 0
    assert a2.parse_word("e") == 0
    a3 = generate(CartanType.parse("A3"))
    w = a3.parse_word("121321")
    assert w == a3.size - 1 and a3.length[w] == 6
    # generators are the ASCII digits 1..rank: not '²', Arabic-Indic 1 or 12
    for text in ("13", "x", "\u00b2", "\u0661", "\u0661\u0662"):
        with pytest.raises(BadGeneratorIndex):
            a2.parse_word(text)


def test_descent_example_b2():
    b2 = generate(CartanType.parse("B2"))
    assert b2.left_descent_set(b2.parse_word("212")) == {2}


@pytest.mark.parametrize("ct", ALL_TYPES, ids=lambda t: t.name)
def test_length_and_descents_exhaustive(ct):
    g = generate(ct)
    for w in range(g.size):
        for i in range(1, g.rank + 1):
            sw = g.lmul[w, i - 1]
            assert abs(g.length[sw] - g.length[w]) == 1
            assert (i in g.left_descent_set(w)) == (g.length[sw] < g.length[w])


@pytest.mark.parametrize("ct", ALL_TYPES, ids=lambda t: t.name)
def test_inverse_is_length_preserving_antiautomorphism(ct):
    g = generate(ct)
    for w in range(g.size):
        wi = g.inv[w]
        assert g.length[wi] == g.length[w]
        assert mult(g, w, wi) == 0
        right_descents = {
            i for i in range(1, g.rank + 1)
            if g.length[mult(g, w, g.parse_word(str(i)))] < g.length[w]
        }
        assert g.left_descent_set(wi) == right_descents
    for a in range(min(g.size, 12)):
        for b in range(min(g.size, 12)):
            assert g.inv[mult(g, a, b)] == mult(g, g.inv[b], g.inv[a])


def test_action_examples():
    a2 = generate(CartanType.parse("A2"))
    s1 = a2.parse_word("1")
    assert a2.act_on_weight(s1, Weight((3, 5))) == Weight((-3, 8))
    assert a2.act_on_weight(0, Weight((4, -2))) == Weight((4, -2))
    a1 = generate(CartanType.parse("A1"))
    assert a1.act_on_weight(a1.parse_word("1"), Weight((7,))) == Weight((-7,))


@pytest.mark.parametrize("ct", ALL_TYPES, ids=lambda t: t.name)
def test_action_is_faithful(ct):
    g = generate(ct)
    fundamentals = [
        Weight(tuple(int(i == j) for j in range(g.rank))) for i in range(g.rank)
    ]
    fixing = [
        w for w in range(g.size)
        if all(g.act_on_weight(w, f) == f for f in fundamentals)
    ]
    assert fixing == [0]


def test_w0_sends_dominant_to_antidominant():
    for ct in ALL_TYPES:
        g = generate(ct)
        image = g.act_on_weight(g.size - 1, Weight((1,) * g.rank))
        assert all(c < 0 for c in image.coords)


@pytest.mark.parametrize("ct", ALL_TYPES, ids=lambda t: t.name)
def test_canonical_words_are_shortlex_minimal(ct):
    g = generate(ct)
    # the words come in (length, word) order, and each w but the identity
    # has for word its least left descent s followed by the word of s w:
    # by induction on length, no shorter or lexically smaller word reaches w
    assert list(g.words) == sorted(g.words, key=lambda u: (len(u), u))
    assert g.word(0) == "e"
    for w in range(1, g.size):
        s = min(g.left_descent_set(w))
        assert g.words[w][0] == s
        assert g.words[w][1:] == g.words[g.lmul[w, s - 1]]
    # multiplying out the printed word gives the element back
    for w in range(g.size):
        assert g.parse_word(g.word(w)) == w
    lengths = g.length.tolist()
    assert lengths == sorted(lengths)


@given(
    st.lists(st.integers(1, 3), max_size=10),
    st.lists(st.integers(1, 3), max_size=10),
)
def test_word_folding_is_a_homomorphism(wa, wb):
    g = generate(CartanType.parse("A3"))
    a = g.parse_word("".join(map(str, wa)))
    b = g.parse_word("".join(map(str, wb)))
    assert mult(g, a, b) == g.parse_word("".join(map(str, wa + wb)))


@given(st.lists(st.integers(1, 2), max_size=12))
def test_action_respects_words(word):
    g = generate(CartanType.parse("G2"))
    lam = Weight((2, -1))
    w = g.parse_word("".join(map(str, word)))
    expect = lam
    for i in reversed(word):
        expect = g.act_on_weight(g.parse_word(str(i)), expect)
    assert g.act_on_weight(w, lam) == expect


def test_bruhat_order_basics():
    a3 = generate(CartanType.parse("A3"))
    lower = bruhat_lower_set(a3, a3.size - 1)
    assert len(lower) == a3.size  # w0 dominates everything
    s2 = a3.parse_word("2")
    w = a3.parse_word("2132")
    assert s2 in bruhat_lower_set(a3, w)
    assert w not in bruhat_lower_set(a3, s2)
    assert 0 in bruhat_lower_set(a3, s2)
