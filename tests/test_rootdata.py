import itertools

import pytest

from cellred.rootdata import (
    ALL_TYPES,
    CartanType,
    NonDominantWeight,
    UnsupportedType,
    Weight,
    build_root_system,
    weyl_dim,
)

# The transcribed closed forms in the shifted coordinates a = n + 1;
# written out independently here so they can serve as the oracle.
CLOSED = {
    "A1": lambda a: a,
    "A2": lambda a, b: a * b * (a + b) // 2,
    "B2": lambda a, b: a * b * (a + b) * (a + 2 * b) // 6,
    "G2": lambda a, b: a * b * (a + b) * (a + 2 * b) * (a + 3 * b) * (2 * a + 3 * b) // 120,
    "A3": lambda a, b, c: a * b * c * (a + b) * (b + c) * (a + b + c) // 12,
}

POSITIVE_COUNTS = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "B2": 4, "G2": 6}


def test_unsupported_types_rejected():
    # the rank is an ASCII digit: not 'A²', 'B²' or an Arabic-Indic 'A2'
    for name in ("E8", "B3", "G3", "A5", "D4", "A\u00b2", "B\u00b2", "A\u0662"):
        with pytest.raises(UnsupportedType):
            CartanType.parse(name)


@pytest.mark.parametrize("name,count", sorted(POSITIVE_COUNTS.items()))
def test_positive_root_counts(name, count):
    rs = build_root_system(CartanType.parse(name))
    assert len(rs.coroot_pairings) == count
    # simple coroots pair to 1 against the Weyl vector
    for gamma, rho in zip(rs.coroot_pairings, rs.weyl_vector_pairings):
        if sum(gamma) == 1:
            assert rho == 1


def test_dimension_examples():
    a2 = build_root_system(CartanType.parse("A2"))
    assert weyl_dim(a2, Weight((0, 0))) == 1
    assert weyl_dim(a2, Weight((1, 2))) == 15
    g2 = build_root_system(CartanType.parse("G2"))
    assert weyl_dim(g2, Weight((0, 0))) == 1
    a3 = build_root_system(CartanType.parse("A3"))
    assert weyl_dim(a3, Weight((1, 1, 1))) == 64


def test_non_dominant_rejected():
    a2 = build_root_system(CartanType.parse("A2"))
    with pytest.raises(NonDominantWeight):
        weyl_dim(a2, Weight((-1, 0)))


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_closed_form_sweep(name):
    ct = CartanType.parse(name)
    rs = build_root_system(ct)
    for coords in itertools.product(range(7), repeat=ct.rank):
        lam = Weight(coords)
        assert weyl_dim(rs, lam) == CLOSED[name](*(n + 1 for n in coords))


def test_a4_against_type_a_product_formula():
    # independent oracle: the general type-A product over index intervals
    def sl_n_dim(coords):
        n = len(coords)
        dim = 1
        for i in range(n):
            for j in range(i, n):
                num = sum(coords[i:j + 1]) + (j - i + 1)
                dim = dim * num
        den = 1
        for i in range(n):
            for j in range(i, n):
                den *= j - i + 1
        q, r = divmod(dim, den)
        assert r == 0
        return q

    rs = build_root_system(CartanType.parse("A4"))
    for coords in itertools.product(range(4), repeat=4):
        assert weyl_dim(rs, Weight(coords)) == sl_n_dim(coords)


@pytest.mark.parametrize("ct", ALL_TYPES, ids=lambda t: t.name)
def test_diagram_automorphism_invariance(ct):
    if ct.family != "A":
        return
    rs = build_root_system(ct)
    for coords in itertools.product(range(4), repeat=ct.rank):
        rev = tuple(reversed(coords))
        assert weyl_dim(rs, Weight(coords)) == weyl_dim(rs, Weight(rev))


@pytest.mark.parametrize("ct", ALL_TYPES, ids=lambda t: t.name)
def test_dimension_positive_and_one_at_zero(ct):
    rs = build_root_system(ct)
    assert weyl_dim(rs, Weight((0,) * ct.rank)) == 1
    for coords in itertools.product(range(3), repeat=ct.rank):
        assert weyl_dim(rs, Weight(coords)) >= 1
