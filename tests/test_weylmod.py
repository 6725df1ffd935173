import json

import pytest

from cellred.cli import main
from cellred.coxeter import generate
from cellred.poly import IntPoly
from cellred.rootdata import CartanType, build_root_system, weyl_dim
from cellred.uniptables import WeightTemplate, load_tables
from cellred.weylmod import (
    MissingMwData,
    NonDominantTemplate,
    delta_table,
    dim_template,
    find_duality,
)

from conftest import DATA_TYPE_NAMES, by_word, value_at


def _deltas(name):
    return delta_table(load_tables(CartanType.parse(name)))


def _duality(name):
    tables = load_tables(CartanType.parse(name))
    return find_duality(generate(CartanType.parse(name)), delta_table(tables), tables.words)


def _pairs_by_word(name):
    """The duality pairs of ``name`` as {word: (partner word, sign)}."""
    words = load_tables(CartanType.parse(name)).words
    return {words[w]: (words[p], s) for w, (p, s) in _duality(name).pairs.items()}


def test_dim_template_examples():
    b2 = build_root_system(CartanType.parse("B2"))
    assert dim_template(b2, WeightTemplate(((-3, 1), (0, 0))), 3) == \
        IntPoly.parse("t(t-1)(t-2)/6", 4)
    assert dim_template(b2, WeightTemplate(((0, 0), (0, 0)))) == IntPoly.one()
    assert dim_template(b2, WeightTemplate(((-1, 1), (-1, 1)))) == IntPoly.monomial(4)
    g2 = build_root_system(CartanType.parse("G2"))
    assert dim_template(g2, WeightTemplate(((-4, 1), (1, 0))), 5) == \
        IntPoly.parse("t(t^2-1)(t^2-9)/30", 6)


def test_dim_template_rejects_non_dominant():
    b2 = build_root_system(CartanType.parse("B2"))
    with pytest.raises(NonDominantTemplate):
        dim_template(b2, WeightTemplate(((-3, 1), (0, 0))), 2)  # -1 at p=2
    with pytest.raises(NonDominantTemplate):
        dim_template(b2, WeightTemplate(((-1, 0), (0, 0))))


def test_delta_table_examples():
    def deltas(name):
        return by_word(load_tables(CartanType.parse(name)), _deltas(name))

    a3 = deltas("A3")
    assert a3["2"] == IntPoly.parse("t(2t^2+1)/3", 6)
    assert a3["13"] == IntPoly.parse("t^2(5t^2+1)/6", 6)
    a2 = deltas("A2")
    assert a2["121"] == IntPoly.monomial(3)
    b2 = deltas("B2")
    assert b2["121"] == IntPoly.parse("t(t-1)(t-2)/6", 4)
    assert b2["121"].lowest_degree() == 1


def test_delta_table_missing_for_a4():
    with pytest.raises(MissingMwData):
        _deltas("A4")


@pytest.mark.parametrize("name", DATA_TYPE_NAMES)
def test_delta_matches_weyl_dim_at_primes(name):
    ct = CartanType.parse(name)
    tables = load_tables(ct)
    rs = build_root_system(ct)
    deltas = delta_table(tables)
    for w, pi in deltas.items():
        for p in (5, 7, 11, 13):
            total = 0
            for coef, tmpl in tables.m_w[w]:
                total += coef * weyl_dim(rs, tmpl.instantiate(p))
            assert value_at(pi, p) == total


@pytest.mark.parametrize("name", DATA_TYPE_NAMES)
def test_delta_positive_from_min_prime(name):
    ct = CartanType.parse(name)
    tables = load_tables(ct)
    deltas = delta_table(tables)
    for pi in deltas.values():
        for p in range(tables.min_prime, tables.min_prime + 20):
            assert value_at(pi, p) > 0


@pytest.mark.parametrize("name", DATA_TYPE_NAMES)
def test_lowest_degrees_recorded(name, capsys):
    tables = load_tables(CartanType.parse(name))
    deltas = by_word(tables, delta_table(tables))
    assert main(["tables", "dump", "--what", "delta", "--type", name]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert list(rows) == list(deltas)
    for word, row in rows.items():
        assert row["c"] == deltas[word].lowest_degree()


def test_find_duality_examples():
    assert _duality("B2").problems == ()
    b2 = _pairs_by_word("B2")
    assert b2["1"] == ("2", 1)
    assert b2["e"] == ("1212", 1)
    a3 = _pairs_by_word("A3")
    assert a3["2"] == ("13231", 1)
    assert a3["e"] == ("121321", 1)
    a1 = _pairs_by_word("A1")
    assert a1["e"] == ("1", 1)


@pytest.mark.parametrize("name", DATA_TYPE_NAMES)
def test_duality_matches_shipped_tables(name):
    res = _duality(name)
    assert res.problems == ()
    shipped = load_tables(CartanType.parse(name)).duality
    assert {w: p for w, (p, _) in res.pairs.items()} == shipped
    # observed signs are all +; recorded, not assumed
    assert all(s == 1 for _, s in res.pairs.values())


@pytest.mark.parametrize("name", DATA_TYPE_NAMES)
def test_find_duality_reads_each_descent_set_once(name, monkeypatch):
    g = generate(CartanType.parse(name))
    tables = load_tables(CartanType.parse(name))
    deltas = delta_table(tables)
    want = find_duality(g, deltas, tables.words)
    calls = []
    descent_set = type(g).left_descent_set

    def counted(self, w):
        calls.append(w)
        return descent_set(self, w)

    monkeypatch.setattr(type(g), "left_descent_set", counted)
    assert find_duality(g, deltas, tables.words) == want
    assert sorted(calls) == sorted(deltas)
