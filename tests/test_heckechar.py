from functools import lru_cache

import numpy as np
import pytest

from cellred import heckechar, klcells, poly
from cellred.audit import get_context
from cellred.coxeter import generate
from cellred.heckechar import build_hecke_modules, w_character_table
from cellred.poly import IntPoly
from cellred.rootdata import CartanType

from conftest import TYPE_NAMES, char_value, value_at
from klref import chain_traces, from_array


@lru_cache(maxsize=None)
def modules_for(name: str):
    c = get_context(CartanType.parse(name))
    return c, build_hecke_modules(c.group, c.kl, c.cells, c.chartable)


def test_a1_table():
    table = w_character_table(generate(CartanType.parse("A1")))
    assert table.labels == ("2", "11")
    assert char_value(table, "2", 0) == 1 and char_value(table, "11", 0) == 1
    assert table.sign_label == "11"


def test_b2_table_shape():
    table = w_character_table(generate(CartanType.parse("B2")))
    dims = sorted(char_value(table, lab, 0) for lab in table.labels)
    assert dims == [1, 1, 1, 1, 2]
    assert len(table.classes) == 5
    assert table.labels[0] == "triv"
    assert table.sign_label == "sign"


def test_a3_table_dims():
    table = w_character_table(generate(CartanType.parse("A3")))
    assert [char_value(table, lab, 0) for lab in table.labels] == [1, 3, 2, 3, 1]


def test_g2_table_has_two_2dims():
    table = w_character_table(generate(CartanType.parse("G2")))
    assert sorted(char_value(table, lab, 0) for lab in table.labels) == [1, 1, 1, 1, 2, 2]
    assert "refl" in table.labels and "refl2" in table.labels
    # the two 2-dimensional rows differ on rotation classes
    assert table.values[table.labels.index("refl")] != table.values[table.labels.index("refl2")]


@pytest.mark.parametrize("name, labels, rows", [
    ("B2", ("triv", "sgn1", "sgn2", "sign", "refl"), (
        (1, 1, 1, 1, 1), (1, -1, 1, -1, 1), (1, 1, -1, -1, 1), (1, -1, -1, 1, 1),
        (2, 0, 0, 0, -2),
    )),
    ("G2", ("triv", "sgn1", "sgn2", "sign", "refl", "refl2"), (
        (1, 1, 1, 1, 1, 1), (1, -1, 1, -1, 1, -1), (1, 1, -1, -1, 1, -1),
        (1, -1, -1, 1, 1, 1), (2, 0, 0, 1, -1, -2), (2, 0, 0, -1, -1, 2),
    )),
])
def test_dihedral_tables_literally(name, labels, rows):
    # classes by least member: e, the class of s1, that of s2, then the
    # rotations (s1 s2)^j, j = 1 .. m/2
    table = w_character_table(generate(CartanType.parse(name)))
    assert (table.labels, table.values) == (labels, rows)


def test_s4_classical_character_values():
    g = generate(CartanType.parse("A3"))
    table = w_character_table(g)
    # transposition class and 4-cycle class values of the standard rep (31)
    transposition = g.parse_word("1")
    four_cycle = g.parse_word("123")
    assert char_value(table, "31", transposition) == 1
    assert char_value(table, "31", four_cycle) == -1
    assert char_value(table, "22", g.parse_word("13")) == 2


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_orthogonality_and_class_count(name):
    g = generate(CartanType.parse(name))
    table = w_character_table(g)
    sizes = [len(c) for c in table.classes]
    assert sum(sizes) == g.size
    for i, ri in enumerate(table.values):
        for j, rj in enumerate(table.values):
            dot = sum(s * a * b for s, a, b in zip(sizes, ri, rj))
            assert dot == (g.size if i == j else 0)


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_modules_verified_and_complete(name):
    c, mods = modules_for(name)
    table = c.chartable
    assert tuple(m.label for m in mods) == table.labels
    assert sum(char_value(table, lab, 0) ** 2 for lab in table.labels) == c.group.size


def test_one_dim_modules_forced():
    _, mod_list = modules_for("B2")
    mods = {m.label: m for m in mod_list}
    # T_s acts by u on the trivial module and by -1 on the sign module;
    # the arrays hold Tt_s = v^-1 T_s with offset 1
    assert from_array(mods["triv"].gens[0, 0, 0], 1) == IntPoly({1: 1})
    assert from_array(mods["sign"].gens[1, 0, 0], 1) == IntPoly({-1: -1})


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_v1_specialisation_matches_characters(name):
    c, mods = modules_for(name)
    for mod in mods:
        for w in range(c.group.size):
            assert int(mod.traces[w].sum()) == char_value(c.chartable, mod.label, w)


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_a_of_trivial_and_sign(name, ctx):
    c = ctx(name)
    assert c.leading.a_E[c.chartable.labels[0]] == 0
    assert c.leading.a_E[c.chartable.sign_label] == c.group.nu
    # oracle (Lusztig, CRM 18): summed over the modules E with a given a_E,
    # dim(E)^2 is the size of the two-sided cells with that a-value
    by_modules, by_cells = {}, {}
    for m in c.modules:
        a = c.leading.a_E[m.label]
        by_modules[a] = by_modules.get(a, 0) + m.dim ** 2
    for cell, a in zip(c.cells.two_sided_cells, c.cells.a_value):
        by_cells[a] = by_cells.get(a, 0) + len(cell)
    assert by_modules == by_cells


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_extreme_leading_coefficients(name, ctx):
    c = ctx(name)
    g = c.group
    triv, sign = c.chartable.labels[0], c.chartable.sign_label
    w0 = g.size - 1
    assert c.leading.alpha[0].get(triv, 0) == 1
    assert c.leading.alpha[w0].get(sign, 0) == 1
    assert c.leading.alpha[0] == {triv: 1}
    assert c.leading.alpha[w0] == {sign: 1}


def test_a2_alpha_of_generators_is_the_reflection_character(ctx):
    c = ctx("A2")
    g = c.group
    refl = "21"  # the 2-dimensional character of S3
    assert c.leading.alpha[g.parse_word("1")] == {refl: 1}
    assert c.leading.alpha[g.parse_word("2")] == {refl: 1}


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_alpha_support_is_the_near_involution_set(name, ctx):
    c = ctx(name)
    assert c.leading.alpha_support() == c.jset


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_c_values_vanish_off_near_involutions(name, ctx):
    c = ctx(name)
    for w, row in c.leading.alpha.items():
        for val in row.values():
            assert val != 0
            assert w in c.jset


@pytest.mark.parametrize("name", ("A1", "A2", "A3"))
def test_type_a_r_table_equals_leading_coefficients(name, ctx):
    # in type A the unipotent labels biject with the W-characters; the
    # pairing is pinned by matching lowest degree of d(rho) with a_E
    c = ctx(name)
    tables = c.tables
    pairing = {}
    for u in tables.unipotent:
        a_val = u.degree.lowest_degree()
        matches = [lab for lab, a in c.leading.a_E.items() if a == a_val]
        assert len(matches) == 1
        pairing[u.label] = matches[0]
        assert value_at(u.degree, 1) == char_value(c.chartable, matches[0], 0)
    assert len(set(pairing.values())) == len(pairing)
    for w, row in tables.r_alpha.items():
        for u in tables.unipotent:
            assert row.get(u.label, 0) == c.leading.alpha[w].get(pairing[u.label], 0)


def test_a4_row_support_is_flagged_derived(ctx):
    c = ctx("A4")
    assert not c.tables.has_m_w_data
    # the derived rows must use every W-character label at least once
    used = {lab for lab in c.unip_rows}
    assert used == set(c.leading.labels)


def _b2_with(monkeypatch, module, gen, slot, value):
    """B2 modules with one entry of one generator array replaced; ``module``
    is a position in ``_dihedral_gens``: 0 the trivial, 4 the reflection."""
    dihedral = heckechar._dihedral_gens

    def patched(g):
        out = dihedral(g)
        out[module][(gen,) + slot] = value
        return out

    monkeypatch.setattr(heckechar, "_dihedral_gens", patched)
    c = get_context(CartanType.parse("B2"))
    return lambda: build_hecke_modules(c.group, c.kl, c.cells, c.chartable)


def test_quadratic_relation_guard_raises(monkeypatch):
    build = _b2_with(monkeypatch, 0, 0, (0, 0, 2), 2)  # T_1 = 2u
    with pytest.raises(heckechar.ConstructionIncomplete, match="quadratic relation fails"):
        build()


def test_braid_relation_guard_raises(monkeypatch):
    # T_2[1][0] = 3u keeps the quadratic relation but breaks (T1 T2)^2 = (T2 T1)^2
    build = _b2_with(monkeypatch, 4, 1, (1, 0, 2), 3)
    with pytest.raises(heckechar.ConstructionIncomplete, match="braid relation fails"):
        build()


@pytest.mark.parametrize("label, gen, word", [("22", 1, "13"), ("31", 2, "232")])
def test_type_a_braid_relation_guard_raises(label, gen, word):
    # a mutation: Tt_gen on one A3 module conjugated by the signed permutation
    # that negates the first basis vector, so every quadratic relation still
    # holds; on module 22 the m = 2 relation of s1 and s3 fails, and on
    # module 31 an m = 3 relation of s2, which commutes with no generator of A3
    c, mods = modules_for("A3")
    gens = next(m for m in mods if m.label == label).gens.copy()
    gens[gen - 1, 0] *= -1
    gens[gen - 1, :, 0] *= -1
    plan = heckechar._trace_plan(c.group)
    with pytest.raises(heckechar.ConstructionIncomplete, match=f"braid relation fails at {word}$"):
        heckechar._trace_table(c.group, gens, plan)


def test_trace_guards_raise(monkeypatch):
    c = get_context(CartanType.parse("B2"))
    monkeypatch.setattr(heckechar, "window_offset", lambda nu: nu)
    with pytest.raises(AssertionError, match="trace exponent window exceeded"):
        build_hecke_modules(c.group, c.kl, c.cells, c.chartable)
    monkeypatch.undo()
    monkeypatch.setattr(poly, "MAGNITUDE_GUARD", 2)  # tr(Tt_e) = dim reaches 2
    with pytest.raises(AssertionError, match="trace magnitude guard tripped"):
        build_hecke_modules(c.group, c.kl, c.cells, c.chartable)



def test_product_window_guard_raises(monkeypatch):
    # A3: the products stop at length 3 (123, a 4-cycle), in the window of
    # window_offset(3); without its guard slot the 4-cycle's v^3 term overflows
    # there, while the full table's window is untouched
    c = get_context(CartanType.parse("A3"))
    monkeypatch.setattr(heckechar, "window_offset", lambda nu: nu if nu < c.group.nu else nu + 2)
    with pytest.raises(AssertionError, match="trace exponent window exceeded"):
        build_hecke_modules(c.group, c.kl, c.cells, c.chartable)


# -- the traces: read off products up to top, the recursion beyond

@pytest.mark.parametrize("name", TYPE_NAMES)
def test_trace_table_equals_the_chain_product(name):
    c, mods = modules_for(name)
    for mod in mods:
        assert np.array_equal(mod.traces, chain_traces(c.group, mod.gens)), mod.label


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_classes_are_the_strong_components_of_the_conjugation_graph(name):
    g = generate(CartanType.parse(name))
    conj = g.lmul[g.rmul, np.arange(g.rank)]  # s_i w s_i
    rows = np.arange(g.size)[:, None]
    adj = np.zeros((g.size, g.size), dtype=bool)
    adj[rows, conj] = True
    assert w_character_table(g).classes == klcells._sccs(adj)
    # cyclic-shift classes: the moves that keep the length
    same = g.length[conj] == g.length[:, None]
    adj = np.zeros((g.size, g.size), dtype=bool)
    adj[np.broadcast_to(rows, conj.shape)[same], conj[same]] = True
    shift_class = {x: c for c in klcells._sccs(adj) for x in c}
    plan = heckechar._trace_plan(g)
    for x, src in enumerate(plan.source.tolist()):
        if g.length[x] <= plan.top:
            assert src == x
        else:  # a member of x's cyclic-shift class that some s shortens
            assert src in shift_class[x]
            assert (g.length[conj[src]] < g.length[src]).any()


def test_a4_plan_sizes():
    g = generate(CartanType.parse("A4"))
    plan = heckechar._trace_plan(g)
    # products: every element of length <= 4, the longest cyclic-shift class
    # that no s shortens (the 5-cycles) and longer than every braid relation
    assert plan.top == 4
    assert np.count_nonzero(g.length <= plan.top) == 49
    # the recursion: the other 71 traces from 24 chosen w at lengths 5..10
    assert np.count_nonzero(g.length > plan.top) == 71
    assert [int(g.length[w[0]]) for w, _, _ in plan.levels] == list(range(5, 11))
    assert [len(w) for w, _, _ in plan.levels] == [7, 6, 4, 4, 2, 1]
    assert len(set(plan.source[g.length > plan.top].tolist())) == 24
    for name in ("A1", "A2", "B2", "G2"):
        assert heckechar._trace_plan(generate(CartanType.parse(name))).levels == ()
