import dataclasses
import random

import numpy as np
import pytest

from cellred import heckechar, klcells, poly
from cellred.coxeter import generate
from cellred.klcells import GroupTooLarge, compute_kl, is_central
from cellred.poly import IntPoly
from cellred.rootdata import CartanType

from conftest import TYPE_NAMES
from klref import (
    bruhat_lower_set, cone_top, dense_associative, h_pass, h_row, laurent_matmul, left_cones,
    mult, p_pass, regular_traces,
)


def test_group_too_large_guard(monkeypatch):
    g = generate(CartanType.parse("A2"))
    monkeypatch.setattr(klcells, "GROUP_BOUND", 3)
    with pytest.raises(GroupTooLarge):
        compute_kl(g)


def test_stage_keeps_its_value_or_its_exception():
    calls = []

    class Holder:
        @klcells.stage
        def good(self):
            calls.append("good")
            return [1]

        @klcells.stage
        def bad(self):
            calls.append("bad")
            raise RuntimeError("broke")

    h = Holder()
    assert h.good is h.good
    errors = []
    for _ in range(2):
        with pytest.raises(RuntimeError, match="broke") as info:
            h.bad
        errors.append(info.value)
    assert errors[0] is errors[1]
    assert calls == ["good", "bad"]


def test_b2_kl_polynomials_all_one(ctx):
    c = ctx("B2")
    assert all(p == (1,) for p in c.kl.P.values())


def test_a3_unique_nontrivial_kl_polynomial(ctx):
    c = ctx("A3")
    g = c.group
    w = g.parse_word("2132")
    assert c.kl.P[(g.parse_word("2"), w)] == (1, 1)  # 1 + q
    nontrivial = {k for k, p in c.kl.P.items() if p != (1,)}
    # the only elements admitting a nontrivial polynomial in this group are
    # 2132 and its conjugate partner
    assert {g.word(w2) for _, w2 in nontrivial} == {"2132", "12321"}
    assert all(p == (1, 1) for k, p in c.kl.P.items() if k in nontrivial)


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_kl_degree_bound_and_constant_term(name, ctx):
    c = ctx(name)
    g = c.group
    for (y, w), coeffs in c.kl.P.items():
        assert coeffs[0] == 1  # constant term
        if y == w:
            assert coeffs == (1,)
        else:
            gap = g.length[w] - g.length[y]
            assert gap >= 1
            assert 2 * (len(coeffs) - 1) <= gap - 1  # degree bound
        assert y in bruhat_lower_set(g, w)
    # P is defined exactly on Bruhat pairs
    for w in range(g.size):
        lower = bruhat_lower_set(g, w)
        assert {y for (y, w2) in c.kl.P if w2 == w} == set(lower)


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_mu_matches_p_coefficients(name, ctx):
    c = ctx(name)
    length = c.group.length
    for (y, w), m in c.kl.mu.items():
        gap = length[w] - length[y]
        assert gap % 2 == 1
        coeffs = c.kl.P[(y, w)]
        assert len(coeffs) - 1 == (gap - 1) // 2
        assert coeffs[-1] == m
    # and every P of the top degree (l(w) - l(y) - 1) / 2 gives a mu
    top = {
        (y, w): coeffs[-1] for (y, w), coeffs in c.kl.P.items()
        if 2 * (len(coeffs) - 1) == length[w] - length[y] - 1
    }
    assert c.kl.mu == top


def test_identity_row_trivial(ctx):
    for name in ("A2", "B2"):
        c = ctx(name)
        g = c.group
        for i in range(1, g.rank + 1):
            assert c.kl.P[(0, g.parse_word(str(i)))] == (1,)


CELL_SHAPES = {
    # (#two-sided cells, sorted sizes, sorted a-values)
    "A1": (2, [1, 1], [0, 1]),
    "A2": (3, [1, 1, 4], [0, 1, 3]),
    "A3": (5, [1, 1, 4, 9, 9], [0, 1, 2, 3, 6]),
    "A4": (7, [1, 1, 16, 16, 25, 25, 36], [0, 1, 2, 3, 4, 6, 10]),
    "B2": (3, [1, 1, 6], [0, 1, 4]),
    "G2": (3, [1, 1, 10], [0, 1, 6]),
}


@pytest.mark.parametrize("name", sorted(CELL_SHAPES))
def test_cell_shapes(name, ctx):
    c = ctx(name)
    count, sizes, avals = CELL_SHAPES[name]
    assert len(c.cells.two_sided_cells) == count
    assert sorted(len(tc) for tc in c.cells.two_sided_cells) == sizes
    assert sorted(c.cells.a_value) == avals
    # singletons {e} and {w0}
    assert (0,) in c.cells.two_sided_cells
    assert (c.group.size - 1,) in c.cells.two_sided_cells


def test_a2_middle_cell(ctx):
    c = ctx("A2")
    g = c.group
    k, mid = next((k, tc) for k, tc in enumerate(c.cells.two_sided_cells) if len(tc) == 4)
    assert {g.word(i) for i in mid} == {"1", "2", "12", "21"}
    assert c.cells.a_value[k] == 1


def test_b2_a_values(ctx):
    c = ctx("B2")
    g = c.group
    assert c.kl.a_values[g.parse_word("121")] == 1
    assert c.kl.a_values[0] == 0
    assert c.kl.a_values[g.size - 1] == 4


def test_g2_a_value_of_12121(ctx):
    c = ctx("G2")
    assert c.kl.a_values[c.group.parse_word("12121")] == 1


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_a_inversion_invariance(name, ctx):
    c = ctx(name)
    g = c.group
    for w in range(g.size):
        assert c.kl.a_values[w] == c.kl.a_values[g.inv[w]]


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_right_cells_are_inverted_left_cells(name, ctx):
    # oracle: the strong components of the right preorder, the left preorder
    # mirrored through inversion, found here apart from compute_cells
    c = ctx(name)
    g = c.group
    inv = g.inv
    right = c.kl.cs.any(axis=0)[np.ix_(inv, inv)]
    want = klcells._sccs(right)
    assert c.cells.right_cells == want
    assert {tuple(sorted(inv[i] for i in lc)) for lc in c.cells.left_cells} == set(want)


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_cell_lists_are_sorted_index_tuples(name, ctx):
    # the form the dump and the Hecke modules read without sorting
    c = ctx(name)
    cells, kl = c.cells, c.kl
    assert cells.left_cells is kl.left_cells
    for cell_list in (cells.left_cells, cells.right_cells, cells.two_sided_cells):
        assert type(cell_list) is tuple
        for cell in cell_list:
            assert type(cell) is tuple and all(type(i) is int for i in cell)
            assert list(cell) == sorted(set(cell))
        least = [cell[0] for cell in cell_list]
        assert least == sorted(set(least))
        assert sorted(sum(cell_list, ())) == list(range(c.group.size))
    assert len(cells.a_value) == len(cells.two_sided_cells)
    for k, cell in enumerate(cells.two_sided_cells):
        assert all(cells.a_value[k] == kl.a_values[i] for i in cell)


LEFT_CELL_COUNTS = {"A1": 2, "A2": 4, "A3": 10, "A4": 26, "B2": 4, "G2": 4}


@pytest.mark.parametrize("name", sorted(LEFT_CELL_COUNTS))
def test_left_cell_counts(name, ctx):
    assert len(ctx(name).cells.left_cells) == LEFT_CELL_COUNTS[name]


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_left_cells_meet_near_involutions(name, ctx):
    # every left cell carries at least one near involution; in type A the
    # count is exactly one per cell (the RSK correspondence)
    c = ctx(name)
    for lc in c.cells.left_cells:
        hits = sum(i in c.jset for i in lc)
        assert hits >= 1
        if c.group.type.family == "A":
            assert hits == 1


NEAR_INVOLUTION_WORDS = {
    "A1": {"e", "1"},
    "A2": {"e", "1", "2", "121"},
    "B2": {"e", "1", "2", "121", "212", "1212"},
    "G2": {"e", "1", "2", "121", "212", "12121", "21212", "121212"},
}


@pytest.mark.parametrize("name", sorted(NEAR_INVOLUTION_WORDS))
def test_near_involutions_match_lists(name, ctx):
    c = ctx(name)
    got = {c.group.word(w) for w in c.jset}
    want = {c.group.word(c.group.parse_word(t)) for t in NEAR_INVOLUTION_WORDS[name]}
    assert got == want


def test_a3_near_involutions_from_list(ctx):
    c = ctx("A3")
    g = c.group
    words = ["e", "1", "2", "3", "13", "121", "232", "2132", "13231", "121321"]
    assert c.jset == frozenset(g.parse_word(t) for t in words)


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_near_involutions_equal_involutions(name, ctx):
    # structurally true for the classical types; observed also for G2
    c = ctx(name)
    g = c.group
    involutions = {w for w in range(g.size) if mult(g, w, w) == 0}
    assert c.jset == involutions


def test_a4_near_involutions_count(ctx):
    assert len(ctx("A4").jset) == 26


def j_product(kl, x, y):
    """t_x t_y in the asymptotic ring, as {z: gamma[x, y, z]}."""
    row = kl.gamma_tensor()[x, y]
    return {z: int(c) for z, c in enumerate(row) if c}


def test_j_ring_products(ctx):
    a1 = ctx("A1")
    s = a1.group.parse_word("1")
    assert j_product(a1.kl, s, s) == {s: 1}
    e = 0
    assert j_product(a1.kl, e, s) == {}  # cells are orthogonal ideals
    a2 = ctx("A2")
    s1 = a2.group.parse_word("1")
    assert j_product(a2.kl, s1, s1) == {s1: 1}


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_gamma_support_stays_in_cells(name, ctx):
    c = ctx(name)
    gamma = c.kl.gamma_tensor()
    cell_of = {}
    for tc in c.cells.two_sided_cells:
        for i in tc:
            cell_of[i] = tc
    for x, y, z in zip(*np.nonzero(gamma)):
        assert cell_of[int(x)] is cell_of[int(y)] is cell_of[int(z)]


@pytest.mark.parametrize("name", ("A1", "A2", "B2"))
def test_associativity_brute_force(name, ctx):
    # independent of the join inside j_ring
    c = ctx(name)
    g = c.group

    def mul(vec_a, vec_b):
        out = {}
        for x, ca in vec_a.items():
            for y, cb in vec_b.items():
                for z, cz in j_product(c.kl, x, y).items():
                    out[z] = out.get(z, 0) + ca * cb * cz
        return {k: v for k, v in out.items() if v}

    basis = [{w: 1} for w in range(g.size)]
    for ta in basis:
        for tb in basis:
            for tc_ in basis:
                assert mul(mul(ta, tb), tc_) == mul(ta, mul(tb, tc_))


def dense_is_central(gamma, z):
    """The dense reference for ``is_central``: whether sum_y z[y] t_y commutes
    with every t_x, from the n^3 tensor, and the bound its guard must check.
    ``z`` maps element indices to coefficients."""
    ys = list(z)
    zv = np.array(list(z.values()), dtype=np.int64)
    rows, cols = gamma[ys], gamma[:, ys]
    gmax = max(int(np.abs(rows).max(initial=0)), int(np.abs(cols).max(initial=0)))
    left = np.einsum("y,yxw->xw", zv, rows)
    right = np.einsum("y,xyw->xw", zv, cols)
    return bool(np.array_equal(left, right)), int(np.abs(zv).sum()) * gmax


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_is_central_equals_the_dense_reference(name, ctx, monkeypatch):
    c = ctx(name)
    g = c.group
    rng = np.random.default_rng(sum(map(ord, name)))
    central = list(c.unip_rows.values())
    zs = [{}, *central]
    for _ in range(10):  # integer combinations of central elements
        combo = {}
        for z in central:
            k = int(rng.integers(-3, 4))
            for y, m in z.items():
                combo[y] = combo.get(y, 0) + k * m
        zs.append(combo)
    for _ in range(30):  # random vectors, from one element to all of W
        support = rng.choice(g.size, size=int(rng.integers(1, g.size + 1)), replace=False)
        zs.append({int(y): int(rng.integers(-5, 6)) for y in support})
    # also arbitrary sorted entries, whose values differ on the two sides of z
    flat = np.unique(rng.integers(0, g.size**3, size=4 * g.size))
    value = rng.choice([-9, -5, -2, -1, 1, 3, 7], size=flat.size)
    arbitrary = (*np.unravel_index(flat, (g.size,) * 3), value)
    bounds = []
    monkeypatch.setattr(klcells, "check_magnitude", lambda bound, what: bounds.append(bound))
    verdicts = set()
    for gamma in (c.gamma, arbitrary):
        dense = np.zeros((g.size,) * 3, dtype=np.int64)
        dense[gamma[:3]] = gamma[3]
        for z in zs:
            want, bound = dense_is_central(dense, z)
            assert is_central(g, gamma, z) == want
            assert bounds.pop() == bound
            if gamma is c.gamma:
                verdicts.add(want)
    assert verdicts == ({True} if name == "A1" else {True, False})  # J(A1) = Z + Z


def test_centrality_examples(ctx):
    b2 = ctx("B2")
    g = b2.group
    assert is_central(g, b2.gamma, {})
    assert is_central(g, b2.gamma, {0: 1})
    assert is_central(g, b2.gamma, {g.parse_word("1"): 1, g.parse_word("212"): 1})
    # t_1 alone is not central in B2
    assert not is_central(g, b2.gamma, {g.parse_word("1"): 1})
    a1 = ctx("A1")
    assert is_central(a1.group, a1.gamma, {0: 1})


def test_h_structure_constants_small():
    g = generate(CartanType.parse("A1"))
    kl = compute_kl(g)
    e, s = 0, g.parse_word("1")
    assert h_row(kl, s, s) == {s: IntPoly({1: 1, -1: 1})}  # v + v^-1
    assert h_row(kl, e, s) == {s: IntPoly({0: 1})}
    assert h_row(kl, s, e) == {s: IntPoly({0: 1})}


@pytest.mark.parametrize("name", ("A2", "B2", "G2", "A3"))
def test_h_degree_bounded_by_a(name, ctx):
    c = ctx(name)
    g = c.group
    for x in range(g.size):
        for y in range(g.size):
            for z, h in h_row(c.kl, x, y).items():
                assert h.degree() <= c.kl.a_values[z]


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_cone_pass_equals_full_pass(name, ctx):
    # every y of the small types; one y per left cell of A4, where a full
    # pass for each of the 120 y would take seconds
    c = ctx(name)
    kl, g = c.kl, c.group
    cones = left_cones(kl.cs)
    assert {tuple(ys) for ys, _ in cones} == set(c.cells.left_cells)
    everything = np.arange(g.size)
    for ys, cone in cones:
        part = h_pass(kl, cone, ys)
        outside = np.setdiff1d(everything, cone)
        for j, y in enumerate(ys[:1] if name == "A4" else ys):
            full = h_pass(kl, everything, [y])[:, :, 0]
            assert np.array_equal(full[:, cone], part[:, :, j])
            assert not full[:, outside].any()


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_cone_pass_is_bar_invariant(name, ctx):
    # the premise of the engine's pass, which keeps only degrees >= 0: every
    # h_{x,y,z} of the full-window reference has equal v^d and v^-d coefficients
    kl = ctx(name).kl
    for ys, cone in left_cones(kl.cs):
        big = h_pass(kl, cone, ys)
        assert big.any() and np.array_equal(big, big[..., ::-1])


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_kl_and_structure_constants_live_in_one_degree_parity(name, ctx):
    # the theorem the engine's layouts rest on, read from full-window
    # references that hold every degree: p_{y,w} lives in degrees
    # = l(y) - l(w) and h_{x,y,z} in degrees = l(x) + l(y) + l(z) mod 2
    kl = ctx(name).kl
    g = kl.group
    length = g.length
    off = klcells.window_offset(g.nu)
    full = p_pass(kl)
    w, y, k = np.nonzero(full)
    assert ((k - off - length[y] + length[w]) % 2 == 0).all()
    # the rows of p_terms, read back as p_{y,w} = v^(l(y) - l(w)) P_{y,w}(v^2)
    back = np.zeros_like(full)
    pw, py, deg, coeffs = kl.p_terms
    for r, (wi, yi, d) in enumerate(zip(pw.tolist(), py.tolist(), deg.tolist())):
        back[wi, yi, off + length[yi] - length[wi] + 2 * np.arange(d + 1)] = coeffs[r, :d + 1]
    assert np.array_equal(back, full)
    for ys, cone in left_cones(kl.cs):
        x, c, j, k = np.nonzero(h_pass(kl, cone, ys))
        assert ((length[x] + length[cone[c]] + length[np.array(ys)[j]] + k - off) % 2 == 0).all()


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_canonical_basis_state_is_the_full_window_pass_packed(name, ctx, monkeypatch):
    # cb[w, y, j] of compute_kl is the coefficient of v^(2j - off + r) in
    # p_{y,w}, r = (l(y) + l(w) + off) mod 2, for degrees -off..+1
    kl = ctx(name).kl
    g = kl.group
    n = g.size
    step, states = klcells._induction_step, []

    def kept(g, cs, big, apply, x):
        step(g, cs, big, apply, x)
        states.append(big)

    monkeypatch.setattr(klcells, "_induction_step", kept)
    compute_kl(g)
    cb = states[-1]
    off = klcells.window_offset(g.nu)
    top = (off + 1) // 2
    full = np.zeros((n, n, 2 * off + 3), dtype=np.int64)  # degrees -off..off + 2
    full[..., :2 * off + 1] = p_pass(kl)
    par = g.length % 2
    r = (par[:, None] + par + off) % 2
    assert cb.shape == (n, n, top + 1)
    slot = 2 * np.arange(top + 1) + r[..., None]  # degree + off of each slot
    assert np.array_equal(cb, np.take_along_axis(full, slot, axis=2))


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_pair_state_is_the_nonnegative_half_of_the_cone_pass(name, ctx, monkeypatch):
    # big[x, p, j] of the pair pass, p = (z, y) of the representative cells in
    # order of (z, y), is the coefficient of v^(2j + sigma) in h_{x,y,z},
    # sigma = (l(x) + l(y) + l(z)) mod 2, for degrees 0..off, with the guard
    # degrees >= off zero; a linked cell's cone pass is its representative's,
    # relabelled
    kl = ctx(name).kl
    g = kl.group
    step, states = klcells._induction_step, []

    def kept(g, cs, big, apply, x):
        step(g, cs, big, apply, x)
        states.append(big)

    monkeypatch.setattr(klcells, "_induction_step", kept)
    klcells._compute_top(g, kl.cs, kl.desc, kl.left_cells)
    big = states[-1]
    rep = klcells._star_links(g, kl.cs, kl.desc, kl.left_cells)
    off = klcells.window_offset(g.nu)
    top = off // 2
    par = g.length % 2
    want, linked = {}, {}
    for ys, cone in left_cones(kl.cs):
        full = h_pass(kl, cone, ys)
        for j, y in enumerate(ys):
            for z in ys:
                h = np.zeros((g.size, 2 * top + 2), dtype=np.int64)  # degrees 0..2 top + 1
                h[:, :off + 1] = full[:, np.searchsorted(cone, z), j, off:]
                degree = 2 * np.arange(top + 1) + ((par + par[y] + par[z]) % 2)[:, None]
                packed = np.take_along_axis(h, degree, axis=1)
                (want if rep[y] == y else linked)[z, y] = packed
    assert big.shape == (g.size, len(want), top + 1)
    for p, key in enumerate(sorted(want)):
        assert np.array_equal(big[:, p], want[key]), key
    for (z, y), h in linked.items():
        assert np.array_equal(h, want[rep[z], rep[y]]), (z, y)
    assert len(want) + len(linked) == sum(len(c) ** 2 for c in kl.left_cells)


@pytest.mark.parametrize("name, pairs", [
    ("A1", 2), ("A2", 6), ("A3", 24), ("A4", 120), ("B2", 20), ("G2", 52),
])
def test_star_links_join_the_left_cells_of_each_two_sided_cell(name, pairs, ctx):
    # in type A the left cells of a two-sided cell carry one W-graph, and the
    # right star operations link them all; B2 and G2 have no m_st = 3
    c = ctx(name)
    kl, g = c.kl, c.group
    rep = klcells._star_links(g, kl.cs, kl.desc, kl.left_cells)
    cell_of = klcells._labels(g.size, kl.left_cells)
    classes = {}
    for cell in kl.left_cells:
        # rep maps each cell onto the members of one representative cell
        target = kl.left_cells[cell_of[rep[cell[0]]]]
        assert sorted(rep[list(cell)].tolist()) == list(target)
        classes.setdefault(target, []).extend(cell)
    assert sum(len(cell) ** 2 for cell in classes) == pairs
    if name[0] == "A":
        assert sorted(tuple(sorted(m)) for m in classes.values()) == list(c.cells.two_sided_cells)
        assert len(classes) == {"A1": 2, "A2": 3, "A3": 5, "A4": 7}[name]
    else:
        assert np.array_equal(rep, np.arange(g.size))


@pytest.mark.parametrize("name", ("A2", "A3", "A4"))
def test_a_changed_mu_entry_leaves_its_cell_unlinked(name, ctx):
    kl = ctx(name).kl
    g = kl.group
    rep = klcells._star_links(g, kl.cs, kl.desc, kl.left_cells)
    cell = next(c for c in kl.left_cells if rep[c[0]] != c[0] and len(c) > 1)
    cs = kl.cs.copy()
    block = cs[:, cell][:, :, cell]
    # a mu(z, w) entry has z < w; the c_{sw} entries lie below the diagonal
    s, i, j = next(zip(*np.nonzero(np.triu(block, k=1))))
    cs[s, cell[i], cell[j]] *= 2
    assert np.array_equal(klcells._star_links(g, cs, kl.desc, kl.left_cells)[list(cell)], cell)


@pytest.mark.parametrize("name", ("A2", "A3", "A4"))
def test_a_flipped_left_descent_leaves_its_cell_unlinked(name, ctx):
    # the (v + v^-1) diagonal of c_s sits at the left descents, which the
    # block of cs does not hold: a linked cell whose descents differ by one
    # entry from its representative's keeps its block and loses its link
    kl = ctx(name).kl
    g = kl.group
    rep = klcells._star_links(g, kl.cs, kl.desc, kl.left_cells)
    cell = next(c for c in kl.left_cells if rep[c[0]] != c[0])
    desc = kl.desc.copy()
    desc[0, cell[-1]] = ~desc[0, cell[-1]]
    assert np.array_equal(klcells._star_links(g, kl.cs, desc, kl.left_cells)[list(cell)], cell)


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_pair_pass_equals_cone_pass(name, ctx):
    # the pair pass keeps only the z ~_L y of each cone, which holds every
    # nonzero gamma[x, y, z] (Lusztig, CRM 18, 14.2 P8) and reaches a(z)
    kl = ctx(name).kl
    a, entries = cone_top(kl)
    assert kl.a_values == a
    for got, want in zip(kl._top[1], entries):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_cells_and_gamma_build_the_left_preorder_closure_once(monkeypatch):
    closure = klcells._closure
    graphs = []

    def counted(adj):
        graphs.append(adj)
        return closure(adj)

    monkeypatch.setattr(klcells, "_closure", counted)
    kl = compute_kl(generate(CartanType.parse("A3")))
    klcells.j_ring(kl, klcells.compute_cells(kl))
    left = kl.cs.any(axis=0)
    assert sum(np.array_equal(adj, left) for adj in graphs) == 1


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_gamma_inversion_symmetry(name, ctx):
    # oracle: c_w -> c_{w^-1} is an anti-automorphism of the Hecke algebra,
    # so h_{x,y,z} = h_{y^-1,x^-1,z^-1} and the same holds for gamma
    kl = ctx(name).kl
    g = kl.group
    inv = g.inv
    gamma = kl.gamma_tensor()
    assert gamma.any()
    assert np.array_equal(gamma, gamma[np.ix_(inv, inv, inv)].transpose(1, 0, 2))


@pytest.mark.parametrize("name", ("A2", "B2"))
def test_h_matches_direct_canonical_product(name, ctx):
    # oracle: multiply c-basis elements in the Tt basis directly and convert
    c = ctx(name)
    g = c.group
    kl = c.kl
    lengths = g.length.tolist()

    def tt_mult_by_gen(vec, i):
        out = {}
        for y, f in vec.items():
            sy = int(g.lmul[y, i - 1])
            if lengths[sy] > lengths[y]:
                out[sy] = out.get(sy, IntPoly()) + f
            else:
                out[sy] = out.get(sy, IntPoly()) + f
                out[y] = out.get(y, IntPoly()) + (
                    IntPoly({1: 1}) - IntPoly({-1: 1})
                ) * f
        return {k: v for k, v in out.items() if not v.is_zero}

    def tt_expand(w):
        # c_w = sum_y v^(l(y)-l(w)) P_{y,w}(v^2) Tt_y, reconstructed from P
        out = {}
        for (y, w2), coeffs in kl.P.items():
            if w2 != w:
                continue
            f = IntPoly({2 * j + lengths[y] - lengths[w]: cj
                         for j, cj in enumerate(coeffs) if cj})
            out[y] = f
        return out

    for x in range(g.size):
        for y in range(g.size):
            # expand c_x c_y in the Tt basis
            prod = {}
            for u, fu in tt_expand(x).items():
                vec = {y2: fu * fy for y2, fy in tt_expand(y).items()}
                for i in reversed(g.words[u]):
                    vec = tt_mult_by_gen(vec, i)
                for k, v in vec.items():
                    prod[k] = prod.get(k, IntPoly()) + v
            prod = {k: v for k, v in prod.items() if not v.is_zero}
            # subtract h_{x,y,z} c_z and expect zero
            for z, h in h_row(c.kl, x, y).items():
                for u, fu in tt_expand(z).items():
                    prod[u] = prod.get(u, IntPoly()) - h * fu
            assert all(v.is_zero for v in prod.values())


def regular_module(kl):
    """``kl.cs`` as the generators Tt_s = c_s - v^-1 of the regular module."""
    return kl.tt_generators(np.arange(kl.group.size))


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_cs_is_the_regular_representation(name, ctx):
    # oracle (Kazhdan-Lusztig 1979): c_s acting on the canonical basis is the
    # regular module of the Hecke algebra
    c = ctx(name)
    kl = c.kl
    g = kl.group
    gens = regular_module(kl)
    laurent_cs = gens.copy()  # c_s = Tt_s + v^-1, offset 1
    laurent_cs[:, range(g.size), range(g.size), 0] += 1
    for op in laurent_cs:
        square = laurent_matmul(op, op)  # offset 2
        want = np.zeros_like(square)
        want[..., :3] += op  # v^-1 c_s
        want[..., 2:] += op  # v c_s
        assert np.array_equal(square, want)
    # the regular module is the sum of dim(E) copies of each irreducible E,
    # as Laurent arrays; its traces come from the multiplication rule alone,
    # and at v = 1 its character is |W| at e and 0 elsewhere
    regular = regular_traces(g)
    assert np.array_equal(sum(m.dim * m.traces for m in c.modules), regular)
    chi = regular.sum(axis=1)
    assert chi[0] == g.size and not chi[1:].any()
    # the trace table of cs checks the quadratic and braid relations on the way
    assert np.array_equal(heckechar._trace_table(g, gens, heckechar._trace_plan(g)), regular)


@pytest.mark.parametrize("name", ("A2", "A3", "A4", "B2", "G2"))
def test_flipped_mu_breaks_the_hecke_relations(name, ctx):
    c = ctx(name)
    kl = c.kl
    gens = regular_module(kl)
    # a genuine mu(z, w) entry has z < w, so it is not the c_{sw} term
    s, z, w = next(zip(*np.nonzero(np.triu(kl.cs, k=1))))
    gens[s, z, w, 1] *= -1
    plan = heckechar._trace_plan(kl.group)
    with pytest.raises(heckechar.ConstructionIncomplete, match="relation fails"):
        heckechar._trace_table(kl.group, gens, plan)


def _a2():
    return generate(CartanType.parse("A2"))


def test_window_guards_raise(monkeypatch):
    g = _a2()
    kl = compute_kl(g)
    # a window of |exponent| <= nu has no guard slot for p_{e,w0} = v^-nu ...
    monkeypatch.setattr(klcells, "window_offset", lambda nu: nu)
    with pytest.raises(AssertionError, match="canonical-basis exponent window exceeded"):
        compute_kl(g)
    # ... nor for h_{w0,w0,w0}, of degree nu
    with pytest.raises(AssertionError, match="structure-constant exponent window exceeded"):
        kl.a_values


def test_magnitude_guards_raise(monkeypatch):
    g = _a2()
    kl = compute_kl(g)
    cells = klcells.compute_cells(kl)
    gamma = klcells.j_ring(kl, cells)
    # KL coefficients of A2 are 0 or 1; structure constants reach 2
    monkeypatch.setattr(poly, "MAGNITUDE_GUARD", 2)
    with pytest.raises(AssertionError, match="structure-constant magnitude guard tripped"):
        compute_kl(g).a_values
    with pytest.raises(AssertionError, match="centrality magnitude guard tripped"):
        is_central(g, gamma, {g.parse_word("1"): 2})
    monkeypatch.setattr(poly, "MAGNITUDE_GUARD", 1)
    with pytest.raises(AssertionError, match="canonical-basis magnitude guard tripped"):
        compute_kl(g)


def inject_gamma_fault(monkeypatch, edit):
    """Let every later structure-constant pass return its gamma entries
    through ``edit(g, x, y, z, value)``."""
    compute_top = klcells._compute_top

    def faulty(g, *args):
        a, entries = compute_top(g, *args)
        return a, edit(g, *entries)

    monkeypatch.setattr(klcells, "_compute_top", faulty)


@pytest.mark.parametrize("merge, message", [
    (False, "gamma supported outside two-sided cells"),
    (True, "gamma support mixes a-values"),
], ids=("crosses-cells", "mixes-a-values"))
def test_j_ring_refuses_gamma_that_joins_two_cells(monkeypatch, merge, message):
    g = _a2()
    s = g.parse_word("1")

    def edit(g, x, y, z, value):  # t_e t_e gains a t_s term; a(e) = 0, a(s) = 1
        return np.append(x, 0), np.append(y, 0), np.append(z, s), np.append(value, 1)

    inject_gamma_fault(monkeypatch, edit)
    kl = compute_kl(g)
    cells = klcells.compute_cells(kl)
    if merge:  # a partition in which e and s share a two-sided cell
        pair = [c for c in cells.two_sided_cells if 0 in c or s in c]
        rest = tuple(c for c in cells.two_sided_cells if c not in pair)
        cells = dataclasses.replace(cells, two_sided_cells=rest + (tuple(sorted(sum(pair, ()))),))
    with pytest.raises(klcells.AssociativityFailure, match=message):
        klcells.j_ring(kl, cells)


@pytest.mark.parametrize("name", TYPE_NAMES[1:])  # A1's cells have one element
def test_j_ring_refuses_one_changed_value(monkeypatch, name):
    # the last entry of the largest cell (36 elements on A4)
    g = generate(CartanType.parse(name))
    cells = klcells.compute_cells(compute_kl(g))
    largest = max(cells.two_sided_cells, key=len)

    def edit(g, x, y, z, value):
        value = value.copy()
        value[np.flatnonzero(np.isin(x, largest))[-1]] += 1
        return x, y, z, value

    inject_gamma_fault(monkeypatch, edit)
    kl = compute_kl(g)
    first = g.word(largest[0])
    with pytest.raises(klcells.AssociativityFailure,
                       match=f"associativity fails on the cell of {first}$"):
        klcells.j_ring(kl, cells)


def test_j_ring_finds_a_fault_in_one_triple(monkeypatch):
    # gamma reduced to t_b t_a = t_b for the first a and last b of A4's
    # 36-element cell: (t_b t_a) t_a = t_b but t_b (t_a t_a) = 0, and no other
    # triple differs
    g = generate(CartanType.parse("A4"))
    cells = klcells.compute_cells(compute_kl(g))
    largest = max(cells.two_sided_cells, key=len)
    a, b = largest[0], largest[-1]

    def edit(g, x, y, z, value):
        return np.array([b]), np.array([a]), np.array([b]), np.array([1])

    inject_gamma_fault(monkeypatch, edit)
    with pytest.raises(klcells.AssociativityFailure,
                       match=f"associativity fails on the cell of {g.word(a)}$"):
        klcells.j_ring(compute_kl(g), cells)


def single_changes(n_entries, sample):
    """Every (entry, +-1) change, or ``sample`` of them drawn with a fixed seed."""
    changes = [(i, delta) for i in range(n_entries) for delta in (1, -1)]
    return changes if sample is None else random.Random(18).sample(changes, sample)


@pytest.mark.parametrize("name, sample", [
    ("A1", None), ("A2", None), ("A3", None), ("B2", None), ("G2", None), ("A4", 5),
])
def test_j_ring_refuses_exactly_what_the_dense_check_refuses(monkeypatch, ctx, name, sample):
    # the clean entries, then each single-entry change: j_ring raises iff the
    # dense per-cell reference finds the changed constants non-associative
    c = ctx(name)
    g, two_sided = c.group, c.cells.two_sided_cells
    entries = c.kl._top[1]
    held = [entries]
    monkeypatch.setattr(klcells, "_compute_top", lambda *args: (c.kl.a_values, held[0]))

    def refusal(gamma):
        held[0] = gamma
        try:
            klcells.j_ring(dataclasses.replace(c.kl), c.cells)
        except klcells.AssociativityFailure as exc:
            return str(exc)
        return None

    assert dense_associative(entries, two_sided) and refusal(entries) is None
    for i, delta in single_changes(len(entries[0]), sample):
        value = entries[3].copy()
        value[i] += delta
        changed = entries[:3] + (value,)
        first = next(tc[0] for tc in two_sided if entries[0][i] in tc)
        expected = None if dense_associative(changed, two_sided) else (
            f"associativity fails on the cell of {g.word(first)}")
        assert refusal(changed) == expected, (i, delta)


def cb_slot(g, w, y, degree):
    """The slot of v^degree in p_{y,w} in the canonical-basis state of
    ``compute_kl``, which holds only the degrees = l(y) - l(w) mod 2."""
    off = klcells.window_offset(g.nu)
    r = (g.length[w] + g.length[y] + off) % 2
    assert (degree + off - r) % 2 == 0, "no slot of that parity"
    return (degree + off - r) // 2


def test_kl_degree_bound_guard_raises(monkeypatch):
    g = _a2()
    step = klcells._induction_step
    w0 = g.size - 1
    y = int(np.flatnonzero(g.length == 1)[0])  # a simple reflection s

    def step_with_q_term(g, cs, big, apply, x):
        step(g, cs, big, apply, x)
        if x == w0:  # the last step, so nothing reads it: P_{s,w0} = 1 + q
            # violates deg P <= (l(w0) - l(s) - 1) / 2
            big[w0, y, cb_slot(g, w0, y, 0)] += 1

    monkeypatch.setattr(klcells, "_induction_step", step_with_q_term)
    with pytest.raises(AssertionError, match="KL degree bound violated"):
        compute_kl(g)


@pytest.mark.parametrize("degree, message", [
    # P_{e,s} = 1 + q^-1, a term below the constant term; the same term added
    # at the step to s reaches v^-off, the window guard, in p_{e,w0}
    (-3, "canonical-basis exponent out of range"),
    (-1, "KL polynomial without constant term 1"),  # P_{e,s} = 2
    # P_{e,s} = 1 + q: the v^+1 slot is the window guard, which so implies
    # the degree bound for every term at v-degree >= +1
    (1, "canonical-basis exponent window exceeded"),
])
def test_kl_coefficient_guards_raise(monkeypatch, degree, message):
    g = _a2()
    step = klcells._induction_step

    def step_with_extra_term(g, cs, big, apply, x):
        step(g, cs, big, apply, x)
        if x == g.size - 1:  # the last step, so nothing reads p_{e,s} after it
            big[1, 0, cb_slot(g, 1, 0, degree)] += 1

    monkeypatch.setattr(klcells, "_induction_step", step_with_extra_term)
    with pytest.raises(AssertionError, match=message):
        compute_kl(g)


_A_GUARD_CASES = [
    ("A2", "e", 2, "a\\(e\\) != 0"),
    ("A2", "121", 4, "a\\(w0\\) != nu"),
    # B2 has no star links: the pair (z, z) is z's own, and z^-1 keeps its a-value
    ("B2", "12", 2, "not inversion-invariant"),
]


@pytest.mark.parametrize("name, z, exponent, message", _A_GUARD_CASES,
                         ids=["-".join(map(str, case[1:])) for case in _A_GUARD_CASES])
def test_a_function_guards_raise(monkeypatch, name, z, exponent, message):
    g = generate(CartanType.parse(name))
    kl = compute_kl(g)
    rep = klcells._star_links(g, kl.cs, kl.desc, kl.left_cells)
    # the position of z's representative among the representative y's
    at = np.searchsorted(np.flatnonzero(rep == np.arange(g.size)), rep[g.parse_word(z)])
    step = klcells._induction_step

    def step_with_extra_term(g, cs, big, apply, x):
        step(g, cs, big, apply, x)
        if x == g.size - 1:  # add v^exponent to h_{e,z,z}, at the pair of z's representative
            diagonal = np.flatnonzero(big[0, :, 0])  # c_e c_y = c_y, in order of y
            # h_{e,z,z} holds even degrees only: slot j is v^2j
            big[0, diagonal[at], exponent // 2] += 1

    monkeypatch.setattr(klcells, "_induction_step", step_with_extra_term)
    with pytest.raises(AssertionError, match=message):
        kl.a_values
