"""Acceptance suite: one test per criterion, every tolerance exact.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion.  All comparisons are exact integer / exact rational equalities;
there are no numeric tolerances anywhere.
"""

import io
import itertools
import json
from contextlib import redirect_stdout

import numpy as np

from cellred.audit import get_context
from cellred.cli import main
from cellred.coxeter import generate
from cellred.heckechar import build_hecke_modules
from cellred.klcells import is_central
from cellred.poly import IntPoly
from cellred.rootdata import CartanType, Weight, build_root_system, weyl_dim
from cellred.sl3lab import (
    build_incidence,
    kernel_analysis,
    principal_series_check,
)
from cellred.uniptables import load_tables, transpose
from cellred.weylmod import delta_table, find_duality

from conftest import DATA_TYPE_NAMES, TYPE_NAMES, char_value


def _ok(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


# the five closed dimension forms, restated as the oracle
CLOSED = {
    "A1": lambda a: a,
    "A2": lambda a, b: a * b * (a + b) // 2,
    "B2": lambda a, b: a * b * (a + b) * (a + 2 * b) // 6,
    "G2": lambda a, b: a * b * (a + b) * (a + 2 * b) * (a + 3 * b) * (2 * a + 3 * b) // 120,
    "A3": lambda a, b, c: a * b * c * (a + b) * (b + c) * (a + b + c) // 12,
}


def test_01_dimension_formula_suite():
    checked = 0
    for name, form in sorted(CLOSED.items()):
        ct = CartanType.parse(name)
        rs = build_root_system(ct)
        for coords in itertools.product(range(7), repeat=ct.rank):
            assert weyl_dim(rs, Weight(coords)) == form(*(n + 1 for n in coords))
            checked += 1
    _ok(1, f"dimension formula matches all five closed forms on {checked} weights")


def test_02_delta_table_suite():
    rows = 0
    for name in DATA_TYPE_NAMES:
        ct = CartanType.parse(name)
        tables = load_tables(ct)
        deltas = delta_table(tables)  # verifies templates against transcriptions
        assert list(deltas) == list(tables.words)  # every row, in file order
        for w, pi in deltas.items():
            assert pi == tables.delta[w]  # exact coefficient equality
            rows += 1
    assert rows == 2 + 4 + 10 + 6 + 8
    _ok(2, f"all {rows} transcribed dimension polynomials reproduced exactly")


def test_03_bookkeeping_identities():
    identities = 0
    for name in DATA_TYPE_NAMES:
        ct = CartanType.parse(name)
        tables = load_tables(ct)
        deltas = delta_table(tables)
        for u in tables.unipotent:
            combo = IntPoly.zero()
            for w, mult in transpose(tables.r_alpha)[u.label].items():
                combo = combo + mult * deltas[w]
            assert combo == u.degree  # zero tolerance
            identities += 1
    assert identities == 26
    _ok(3, "all 26 degree decompositions hold as exact polynomial identities")


def test_04_duality():
    signs = set()
    for name in DATA_TYPE_NAMES:
        ct = CartanType.parse(name)
        g = generate(ct)
        tables = load_tables(ct)
        res = find_duality(g, delta_table(tables), tables.words)
        assert res.ok
        shipped = tables.duality
        assert {w: p for w, (p, _) in res.pairs.items()} == shipped
        full = frozenset(range(1, g.rank + 1))
        for w, (partner, s) in res.pairs.items():
            signs.add(s)
            cl_w = g.left_descent_set(w)
            cl_p = g.left_descent_set(partner)
            assert cl_p == full - cl_w
    assert signs <= {1, -1}
    note = "all +" if signs == {1} else f"signs observed: {sorted(signs)}"
    _ok(4, f"computed involutions equal the shipped tables; {note}")


def test_05_a_values():
    for name in DATA_TYPE_NAMES:
        ct = CartanType.parse(name)
        ctx = get_context(ct)
        deltas = delta_table(ctx.tables)
        for w, pi in deltas.items():
            assert pi.lowest_degree() == ctx.kl.a_values[w]
    b2 = sorted(pi.lowest_degree() for pi in get_context(CartanType.parse("B2")).deltas.values())
    assert b2 == [0, 1, 1, 1, 1, 4]
    _ok(5, "lowest degrees equal the a-function on every row (B2: 0,1,1,1,1,4)")


def test_06_near_involution_double_derivation():
    for name in TYPE_NAMES:
        ctx = get_context(CartanType.parse(name))
        cells_based = ctx.jset
        alpha_based = ctx.leading.alpha_support()
        assert cells_based == alpha_based
        shipped = ctx.tables.r_alpha
        if shipped is not None:
            assert frozenset(shipped) == cells_based
    assert len(get_context(CartanType.parse("A4")).jset) == 26
    _ok(6, "cell-based and trace-based near-involution sets agree with the lists")


def test_07_centrality():
    total = 0
    for name in TYPE_NAMES:
        ctx = get_context(CartanType.parse(name))
        for lab in sorted(ctx.unip_rows):
            assert is_central(ctx.group, ctx.gamma, ctx.unip_rows[lab])
            total += 1
    assert total == 2 + 3 + 5 + 7 + 6 + 10
    _ok(7, f"all {total} multiplicity combinations are central, A4 included")


def test_08_hecke_trace_consistency():
    for name in TYPE_NAMES:
        ctx = get_context(CartanType.parse(name))
        mods = build_hecke_modules(ctx.group, ctx.kl, ctx.cells, ctx.chartable)
        for mod in mods:
            for w in range(ctx.group.size):
                assert int(mod.traces[w].sum()) == char_value(ctx.chartable, mod.label, w)
        assert ctx.leading.a_E[ctx.chartable.labels[0]] == 0
        assert ctx.leading.a_E[ctx.chartable.sign_label] == ctx.group.nu
    _ok(8, "v=1 traces equal the character tables; a(trivial)=0, a(sign)=nu")


def test_09_incidence_lab():
    primes = (2, 3, 5, 7, 11)
    for p in primes:
        rep = kernel_analysis(build_incidence(p))
        want = p * (p + 1) // 2
        assert rep.dim_ker_tau == want
        assert rep.ker_tau_eq_im_tau_prime
    # tau' is tau: the command writes its facts from the same report
    with redirect_stdout(io.StringIO()) as out:
        assert main(["sl3"] + [a for p in primes for a in ("--p", str(p))]) == 0
    results = json.loads(out.getvalue())["results"]
    assert [r["p"] for r in results] == list(primes)
    for p, r in zip(primes, results):
        want = p * (p + 1) // 2
        assert r["kernel"]["dim_ker_tau"] == r["kernel"]["dim_ker_tau_prime"] == want
        assert r["kernel"]["ker_tau_eq_im_tau_prime"] is True
        assert r["kernel"]["ker_tau_prime_eq_im_tau"] is True
    _ok(9, "kernel dimensions p(p+1)/2 and kernel/image identities for p in {2,3,5,7,11}")


def test_10_principal_series():
    for p in (5, 7, 11, 13):
        ps = principal_series_check(p)
        assert len(ps.dims)
        assert (ps.dims.sum(axis=1) == (p + 1) * (p * p + p + 1)).all()
    spot = principal_series_check(5)
    (k,) = np.flatnonzero((spot.members == (1, 2)).all(axis=-1).any(axis=-1))
    assert spot.dims[k].sum() == 186
    _ok(10, "every free orbit sums to (p+1)(p^2+p+1); spot orbit of (1,2) at p=5 is 186")


def test_11_property_suites(capsys):
    # canonical-basis degree bounds and constant terms, exhaustively
    for name in TYPE_NAMES:
        ctx = get_context(CartanType.parse(name))
        length = ctx.group.length
        for (y, w), coeffs in ctx.kl.P.items():
            assert coeffs[0] == 1
            if y != w:
                assert 2 * (len(coeffs) - 1) <= length[w] - length[y] - 1
        # associativity is verified exhaustively before gamma is first read
        assert ctx.gamma is not None
    # determinism: byte-identical audit output across runs
    assert main(["audit", "--all"]) == 0
    first = capsys.readouterr().out
    assert main(["audit", "--all"]) == 0
    second = capsys.readouterr().out
    assert first == second and json.loads(first)
    with capsys.disabled():
        print()
    _ok(11, "degree bounds exhaustive, ring associativity verified, output byte-identical")
