"""Reference computations that tests check the engine against.

* :func:`from_array`: the polynomial held by one Laurent-array row.
* :func:`mult`: the group product of two element indices.
* :func:`bruhat_lower_set`: the Bruhat interval below w, from subwords.
* :func:`p_pass`: the p_{y,w} by the canonical-basis induction over the
  full window of degrees -off..off, on the Tt basis.
* :func:`h_pass`: the structure constants h_{x,y,z} on a left cone, by the
  c-basis induction on the full span{c_z : z in cone}, over the full window
  of degrees -off..off.  With the cone all of W it is the plain definition
  c_x c_y = sum_z h_{x,y,z} c_z.
* :func:`cone_top`: a per element and the nonzero gamma entries from one
  :func:`h_pass` per left cell on that cell's cone, the merge of the cells
  taken at the highest slot per z.  ``klcells._compute_top`` must agree.
* :func:`dense_associative`: associativity of gamma from one dense block
  per two-sided cell, the form ``klcells.j_ring`` must agree with.
* :func:`laurent_matmul`: the product of two matrices with Laurent entries.
* :func:`chain_traces`: tr(Tt_w) on a Hecke module for every w, by one
  matrix product per element, the table ``heckechar._trace_table`` must
  reproduce: read off its own products up to ``top``, by its recursion
  beyond.
* :func:`regular_traces`: tr(Tt_w) on the regular module for every w, in
  the Tt basis by the multiplication rule alone, the sum over the
  irreducible modules with multiplicity their dimension must equal.
"""

from __future__ import annotations

import numpy as np

from cellred import klcells
from cellred.coxeter import WeylGroup
from cellred.poly import IntPoly, check_magnitude, check_window, window_offset


def from_array(row: np.ndarray, off: int) -> IntPoly:
    """The polynomial held by one Laurent-array row with offset ``off``."""
    return IntPoly({k - off: int(c) for k, c in enumerate(row) if c})


def mult(g: WeylGroup, a: int, b: int) -> int:
    """The index of the product ab: a times the letters of b's word."""
    for i in g.words[b]:
        a = int(g.rmul[a, i - 1])
    return a


def bruhat_lower_set(g: WeylGroup, w: int) -> frozenset[int]:
    """All y <= w: products of subwords of one reduced word for w."""
    reach = {0}
    for i in g.words[w]:
        reach |= {int(g.rmul[x, i - 1]) for x in reach}
    return frozenset(reach)


def p_pass(kl: klcells.KLData) -> np.ndarray:
    """p_{y,w} for all y, w, as an (n, n, D) Laurent array indexed [w, y]:
    c_x = c_s c_{sx} - sum_z mu(z, sx) c_z with the mu read from ``kl.cs``,
    and c_s = Tt_s + v^-1 on the Tt basis, over every degree of the window."""
    g = kl.group
    n = g.size
    off = window_offset(g.nu)
    big = np.zeros((n, n, 2 * off + 1), dtype=np.int64)
    big[0, 0, off] = 1

    def tt_apply(s: int, x: int, A: np.ndarray) -> np.ndarray:
        # row y gets A[sy], plus v A[y] where sy < y, else v^-1 A[y]
        d = kl.desc[s - 1]
        out = A[g.lmul[:, s - 1]]
        out[d, 1:] += A[d, :-1]
        out[~d, :-1] += A[~d, 1:]
        return out

    for x in range(1, n):
        klcells._induction_step(g, kl.cs, big, tt_apply, x)
    check_window(big, "canonical-basis")
    return big


def h_pass(kl: klcells.KLData, cone: np.ndarray, ys: list[int]) -> np.ndarray:
    """h_{x, y, z} for all x, z in ``cone`` and y in ``ys``, as an
    (n, len(cone), len(ys), D) Laurent array.

    ``cone`` must contain every z <=_L y for y in ``ys``, so that c_s maps
    span{c_z : z in cone} to itself; all of W always qualifies.
    """
    g, cs = kl.group, kl.cs
    n = g.size
    off = window_offset(g.nu)
    tabs = klcells._gather_tables(cs[:, cone][:, :, cone], kl.desc[:, cone])
    big = np.zeros((n, len(cone), len(ys), 2 * off + 1), dtype=np.int64)
    big[0, np.searchsorted(cone, ys), np.arange(len(ys)), off] = 1

    def cs_apply(s: int, x: int, A: np.ndarray) -> np.ndarray:
        # c_s on the c-basis over the full window; the engine's apply keeps degrees >= 0
        rows, src, val = tabs[s - 1]
        out = np.zeros_like(A)
        out[rows] = np.einsum("rk,rk...->r...", val, A[src])
        out[rows, ..., 1:] += A[rows, ..., :-1]
        out[rows, ..., :-1] += A[rows, ..., 1:]
        return out

    for x in range(1, n):
        klcells._induction_step(g, cs, big, cs_apply, x)
    check_window(big, "structure-constant")
    check_magnitude(int(max(big.max(), -big.min())), "structure-constant")
    return big


def h_row(kl: klcells.KLData, x: int, y: int) -> dict[int, IntPoly]:
    """The nonzero h_{x,y,z}, keyed by z, from one :func:`h_pass` on all of W."""
    g = kl.group
    row = h_pass(kl, np.arange(g.size), [y])[x, :, 0]
    off = window_offset(g.nu)
    return {
        z: from_array(row[z], off)
        for z in np.flatnonzero(row.any(axis=1)).tolist()
    }


def left_cones(cs: np.ndarray) -> list[tuple[list[int], np.ndarray]]:
    """Each left cell, as its sorted members y, with its cone {z : z <=_L y}.

    The y with equal columns of the left-preorder closure form a left cell,
    and that column is their cone.
    """
    reach = klcells._closure(cs.any(axis=0))
    cells: dict[bytes, list[int]] = {}
    for y in range(len(reach)):
        cells.setdefault(reach[:, y].tobytes(), []).append(y)
    return [(ys, np.flatnonzero(reach[:, ys[0]])) for ys in cells.values()]


def cone_top(kl: klcells.KLData) -> tuple[tuple[int, ...], klcells.GammaEntries]:
    """a per element and the nonzero gamma entries, in one pass per left cell.
    Each cell keeps its nonzero coefficients at its own highest slot per z;
    those at the highest slot over all cells, ``top[z]``, are gamma."""
    g = kl.group
    n = g.size
    off = window_offset(g.nu)
    top = np.zeros(n, dtype=np.int64)  # slot 0 is the zero guard slot
    found = []  # per cell: x, y, z, value and slot of each nonzero coefficient
    for ys, cone in left_cones(kl.cs):
        big = h_pass(kl, cone, ys)
        # highest slot occupied in some h_{x,y,z}, per z of the cone
        deg = (big.any(axis=(0, 2)) * np.arange(2 * off + 1)).max(axis=1)
        top[cone] = np.maximum(top[cone], deg)
        lead = big[:, np.arange(len(cone)), :, deg]  # (cone, x, y)
        c, x, j = np.nonzero(lead)
        found.append((x, np.array(ys)[j], cone[c], lead[c, x, j], deg[c]))
    x, y, z, value, slot = map(np.concatenate, zip(*found))
    keep = slot == top[z]
    order = np.lexsort((z[keep], y[keep], x[keep]))
    a = top - off
    return tuple(int(v) for v in a), tuple(v[keep][order] for v in (x, y, z, value))


def dense_associative(gamma: klcells.GammaEntries, two_sided_cells: klcells.Cells) -> bool:
    """Whether the constants ``gamma``, supported in ``two_sided_cells``, are
    associative: per cell of d elements, the d^3 int64 block of gamma and the
    products (t_x t_y) t_u and t_x (t_y t_u) as two whole ``tensordot``s."""
    xs, ys, zs, vals = gamma
    for idx in two_sided_cells:
        mine = np.isin(xs, idx)
        sub = np.zeros((len(idx),) * 3, dtype=np.int64)
        sub[tuple(np.searchsorted(idx, v[mine]) for v in (xs, ys, zs))] = vals[mine]
        lhs = np.tensordot(sub, sub, axes=(2, 0))
        rhs = np.tensordot(sub, sub, axes=(2, 1)).transpose(2, 0, 1, 3)
        if not np.array_equal(lhs, rhs):
            return False
    return True


def laurent_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of matrices with Laurent entries, as a full convolution.

    ``(i, k, Da) x (k, j, Db) -> (i, j, Da + Db - 1)``; the offset of the
    product is the sum of the offsets of the factors.  Every pair of slots
    is multiplied in one integer matrix product, then the pairs are summed
    along the diagonals of equal degree.
    """
    (i, k, da), (j, db) = a.shape, b.shape[1:]
    # parts[f, :, :, e] = a[:, :, f] @ b[:, :, e]
    parts = (a.transpose(2, 0, 1).reshape(da * i, k) @ b.reshape(k, j * db)).reshape(da, i, j, db)
    out = np.zeros((i, j, da + db - 1), dtype=np.int64)
    for e in range(db):
        out[:, :, e:e + da] += parts[..., e].transpose(1, 2, 0)
    return out


def chain_traces(g: WeylGroup, gens: np.ndarray) -> np.ndarray:
    """tr(Tt_w) for all w, an (n, D) Laurent array with offset
    ``window_offset(nu)``: Tt_x = Tt_{x s_i} Tt_{s_i}, s_i the last letter of
    x, for every x in turn."""
    d = gens.shape[1]
    off = window_offset(g.nu)
    mats = np.zeros((g.size, d, d, 2 * off + 1), dtype=np.int64)
    mats[0, np.arange(d), np.arange(d), off] = 1
    for x in range(1, g.size):
        i = g.words[x][-1]
        # the product has offset off + 1
        mats[x] = laurent_matmul(mats[g.rmul[x, i - 1]], gens[i - 1])[:, :, 1:-1]
    check_window(mats, "trace")
    check_magnitude(int(np.abs(mats).max()), "trace")
    return mats.trace(axis1=1, axis2=2)


def regular_traces(g: WeylGroup) -> np.ndarray:
    """tr(Tt_w) on the regular module for all w, an (n, D) Laurent array with
    offset ``window_offset(nu)``.  Each w in turn applies its letters, last
    first, to the identity matrix on the Tt basis by the rule
    Tt_s Tt_y = Tt_{sy}, plus (v - v^-1) Tt_y where sy < y, and keeps only
    the trace; no product is stored."""
    n = g.size
    off = window_offset(g.nu)
    out = np.zeros((n, 2 * off + 1), dtype=np.int64)
    for w in range(n):
        mat = np.zeros((n, n, 2 * off + 1), dtype=np.int64)  # column y is Tt_y
        mat[range(n), range(n), off] = 1
        for s in reversed(g.words[w]):
            sy = g.lmul[:, s - 1]
            down = g.length[sy] < g.length
            step = np.zeros_like(mat)
            step[sy] = mat
            step[down, :, 1:] += mat[down, :, :-1]
            step[down, :, :-1] -= mat[down, :, 1:]
            mat = step
        check_window(mat, "regular-trace")
        out[w] = mat.trace(axis1=0, axis2=1).T
    return out
