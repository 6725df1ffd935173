"""Canonical-basis combinatorics of the Hecke algebra.

Everything here lives over Z[v, v^-1] with u = v^2.  The normalised standard
basis Tt_w = v^(-l(w)) T_w satisfies

    Tt_s Tt_w = Tt_{sw}                      if l(sw) > l(w),
    Tt_s Tt_w = Tt_{sw} + (v - v^-1) Tt_w    if l(sw) < l(w),

and the canonical basis is c_w = sum_y p_{y,w} Tt_y with
p_{y,w} = v^(l(y)-l(w)) P_{y,w}(v^2); mu(y, w) is the coefficient of v^-1 in
p_{y,w}.  Left multiplication by c_s on the canonical basis is the W-graph of
Kazhdan and Lusztig:

    c_s c_w = (v + v^-1) c_w                                 (sw < w),
    c_s c_w = c_{sw} + sum_{z < w, sz < z} mu(z, w) c_z     (sw > w).

:func:`compute_kl` builds this operator once, as ``KLData.cs``, filling
column w as soon as the mu(., w) are known.  It holds the integers alone, the
mu(z, w) and the c_{sw}: the (v + v^-1) diagonal sits at the left descents,
``KLData.desc``.  Read backwards, column sx gives c_x = c_s c_{sx} -
sum_z mu(z, sx) c_z for s the first letter of x, and both inductions run on it:

* on the Tt basis it yields the c_w, hence the classical P_{y,w} and mu;
* on the c-basis expansion of c_x c_y it yields the structure constants
  h_{x,y,z} (c_x c_y = sum_z h_{x,y,z} c_z) for all x and z ~_L y.

Both run on the Laurent arrays of :mod:`cellred.poly`, under their window
and magnitude guards, and each holds one parity of degree per entry:
p_{y,w} lives in degrees = l(y) - l(w) mod 2 (Kazhdan and Lusztig 1979),
and h_{x,y,z} in degrees = l(x) + l(y) + l(z) mod 2.  Every step keeps that
layout: the permutation and the integer entries of c_s read, in the state
of sx, rows whose y or z has the length parity opposite to the row they
feed, and the mu subtractions read the state of an element of the length
parity of x; either way each reads its own slot, and v or v^-1 moves a row
by no slot or by one.  The canonical-basis pass holds degrees -off..+1:
every p_{y,w} lives in degrees <= 0, and degrees -off and +1 are the window
guards.  The structure-constant pass holds degrees 0..off only: it starts
from c_e c_y = c_y and each step applies c_s, whose entries are v + v^-1
and integers, then subtracts integer mu multiples, so every h it forms is
bar-invariant (Kazhdan and Lusztig 1979), with equal v^d and v^-d
coefficients.  It runs once, on the pairs (z, y) with z ~_L y of one
representative left cell per class of cells linked by right star operations
(in type A, one per two-sided cell); the other cells of a class read their
h's through the relabelling.  For y in a left cell Gamma,
c_x c_y lies in span{c_z : z <=_L Gamma}, and on the cell module, its
quotient by span{c_z : z <_L Gamma}, c_s acts on the c_z with z in Gamma
through the rows of ``cs`` for those z alone; so the induction restricted to
the pairs gives each h_{x,y,z} with z ~_L y exactly.  That is all the pass
needs: by Lusztig (Hecke algebras with unequal parameters, CRM 18, 14.2 P8)
gamma[x,y,z] is nonzero only if y ~_L z, and the maximum below is reached
at y = z, since the unit of the asymptotic ring is a sum of t_d and so some
gamma[d,z,z] is nonzero.  From the h's:

* a(z) = max over x, y of deg_v h_{x,y,z};
* gamma[x,y,z] = coefficient of v^a(z) in h_{x,y,z}, the structure constants
  of the asymptotic ring, with product t_x t_y = sum_z gamma[x,y,z] t_z,
  stored as its nonzero entries (``GammaEntries``): int64 arrays x, y, z and
  value, sorted by (x, y, z).  Only ``KLData.gamma_tensor`` builds n^3 arrays.

:func:`j_ring` checks that these constants are associative by joining the
entries with themselves in Python ints: exact with no magnitude bound, and
no dense block of any cell is formed.

The support of ``cs`` generates the left preorder (c_z occurs in c_s c_y).
Left cells are its strong components, right cells those of its mirror
through inversion, and two-sided cells those of the union of the two.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Mapping

import numpy as np

from .coxeter import WeylGroup
from .poly import check_magnitude, window_offset

GammaEntries = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # x, y, z, value
Cells = tuple[tuple[int, ...], ...]  # sorted index tuples, listed by least member


class GroupTooLarge(ValueError):
    """Group order exceeds the configured bound for the canonical-basis pass."""


GROUP_BOUND = 120  # |W| of A4, the largest supported type


class AssociativityFailure(AssertionError):
    """The computed asymptotic-ring constants are not associative.

    This signals a convention bug in the basis or gamma extraction, never bad
    user input.
    """


class stage:
    """A lazy attribute that keeps what its first read built: the value, or
    the exception raised.  Later reads return that value or raise that
    exception again, unbuilt (``functools.cached_property`` keeps no exception)."""

    def __init__(self, build: Callable):
        self.build = build
        self.key = f"_{build.__name__}_kept"  # (value, exception) in the instance
        self.__doc__ = build.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        if self.key not in obj.__dict__:
            try:
                obj.__dict__[self.key] = (self.build(obj), None)
            except Exception as exc:
                obj.__dict__[self.key] = (None, exc)
        value, exc = obj.__dict__[self.key]
        if exc is not None:
            raise exc
        return value


# ---------------------------------------------------------------------------
# KL data
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class KLData:
    """Canonical-basis data for one Weyl group.

    The (rank, n, n) int64 ``cs[s - 1, z, w]`` is the integer coefficient of c_z
    in c_s c_w, which adds (v + v^-1) c_w where sw < w, at ``desc[s - 1, w]``.
    ``p_terms`` holds the decoded P_{y,w} in order of (w, y): arrays w, y and
    deg P, and the rows of coefficients in q.  ``P``, ``mu``, ``a_values``
    (a(z) per element index) and the nonzero gamma entries are built on
    first read.
    """

    group: WeylGroup
    cs: np.ndarray = field(repr=False)
    desc: np.ndarray = field(repr=False)
    p_terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    @stage
    def P(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """The index pair (y, w) with y <= w to the coefficient tuple of
        P_{y,w} in q, inserted in order of (w, y)."""
        w, y, deg, coeffs = self.p_terms
        # one flat list, not one per row, whose freed blocks stay resident among P's tuples
        flat, width = coeffs.ravel().tolist(), coeffs.shape[1]
        return {
            (yi, wi): tuple(flat[r * width:r * width + d + 1])
            for r, (wi, yi, d) in enumerate(zip(w.tolist(), y.tolist(), deg.tolist()))
        }

    @stage
    def mu(self) -> dict[tuple[int, int], int]:
        """The index pair (y, w) to the nonzero mu(y, w), the coefficient of
        q^((l(w) - l(y) - 1)/2) in P_{y,w}, inserted in order of (w, y)."""
        w, y, deg, coeffs = self.p_terms
        top = 2 * deg == self.group.length[w] - self.group.length[y] - 1
        return dict(zip(zip(y[top].tolist(), w[top].tolist()), coeffs[top, deg[top]].tolist()))

    @stage
    def left_cells(self) -> Cells:
        """The left cells, as sorted index tuples listed by least member."""
        return _sccs(self.cs.any(axis=0))

    @stage
    def _top(self) -> tuple[tuple[int, ...], GammaEntries]:
        return _compute_top(self.group, self.cs, self.desc, self.left_cells)

    @property
    def a_values(self) -> tuple[int, ...]:
        return self._top[0]

    def tt_generators(self, idx) -> np.ndarray:
        """Tt_s = c_s - v^-1 on span{c_z : z in idx}, a (rank, d, d, 3) Laurent
        array with offset 1: v on the diagonal where sz < z, else -v^-1."""
        eye = np.eye(len(idx), dtype=np.int64)
        down = self.desc[:, idx, None] * eye
        return np.stack([down - eye, self.cs[:, idx][:, :, idx], down], axis=-1)

    def gamma_tensor(self) -> np.ndarray:
        """Dense gamma[x, y, z] by element index, n^3 entries built anew per call."""
        x, y, z, value = self._top[1]
        gamma = np.zeros((self.group.size,) * 3, dtype=np.int64)
        gamma[x, y, z] = value
        return gamma


def _induction_step(
    g: WeylGroup,
    cs: np.ndarray,
    big: np.ndarray,
    apply: Callable[[int, int, np.ndarray], np.ndarray],
    x: int,
) -> None:
    """Set ``big[x]`` to c_x times ``big[0]`` from rows of shorter elements.

    With s the first letter of x, column sx of ``cs[s - 1]`` is
    c_s c_{sx} = c_x + sum_z mu(z, sx) c_z; ``apply(s, x, row)`` multiplies
    ``row``, the state of sx, by c_s into the degree layout of x.
    """
    s = g.words[x][0]
    xp = g.lmul[x, s - 1]
    row = apply(s, x, big[xp])
    col = cs[s - 1, :, xp]
    for z in np.flatnonzero(col[:xp]):  # the mu(z, sx); col[x] is c_x itself
        row -= col[z] * big[z]
    big[x] = row


def compute_kl(g: WeylGroup) -> KLData:
    """Run the canonical-basis induction for the whole group: the c_s
    operators and the P_{y,w}, decoded and checked here.  The ``P`` and
    ``mu`` dicts, ``a_values`` and gamma wait for their first read."""
    if g.size > GROUP_BOUND:
        raise GroupTooLarge(f"|W| = {g.size} exceeds bound {GROUP_BOUND}")
    n = g.size
    off = window_offset(g.nu)
    lm = g.lmul.T
    desc = g.length[lm] < g.length  # desc[s - 1, w]: sw < w
    par = g.length % 2
    s_idx = np.arange(g.rank)

    # cb[w, y, j] holds the coefficient of v^(2j - off + r) in p_{y,w}, the
    # coefficient of Tt_y in c_w, where r = (l(y) + l(w) + off) mod 2: p_{y,w}
    # lives in degrees = l(y) - l(w) mod 2.  Every p_{y,w} lives in degrees
    # <= 0, and the step to x shifts by v only the Tt_y with sy < y (s the
    # first letter of x), whose p_{y,sx} has degree < 0 unless y = sx, which s
    # lengthens; so degrees -off..+1 suffice, and -off and those >= +1 are
    # the window guards
    slots = (off + 1) // 2 + 1
    cb = np.zeros((n, n, slots), dtype=np.int64)
    cb[0, 0, off // 2] = 1  # p_{e,e} = 1, with r = off mod 2

    # c_s = Tt_s + v^-1 on the Tt basis: row y of c_s A is A[sy] plus v A[y]
    # where sy < y, else v^-1 A[y].  In A, the state of sx, row y has the r
    # opposite to its r in the state of x, so v moves it one slot up where r
    # is 0 in x, v^-1 one slot down where r is 1, and the other rows keep
    # their slot.  shift[s - 1][l(x) mod 2] reads that term of every slot
    # from A padded with a zero slot at each end, as flat indices
    odd = (par + off) % 2 == 1  # r = 1 in the state of an x of even length
    flat = np.arange(n)[:, None] * (slots + 2) + np.arange(1, slots + 1)
    shift = [[flat + (~down & r)[:, None] - (down & ~r)[:, None] for r in (odd, ~odd)]
             for down in desc]

    def tt_apply(s: int, x: int, A: np.ndarray) -> np.ndarray:
        pad = np.zeros((n, slots + 2), dtype=np.int64)
        pad[:, 1:-1] = A
        return A[lm[s - 1]] + pad.ravel()[shift[s - 1][par[x]]]

    cs = np.zeros((g.rank, n, n), dtype=np.int64)
    for x in range(n):
        if x:
            _induction_step(g, cs, cb, tt_apply, x)
        # the integers of column x of each c_s: none where sx < x (c_s c_x is
        # (v + v^-1) c_x), else c_{sx} plus mu(z, x) c_z over the z with sz < z;
        # mu(z, x), the coefficient of v^-1, is slot (off - 1) // 2 where
        # l(z) + l(x) is odd
        up = ~desc[:, x]
        cs[:, :, x] = (desc & up[:, None] & (par != par[x])) * cb[x, :, (off - 1) // 2]
        cs[s_idx[up], lm[up, x], x] = 1

    # the nonzero coefficients of the p_{y,w}, in order of (w, y, slot), and
    # their degrees d; v^d is q^(e/2) in P_{y,w} = v^gap p_{y,w}, e = d + gap,
    # which is even
    w, y, j = np.nonzero(cb)
    val = cb[w, y, j]
    del cb  # before the decode
    d = 2 * j - off + (par[w] + par[y] + off) % 2
    if (d <= -off).any() or (d > 0).any():
        raise AssertionError("canonical-basis exponent window exceeded")
    check_magnitude(int(max(val.max(), -val.min())), "canonical-basis")
    gap = g.length[w] - g.length[y]
    e = d + gap
    if (e < 0).any():
        raise AssertionError("canonical-basis exponent out of range")
    first = np.ones(len(w), dtype=bool)  # the lowest term of each p_{y,w}
    first[1:] = (w[1:] != w[:-1]) | (y[1:] != y[:-1])
    if (e[first] != 0).any() or (val[first] != 1).any():
        raise AssertionError("KL polynomial without constant term 1")
    last = np.roll(first, -1)
    if (e[last] > np.maximum(gap[last] - 1, 0)).any():
        raise AssertionError("KL degree bound violated")
    coeffs = np.zeros((int(first.sum()), int(e.max()) // 2 + 1), dtype=np.int64)
    coeffs[np.cumsum(first) - 1, e // 2] = val

    p_terms = (w[first], y[first], e[last] // 2, coeffs)
    return KLData(group=g, cs=cs, desc=desc, p_terms=p_terms)


# ---------------------------------------------------------------------------
# Structure constants: the c-basis induction on nonnegative degrees
# ---------------------------------------------------------------------------

_Gather = tuple[np.ndarray, np.ndarray, np.ndarray]


def _gather_tables(cs: np.ndarray, desc: np.ndarray) -> list[_Gather]:
    """Per generator s, ``cs[s - 1]`` as a row gather (rows, src, val).

    The rows are those of whatever basis ``cs`` is given on: the whole group
    for ``tests/klref.py``, the structure-constant pairs for
    :func:`_compute_top`.  ``rows`` are the z with sz < z (``desc[s - 1]``),
    the only rows c_s reaches.  Row z gets (v + v^-1) times itself plus
    ``val[r, k]`` times row ``src[r, k]``: the integer entries of row z,
    padded with zero weights to a common width.
    """
    out = []
    for op, down in zip(cs, desc):
        rows = np.flatnonzero(down)
        flat = op[rows]
        width = int((flat != 0).sum(axis=1).max())
        # a copy, so the whole argsort is not kept alive by a view of it
        src = np.argsort(flat == 0, axis=1, kind="stable")[:, :width].copy()
        out.append((rows, src, np.take_along_axis(flat, src, axis=1)))
    return out


def _cs_apply(tab: tuple, A: np.ndarray) -> np.ndarray:
    """Coefficient vectors of c_s * (sum_w A[w] c_w) in the c-basis, for
    bar-invariant data of one degree parity per row: slot j of row z of
    ``A`` is v^(2j + sigma) and of the result v^(2j + 1 - sigma).  Row
    ``rows[r]``, with sz < z, gets ``val[r, k]`` times row ``src[r, k]``
    slot by slot, and (v + v^-1) times itself: in slot j, its own slot j
    plus the slot at ``twin[r, j]``, a flat index into the rows padded with
    a zero slot.  Where the result has even degrees that is slot j - 1, and
    at j = 0 slot 0 again, degree 1, the mirror of degree -1; where it has
    odd degrees it is slot j + 1."""
    rows, src, val, twin = tab
    own = A[rows]
    pad = np.zeros((len(rows), A.shape[1] + 1), dtype=np.int64)
    pad[:, :-1] = own
    out = np.zeros_like(A)
    out[rows] = np.einsum("rk,rkj->rj", val, A[src]) + own + pad.ravel()[twin]
    return out


def _star_links(g: WeylGroup, cs: np.ndarray, desc: np.ndarray, left_cells: Cells) -> np.ndarray:
    """``rep[w]``: the element that w stands for in the representative of
    its class of left cells linked by right star operations (w itself in a
    representative).

    For s, t with m_st = 3, w* is whichever of ws, wt has exactly one of s, t
    in its right descent set; in type A it maps each left cell onto one with
    the same W-graph (Kazhdan and Lusztig 1979, section 4).  That only
    proposes a link: it is kept when the image of a cell is a whole left cell
    on which the block of ``cs`` and the left descents ``desc`` equal the
    representative's, since the pass on a cell reads only those and the mu
    columns of ``cs``.  A cell that no link has reached, visited in order,
    becomes a representative, and the links are followed from it breadth first.
    """
    cart = g.type.cartan_matrix()
    rdesc = g.length[g.rmul] < g.length[:, None]  # (n, rank)
    stars = []
    for s, t in combinations(range(g.rank), 2):
        if cart[s][t] * cart[t][s] == 1:
            ws, wt = g.rmul[:, s], g.rmul[:, t]
            one = rdesc[:, s] != rdesc[:, t]
            stars.append(np.where(one, np.where(one[ws], ws, wt), -1))
    cell_of = _labels(g.size, left_cells)
    rep = np.full(g.size, -1)
    for cell in left_cells:
        if rep[cell[0]] >= 0:
            continue
        block, down = cs[:, cell][:, :, cell], desc[:, cell]
        rep[list(cell)] = cell
        queue = [np.array(cell)]  # members in the order of the representative's
        for members in queue:
            for star in stars:
                img = star[members]
                if (img < 0).any() or rep[img[0]] >= 0:
                    continue
                if (np.array_equal(np.sort(img), left_cells[cell_of[img[0]]])
                        and np.array_equal(cs[:, img][:, :, img], block)
                        and np.array_equal(desc[:, img], down)):
                    rep[img] = cell
                    queue.append(img)
    return rep


def _compute_top(
    g: WeylGroup, cs: np.ndarray, desc: np.ndarray, left_cells: Cells
) -> tuple[tuple[int, ...], GammaEntries]:
    """a per element and the nonzero gamma entries, from one pass over the
    pairs (z, y) with z ~_L y in representative cells (``_star_links``):
    the state ``big[x, p, j]`` of pair p = (z, y) is the coefficient of
    v^(2j + sigma) in h_{x,y,z}, the coefficient of c_z in c_x c_y on the
    cell module of y, where sigma = (l(x) + l(y) + l(z)) mod 2, for degrees
    0..off.  That is all of h, which is bar-invariant and lives in degrees
    of parity sigma (see the module docstring); the top slot, where it
    stands for degree off or off + 1, is the guard, whose mirror is the
    guard -off of the full window.  A linked cell reads a and gamma through
    the relabelling: h_{x,y,z} = h_{x,rep y,rep z}."""
    n = g.size
    off = window_offset(g.nu)
    rep = _star_links(g, cs, desc, left_cells)
    cell_of = _labels(n, left_cells)
    z, y = np.nonzero(cell_of[:, None] == cell_of)  # every pair, in order of (z, y)
    own = rep[y] == y  # the pairs of representative cells
    zr, yr = z[own], y[own]
    pair = np.full((n, n), -1)
    pair[zr, yr] = np.arange(len(zr))
    par = g.length % 2
    sig = (par[zr] + par[yr]) % 2  # sigma of each pair where l(x) is even, 1 - sig where odd
    top = off // 2
    j = np.arange(top + 1)
    twins = np.array([np.maximum(j - 1, 0), j + 1])  # the twin slots of _cs_apply, by sigma
    same = yr[:, None] == yr
    tabs = []  # c_s on the pairs: row (z, y) reads the rows (z', y) with z' ~_L y
    for rows, src, val in _gather_tables((op[zr][:, zr] * same for op in cs), desc[:, zr]):
        flat, sigma = np.arange(len(rows))[:, None] * (top + 2), sig[rows]
        tabs.append([(rows, src, val, flat + twins[q]) for q in (sigma, 1 - sigma)])  # by l(x) % 2
    big = np.zeros((n, len(zr), top + 1), dtype=np.int64)
    big[0, zr == yr, 0] = 1  # c_e c_y = c_y
    for x in range(1, n):
        _induction_step(g, cs, big, lambda s, x, A: _cs_apply(tabs[s - 1][par[x]], A), x)
    # the highest degree occupied in some h_{x,y,z} per pair, over the x of
    # each length parity q; the highest per z is a(z)
    nz = big != 0
    high = np.max([(nz[par == q].any(axis=0) * (2 * j + (sig[:, None] + q) % 2)).max(axis=1)
                   for q in (0, 1)], axis=0)
    del nz
    if high.max() >= off:
        raise AssertionError("structure-constant exponent window exceeded")
    check_magnitude(int(max(big.max(), -big.min())), "structure-constant")
    a = np.zeros(n, dtype=np.int64)
    np.maximum.at(a, zr, high)
    a = a[rep]
    # v^a(z) is slot a(z) // 2 where l(x) + l(y) + l(z) = a(z) mod 2, and
    # absent from h_{x,y,z} elsewhere; its coefficients are gamma
    lead = big[:, np.arange(len(zr)), a[zr] // 2]  # (x, representative pair)
    del big
    x, q = np.nonzero(lead)
    keep = par[x] == (sig[q] + a[zr[q]]) % 2  # where that slot is v^a(z)
    x, q = x[keep], q[keep]
    c = lead[x, q]
    # each gamma entry (x, q) stands for every pair p whose representative
    # pair is q: those p are a run of the pairs sorted by representative pair
    of = pair[rep[z], rep[y]]
    by = np.argsort(of)
    count = np.bincount(of, minlength=len(zr))
    run = count[q]
    first = np.cumsum(count) - count
    p = by[np.repeat(first[q] - (np.cumsum(run) - run), run) + np.arange(run.sum())]
    x, c = np.repeat(x, run), np.repeat(c, run)
    order = np.lexsort((z[p], y[p], x))
    if a[0] != 0:
        raise AssertionError("a(e) != 0: basis convention broken")
    if a[n - 1] != g.nu:
        raise AssertionError("a(w0) != nu: basis convention broken")
    if not np.array_equal(a, a[g.inv]):
        raise AssertionError("a-function not inversion-invariant")
    return tuple(int(v) for v in a), (x[order], y[p][order], z[p][order], c[order])

# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CellPartition:
    """Left, right and two-sided cells as sorted index tuples listed by least
    member; ``a_value[k]`` is the a-value of ``two_sided_cells[k]``."""

    group: WeylGroup
    left_cells: Cells
    right_cells: Cells
    two_sided_cells: Cells
    a_value: tuple[int, ...]


def _closure(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of the boolean adjacency matrix ``adj``
    (Warshall: after step k, paths through 0..k)."""
    reach = adj | np.eye(len(adj), dtype=bool)
    for k in range(len(adj)):
        reach |= reach[:, k, None] & reach[k]
    return reach


def _labels(n: int, cells: Cells) -> np.ndarray:
    """``k`` at each member of ``cells[k]``, an int64 array of length n."""
    out = np.zeros(n, dtype=np.int64)
    for k, cell in enumerate(cells):
        out[list(cell)] = k
    return out


def _sccs(adj: np.ndarray) -> Cells:
    """Strong components of the graph with boolean adjacency matrix ``adj``,
    each sorted, listed by least member."""
    reach = _closure(adj)
    mutual = reach & reach.T
    return tuple(sorted({tuple(np.flatnonzero(row).tolist()) for row in mutual}))


def compute_cells(kl: KLData) -> CellPartition:
    """Cells from the preorder closures, the left cells those of ``kl``;
    validates the a-function is constant on each two-sided cell.

    The right preorder is the left one mirrored through inversion, so the
    right cells are the inverted left cells, listed as ``_sccs`` lists them.
    """
    g = kl.group
    inv = g.inv
    # left[z, y]: c_z occurs in some c_s c_y; left[np.ix_(inv, inv)] is the right graph
    left = kl.cs.any(axis=0)
    two_sided = _sccs(left | left[np.ix_(inv, inv)])
    a = kl.a_values
    if any(len({a[i] for i in tc}) != 1 for tc in two_sided):
        raise AssertionError("a-function not constant on a two-sided cell")
    return CellPartition(
        group=g,
        left_cells=kl.left_cells,
        right_cells=tuple(sorted(tuple(sorted(inv[list(c)].tolist())) for c in kl.left_cells)),
        two_sided_cells=two_sided,
        a_value=tuple(a[tc[0]] for tc in two_sided),
    )


def near_involutions(cells: CellPartition) -> frozenset[int]:
    """Elements lying in the same left cell as their inverse."""
    inv = cells.group.inv
    return frozenset(i for c in cells.left_cells for i in c if inv[i] in c)


# ---------------------------------------------------------------------------
# The asymptotic ring
# ---------------------------------------------------------------------------

def j_ring(kl: KLData, cells: CellPartition) -> GammaEntries:
    """The nonzero constants of the asymptotic ring t_x t_y = sum_z
    gamma[x,y,z] t_z, once their support and associativity are verified.

    Support is checked first: gamma vanishes unless x, y, z share a
    two-sided cell and an a-value.  The pass that found the entries pairs
    only y ~_L z, so y and z share both by construction; the checks stay for
    x, which the pass does not restrict, and for entries that did not come
    from the pass.  Associativity is checked exactly, in Python ints, by
    joining the entries with themselves: each entry (x, y, w, c) meets the
    entries (w, u, z, d) in (t_x t_y) t_u and the entries (x', w, z, d) in
    t_x' (t_x t_y), and the two sides must agree on every (x, y, u, z).
    """
    g = kl.group
    xs, ys, zs, _ = gamma = kl._top[1]
    cell_id = _labels(g.size, cells.two_sided_cells)
    if not (np.array_equal(cell_id[xs], cell_id[ys])
            and np.array_equal(cell_id[xs], cell_id[zs])):
        raise AssociativityFailure("gamma supported outside two-sided cells")
    a = np.array(kl.a_values)
    if not (np.array_equal(a[xs], a[ys]) and np.array_equal(a[xs], a[zs])):
        raise AssociativityFailure("gamma support mixes a-values")

    rows = list(zip(*(v.tolist() for v in gamma)))
    by_first, by_second = defaultdict(list), defaultdict(list)
    for row in rows:
        by_first[row[0]].append(row)
        by_second[row[1]].append(row)
    diff = defaultdict(int)  # (x, y, u, z): (t_x t_y) t_u - t_x (t_y t_u) at t_z
    for x, y, w, c in rows:
        for _, u, z, d in by_first[w]:
            diff[x, y, u, z] += c * d
        for x2, _, z, d in by_second[w]:
            diff[x2, x, y, z] -= c * d
    bad = min((key for key, value in diff.items() if value), default=None)
    if bad is not None:
        first = cells.two_sided_cells[cell_id[bad[0]]][0]
        raise AssociativityFailure(f"associativity fails on the cell of {g.word(first)}")
    return gamma


def is_central(g: WeylGroup, gamma: GammaEntries, z: Mapping[int, int]) -> bool:
    """Whether sum_w z[w] t_w commutes with every basis element of the
    asymptotic ring whose constants :func:`j_ring` returned as ``gamma``."""
    xs, ys, ws, vals = gamma
    ids = list(z)
    near = vals[np.isin(xs, ids) | np.isin(ys, ids)]  # the entries of z t_u and t_u z
    check_magnitude(sum(map(abs, z.values())) * int(np.abs(near).max(initial=0)), "centrality")
    zv = np.zeros(g.size, dtype=np.int64)
    zv[ids] = list(z.values())
    diff = np.zeros((g.size, g.size), dtype=np.int64)  # (u, w): z t_u - t_u z
    np.add.at(diff, (ys, ws), zv[xs] * vals)
    np.subtract.at(diff, (xs, ws), zv[ys] * vals)
    return not diff.any()
