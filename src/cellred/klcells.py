"""Canonical-basis combinatorics of the Hecke algebra.

Everything here lives over Z[v, v^-1] with u = v^2.  The normalised standard
basis Tt_w = v^(-l(w)) T_w satisfies

    Tt_s Tt_w = Tt_{sw}                      if l(sw) > l(w),
    Tt_s Tt_w = Tt_{sw} + (v - v^-1) Tt_w    if l(sw) < l(w),

and the canonical basis is c_w = sum_y p_{y,w} Tt_y with
p_{y,w} = v^(l(y)-l(w)) P_{y,w}(v^2).  The c_w are built by induction on
length through

    c_{sw} = c_s c_w - sum_{z < w, sz < z} mu(z, w) c_z      (sw > w),

where mu(z, w) is the coefficient of v^-1 in p_{z,w}.  This yields the
classical P_{y,w} and mu values without a separate recursion.

Structure constants h_{x,y,z} (c_x c_y = sum_z h_{x,y,z} c_z) are computed
for all triples by running the same induction on the c-basis expansion of
c_x c_y.  Both inductions run on the Laurent arrays of :mod:`cellred.poly`,
one (n, n, D) int64 array per pass, under its window and magnitude guards.
From the h's:

* a(z) = max over x, y of deg_v h_{x,y,z};
* gamma[x,y,z] = coefficient of v^a(z) in h_{x,y,z}, the structure constants
  of the asymptotic ring, with product t_x t_y = sum_z gamma[x,y,z] t_z.

Cells are the strong components of the preorder generated by appearance of
c_z in c_s c_y (left) and its mirror through inversion (right); this uses
the full closure rather than mu-graphs alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .coxeter import WeylElt, WeylGroup
from .poly import LaurentPoly, check_magnitude, check_window, window_offset


class GroupTooLarge(ValueError):
    """Group order exceeds the configured bound for the canonical-basis pass."""


class AssociativityFailure(AssertionError):
    """The computed asymptotic-ring constants are not associative.

    This signals a convention bug in the basis or gamma extraction, never bad
    user input.
    """


# ---------------------------------------------------------------------------
# KL data
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class KLData:
    """Canonical-basis data for one Weyl group.

    ``P`` maps (y, w) with y <= w to the coefficient tuple of P_{y,w} in q;
    ``mu`` maps (y, w) to the nonzero mu values; ``a_values`` holds a(z) per
    element index.  Structure constants are recomputed on request by
    :meth:`h_row`.
    """

    group: WeylGroup
    P: dict[tuple[WeylElt, WeylElt], tuple[int, ...]]
    mu: dict[tuple[WeylElt, WeylElt], int]
    a_values: tuple[int, ...]
    _gamma: np.ndarray = field(repr=False)
    _mu_of: list[dict[int, int]] = field(repr=False)
    _tabs: list["_GenTables"] = field(repr=False)

    def a_of(self, w: WeylElt) -> int:
        return self.a_values[self.group.index(w)]

    def gamma_tensor(self) -> np.ndarray:
        """Dense integer gamma[x, y, z] over element indices."""
        return self._gamma

    def h_row(self, x: WeylElt, y: WeylElt) -> dict[WeylElt, LaurentPoly]:
        """The nonzero h_{x,y,z}, keyed by z; one structure-constant pass."""
        g = self.group
        row = _h_pass(g, self._tabs, self._mu_of, g.index(y))[g.index(x)]
        off = window_offset(g.nu)
        return {
            g.element(int(z)): LaurentPoly.from_array(row[z], off)
            for z in np.nonzero(row.any(axis=1))[0]
        }


def _induction_step(
    g: WeylGroup,
    desc: Sequence[np.ndarray],
    mu_of: list[dict[int, int]],
    big: np.ndarray,
    apply: Callable[[int, np.ndarray], np.ndarray],
    x: int,
) -> None:
    """Set ``big[x]`` to c_x times ``big[0]`` from rows of shorter elements.

    With s the first letter of x, c_x = c_s c_{sx} - sum_z mu(z, sx) c_z over
    z with sz < z; ``apply(s, row)`` multiplies one row by c_s, and
    ``desc[s - 1][z]`` tells whether sz < z.
    """
    s = g.element(x).word[0]
    xp = g.lmul_index(x, s)
    row = apply(s, big[xp])
    for z, m in mu_of[xp].items():
        if desc[s - 1][z]:
            row -= m * big[z]
    big[x] = row


def compute_kl(g: WeylGroup, bound: int = 120) -> KLData:
    """Run the canonical-basis induction for the whole group."""
    if g.size > bound:
        raise GroupTooLarge(f"|W| = {g.size} exceeds bound {bound}")
    n = g.size
    off = window_offset(g.nu)
    lengths = np.array([g.length_of_index(i) for i in range(n)])
    lm = np.array(
        [[g.lmul_index(w, s) for w in range(n)] for s in range(1, g.rank + 1)]
    )
    desc = lengths[lm] < lengths

    def tt_apply(s: int, A: np.ndarray) -> np.ndarray:
        # c_s = Tt_s + v^-1 on the Tt basis
        d = desc[s - 1]
        out = A[lm[s - 1]]
        out[d, 1:] += A[d, :-1]
        out[~d, :-1] += A[~d, 1:]
        return out

    # cb[w, y] holds p_{y,w}, the coefficient of Tt_y in c_w
    cb = np.zeros((n, n, 2 * off + 1), dtype=np.int64)
    cb[0, 0, off] = 1
    mu_of: list[dict[int, int]] = [dict() for _ in range(n)]
    for x in range(1, n):
        _induction_step(g, desc, mu_of, cb, tt_apply, x)
        col = cb[x, :, off - 1]
        mu_of[x] = {int(y): int(col[y]) for y in np.nonzero(col)[0]}
    check_window(cb, "canonical-basis")
    check_magnitude(int(np.abs(cb).max()), "canonical-basis")

    P: dict[tuple[WeylElt, WeylElt], tuple[int, ...]] = {}
    mu: dict[tuple[WeylElt, WeylElt], int] = {}
    for w in range(n):
        ew = g.element(w)
        for y in np.nonzero(cb[w].any(axis=1))[0]:
            f = cb[w, y]
            gap = int(lengths[w] - lengths[y])
            q0 = off - gap  # slot of q^0 = v^(-gap)
            if f[:q0].any() or f[q0 + 1::2].any():
                raise AssertionError("canonical-basis exponent out of range")
            coeffs = [int(c) for c in f[q0::2]]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if coeffs[0] != 1:
                raise AssertionError("KL polynomial without constant term 1")
            if 2 * (len(coeffs) - 1) > max(gap - 1, 0):
                raise AssertionError("KL degree bound violated")
            P[(g.element(int(y)), ew)] = tuple(coeffs)
        for z, m in mu_of[w].items():
            mu[(g.element(z), ew)] = m

    tabs = _gen_tables(lm, desc, mu_of)
    a, gamma = _compute_top(g, tabs, mu_of)
    return KLData(
        group=g, P=P, mu=mu, a_values=a, _gamma=gamma, _mu_of=mu_of, _tabs=tabs,
    )


# ---------------------------------------------------------------------------
# Structure constants: the c-basis induction over a fixed exponent window
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class _GenTables:
    desc: np.ndarray            # bool (n,): s w < w
    asc_src: np.ndarray
    asc_dst: np.ndarray
    mu_z: np.ndarray
    mu_w: np.ndarray
    mu_val: np.ndarray


def _gen_tables(
    lm: np.ndarray, desc: np.ndarray, mu_of: list[dict[int, int]]
) -> list[_GenTables]:
    out = []
    for lm_s, d in zip(lm, desc):
        asc_src = np.nonzero(~d)[0]
        mu_z, mu_w, mu_val = [], [], []
        for w in asc_src:
            for z, m in mu_of[int(w)].items():
                if d[z]:
                    mu_z.append(z)
                    mu_w.append(int(w))
                    mu_val.append(m)
        out.append(_GenTables(
            desc=d,
            asc_src=asc_src,
            asc_dst=lm_s[asc_src],
            mu_z=np.array(mu_z, dtype=np.int64),
            mu_w=np.array(mu_w, dtype=np.int64),
            mu_val=np.array(mu_val, dtype=np.int64),
        ))
    return out


def _cs_apply(tab: _GenTables, A: np.ndarray) -> np.ndarray:
    """Coefficient vector of c_s * (sum_w A[w] c_w) in the c-basis."""
    out = np.zeros_like(A)
    d = tab.desc
    # descent rows pick up (v + v^-1)
    out[d, 1:] += A[d, :-1]
    out[d, :-1] += A[d, 1:]
    # ascent rows move to s*w ...
    out[tab.asc_dst] += A[tab.asc_src]
    # ... and feed mu-indexed descents
    if tab.mu_z.size:
        np.add.at(out, tab.mu_z, tab.mu_val[:, None] * A[tab.mu_w])
    return out


def _h_pass(
    g: WeylGroup, tabs: list[_GenTables], mu_of: list[dict[int, int]], yi: int
) -> np.ndarray:
    """h_{x, y, z} for fixed y, all x and z, as an (n, n, D) Laurent array."""
    n = g.size
    off = window_offset(g.nu)
    desc = [t.desc for t in tabs]
    big = np.zeros((n, n, 2 * off + 1), dtype=np.int64)
    big[0, yi, off] = 1

    def cs_apply(s: int, A: np.ndarray) -> np.ndarray:
        return _cs_apply(tabs[s - 1], A)

    for x in range(1, n):
        _induction_step(g, desc, mu_of, big, cs_apply, x)
    check_window(big, "structure-constant")
    check_magnitude(int(np.abs(big).max()), "structure-constant")
    return big


def _compute_top(
    g: WeylGroup, tabs: list[_GenTables], mu_of: list[dict[int, int]]
) -> tuple[tuple[int, ...], np.ndarray]:
    """a per element and the dense gamma tensor, in one pass over y.

    ``top[z]`` is the window slot of the highest exponent seen so far at z;
    when a later y raises it, the gamma entries of earlier y at z (taken at
    a lower exponent) are reset to zero.
    """
    n = g.size
    off = window_offset(g.nu)
    zs = np.arange(n)
    slots = np.arange(2 * off + 1)
    top = np.zeros(n, dtype=np.int64)  # slot 0 is the zero guard slot
    gamma = np.zeros((n, n, n), dtype=np.int64)
    for yi in range(n):
        big = _h_pass(g, tabs, mu_of, yi)
        # highest slot occupied in some h_{x,y,z}, per z
        deg = (big.any(axis=0) * slots).max(axis=1)
        raised = deg > top
        if raised.any():
            gamma[:, :yi, raised] = 0
            top = np.maximum(top, deg)
        gamma[:, yi, :] = big[:, zs, top]

    a = top - off
    if a[0] != 0:
        raise AssertionError("a(e) != 0: basis convention broken")
    if a[n - 1] != g.nu:
        raise AssertionError("a(w0) != nu: basis convention broken")
    inv = np.array([g.inv_index(i) for i in range(n)])
    if not np.array_equal(a, a[inv]):
        raise AssertionError("a-function not inversion-invariant")
    return tuple(int(x) for x in a), gamma

# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class CellPartition:
    """Left/right/two-sided cells with the a-value per two-sided cell."""

    group: WeylGroup
    left_cells: tuple[frozenset[WeylElt], ...]
    right_cells: tuple[frozenset[WeylElt], ...]
    two_sided_cells: tuple[frozenset[WeylElt], ...]
    a_value: dict[frozenset[WeylElt], int]

    def two_sided_cell_of(self, w: WeylElt) -> frozenset[WeylElt]:
        for c in self.two_sided_cells:
            if w in c:
                return c
        raise KeyError(w)

    def a_of(self, w: WeylElt) -> int:
        return self.a_value[self.two_sided_cell_of(w)]


@dataclass(frozen=True)
class NearInvolutionSet:
    """Elements lying in the same left cell as their inverse."""

    members: frozenset[WeylElt]

    def __contains__(self, w: WeylElt) -> bool:
        return w in self.members

    def __len__(self) -> int:
        return len(self.members)


def _left_edges(kl: KLData) -> list[set[int]]:
    g = kl.group
    n = g.size
    lengths = [g.length_of_index(i) for i in range(n)]
    edges: list[set[int]] = [set() for _ in range(n)]
    for y in range(n):
        for s in range(1, g.rank + 1):
            sy = g.lmul_index(y, s)
            if lengths[sy] > lengths[y]:
                edges[y].add(sy)
                for z, m in kl._mu_of[y].items():
                    if lengths[g.lmul_index(z, s)] < lengths[z]:
                        edges[y].add(z)
    return edges


def _sccs(edges: list[set[int]]) -> list[list[int]]:
    # Kosaraju; graphs have at most 120 nodes.
    n = len(edges)
    order: list[int] = []
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        stack = [(start, iter(edges[start]))]
        seen[start] = True
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, iter(edges[nxt])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    redges: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in edges[u]:
            redges[v].add(u)
    comp = [-1] * n
    ncomp = 0
    for start in reversed(order):
        if comp[start] != -1:
            continue
        stack = [start]
        comp[start] = ncomp
        while stack:
            u = stack.pop()
            for v in redges[u]:
                if comp[v] == -1:
                    comp[v] = ncomp
                    stack.append(v)
        ncomp += 1
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(comp):
        groups.setdefault(c, []).append(i)
    return [sorted(m) for m in sorted(groups.values(), key=min)]


def compute_cells(kl: KLData) -> CellPartition:
    """Cells from the full preorder closure; validates the a-function is
    constant on each two-sided cell."""
    g = kl.group
    n = g.size
    left = _left_edges(kl)
    right: list[set[int]] = [set() for _ in range(n)]
    for y in range(n):
        yi = g.inv_index(y)
        for z in left[yi]:
            right[y].add(g.inv_index(z))
    both = [left[i] | right[i] for i in range(n)]

    def to_sets(comps: list[list[int]]) -> tuple[frozenset[WeylElt], ...]:
        return tuple(frozenset(g.element(i) for i in comp) for comp in comps)

    left_cells = to_sets(_sccs(left))
    right_cells = to_sets(_sccs(right))
    two_sided = to_sets(_sccs(both))

    inv_left = {frozenset(g.inverse(w) for w in c) for c in left_cells}
    if inv_left != set(right_cells):
        raise AssertionError("right cells are not the inverses of left cells")
    for lc in left_cells:
        if not any(lc <= tc for tc in two_sided):
            raise AssertionError("a left cell crosses two-sided cells")

    a = kl.a_values
    a_value = {}
    for tc in two_sided:
        vals = {a[g.index(w)] for w in tc}
        if len(vals) != 1:
            raise AssertionError("a-function not constant on a two-sided cell")
        a_value[tc] = vals.pop()
    return CellPartition(
        group=g,
        left_cells=left_cells,
        right_cells=right_cells,
        two_sided_cells=two_sided,
        a_value=a_value,
    )


def near_involutions(cells: CellPartition) -> NearInvolutionSet:
    g = cells.group
    members = set()
    for c in cells.left_cells:
        for w in c:
            if g.inverse(w) in c:
                members.add(w)
    return NearInvolutionSet(frozenset(members))


# ---------------------------------------------------------------------------
# The asymptotic ring
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class JRing:
    """Ring on basis {t_w : w in W} with t_x t_y = sum_z gamma[x,y,z] t_z."""

    group: WeylGroup
    gamma: np.ndarray

    def product(self, x: WeylElt, y: WeylElt) -> dict[WeylElt, int]:
        g = self.group
        row = self.gamma[g.index(x), g.index(y)]
        return {g.element(z): int(c) for z, c in enumerate(row) if c}


def j_ring(kl: KLData, cells: CellPartition | None = None) -> JRing:
    """Build the asymptotic ring; verifies gamma support and associativity.

    Support is checked first (gamma vanishes unless x, y, z share a two-sided
    cell), which makes the exhaustive associativity check decompose into
    blocks, one per two-sided cell.
    """
    g = kl.group
    gamma = kl.gamma_tensor()
    if cells is None:
        cells = compute_cells(kl)

    cell_id = np.zeros(g.size, dtype=np.int64)
    for k, tc in enumerate(cells.two_sided_cells):
        for w in tc:
            cell_id[g.index(w)] = k
    xs, ys, zs = np.nonzero(gamma)
    if not (np.array_equal(cell_id[xs], cell_id[ys])
            and np.array_equal(cell_id[xs], cell_id[zs])):
        raise AssociativityFailure("gamma supported outside two-sided cells")
    a = np.array(kl.a_values)
    if not (np.array_equal(a[xs], a[ys]) and np.array_equal(a[xs], a[zs])):
        raise AssociativityFailure("gamma support mixes a-values")

    gmax = int(np.abs(gamma).max()) if gamma.size else 0
    for tc in cells.two_sided_cells:
        idx = sorted(g.index(w) for w in tc)
        # float64 BLAS is exact below the guard and much faster than int64
        check_magnitude(len(idx) * max(gmax, 1) ** 2, "gamma")
        sub = gamma[np.ix_(idx, idx, idx)].astype(np.float64)
        lhs = np.tensordot(sub, sub, axes=(2, 0))
        rhs = np.tensordot(sub, sub, axes=(2, 1)).transpose(2, 0, 1, 3)
        if not np.array_equal(lhs, rhs):
            raise AssociativityFailure(
                f"associativity fails on the cell of {min(tc, key=g.index)}"
            )
    return JRing(group=g, gamma=gamma)


def is_central(j: JRing, z: Mapping[WeylElt, int]) -> bool:
    """Whether sum_w z[w] t_w commutes with every basis element."""
    g = j.group
    ys = [g.index(w) for w in z]
    rows, cols = j.gamma[ys], j.gamma[:, ys]
    gmax = max(int(np.abs(rows).max(initial=0)), int(np.abs(cols).max(initial=0)))
    check_magnitude(sum(abs(c) for c in z.values()) * gmax, "centrality")
    zv = np.array([z[w] for w in z], dtype=np.int64)
    left = np.einsum("y,yxw->xw", zv, rows)
    right = np.einsum("y,xyw->xw", zv, cols)
    return bool(np.array_equal(left, right))
