"""Characters of W, Hecke modules E(u), and leading trace coefficients.

For each irreducible W-module E we realise a Hecke module E(u) over
Z[v, v^-1] (u = v^2, quadratic relation (T_s - u)(T_s + 1) = 0):

* type A: the left-cell modules of the canonical basis, one cell per
  two-sided cell; these are irreducible in type A, and the action of c_s is
  the slice ``kl.cs[:, cell][:, :, cell]`` of the W-graph operator that
  :func:`cellred.klcells.compute_kl` builds, plus (v + v^-1) on the diagonal
  at the left descents (``KLData.tt_generators`` forms Tt_s = c_s - v^-1);
* dihedral B2/G2: the four one-dimensional modules and explicit 2x2
  deformations of the rotation representations.

Modules are held as Laurent arrays (see :mod:`cellred.poly`) of the
normalised generators Tt_s = v^-1 T_s.  The traces of all Tt_w are computed
once, and the products they start from verify the module against the
quadratic and braid relations; their v = 1 values are matched against the
ordinary character table, which is itself built from scratch
(Murnaghan-Nakayama over cycle types for the symmetric groups, closed
dihedral forms for B2/G2, with row orthogonality checked).

One pass forms Tt_x for every x up to a length ``top``, along every
reduced-word step, so the products check the braid relations (Matsumoto's
theorem), and the trace of each is read off its product.  Beyond ``top``
the traces follow Geck and Pfeiffer (*Characters of Finite Coxeter Groups
and Iwahori-Hecke Algebras*, 2000, section 8.2).  A cyclic shift
w -> sws with l(sws) = l(w) keeps tr(Tt_w), as tr(AB) = tr(BA), and since
Tt_s^2 = (v - v^-1) Tt_s + 1,

    tr(Tt_w) = (v - v^-1) tr(Tt_{sw}) + tr(Tt_{sws})   when l(sws) = l(w) - 2.

``top`` is at least the length of every cyclic-shift class that no s
shortens, so the recursion fills in every length beyond it, one at a time.
The group data of the recursion (:class:`TracePlan`) is built once per
:func:`build_hecke_modules` call.

The leading data extracts, per module, the unique a_E >= 0 such that
v^(-l(w)) tr(T_w, E(u)) has valuation >= -a_E for all w, together with the
integers c_{w,E} reading off the coefficient of v^(-a_E) (sign (-1)^l(w)
stripped), and the virtual characters alpha_w = sum_E c_{w,E} E.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coxeter import WeylGroup
from .klcells import Cells, KLData, CellPartition
from .poly import check_magnitude, check_window, window_offset


class ConstructionIncomplete(AssertionError):
    """A Hecke module could not be matched to an irreducible W-character."""


class LeadingTermMismatch(AssertionError):
    """Trace valuations are inconsistent with a single a_E."""


# ---------------------------------------------------------------------------
# Conjugacy classes and the character table of W
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class WCharTable:
    """Integer character table with stable row labels.

    ``classes`` are the conjugacy classes as sorted index tuples, listed by
    least member: the orbits of the moves w -> s_i w s_i.  Rows are indexed
    by ``labels``; ``values[r][c]`` is the character of row r at class c.
    The first row is always the trivial character.
    """

    group: WeylGroup
    classes: Cells
    labels: tuple[str, ...]
    values: tuple[tuple[int, ...], ...]

    @property
    def sign_label(self) -> str:
        signs = tuple((-1) ** int(self.group.length[c[0]]) for c in self.classes)
        for lab, row in zip(self.labels, self.values):
            if row == signs:
                return lab
        raise AssertionError("no sign character found")


def _orbits(conj: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The least member of each element's orbit under the moves
    w -> ``conj[w, i]`` where ``keep[w, i]``; both moves of a pair must be
    kept or dropped together.  Breadth first: each pass lowers every label
    to the least label one move away."""
    label = np.arange(len(conj))
    while True:
        near = np.minimum(label, np.where(keep, label[conj], label[:, None]).min(axis=1))
        if np.array_equal(near, label):
            return label
        label = near


def _conjugacy_classes(conj: np.ndarray) -> Cells:
    """The classes, listed by least member: the orbits of w -> s_i w s_i."""
    label = _orbits(conj, np.ones(conj.shape, dtype=bool))
    least = np.flatnonzero(label == np.arange(len(label)))
    return tuple(tuple(np.flatnonzero(label == c).tolist()) for c in least)


# -- symmetric groups: Murnaghan-Nakayama over cycle types

def _perm_of(g: WeylGroup, w: int) -> tuple[int, ...]:
    n = g.rank + 1
    perm = list(range(n))
    for i in g.words[w]:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    n = len(perm)
    seen = [False] * n
    lens = []
    for i in range(n):
        if seen[i]:
            continue
        c = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            c += 1
        lens.append(c)
    return tuple(sorted(lens, reverse=True))


def _partitions(n: int) -> list[tuple[int, ...]]:
    def rec(rem: int, mx: int):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, mx), 0, -1):
            for rest in rec(rem - first, first):
                yield (first,) + rest
    return sorted(rec(n, n), reverse=True)


@lru_cache(maxsize=None)
def _mn_char(lam: tuple[int, ...], alpha: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama via beta-numbers."""
    if not alpha:
        return 1 if not lam else 0
    if sum(lam) != sum(alpha):
        raise ValueError("partition sizes differ")
    k = alpha[0]
    rest = alpha[1:]
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        newlam = tuple(c - (m - 1 - i) for i, c in enumerate(newbeta))
        while newlam and newlam[-1] == 0:
            newlam = newlam[:-1]
        total += (-1) ** height * _mn_char(newlam, rest)
    return total


def _symmetric_rows(g: WeylGroup, classes: Cells):
    types = [_cycle_type(_perm_of(g, c[0])) for c in classes]
    labels = tuple("".join(str(p) for p in lam) for lam in _partitions(g.rank + 1))
    values = tuple(
        tuple(_mn_char(lam, alpha) for alpha in types)
        for lam in _partitions(g.rank + 1)
    )
    return labels, values


# -- dihedral groups B2, G2

_DIHEDRAL_COS = {
    4: {0: 2, 1: 0, 2: -2, 3: 0},
    6: {0: 2, 1: 1, 2: -1, 3: -2, 4: -1, 5: 1},
}


def _dihedral_rows(g: WeylGroup, classes: Cells):
    """Read off each class's canonical word w (Geck and Pfeiffer, ch. 5): a
    linear character is e1^(#1 in w) e2^(#2 in w), well defined as m is
    even, and ``refl_k`` is 2 cos(2 pi k j / m) at the rotation (s1 s2)^j,
    a word of length 2j, and 0 at a reflection, a word of odd length."""
    m = g.nu  # order 2m
    words = [g.words[c[0]] for c in classes]
    labels = ["triv", "sgn1", "sgn2", "sign"]
    rows = [tuple(e1 ** w.count(1) * e2 ** w.count(2) for w in words)
            for e1, e2 in ((1, 1), (-1, 1), (1, -1), (-1, -1))]
    ctab = _DIHEDRAL_COS[m]
    for k in range(1, m // 2):
        labels.append("refl" if k == 1 else f"refl{k}")
        rows.append(tuple(0 if len(w) % 2 else ctab[len(w) // 2 * k % m] for w in words))
    return tuple(labels), tuple(rows)


def w_character_table(g: WeylGroup) -> WCharTable:
    """Complete rational character table with stable labels."""
    classes = _conjugacy_classes(g.lmul[g.rmul, np.arange(g.rank)])  # s_i w s_i
    rows = _symmetric_rows if g.type.family == "A" else _dihedral_rows
    table = WCharTable(g, classes, *rows(g, classes))
    _check_orthogonality(table)
    return table


def _check_orthogonality(table: WCharTable) -> None:
    n = table.group.size
    k = len(table.classes)
    if len(table.labels) != k:
        raise AssertionError("character count differs from class count")
    sizes = [len(c) for c in table.classes]
    for i, ri in enumerate(table.values):
        for j, rj in enumerate(table.values):
            dot = sum(s * a * b for s, a, b in zip(sizes, ri, rj))
            if dot != (n if i == j else 0):
                raise AssertionError("character table fails row orthogonality")
    if any(v != 1 for v in table.values[0]):
        raise AssertionError("first character table row is not trivial")
    table.sign_label  # raises if absent


# ---------------------------------------------------------------------------
# Hecke modules
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class HModule:
    """A Hecke module E(u) and the traces of its standard basis.

    ``gens[s - 1]`` is the matrix of Tt_s = v^-1 T_s, a (dim, dim, 3) Laurent
    array with offset 1.  ``traces[w]`` is tr(Tt_w, E(u)) = v^(-l(w)) tr(T_w),
    a Laurent array with offset ``window_offset(nu)``: read off a matrix
    product up to the ``top`` of a :class:`TracePlan`, the Geck-Pfeiffer
    recursion beyond it.
    """

    label: str
    dim: int
    gens: np.ndarray
    traces: np.ndarray


def _coxeter_m(g: WeylGroup, i: int, j: int) -> int:
    cartan = g.type.cartan_matrix()
    prod = cartan[i - 1][j - 1] * cartan[j - 1][i - 1]
    return {0: 2, 1: 3, 2: 4, 3: 6}[prod]


@dataclass(eq=False)
class TracePlan:
    """The group data of the trace recursion, shared by all modules of a type.

    Tt_x is a matrix product, and its trace read off it, for every x of
    length at most ``top``: the longest cyclic-shift class that no s
    shortens or the longest braid relation m_ij, whichever is longer.  Each
    cyclic-shift class beyond ``top`` has one w chosen, with an s that
    shortens it, and element x has the trace of ``source[x]``: x itself up
    to ``top``, the chosen w of its class beyond.  ``levels`` has one (3, k)
    array per length beyond ``top``, by length: the chosen w of that length
    and the sources of their sw and sws.
    """

    top: int
    levels: tuple[np.ndarray, ...]
    source: np.ndarray


def _trace_plan(g: WeylGroup) -> TracePlan:
    """Cyclic-shift classes and their reductions, from the moves
    w -> s_i w s_i."""
    conj, length = g.lmul[g.rmul, np.arange(g.rank)], g.length
    ids = np.arange(g.size)
    step = length[conj] - length[:, None]  # l(s w s) - l(w): -2, 0 or 2
    shift_class = _orbits(conj, step == 0)
    # per class, by its least member: the least member that some s shortens, or n
    short = step == -2
    shortened = np.flatnonzero(short.any(axis=1))
    chosen = np.full(g.size, g.size)
    np.minimum.at(chosen, shift_class[shortened], shortened)
    chosen = chosen[shift_class]  # per element: the chosen w of its class, or n
    braids = [_coxeter_m(g, i, j) for i in range(1, g.rank) for j in range(i + 1, g.rank + 1)]
    top = max([int(length[chosen == g.size].max())] + braids)
    beyond = length > top
    source = np.where(beyond, chosen, ids)
    w = np.flatnonzero(beyond & (source == ids))  # the chosen w, ascending, so by length
    s = short[w].argmax(axis=1)
    triples = np.stack([w, source[g.lmul[w, s]], source[conj[w, s]]])
    cuts = np.searchsorted(length[w], np.arange(top + 1, g.nu + 2))
    return TracePlan(
        top=top,
        levels=tuple(triples[:, a:b] for a, b in zip(cuts[:-1], cuts[1:])),
        source=source,
    )


def _right_times(mats: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The products mats[k] Tt_{s_k}, where ``mats`` is a (k, width, d, d)
    stack of Laurent matrices by v-degree slot and ``blocks[k]`` is Tt_{s_k}
    as one (d, 3d) block row: its v^-1, v^0 and v^1 parts.  A product keeps
    the window of ``mats``."""
    k, width, d, _ = mats.shape
    # parts[:, j, :, e] is the slot-j part of mats times the v^(e - 1) part of Tt_s
    parts = (mats.reshape(k, width * d, d) @ blocks).reshape(k, width, d, 3, d)
    out = parts[:, :, :, 1].copy()
    out[:, :-1] += parts[:, 1:, :, 0]
    out[:, 1:] += parts[:, :-1, :, 2]
    return out


def _product_traces(g: WeylGroup, gens: np.ndarray, plan: TracePlan) -> np.ndarray:
    """tr(Tt_x), read off Tt_x, for every x of length at most ``plan.top``:
    an (n, D) Laurent array, offset ``window_offset(nu)``, zero beyond.

    One pass forms these Tt_x, one length at a time, as Tt_y Tt_s for every
    pair (y, s) with ys = x and l(y) < l(x), all pairs of one length in one
    batched product.  The products hold v-degrees up to ``plan.top`` only,
    in the window of ``window_offset(plan.top)``.  By Matsumoto's theorem
    the braid relations hold exactly when all products that land on one x
    agree, and the pass reaches every braid relation; it runs after a check
    of the quadratic relation Tt_s^2 = (v - v^-1) Tt_s + 1.  A failure of
    either is :class:`ConstructionIncomplete`."""
    d = gens.shape[1]
    off = window_offset(plan.top)
    eye = np.eye(d, dtype=np.int64)
    blocks = gens.transpose(0, 1, 3, 2).reshape(g.rank, d, 3 * d)
    formed = np.searchsorted(g.length, plan.top, side="right")  # the x with l(x) <= top
    # mats[x, j] is the coefficient of v^(j - off) in Tt_x; x = i is s_i
    mats = np.zeros((formed, 2 * off + 1, d, d), dtype=np.int64)
    mats[0, off] = eye
    # Tt_x for l(x) = k holds degrees -k..k only, so each step works in those slots
    tt = mats[1:g.rank + 1, off - 2:off + 3]
    tt[:, 1:4] = gens.transpose(0, 3, 1, 2)
    want = np.zeros_like(tt)  # (v - v^-1) Tt_s + 1
    want[:, 1:] += tt[:, :-1]
    want[:, :-1] -= tt[:, 1:]
    want[:, 2] += eye
    if not np.array_equal(_right_times(tt, blocks), want):
        raise ConstructionIncomplete("quadratic relation fails")
    x, s = np.nonzero(g.length[g.rmul[:formed]] < g.length[:formed, None])  # l(xs) < l(x)
    cuts = np.searchsorted(g.length[x], np.arange(2, plan.top + 2))
    for k, level in enumerate(map(slice, cuts[:-1], cuts[1:]), start=2):
        band = slice(off - k, off + k + 1)
        products = _right_times(mats[g.rmul[x[level], s[level]], band], blocks[s[level]])
        mats[x[level], band] = products  # keeps one of the products that land on each x
        bad = np.flatnonzero((mats[x[level], band] != products).any(axis=(1, 2, 3)))
        if bad.size:
            raise ConstructionIncomplete(f"braid relation fails at {g.word(x[level][bad[0]])}")
    check_window(mats.transpose(0, 2, 3, 1), "trace")
    check_magnitude(int(np.abs(mats).max()), "trace")
    full = window_offset(g.nu)
    out = np.zeros((g.size, 2 * full + 1), dtype=np.int64)
    out[:formed, full - off:full + off + 1] = mats.trace(axis1=2, axis2=3)
    return out


def _trace_table(g: WeylGroup, gens: np.ndarray, plan: TracePlan) -> np.ndarray:
    """tr(Tt_w) for all w: an (n, D) Laurent array, offset ``window_offset(nu)``,
    read off a matrix product up to ``plan.top`` and by the recursion beyond.

    Raises :class:`ConstructionIncomplete` if the quadratic or a braid
    relation fails (see :func:`_product_traces`)."""
    traces = _product_traces(g, gens, plan)
    for w, sw, sws in plan.levels:
        below = traces[sw]
        step = traces[sws]  # + (v - v^-1) tr(Tt_{sw})
        step[:, 1:] += below[:, :-1]
        step[:, :-1] -= below[:, 1:]
        traces[w] = step
    traces = traces[plan.source]
    check_window(traces, "trace")
    check_magnitude(int(np.abs(traces).max()), "trace")
    return traces


def _match_label(table: WCharTable, traces: np.ndarray) -> str:
    """Identify the v=1 character of a module among the table rows."""
    chi = [int(traces[c[0]].sum()) for c in table.classes]
    for lab, row in zip(table.labels, table.values):
        if tuple(chi) == row:
            return lab
    raise ConstructionIncomplete(
        f"no irreducible W-character matches v=1 trace {chi}"
    )


def _dihedral_gens(g: WeylGroup) -> list[np.ndarray]:
    """Explicit modules for B2/G2, as generator arrays: the four
    one-dimensional modules, then the 2-dimensional deformations.

    Each T_s is given as C + u U with integer matrices (C, U), so that
    Tt_s = v^-1 C + v U.
    """
    def tt(*pairs):
        return np.array(
            [np.stack([c, np.zeros_like(c), u], axis=-1) for c, u in np.array(pairs)],
            dtype=np.int64,
        )

    u, mone = ([[0]], [[1]]), ([[-1]], [[0]])
    out = [tt(u, u), tt(mone, mone), tt(mone, u), tt(u, mone)]
    # 2-dimensional deformations: T1 upper, T2 lower triangular, with
    # T2[1][0] = u * (2 + 2cos(2 pi k / m)), an integer for m = 4, 6.
    m = g.nu
    for k in range(1, m // 2):
        csq = 2 + _DIHEDRAL_COS[m][k % m]
        out.append(tt(
            ([[-1, 1], [0, 0]], [[0, 0], [0, 1]]),    # T1 = ((-1, 1), (0, u))
            ([[0, 0], [0, -1]], [[1, 0], [csq, 0]]),  # T2 = ((u, 0), (csq u, -1))
        ))
    return out


def build_hecke_modules(
    g: WeylGroup, kl: KLData, cells: CellPartition, table: WCharTable
) -> tuple[HModule, ...]:
    """One verified H-module per irreducible W-character of ``table``."""
    if g.type.family == "A":
        candidates = []
        for tc in cells.two_sided_cells:
            idx = next(c for c in cells.left_cells if c[0] in tc)
            # terms of c_s c_w outside the cell lie strictly below it in the
            # left preorder, so the slice is the action on the cell module
            candidates.append(kl.tt_generators(idx))
    else:
        candidates = _dihedral_gens(g)
    plan = _trace_plan(g)
    modules: dict[str, HModule] = {}
    for gens in candidates:
        traces = _trace_table(g, gens, plan)
        lab = _match_label(table, traces)
        if lab in modules:
            raise ConstructionIncomplete(f"two modules matched label {lab}")
        modules[lab] = HModule(lab, gens.shape[1], gens, traces)
    if set(modules) != set(table.labels):
        missing = set(table.labels) - set(modules)
        raise ConstructionIncomplete(f"missing modules for {sorted(missing)}")
    if sum(m.dim ** 2 for m in modules.values()) != g.size:
        raise ConstructionIncomplete("sum of squared dimensions != |W|")
    return tuple(modules[lab] for lab in table.labels)


# ---------------------------------------------------------------------------
# Leading trace data
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LeadingData:
    """a_E, and the virtual characters alpha_w: ``alpha[w][E]`` is the
    nonzero integer c_{w,E}, for every w (empty row: all vanish)."""

    labels: tuple[str, ...]
    a_E: dict[str, int]
    alpha: dict[int, dict[str, int]]

    def alpha_support(self) -> frozenset[int]:
        return frozenset(w for w, row in self.alpha.items() if row)


def leading_data(g: WeylGroup, modules: tuple[HModule, ...]) -> LeadingData:
    labels = tuple(m.label for m in modules)
    a_E: dict[str, int] = {}
    alpha: dict[int, dict[str, int]] = {w: {} for w in range(g.size)}
    off = window_offset(g.nu)
    signs = (-1) ** g.length
    for mod in modules:
        nz = mod.traces != 0
        if not nz.any():
            raise LeadingTermMismatch(f"module {mod.label} has zero traces")
        # the lowest exponent of any v^(-l(w)) tr(T_w) is -a_E
        a = off - int(np.argmax(nz, axis=1)[nz.any(axis=1)].min())
        if a < 0:
            raise LeadingTermMismatch(
                f"module {mod.label}: negative a_E = {a}"
            )
        a_E[mod.label] = a
        cwe = mod.traces[:, off - a] * signs
        if not cwe.any():
            raise LeadingTermMismatch(
                f"module {mod.label}: c_{{w,E}} vanishes identically"
            )
        for w in np.flatnonzero(cwe).tolist():
            alpha[w][mod.label] = int(cwe[w])
    return LeadingData(labels=labels, a_E=a_E, alpha=alpha)
