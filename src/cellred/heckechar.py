"""Characters of W, Hecke modules E(u), and leading trace coefficients.

For each irreducible W-module E we realise a Hecke module E(u) over
Z[v, v^-1] (u = v^2, quadratic relation (T_s - u)(T_s + 1) = 0):

* type A: the left-cell modules of the canonical basis, one cell per
  two-sided cell; these are irreducible in type A, and the action of c_s is
  the slice ``kl.cs[:, cell][:, :, cell]`` of the W-graph operator that
  :func:`cellred.klcells.compute_kl` builds (Tt_s = c_s - v^-1);
* dihedral B2/G2: the four one-dimensional modules and explicit 2x2
  deformations of the rotation representations.

Modules are held as Laurent arrays (see :mod:`cellred.poly`) of the
normalised generators Tt_s = v^-1 T_s.  Every module is verified against the
braid and quadratic relations, and the traces of all Tt_w are computed once;
their v = 1 values are matched against the ordinary character table, which
is itself built from scratch (Murnaghan-Nakayama over cycle types for the
symmetric groups, closed dihedral forms for B2/G2, with row orthogonality
checked).

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
from .klcells import Cells, KLData, CellPartition, _sccs
from .poly import check_magnitude, check_window, laurent_matmul, window_offset


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
    least member.  Rows are indexed by ``labels``; ``values[r][c]`` is the
    character of row r at class c.  The first row is always the trivial
    character.
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


def _conjugacy_classes(g: WeylGroup) -> Cells:
    """The classes, listed by least member: the strong components of the
    graph x -> s_i x s_i."""
    adj = np.zeros((g.size, g.size), dtype=bool)
    adj[np.arange(g.size)[:, None], g.lmul[g.rmul, np.arange(g.rank)]] = True
    return _sccs(adj)


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


def _symmetric_table(g: WeylGroup) -> WCharTable:
    classes = _conjugacy_classes(g)
    types = [_cycle_type(_perm_of(g, c[0])) for c in classes]
    labels = tuple("".join(str(p) for p in lam) for lam in _partitions(g.rank + 1))
    values = tuple(
        tuple(_mn_char(lam, alpha) for alpha in types)
        for lam in _partitions(g.rank + 1)
    )
    return WCharTable(g, classes, labels, values)


# -- dihedral groups B2, G2

_DIHEDRAL_COS = {
    4: {0: 2, 1: 0, 2: -2, 3: 0},
    6: {0: 2, 1: 1, 2: -1, 3: -2, 4: -1, 5: 1},
}


def _dihedral_table(g: WeylGroup) -> WCharTable:
    m = g.nu  # order 2m, rotations (s1 s2)^k
    classes = _conjugacy_classes(g)

    def tag(c: tuple[int, ...]):
        # rotation classes tagged by k (length 2k); reflections by generator
        length = int(g.length[c[0]])
        if length % 2 == 0:
            return ("rot", length // 2)
        return ("refl", 1 if g.rmul[0, 0] in c else 2)  # rmul[0, 0] is s_1

    tags = [tag(c) for c in classes]
    labels = ["triv", "sgn1", "sgn2", "sign"]
    rows = []
    for lab in labels:
        e1 = -1 if lab in ("sgn1", "sign") else 1
        e2 = -1 if lab in ("sgn2", "sign") else 1
        row = []
        for t in tags:
            if t[0] == "rot":
                row.append((e1 * e2) ** t[1])
            else:
                row.append(e1 if t[1] == 1 else e2)
        rows.append(tuple(row))
    ctab = _DIHEDRAL_COS[m]
    for k in range(1, m // 2):
        lab = "refl" if k == 1 else f"refl{k}"
        labels.append(lab)
        rows.append(tuple(
            ctab[(t[1] * k) % m] if t[0] == "rot" else 0 for t in tags
        ))
    return WCharTable(g, classes, tuple(labels), tuple(rows))


def w_character_table(g: WeylGroup) -> WCharTable:
    """Complete rational character table with stable labels."""
    if g.type.family == "A":
        table = _symmetric_table(g)
    else:
        table = _dihedral_table(g)
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
    a Laurent array with offset ``window_offset(nu)``.
    """

    label: str
    dim: int
    gens: np.ndarray
    traces: np.ndarray


def _coxeter_m(g: WeylGroup, i: int, j: int) -> int:
    cartan = g.type.cartan_matrix()
    prod = cartan[i - 1][j - 1] * cartan[j - 1][i - 1]
    return {0: 2, 1: 3, 2: 4, 3: 6}[prod]


def _verify_module(g: WeylGroup, gens: np.ndarray) -> None:
    eye = np.eye(gens.shape[1], dtype=np.int64)
    for T in gens:
        # (T - u)(T + 1) = 0, divided by v^2: (Tt - v)(Tt + v^-1) = 0
        left, right = T.copy(), T.copy()
        left[:, :, 2] -= eye
        right[:, :, 0] += eye
        if laurent_matmul(left, right).any():
            raise ConstructionIncomplete("quadratic relation fails")
    for i in range(1, g.rank + 1):
        for j in range(i + 1, g.rank + 1):
            left, right = gens[i - 1], gens[j - 1]
            for k in range(1, _coxeter_m(g, i, j)):
                left = laurent_matmul(left, gens[(i, j)[k % 2] - 1])
                right = laurent_matmul(right, gens[(j, i)[k % 2] - 1])
            if not np.array_equal(left, right):
                raise ConstructionIncomplete(f"braid relation fails for ({i},{j})")


def _trace_table(g: WeylGroup, gens: np.ndarray) -> np.ndarray:
    """tr(Tt_w) for all w: an (n, D) Laurent array, offset ``window_offset(nu)``."""
    d = gens.shape[1]
    off = window_offset(g.nu)
    mats = np.zeros((g.size, d, d, 2 * off + 1), dtype=np.int64)
    mats[0, np.arange(d), np.arange(d), off] = 1
    for x in range(1, g.size):
        i = g.words[x][-1]
        # Tt_x = Tt_{x s_i} Tt_{s_i}; the product has offset off + 1
        mats[x] = laurent_matmul(mats[g.rmul[x, i - 1]], gens[i - 1])[:, :, 1:-1]
    check_window(mats, "trace")
    check_magnitude(int(np.abs(mats).max()), "trace")
    return mats.trace(axis1=1, axis2=2)


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
            gens = kl.cs[:, idx][:, :, idx]
            gens[:, range(len(idx)), range(len(idx)), 0] -= 1  # Tt_s = c_s - v^-1
            candidates.append(gens)
    else:
        candidates = _dihedral_gens(g)
    modules: dict[str, HModule] = {}
    for gens in candidates:
        _verify_module(g, gens)
        traces = _trace_table(g, gens)
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
