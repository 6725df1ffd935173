"""The Weyl group as a Coxeter group on the generators ``s_i``.

Elements are integers, their indices in the group as enumerated once by
breadth-first generation from the identity over right multiplication; the
BFS also yields each element's shortlex-minimal reduced word.  The
BFS keys w by u_w = w^-1(rho) in fundamental-weight coordinates, with
rho = (1, ..., 1); rho is regular, so the key is faithful, and
u_{w s_i} = u_w - (u_w)_i (column i of the Cartan matrix) costs O(rank) per
step.  Group orders here top out at 120, so the whole group is enumerated
once and held as four read-only int64 index arrays that every consumer reads
directly: ``rmul`` and ``lmul`` (|W| x rank), ``inv`` and ``length`` (|W|).

Word syntax follows the data files and CLI: generator indices are the digits
``1..rank`` and the identity is written ``e``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .rootdata import CartanType, Weight


class BadGeneratorIndex(ValueError):
    """A word contains a character that is not a generator index."""


@dataclass(eq=False)
class WeylGroup:
    """Fully enumerated Weyl group, held as read-only int64 index arrays.

    An element is its index in BFS order: index 0 is the identity, indices
    increase by length and, within a length, by lex order of the canonical
    word ``words[w]`` (1-based generator indices).  ``rmul[w, i - 1]`` and
    ``lmul[w, i - 1]`` are the indices of w s_i and s_i w, ``inv[w]`` that
    of w^-1 and ``length[w]`` the length of w.  Compared and hashed by
    identity; use ``generate`` to get the shared instance for a type.
    """

    type: CartanType
    words: tuple[tuple[int, ...], ...] = field(repr=False)
    nu: int
    rmul: np.ndarray = field(repr=False)
    lmul: np.ndarray = field(repr=False)
    inv: np.ndarray = field(repr=False)
    length: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def rank(self) -> int:
        return self.type.rank

    def word(self, w: int) -> str:
        """The canonical word of w as text, ``e`` for the identity."""
        return "".join(map(str, self.words[w])) or "e"

    def left_descent_set(self, w: int) -> frozenset[int]:
        below = self.length[self.lmul[w]] < self.length[w]
        return frozenset((np.flatnonzero(below) + 1).tolist())

    def act_on_weight(self, w: int, lam: Weight) -> Weight:
        u = lam.coords
        for i in reversed(self.words[w]):
            u = _reflect(self.type.cartan_matrix(), u, i - 1)
        return Weight(u)

    def parse_word(self, text: str) -> int:
        """The index of a (not necessarily reduced) word; 'e' or '' is the identity."""
        text = text.strip()
        if text in ("e", ""):
            return 0
        wi = 0
        for ch in text:
            if not "1" <= ch <= "9" or int(ch) > self.rank:  # not str.isdigit, which takes '²'
                raise BadGeneratorIndex(
                    f"{ch!r} is not a generator index of {self.type}"
                )
            wi = self.rmul[wi, int(ch) - 1]
        return int(wi)


def _reflect(cartan, u: tuple[int, ...], i: int) -> tuple[int, ...]:
    """s_i u in fundamental-weight coordinates, 0-based i: u minus u_i times
    column i of the Cartan matrix."""
    return tuple(uj - u[i] * row[i] for uj, row in zip(u, cartan))


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=np.int64)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def generate(ct: CartanType) -> WeylGroup:
    """Enumerate the Weyl group of the given type: BFS over right
    multiplication, each element w keyed by u_w = w^-1(rho)."""
    rank, cartan = ct.rank, ct.cartan_matrix()
    rho = (1,) * rank
    keys = [rho]
    words: list[tuple[int, ...]] = [()]
    index_of = {rho: 0}
    rmul: list[list[int]] = []
    for head, u in enumerate(keys):  # keys grows while it is read
        row = []
        for i in range(rank):
            key = _reflect(cartan, u, i)  # u_{w s_i} = s_i(u_w)
            j = index_of.setdefault(key, len(keys))
            if j == len(keys):
                keys.append(key)
                words.append(words[head] + (i + 1,))
            row.append(j)
        rmul.append(row)

    n = len(keys)
    if n != ct.weyl_group_order:
        raise AssertionError(f"{ct}: |W| = {n}, expected {ct.weyl_group_order}")
    nu = len(words[-1])
    if [len(w) for w in words].count(nu) != 1:
        raise AssertionError(f"{ct}: longest element is not unique")

    inv = []
    for w in words:
        x = 0
        for i in reversed(w):
            x = rmul[x][i - 1]
        inv.append(x)
    rmul, inv = _frozen(rmul), _frozen(inv)
    return WeylGroup(
        type=ct,
        words=tuple(words),
        nu=nu,
        rmul=rmul,
        lmul=_frozen(inv[rmul[inv]]),  # s_i w = (w^-1 s_i)^-1
        inv=inv,
        length=_frozen([len(w) for w in words]),
    )
