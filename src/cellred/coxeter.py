"""The Weyl group as a Coxeter group on the generators ``s_i``.

Elements are canonicalised by their shortlex-minimal reduced word, found by
breadth-first generation from the identity through the faithful action on
the weight lattice.  Group orders here top out at 120, so the whole group is
enumerated and every product is answered from a |W| x |I| right-multiplication
table extended by word folding.

Word syntax follows the data files and CLI: generator indices are the digits
``1..rank`` and the identity is written ``e``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .rootdata import CartanType, Weight


class BadGeneratorIndex(ValueError):
    """A word contains a character that is not a generator index."""


_EXPECTED_ORDER = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120,
    ("B", 2): 8, ("G", 2): 12,
}


@dataclass(frozen=True, order=True)
class WeylElt:
    """Group element, identified with its shortlex-minimal reduced word.

    Words use 1-based generator indices, matching the digit notation.
    """

    word: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.word)

    def __str__(self):
        return "".join(str(i) for i in self.word) if self.word else "e"


@dataclass(eq=False)
class WeylGroup:
    """Fully enumerated Weyl group with multiplication oracles.

    ``elements`` is in BFS order: index 0 is the identity, indices increase
    by length and, within a length, by lex order of the canonical word.
    Compared and hashed by identity; use ``generate`` to get the shared
    instance for a type.
    """

    type: CartanType
    elements: tuple[WeylElt, ...]
    nu: int
    _rmul: tuple[tuple[int, ...], ...] = field(repr=False)
    _lmul: tuple[tuple[int, ...], ...] = field(repr=False)
    _inv: tuple[int, ...] = field(repr=False)
    _matrices: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)
    _index: dict[WeylElt, int] = field(repr=False)

    # -- indexing

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def rank(self) -> int:
        return self.type.rank

    @property
    def w0(self) -> WeylElt:
        return self.elements[-1]

    @property
    def identity(self) -> WeylElt:
        return self.elements[0]

    def index(self, w: WeylElt) -> int:
        return self._index[w]

    def element(self, i: int) -> WeylElt:
        return self.elements[i]

    def generator(self, i: int) -> WeylElt:
        """The simple reflection s_i (1-based i)."""
        if not 1 <= i <= self.rank:
            raise BadGeneratorIndex(f"generator index {i} not in 1..{self.rank}")
        return self.elements[self._rmul[0][i - 1]]

    # -- index-level oracles (used by the cell machinery)

    def rmul_index(self, wi: int, i: int) -> int:
        """Index of w * s_i, 1-based i."""
        return self._rmul[wi][i - 1]

    def lmul_index(self, wi: int, i: int) -> int:
        return self._lmul[wi][i - 1]

    def inv_index(self, wi: int) -> int:
        return self._inv[wi]

    def length_of_index(self, wi: int) -> int:
        return len(self.elements[wi].word)

    # -- element-level operations

    def mult(self, a: WeylElt, b: WeylElt) -> WeylElt:
        wi = self._index[a]
        for i in b.word:
            wi = self._rmul[wi][i - 1]
        return self.elements[wi]

    def inverse(self, a: WeylElt) -> WeylElt:
        return self.elements[self._inv[self._index[a]]]

    def left_descent_set(self, w: WeylElt) -> frozenset[int]:
        wi = self._index[w]
        lw = len(w.word)
        return frozenset(
            i for i in range(1, self.rank + 1)
            if self.length_of_index(self._lmul[wi][i - 1]) < lw
        )

    def act_on_weight(self, w: WeylElt, lam: Weight) -> Weight:
        m = self._matrices[self._index[w]]
        return Weight(tuple(
            sum(m[j][k] * lam.coords[k] for k in range(self.rank))
            for j in range(self.rank)
        ))

    def parse_word(self, text: str) -> WeylElt:
        """Canonical form of a (not necessarily reduced) word; 'e' or '' is the identity."""
        text = text.strip()
        if text in ("e", ""):
            return self.elements[0]
        wi = 0
        for ch in text:
            if not ch.isdigit() or not 1 <= int(ch) <= self.rank:
                raise BadGeneratorIndex(
                    f"{ch!r} is not a generator index of {self.type}"
                )
            wi = self._rmul[wi][int(ch) - 1]
        return self.elements[wi]


def _reflection_matrix(ct: CartanType, i: int) -> tuple[tuple[int, ...], ...]:
    # s_i on fundamental-weight coordinates: column i of the identity is
    # replaced by e_i - (i-th column of the Cartan matrix).
    cartan = ct.cartan_matrix()
    rank = ct.rank
    return tuple(
        tuple(
            (1 if j == k else 0) - (cartan[j][i] if k == i else 0)
            for k in range(rank)
        )
        for j in range(rank)
    )


def _mat_mul(a, b, rank):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(rank)) for j in range(rank))
        for i in range(rank)
    )


@lru_cache(maxsize=None)
def generate(ct: CartanType) -> WeylGroup:
    """Enumerate the Weyl group of the given type."""
    rank = ct.rank
    gens = [_reflection_matrix(ct, i) for i in range(rank)]
    ident = tuple(tuple(int(j == k) for k in range(rank)) for j in range(rank))

    mats = [ident]
    words: list[tuple[int, ...]] = [()]
    index_of = {ident: 0}
    rmul: list[list[int]] = []
    head = 0
    while head < len(mats):
        m = mats[head]
        row = []
        for i in range(rank):
            prod = _mat_mul(m, gens[i], rank)
            j = index_of.get(prod)
            if j is None:
                j = len(mats)
                index_of[prod] = j
                mats.append(prod)
                words.append(words[head] + (i + 1,))
            row.append(j)
        rmul.append(row)
        head += 1

    n = len(mats)
    if n != _EXPECTED_ORDER[ct.key]:
        raise AssertionError(f"{ct}: |W| = {n}, expected {_EXPECTED_ORDER[ct.key]}")

    inv = []
    for w in range(n):
        x = 0
        for i in reversed(words[w]):
            x = rmul[x][i - 1]
        inv.append(x)
    # s_i w = (w^-1 s_i)^-1
    lmul = [[inv[j] for j in rmul[inv[w]]] for w in range(n)]

    elements = tuple(WeylElt(w) for w in words)
    nu = len(words[-1])
    lengths = [len(w) for w in words]
    if lengths.count(nu) != 1:
        raise AssertionError(f"{ct}: longest element is not unique")

    return WeylGroup(
        type=ct,
        elements=elements,
        nu=nu,
        _rmul=tuple(tuple(r) for r in rmul),
        _lmul=tuple(tuple(r) for r in lmul),
        _inv=tuple(inv),
        _matrices=tuple(mats),
        _index={e: i for i, e in enumerate(elements)},
    )
