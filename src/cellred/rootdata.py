"""Root systems, weight lattices and the Weyl dimension formula.

Supported Cartan types are exactly A1, A2, A3, A4, B2, G2.  Weights are
always written in fundamental-weight coordinates (the integers ``n_i`` of
``lambda = sum n_i w_i``); coroots in simple-coroot coordinates, which are
their pairings ``<w_i, alpha^vee>`` with the fundamental weights, so no
inner product or root length ever appears.

The index convention for the non-simply-laced types (which simple root is
short) is pinned by the closed-form dimension polynomials for rank-2 types:
``build_root_system`` self-tests against them and refuses to hand out a root
system that disagrees.  For B2 and G2 the first simple root is the short one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class UnsupportedType(ValueError):
    """Cartan type outside the six supported instances."""


class NonDominantWeight(ValueError):
    """weyl_dim requires a dominant weight."""


# The supported types, in order, each with its Cartan matrix (row i, column
# j: <alpha_j, alpha_i^vee>) and two literals its enumerations are checked
# against: the number of positive roots and |W|.
_TYPES = {
    ("A", 1): (((2,),), 1, 2),
    ("A", 2): (((2, -1), (-1, 2)), 3, 6),
    ("A", 3): (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), 6, 24),
    ("A", 4): (((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)), 10, 120),
    ("B", 2): (((2, -2), (-1, 2)), 4, 8),
    ("G", 2): (((2, -3), (-1, 2)), 6, 12),
}


@dataclass(frozen=True, order=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        if (self.family, self.rank) not in _TYPES:
            raise UnsupportedType(
                f"unsupported Cartan type {self.family}{self.rank}; "
                f"supported: {' '.join(f + str(r) for f, r in _TYPES)}"
            )

    @classmethod
    def parse(cls, name: str) -> "CartanType":
        name = name.strip()
        if len(name) != 2 or not "0" <= name[1] <= "9":  # not str.isdigit, which takes '²'
            raise UnsupportedType(f"cannot parse Cartan type {name!r}")
        return cls(name[0].upper(), int(name[1]))

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def key(self) -> tuple[str, int]:
        return (self.family, self.rank)

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        return _TYPES[self.key][0]

    @property
    def num_positive_roots(self) -> int:
        return _TYPES[self.key][1]

    @property
    def weyl_group_order(self) -> int:
        return _TYPES[self.key][2]

    def __str__(self):
        return self.name


ALL_TYPES = tuple(CartanType(f, r) for f, r in _TYPES)


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates; may be non-dominant."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def is_restricted(self, p: int) -> bool:
        return all(0 <= c <= p - 1 for c in self.coords)

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class RootSystem:
    """Positive-coroot data for one Cartan type.

    ``coroot_pairings[k][i]`` is ``<w_i, alpha_k^vee>`` for the k-th positive
    coroot, its i-th coordinate in simple coroots, so
    ``<lambda, alpha_k^vee> = sum_i n_i * coroot_pairings[k][i]``.
    ``weyl_vector_pairings[k]`` is the same pairing against the sum of the
    fundamental weights.
    """

    type: CartanType
    coroot_pairings: tuple[tuple[int, ...], ...]
    weyl_vector_pairings: tuple[int, ...]


def _positive_roots(cartan: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    # Orbit of the simple roots under all simple reflections, intersected
    # with the positive cone, in simple-root coordinates.  Small ranks, so
    # brute closure is fine.
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for gamma in frontier:
            for i in range(rank):
                pairing = sum(cartan[i][j] * gamma[j] for j in range(rank))
                refl = tuple(
                    gamma[j] - (pairing if j == i else 0) for j in range(rank)
                )
                if refl not in seen:
                    seen.add(refl)
                    nxt.append(refl)
        frontier = nxt
    pos = [g for g in seen if all(c >= 0 for c in g)]
    pos.sort(key=lambda g: (sum(g), g))
    return tuple(pos)


@lru_cache(maxsize=None)
def build_root_system(ct: CartanType) -> RootSystem:
    """Construct the root system; validates counts and the rank-2 convention.

    The positive coroots, in simple-coroot coordinates, are the positive
    roots of the transposed Cartan matrix, and their coordinates are the
    pairings with the fundamental weights.
    """
    coroots = _positive_roots(tuple(zip(*ct.cartan_matrix())))
    if len(coroots) != ct.num_positive_roots:
        raise AssertionError(
            f"{ct}: found {len(coroots)} positive roots, expected {ct.num_positive_roots}"
        )
    rs = RootSystem(ct, coroots, tuple(sum(row) for row in coroots))
    _self_test_closed_forms(rs)
    return rs


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """dim V(lambda) by the Weyl dimension formula, exactly.

    The quotient of products is performed as one exact integer division.
    """
    if len(lam.coords) != rs.type.rank:
        raise ValueError(f"weight rank {len(lam.coords)} != {rs.type.rank}")
    if not lam.is_dominant:
        raise NonDominantWeight(f"{lam} is not dominant")
    num = 1
    den = 1
    for row, rho in zip(rs.coroot_pairings, rs.weyl_vector_pairings):
        num *= sum(c * (n + 1) for c, n in zip(row, lam.coords))
        den *= rho
    q, r = divmod(num, den)
    if r:
        raise AssertionError("Weyl dimension quotient is not integral")
    return q


# Closed-form dimension polynomials in the shifted coordinates
# (a, b[, c]) = coords + 1, used to pin the index conventions.
_CLOSED_FORMS = {
    ("A", 1): lambda a: a,
    ("A", 2): lambda a, b: a * b * (a + b) // 2,
    ("B", 2): lambda a, b: a * b * (a + b) * (a + 2 * b) // 6,
    ("G", 2): lambda a, b: a * b * (a + b) * (a + 2 * b) * (a + 3 * b)
    * (2 * a + 3 * b) // 120,
    ("A", 3): lambda a, b, c: a * b * c * (a + b) * (b + c) * (a + b + c) // 12,
}


def _self_test_closed_forms(rs: RootSystem) -> None:
    form = _CLOSED_FORMS.get(rs.type.key)
    if form is None:
        return
    rank = rs.type.rank
    for flat in range(4 ** rank):
        coords = tuple((flat // 4 ** i) % 4 for i in range(rank))
        lam = Weight(coords)
        if weyl_dim(rs, lam) != form(*(n + 1 for n in coords)):
            raise AssertionError(
                f"{rs.type}: dimension formula disagrees with the closed form "
                f"at {lam}; index convention broken"
            )
