"""Dimension polynomials for weight templates and the duality search.

``dim_template`` expands the Weyl dimension formula symbolically, with the
weight coordinates affine in p, giving an exact polynomial in t (t stands
for p): the integer coefficients of the Weyl product over the product of the
rho pairings.  Interpolation is never used to build these polynomials;
evaluation against the integer dimension formula at a few primes is kept as
a redundant guard.

``delta_table`` assembles the signed template combinations for every row of
the shipped tables and checks each result against the transcribed closed
form, coefficient by coefficient.  ``find_duality`` searches for the
involution pairing each row polynomial with its degree-reversal, subject to
descent-set complementation; the sign of each match is an output, never an
assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import WeylGroup
from .poly import IntPoly, reverse_at
from .rootdata import RootSystem, build_root_system, weyl_dim
from .uniptables import DataIntegrityFailure, TypeTables, WeightTemplate


class NonDominantTemplate(ValueError):
    """Template is not dominant for all admissible p."""


class MissingMwData(ValueError):
    """The type ships no weight-template tables (A4)."""


_SPOT_PRIMES = (5, 7, 11, 13)


def dim_template(rs: RootSystem, tmpl: WeightTemplate, min_prime: int = 2) -> IntPoly:
    """dim V(lambda(p)) as an exact polynomial in t.

    Requires the template to be dominant for every p >= min_prime; affine
    coordinates make that equivalent to dominance at min_prime plus a
    non-negative p-coefficient.
    """
    if len(tmpl.coords) != rs.type.rank:
        raise ValueError(f"template rank {len(tmpl.coords)} != {rs.type.rank}")
    for c0, c1 in tmpl.coords:
        if c1 < 0 or c0 + c1 * min_prime < 0:
            raise NonDominantTemplate(
                f"{tmpl} is not dominant for all p >= {min_prime}"
            )
    num = [1]  # the Weyl product's integer coefficients, of t^0, t^1, ...
    den = 1
    for row, rho in zip(rs.coroot_pairings, rs.weyl_vector_pairings):
        const = sum(c * (c0 + 1) for c, (c0, _) in zip(row, tmpl.coords))
        slope = sum(c * c1 for c, (_, c1) in zip(row, tmpl.coords))
        num = [a * const + b * slope for a, b in zip(num + [0], [0] + num)]
        den *= rho
    for p in _SPOT_PRIMES:
        lam = tmpl.instantiate(p)
        if sum(a * p ** k for k, a in enumerate(num)) != weyl_dim(rs, lam) * den:
            raise AssertionError(
                f"symbolic dimension for {tmpl} disagrees with weyl_dim at p={p}"
            )
    return IntPoly.over(dict(enumerate(num)), den)


def delta_table(tables: TypeTables) -> dict[int, IntPoly]:
    """Signed template dimensions for every row of ``tables``, keyed by
    element index; the lowest degree of a row's polynomial is c(w).

    Each polynomial is checked exactly against the transcribed closed form
    and for integer values and a positive leading coefficient.
    """
    ct = tables.type
    if not tables.has_m_w_data:
        raise MissingMwData(f"{ct.name} ships no weight-template data")
    rs = build_root_system(ct)
    out: dict[int, IntPoly] = {}
    for w, terms in tables.m_w.items():
        word = tables.words[w]
        pi = IntPoly.zero()
        for coef, tmpl in terms:
            pi = pi + coef * dim_template(rs, tmpl, tables.min_prime)
        expected = tables.delta[w]
        if pi != expected:
            raise DataIntegrityFailure(
                f"{ct.name} row {word!r}: templates give {pi.render()} "
                f"but the transcribed polynomial is {expected.render()}"
            )
        if pi.leading_sign() <= 0:
            raise DataIntegrityFailure(f"{ct.name} row {word!r}: non-positive leading term")
        if not pi.is_integer_valued():
            raise DataIntegrityFailure(f"{ct.name} row {word!r}: not integer valued")
        out[w] = pi
    return out


@dataclass(frozen=True)
class DualityResult:
    """Outcome of the involution search over the table rows.

    ``pairs`` maps each row's element to its unique partner and the observed
    sign of the reversal identity.  ``problems`` lists rows with no or ambiguous
    matches; the search succeeded iff it is empty and the pairing is an
    involution.
    """

    pairs: dict[int, tuple[int, int]]
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def find_duality(
    g: WeylGroup, deltas: dict[int, IntPoly], words: dict[int, str]
) -> DualityResult:
    """Search for w~ with t^nu pi_w(1/t) = +- pi_{w~} and complementary
    left-descent sets; problems spell each row as ``words`` does."""
    full = frozenset(range(1, g.rank + 1))
    descents = {w: g.left_descent_set(w) for w in deltas}
    pairs: dict[int, tuple[int, int]] = {}
    problems: list[str] = []
    for w, pi in deltas.items():
        rev = reverse_at(g.nu, pi)
        want_descents = full - descents[w]
        matches = []
        for w2, pi2 in deltas.items():
            if descents[w2] != want_descents:
                continue
            if rev == pi2:
                matches.append((w2, 1))
            elif rev == -pi2:
                matches.append((w2, -1))
        if not matches:
            problems.append(f"{words[w]}: no reversal partner")
        elif len(matches) > 1:
            problems.append(f"{words[w]}: ambiguous partners {[words[m] for m, _ in matches]}")
        else:
            pairs[w] = matches[0]
    for w, (partner, _) in pairs.items():
        back = pairs.get(partner)
        if back is None or back[0] != w:
            problems.append(f"{words[w]} <-> {words[partner]}: pairing is not an involution")
    return DualityResult(pairs=pairs, problems=tuple(problems))
