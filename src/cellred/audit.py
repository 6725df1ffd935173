"""The verification engine: every desk-checkable consequence, one report.

Each supported type gets a fixed sequence of checks; a check never raises on
a mathematical discrepancy, it reports it -- the report is the product.  The
``paper_ref`` field carries the opaque section label each check audits, so a
reader can line the report up against the transcribed tables.

Check ids and what they verify:

* ``bookkeeping``  -- the degree of every unipotent character equals the
  R-multiplicity-weighted sum of the template dimension polynomials, as an
  exact polynomial identity.
* ``duality``      -- the reversal involution search succeeds, matches the
  shipped pairing, satisfies descent complementation, and its signs are
  recorded (a minus sign would be a finding, not a check failure).
* ``a_values``     -- lowest degree of each dimension polynomial equals the
  a-function on the element's two-sided cell, and is constant there.
* ``centrality``   -- for every unipotent character, the R-multiplicity
  combination of asymptotic-ring basis elements is central (A4 included,
  with derived multiplicities).
* ``j_criterion``  -- near involutions from cells, the support of the
  leading virtual characters, and the shipped lists all agree.
* ``proximity``    -- every weight template sits within the per-type bound
  of (p-1) times the descent-set indicator weight.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

from . import heckechar, klcells, uniptables, weylmod
from .coxeter import WeylGroup, generate
from .klcells import stage
from .poly import IntPoly
from .rootdata import ALL_TYPES, CartanType, build_root_system

_REFS = {
    "bookkeeping": "2.3(a)+2.2",
    "duality": "2.3(ii)+2.4",
    "a_values": "2.3(iii)",
    "centrality": "2.6",
    "j_criterion": "1.2+1.3",
    "proximity": "2.3(i)+2.1",
}

_INTERNAL = "internal error: "  # details prefix of a row whose check crashed


@dataclass(frozen=True)
class CheckResult:
    id: str
    paper_ref: str
    status: str  # pass | fail | skipped
    details: str
    artifacts: dict | None = None


_SCOPE_NOTES = (
    "checks run over prime fields only; prime-power base fields are out of scope",
)


@dataclass(frozen=True)
class AuditReport:
    type_name: str
    checks: tuple[CheckResult, ...]

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    @property
    def internal_error(self) -> bool:
        """A check, or a context stage it read, crashed."""
        return any(
            c.status == "fail" and c.details.startswith(_INTERNAL)
            for c in self.checks
        )

    def to_dict(self) -> dict:
        return {
            "type": self.type_name,
            "checks": [
                {k: v for k, v in asdict(c).items() if v is not None}
                for c in self.checks
            ],
            "notes": list(_SCOPE_NOTES),
        }


class TypeContext:
    """Everything the checks need for one type, each stage built on its first
    read and kept.  A stage that raises keeps its exception and raises it
    again on every later read, unbuilt, so it fails exactly the checks that
    read it.  Tables come from ``data_dir``, fixed at construction."""

    def __init__(self, ct: CartanType, data_dir: str):
        self.ct = ct
        self.data_dir = data_dir

    @stage
    def group(self) -> WeylGroup:
        g = generate(self.ct)
        build_root_system(self.ct)  # its self-test pins the B2/G2 convention
        return g

    @stage
    def tables(self) -> uniptables.TypeTables:
        return uniptables.load_tables(self.ct, self.data_dir)

    @stage
    def kl(self) -> klcells.KLData:
        return klcells.compute_kl(self.group)

    @stage
    def cells(self) -> klcells.CellPartition:
        return klcells.compute_cells(self.kl)

    @stage
    def jset(self) -> frozenset[int]:
        return klcells.near_involutions(self.cells)

    @stage
    def gamma(self):
        """The asymptotic-ring constants, verified by ``j_ring``."""
        return klcells.j_ring(self.kl, self.cells)

    @stage
    def chartable(self) -> heckechar.WCharTable:
        return heckechar.w_character_table(self.group)

    @stage
    def modules(self) -> tuple[heckechar.HModule, ...]:
        return heckechar.build_hecke_modules(
            self.group, self.kl, self.cells, self.chartable
        )

    @stage
    def leading(self) -> heckechar.LeadingData:
        return heckechar.leading_data(self.group, self.modules)

    @stage
    def deltas(self) -> dict[int, IntPoly]:
        return weylmod.delta_table(self.tables)

    @stage
    def duality(self) -> weylmod.DualityResult:
        return weylmod.find_duality(self.group, self.deltas, self.tables.words)

    @stage
    def unip_rows(self) -> dict[str, dict[int, int]]:
        """label -> {element: multiplicity}; without 2.1 tables the rows are
        derived from the leading coefficients."""
        rows = self.tables.r_alpha
        if not self.tables.has_m_w_data:
            rows = uniptables.derived_r_alpha(self.group, self.leading.alpha, self.jset)
        return uniptables.transpose(rows)


def get_context(ct: CartanType) -> TypeContext:
    """The context for ``ct`` over the current data directory; one per
    directory, because the tables and all built from them differ."""
    return _context(ct, uniptables.data_dir())


_context = lru_cache(maxsize=None)(TypeContext)


def _row(
    cid: str, failures: list[str], passed: str, artifacts: dict | None = None
) -> CheckResult:
    """The row of a check that ran: fail with its failures, else pass."""
    status, details = ("fail", "; ".join(failures)) if failures else ("pass", passed)
    return CheckResult(cid, _REFS[cid], status, details, artifacts)


def check_bookkeeping(ctx: TypeContext) -> CheckResult:
    failures = []
    for u in ctx.tables.unipotent:
        combo = IntPoly.zero()
        for w, mult in ctx.unip_rows[u.label].items():
            combo = combo + mult * ctx.deltas[w]
        if combo != u.degree:
            failures.append(
                f"{u.label}: sum gives {combo.render()}, degree is {u.degree.render()}"
            )
    total = len(ctx.tables.unipotent)
    return _row("bookkeeping", failures, f"{total}/{total} unipotent characters")


def check_duality(ctx: TypeContext) -> CheckResult:
    res = ctx.duality
    problems = list(res.problems)
    g, words = ctx.group, ctx.tables.words
    full = frozenset(range(1, g.rank + 1))
    computed = {w: partner for w, (partner, _) in res.pairs.items()}
    if computed != ctx.tables.duality:
        problems.append("computed involution differs from the shipped table")
    for w, partner in ctx.tables.duality.items():
        if g.left_descent_set(partner) != full - g.left_descent_set(w):
            problems.append(f"descent complementation fails at {words[w]} <-> {words[partner]}")
    signs = dict(sorted((words[w], "+" if s > 0 else "-") for w, (_, s) in res.pairs.items()))
    note = "all signs +" if set(signs.values()) == {"+"} else "negative sign observed"
    return _row(
        "duality", problems, f"{len(res.pairs)} rows paired as shipped; {note}",
        artifacts={"signs": signs},
    )


def check_a_values(ctx: TypeContext) -> CheckResult:
    failures = []
    cell_of = {i: k for k, c in enumerate(ctx.cells.two_sided_cells) for i in c}
    by_cell: dict[int, set[int]] = {}
    c_of = {w: pi.lowest_degree() for w, pi in ctx.deltas.items()}
    for w, c in c_of.items():
        a = ctx.kl.a_values[w]
        if c != a:
            failures.append(f"{ctx.tables.words[w]}: lowest degree {c} != a-value {a}")
        by_cell.setdefault(cell_of[w], set()).add(c)
    for cs in by_cell.values():
        if len(cs) != 1:
            failures.append(f"c not constant on a two-sided cell: {sorted(cs)}")
    values = sorted(c_of.values())
    return _row("a_values", failures, f"{len(ctx.deltas)} rows; c-values {values}")


def check_centrality(ctx: TypeContext) -> CheckResult:
    failures = []
    labels = sorted(ctx.unip_rows)
    for lab in labels:
        if not klcells.is_central(ctx.group, ctx.gamma, ctx.unip_rows[lab]):
            failures.append(f"z_{lab} is not central")
    origin = "shipped multiplicities" if ctx.tables.has_m_w_data else "derived multiplicities"
    return _row(
        "centrality", failures, f"{len(labels)}/{len(labels)} central ({origin})"
    )


def check_j_criterion(ctx: TypeContext) -> CheckResult:
    cells_based = ctx.jset
    alpha_based = ctx.leading.alpha_support()
    failures = []
    if cells_based != alpha_based:
        failures.append("cell-based set differs from the alpha-support set")
    shipped = frozenset(ctx.tables.r_alpha) if ctx.tables.has_m_w_data else None
    if shipped is not None and shipped != cells_based:
        failures.append("computed set differs from the shipped list")
    g = ctx.group
    involutions = frozenset(i for i, j in enumerate(g.inv.tolist()) if i == j)
    inv_note = (
        "equals the involution set" if cells_based == involutions
        else "differs from the involution set"
    )
    src = "two derivations + shipped list" if shipped is not None else "two derivations"
    return _row(
        "j_criterion", failures,
        f"{len(cells_based)} elements agree ({src}); {inv_note}",
    )


def check_proximity(ctx: TypeContext) -> CheckResult:
    bound = ctx.tables.proximity_bound
    g, words = ctx.group, ctx.tables.words
    failures = []
    worst = 0
    for w, terms in ctx.tables.m_w.items():
        cl = g.left_descent_set(w)
        for _, tmpl in terms:
            for i, (c0, c1) in enumerate(tmpl.coords, start=1):
                indicator = 1 if i in cl else 0
                if c1 != indicator:
                    failures.append(f"{words[w]}: p-pattern differs from descents at slot {i}")
                corr = abs(c0 + indicator)
                worst = max(worst, corr)
                if corr > bound:
                    failures.append(f"{words[w]}: correction {corr} exceeds bound {bound}")
    return _row(
        "proximity", failures,
        f"all templates within {bound} of the descent-indicator weight "
        f"(largest correction {worst})",
    )


# in report order
_CHECKS = {
    "bookkeeping": check_bookkeeping,
    "duality": check_duality,
    "a_values": check_a_values,
    "centrality": check_centrality,
    "j_criterion": check_j_criterion,
    "proximity": check_proximity,
}

# the checks that read the transcribed 2.1 tables, skipped where there are none
_READ_2_1_TABLES = frozenset({"bookkeeping", "duality", "a_values", "proximity"})
_NO_DATA = "no transcribed 2.1 tables for this type"


def run_checks(ct: CartanType) -> AuditReport:
    """Run every check for one type, in the order of ``_CHECKS``.  Skips are
    written here, and so is the fail row of a check that crashes or reads a
    context stage that raises (say from a corrupt data file): it fails its
    own row only."""
    ctx = get_context(ct)
    results = []
    for cid, check in _CHECKS.items():
        try:
            if cid in _READ_2_1_TABLES and not ctx.tables.has_m_w_data:
                results.append(CheckResult(cid, _REFS[cid], "skipped", _NO_DATA))
            else:
                results.append(check(ctx))
        except Exception as exc:  # a crash is itself a reportable failure
            results.append(CheckResult(
                cid, _REFS[cid], "fail", f"{_INTERNAL}{type(exc).__name__}: {exc}"
            ))
    return AuditReport(type_name=ct.name, checks=tuple(results))


def run_all(types: tuple[CartanType, ...] = ALL_TYPES) -> list[AuditReport]:
    return [run_checks(ct) for ct in types]


def reports_to_markdown(reports: list[AuditReport]) -> str:
    lines = []
    for r in reports:
        lines.append(f"## {r.type_name}")
        lines.append("")
        lines.append("| check | ref | status | details |")
        lines.append("|---|---|---|---|")
        for c in r.checks:
            lines.append(f"| {c.id} | {c.paper_ref} | {c.status} | {c.details} |")
        lines.append("")
    return "\n".join(lines)
