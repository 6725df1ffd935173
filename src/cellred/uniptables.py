"""Curated data tables: unipotent degrees, R-multiplicities, weight-template
definitions, reduction decompositions and the duality involution.

Each supported type ships as one human-auditable JSON file under
``cellred/data`` (override the directory with ``CELLRED_DATA_DIR``; a relative
one is read against the working directory of each command).  Entries carry
their source-section annotations as opaque ``ref`` strings so the files can be
diffed against the text they transcribe.  The loader re-verifies the
internal consistency of every file on each load and aborts with the offending
location on any violation; transcription is the dominant error risk here.

A4 is special: no tables were ever published for it, so its file carries null
slots and the R-multiplicity table is *derived* from computed leading
coefficients (see :func:`derived_r_alpha`), flagged as such.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .coxeter import WeylGroup, generate
from .poly import IntPoly
from .rootdata import CartanType, Weight


class DataIntegrityFailure(ValueError):
    """A shipped table violates one of its declared invariants."""


@dataclass(frozen=True)
class UnipotentChar:
    label: str
    degree: IntPoly


@dataclass(frozen=True)
class WeightTemplate:
    """A dominant weight whose coordinates are affine in p: c0 + c1*p."""

    coords: tuple[tuple[int, int], ...]

    def instantiate(self, p: int) -> Weight:
        return Weight(tuple(c0 + c1 * p for c0, c1 in self.coords))

    def __str__(self):
        def coord(c0, c1):
            if c1 == 0:
                return str(c0)
            base = "p" if c1 == 1 else f"{c1}p"
            if c0 == 0:
                return base
            return f"{base}{'+' if c0 > 0 else '-'}{abs(c0)}"
        return "(" + ",".join(coord(*c) for c in self.coords) + ")"


@dataclass(eq=False)
class TypeTables:
    """All shipped tables for one type; slots are None where no data exists.

    Rows are keyed by element index, in file order; ``words`` holds the
    file's spelling of each row, for printing only.  The shipped
    decomposition table is not kept: the loader checks that it is
    ``transpose(r_alpha)``, which readers build instead.
    """

    type: CartanType
    min_prime: int
    proximity_bound: int
    unipotent: tuple[UnipotentChar, ...] | None
    words: dict[int, str] | None
    r_alpha: dict[int, dict[str, int]] | None
    m_w: dict[int, tuple[tuple[int, WeightTemplate], ...]] | None
    delta: dict[int, IntPoly] | None
    duality: dict[int, int] | None

    @property
    def has_m_w_data(self) -> bool:
        """Whether the type ships its 2.1 tables: :func:`load_tables` fills
        every 2.1 slot or nulls them all."""
        return self.m_w is not None


def data_dir() -> str:
    """The absolute directory tables are read from: ``CELLRED_DATA_DIR``, a
    relative one taken against the working directory now, or the package
    data.  It keys the audit context, so a chdir changes the key."""
    env = os.environ.get("CELLRED_DATA_DIR")
    return str(Path(env).absolute() if env else Path(__file__).parent / "data")


def _fail(ct: CartanType, where: str, msg: str, refs: dict | None = None) -> DataIntegrityFailure:
    tag = f" (ref {refs[where]})" if refs and where in refs else ""
    return DataIntegrityFailure(f"{ct.name} tables, {where}{tag}: {msg}")


def _parse(ct: CartanType, where: str, key: str, text, refs: dict, nu: int) -> IntPoly:
    """``IntPoly.parse`` of the ``where`` entry ``key``, a JSON string, of
    degree at most ``nu``; a malformed polynomial, or one the reader refuses
    for its degree or size, is a :class:`DataIntegrityFailure` at that
    location."""
    try:
        return IntPoly.parse(_json(text, str), nu)
    except (ValueError, ZeroDivisionError) as exc:
        raise _fail(ct, where, f"{key}: cannot parse {text!r}: {exc}", refs) from exc


_JSON_NAMES = {int: "integer", str: "string", dict: "object", list: "array"}


def _object(pairs: list) -> dict:
    """A JSON object as a dict; a repeated key is a ValueError, where a plain
    ``json.load`` would keep its last value."""
    out = dict(pairs)
    if len(out) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return out


def _json(value, kind: type):
    """``value``, if a JSON ``kind`` (int, str, dict or list); anything
    else, a boolean for an integer too, is a TypeError, never converted."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"not a JSON {_JSON_NAMES[kind]}: {value!r}")
    return value


def _table(ct: CartanType, where: str, value, kind: type, refs: dict | None = None):
    """``value``, if a JSON object (``kind`` dict) or array (list); anything
    else is a :class:`DataIntegrityFailure` at ``where``."""
    if not isinstance(value, kind):
        raise _fail(ct, where, f"a {type(value).__name__}, not a JSON {_JSON_NAMES[kind]}", refs)
    return value


def _rows(ct: CartanType, table: str, refs: dict, rows, read) -> dict:
    """``{key: read(key, value)}`` over the rows of one table, a JSON object
    or, keyed by position, a list.  A KeyError, TypeError or ValueError
    while a row is read, such as a missing field, a leaf of the wrong JSON
    type or a bad generator in a word, is a :class:`DataIntegrityFailure`
    naming the table and the row."""
    out, key = {}, None
    try:
        for key, value in rows.items() if isinstance(rows, dict) else enumerate(rows):
            out[key] = read(key, value)
    except DataIntegrityFailure:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        at = "" if key is None else f"row {key!r}: "
        raise _fail(ct, table, f"{at}{type(exc).__name__}: {exc}", refs) from exc
    return out


_TABLES = ("unipotent", "r_alpha", "m_w", "delta", "decomp", "duality")


def _multiplicities(row) -> dict:
    """A JSON object of JSON integers: an R row or a decomposition row."""
    return {key: _json(mult, int) for key, mult in _json(row, dict).items()}


def load_tables(ct: CartanType, directory: str | None = None) -> TypeTables:
    """Load and verify the tables for a type (A4: partial) from
    ``directory``, by default :func:`data_dir`.  Not cached: the audit
    context that holds the result is the per-directory cache.

    The one reader of row words: each is parsed once, here, and the tables
    returned are keyed by element index.  A file that cannot be opened,
    decoded as UTF-8 or parsed as JSON, or that gives one key twice in an
    object, fails its header."""
    path = Path(directory or data_dir()) / f"{ct.name}.json"
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_object)
    except (OSError, ValueError) as exc:  # ValueError: JSON and UTF-8 decoding
        raise _fail(ct, "header", f"cannot read {path.name}: {type(exc).__name__}: {exc}") from exc
    if not isinstance(raw, dict):
        raise _fail(ct, "header", f"file holds a {type(raw).__name__}, not a JSON object")
    if raw.get("type") != ct.name:
        raise _fail(ct, "header", f"file declares type {raw.get('type')!r}")
    g = generate(ct)
    refs = _table(ct, "refs", raw.get("refs", {}), dict)
    for key in ("min_prime", "proximity_bound", *_TABLES):
        if key not in raw:  # every file names every key; A4 writes its absent tables as null
            raise _fail(ct, key, "missing", refs)

    header = {key: raw[key] for key in ("min_prime", "proximity_bound")}
    min_prime, bound = _rows(ct, "header", refs, header, lambda _, v: _json(v, int)).values()

    if raw["unipotent"] is None:  # no tables: every slot is null
        for key in _TABLES:
            if raw[key] is not None:
                raise _fail(ct, key, "given, but unipotent is null", refs)
        return TypeTables(
            type=ct, min_prime=min_prime, proximity_bound=bound,
            unipotent=None, words=None, r_alpha=None, m_w=None, delta=None, duality=None,
        )
    for key in _TABLES:
        _table(ct, key, raw[key], list if key == "unipotent" else dict, refs)

    unip = tuple(_rows(ct, "unipotent", refs, raw["unipotent"], lambda _, u: UnipotentChar(
        _json(u["label"], str), _parse(ct, "unipotent", u["label"], u["degree"], refs, g.nu),
    )).values())
    labels = [u.label for u in unip]
    if len(set(labels)) != len(labels):
        raise _fail(ct, "unipotent", "duplicate labels", refs)
    by_label = {u.label: u for u in unip}
    if "1" not in by_label or by_label["1"].degree != IntPoly.one():
        raise _fail(ct, "unipotent", "degree of '1' is not 1", refs)
    if "S" not in by_label or by_label["S"].degree != IntPoly.monomial(g.nu):
        raise _fail(ct, "unipotent", f"degree of 'S' is not t^{g.nu}", refs)
    for u in unip:
        if u.degree.leading_sign() <= 0:
            raise _fail(ct, "unipotent", f"{u.label}: non-positive leading coefficient", refs)

    words: dict[int, str] = {}  # element -> the file's spelling of its row

    def r_row(w, row):
        wi = g.parse_word(w)
        if wi in words:
            raise _fail(ct, "r_alpha", f"duplicate element for word {w!r}", refs)
        words[wi] = w
        row = _multiplicities(row)
        if not row:
            raise _fail(ct, "r_alpha", f"empty row for {w!r}", refs)
        for lab, mult in row.items():
            if lab not in by_label:
                raise _fail(ct, "r_alpha", f"unknown label {lab!r} in row {w!r}", refs)
            if mult <= 0:
                raise _fail(ct, "r_alpha", f"bad multiplicity {mult!r} at ({w},{lab})", refs)
        return row

    r_alpha = _rows(ct, "r_alpha", refs, raw["r_alpha"], r_row)
    index = {w: i for i, w in words.items()}
    covered = {lab for row in r_alpha.values() for lab in row}
    if covered != set(labels):
        raise _fail(ct, "r_alpha", f"labels never used: {sorted(set(labels) - covered)}", refs)

    def m_term(w, term):
        coef = _json(term["coef"], int)
        if coef not in (1, -1):
            raise _fail(ct, "m_w", f"coefficient {coef} at {w!r} is not +-1", refs)
        tmpl = WeightTemplate(tuple((_json(a, int), _json(b, int)) for a, b in term["template"]))
        if len(tmpl.coords) != ct.rank:
            raise _fail(ct, "m_w", f"template rank mismatch at {w!r}", refs)
        if any(c1 not in (0, 1) for _, c1 in tmpl.coords):
            raise _fail(ct, "m_w", f"template p-coefficient outside {{0,1}} at {w!r}", refs)
        if not tmpl.instantiate(min_prime).is_restricted(min_prime):
            raise _fail(
                ct, "m_w",
                f"template {tmpl} not restricted at the minimum prime {min_prime}",
                refs,
            )
        return coef, tmpl

    m_w = _rows(ct, "m_w", refs, raw["m_w"],
                lambda w, terms: tuple(m_term(w, term) for term in _json(terms, list)))
    delta = _rows(ct, "delta", refs, raw["delta"],
                  lambda w, text: _parse(ct, "delta", w, text, refs, g.nu))
    if not (set(m_w) == set(index) == set(delta)):
        raise _fail(ct, "m_w/delta", "row keys differ from the r_alpha keys", refs)

    decomp = _rows(ct, "decomp", refs, raw["decomp"], lambda _, row: _multiplicities(row))
    if set(decomp) != set(labels):
        raise _fail(ct, "decomp", "rows do not match the unipotent labels", refs)
    if decomp != transpose(r_alpha):  # every label has a row: checked above
        raise _fail(ct, "decomp", "table is not the transpose of r_alpha", refs)

    duality = _rows(ct, "duality", refs, raw["duality"], lambda _, wt: index.get(wt))
    if set(duality) != set(index):
        raise _fail(ct, "duality", "involution not defined on exactly the R rows", refs)
    duality = {index[w]: wt for w, wt in duality.items()}
    for w, wt in duality.items():
        if duality.get(wt) != w:
            raise _fail(ct, "duality", f"not involutive at {words[w]!r}", refs)

    return TypeTables(
        type=ct, min_prime=min_prime, proximity_bound=bound,
        unipotent=unip, words=words,
        r_alpha={index[w]: row for w, row in r_alpha.items()},
        m_w={index[w]: terms for w, terms in m_w.items()},
        delta={index[w]: pi for w, pi in delta.items()},
        duality=duality,
    )


def transpose(rows: dict) -> dict:
    """{a: {b: m}} as {b: {a: m}}: R rows by element as rows by label."""
    inner = dict.fromkeys(b for row in rows.values() for b in row)  # in first-seen order
    return {b: {a: row[b] for a, row in rows.items() if b in row} for b in inner}


def derived_r_alpha(
    g: WeylGroup,
    alpha: dict[int, dict[str, int]],
    j_members: frozenset[int],
) -> dict[int, dict[str, int]]:
    """R rows generated from the leading coefficients ``alpha[w][label]``
    (type A without shipped data).

    Rows are keyed by element index, ascending; multiplicities must come out
    non-negative, which is checked.
    """
    rows: dict[int, dict[str, int]] = {}
    for w in sorted(j_members):
        row = alpha[w]
        for lab, mult in row.items():
            if mult < 0:
                raise DataIntegrityFailure(
                    f"negative derived multiplicity at ({g.word(w)},{lab})"
                )
        if not row:
            raise DataIntegrityFailure(f"empty derived row at {g.word(w)}")
        rows[w] = dict(row)
    return rows
