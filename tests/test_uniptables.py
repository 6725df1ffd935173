import json
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from cellred.poly import IntPoly
from cellred.rootdata import CartanType
from cellred.uniptables import (
    DataIntegrityFailure,
    WeightTemplate,
    data_dir,
    derived_r_alpha,
    load_tables,
    transpose,
)

from conftest import DATA_TYPE_NAMES, TYPE_NAMES, by_word


def _shipped_decomp(name):
    """The decomposition table as the data file ships it."""
    return json.loads((Path(data_dir()) / f"{name}.json").read_text(encoding="utf-8"))["decomp"]


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_all_files_load(name):
    tables = load_tables(CartanType.parse(name))
    assert tables.type.name == name
    if name == "A4":
        assert tables.unipotent is None
        assert tables.r_alpha is None and tables.words is None
        assert not tables.has_m_w_data
    else:
        assert tables.has_m_w_data
        assert tables.r_alpha is not None
        # one spelling per row, each the file's own key
        assert list(tables.words) == list(tables.r_alpha)


def test_degree_examples():
    b2 = load_tables(CartanType.parse("B2"))
    degree = {u.label: u.degree for u in b2.unipotent}
    assert degree["e1"] == IntPoly.parse("t(t^2+1)/2", 4)
    assert degree["1"] == IntPoly.one()
    assert degree["S"] == IntPoly.monomial(4)
    assert "zz" not in degree


def test_g2_template_example():
    g2 = load_tables(CartanType.parse("G2"))
    (coef, tmpl), = by_word(g2, g2.m_w)["121"]
    assert coef == 1
    assert tmpl == WeightTemplate(((-4, 1), (1, 0)))
    assert str(tmpl) == "(p-4,1)"
    assert tmpl.instantiate(7).coords == (3, 1)


def test_a3_decomposition_example():
    a3 = load_tables(CartanType.parse("A3"))
    assert _shipped_decomp("A3")["r''"] == {"121": 1, "13231": 1, "232": 1}
    assert transpose(by_word(a3, a3.r_alpha))["r''"] == {"121": 1, "13231": 1, "232": 1}
    # signed template combination for the interesting rows
    m_w = by_word(a3, a3.m_w)
    assert [c for c, _ in m_w["2"]] == [1, -1]
    assert [c for c, _ in m_w["2132"]] == [1, 1]


def test_r_alpha_multiplicities():
    b2 = load_tables(CartanType.parse("B2"))
    assert by_word(b2, b2.r_alpha)["121"]["theta"] == 1
    g2 = load_tables(CartanType.parse("G2"))
    assert by_word(g2, g2.r_alpha)["212"]["g"] == 1
    for name in DATA_TYPE_NAMES:
        t = load_tables(CartanType.parse(name))
        assert "S" not in by_word(t, t.r_alpha)["e"]


def test_transpose_swaps_row_and_column_keys():
    rows = {"e": {"1": 1}, "1": {"1": 2, "S": 1}}
    assert transpose(rows) == {"1": {"e": 1, "1": 2}, "S": {"1": 1}}
    assert transpose(transpose(rows)) == rows


@pytest.mark.parametrize("name", DATA_TYPE_NAMES)
def test_decomp_is_transpose_of_r_alpha(name):
    t = load_tables(CartanType.parse(name))
    decomp = _shipped_decomp(name)
    r_alpha = by_word(t, t.r_alpha)
    for lab, row in decomp.items():
        for word, mult in row.items():
            assert r_alpha[word][lab] == mult
    for word, row in r_alpha.items():
        for lab, mult in row.items():
            assert decomp[lab][word] == mult


@pytest.mark.parametrize("name", DATA_TYPE_NAMES)
def test_duality_is_involutive(name):
    t = load_tables(CartanType.parse(name))
    for w, wt in t.duality.items():
        assert t.duality[wt] == w


@pytest.mark.parametrize("name", DATA_TYPE_NAMES)
def test_templates_restricted_at_min_prime(name):
    t = load_tables(CartanType.parse(name))
    for terms in t.m_w.values():
        for _, tmpl in terms:
            lam = tmpl.instantiate(t.min_prime)
            assert lam.is_restricted(t.min_prime)


@pytest.mark.parametrize("name", TYPE_NAMES)
def test_near_involution_words_match_computed(name, ctx):
    t = load_tables(CartanType.parse(name))
    if t.r_alpha is None:
        return
    assert frozenset(t.r_alpha) == ctx(name).jset


def test_loader_rejects_corrupted_table(tmp_path, monkeypatch):
    src = load_tables(CartanType.parse("A1"))
    # rebuild the A1 file with a broken decomposition table
    raw = {
        "type": "A1",
        "min_prime": 2,
        "proximity_bound": 4,
        "refs": {},
        "unipotent": [
            {"label": "1", "degree": "1", "ref": "1.3"},
            {"label": "S", "degree": "t", "ref": "1.3"},
        ],
        "r_alpha": {"e": {"1": 1}, "1": {"S": 1}},
        "m_w": {
            "e": [{"coef": 1, "template": [[0, 0]]}],
            "1": [{"coef": 1, "template": [[-1, 1]]}],
        },
        "delta": {"e": "1", "1": "t"},
        "decomp": {"1": {"e": 1}, "S": {"e": 1}},  # wrong transpose
        "duality": {"e": "1", "1": "e"},
    }
    (tmp_path / "A1.json").write_text(json.dumps(raw))
    monkeypatch.setenv("CELLRED_DATA_DIR", str(tmp_path))
    with pytest.raises(DataIntegrityFailure):
        load_tables(CartanType.parse("A1"))
    assert transpose(by_word(src, src.r_alpha))["S"] == {"1": 1}


def test_derived_rows_for_a4(ctx):
    c = ctx("A4")
    rows = derived_r_alpha(c.group, c.leading.alpha, c.jset)
    assert list(rows) == sorted(c.jset)
    rows = {c.group.word(w): row for w, row in rows.items()}
    assert len(rows) == 26
    assert rows["e"] == {"5": 1}
    w0 = c.group.word(c.group.size - 1)
    assert rows[w0] == {"11111": 1}
    assert all(all(m > 0 for m in row.values()) for row in rows.values())


@dataclass
class Whole:
    """A corruption that writes ``doc`` in place of the whole file."""

    doc: object


TABLES = ("unipotent", "r_alpha", "m_w", "delta", "decomp", "duality")

# One case per invariant the loader checks: (where, message, corruption of
# the shipped B2 file, which edits it in place or returns a Whole).
LOADER_FAULTS = [
    pytest.param("header", "file declares type 'A2'",
                 lambda raw: raw.update(type="A2"), id="header"),
    pytest.param("unipotent", "duplicate labels",
                 lambda raw: raw["unipotent"].append(dict(raw["unipotent"][1])),
                 id="duplicate-label"),
    pytest.param("unipotent", "degree of '1' is not 1",
                 lambda raw: raw["unipotent"][0].update(degree="t"), id="degree-1"),
    pytest.param("unipotent", r"degree of 'S' is not t\^4",
                 lambda raw: raw["unipotent"][5].update(degree="t^3"), id="degree-S"),
    pytest.param("unipotent", "r: cannot parse 't/0': division of polynomial by zero",
                 lambda raw: raw["unipotent"][1].update(degree="t/0"), id="degree-div0"),
    pytest.param("unipotent", r"r: cannot parse 't\+': bad polynomial 't\+' at 2: expected factor",
                 lambda raw: raw["unipotent"][1].update(degree="t+"), id="degree-syntax"),
    pytest.param("unipotent", "r: non-positive leading coefficient",
                 lambda raw: raw["unipotent"][1].update(degree="-t"), id="negative-degree"),
    pytest.param("unipotent", "e1: non-positive leading coefficient",
                 lambda raw: raw["unipotent"][2].update(degree="0"), id="zero-degree"),
    pytest.param("r_alpha", "duplicate element for word '2121'",
                 lambda raw: raw["r_alpha"].update({"2121": {"S": 1}}), id="duplicate-element"),
    pytest.param("r_alpha", "empty row for 'e'",
                 lambda raw: raw["r_alpha"]["e"].clear(), id="empty-row"),
    pytest.param("r_alpha", "unknown label 'zz' in row 'e'",
                 lambda raw: raw["r_alpha"]["e"].update(zz=1), id="unknown-label"),
    pytest.param("r_alpha", r"bad multiplicity 0 at \(e,1\)",
                 lambda raw: raw["r_alpha"]["e"].update({"1": 0}), id="bad-multiplicity"),
    pytest.param("r_alpha", r"labels never used: \['new'\]",
                 lambda raw: raw["unipotent"].append({"label": "new", "degree": "t"}),
                 id="unused-label"),
    pytest.param("m_w", r"coefficient 2 at 'e' is not \+-1",
                 lambda raw: raw["m_w"]["e"][0].update(coef=2), id="coefficient"),
    pytest.param("m_w", "template rank mismatch at 'e'",
                 lambda raw: raw["m_w"]["e"][0].update(template=[[0, 0]]), id="rank"),
    pytest.param("m_w", r"template p-coefficient outside \{0,1\} at 'e'",
                 lambda raw: raw["m_w"]["e"][0].update(template=[[0, 2], [0, 0]]),
                 id="p-coefficient"),
    pytest.param("m_w", r"template \(3,0\) not restricted at the minimum prime 3",
                 lambda raw: raw["m_w"]["e"][0].update(template=[[3, 0], [0, 0]]),
                 id="unrestricted"),
    pytest.param("delta", "1: cannot parse 't/0': division of polynomial by zero",
                 lambda raw: raw["delta"].update({"1": "t/0"}), id="delta-div0"),
    pytest.param("delta", r"1: cannot parse 't\+': bad polynomial 't\+' at 2: expected factor",
                 lambda raw: raw["delta"].update({"1": "t+"}), id="delta-syntax"),
    pytest.param("m_w/delta", "row keys differ from the r_alpha keys",
                 lambda raw: raw["delta"].pop("e"), id="delta-keys"),
    pytest.param("decomp", "rows do not match the unipotent labels",
                 lambda raw: raw["decomp"].pop("S"), id="decomp-rows"),
    pytest.param("decomp", "table is not the transpose of r_alpha",
                 lambda raw: raw["decomp"].update(S={"1212": 2}), id="decomp-transpose"),
    pytest.param("duality", "involution not defined on exactly the R rows",
                 lambda raw: raw["duality"].pop("e"), id="duality-domain"),
    pytest.param("duality", "not involutive at 'e'",
                 lambda raw: raw["duality"].update(e="1"), id="not-involutive"),
    *(pytest.param(key, "missing", lambda raw, key=key: raw.pop(key), id=f"{key}-missing")
      for key in ("min_prime", "proximity_bound", "unipotent", "r_alpha", "m_w", "delta",
                  "decomp", "duality")),
    # a leaf of the wrong shape: the loader's own KeyError, TypeError or
    # ValueError, labelled with the table and the row
    pytest.param("m_w", "row '1': KeyError: 'coef'",
                 lambda raw: raw["m_w"]["1"][0].pop("coef"), id="coef-missing"),
    pytest.param("r_alpha", "row '1': TypeError: not a JSON object: 5",
                 lambda raw: raw["r_alpha"].update({"1": 5}), id="row-not-object"),
    pytest.param("r_alpha", "row '13': BadGeneratorIndex: '3' is not a generator index of B2",
                 lambda raw: raw["r_alpha"].update({"13": raw["r_alpha"].pop("1")}),
                 id="word-bad-generator"),
    pytest.param("m_w",
                 r"row 'e': ValueError: not enough values to unpack \(expected 2, got 1\)",
                 lambda raw: raw["m_w"]["e"][0].update(template=[[0], [0, 0]]),
                 id="one-entry-template-pair"),
    pytest.param("header", "row 'min_prime': TypeError: not a JSON integer: 'seven'",
                 lambda raw: raw.update(min_prime="seven"), id="min-prime-not-int"),
    # integer leaves refuse what int() would truncate or convert
    *(pytest.param("header", f"row 'min_prime': TypeError: not a JSON integer: {value!r}",
                   lambda raw, value=value: raw.update(min_prime=value), id=f"min-prime-{name}")
      for name, value in (("float", 3.9), ("string", "7"), ("bool", True))),
    pytest.param("header", "row 'proximity_bound': TypeError: not a JSON integer: 4.0",
                 lambda raw: raw.update(proximity_bound=4.0), id="proximity-bound-float"),
    pytest.param("m_w", "row 'e': TypeError: not a JSON integer: 1.0",
                 lambda raw: raw["m_w"]["e"][0].update(coef=1.0), id="coef-float"),
    pytest.param("m_w", "row 'e': TypeError: not a JSON integer: 0.5",
                 lambda raw: raw["m_w"]["e"][0].update(template=[[0.5, 0], [0, 0]]),
                 id="template-float"),
    pytest.param("m_w", "row 'e': TypeError: not a JSON integer: '1'",
                 lambda raw: raw["m_w"]["e"][0].update(template=[[0, "1"], [0, 0]]),
                 id="template-string"),
    # a document or a refs that is not a JSON object
    pytest.param("header", "file holds a list, not a JSON object",
                 lambda raw: Whole([raw]), id="file-not-object"),
    pytest.param("refs", "a list, not a JSON object",
                 lambda raw: raw.update(refs=[["header", "x"]]), id="refs-not-object"),
    pytest.param("unipotent", "row 1: KeyError: 'label'",
                 lambda raw: raw["unipotent"][1].pop("label"), id="label-missing"),
    # leaves of the right value and the wrong JSON type: a multiplicity is an
    # integer, a label or a polynomial a string
    pytest.param("r_alpha", "row 'e': TypeError: not a JSON integer: True",
                 lambda raw: raw["r_alpha"]["e"].update({"1": True}), id="multiplicity-bool"),
    *(pytest.param("decomp", f"row '1': TypeError: not a JSON integer: {value!r}",
                   lambda raw, value=value: raw["decomp"]["1"].update(e=value),
                   id=f"decomp-{name}")
      for name, value in (("float", 1.0), ("bool", True))),
    pytest.param("r_alpha", r"row 'e': TypeError: not a JSON object: \[\['1', 1\]\]",
                 lambda raw: raw["r_alpha"].update(e=[["1", 1]]), id="row-pairs"),
    pytest.param("delta", r"row '1': TypeError: not a JSON string: \['t'\]",
                 lambda raw: raw["delta"].update({"1": ["t"]}), id="delta-list"),
    pytest.param("unipotent", r"row 1: TypeError: not a JSON string: \['t'\]",
                 lambda raw: raw["unipotent"][1].update(degree=["t"]), id="degree-list"),
    pytest.param("unipotent", r"row 1: TypeError: not a JSON string: \['r'\]",
                 lambda raw: raw["unipotent"][1].update(label=["r"]), id="label-list"),
    # a table of the wrong JSON type, or null beside tables that are given
    pytest.param("r_alpha", "a list, not a JSON object",
                 lambda raw: raw.update(r_alpha=list(raw["r_alpha"].values())),
                 id="r-alpha-list"),
    pytest.param("r_alpha", "a str, not a JSON object",
                 lambda raw: raw.update(r_alpha="e"), id="r-alpha-string"),
    pytest.param("unipotent", "a dict, not a JSON array",
                 lambda raw: raw.update(unipotent={u["label"]: u for u in raw["unipotent"]}),
                 id="unipotent-object"),
    *(pytest.param(key, "a NoneType, not a JSON object",
                   lambda raw, key=key: raw.update({key: None}), id=f"{key}-null")
      for key in ("r_alpha", "m_w", "delta", "decomp", "duality")),
    pytest.param("r_alpha", "given, but unipotent is null",
                 lambda raw: raw.update(dict.fromkeys(TABLES, None), r_alpha=7),
                 id="given-beside-null"),
]


@pytest.mark.parametrize("where, message, corrupt", LOADER_FAULTS)
def test_loader_names_each_violated_invariant(data_copy, where, message, corrupt):
    path = data_copy / "B2.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    whole = corrupt(raw)
    doc = whole.doc if isinstance(whole, Whole) else raw
    path.write_text(json.dumps(doc), encoding="utf-8")
    pattern = rf"^B2 tables, {re.escape(where)}( \(ref [^)]*\))?: {message}$"
    with pytest.raises(DataIntegrityFailure, match=pattern):
        load_tables(CartanType.parse("B2"))


def _cut_short(path):
    path.write_bytes(path.read_bytes()[:500])


def _not_utf8(path):
    path.write_bytes(path.read_bytes().replace(b'"B2"', b'"B\xff2"', 1))


@pytest.mark.parametrize("damage, error", [
    (_cut_short, r"JSONDecodeError: .*line \d+ column \d+"),
    (_not_utf8, "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff"),
    (Path.unlink, "FileNotFoundError: "),
], ids=("cut-short", "not-utf8", "missing"))
def test_an_unreadable_file_fails_its_header(data_copy, damage, error):
    damage(data_copy / "B2.json")
    with pytest.raises(DataIntegrityFailure, match=rf"^B2 tables, header: cannot read B2\.json: {error}"):
        load_tables(CartanType.parse("B2"))


@pytest.mark.parametrize("fault, message", [
    ("negative", r"negative derived multiplicity at \(1,21\)"),
    ("empty", "empty derived row at 1"),
], ids=("negative", "empty"))
def test_derived_rows_reject_bad_leading_coefficients(ctx, fault, message):
    c = ctx("A2")
    g = c.group
    s = g.parse_word("1")
    coeffs = {w: dict(row) for w, row in c.leading.alpha.items()}
    if fault == "negative":
        coeffs[s]["21"] = -1
    else:
        coeffs[s] = {}
    with pytest.raises(DataIntegrityFailure, match=message):
        derived_r_alpha(g, coeffs, c.jset)
