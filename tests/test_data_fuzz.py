"""Every shipped data file, mutated at every node, fails only as a labelled
``DataIntegrityFailure``.

Each node of each file is deleted, set to null, and swapped for the same
content in another JSON form: an integer as a float and as a string, a
string as a one-element array, an object as the array of its values and as
the array of its (key, value) pairs, an array as an object keyed by
position, and null as an empty object and an empty array.  Each word (the
row keys, the keys of the decomposition rows and the words of the duality)
gets a generator past the rank, and each polynomial a trailing "+" and,
in its place, the zero polynomial "0".

The loader refuses a mutation with a ``DataIntegrityFailure`` naming its
type, or accepts it; an accepted mutation touches an annotation (``refs``,
``note``, an entry's ``ref``) or the audit refuses it with a
``DataIntegrityFailure``, as ``weylmod.delta_table`` refuses a deleted
template term.  One refused mutation per table also goes through ``audit
--all`` and ``tables dump``: exit 3, and the other types' output as in a
clean run.
"""

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import pytest

from cellred import audit, uniptables
from cellred.cli import main
from cellred.rootdata import CartanType
from cellred.uniptables import DataIntegrityFailure, load_tables

SHIPPED = Path(uniptables.__file__).with_name("data")
ROW_TABLES = ("r_alpha", "m_w", "delta", "duality")  # tables keyed by word
ANNOTATIONS = ("refs", "note")
INTERNAL = "internal error: "


@dataclass(frozen=True)
class Mutation:
    name: str  # the type whose file is mutated
    path: tuple  # keys from the document root to the mutated node
    kind: str
    text: str  # the mutated file
    error: Exception | None  # what load_tables raised

    @property
    def annotation(self) -> bool:
        return self.path[0] in ANNOTATIONS or self.path[-1] == "ref"


def _nodes(doc, path=()):
    """(path, value) of every node below the root, depth first."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield path + (key,), value
            yield from _nodes(value, path + (key,))


def _swaps(value) -> list:
    if value is None:
        return [{}, []]
    if isinstance(value, dict):
        return [None, list(value.values()), [[k, v] for k, v in value.items()]]
    if isinstance(value, list):
        return [None, {str(i): v for i, v in enumerate(value)}]
    if isinstance(value, str):
        return [None, [value]]
    return [None, float(value), str(value)]  # the files hold no float or boolean


def _edits(path, value, rank: int):
    """(kind, edit) pairs; an edit changes the node's parent in place."""
    key = path[-1]

    def delete(parent):
        del parent[key]

    yield "delete", delete
    for swap in _swaps(value):
        def put(parent, swap=swap):
            parent[key] = swap
        yield f"{type(swap).__name__} {json.dumps(swap)[:40]}", put
    bad = str(rank + 1)  # no generator of this rank
    if (len(path) == 2 and path[0] in ROW_TABLES) or (len(path) == 3 and path[0] == "decomp"):
        def rename(parent):
            parent[key.replace("e", "") + bad] = parent.pop(key)
        yield "bad generator in a key", rename
    if len(path) == 2 and path[0] == "duality" and isinstance(value, str):
        def reword(parent):
            parent[key] = value.replace("e", "") + bad
        yield "bad generator in a word", reword
    if path[-1] == "degree" or (len(path) == 2 and path[0] == "delta"):
        def unparsable(parent):
            parent[key] = value + "+"
        yield "unparsable polynomial", unparsable

        def zero(parent):
            parent[key] = "0"
        yield "zero polynomial", zero


def _mutations(name: str, text: str):
    """(path, kind, mutated text) for every mutation of one file."""
    rank = CartanType.parse(name).rank
    for path, value in list(_nodes(json.loads(text))):
        for kind, edit in _edits(path, value, rank):
            doc = json.loads(text)
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            edit(parent)
            yield path, kind, json.dumps(doc)


@pytest.fixture(scope="module")
def mutations(tmp_path_factory) -> list[Mutation]:
    """Every mutation of every shipped file, loaded from a copy of the data."""
    copy = tmp_path_factory.mktemp("data")
    out = []
    for src in sorted(SHIPPED.glob("*.json")):
        name, text = src.stem, src.read_text(encoding="utf-8")
        for path, kind, mutated in _mutations(name, text):
            (copy / src.name).write_text(mutated, encoding="utf-8")
            try:
                load_tables(CartanType.parse(name), str(copy))
                error = None
            except Exception as exc:  # any class: the test below checks it
                error = exc
            out.append(Mutation(name, path, kind, mutated, error))
        (copy / src.name).write_text(text, encoding="utf-8")
    return out


@pytest.fixture
def fresh_data(tmp_path, monkeypatch):
    """A copy of the shipped data that ``CELLRED_DATA_DIR`` points at, with
    every audit context built anew, since the copy's files change under
    one directory name."""
    shutil.copytree(SHIPPED, tmp_path / "data")
    monkeypatch.setenv("CELLRED_DATA_DIR", str(tmp_path / "data"))
    monkeypatch.setattr(audit, "get_context",
                        lambda ct: audit.TypeContext(ct, uniptables.data_dir()))
    return tmp_path / "data"


def test_the_loader_refuses_mutations_only_with_a_label(mutations):
    assert len(mutations) > 2500
    unlabelled = [
        (m.name, m.path, m.kind, f"{type(m.error).__name__}: {m.error}") for m in mutations
        if m.error is not None and not (isinstance(m.error, DataIntegrityFailure)
                                        and str(m.error).startswith(f"{m.name} tables, "))
    ]
    assert not unlabelled, unlabelled[:10]


def test_a_mutation_the_loader_accepts_is_an_annotation_or_refused_by_the_audit(
        mutations, fresh_data):
    accepted = [m for m in mutations if m.error is None and not m.annotation]
    assert accepted  # deleted template terms, at least
    for m in accepted:
        (fresh_data / f"{m.name}.json").write_text(m.text, encoding="utf-8")
        details = [c.details for c in audit.run_checks(CartanType.parse(m.name)).checks]
        internal = [d for d in details if d.startswith(INTERNAL)]
        assert internal, (m.name, m.path, m.kind, details)
        for d in internal:
            assert d.startswith(f"{INTERNAL}DataIntegrityFailure: "), (m.name, m.path, m.kind, d)
        shutil.copy(SHIPPED / f"{m.name}.json", fresh_data)


def _where(m: Mutation) -> str:
    """The table a refusal names: ``<type> tables, <table> (ref ...): ...``."""
    return str(m.error).removeprefix(f"{m.name} tables, ").split(":")[0].split(" (ref")[0]


def _run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_a_refusal_per_table_fails_only_its_type_in_audit_and_dump(
        mutations, fresh_data, capsys):
    clean_audit = {r["type"]: r for r in json.loads(_run(capsys, "audit", "--all")[1])}
    samples = {}
    for m in mutations:
        if isinstance(m.error, DataIntegrityFailure):
            samples.setdefault(_where(m), m)
    assert {"header", "refs", "unipotent", "r_alpha", "m_w", "delta", "decomp",
            "duality"} <= set(samples)
    for where, m in samples.items():
        (fresh_data / f"{m.name}.json").write_text(m.text, encoding="utf-8")
        code, out, err = _run(capsys, "audit", "--all")
        assert (code, err) == (3, ""), (where, m.path, m.kind)
        for report in json.loads(out):
            if report["type"] != m.name:
                assert report == clean_audit[report["type"]], (where, m.path, m.kind)
                continue
            internal = [c["details"] for c in report["checks"]
                        if c["details"].startswith(INTERNAL)]
            assert internal, (where, m.path, m.kind)
            for details in internal:
                assert details.startswith(f"{INTERNAL}DataIntegrityFailure: {m.error}"), details
        code, out, err = _run(capsys, "tables", "dump", "--what", "delta", "--type", m.name)
        assert (code, out, err) == (3, "", f"cellred: {m.error}\n"), (where, m.path, m.kind)
        other = "G2" if m.name == "B2" else "B2"
        mutated_dump = _run(capsys, "tables", "dump", "--what", "delta", "--type", other)
        shutil.copy(SHIPPED / f"{m.name}.json", fresh_data)
        assert mutated_dump == _run(capsys, "tables", "dump", "--what", "delta", "--type", other)
