import contextlib
import signal
from fractions import Fraction
from pathlib import Path

import pytest

from cellred import uniptables
from cellred.audit import get_context
from cellred.rootdata import CartanType

TYPE_NAMES = ("A1", "A2", "A3", "A4", "B2", "G2")
DATA_TYPE_NAMES = ("A1", "A2", "A3", "B2", "G2")  # types with shipped tables


def char_value(table, label: str, w: int) -> int:
    """The character ``label`` of a ``heckechar.WCharTable`` at element w;
    w = 0, the identity, gives its dimension."""
    k = next(k for k, c in enumerate(table.classes) if w in c)
    return table.values[table.labels.index(label)][k]


def value_at(f, x: int) -> Fraction:
    """The value of the ``IntPoly`` f at the int x (nonzero if f has a
    negative exponent), from its reduced numerators over its denominator."""
    return sum((a * Fraction(x) ** k for k, a in f._n.items()), Fraction(0)) / f._d


class Overrun(BaseException):
    """Raised by :func:`deadline`; not an Exception, so that no handler of
    the code under test turns it into a report row."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise :class:`Overrun` in the body if it runs past ``seconds`` of
    wall time (SIGALRM: Unix, main thread)."""
    def expire(signum, frame):
        raise Overrun(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def by_word(tables, rows: dict) -> dict:
    """A table's ``rows``, keyed by element index, keyed by the data file's
    spelling instead."""
    return {tables.words[w]: row for w, row in rows.items()}


@pytest.fixture(scope="session")
def ctx():
    """Shared per-type computation contexts (the A4 build is the heavy one)."""
    def build(name: str):
        return get_context(CartanType.parse(name))
    return build


@pytest.fixture
def data_copy(tmp_path, monkeypatch):
    """A copy of the shipped data files that the loader reads from instead."""
    shipped = Path(uniptables.__file__).with_name("data")
    for src in shipped.glob("*.json"):
        (tmp_path / src.name).write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
    monkeypatch.setenv("CELLRED_DATA_DIR", str(tmp_path))
    return tmp_path
