"""Exact univariate polynomial arithmetic.

Two forms are used throughout the package:

* :class:`IntPoly` -- exact polynomials with integer exponents, negative
  ones allowed, held as integer numerators over one positive denominator.
  The variable is ``v`` for Hecke data (``v**2`` plays the role of the
  Hecke parameter ``u``, so half-integer powers of ``u`` never appear) and
  ``t`` for dimension polynomials such as ``t(t+1)(2t+1)/6``, which take
  integer values on integers without having integer coefficients.  Values
  are immutable; every operation returns a fresh object and is exact, and
  does integer work only.  Ints go in and ints come out: a coefficient,
  scalar or evaluation point that is not an int is a TypeError, and a value
  at a point that is not an integer is a ValueError, so no rational or
  float is ever formed.

* Laurent arrays -- the bulk form of the ``v`` data: int64 numpy arrays
  whose last axis holds the coefficient of ``v**k`` at index ``k + off``,
  with explicit window and magnitude guards (see :func:`window_offset`).
"""

from __future__ import annotations

import math
import operator
from typing import Mapping

import numpy as np


class ZeroPolynomial(ValueError):
    """Degree requested from the zero polynomial."""


class DegreeExceedsNu(ValueError):
    """reverse_at called with nu smaller than the degree."""


# ---------------------------------------------------------------------------
# Exact polynomials
# ---------------------------------------------------------------------------

class IntPoly:
    """Exact polynomial ``sum(n[k] * t**k) / d``: nonzero integer numerators
    ``n`` keyed by exponent over one positive denominator ``d``, reduced so
    that ``gcd(d, *n.values()) == 1``; the zero polynomial has no numerators
    and ``d == 1``.  The reduced form is unique, so equality and hashing
    compare it directly.

    The name records the dimension polynomials it was made for: integer
    valued on integers even though their coefficients need not be.  The
    zero polynomial has no degree, because -1 is a real Laurent degree.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        """The polynomial with the int ``coeffs[k]`` as its coefficient of
        ``t**k``; any other coefficient is a TypeError."""
        items = (coeffs or {}).items()
        self._n, self._d = {operator.index(k): a for k, c in items if (a := operator.index(c))}, 1

    @classmethod
    def over(cls, numerators: Mapping[int, int], den: int) -> "IntPoly":
        """``sum(numerators[k] * t**k) / den`` for ints and a nonzero int ``den``."""
        den = operator.index(den)
        if den == 0:
            raise ZeroDivisionError("polynomial over a zero denominator")
        sign = 1 if den > 0 else -1
        return _of({k: a * sign for k, a in cls(numerators)._n.items()}, abs(den))

    @classmethod
    def zero(cls) -> "IntPoly":
        return _of({}, 1)

    @classmethod
    def one(cls) -> "IntPoly":
        return _of({0: 1}, 1)

    @classmethod
    def monomial(cls, k: int) -> "IntPoly":
        return _of({k: 1}, 1)

    # -- inspection

    @property
    def is_zero(self) -> bool:
        return not self._n

    def degree(self) -> int:
        if not self._n:
            raise ZeroPolynomial("zero polynomial has no degree")
        return max(self._n)

    def lowest_degree(self) -> int:
        if not self._n:
            raise ZeroPolynomial("zero polynomial has no lowest degree")
        return min(self._n)

    def leading_sign(self) -> int:
        """1, 0 or -1: the sign of the leading coefficient, that of its
        numerator as the denominator is positive; 0 for the zero polynomial."""
        if not self._n:
            return 0
        return 1 if self._n[max(self._n)] > 0 else -1

    def __call__(self, x: int) -> int:
        """The value at the int ``x``.  A negative exponent, checked first so
        that no float is formed, and a value that is not an integer are each
        a ValueError."""
        x = operator.index(x)
        if min(self._n, default=0) < 0:
            raise ValueError("no value of a polynomial with a negative exponent")
        value, rest = divmod(sum(a * x ** k for k, a in self._n.items()), self._d)
        if rest:
            raise ValueError(f"the value at {x} is not an integer")
        return value

    def is_integer_valued(self) -> bool:
        """Whether every integer maps to an integer: whether the denominator
        divides the numerators' value at each of 0..deg+1, which decide it.
        Needs no negative exponent."""
        d = self._d
        return d == 1 or all(
            sum(a * x ** k for k, a in self._n.items()) % d == 0
            for x in range(self.degree() + 2)
        )

    # -- arithmetic

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self._d, other._d
        d = d1 * d2 // math.gcd(d1, d2)
        s1, s2 = d // d1, d // d2
        c = {k: a * s1 for k, a in self._n.items()}
        for k, a in other._n.items():
            c[k] = c.get(k, 0) + a * s2
        return _of({k: a for k, a in c.items() if a}, d)

    __radd__ = __add__

    def __neg__(self):
        return _of({k: -a for k, a in self._n.items()}, self._d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c: dict[int, int] = {}
        for k1, a1 in self._n.items():
            for k2, a2 in other._n.items():
                c[k1 + k2] = c.get(k1 + k2, 0) + a1 * a2
        return _of({k: a for k, a in c.items() if a}, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("division of polynomial by zero")
        return IntPoly.over(self._n, self._d * other)

    # -- equality / hashing / display

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._d == other._d and self._n == other._n

    def __hash__(self):
        if self._d == 1 and self._n.keys() <= {0}:
            return hash(self._n.get(0, 0))  # equal to that int, so hashed as it
        return hash((frozenset(self._n.items()), self._d))

    def __repr__(self):
        if self._d == 1:
            return f"IntPoly({self._n!r})"
        return f"IntPoly.over({self._n!r}, {self._d})"

    def render(self) -> str:
        """Readable display in ``t``: the t-power and denominator pulled
        out, e.g. ``t^2(5t^2+1)/6``.  Parses back to an equal polynomial
        when no exponent is negative."""
        if not self._n:
            return "0"
        den = self._d
        low = self.lowest_degree()
        prefix = "" if low == 0 else ("t" if low == 1 else f"t^{low}")
        body = []
        for k in sorted(self._n, reverse=True):
            n = self._n[k]
            e = k - low
            if e == 0:
                mono = str(abs(n))
            else:
                tk = "t" if e == 1 else f"t^{e}"
                mono = tk if abs(n) == 1 else f"{abs(n)}{tk}"
            if not body:
                body.append(mono if n > 0 else f"-{mono}")
            else:
                body.append(f"+ {mono}" if n > 0 else f"- {mono}")
        text = " ".join(body)
        if len(body) == 1:
            n = self._n[low]
            if abs(n) == 1:
                head = ("-" if n < 0 else "") + (prefix or "1")
            else:
                head = f"{n}{prefix}"
        elif prefix:
            head = f"{prefix}({text})"
        elif den > 1:
            head = f"({text})"
        else:
            head = text
        return head if den == 1 else f"{head}/{den}"

    __str__ = render

    @classmethod
    def parse(cls, text: str, max_degree: int) -> "IntPoly":
        """Parse expressions like ``t(t+1)(2t+1)/6`` or ``t^2(5t^2+1)/6``.

        Grammar: sums of terms; a term is a juxtaposed product of integers,
        ``t``/``t^k`` and parenthesised sub-expressions, optionally divided
        by a trailing integer.  Input that would make the reader form a
        polynomial of degree above ``max_degree``, which has no default, or
        a numerator or denominator at or above :data:`MAGNITUDE_GUARD`, is
        refused as soon as it is read, so no entry makes the reader stall.
        """
        return _Parser(text, max_degree).parse()


def _of(n: dict[int, int], d: int) -> IntPoly:
    """The IntPoly of nonzero numerators ``n`` over ``d > 0``, reduced."""
    g = math.gcd(d, *n.values()) if d > 1 else 1
    if g > 1:
        n = {k: a // g for k, a in n.items()}
        d //= g
    out = object.__new__(IntPoly)
    out._n, out._d = n, d
    return out


def _coerce(x) -> IntPoly:
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return _of({0: x} if x else {}, 1)
    return NotImplemented  # type: ignore[return-value]


class _Parser:
    def __init__(self, text: str, max_degree: int):
        self.text = text
        self.pos = 0
        self.max_degree = max_degree

    def error(self, msg: str) -> ValueError:
        return ValueError(f"bad polynomial {self.text!r} at {self.pos}: {msg}")

    def guard(self, p: IntPoly) -> IntPoly:
        """``p``, unless its degree passes ``max_degree`` or one of its
        integers reaches :data:`MAGNITUDE_GUARD`."""
        if p._n and max(p._n) > self.max_degree:
            raise self.error(f"degree {max(p._n)} exceeds {self.max_degree}")
        if p._d >= MAGNITUDE_GUARD or any(abs(a) >= MAGNITUDE_GUARD for a in p._n.values()):
            raise self.error("a coefficient or denominator reaches the magnitude guard")
        return p

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> IntPoly:
        out = self.expr()
        if self.peek():
            raise self.error("trailing input")
        return out

    def expr(self) -> IntPoly:
        op = self.peek()
        if op and op in "+-":
            self.pos += 1
        out = -self.term() if op == "-" else self.term()
        while (op := self.peek()) and op in "+-":
            self.pos += 1
            t = self.term()
            out = self.guard(out + (t if op == "+" else -t))
        return out

    def term(self) -> IntPoly:
        out = self.factor()
        while True:
            ch = self.peek()
            if "0" <= ch <= "9" or ch == "t" or ch == "(":
                out = self.guard(out * self.factor())
            elif ch == "*":
                self.pos += 1
                out = self.guard(out * self.factor())
            elif ch == "/":
                self.pos += 1
                out = self.guard(out / self.integer())
            else:
                return out

    def factor(self) -> IntPoly:
        ch = self.peek()
        if "0" <= ch <= "9":  # not str.isdigit, which takes '²' and '٢'
            base = _coerce(self.integer())
        elif ch == "t":
            self.pos += 1
            base = _of({1: 1}, 1)
        elif ch == "(":
            self.pos += 1
            base = self.expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
        else:
            raise self.error("expected factor")
        if self.peek() == "^":
            self.pos += 1
            base = self.power(base, self.integer())
        return base

    def power(self, base: IntPoly, e: int) -> IntPoly:
        """``base ** e`` by repeated squaring, every product guarded; no step
        forms a degree or denominator above the result's, so a large power
        is refused within about 50 squarings."""
        out = IntPoly.one()
        while True:
            if e & 1:
                out = self.guard(out * base)
            e >>= 1
            if not e:
                return out
            base = self.guard(base * base)

    def integer(self) -> int:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise self.error("expected integer")
        digits = self.text[start:self.pos].lstrip("0") or "0"
        value = int(digits) if len(digits) < 20 else MAGNITUDE_GUARD  # no int() of a long run
        if value >= MAGNITUDE_GUARD:
            raise self.error("an integer reaches the magnitude guard")
        return value


# ---------------------------------------------------------------------------
# Operations from the dimension-polynomial calculus
# ---------------------------------------------------------------------------

def reverse_at(nu: int, f: IntPoly) -> IntPoly:
    """``t**nu * f(1/t)``; requires deg f <= nu unless f is zero."""
    if f.is_zero:
        return f
    if f.degree() > nu:
        raise DegreeExceedsNu(f"degree {f.degree()} exceeds nu={nu}")
    return _of({nu - k: a for k, a in f._n.items()}, f._d)


# ---------------------------------------------------------------------------
# Laurent arrays: int64 coefficient windows over a stated offset
# ---------------------------------------------------------------------------

# Every integer an int64 bulk step forms stays below this bound, far inside
# int64, so that no step overflows silently.
MAGNITUDE_GUARD = 2 ** 50


def window_offset(nu: int) -> int:
    """Offset of the window for Laurent data of |v-degree| <= ``nu``.

    The window has width ``2 * off + 1``.  One slot beyond ``nu`` on each
    side holds a product by ``v + v**-1`` before it cancels; the outermost
    slot is a guard that :func:`check_window` requires to be zero, which
    proves that no shift pushed a coefficient out of the window.  The
    passes of :mod:`cellred.klcells` hold one degree parity per entry, the
    canonical basis degrees ``-off..+1`` (``(off + 1) // 2 + 1`` slots) and
    the structure constants degrees ``0..off`` (``off // 2 + 1`` slots),
    and check that no nonzero term sits at a guard degree.
    """
    return nu + 2


def check_window(a: np.ndarray, what: str) -> None:
    if a[..., 0].any() or a[..., -1].any():
        raise AssertionError(f"{what} exponent window exceeded")


def check_magnitude(bound: int, what: str) -> None:
    """Raise unless ``bound``, a bound on every integer a step forms, is
    below :data:`MAGNITUDE_GUARD`."""
    if bound >= MAGNITUDE_GUARD:
        raise AssertionError(f"{what} magnitude guard tripped")
