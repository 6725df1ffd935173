"""Exact univariate polynomial arithmetic.

Two forms are used throughout the package:

* :class:`IntPoly` -- exact polynomials with integer exponents, negative
  ones allowed, and ``int`` or ``Fraction`` coefficients.  The variable is
  ``v`` for Hecke data (``v**2`` plays the role of the Hecke parameter
  ``u``, so half-integer powers of ``u`` never appear) and ``t`` for
  dimension polynomials such as ``t(t+1)(2t+1)/6``, which take integer
  values on integers without having integer coefficients.  Values are
  immutable; every operation returns a fresh object and is exact.

* Laurent arrays -- the bulk form of the ``v`` data: int64 numpy arrays
  whose last axis holds the coefficient of ``v**k`` at index ``k + off``,
  with explicit window and magnitude guards (see :func:`window_offset`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

import numpy as np


class ZeroPolynomial(ValueError):
    """Degree or extreme coefficient requested from the zero polynomial."""


class DegreeExceedsNu(ValueError):
    """reverse_at called with nu smaller than the degree."""


Scalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Exact polynomials
# ---------------------------------------------------------------------------

class IntPoly:
    """Exact polynomial, stored as a map exponent -> nonzero coefficient.

    The name records the dimension polynomials it was made for: integer
    valued on integers even though their coefficients are fractions.  The
    zero polynomial has no degree, because -1 is a real Laurent degree.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        self._c = {int(k): a for k, a in coeffs.items() if a} if coeffs else {}

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls()

    @classmethod
    def one(cls) -> "IntPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, k: int, coeff: Scalar = 1) -> "IntPoly":
        return cls({k: coeff})

    # -- inspection

    def coeffs(self) -> dict[int, Scalar]:
        return dict(self._c)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def degree(self) -> int:
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no degree")
        return max(self._c)

    def lowest_degree(self) -> int:
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no lowest degree")
        return min(self._c)

    def leading_coefficient(self) -> Scalar:
        return self._c[self.degree()]

    def __call__(self, x: Scalar) -> Scalar:
        """The value at ``x``, exact: at an int it is an int unless a
        ``Fraction`` coefficient or a negative exponent makes it a fraction."""
        return sum(a * (x ** k if k >= 0 else Fraction(1, x) ** -k) for k, a in self._c.items())

    def is_integer_valued(self) -> bool:
        """Whether every integer maps to an integer; the values at
        0..deg+1 decide it.  Needs no negative exponent."""
        if not self._c:
            return True
        return all(self(k).denominator == 1 for k in range(self.degree() + 2))

    # -- arithmetic

    @staticmethod
    def _coerce(x) -> "IntPoly":
        if isinstance(x, IntPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return IntPoly({0: x})
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for k, a in other._c.items():
            c[k] = c.get(k, 0) + a
        return IntPoly(c)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly({k: -a for k, a in self._c.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return IntPoly({k: a * other for k, a in self._c.items()})
        if not isinstance(other, IntPoly):
            return NotImplemented
        c: dict[int, Scalar] = {}
        for k1, a1 in self._c.items():
            for k2, a2 in other._c.items():
                c[k1 + k2] = c.get(k1 + k2, 0) + a1 * a2
        return IntPoly(c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero")
            return IntPoly({k: Fraction(a) / other for k, a in self._c.items()})
        return NotImplemented

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = IntPoly.one()
        for _ in range(n):
            out = out * self
        return out

    # -- equality / hashing / display

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self):
        return f"IntPoly({self._c!r})"

    def render(self) -> str:
        """Readable display in ``t``: the t-power and denominator pulled
        out, e.g. ``t^2(5t^2+1)/6``.  Parses back to an equal polynomial
        when no exponent is negative."""
        if not self._c:
            return "0"
        den = math.lcm(*(a.denominator for a in self._c.values()))
        low = self.lowest_degree()
        prefix = "" if low == 0 else ("t" if low == 1 else f"t^{low}")
        body = []
        for k in sorted(self._c, reverse=True):
            n = int(self._c[k] * den)
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
            n = int(self._c[low] * den)
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
    def parse(cls, text: str) -> "IntPoly":
        """Parse expressions like ``t(t+1)(2t+1)/6`` or ``t^2(5t^2+1)/6``.

        Grammar: sums of terms; a term is a juxtaposed product of integers,
        ``t``/``t^k`` and parenthesised sub-expressions, optionally divided
        by a trailing integer.
        """
        return _Parser(text).parse()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> ValueError:
        return ValueError(f"bad polynomial {self.text!r} at {self.pos}: {msg}")

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
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        elif self.peek() == "+":
            self.pos += 1
        out = self.term() * sign
        while self.peek() and self.peek() in "+-":
            op = self.peek()
            self.pos += 1
            t = self.term()
            out = out + (t if op == "+" else -t)
        return out

    def term(self) -> IntPoly:
        out = self.factor()
        while True:
            ch = self.peek()
            if "0" <= ch <= "9" or ch == "t" or ch == "(":
                out = out * self.factor()
            elif ch == "*":
                self.pos += 1
                out = out * self.factor()
            elif ch == "/":
                self.pos += 1
                out = out / self.integer()
            else:
                return out

    def factor(self) -> IntPoly:
        ch = self.peek()
        if "0" <= ch <= "9":  # not str.isdigit, which takes '²' and '٢'
            base = IntPoly({0: self.integer()})
        elif ch == "t":
            self.pos += 1
            base = IntPoly.monomial(1)
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
            base = base ** self.integer()
        return base

    def integer(self) -> int:
        ch = self.peek()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise self.error("expected integer")
        return int(self.text[start:self.pos])


# ---------------------------------------------------------------------------
# Operations from the dimension-polynomial calculus
# ---------------------------------------------------------------------------

def reverse_at(nu: int, f: IntPoly) -> IntPoly:
    """``t**nu * f(1/t)``; requires deg f <= nu unless f is zero."""
    if f.is_zero:
        return f
    if f.degree() > nu:
        raise DegreeExceedsNu(f"degree {f.degree()} exceeds nu={nu}")
    return IntPoly({nu - k: a for k, a in f._c.items()})


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
