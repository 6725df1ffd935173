"""Exact univariate polynomial arithmetic.

Three forms are used throughout the package:

* :class:`LaurentPoly` -- Laurent polynomials in a formal square root ``v``
  (``v**2`` plays the role of the Hecke parameter ``u``), with
  arbitrary-precision integer coefficients.  Working in ``v`` keeps every
  exponent integral; half-integer powers of ``u`` never appear.

* Laurent arrays -- the bulk form of the same data: int64 numpy arrays
  whose last axis holds the coefficient of ``v**k`` at index ``k + off``,
  with explicit window and magnitude guards (see :func:`window_offset`).

* :class:`IntPoly` -- dense polynomials in ``t`` with exact rational
  coefficients.  These hold dimension polynomials such as ``t(t+1)(2t+1)/6``
  which take integer values on integers without having integer coefficients.

The two classes are immutable values; every operation returns a fresh object
and all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

import numpy as np


class LeadingTermOfZero(ValueError):
    """Degree requested from the zero Laurent polynomial."""


class ZeroPolynomial(ValueError):
    """Lowest degree requested from the zero polynomial."""


class DegreeExceedsNu(ValueError):
    """reverse_at called with nu smaller than the degree."""


Scalar = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Laurent polynomials in v
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Laurent polynomial in ``v`` with integer coefficients.

    Stored as a map exponent -> coefficient with no zero values.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c = {}
        if coeffs:
            for k, a in coeffs.items():
                if a:
                    c[int(k)] = int(a)
        self._c = c

    @classmethod
    def from_array(cls, row: np.ndarray, off: int) -> "LaurentPoly":
        """The polynomial held by one Laurent-array row with offset ``off``."""
        return cls({k - off: int(c) for k, c in enumerate(row) if c})

    # -- inspection

    def coeffs(self) -> dict[int, int]:
        return dict(self._c)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def degree(self) -> int:
        if not self._c:
            raise LeadingTermOfZero("zero Laurent polynomial has no degree")
        return max(self._c)

    # -- arithmetic

    @staticmethod
    def _coerce(x) -> "LaurentPoly":
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, int):
            return LaurentPoly({0: x})
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for k, a in other._c.items():
            b = c.get(k, 0) + a
            if b:
                c[k] = b
            else:
                c.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {k: -a for k, a in self._c.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            out = LaurentPoly.__new__(LaurentPoly)
            out._c = {k: a * other for k, a in self._c.items()}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c: dict[int, int] = {}
        for k1, a1 in self._c.items():
            for k2, a2 in other._c.items():
                k = k1 + k2
                b = c.get(k, 0) + a1 * a2
                if b:
                    c[k] = b
                else:
                    c.pop(k, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    # -- equality / hashing / display

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self):
        return f"LaurentPoly({self._c!r})"

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for k in sorted(self._c):
            a = self._c[k]
            if k == 0:
                mono = str(abs(a))
            else:
                va = "v" if k == 1 else f"v^{k}"
                mono = va if abs(a) == 1 else f"{abs(a)}{va}"
            if not parts:
                parts.append(mono if a > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if a > 0 else f"- {mono}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Laurent arrays: int64 coefficient windows over a stated offset
# ---------------------------------------------------------------------------

# Every integer a bulk step forms stays below this bound: far inside int64,
# and inside the 2**53 up to which float64 holds integers exactly.
MAGNITUDE_GUARD = 2 ** 50


def window_offset(nu: int) -> int:
    """Offset of the window for Laurent data of |v-degree| <= ``nu``.

    The window has width ``2 * off + 1``.  One slot beyond ``nu`` on each
    side holds a product by ``v + v**-1`` before it cancels; the outermost
    slot is a guard that :func:`check_window` requires to be zero, which
    proves that no shift pushed a coefficient out of the window.
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


def laurent_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of matrices with Laurent entries, as a full convolution.

    ``(i, k, Da) x (k, j, Db) -> (i, j, Da + Db - 1)``; the offset of the
    product is the sum of the offsets of the factors.
    """
    da = a.shape[2]
    out = np.zeros((a.shape[0], b.shape[1], da + b.shape[2] - 1), dtype=np.int64)
    for e in range(b.shape[2]):
        out[:, :, e:e + da] += np.einsum("ikf,kj->ijf", a, b[:, :, e])
    return out


# ---------------------------------------------------------------------------
# Polynomials in t with rational coefficients
# ---------------------------------------------------------------------------

class IntPoly:
    """Polynomial in ``t`` over the rationals, stored densely.

    The name records its purpose: the dimension polynomials carried by this
    type are integer valued on integers even though their coefficients are
    fractions.  ``is_integer_valued`` checks that property exactly (values at
    0..deg+1 determine it for a polynomial of this degree).
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        c = [Fraction(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls()

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, coeff: Scalar = 1) -> "IntPoly":
        return cls((0,) * k + (coeff,))

    @classmethod
    def from_int(cls, n: int) -> "IntPoly":
        return cls((n,))

    # -- inspection

    def coeffs(self) -> tuple[Fraction, ...]:
        return self._c

    def coefficient(self, k: int) -> Fraction:
        return self._c[k] if 0 <= k < len(self._c) else Fraction(0)

    @property
    def is_zero(self) -> bool:
        return not self._c

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._c) - 1

    def leading_coefficient(self) -> Fraction:
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self._c[-1]

    def lowest_degree(self) -> int:
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no lowest degree")
        for k, a in enumerate(self._c):
            if a:
                return k
        raise AssertionError("unreachable: normalised nonzero polynomial")

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for a in reversed(self._c):
            acc = acc * x + a
        return acc

    def is_integer_valued(self) -> bool:
        return all(self(k).denominator == 1 for k in range(self.degree() + 2))

    # -- arithmetic

    @staticmethod
    def _coerce(x) -> "IntPoly":
        if isinstance(x, IntPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return IntPoly((x,))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self._c), len(other._c))
        return IntPoly(
            (self.coefficient(k) + other.coefficient(k) for k in range(n))
        )

    __radd__ = __add__

    def __neg__(self):
        return IntPoly((-a for a in self._c))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return IntPoly((a * other for a in self._c))
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [Fraction(0)] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if not a:
                continue
            for j, b in enumerate(other._c):
                out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of polynomial by zero")
            return IntPoly((a / other for a in self._c))
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
        return hash(self._c)

    def __repr__(self):
        return f"IntPoly.parse({self.render()!r})"

    def render(self) -> str:
        """Readable display: the t-power and denominator pulled out, e.g.
        ``t^2(5t^2+1)/6``.  Parses back to an equal polynomial."""
        if not self._c:
            return "0"
        den = 1
        for a in self._c:
            den = den * a.denominator // _gcd(den, a.denominator)
        low = self.lowest_degree()
        prefix = "" if low == 0 else ("t" if low == 1 else f"t^{low}")
        body = []
        for k in range(len(self._c) - 1, low - 1, -1):
            n = int(self._c[k] * den)
            if not n:
                continue
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
            n = int(self._c[-1] * den)
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


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


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
            if ch.isdigit() or ch == "t" or ch == "(":
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
        if ch.isdigit():
            base = IntPoly.from_int(self.integer())
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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected integer")
        return int(self.text[start:self.pos])


# ---------------------------------------------------------------------------
# Operations from the dimension-polynomial calculus
# ---------------------------------------------------------------------------

def reverse_at(nu: int, f: IntPoly) -> IntPoly:
    """``t**nu * f(1/t)`` as a polynomial; requires deg f <= nu."""
    if f.degree() > nu:
        raise DegreeExceedsNu(f"degree {f.degree()} exceeds nu={nu}")
    out = [Fraction(0)] * (nu + 1)
    for k in range(f.degree() + 1):
        out[nu - k] = f.coefficient(k)
    return IntPoly(out)

