"""Exact scalar, polynomial and rational-function arithmetic over Q.

Scalars are `fractions.Fraction` (arbitrary-precision, always reduced, positive
denominator).  Polynomials are dense ascending coefficient tuples; the zero
polynomial is the empty tuple.  Rational functions are kept in a canonical
reduced form -- numerator and denominator coprime, denominator primitive with
integer coefficients and positive leading coefficient -- so that equality of
values is structural equality of representations.  No floating point anywhere.

Polynomial arithmetic runs on the coefficient-list kernels at the end of the
module, which the characteristic polynomials, the zeta tables and the checks
call directly on integer lists.  Canonicalisation is integer too: the gcd and
the exact division run on the primitive parts of numerator and denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class InexactDivisionError(ArithmeticError):
    """Exact polynomial division left a remainder.

    This signals a violated divisibility invariant upstream, not bad input.
    """


def _frac(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational scalar, got {type(x).__name__}")


class Polynomial:
    """Dense univariate polynomial over Q, coefficients in ascending degree.

    The highest-index coefficient is nonzero; the zero polynomial is the
    empty tuple.  Immutable and hashable.
    """

    __slots__ = ("coefficients",)

    coefficients: tuple[Fraction, ...]

    def __init__(self, coefficients: Iterable[Scalar] = ()) -> None:
        coeffs = [_frac(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def variable(cls) -> "Polynomial":
        """The monomial of degree 1 with unit coefficient."""
        return cls((0, 1))

    @classmethod
    def linear(cls, a: Scalar, b: Scalar) -> "Polynomial":
        """a*x + b."""
        return cls((b, a))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading(self) -> Fraction:
        if not self.coefficients:
            return Fraction(0)
        return self.coefficients[-1]

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coefficients == other.coefficients
        if isinstance(other, (int, Fraction)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Polynomial", self.coefficients))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(_iadd(self.coefficients, other.coefficients))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return -(self - other)

    def __mul__(self, other) -> "Polynomial":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(_imul(self.coefficients, other.coefficients))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x: Scalar) -> Fraction:
        """Exact Horner evaluation."""
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(_ideriv(self.coefficients))

    # -- normal forms ---------------------------------------------------

    def content_primitive(self) -> tuple[Fraction, tuple[int, ...]]:
        """Split as content * primitive-integer part with positive leading coefficient.

        Returns (0, ()) for the zero polynomial.
        """
        if not self.coefficients:
            return Fraction(0), ()
        den_lcm = math.lcm(*(c.denominator for c in self.coefficients))
        ints = [int(c * den_lcm) for c in self.coefficients]
        g = math.gcd(*ints)
        if ints[-1] < 0:
            g = -g
        return Fraction(g, den_lcm), tuple(c // g for c in ints)

    # -- presentation ----------------------------------------------------

    def to_text(self, var: str = "s") -> str:
        """Human-readable form, descending degree."""
        if not self.coefficients:
            return "0"
        parts: list[str] = []
        for i in range(len(self.coefficients) - 1, -1, -1):
            c = self.coefficients[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coefficients]})"

    # -- serialization ----------------------------------------------------

    def to_strings(self) -> list[str]:
        """Ascending coefficients as exact "p/q" strings."""
        return [str(c) for c in self.coefficients]

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "Polynomial":
        return cls(Fraction(s) for s in items)


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial((x,))
    return NotImplemented


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Polynomial gcd, returned primitive over the integers with positive lead.

    Computed by a primitive polynomial remainder sequence (fraction-free), so
    intermediate coefficients stay integral.
    """
    return Polynomial(_igcd(a.content_primitive()[1], b.content_primitive()[1]))


# ---------------------------------------------------------------------------
# Rational functions


class RationalFunction:
    """Reduced quotient of two polynomials over Q.

    Canonical form: gcd(num, den) = 1, den primitive with integer coefficients
    and positive leading coefficient.  Equality and hashing are structural.
    """

    __slots__ = ("num", "den")

    num: Polynomial
    den: Polynomial

    def __init__(self, num, den=None) -> None:
        npoly = _as_poly(num)
        if npoly is NotImplemented:
            raise TypeError(f"cannot build a rational function from {type(num).__name__}")
        dpoly = Polynomial.one() if den is None else _as_poly(den)
        if dpoly is NotImplemented:
            raise TypeError(f"cannot build a rational function from {type(den).__name__}")
        npoly, dpoly = _canonical(npoly, dpoly)
        object.__setattr__(self, "num", npoly)
        object.__setattr__(self, "den", dpoly)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(0)

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls(1)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Polynomial)):
            return self == RationalFunction(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RationalFunction", self.num.coefficients, self.den.coefficients))

    def __add__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        return -(self - other)

    def __mul__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> "RationalFunction":
        """num and den are coprime, so their powers are too: one gcd."""
        num, den = self.num, self.den
        if k < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of the zero rational function")
            num, den, k = den, num, -k
        return RationalFunction(num ** k, den ** k)

    def __call__(self, x: Scalar) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num(x) / d

    def derivative(self) -> "RationalFunction":
        """Formal derivative by the quotient rule, re-reduced to canonical form."""
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def to_text(self, var: str = "s") -> str:
        if self.den == Polynomial.one():
            return self.num.to_text(var)
        return f"({self.num.to_text(var)}) / ({self.den.to_text(var)})"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def to_json(self) -> dict:
        """{"num": [...], "den": [...]} with exact coefficient strings."""
        return {"num": self.num.to_strings(), "den": self.den.to_strings()}

    @classmethod
    def from_json(cls, data: dict) -> "RationalFunction":
        return cls(Polynomial.from_strings(data["num"]), Polynomial.from_strings(data["den"]))


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction, Polynomial)):
        return RationalFunction(x)
    return NotImplemented


def _canonical(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return Polynomial.zero(), Polynomial.one()
    ncontent, nprim = num.content_primitive()
    dcontent, dprim = den.content_primitive()
    g = _igcd(nprim, dprim)
    if len(g) > 1:  # primitive parts divide to primitive parts (Gauss's lemma)
        nprim, dprim = _idiv_exact(nprim, g), _idiv_exact(dprim, g)
    scale = ncontent / dcontent
    return Polynomial([c * scale for c in nprim]), Polynomial(dprim)


# ---------------------------------------------------------------------------
# Taylor expansion at the origin


def taylor_prefix(f: RationalFunction, k: int) -> tuple[Fraction, ...]:
    """First k+1 expansion coefficients of f around 0.

    Solved from den * (sum a_i s^i) = num mod s^(k+1); requires den(0) != 0.
    """
    if k < 0:
        raise ValueError("negative expansion order")
    den = f.den.coefficients
    d0 = den[0] if den else Fraction(0)
    if d0 == 0:
        raise ValueError("expansion at a pole: denominator vanishes at 0")
    num = f.num.coefficients
    out: list[Fraction] = []
    for i in range(k + 1):
        acc = num[i] if i < len(num) else Fraction(0)
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out.append(acc / d0)
    return tuple(out)



# ---------------------------------------------------------------------------
# Coefficient-list kernels.
#
# These act on plain lists/tuples in ascending degree with no leading zeros,
# mirroring the Polynomial layout.  Add, multiply and differentiate are exact
# over int and Fraction alike: Polynomial arithmetic runs them over Fraction,
# while the characteristic polynomials, the zeta accumulators and the checks
# run them over int, free of Fraction overhead.  The divisions and the gcd
# helpers are integer only.


def _itrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _iadd(a: Sequence[Scalar], b: Sequence[Scalar]) -> list[Scalar]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _itrim(out)


def _imul(a: Sequence[Scalar], b: Sequence[Scalar]) -> list[Scalar]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _imul_linear(a: Sequence[int], lin1: int, lin0: int) -> list[int]:
    """Multiply by (lin1*x + lin0)."""
    if not a:
        return []
    out = [0] * (len(a) + 1)
    for i, c in enumerate(a):
        out[i] += c * lin0
        out[i + 1] += c * lin1
    return _itrim(out)


def _div_linear(num: Sequence[int], a: int, b: int) -> list[int] | None:
    """Quotient of num by the primitive a s + b, or None if it does not divide.

    By Gauss's lemma an exact quotient by a primitive factor has integer
    coefficients, so the first non-integral step already means a remainder."""
    quo = [0] * (len(num) - 1)
    carry = 0
    for i in range(len(num) - 1, 0, -1):
        q, r = divmod(num[i] + carry, a)
        if r:
            return None
        quo[i - 1] = q
        carry = -b * q
    return quo if num[0] + carry == 0 else None


def _idiv_exact(num: Sequence[int], den: Sequence[int]) -> list[int] | None:
    """Quotient of num by the nonzero den, or None unless it is an integer
    polynomial with no remainder; for a primitive den the quotient of an exact
    division is integral (Gauss's lemma), so None then means a remainder."""
    rem = list(num)
    d = len(den) - 1
    lead = den[-1]
    quo = [0] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        q, r = divmod(rem[i], lead)
        if r:
            return None
        if q:
            quo[i - d] = q
            for j in range(d):  # the top term cancels exactly
                rem[i - d + j] -= q * den[j]
    return None if any(rem[:d]) else quo


def _ideriv(a: Sequence[Scalar]) -> list[Scalar]:
    """Formal derivative."""
    return [i * c for i, c in enumerate(a)][1:]


def _icontent(a: Sequence[int]) -> int:
    return math.gcd(*a) if a else 0


def _iprimitive(a: Sequence[int]) -> list[int]:
    """Primitive part with positive leading coefficient."""
    if not a:
        return []
    g = _icontent(a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _iprem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Pseudo-remainder of a by b (b nonzero), fraction-free."""
    rem = list(a)
    lead = b[-1]
    db = len(b) - 1
    while len(_itrim(rem)) - 1 >= db:
        da = len(rem) - 1
        la = rem[-1]
        rem = [lead * c for c in rem]
        for j, cb in enumerate(b):
            rem[da - db + j] -= la * cb
        rem.pop()
        _itrim(rem)
    return rem


def _igcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Gcd of integer polynomials via the primitive remainder sequence."""
    a = _iprimitive(_itrim(list(a)))
    b = _iprimitive(_itrim(list(b)))
    if not a:
        return b
    if not b:
        return a
    while b:
        r = _iprem(a, b)
        a, b = b, _iprimitive(_itrim(r))
    return _iprimitive(a)
