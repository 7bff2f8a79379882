"""Exact rational-function arithmetic on integer coefficient tuples.

A polynomial is a dense ascending tuple of ints; the zero polynomial is the
empty tuple.  A rational function is a pair of them in a canonical form --
numerator and denominator coprime, no integer content common to both, the
denominator's leading coefficient positive -- which is unique, so equality of
values is structural equality of representations.  ``Fraction`` appears only
at the edges: the constructor clears the denominators of Fraction
coefficients once, the shown form (``to_text``, ``to_json``) divides both
sides by the content of the denominator, and ``taylor_prefix`` (on the
kernel ``_itaylor``, which also expands a fraction left unreduced) returns
Fractions.  No floating point anywhere.

All arithmetic, canonicalisation included, runs on the integer kernels at the
end of the module, which the characteristic polynomials, the zeta tables and
the checks call directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


class InexactDivisionError(ArithmeticError):
    """Exact polynomial division left a remainder.

    This signals a violated divisibility invariant upstream, not bad input.
    """


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Polynomial gcd of two integer polynomials, primitive with positive lead.

    Computed by a primitive polynomial remainder sequence (fraction-free), so
    intermediate coefficients stay integral.
    """
    a = _iprimitive(_itrim(list(a)))
    b = _iprimitive(_itrim(list(b)))
    while b:
        a, b = b, _iprimitive(_itrim(_iprem(a, b)))
    return tuple(a)


# ---------------------------------------------------------------------------
# Rational functions


class RationalFunction:
    """Reduced quotient of two integer polynomials.

    Canonical form: ``num`` and ``den`` are ascending int tuples, coprime as
    polynomials and with no common integer content, and ``den`` has a positive
    leading coefficient; zero is ``((), (1,))``.  Equality and hashing are
    structural, and a constant hashes as the scalar it equals.
    """

    __slots__ = ("num", "den")

    num: tuple[int, ...]
    den: tuple[int, ...]

    def __init__(self, num, den=1) -> None:
        """num and den: each an int, a Fraction or an ascending list or tuple of them."""
        num, den = _canonical(*_clear_denominators(num, den))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == RationalFunction(other)
        return NotImplemented

    def __hash__(self) -> int:
        if len(self.den) == 1:  # a constant equals its scalar, so hashes as it
            return hash(self(0))
        return hash((self.num, self.den))

    def __add__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(
            _iadd(_imul(self.num, other.den), _imul(other.num, self.den)),
            _imul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction([-c for c in self.num], self.den)

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
        return RationalFunction(_imul(self.num, other.num), _imul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(_imul(self.num, other.den), _imul(self.den, other.num))

    def __rtruediv__(self, other) -> "RationalFunction":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> "RationalFunction":
        """Square and multiply; num and den are coprime, so their powers are
        too: one gcd."""
        num, den = self.num, self.den
        if k < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of the zero rational function")
            num, den, k = den, num, -k
        out_num, out_den = [1], [1]
        while k:
            if k & 1:
                out_num, out_den = _imul(out_num, num), _imul(out_den, den)
            num, den = _imul(num, num), _imul(den, den)
            k >>= 1
        return RationalFunction(out_num, out_den)

    def __call__(self, x: int | Fraction) -> Fraction:
        """Exact Horner evaluation."""
        d = _ieval(self.den, x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return Fraction(_ieval(self.num, x), d)

    def derivative(self) -> "RationalFunction":
        """Formal derivative by the quotient rule, re-reduced to canonical form."""
        num, den = self.num, self.den
        return RationalFunction(
            _iadd(_imul(_ideriv(num), den), [-c for c in _imul(num, _ideriv(den))]),
            _imul(den, den),
        )

    def _shown(self) -> tuple[list[Fraction], list[int]]:
        """num and den divided by the content of den: den primitive, num exact."""
        c = math.gcd(*self.den)
        return [Fraction(x, c) for x in self.num], [x // c for x in self.den]

    def to_text(self, var: str = "s") -> str:
        """Human-readable form, descending degree."""
        num, den = self._shown()
        if den == [1]:
            return _poly_text(num, var)
        return f"({_poly_text(num, var)}) / ({_poly_text(den, var)})"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def to_json(self) -> dict:
        """{"num": [...], "den": [...]} with exact coefficient strings."""
        num, den = self._shown()
        return {"num": [str(c) for c in num], "den": [str(c) for c in den]}

    @classmethod
    def from_json(cls, data: dict) -> "RationalFunction":
        return cls([Fraction(s) for s in data["num"]], [Fraction(s) for s in data["den"]])


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction(x)
    return NotImplemented


def _clear_denominators(num, den) -> tuple[list[int], list[int]]:
    """num and den as int lists, both multiplied by the lcm of the
    denominators of their coefficients."""
    num = list(num) if isinstance(num, (list, tuple)) else [num]
    den = list(den) if isinstance(den, (list, tuple)) else [den]
    for c in num + den:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"expected an exact rational coefficient, got {type(c).__name__}")
    scale = math.lcm(*(c.denominator for c in num + den))
    return [int(c * scale) for c in num], [int(c * scale) for c in den]


def _canonical(num: list[int], den: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    _itrim(num)
    if not _itrim(den):
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), (1,)
    g = poly_gcd(num, den)
    if len(g) > 1:  # g is primitive, so the quotients are integral (Gauss's lemma)
        num, den = _idiv_exact(num, g), _idiv_exact(den, g)
    c = math.gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    return tuple(x // c for x in num), tuple(x // c for x in den)


def _poly_text(coeffs: Sequence[int | Fraction], var: str) -> str:
    """Ascending coefficients as text, descending degree."""
    parts: list[str] = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
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
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Taylor expansion at the origin


def taylor_prefix(f: RationalFunction, k: int) -> tuple[Fraction, ...]:
    """First k+1 expansion coefficients of f around 0; requires den(0) != 0."""
    return _itaylor(f.num, f.den, k)


def _itaylor(num: Sequence[int], den: Sequence[int], k: int) -> tuple[Fraction, ...]:
    """First k+1 expansion coefficients of num / den around 0, reduced or not:
    a common factor of num and den leaves them unchanged.

    Solved from den * (sum a_i s^i) = num mod s^(k+1); requires den(0) != 0.
    The recurrence runs on the integers b_i = a_i d^(i+1), d = den(0):
    b_i = num_i d^i - sum over j >= 1 of den_j d^(j-1) b_(i-j), so each
    coefficient is reduced once, as b_i / d^(i+1).
    """
    if k < 0:
        raise ValueError("negative expansion order")
    d0 = den[0]
    if d0 == 0:
        raise ValueError("expansion at a pole: denominator vanishes at 0")
    steps = [c * d0 ** (j - 1) for j, c in enumerate(den) if j]  # den_j d^(j-1), j >= 1
    recent: list[int] = []  # b_(i-1), b_(i-2), ...: the last len(steps) of them
    out: list[Fraction] = []
    power = 1  # d^i
    for i in range(k + 1):
        b = num[i] * power if i < len(num) else 0
        b -= sum(c * x for c, x in zip(steps, recent))
        recent = [b, *recent[: len(steps) - 1]]
        power *= d0
        out.append(Fraction(b, power))
    return tuple(out)


# ---------------------------------------------------------------------------
# Integer coefficient-list kernels.
#
# These act on plain int lists/tuples in ascending degree with no leading
# zeros, the layout of RationalFunction.num and .den.  RationalFunction
# arithmetic runs them, and so do the characteristic polynomials, the zeta
# accumulators and the checks, directly.


def _itrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _iadd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _itrim(out)


def _imul(a: Sequence[int], b: Sequence[int]) -> list[int]:
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


def _ideriv(a: Sequence[int]) -> list[int]:
    """Formal derivative."""
    return [i * c for i, c in enumerate(a)][1:]


def _ieval(a: Sequence[int], x: int | Fraction) -> int | Fraction:
    """Horner evaluation at an exact x."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


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
