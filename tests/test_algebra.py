from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from matzeta.algebra import (
    Polynomial,
    RationalFunction,
    _iadd,
    _idiv_exact,
    _imul,
    _itrim,
    kth_derivative_at_zero,
    poly_gcd,
    taylor_prefix,
)
from oracles import poly_divmod

S = Polynomial.variable()
ONE = Polynomial.one()


def rf(num, den=1):
    return RationalFunction(Polynomial(num), Polynomial(den) if not isinstance(den, int) else den)


def test_polynomial_normalization():
    assert Polynomial([1, 2, 0, 0]).coefficients == (1, 2)
    assert Polynomial([0]).coefficients == ()
    assert Polynomial([]).is_zero
    assert Polynomial([]).degree == -1
    assert Polynomial([3]).degree == 0


def test_polynomial_arithmetic():
    p = Polynomial([2, -3, 1])  # q^2 - 3q + 2
    assert p == (S - 1) * (S - 2)
    assert p + 1 == Polynomial([3, -3, 1])
    assert p - p == Polynomial.zero()
    assert (S + 1) ** 3 == Polynomial([1, 3, 3, 1])
    assert p(1) == 0
    assert p(Fraction(1, 2)) == Fraction(3, 4)


def test_poly_eval_examples():
    # chi of the 3-point line has root 1; [3]_q at 1 is 3
    assert Polynomial([2, -3, 1])(1) == 0
    assert Polynomial([-2, 1])(1) == -1
    assert Polynomial([1, 1, 1])(1) == 3


def test_poly_divide_exact_examples():
    assert _idiv_exact([2, -3, 1], [-1, 1]) == [-2, 1]
    assert _idiv_exact([5, 7], [1]) == [5, 7]
    assert _idiv_exact([1, -2, 1], [-1, 1]) == [-1, 1]
    assert _idiv_exact([6, 7, 2], [3, 2]) == [2, 1]  # (2s + 3)(s + 2)
    assert _idiv_exact([], [3, 2]) == []


def test_poly_divide_exact_rejects_remainder():
    assert _idiv_exact([1, 1], [0, 1]) is None  # remainder 1
    assert _idiv_exact([1, 1], [2]) is None  # exact over Q, not over Z


def test_poly_gcd_primitive():
    a = (S - 1) * (S + 2) * 6
    b = (S - 1) * (S + 3) * Fraction(1, 2)
    assert poly_gcd(a, b) == Polynomial([-1, 1])
    assert poly_gcd(Polynomial.zero(), b) == Polynomial([-3, 2, 1])


def test_rational_function_canonical_form():
    f = rf([0, 2], [2, 2])  # 2s / (2s + 2)
    assert f.num == Polynomial([0, 1])
    assert f.den == Polynomial([1, 1])
    # denominator is primitive with positive leading coefficient
    g = RationalFunction(ONE, Polynomial([Fraction(-1, 2), -1]))
    assert g.den == Polynomial([1, 2])
    assert g.num == Polynomial([-2])
    # zero is 0/1
    z = rf([0], [5, 3])
    assert z.num.is_zero and z.den == ONE
    with pytest.raises(ZeroDivisionError):
        RationalFunction(ONE, Polynomial.zero())


def test_rf_add_examples():
    # 1/(s+1) + (-1) -> -s/(s+1), verified by cross multiplication
    a = rf([1], [1, 1])
    b = rf([-1])
    total = a + b
    assert total == rf([0, -1], [1, 1])
    lhs = a.num * b.den + b.num * a.den
    assert lhs * total.den == total.num * (a.den * b.den)
    # additive identity
    assert a + RationalFunction.zero() == a


def test_rf_add_truncation_instance():
    # the worked rank-drop instance on the 3-point line
    za = rf([2, -1], [2, 5, 3])
    den_b = Polynomial([1, 3]) * Polynomial([2, 5, 3])
    yb = RationalFunction(Polynomial([0, 0, 6]), den_b)
    total = za + yb
    assert total == rf([1], [1, 3])
    lhs = za.num * yb.den + yb.num * za.den
    assert lhs * total.den == total.num * (za.den * yb.den)


def test_rf_mul_div_examples():
    a = rf([1], [1, 1])
    assert a * a == rf([1], [1, 2, 1])
    minus = rf([0, -1], [1, 1])
    assert minus * minus == rf([0, 0, 1], [1, 2, 1])
    assert (a / a) == RationalFunction.one()
    with pytest.raises(ZeroDivisionError):
        a / RationalFunction.zero()


def test_rf_equality_is_canonical():
    a = rf([2, -1], [2, 5, 3])
    b = RationalFunction(
        Polynomial([2, -1]) * Polynomial([7]), Polynomial([2, 5, 3]) * Polynomial([7])
    )
    assert a == b
    assert hash(a) == hash(b)


def test_rf_pow_and_call():
    a = rf([1], [1, 1])
    assert a**3 == rf([1], [1, 3, 3, 1])
    assert a**-2 == rf([1, 2, 1])
    assert a(1) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        a(-1)


def test_taylor_prefix_binomial_series():
    f = rf([1], [1, 1]) ** 3
    assert taylor_prefix(f, 2).coefficients == (1, -3, 6)
    assert taylor_prefix(RationalFunction.one(), 5).coefficients == (1, 0, 0, 0, 0, 0)
    g = RationalFunction(Polynomial([2, -1]), Polynomial([2, 3]) * Polynomial([1, 1]))
    assert taylor_prefix(g, 1).coefficients == (1, -3)


def test_taylor_prefix_needs_nonzero_at_origin():
    with pytest.raises(ValueError):
        taylor_prefix(rf([1], [0, 1]), 2)


def test_kth_derivative_at_zero():
    f = rf([1], [1, 1]) ** 3
    assert kth_derivative_at_zero(f, 2) == 12
    assert kth_derivative_at_zero(rf([1], [1, 5]), 0) == 1
    z23 = rf([2, -1], [2, 5, 3])
    assert kth_derivative_at_zero(z23, 1) == -3


def test_rf_derivative():
    f = rf([1], [1, 1])  # 1/(s+1)
    assert f.derivative() == rf([-1], [1, 2, 1])
    assert rf([0, 0, 1]).derivative() == rf([0, 2])


def test_serialization_roundtrip():
    f = rf([2, -1], [2, 5, 3])
    assert f.to_json() == {"num": ["2", "-1"], "den": ["2", "5", "3"]}
    assert RationalFunction.from_json(f.to_json()) == f
    p = Polynomial([Fraction(1, 2), -3])
    assert Polynomial.from_strings(p.to_strings()) == p


def test_to_text():
    assert Polynomial([2, -1]).to_text() == "-s + 2"
    assert Polynomial([2, 5, 3]).to_text("q") == "3*q^2 + 5*q + 2"
    assert Polynomial.zero().to_text() == "0"
    assert rf([1], [1, 3]).to_text() == "(1) / (3*s + 1)"


# ---------------------------------------------------------------------------
# Property tests

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(fractions_st, max_size=5).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero)
rationals = st.builds(RationalFunction, polys, nonzero_polys)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == RationalFunction.zero()
    assert a * RationalFunction.one() == a


@given(rationals, rationals)
def test_division_inverts_multiplication(a, b):
    if not b.is_zero:
        assert (a / b) * b == a


@given(rationals)
def test_canonical_idempotence(f):
    assert RationalFunction(f.num, f.den) == f
    assert RationalFunction.from_json(f.to_json()) == f


int_polys = st.lists(st.integers(-9, 9), max_size=5).map(_itrim)
nonzero_int_polys = int_polys.filter(bool)


@given(int_polys, nonzero_int_polys)
def test_divide_exact_roundtrip(a, b):
    assert _idiv_exact(_imul(a, b), b) == a


@given(int_polys, nonzero_int_polys, st.integers(-3, 3))
@example([1, 2], [3, 2], 0)
@example([1, 2], [3, 2], 1)
@example([1], [2, 4], 0)
def test_exact_division_matches_fraction_long_division(quo, den, rem):
    # non-monic and non-primitive divisors; None on a remainder or a
    # quotient that is not integral
    num = _iadd(_imul(quo, den), [rem])
    q, r = poly_divmod(Polynomial(num), Polynomial(den))
    integral = r.is_zero and all(c.denominator == 1 for c in q.coefficients)
    assert _idiv_exact(num, den) == ([int(c) for c in q.coefficients] if integral else None)


@given(polys, st.integers(min_value=0, max_value=8))
def test_taylor_of_polynomial_is_itself(p, k):
    prefix = taylor_prefix(RationalFunction(p), k)
    expected = tuple(
        p.coefficients[i] if i < len(p.coefficients) else Fraction(0) for i in range(k + 1)
    )
    assert prefix.coefficients == expected


# ---------------------------------------------------------------------------
# Canonicalisation against an independent computer algebra system

small_int_polys = st.lists(st.integers(-4, 4), max_size=4)
quadratics = st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(lambda c: c[-1])


def _sympy_canonical(sympy, num, den):
    """sympy.cancel(num / den), scaled to this module's canonical form: the
    denominator primitive over the integers with a positive lead."""
    x = sympy.Symbol("x")

    def expr(coeffs):
        return sum((c * x**i for i, c in enumerate(coeffs)), sympy.Integer(0))

    p, q = (
        sympy.Poly(e, x, domain="QQ")
        for e in sympy.fraction(sympy.cancel(expr(num) / expr(den)))
    )
    if p.is_zero:
        return (), (Fraction(1),)
    _, qz = q.clear_denoms(convert=True)
    _, qz = qz.primitive()
    if qz.LC() < 0:
        qz = -qz
    scale = Fraction(str(qz.LC())) / Fraction(str(q.LC()))
    return (
        tuple(Fraction(str(c)) * scale for c in reversed(p.all_coeffs())),
        tuple(Fraction(str(c)) for c in reversed(qz.all_coeffs())),
    )


def test_canonical_form_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")

    @given(
        small_int_polys,
        small_int_polys.filter(any),
        st.lists(quadratics, max_size=2),
        st.integers(-3, 3).filter(bool),
    )
    def check(num, den, shared, c):
        common = Polynomial.constant(c)
        for factor in shared:
            common = common * Polynomial(factor)
        num, den = Polynomial(num) * common, Polynomial(den) * common
        f = RationalFunction(num, den)
        assert (f.num.coefficients, f.den.coefficients) == _sympy_canonical(
            sympy, num.coefficients, den.coefficients
        )

    check()
