import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from matzeta.algebra import (
    RationalFunction,
    _iadd,
    _idiv_exact,
    _ieval,
    _imul,
    _itrim,
    poly_gcd,
    taylor_prefix,
)
from oracles import poly_divmod, taylor_prefix_by_fractions

rf = RationalFunction


def test_polynomial_arithmetic():
    p = [2, -3, 1]  # q^2 - 3q + 2
    assert p == _imul([-1, 1], [-2, 1])
    assert _iadd(p, [1]) == [3, -3, 1]
    assert _iadd(p, [-c for c in p]) == []
    assert rf([1, 1]) ** 3 == rf([1, 3, 3, 1])
    assert rf(p)(1) == 0
    assert rf(p)(Fraction(1, 2)) == Fraction(3, 4)


def test_poly_eval_examples():
    # chi of the 3-point line has root 1; [3]_q at 1 is 3
    assert _ieval([2, -3, 1], 1) == 0
    assert _ieval([-2, 1], 1) == -1
    assert _ieval([1, 1, 1], 1) == 3


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
    a = [6 * c for c in _imul([-1, 1], [2, 1])]  # 6 (s - 1)(s + 2)
    b = [-2 * c for c in _imul([-1, 1], [3, 1])]  # -2 (s - 1)(s + 3)
    assert poly_gcd(a, b) == (-1, 1)
    assert poly_gcd((), b) == (-3, 2, 1)


def test_canonical_form_takes_its_gcd_from_poly_gcd(monkeypatch):
    import matzeta.algebra as algebra

    calls = []

    def recording(a, b):
        calls.append((tuple(a), tuple(b)))
        return poly_gcd(a, b)

    monkeypatch.setattr(algebra, "poly_gcd", recording)
    f = rf((-1, 0, 1), (2, 2))  # (s^2 - 1) / (2 s + 2) = (s - 1) / 2
    assert (f.num, f.den) == ((-1, 1), (2,))
    assert calls == [((-1, 0, 1), (2, 2))]


def test_rational_function_canonical_form():
    f = rf([0, 2], [2, 2])  # 2s / (2s + 2)
    assert f.num == (0, 1)
    assert f.den == (1, 1)
    # the denominator has a positive leading coefficient
    g = RationalFunction(1, [Fraction(-1, 2), -1])
    assert g.den == (1, 2)
    assert g.num == (-2,)
    # zero is 0/1
    z = rf([0], [5, 3])
    assert z.num == () and z.den == (1,)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(1, [0])


def test_rf_add_examples():
    # 1/(s+1) + (-1) -> -s/(s+1), verified by cross multiplication
    a = rf([1], [1, 1])
    b = rf([-1])
    total = a + b
    assert total == rf([0, -1], [1, 1])
    lhs = _iadd(_imul(a.num, b.den), _imul(b.num, a.den))
    assert _imul(lhs, total.den) == _imul(total.num, _imul(a.den, b.den))
    # additive identity
    assert a + RationalFunction.zero() == a


def test_rf_add_truncation_instance():
    # the worked rank-drop instance on the 3-point line
    za = rf([2, -1], [2, 5, 3])
    yb = rf([0, 0, 6], _imul([1, 3], [2, 5, 3]))
    total = za + yb
    assert total == rf([1], [1, 3])
    lhs = _iadd(_imul(za.num, yb.den), _imul(yb.num, za.den))
    assert _imul(lhs, total.den) == _imul(total.num, _imul(za.den, yb.den))


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
    b = rf(_imul([2, -1], [7]), _imul([2, 5, 3], [7]))
    assert a == b
    assert hash(a) == hash(b)


def test_constant_hashes_as_its_scalar():
    for c in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3)):
        assert rf(c) == c and hash(rf(c)) == hash(c)
        assert len({rf(c), c}) == 1
    assert len({rf(1), 1, rf([2], [2]), Fraction(1)}) == 1


@pytest.mark.parametrize("k", [0, 1, 5, -3])
def test_rf_pow_is_repeated_multiplication(k):
    f = rf([2, -1], [2, 5, 3])
    base = f if k >= 0 else RationalFunction.one() / f
    expected = RationalFunction.one()
    for _ in range(abs(k)):
        expected = expected * base
    assert f**k == expected
    with pytest.raises(ZeroDivisionError):
        RationalFunction.zero() ** -1


def test_rf_pow_and_call():
    a = rf([1], [1, 1])
    assert a**3 == rf([1], [1, 3, 3, 1])
    assert a**-2 == rf([1, 2, 1])
    assert a(1) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        a(-1)


def test_taylor_prefix_binomial_series():
    f = rf([1], [1, 1]) ** 3
    assert taylor_prefix(f, 2) == (1, -3, 6)
    assert taylor_prefix(RationalFunction.one(), 5) == (1, 0, 0, 0, 0, 0)
    g = rf([2, -1], _imul([2, 3], [1, 1]))
    assert taylor_prefix(g, 1) == (1, -3)


def test_taylor_prefix_needs_nonzero_at_origin():
    with pytest.raises(ValueError):
        taylor_prefix(rf([1], [0, 1]), 2)


_coeffs = st.lists(st.integers(-40, 40), min_size=1, max_size=5)


@given(
    num=_coeffs,
    d0=st.integers(-30, 30).filter(lambda d: d not in (-1, 0, 1)),
    rest=st.lists(st.integers(-40, 40), max_size=4),
    k=st.integers(0, 60),
)
@example(num=[1], d0=30030, rest=[1], k=60)
def test_integer_taylor_prefix_matches_fraction_recurrence(num, d0, rest, k):
    f = rf(num, [d0, *rest])
    assume(f.den[0] not in (-1, 1))  # canonicalisation may cancel den(0) down
    assert taylor_prefix(f, k) == taylor_prefix_by_fractions(f, k)


def test_taylor_prefix_gives_derivatives_at_zero():
    # the k-th derivative at 0 is k! times the k-th coefficient
    f = rf([1], [1, 1]) ** 3
    assert math.factorial(2) * taylor_prefix(f, 2)[2] == 12
    assert taylor_prefix(rf([1], [1, 5]), 0) == (1,)
    z23 = rf([2, -1], [2, 5, 3])
    assert math.factorial(1) * taylor_prefix(z23, 1)[1] == -3


def test_rf_derivative():
    f = rf([1], [1, 1])  # 1/(s+1)
    assert f.derivative() == rf([-1], [1, 2, 1])
    assert rf([0, 0, 1]).derivative() == rf([0, 2])


def test_serialization_roundtrip():
    f = rf([2, -1], [2, 5, 3])
    assert f.to_json() == {"num": ["2", "-1"], "den": ["2", "5", "3"]}
    assert RationalFunction.from_json(f.to_json()) == f


def test_shown_form_of_fractional_numerator():
    # a fractional numerator, a denominator with content 2 and a negative lead:
    # the shown denominator is primitive with a positive lead
    f = RationalFunction.from_json({"num": ["1/2", "3"], "den": ["-2", "-4"]})
    assert f.to_text() == "(-3/2*s - 1/4) / (2*s + 1)"
    assert f.to_json() == {"num": ["-1/4", "-3/2"], "den": ["1", "2"]}
    assert RationalFunction(Fraction(-3, 4)).to_json() == {"num": ["-3/4"], "den": ["1"]}
    assert RationalFunction(Fraction(-3, 4)).to_text() == "-3/4"
    assert RationalFunction(0).to_json() == {"num": [], "den": ["1"]}
    assert RationalFunction(0).to_text() == "0"


def test_to_text():
    assert rf([2, -1]).to_text() == "-s + 2"
    assert rf([2, 5, 3]).to_text("q") == "3*q^2 + 5*q + 2"
    assert rf(0).to_text() == "0"
    assert rf([1], [1, 3]).to_text() == "(1) / (3*s + 1)"


# ---------------------------------------------------------------------------
# Property tests

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(fractions_st, max_size=5)
nonzero_polys = polys.filter(any)
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


coefficient_strings = st.lists(fractions_st.map(str), max_size=5)
json_values = st.fixed_dictionaries({
    "num": coefficient_strings,
    "den": coefficient_strings.filter(lambda d: any(Fraction(c) for c in d)),
})


@given(json_values)
def test_json_round_trip(data):
    f = RationalFunction.from_json(data)
    shown = f.to_json()
    assert RationalFunction.from_json(shown) == f
    assert RationalFunction.from_json(shown).to_json() == shown
    den = [Fraction(c) for c in shown["den"]]
    assert all(c.denominator == 1 for c in den)
    assert math.gcd(*(int(c) for c in den)) == 1 and den[-1] > 0
    assert (shown["num"] == []) == (f == 0)


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
    q, r = poly_divmod(num, den)
    integral = not r and all(c.denominator == 1 for c in q)
    assert _idiv_exact(num, den) == ([int(c) for c in q] if integral else None)


@given(polys, st.integers(min_value=0, max_value=8))
def test_taylor_of_polynomial_is_itself(p, k):
    prefix = taylor_prefix(RationalFunction(p), k)
    expected = tuple(p[i] if i < len(p) else Fraction(0) for i in range(k + 1))
    assert prefix == expected


# ---------------------------------------------------------------------------
# Canonicalisation against an independent computer algebra system

small_int_polys = st.lists(st.integers(-4, 4), max_size=4)
quadratics = st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(lambda c: c[-1])


def _times_common(num, den, shared, c):
    """num and den both multiplied by c and by every factor in shared."""
    common = [c]
    for factor in shared:
        common = _imul(common, factor)
    return _imul(num, common), _imul(den, common)


# Random integer pairs with a common factor: a constant c and up to two quadratics.
common_factor_pairs = st.builds(
    _times_common,
    small_int_polys,
    small_int_polys.filter(any),
    st.lists(quadratics, max_size=2),
    st.integers(-3, 3).filter(bool),
)


@given(common_factor_pairs)
def test_canonical_form_is_canonical(pair):
    f = RationalFunction(*pair)
    for side in (f.num, f.den):
        assert type(side) is tuple and all(type(c) is int for c in side)
        assert not side or side[-1] != 0
    assert f.den[-1] > 0
    if f.num == ():
        assert f.den == (1,)
    else:
        assert poly_gcd(f.num, f.den) == (1,)
        assert math.gcd(*f.num, *f.den) == 1


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


def test_reflected_operators_truth_and_text():
    f = rf([1, 1], [2, 0, 1])  # (s + 1) / (s^2 + 2)
    assert 1 - f == rf([1, -1, 1], [2, 0, 1])
    assert 1 / f == rf([2, 0, 1], [1, 1])
    assert bool(f) and not bool(rf(0))
    assert str(f) == "(s + 1) / (s^2 + 2)"
    assert repr(f) == "RationalFunction((1, 1), (2, 0, 1))"
    with pytest.raises(ValueError, match="^negative expansion order$"):
        taylor_prefix(f, -1)


@pytest.mark.parametrize("make, message", [
    (lambda: rf(1) + "x", "unsupported operand"),
    (lambda: rf(1.5), "^expected an exact rational coefficient, got float$"),
    (lambda: rf([1, 1.5]), "^expected an exact rational coefficient, got float$"),
], ids=["add-str", "float", "float-in-list"])
def test_inexact_operands_are_type_errors(make, message):
    with pytest.raises(TypeError, match=message):
        make()


def test_canonical_form_matches_sympy_cancel():
    sympy = pytest.importorskip("sympy")

    @given(common_factor_pairs)
    def check(pair):
        num, den = _sympy_canonical(sympy, *pair)
        assert RationalFunction(*pair).to_json() == {
            "num": [str(c) for c in num], "den": [str(c) for c in den]
        }

    check()
