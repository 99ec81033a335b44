"""Field axioms and canonical form for the cyclotomic scalars."""

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal.errors import InputError
from hopfgal.scalars import (
    Scalar,
    axpy,
    common_order,
    conj,
    cyclotomic_polynomial,
)


def z12_scalars():
    coeff = st.integers(min_value=-5, max_value=5)
    return st.builds(
        lambda a, b, c, d, den: Scalar(12, [a, b, c, d], den),
        coeff, coeff, coeff, coeff,
        st.integers(min_value=1, max_value=6),
    )


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_conj_fixes_rationals():
    half = Scalar.rational(1, 2)
    assert conj(half) == half


def test_conj_of_i():
    i = Scalar.root_of_unity(4)
    assert conj(i) == -i
    assert i * i == Scalar.from_int(-1, 4)


def test_conj_of_zeta3_numerically():
    # conj(z3) = z3^2, certified by conj(x)*x having real embedding.
    z3 = Scalar.root_of_unity(3)
    assert conj(z3) == z3 * z3
    val = (conj(z3) * z3).embed()
    assert abs(val.imag) < 1e-12
    assert abs(conj(z3).embed() - z3.embed().conjugate()) < 1e-12


@given(z12_scalars(), z12_scalars())
def test_conj_is_antimultiplicative_and_involutive(x, y):
    assert conj(conj(x)) == x
    assert conj(x * y) == conj(x) * conj(y)
    assert conj(x + y) == conj(x) + conj(y)


@given(z12_scalars(), z12_scalars(), z12_scalars())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(z12_scalars())
def test_inverse(x):
    if x:
        assert x * x.inverse() == Scalar.one(12)


@given(z12_scalars())
def test_canonical_form_idempotent(x):
    renormalized = Scalar(x.order, list(x.num), x.den)
    assert renormalized.num == x.num and renormalized.den == x.den


@settings(max_examples=60)
@given(z12_scalars(), z12_scalars())
def test_embedding_consistency(x, y):
    assert abs((x * y).embed() - x.embed() * y.embed()) < 1e-10
    assert abs((x + y).embed() - (x.embed() + y.embed())) < 1e-10


def test_mixed_order_lifting():
    a = Scalar.rational(1, 2)          # order 1
    b = Scalar.root_of_unity(4)        # order 4
    c = a + b
    assert c.order == 4
    assert c - b == a
    assert common_order(4, 3) == 12
    assert Scalar.root_of_unity(4).lift(12) == Scalar.root_of_unity(12, 3)


def test_equality_across_orders():
    assert Scalar.rational(2, 4, order=4) == Scalar.rational(1, 2)
    assert hash(Scalar.rational(1, 2, order=4)) == hash(Scalar.rational(1, 2))


def test_serialization_roundtrip():
    x = Scalar(12, [1, -2, 0, 3], 5)
    doc = x.to_json()
    assert doc == {"order": 12, "num": [1, -2, 0, 3], "den": 5}
    assert Scalar.from_json(doc) == x
    assert Scalar.from_json(7) == Scalar.from_int(7)
    assert Scalar.from_json([3, 4]) == Scalar.rational(3, 4)


def test_bad_inputs():
    with pytest.raises(InputError):
        Scalar(4, [1, 2, 3])  # phi(4) = 2
    with pytest.raises(ZeroDivisionError):
        Scalar(1, [1], 0)
    with pytest.raises(InputError):
        Scalar.root_of_unity(4).lift(6)
    with pytest.raises(InputError):
        Scalar.root_of_unity(4).as_fraction()


def test_fraction_view():
    assert Scalar.rational(-6, 4).as_fraction() == Fraction(-3, 2)
    assert Scalar.rational(-6, 4).num == (-3,)
    assert Scalar.rational(-6, 4).den == 2


@given(z12_scalars(), z12_scalars())
def test_lifting_is_a_field_homomorphism(x, y):
    a, b = x.lift(24), y.lift(24)
    assert (x + y).lift(24) == a + b
    assert (x * y).lift(24) == a * b
    assert conj(x).lift(24) == a.conj()


@pytest.mark.parametrize("value,order", [
    (Scalar.root_of_unity(4), 8),
    (Scalar.root_of_unity(3), 6),
    (Scalar.root_of_unity(5, 2) - Scalar.rational(1, 3, order=5), 10),
    (Scalar.rational(-7, 3), 4),
    (Scalar.rational(-7, 3), 12),
    (Scalar.rational(5, 2, order=3), 15),
])
def test_hash_agrees_with_eq_across_orders(value, order):
    lifted = value.lift(order)
    assert lifted == value
    assert hash(lifted) == hash(value)
    assert len({value, lifted}) == 1


def test_hash_of_rationals_matches_int_and_fraction():
    assert hash(Scalar.from_int(3, 12)) == hash(3)
    assert hash(Scalar.rational(-1, 2, order=4)) == hash(Fraction(-1, 2))
    assert hash(Scalar.zero(8)) == hash(0)


# -- fast paths against a slow reference -------------------------------------
#
# The reference lifts each operand to the lcm of the orders by long division
# by the cyclotomic polynomial, combines the integer vectors, and builds the
# result through the validating constructor Scalar(order, num, den).  Every
# fast path must agree with it field by field, the order included.

ORDERS = (1, 2, 3, 4, 5, 12)


@lru_cache(maxsize=None)
def _power_row(order, j):
    """zeta_order^j in the power basis: x^j mod Phi_order."""
    cp = cyclotomic_polynomial(order)
    phi = len(cp) - 1
    poly = [0] * j + [1]
    for top in range(j, phi - 1, -1):
        c = poly[top]
        if c:
            for i, a in enumerate(cp):
                poly[top - phi + i] -= c * a
    return (poly + [0] * phi)[:phi]


def _lifted(x, order):
    step = order // x.order
    out = [0] * (len(cyclotomic_polynomial(order)) - 1)
    for k, a in enumerate(x.num):
        for i, b in enumerate(_power_row(order, k * step)):
            out[i] += a * b
    return out


def _ref_add(x, y, sign=1):
    order = math.lcm(x.order, y.order)
    xs, ys = _lifted(x, order), _lifted(y, order)
    return Scalar(order, [a * y.den + sign * b * x.den for a, b in zip(xs, ys)],
                  x.den * y.den)


def _ref_mul(x, y):
    order = math.lcm(x.order, y.order)
    xs, ys = _lifted(x, order), _lifted(y, order)
    out = [0] * len(xs)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            for k, r in enumerate(_power_row(order, i + j)):
                out[k] += a * b * r
    return Scalar(order, out, x.den * y.den)


def _fields(x):
    return x.order, x.num, x.den


def _scalars(order):
    phi = len(cyclotomic_polynomial(order)) - 1
    coeff = st.integers(min_value=-6, max_value=6)
    den = st.integers(min_value=1, max_value=12)
    return st.one_of(
        st.just(Scalar.zero(order)),
        st.builds(lambda p, q: Scalar.rational(p, q, order), coeff, den),
        st.builds(lambda num, q: Scalar(order, num, q),
                  st.lists(coeff, min_size=phi, max_size=phi), den),
    )


def _operands(k):
    return st.tuples(*[st.sampled_from(ORDERS)] * k).flatmap(
        lambda orders: st.tuples(*[_scalars(n) for n in orders]))


def _rationals():
    return st.builds(Fraction, st.integers(min_value=-12, max_value=12),
                     st.integers(min_value=1, max_value=12))


@settings(max_examples=400)
@given(_operands(2))
def test_binary_ops_match_reference(xy):
    x, y = xy
    assert _fields(x + y) == _fields(_ref_add(x, y))
    assert _fields(x - y) == _fields(_ref_add(x, y, sign=-1))
    assert _fields(x * y) == _fields(_ref_mul(x, y))
    assert (x == y) is (_fields(_ref_add(x, y, sign=-1)) == _fields(
        Scalar.zero(math.lcm(x.order, y.order))))


@settings(max_examples=300)
@given(_operands(3))
def test_axpy_matches_reference(xcy):
    x, c, y = xcy
    assert _fields(axpy(x, c, y)) == _fields(_ref_add(x, _ref_mul(c, y)))


@settings(max_examples=200)
@given(_operands(1))
def test_negation_and_rational_inverse_match_reference(xs):
    (x,) = xs
    assert _fields(-x) == _fields(Scalar(x.order, [-a for a in x.num], x.den))
    if x and x.is_rational():
        phi = len(x.num)
        assert _fields(x.inverse()) == _fields(
            Scalar(x.order, [x.den] + [0] * (phi - 1), x.num[0]))


@settings(max_examples=300)
@given(_operands(1), _rationals())
def test_int_and_fraction_operands_match_reference(xs, f):
    (x,) = xs
    r = Scalar.from_fraction(f)
    assert _fields(x + f) == _fields(f + x) == _fields(_ref_add(x, r))
    assert _fields(x - f) == _fields(_ref_add(x, r, sign=-1))
    assert _fields(x * f) == _fields(f * x) == _fields(_ref_mul(x, r))
    n = f.numerator
    assert _fields(x + n) == _fields(_ref_add(x, Scalar.from_int(n)))
    ref = Scalar(x.order, [f.numerator] + [0] * (len(x.num) - 1),
                 f.denominator)
    assert (x == f) is (_fields(x) == _fields(ref))
    assert (x == n) is (_fields(x) == _fields(Scalar.from_int(n, x.order)))
    if x.is_rational():
        assert x == Fraction(x.num[0], x.den)
        assert (x == x.num[0]) is (x.den == 1)


@pytest.mark.parametrize("order", ORDERS)
def test_zero_operand_keeps_the_lcm_order(order):
    x = Scalar.root_of_unity(order) + Scalar.rational(1, 3, order)
    assert _fields(Scalar.zero() + x) == _fields(x)
    assert _fields(x + Scalar.zero()) == _fields(x)
    half = Scalar.rational(1, 2)
    for total in (half + Scalar.zero(order), Scalar.zero(order) + half,
                  half - half.lift(order), axpy(half, Scalar.zero(order),
                                                half)):
        assert total.order == order
    assert _fields(half + Scalar.zero(4)) == (4, (1, 0), 2)
    assert _fields(x - x) == _fields(Scalar.zero(order))
    assert _fields(Scalar.zero(3) + Scalar.zero(4)) == _fields(
        Scalar.zero(12))
