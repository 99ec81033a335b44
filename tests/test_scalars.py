"""Field axioms and canonical form for the cyclotomic scalars."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgal.errors import InputError
from hopfgal.scalars import Scalar, common_order, conj, cyclotomic_polynomial


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
