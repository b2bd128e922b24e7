"""Exact scalar arithmetic: axioms on random samples, oracles from sympy."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from helpers import FractionCyclo
from loomalg.errors import FieldMismatch, LoomError, RootOrderUnavailable
from loomalg.exactnum import (
    CycloField,
    _int_poly_div,
    cyclo_str,
    cyclotomic_polynomial,
    lift,
    primitive_root,
    rational_str,
    root_of_unity_order,
)

F1 = CycloField(1)
F4 = CycloField(4)
F12 = CycloField(12)

_rationals = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=7
)


def elements(field):
    return st.tuples(*([_rationals] * field.degree)).map(field.from_coeffs)


# -- construction and reduction --------------------------------------------


def test_interning_and_basic_constants():
    assert CycloField(12) is F12
    assert F12.degree == 4
    assert F12.one + F12.zero == F12.one
    assert F12.zeta**12 == F12.one
    assert F12.zeta**6 == -F12.one


def test_int_poly_div_with_remainder_is_a_coded_error():
    assert _int_poly_div([-1, 0, 1], [-1, 1]) == [1, 1]
    # x^2 + 1 = (x + 1)(x - 1) + 2
    with pytest.raises(LoomError) as info:
        _int_poly_div([1, 0, 1], [1, 1])
    assert info.value.code == "invariant-violated"


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_cyclotomic_polynomial_matches_sympy(n):
    ours = cyclotomic_polynomial(n)
    x = sympy.symbols("x")
    theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
    assert list(ours) == [int(c) for c in reversed(theirs)]


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_euler_phi_matches_sympy(n):
    # the power basis of Q(zeta_n) has phi(n) elements
    assert CycloField(n).degree == int(sympy.totient(n))


def test_eager_reduction_identities():
    # zeta_4^2 = -1 and 1 + zeta_3 + zeta_3^2 = 0, componentwise exact
    assert F4.zeta * F4.zeta == -F4.one
    f3 = CycloField(3)
    assert f3.one + f3.zeta + f3.zeta**2 == f3.zero


def test_from_coeffs_reduces_long_input():
    # z^4 in Q(zeta_12) must land back on the power basis
    long = F12.from_coeffs([0, 0, 0, 0, 1])
    assert long == F12.zeta**4


# -- field axioms on random samples ----------------------------------------


@given(a=elements(F12), b=elements(F12), c=elements(F12))
def test_axioms_associativity_distributivity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


@given(a=elements(F12))
def test_axioms_inverse(a):
    if a:
        assert a * a.inverse() == F12.one
        assert a / a == F12.one
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@pytest.mark.parametrize("n", [1, 3, 5, 8, 12])
def test_conjugates_are_the_galois_images(n):
    # sigma_k(zeta) = zeta^k for the units k > 1, in increasing order
    field = CycloField(n)
    units = [k for k in range(2, n) if gcd(k, n) == 1]
    assert field.zeta.conjugates() == tuple(field.zeta**k for k in units)


@given(a=elements(F12), b=elements(F12))
def test_conjugation_is_a_ring_map_with_a_rational_norm(a, b):
    for sa, sb, sab, ssum in zip(a.conjugates(), b.conjugates(),
                                 (a * b).conjugates(), (a + b).conjugates()):
        assert sa * sb == sab and sa + sb == ssum
        assert_canonical(sa)
    norm = a
    for sa in a.conjugates():
        norm = norm * sa
    assert norm.is_rational()
    if a:
        assert a.inverse() == norm.inverse() * (norm / a)


@given(a=elements(F4), b=elements(F4))
def test_axioms_commutativity_and_negation(a, b):
    assert a * b == b * a
    assert a - b == -(b - a)


@given(a=elements(F12), k=st.integers(min_value=-6, max_value=6))
def test_integer_powers(a, k):
    if not a and k < 0:
        return
    expect = F12.one
    step = a if k >= 0 else a.inverse()
    for _ in range(abs(k)):
        expect = expect * step
    assert a**k == expect


_sparse_rationals = st.one_of(st.just(Fraction(0)), _rationals)


@st.composite
def small_field_samples(draw):
    field = CycloField(draw(st.integers(min_value=1, max_value=12)))
    coeffs = draw(st.lists(_sparse_rationals, min_size=field.degree,
                           max_size=field.degree))
    k = draw(st.integers(min_value=1, max_value=9))
    return field, field.from_coeffs(coeffs), k


@given(small_field_samples())
def test_zero_tests_match_componentwise_definitions(sample):
    field, a, k = sample
    zero_by_construction = [
        a - a, a * 0, field.from_rational(Fraction(0, k)), field.zero,
    ]
    values = zero_by_construction + [
        a, a * field.zeta, a + field.one, field.from_rational(Fraction(k, 3)),
    ]
    for v in values:
        zero = all(c == 0 for c in v.coeffs)
        assert v.is_zero() is zero
        assert bool(v) is (not zero)
        assert v.is_rational() is all(c == 0 for c in v.coeffs[1:])
    for v in zero_by_construction:
        assert v.is_zero() and not v and v.is_rational()


@st.composite
def small_field_pairs(draw):
    field = CycloField(draw(st.integers(min_value=1, max_value=12)))
    a, b = (
        field.from_coeffs(draw(st.lists(_sparse_rationals,
                                        min_size=field.degree,
                                        max_size=field.degree)))
        for _ in range(2)
    )
    q = draw(_sparse_rationals)
    k = draw(st.integers(min_value=-4, max_value=4))
    return field, a, b, q, k


def assert_canonical(v):
    assert v.den >= 1 and gcd(v.den, *v.num) == 1
    assert all(isinstance(x, int) for x in (v.den, *v.num))


def assert_same_layout(x, y):
    assert x == y
    assert (x.num, x.den) == (y.num, y.den)
    assert hash(x) == hash(y)


@given(small_field_pairs())
def test_arithmetic_matches_fraction_oracle(sample):
    field, a, b, q, k = sample
    oa, ob = FractionCyclo.of(a), FractionCyclo.of(b)
    oq = FractionCyclo(field, [q])
    pairs = [
        (a + b, oa + ob), (a - b, oa - ob), (a * b, oa * ob), (-a, -oa),
        (a + q, oa + oq), (q - a, oq - oa), (a * q, oa * oq),
    ]
    if a:
        pairs += [
            (a.inverse(), oa.inverse()), (a**k, oa**k),
            (b / a, ob * oa.inverse()),
        ]
    else:
        pairs.append((a ** abs(k), oa ** abs(k)))
    for got, want in pairs:
        assert got.coeffs == want.coeffs
        assert str(got) == str(want)
        assert_canonical(got)
    assert (a == b) is (oa == ob)
    assert (a == q) is (oa == oq)
    # one value reached by different routes has one layout
    assert_same_layout((a + b) - b, a)
    assert_same_layout(a * b, b * a)
    assert_same_layout(field.from_coeffs(a.coeffs), a)
    assert_same_layout(a * field.one, a)
    assert_same_layout(a - a, field.zero)
    assert_same_layout(field.from_rational(q), field.from_coeffs([q]))


@given(small_field_pairs())
def test_a_zero_operand_gives_the_layout_of_the_full_computation(sample):
    # with a zero operand, * returns field.zero and + or - may return the
    # other operand as it is; each result must still have the value, hash
    # and den == 1 layout of the full computation, here the Fraction oracle
    # read back through from_coeffs
    field, a, b, q, k = sample
    zeros = [
        field.zero, b - b, a * 0, field.from_rational(Fraction(0, 7)),
        field.from_coeffs([0] * (field.degree + 2)),
    ]
    oa = FractionCyclo.of(a)
    for z in zeros:
        assert (z.num, z.den) == ((0,) * field.degree, 1)
        oz = FractionCyclo.of(z)
        pairs = [
            (a * z, oa * oz), (z * a, oz * oa), (z * z, oz * oz),
            (a + z, oa + oz), (z + a, oz + oa), (a - z, oa - oz),
            (z - a, oz - oa), (z + z, oz + oz), (z - z, oz - oz),
        ]
        for got, want in pairs:
            assert_same_layout(got, field.from_coeffs(want.coeffs))
            assert_canonical(got)
        assert_same_layout(a * z, field.zero)
    for got in (a * 0, a * Fraction(0), 0 * a):
        assert_same_layout(got, field.zero)
    for got in (a + 0, a - Fraction(0), 0 + a):
        assert_same_layout(got, a)


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatch):
        F4.one + F12.one


# -- roots of unity ---------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 12])
def test_primitive_root_has_exact_order(m):
    z = primitive_root(m, F12)
    assert z**m == F12.one
    for d in range(1, m):
        if m % d == 0:
            assert z**d != F12.one
    assert root_of_unity_order(z) == m


def test_primitive_root_requires_divisor_order():
    with pytest.raises(RootOrderUnavailable):
        primitive_root(5, F12)
    with pytest.raises(RootOrderUnavailable):
        primitive_root(8, F4)


def test_root_of_unity_order_rejects_non_roots():
    assert root_of_unity_order(F12.from_rational(Fraction(2))) is None
    assert root_of_unity_order(F4.one + F4.zeta) is None
    assert root_of_unity_order(F12.zero) is None


# -- lift -------------------------------------------------------------------


@given(a=elements(F4), b=elements(F4))
def test_lift_is_a_field_homomorphism(a, b):
    la, lb = lift(a, F12), lift(b, F12)
    assert lift(a + b, F12) == la + lb
    assert lift(a * b, F12) == la * lb
    if la == lb:
        assert a == b


def test_lift_sends_roots_to_roots():
    # zeta_4 lifts to a primitive 4th root of Q(zeta_12)
    z = lift(F4.zeta, F12)
    assert root_of_unity_order(z) == 4
    assert lift(F4.one, F12) == F12.one


def test_lift_requires_compatible_orders():
    with pytest.raises(FieldMismatch):
        lift(F12.zeta, F4)


# -- serialization ----------------------------------------------------------


def test_rational_str_forms():
    assert rational_str(Fraction(3)) == "3"
    assert rational_str(Fraction(-1, 2)) == "-1/2"


def test_cyclo_str_pinned_forms():
    assert cyclo_str(F12.zero) == "0"
    assert cyclo_str(F12.one) == "1"
    assert cyclo_str(F12.zeta) == "z"
    assert cyclo_str(F12.zeta**3) == "z^3"
    assert cyclo_str(-F12.one) == "-1"
    assert cyclo_str(F12.from_rational(Fraction(1, 2))) == "1/2"
    assert cyclo_str(F12.one + F12.zeta) == "1 + z"
    assert cyclo_str(F12.from_rational(Fraction(-2)) * F12.zeta) == "-2*z"


def test_str_round_trip_through_coeffs():
    a = F12.from_coeffs([Fraction(1, 2), Fraction(-3), 0, Fraction(7, 5)])
    assert F12.from_coeffs(a.coeffs) == a
