"""Polynomial factorization over cyclotomic fields: reconstruction oracles."""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import peval, sympy_factor
from loomalg import polyfactor
from loomalg.errors import LoomError
from loomalg.exactnum import CycloField, primitive_root
from loomalg.polyfactor import (
    factor,
    pdeg,
    pdivmod,
    pgcd,
    pmonic,
    pmul,
    ptrim,
    roots_in_field,
    squarefree_decomposition,
)

F1 = CycloField(1)
F4 = CycloField(4)
F12 = CycloField(12)

SEED = 20260214


def rand_poly(rng, field, deg, span=4):
    coeffs = [
        field.from_rational(Fraction(rng.randint(-span, span)))
        for _ in range(deg)
    ]
    coeffs.append(field.one)
    return coeffs


def linear(field, root):
    # x - root
    return [-root, field.one]


def product(field, polys):
    acc = [field.one]
    for p in polys:
        acc = pmul(acc, p)
    return acc


# -- factor reconstructs its input ------------------------------------------


def test_factor_reconstructs_random_products():
    rng = random.Random(SEED)
    for _ in range(6):
        parts = [rand_poly(rng, F4, rng.randint(1, 2), span=2)
                 for _ in range(rng.randint(1, 3))]
        p = product(F4, parts)
        factored = factor(p)
        rebuilt = [F4.one]
        for f, k in factored:
            assert f[-1] == F4.one  # monic
            for _ in range(k):
                rebuilt = pmul(rebuilt, f)
        assert pmonic(rebuilt) == pmonic(ptrim(p[:]))


def test_factor_is_deterministic():
    rng = random.Random(SEED + 1)
    p = product(F12, [rand_poly(rng, F12, 2), rand_poly(rng, F12, 1)])
    assert factor(p) == factor(p)


def test_factor_splits_cyclotomic_binomial():
    # x^4 - 1 over Q(zeta_4) splits into four linears
    p = [-F4.one, F4.zero, F4.zero, F4.zero, F4.one]
    factored = factor(p)
    assert all(pdeg(f) == 1 for f, _ in factored)
    assert sorted(k for _, k in factored) == [1, 1, 1, 1]
    roots = sorted(
        (r for r, _ in roots_in_field(p)), key=lambda c: c.coeffs
    )
    want = sorted((F4.zeta**t for t in range(4)), key=lambda c: c.coeffs)
    assert roots == want


def test_factor_keeps_irreducible_whole_over_smaller_field():
    # x^2 + 1 has no roots over Q but splits over Q(zeta_4)
    p_q = [F1.one, F1.zero, F1.one]
    assert roots_in_field(p_q) == []
    assert [pdeg(f) for f, _ in factor(p_q)] == [2]
    p_g = [F4.one, F4.zero, F4.one]
    got = {r for r, _ in roots_in_field(p_g)}
    assert got == {F4.zeta, -F4.zeta}


# -- multiplicities and square parts ----------------------------------------


def test_roots_with_multiplicity():
    z = F12.zeta
    p = pmul(pmul(linear(F12, z), linear(F12, z)), linear(F12, F12.one))
    got = dict(roots_in_field(p))
    assert got == {z: 2, F12.one: 1}
    # every reported root really evaluates to zero
    for r in got:
        assert not peval(p, r)


def test_squarefree_decomposition_reconstructs():
    rng = random.Random(SEED + 2)
    a = rand_poly(rng, F4, 2, span=2)
    b = rand_poly(rng, F4, 1, span=2)
    p = pmul(pmul(a, a), b)
    parts = squarefree_decomposition(p)
    rebuilt = [F4.one]
    for g, k in parts:
        for _ in range(k):
            rebuilt = pmul(rebuilt, g)
    assert pmonic(rebuilt) == pmonic(p)
    assert max(k for _, k in parts) >= 2


# -- gcd / division ---------------------------------------------------------


def test_pgcd_recovers_common_factor():
    rng = random.Random(SEED + 3)
    c = rand_poly(rng, F12, 2, span=2)
    a = pmul(c, rand_poly(rng, F12, 1, span=2))
    b = pmul(c, rand_poly(rng, F12, 2, span=2))
    g = pgcd(a, b)
    _, rem_a = pdivmod(a, g)
    _, rem_b = pdivmod(b, g)
    assert ptrim(rem_a) == [] and ptrim(rem_b) == []
    assert pdeg(g) >= pdeg(c)


def test_pdivmod_identity():
    rng = random.Random(SEED + 4)
    a = rand_poly(rng, F4, 4)
    b = rand_poly(rng, F4, 2)
    q, r = pdivmod(a, b)
    assert ptrim(pmul(q, b)) != [] and pdeg(r) < pdeg(b)
    from loomalg.polyfactor import padd

    assert ptrim(padd(pmul(q, b), r)) == ptrim(a)


# -- roots of unity as roots ------------------------------------------------


def test_roots_in_field_finds_order_three_roots():
    z3 = primitive_root(3, F12)
    # x^3 - 1 = (x - 1)(x - z3)(x - z3^2) over Q(zeta_12)
    p = [-F12.one, F12.zero, F12.zero, F12.one]
    got = {r for r, _ in roots_in_field(p)}
    assert got == {F12.one, z3, z3 * z3}


def test_exhausted_norm_shift_search_is_undecided(monkeypatch):
    # every shifted norm has a repeated root, so no shift can be used
    monkeypatch.setattr(
        polyfactor, "_norm_to_rational",
        lambda g, field: [Fraction(1), Fraction(-2), Fraction(1)],  # (x-1)^2
    )
    p = [F4.one, F4.zero, F4.one]  # x^2 + 1, squarefree
    with pytest.raises(LoomError) as info:
        factor(p, F4)
    assert info.value.code == "undecided"


# -- the in-house factorizer against the sympy oracle -----------------------


def rational_poly(field, coeffs):
    return [field.from_rational(Fraction(c)) for c in coeffs]


@st.composite
def small_products(draw):
    """A product of one to three small factors over Q(zeta_N), a factor
    possibly repeated, of total degree at most 4."""
    field = CycloField(draw(st.sampled_from((1, 3, 4, 5, 8, 12))))
    small = st.integers(-2, 2)

    def element():
        num = draw(st.lists(small, min_size=1, max_size=field.degree))
        return field.from_coeffs(
            [Fraction(n, draw(st.sampled_from((1, 1, 2)))) for n in num])

    parts = []
    degree = 0
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, min(2, 4 - degree)))
        part = [element() for _ in range(deg)] + [element() or field.one]
        parts.append(part)
        degree += deg
        if degree == 4:
            break
    if degree < 4 and draw(st.booleans()):
        parts.append(parts[0])
    return field, product(field, parts)


@settings(max_examples=30)
@given(small_products())
def test_factor_agrees_with_the_sympy_oracle(case):
    field, p = case
    assert factor(p, field) == sympy_factor(p, field)


SWINNERTON_DYER_8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]


@pytest.mark.parametrize("coeffs", [[1, 0, 0, 0, 1], SWINNERTON_DYER_8],
                         ids=["x4+1", "swinnerton-dyer-8"])
def test_irreducibles_that_split_mod_every_prime_are_recombined(coeffs):
    # x^4 + 1 and the minimal polynomial of sqrt2 + sqrt3 + sqrt5 split
    # modulo every prime, so only recombination shows them irreducible
    _, modular = polyfactor._modular_factors(coeffs)
    assert len(modular) > 1
    p = rational_poly(F1, coeffs)
    assert factor(p) == [(p, 1)] == sympy_factor(p, F1)


def test_x4_plus_1_over_cyclotomic_fields():
    # linear over Q(zeta_8), x^2 +- i over Q(zeta_4), whole over Q(zeta_3)
    for n, degrees in ((8, [1, 1, 1, 1]), (4, [2, 2]), (3, [4])):
        field = CycloField(n)
        p = rational_poly(field, [1, 0, 0, 0, 1])
        got = factor(p, field)
        assert [pdeg(f) for f, _ in got] == degrees
        assert got == sympy_factor(p, field)


def test_non_monic_rational_input():
    # (6x^2 + x - 2) / 5 = (6/5)(x - 1/2)(x + 2/3)
    p = rational_poly(F1, [Fraction(-2, 5), Fraction(1, 5), Fraction(6, 5)])
    want = [(rational_poly(F1, [Fraction(-1, 2), 1]), 1),
            (rational_poly(F1, [Fraction(2, 3), 1]), 1)]
    assert factor(p) == sympy_factor(p, F1)
    assert sorted(factor(p), key=lambda fk: fk[0][0].coeffs) == want
    p4 = rational_poly(F4, [Fraction(-2, 5), Fraction(1, 5), Fraction(6, 5)])
    assert factor(p4, F4) == sympy_factor(p4, F4)


def test_a_root_at_zero_is_pulled_out():
    # x (x^2 - 2)(x + 3) over Q, and x (x^2 + 1) over Q(zeta_12)
    p = product(F1, [rational_poly(F1, [0, 1]), rational_poly(F1, [-2, 0, 1]),
                     rational_poly(F1, [3, 1])])
    assert [pdeg(f) for f, _ in factor(p)] == [1, 1, 2]
    assert factor(p) == sympy_factor(p, F1)
    p12 = rational_poly(F12, [0, 1, 0, 1])
    assert [pdeg(f) for f, _ in factor(p12, F12)] == [1, 1, 1]
    assert factor(p12, F12) == sympy_factor(p12, F12)


@pytest.mark.parametrize("order", [1, 4, 6])
def test_powers_of_x_split_off_as_the_sympy_oracle_factors(order):
    # x^n, then p x^k for k = 1..4, then p alone, with p(0) != 0; p has a
    # repeated factor and one irreducible over Q
    field = CycloField(order)
    x = rational_poly(field, [0, 1])
    for n in range(1, 7):
        xn = product(field, [x] * n)
        assert factor(xn, field) == [(x, n)] == sympy_factor(xn, field)
    rng = random.Random(SEED + order)
    for _ in range(3):
        q = rand_poly(rng, field, 2)
        q[0] = q[0] or field.one
        r = rational_poly(field, [rng.choice([-3, -1, 2]), 0, 1])
        p = product(field, [q, q, r])
        assert p[0]
        assert factor(p, field) == sympy_factor(p, field)
        for k in range(1, 5):
            pk = product(field, [p] + [x] * k)
            got = factor(pk, field)
            assert got == sympy_factor(pk, field)
            assert (x, k) in got


def test_coefficients_above_64_bits():
    big = 2**70 + 1
    p = product(F1, [
        rational_poly(F1, [-big, 1]),
        rational_poly(F1, [3**41, 0, 1]),
        rational_poly(F1, [2**65, 7, 1]),
    ])
    got = factor(p)
    assert got == sympy_factor(p, F1)
    assert [pdeg(f) for f, _ in got] == [1, 2, 2]
    assert got[0][0] == rational_poly(F1, [-big, 1])


def test_recombination_budget_is_undecided(monkeypatch):
    _, modular = polyfactor._modular_factors(SWINNERTON_DYER_8)
    monkeypatch.setattr(polyfactor, "_SUBSET_BUDGET", 2)
    with pytest.raises(LoomError) as info:
        factor(rational_poly(F1, SWINNERTON_DYER_8))
    assert info.value.code == "undecided"
    assert (f"degree 8 polynomial from {len(modular)} modular factors"
            in str(info.value))


_FACTOR_ONLY = """
import sys
import loomalg
from loomalg.exactnum import CycloField
from loomalg.polyfactor import factor
for n in (1, 12):
    f = CycloField(n)
    factor([f.from_rational(4), f.zero, f.from_rational(-5), f.zero, f.one])
print(sorted(m for m in sys.modules if m.startswith("sympy")))
"""


def test_factoring_does_not_import_sympy():
    # factoring is done in-house; sympy is only the test oracle, and
    # importing it would cost every process about 0.5 s and 35 MB
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _FACTOR_ONLY], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
