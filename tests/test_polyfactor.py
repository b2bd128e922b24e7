"""Polynomial factorization over cyclotomic fields: reconstruction oracles."""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from helpers import peval
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
    x = polyfactor._x
    monkeypatch.setattr(
        polyfactor, "_norm_to_rational",
        lambda g, field: sympy.Poly((x - 1) ** 2, x, domain="QQ"),
    )
    p = [F4.one, F4.zero, F4.one]  # x^2 + 1, squarefree
    with pytest.raises(LoomError) as info:
        factor(p, F4)
    assert info.value.code == "undecided"


_FACTOR_ONLY = """
import sys
from loomalg.exactnum import CycloField
from loomalg.polyfactor import factor
for n in (1, 12):
    f = CycloField(n)
    factor([f.from_rational(4), f.zero, f.from_rational(-5), f.zero, f.one])
print(sorted(m for m in sys.modules if m.startswith(("sympy.tensor.tensor",
                                                    "sympy.combinatorics"))))
"""


def test_factoring_stays_off_sympy_expressions():
    # arithmetic on sympy expressions loads sympy's tensor and combinatorics
    # modules, about 3 MB of resident memory; the bridge builds Polys only
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
