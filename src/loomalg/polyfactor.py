"""Univariate polynomials over a cyclotomic field, with exact factorization.

Polynomials are plain lists of CycloNumber, constant term first, trimmed.
Factorization over Q(zeta_N) reduces to factorization over Q by the norm
trick: shift the variable by integer multiples of zeta until the resultant
of the shifted polynomial with the cyclotomic modulus is squarefree, factor
that resultant over Q, and pull factors back through gcds.  The rational
factorization and the bivariate resultant are delegated to sympy; all
arithmetic in the field itself stays local.
"""

from __future__ import annotations

import sympy

from .errors import InvariantViolated, Undecided
from .exactnum import CycloField, CycloNumber, Rational


def ptrim(p):
    while p and p[-1].is_zero():
        p.pop()
    return p


def pdeg(p) -> int:
    return len(p) - 1


def padd(a, b):
    n = max(len(a), len(b))
    field = (a or b)[0].field
    out = [field.zero] * n
    for i, c in enumerate(a):
        out[i] = out[i] + c
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return ptrim(out)


def psub(a, b):
    return padd(a, [-c for c in b])


def pmul(a, b):
    if not a or not b:
        return []
    field = a[0].field
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
    return ptrim(out)


def pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = a[:]
    db, lead = pdeg(b), b[-1]
    if pdeg(a) < db:
        return [], a
    q = [lead.field.zero] * (len(a) - db)
    while a and pdeg(a) >= db:
        k = pdeg(a) - db
        c = a[-1] / lead
        q[k] = c
        for i in range(len(b)):
            a[i + k] = a[i + k] - c * b[i]
        ptrim(a)
    return ptrim(q), a


def pmonic(p):
    if not p:
        return p
    lead = p[-1]
    if lead == 1:
        return p[:]
    inv = lead.inverse()
    return [inv * c for c in p]


def pgcd(a, b):
    a, b = a[:], b[:]
    while b:
        _, r = pdivmod(a, b)
        a, b = b, r
    return pmonic(a)


def pderiv(p):
    if len(p) <= 1:
        return []
    return ptrim([c * k for k, c in enumerate(p)][1:])


def pshift(p, c: CycloNumber):
    """Compose: the polynomial x -> p(x + c)."""
    field = c.field
    out = []
    for coeff in reversed(p):
        out = pmul(out, [c, field.one])
        out = padd(out, [coeff])
    return out


def squarefree_decomposition(p):
    """Yun decomposition: [(g, k)] with monic(p) = prod g^k, each g squarefree."""
    p = pmonic(ptrim(p[:]))
    if pdeg(p) < 1:
        return []
    d = pderiv(p)
    a = pgcd(p, d)
    b, _ = pdivmod(p, a)
    c, _ = pdivmod(d, a)
    out = []
    k = 1
    while pdeg(b) > 0:
        t = psub(c, pderiv(b))
        g = pgcd(b, t)
        if pdeg(g) > 0:
            out.append((g, k))
        b, _ = pdivmod(b, g)
        c, _ = pdivmod(t, g)
        k += 1
    return out


_x, _y = sympy.symbols("_loom_x _loom_y")
_QQ = sympy.QQ

# The bridge builds sympy Polys straight from coefficients: arithmetic on
# sympy expressions would load sympy's tensor and combinatorics modules
# (Add.flatten imports them), about 3 MB for every process that factors.


def _qq(q):
    return _QQ(q.numerator, q.denominator)


def _from_sympy_factor(poly, field: CycloField):
    out = []
    for c in reversed(poly.all_coeffs()):
        q = sympy.Rational(c)
        out.append(field.from_rational(Rational(int(q.p), int(q.q))))
    return ptrim(out)


def _factor_rational(p, field: CycloField):
    rep = [_qq(c.as_rational()) for c in reversed(p)]
    _, factors = sympy.Poly.from_list(rep, _x, domain=_QQ).factor_list()
    out = []
    for fac, mult in factors:
        out.append((pmonic(_from_sympy_factor(fac, field)), mult))
    out.sort(key=lambda fm: (pdeg(fm[0]), _poly_sort_key(fm[0])))
    return out


def _poly_sort_key(p):
    return tuple(c.coeffs for c in p)


def _norm_to_rational(g, field: CycloField):
    """Resultant over the cyclotomic modulus: the field norm of g, in Q[x]."""
    # bivariate Polys in (_y, _x); the resultant eliminates _y
    phi = sympy.Poly.from_dict(
        {(k, 0): _QQ(c) for k, c in enumerate(field.modulus) if c},
        _y, _x, domain=_QQ,
    )
    terms = {
        (k, i): _qq(q)
        for i, c in enumerate(g)
        for k, q in enumerate(c.coeffs)
        if q
    }
    return phi.resultant(sympy.Poly.from_dict(terms, _y, _x, domain=_QQ))


def _factor_squarefree(p, field: CycloField):
    """Irreducible monic factors of a squarefree monic polynomial."""
    if pdeg(p) <= 1:
        return [pmonic(p)]
    if field.degree == 1:
        return [f for f, _ in _factor_rational(p, field)]
    zeta = field.zeta
    for s in range(0, 20 * field.degree):
        shift = field.from_rational(-s) * zeta
        g = pshift(p, shift)
        norm = _norm_to_rational(g, field)
        if norm.gcd(norm.diff(_x)).degree() > 0:
            continue
        _, rfactors = norm.factor_list()
        back = field.from_rational(s) * zeta
        out = []
        for fac, _mult in rfactors:
            cand = pgcd(g, _from_sympy_factor(fac, field))
            if pdeg(cand) >= 1:
                out.append(pmonic(pshift(cand, back)))
        total = [field.one]
        for f in out:
            total = pmul(total, f)
        if pmonic(total) != pmonic(p[:]):
            raise InvariantViolated("norm factorization lost a factor")
        out.sort(key=lambda f: (pdeg(f), _poly_sort_key(f)))
        return out
    raise Undecided(
        f"no squarefree norm shift found among {20 * field.degree} shifts "
        f"of a degree {pdeg(p)} polynomial"
    )


def factor(p, field: CycloField | None = None):
    """Monic irreducible factors with multiplicities, deterministically ordered."""
    p = ptrim(p[:])
    if not p or pdeg(p) == 0:
        return []
    field = field or p[0].field
    out = []
    for g, k in squarefree_decomposition(p):
        for f in _factor_squarefree(g, field):
            out.append((f, k))
    out.sort(key=lambda fm: (pdeg(fm[0]), _poly_sort_key(fm[0])))
    return out


def roots_in_field(p, field: CycloField | None = None):
    """Roots lying in the coefficient field, as [(root, multiplicity)]."""
    field = field or p[0].field
    out = []
    for f, k in factor(p, field):
        if pdeg(f) == 1:
            out.append((-f[0], k))
    return out
