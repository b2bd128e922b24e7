"""Univariate polynomials over a cyclotomic field, with exact factorization.

Polynomials are plain lists of CycloNumber, constant term first, trimmed.
Factorization over Q(zeta_N) reduces to factorization over Q by Trager's
norm method: shift the variable by integer multiples of zeta until the
norm of the shifted polynomial (the product of its Galois conjugates) is
squarefree, factor that norm over Q, and pull factors back through gcds.

Factoring over Q is done here too, on integer polynomials (lists of int,
constant term first): Cantor-Zassenhaus modulo a small prime, quadratic
Hensel lifting past the Mignotte bound, and Zassenhaus recombination by
trial division (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 14-15).
No floating point and no third-party code is involved; the test suite
checks the results against sympy, which the package does not import.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd, isqrt, lcm

from .errors import InvariantViolated, Undecided
from .exactnum import CycloField, CycloNumber


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


def _poly_sort_key(p):
    return tuple(c.coeffs for c in p)


def _norm_to_rational(g, field: CycloField):
    """The field norm of g, the product of its Galois conjugates, in Q[x]."""
    norm = g
    for sigma_g in zip(*(c.conjugates() for c in g)):
        norm = pmul(norm, list(sigma_g))
    if not all(c.is_rational() for c in norm):
        raise InvariantViolated("the norm of a polynomial is not rational")
    return [c.as_rational() for c in norm]


# -- integer polynomials ------------------------------------------------------
#
# Lists of int, constant term first, trimmed; "mod m" variants reduce every
# coefficient to 0 .. m - 1.


def _ztrim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _zmul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _ztrim([c % m for c in out])


def _zadd(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    out = a[:]
    for i, y in enumerate(b):
        out[i] += y
    return _ztrim([c % m for c in out])


def _zsub(a, b, m):
    return _zadd(a, [-c for c in b], m)


def _zdivmod(a, b, m):
    """Quotient and remainder mod m; lc(b) must be a unit mod m."""
    a = [c % m for c in a]
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db] * inv % m
        q[k] = c
        if c:
            for i, y in enumerate(b):
                a[i + k] = (a[i + k] - c * y) % m
    return _ztrim(q), _ztrim(a[:db])


def _zmonic(a, m):
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _zgcd(a, b, p):
    """Monic gcd over F_p."""
    while b:
        a, b = b, _zdivmod(a, b, p)[1]
    return _zmonic(a, p) if a else a


def _zxgcd(a, b, p):
    """s, t over F_p with s a + t b = 1, deg s < deg b and deg t < deg a,
    for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _zdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zsub(s0, _zmul(q, s1, p), p)
        t0, t1 = t1, _zsub(t0, _zmul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _zpowmod(a, e, f, p):
    """a^e mod (f, p)."""
    out, a = [1], _zdivmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _zdivmod(_zmul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _zdivmod(_zmul(a, a, p), f, p)[1]
    return out


def _zderiv(a):
    return _ztrim([k * c for k, c in enumerate(a)][1:])


def _primitive(a):
    """a divided by its content, with a positive leading coefficient."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def _clear_denominators(coeffs):
    """The primitive integer polynomial with positive leading coefficient
    among the rational multiples of coeffs."""
    den = lcm(*(c.denominator for c in coeffs))
    return _primitive([int(c * den) for c in coeffs])


def _zexact_quotient(a, b):
    """a / b over Z when b divides a exactly there, else None."""
    a = a[:]
    db, lead = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(a[k + db], lead)
        if r:
            return None
        q[k] = c
        if c:
            for i, y in enumerate(b):
                a[i + k] -= c * y
    return q if not any(a[:db]) else None


def _is_squarefree(f):
    """gcd(f, f') over Q is constant, by a primitive remainder sequence."""
    a, b = f, _primitive(_zderiv(f))
    while len(b) > 1:
        # pseudo-remainder: lc(b)^(deg a - deg b + 1) a mod b, over Z
        a = a[:]
        lead, db = b[-1], len(b) - 1
        while len(a) > db:
            c = a[-1]
            a = [x * lead for x in a]
            for i, y in enumerate(b, len(a) - 1 - db):
                a[i] -= c * y
            _ztrim(a)
        if not a:
            return False
        a, b = b, _primitive(a)
    return True


# -- factoring over F_p (p odd) ----------------------------------------------


def _distinct_degree(f, p):
    """[(g, d)]: g the product of the monic irreducible factors of degree d
    of the monic squarefree f over F_p."""
    out = []
    h = x = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _zpowmod(h, p, f, p)
        g = _zgcd(f, _zsub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _zdivmod(f, g, p)[0]
            h = _zdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g, d, p, rng):
    """Cantor-Zassenhaus: the monic irreducible factors of g, a product of
    distinct monic irreducibles of degree d over F_p."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p**d - 1) // 2
    while True:
        a = _ztrim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        h = _zgcd(g, _zsub(_zpowmod(a, e, g, p), [1], p), p)
        if 1 < len(h) < len(g):
            break
    rest = _zdivmod(g, h, p)[0]
    return _equal_degree(h, d, p, rng) + _equal_degree(rest, d, p, rng)


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


# subsets of modular factors tried in recombination before giving up
_SUBSET_BUDGET = 200_000


def _modular_factors(f):
    """The first odd prime p not dividing lc(f) with f squarefree mod p,
    and the monic irreducible factors of f mod p."""
    for p in _odd_primes():
        if f[-1] % p == 0:
            continue
        fp = _zmonic([c % p for c in f], p)
        if len(_zgcd(fp, _ztrim([c % p for c in _zderiv(fp)]), p)) == 1:
            break
    rng = random.Random(0)
    return p, [h for g, d in _distinct_degree(fp, p)
               for h in _equal_degree(g, d, p, rng)]


# -- Hensel lifting and recombination -----------------------------------------


def _hensel_step(m, f, g, h, s, t):
    """From f = g h and s g + t h = 1 mod m (h monic) to the same mod m^2
    (Modern Computer Algebra, Algorithm 15.10)."""
    mm = m * m
    e = _zsub(f, _zmul(g, h, mm), mm)
    q, r = _zdivmod(_zmul(s, e, mm), h, mm)
    g = _zadd(g, _zadd(_zmul(t, e, mm), _zmul(q, g, mm), mm), mm)
    h = _zadd(h, r, mm)
    b = _zsub(_zadd(_zmul(s, g, mm), _zmul(t, h, mm), mm), [1], mm)
    c, d = _zdivmod(_zmul(s, b, mm), h, mm)
    s = _zsub(s, d, mm)
    t = _zsub(t, _zadd(_zmul(t, b, mm), _zmul(c, g, mm), mm), mm)
    return g, h, s, t


def _hensel_lift(p, f, factors, steps):
    """Monic lifts mod p^(2^steps) of the monic factors of f mod p, for f
    = lc(f) prod(factors) mod p with the factors pairwise coprime."""
    top = p ** (2**steps)
    if len(factors) == 1:
        return [_zmonic(f, top)]
    k = len(factors) // 2
    g = [f[-1] % p]
    for a in factors[:k]:
        g = _zmul(g, a, p)
    h = [1]
    for a in factors[k:]:
        h = _zmul(h, a, p)
    s, t = _zxgcd(g, h, p)
    m = p
    for _ in range(steps):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    return (_hensel_lift(p, g, factors[:k], steps)
            + _hensel_lift(p, h, factors[k:], steps))


def _symmetric(a, m):
    half = m // 2
    return _ztrim([c - m if c > half else c for c in a])


def _zassenhaus(f):
    """Irreducible factors over Q of a squarefree primitive f with positive
    leading coefficient, each primitive with a positive leading
    coefficient."""
    if not f[0]:
        # squarefree, so x divides f once
        return [[0, 1]] + (_zassenhaus(f[1:]) if len(f) > 2 else [])
    n = len(f) - 1
    if n <= 1:
        return [f]
    p, modular = _modular_factors(f)
    r = len(modular)
    if r == 1:
        return [f]
    # coefficients of lc(f) times a factor of f are at most bound in size
    bound = (isqrt(n + 1) + 1) * 2**n * max(map(abs, f)) * f[-1]
    steps = 0
    while p ** (2**steps) <= 2 * bound:
        steps += 1
    m = p ** (2**steps)
    lifted = _hensel_lift(p, f, modular, steps)
    found = []
    left = list(range(r))
    size = 1
    tried = 0
    while 2 * size <= len(left):
        for subset in combinations(left, size):
            tried += 1
            if tried > _SUBSET_BUDGET:
                raise Undecided(
                    f"recombining a degree {n} polynomial from {r} modular "
                    f"factors tried {_SUBSET_BUDGET} subsets"
                )
            lead, const = f[-1], f[0]
            # the constant term of lc(f) g must divide lc(f) f(0)
            c0 = lead
            for i in subset:
                c0 = c0 * lifted[i][0] % m
            c0 = c0 - m if c0 > m // 2 else c0
            if not c0 or (lead * const) % c0:
                continue
            g = [lead]
            for i in subset:
                g = _zmul(g, lifted[i], m)
            g = _primitive(_symmetric(g, m))
            q = _zexact_quotient(f, g)
            if q is None:
                continue
            found.append(g)
            f = q
            left = [i for i in left if i not in subset]
            break
        else:
            size += 1
    return found + [f]


def _factor_squarefree(p, field: CycloField):
    """Irreducible monic factors of a squarefree monic polynomial, in no
    particular order."""
    if pdeg(p) <= 1:
        return [pmonic(p)]
    if field.degree == 1:
        return [
            pmonic([field.from_rational(c) for c in f])
            for f in _zassenhaus(_clear_denominators(
                [c.as_rational() for c in p]))
        ]
    zeta = field.zeta
    for s in range(0, 20 * field.degree):
        shift = field.from_rational(-s) * zeta
        g = pshift(p, shift)
        norm = _clear_denominators(_norm_to_rational(g, field))
        if not _is_squarefree(norm):
            continue
        back = field.from_rational(s) * zeta
        out = []
        for fac in _zassenhaus(norm):
            cand = pgcd(g, [field.from_rational(c) for c in fac])
            if pdeg(cand) >= 1:
                out.append(pmonic(pshift(cand, back)))
        total = [field.one]
        for f in out:
            total = pmul(total, f)
        if pmonic(total) != pmonic(p[:]):
            raise InvariantViolated("norm factorization lost a factor")
        return out
    raise Undecided(
        f"no squarefree norm shift found among {20 * field.degree} shifts "
        f"of a degree {pdeg(p)} polynomial"
    )


def factor(p, field: CycloField | None = None):
    """Monic irreducible factors with multiplicities, deterministically ordered.

    The power x^k dividing p is split off first: k is the number of zero
    coefficients at the low end, x is irreducible, and p / x^k is the rest
    of p with those coefficients dropped.  Only that cofactor, prime to x,
    goes through Yun's decomposition and the norm method, so the
    characteristic polynomial x^n of a nilpotent map costs no gcd.  The
    factorization is unique, so the result is the same as factoring p
    whole."""
    p = ptrim(p[:])
    if not p or pdeg(p) == 0:
        return []
    field = field or p[0].field
    zeros = next(i for i, c in enumerate(p) if c)
    out = [([field.zero, field.one], zeros)] if zeros else []
    for g, k in squarefree_decomposition(p[zeros:]):
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
