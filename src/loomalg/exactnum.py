"""Exact scalar arithmetic: rationals and cyclotomic field elements.

The field of order N is Q(zeta_N), stored on the power basis
1, z, z^2, ..., z^(phi(N)-1) with z a fixed primitive N-th root of unity.
An element stores arbitrary-precision integer numerators on that basis
over one shared positive denominator, reduced eagerly modulo the N-th
cyclotomic polynomial and kept canonical (gcd(den, *num) == 1), so
equality and hashing are componentwise, each operation takes at most one
gcd, and no floating point ever appears.

A session works inside a single field; roots of smaller order m (for m
dividing N) are obtained with :func:`primitive_root`, and elements of a
smaller field embed into a larger one with :func:`lift`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add as _add, neg as _neg, sub as _sub

from .errors import FieldMismatch, InvariantViolated, RootOrderUnavailable

Rational = Fraction


_cyclo_cache: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    cached = _cyclo_cache.get(n)
    if cached is not None:
        return cached
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_div(poly, list(cyclotomic_polynomial(d)))
    result = tuple(poly)
    _cyclo_cache[n] = result
    return result


def _int_poly_div(num, den):
    # den is monic here, so integer division is exact
    num = num[:]
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q = num[len(den) - 1 + k]
        out[k] = q
        if q:
            for i, c in enumerate(den):
                num[i + k] -= q * c
    if any(num):
        raise InvariantViolated("nonzero remainder in cyclotomic division")
    return out


class CycloField:
    """Q(zeta_N) with precomputed reduction data for the power basis.

    Instances are interned by order, so ``CycloField(12) is CycloField(12)``
    and field identity checks are cheap.
    """

    _cache: dict[int, "CycloField"] = {}

    __slots__ = ("order", "degree", "modulus", "_red", "_fold", "_conj",
                 "_tail", "zero", "one", "zeta")

    def __new__(cls, order: int):
        inst = cls._cache.get(order)
        if inst is not None:
            return inst
        if order < 1:
            raise ValueError("field order must be positive")
        inst = object.__new__(cls)
        inst.order = order
        inst.modulus = cyclotomic_polynomial(order)
        phi = len(inst.modulus) - 1
        inst.degree = phi
        inst._tail = (0,) * (phi - 1)
        # reduction rows: z^k mod Phi_N for k >= phi, grown on demand
        inst._red = [tuple(-c for c in inst.modulus[:phi])]
        # the rows a product of two reduced elements needs, as nonzero
        # (index, coefficient) pairs, for degrees phi .. 2 phi - 2
        inst._fold = tuple(
            tuple((i, r) for i, r in enumerate(inst._power_row(k)) if r)
            for k in range(phi, 2 * phi - 1)
        )
        # for each unit k > 1 mod N, the images z^(k i) of the power basis
        # under the Galois automorphism z -> z^k
        inst._conj = tuple(
            tuple(inst._power(k * i % order) for i in range(phi))
            for k in range(2, order) if gcd(k, order) == 1
        )
        inst.zero = CycloNumber(inst, (0,) * phi, 1)
        inst.one = CycloNumber(inst, (1,) + inst._tail, 1)
        if phi == 1:
            # zeta_1 = 1, zeta_2 = -1 live on the 1-dimensional basis
            inst.zeta = CycloNumber(inst, (1 if order == 1 else -1,), 1)
        else:
            inst.zeta = CycloNumber(inst, (0, 1) + inst._tail[1:], 1)
        cls._cache[order] = inst
        return inst

    def __repr__(self):
        return f"CycloField({self.order})"

    def from_rational(self, q) -> "CycloNumber":
        if isinstance(q, int):
            return CycloNumber(self, (int(q),) + self._tail, 1)
        q = Fraction(q)
        return CycloNumber(self, (q.numerator,) + self._tail, q.denominator)

    def from_coeffs(self, coeffs) -> "CycloNumber":
        """Build an element from power-basis coefficients of any length."""
        cs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs)) if cs else 1
        num = [c.numerator * (den // c.denominator) for c in cs]
        if len(num) > self.degree:
            num = self._reduce(num)
        else:
            num.extend([0] * (self.degree - len(num)))
        return _canonical(self, tuple(num), den)

    def _power_row(self, k):
        # z^k mod Phi_N as a length-phi integer row, for k >= degree
        idx = k - self.degree
        while idx >= len(self._red):
            row = self._red[-1]
            top = row[-1]
            shifted = [0] + list(row[:-1])
            if top:
                base = self._red[0]
                shifted = [a + top * b for a, b in zip(shifted, base)]
            self._red.append(tuple(shifted))
        return self._red[idx]

    def _power(self, e):
        # z^e as a length-phi integer row
        if e < self.degree:
            return tuple(int(i == e) for i in range(self.degree))
        return self._power_row(e)

    def _reduce(self, cs):
        # integer coefficients of any length, folded onto the power basis
        phi = self.degree
        out = cs[:phi]
        for k in range(phi, len(cs)):
            c = cs[k]
            if c:
                red = self._power_row(k)
                for i in range(phi):
                    if red[i]:
                        out[i] += c * red[i]
        return out


def _canonical(field, num, den):
    """num/den, for den >= 1, with the common factor divided out."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(x // g for x in num)
            den //= g
    return CycloNumber(field, num, den)


def _conjugate(num, images):
    """sigma_k on an integer numerator row, images[i] being z^(k i)."""
    out = [0] * len(num)
    for x, row in zip(num, images):
        if x:
            for t, r in enumerate(row):
                out[t] += x * r
    return tuple(out)


class CycloNumber:
    """An element of a fixed cyclotomic field, always kept reduced.

    The value is sum(num[k] z^k) / den with integer numerators, den >= 1
    and gcd(den, *num) == 1, so each value has exactly one layout.  Only
    this module builds or reads that layout; `coeffs` gives the rational
    power-basis coefficients.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycloField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """Power-basis coefficients as a tuple of Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.field is not self.field:
                raise FieldMismatch(
                    f"mixed field orders {self.field.order} and {other.field.order};"
                    " lift explicitly first"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def _sum(self, o, op):
        # self op o for op in (add, sub), both with the same field; a zero
        # is always stored as (0, ..., 0)/1, so self is already the result
        if not any(o.num):
            return self
        a, b = self.den, o.den
        if a == b:
            num = tuple(map(op, self.num, o.num))
            if a == 1:
                return CycloNumber(self.field, num, 1)
        else:
            num = tuple(op(x * b, y * a) for x, y in zip(self.num, o.num))
            a *= b
        return _canonical(self.field, num, a)

    def __add__(self, other):
        if other.__class__ is not CycloNumber or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._sum(other, _add)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not CycloNumber or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._sum(other, _sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloNumber(self.field, tuple(map(_neg, self.num)), self.den)

    def __mul__(self, other):
        if other.__class__ is not CycloNumber or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        field = self.field
        a, b = self.num, other.num
        if not any(a) or not any(b):
            return field.zero
        fold = field._fold
        if not fold:
            num = (a[0] * b[0],)
        else:
            phi = field.degree
            conv = [0] * (2 * phi - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        if y:
                            conv[j] += x * y
            for k, pairs in enumerate(fold, phi):
                c = conv[k]
                if c:
                    for i, r in pairs:
                        conv[i] += c * r
            num = tuple(conv[:phi])
        den = self.den * other.den
        if den == 1:
            return CycloNumber(field, num, 1)
        return _canonical(field, num, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "CycloNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        field = self.field
        if self.is_rational():
            n = self.num[0]
            return CycloNumber(
                field, (self.den if n > 0 else -self.den,) + field._tail, abs(n)
            )
        # num times the product P of its other Galois conjugates is the
        # norm n, a nonzero integer, so (num / den)^-1 = den * P / n
        num = self.num
        prod = field.one
        for images in field._conj:
            prod = prod * CycloNumber(field, _conjugate(num, images), 1)
        norm = (prod * CycloNumber(field, num, 1)).num[0]
        scale = self.den if norm > 0 else -self.den
        return _canonical(field, tuple(x * scale for x in prod.num), abs(norm))

    def conjugates(self) -> tuple:
        """The images sigma_k(self) under z -> z^k, for each unit k > 1
        modulo N in increasing order; empty when the field is Q."""
        field, num, den = self.field, self.num, self.den
        # sigma_k maps the power basis of Z[z] onto a basis of Z[z], so the
        # image keeps gcd(den, *num) == 1
        return tuple(CycloNumber(field, _conjugate(num, images), den)
                     for images in field._conj)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_integral(self) -> bool:
        """Is this an algebraic integer?  Z[zeta_N] is the ring of integers
        of the field and the power basis is an integral basis of it, so
        these are the elements with denominator 1."""
        return self.den == 1

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if isinstance(other, CycloNumber):
            return (self.field is other.field and self.den == other.den
                    and self.num == other.num)
        if isinstance(other, int):
            return (self.den == 1 and self.num[0] == other
                    and self.is_rational())
        if isinstance(other, Fraction):
            return (self.den == other.denominator
                    and self.num[0] == other.numerator and self.is_rational())
        return NotImplemented

    def __hash__(self):
        return hash((self.field.order, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        return f"<{self} in Q(zeta_{self.field.order})>"

    def __str__(self):
        return cyclo_str(self)


def primitive_root(m: int, field: CycloField) -> CycloNumber:
    """The canonical primitive m-th root of unity zeta^(N/m) in the field.

    Raises RootOrderUnavailable when m does not divide the field order.
    """
    if m < 1:
        raise ValueError("root order must be positive")
    if field.order % m != 0:
        raise RootOrderUnavailable(
            f"no root of unity of order {m} in Q(zeta_{field.order})"
        )
    return field.zeta ** (field.order // m)


def root_of_unity_order(a: CycloNumber) -> int | None:
    """Multiplicative order of a, or None when a is not a root of unity."""
    if a.is_zero():
        return None
    bound = a.field.order if a.field.order % 2 == 0 else 2 * a.field.order
    power = a
    for t in range(1, bound + 1):
        if power == a.field.one:
            return t
        power = power * a
    return None


def lift(a: CycloNumber, target: CycloField) -> CycloNumber:
    """Embed a into a larger cyclotomic field via zeta_N -> zeta_N'^(N'/N)."""
    if target is a.field:
        return a
    if target.order % a.field.order != 0:
        raise FieldMismatch(
            f"cannot lift from order {a.field.order} to order {target.order}"
        )
    image = target.zeta ** (target.order // a.field.order)
    acc = target.zero
    for c in reversed(a.coeffs):
        acc = acc * image + target.from_rational(c)
    return acc


def rational_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def cyclo_str(a: CycloNumber) -> str:
    """Serialize as 'c0 + c1*z + c2*z^2 + ...', skipping zero terms."""
    parts = []
    for k, c in enumerate(a.coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(rational_str(c))
        else:
            stem = "z" if k == 1 else f"z^{k}"
            parts.append(stem if c == 1 else f"{rational_str(c)}*{stem}")
    return " + ".join(parts) if parts else "0"
