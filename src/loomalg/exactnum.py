"""Exact scalar arithmetic: rationals and cyclotomic field elements.

The field of order N is Q(zeta_N), stored on the power basis
1, z, z^2, ..., z^(phi(N)-1) with z a fixed primitive N-th root of unity.
Elements keep a full coefficient tuple of arbitrary-precision rationals,
reduced eagerly modulo the N-th cyclotomic polynomial, so equality and
hashing are componentwise and no floating point ever appears.

A session works inside a single field; roots of smaller order m (for m
dividing N) are obtained with :func:`primitive_root`, and elements of a
smaller field embed into a larger one with :func:`lift`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatch, InvariantViolated, RootOrderUnavailable

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


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

    __slots__ = ("order", "degree", "modulus", "_red", "zero", "one", "zeta")

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
        # reduction rows: z^k mod Phi_N for k >= phi, grown on demand
        inst._red = [tuple(-c for c in inst.modulus[:phi])]
        inst.zero = CycloNumber(inst, (_ZERO,) * phi)
        inst.one = CycloNumber(inst, (_ONE,) + (_ZERO,) * (phi - 1))
        if phi == 1:
            # zeta_1 = 1, zeta_2 = -1 live on the 1-dimensional basis
            val = _ONE if order == 1 else -_ONE
            inst.zeta = CycloNumber(inst, (val,))
        else:
            inst.zeta = CycloNumber(
                inst, (_ZERO, _ONE) + (_ZERO,) * (phi - 2)
            )
        cls._cache[order] = inst
        return inst

    def __repr__(self):
        return f"CycloField({self.order})"

    def from_rational(self, q) -> "CycloNumber":
        q = Fraction(q)
        return CycloNumber(self, (q,) + (_ZERO,) * (self.degree - 1))

    def from_coeffs(self, coeffs) -> "CycloNumber":
        """Build an element from power-basis coefficients of any length."""
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            cs = self._reduce(cs)
        else:
            cs.extend([_ZERO] * (self.degree - len(cs)))
        return CycloNumber(self, tuple(cs))

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

    def _reduce(self, cs):
        phi = self.degree
        out = cs[:phi] + [_ZERO] * (phi - min(phi, len(cs)))
        for k in range(phi, len(cs)):
            c = cs[k]
            if c:
                red = self._power_row(k)
                for i in range(phi):
                    if red[i]:
                        out[i] += c * red[i]
        return out


class CycloNumber:
    """An element of a fixed cyclotomic field, always kept reduced."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNumber(
            self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNumber(
            self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycloNumber(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        phi = self.field.degree
        if phi == 1:
            return CycloNumber(self.field, (a[0] * b[0],))
        conv = [_ZERO] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return CycloNumber(self.field, tuple(self.field._reduce(conv)))

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
        phi = self.field.degree
        if phi == 1:
            return CycloNumber(self.field, (1 / self.coeffs[0],))
        # extended euclid against the cyclotomic modulus in Q[x]
        mod = [Fraction(c) for c in self.field.modulus]
        r0, r1 = mod, _trim(list(self.coeffs))
        t0, t1 = [], [_ONE]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
        lead = r1[0]
        inv = [c / lead for c in t1]
        return self.field.from_coeffs(inv)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycloNumber):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"<{self} in Q(zeta_{self.field.order})>"

    def __str__(self):
        return cyclo_str(self)


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a, b):
    a = a[:]
    db, lead = len(b) - 1, b[-1]
    q = [_ZERO] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        k = len(a) - 1 - db
        c = a[-1] / lead
        q[k] = c
        for i in range(len(b)):
            a[i + k] -= c * b[i]
        _trim(a)
    return q, a


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [_ZERO] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


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
