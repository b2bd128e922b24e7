"""Helpers shared between the unit suites and the acceptance module."""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import sympy

from loomalg import findim, polyfactor
from loomalg.archetypes import _centralizer_candidates, _weight_key
from loomalg.centroid_loop import (
    StabilizerBasis,
    centroid_action,
    stabilizer_in_box,
    window_span,
)
from loomalg.dsl import DIAGNOSTIC_CODES
from loomalg.errors import DimensionMismatch, InvariantViolated, NotSplit
from loomalg.findim import StructureAlgebra, centroid_algebra
from loomalg.grading import ModGrading
from loomalg.linalg import (
    SpanSolver,
    SparseEchelon,
    Subspace,
    column_kernel,
    identity_matrix,
    kernel_basis,
    mat_mul,
    transpose,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vector,
)
from loomalg.fixtures import swap_sum_fixture
from loomalg.loops import (
    DegreeBox,
    LaurentElement,
    LoopTower,
    ToralMonomialAuto,
    TowerStage,
    box_coordinates,
    member_projection,
)


def slice_tail(x: LaurentElement, k: int):
    """x grouped by the exponents of its variables after the k-th: each
    tail of exponents maps to its coefficient, an element of arity k."""
    groups = {}
    for deg, vec in x.support.items():
        groups.setdefault(deg[k:], {})[deg[:k]] = vec
    return {
        tail: LaurentElement(x.field, k, x.base_dim, support)
        for tail, support in groups.items()
    }


def join_tail(field, arity, base_dim, pieces) -> LaurentElement:
    """Inverse of slice_tail: the sum of each piece times its tail."""
    support = {}
    for tail, piece in pieces.items():
        for deg, vec in piece.support.items():
            support[deg + tail] = vec
    return LaurentElement(field, arity, base_dim, support)


def sliced_apply(twist, x: LaurentElement) -> LaurentElement:
    """Oracle for ToralMonomialAuto.apply on an element with more variables
    than the twist: apply it to the coefficient of each tail of the later
    exponents, an element of the twist's own arity, and put it back."""
    pieces = {
        tail: twist.apply(piece)
        for tail, piece in slice_tail(x, twist.arity).items()
    }
    return join_tail(x.field, x.arity, x.base_dim, pieces)


def scaled_apply(twist, x: LaurentElement) -> LaurentElement:
    """Oracle for ToralMonomialAuto.apply: every image scaled by
    zeta^<c, j> raised by repeated squaring, trivial characters included."""
    k = twist.arity
    support = {}
    for deg, vec in x.support.items():
        head = deg[:k]
        e = sum(c * d for c, d in zip(twist.c_vector, head))
        img = vec_scale(twist.zeta ** (e % twist.root_order),
                        twist.theta.apply(vec))
        ndeg = tuple(sum(r * d for r, d in zip(row, head))
                     for row in twist.m_matrix) + deg[k:]
        cur = support.get(ndeg)
        support[ndeg] = img if cur is None else vec_add(cur, img)
    return LaurentElement(x.field, x.arity, x.base_dim, support)


def dense_twist_apply(twist, x: LaurentElement) -> LaurentElement:
    """Oracle for ToralMonomialAuto.apply: theta applied to each whole
    coefficient vector, zero coordinates included, the image then scaled by
    the character value; built through the validating constructor."""
    k = twist.arity
    support = {}
    for deg, vec in x.support.items():
        head = deg[:k]
        img = twist.theta.apply(vec)
        e = sum(c * d for c, d in zip(twist.c_vector, head))
        e %= twist.root_order
        if e:
            img = vec_scale(twist.powers[e], img)
        ndeg = twist.degree_image(head) + deg[k:]
        cur = support.get(ndeg)
        support[ndeg] = img if cur is None else vec_add(cur, img)
    return LaurentElement(x.field, x.arity, x.base_dim, support)


def dense_tower_membership(tower, x: LaurentElement) -> bool:
    """Oracle for loops.tower_membership: at each stage p the dense image
    must equal the dict of x's vectors, each scaled by zeta_p^(g_p)."""
    for p, stage in enumerate(tower.stages):
        powers, m = stage.powers, stage.modulus
        want = {
            deg: vec_scale(powers[deg[p] % m], vec) if deg[p] % m else vec
            for deg, vec in x.support.items()
        }
        if dense_twist_apply(stage.twist, x).support != want:
            return False
    return True


def _dense_project_once(tower, y: LaurentElement) -> LaurentElement:
    field = tower.field
    for p, stage in enumerate(tower.stages):
        twist, m, powers = stage.twist, stage.modulus, stage.powers
        inv_m = field.from_rational(Fraction(1, m))
        acc = {}
        cur = y
        for t in range(m):
            if t:
                cur = dense_twist_apply(twist, cur)
            for deg, vec in cur.support.items():
                e = -deg[p] * t % m
                v = vec_scale(powers[e], vec) if e else vec
                a = acc.get(deg)
                acc[deg] = v if a is None else vec_add(a, v)
        y = LaurentElement(
            field, tower.n, tower.base.dim,
            {deg: vec_scale(inv_m, v) for deg, v in acc.items()},
        )
        if y.is_zero():
            break
    return y


def dense_member_projection(tower, y: LaurentElement) -> LaurentElement:
    """Oracle for loops.member_projection: E_n ... E_1 of each monomial of
    y on dense vectors, each monomial projected afresh (no memo, no period
    shifts) and scaled by its coefficient."""
    field = tower.field
    d = tower.base.dim
    support = {}
    for g, vec in y.support.items():
        for i, c in enumerate(vec):
            if not c:
                continue
            mono = LaurentElement.monomial(
                field, tower.n, d, g, tower.base.basis_vector(i))
            for deg, v in _dense_project_once(tower, mono).support.items():
                v = vec_scale(c, v)
                cur = support.get(deg)
                support[deg] = v if cur is None else vec_add(cur, v)
    return LaurentElement(field, tower.n, d, support)


def dense_centroid_action(maps, u: LaurentElement, x: LaurentElement):
    """Oracle for centroid_loop.centroid_action: per degree of u the scalar
    maps fold into one scalar and the others are applied to each whole
    vector of x, zero coordinates included, as dense vector sums."""
    one = x.field.one
    support = {}
    for du, cu in u.support.items():
        scalar = x.field.zero
        matrices = []
        for s, coeff in enumerate(cu):
            if not coeff:
                continue
            c = maps[s].scalar
            if c is None:
                matrices.append((coeff, maps[s]))
            else:
                scalar = scalar + coeff * c
        for dx, vx in x.support.items():
            if not scalar:
                img = None
            elif scalar == one:
                img = vx
            else:
                img = vec_scale(scalar, vx)
            for coeff, mp in matrices:
                term = vec_scale(coeff, mp.apply(vx))
                img = term if img is None else vec_add(img, term)
            if img is None or (matrices and vec_is_zero(img)):
                continue
            deg = tuple(a + b for a, b in zip(du, dx))
            cur = support.get(deg)
            support[deg] = img if cur is None else vec_add(cur, img)
    return LaurentElement(x.field, x.arity, x.base_dim, support)


def swap_sum_tower():
    """A two-stage tower over sl(2) + sl(2), whose centroid is not the
    scalars: both stages swap the summands, and the second also inverts z1
    and twists by (-1)^(j1)."""
    fix = swap_sum_fixture()
    field, auto = fix["field"], fix["auto"]
    return LoopTower(fix["algebra"], [
        TowerStage(ToralMonomialAuto(auto, (), (), field.one), 2, field.zeta),
        TowerStage(ToralMonomialAuto(auto, ((-1,),), (1,), field.zeta),
                   2, field.zeta),
    ])


def assert_clean_support(x: LaurentElement, arity: int, base_dim: int):
    """x has integer degrees of the given arity and nonzero coefficient
    tuples of length base_dim, as the validating constructor leaves them."""
    assert (x.arity, x.base_dim) == (arity, base_dim)
    for deg, vec in x.support.items():
        assert type(deg) is tuple and len(deg) == arity
        assert all(type(g) is int for g in deg)
        assert type(vec) is tuple and len(vec) == base_dim
        assert not vec_is_zero(vec)
    assert LaurentElement(x.field, arity, base_dim, x.support) == x


def recursive_membership(tower, x: LaurentElement) -> bool:
    """Oracle for loops.tower_membership: each z_n slice must be a member
    of the parent tower and an eigenvector of the last twist for the
    eigenvalue its exponent demands."""
    if tower.n == 0:
        return True
    stage = tower.stages[-1]
    for (j,), piece in slice_tail(x, tower.n - 1).items():
        if not recursive_membership(tower.parent, piece):
            return False
        if stage.twist.apply(piece) != piece.scale(
            stage.zeta ** (j % stage.modulus)
        ):
            return False
    return True


def recursive_projection(tower, y: LaurentElement) -> LaurentElement:
    """Oracle for loops.member_projection: project each z_n slice into the
    parent tower, then onto the twist eigenspace its exponent demands,
    (1/m) sum_t zeta^(-j t) sigma^t, and tensor it back; no memo."""
    if tower.n == 0:
        return y
    stage = tower.stages[-1]
    twist, m, zeta = stage.twist, stage.modulus, stage.zeta
    field = tower.field
    inv_m = field.from_rational(Fraction(1, m))
    pieces = {}
    for (j,), piece in slice_tail(y, tower.n - 1).items():
        cur = recursive_projection(tower.parent, piece)
        comp = LaurentElement.zero(field, tower.n - 1, tower.base.dim)
        for t in range(m):
            if t:
                cur = twist.apply(cur)
            comp = comp.add(cur.scale(zeta ** (-j * t % m)))
        pieces[(j,)] = comp.scale(inv_m)
    return join_tail(field, tower.n, tower.base.dim, pieces)


def zero_algebra(n, field):
    """The n-dimensional algebra with every product zero."""
    z = tuple(zero_vector(field, n) for _ in range(n))
    return StructureAlgebra(field, tuple(z for _ in range(n)))


def cross_product_algebra(field):
    """so(3) as the cross product on three coordinates: e0 x e1 = e2 and
    cyclically.  Split exactly when the field holds a square root of -1."""
    zero = tuple(field.zero for _ in range(3))

    def e(k, sign=1):
        return tuple(
            field.from_rational(sign) if q == k else field.zero
            for q in range(3)
        )

    table = [[zero] * 3 for _ in range(3)]
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        table[i][j] = e(k)
        table[j][i] = e(k, -1)
    return StructureAlgebra(field, table)


def column_ideal_algebra(field):
    """The first column of mat(2), a left ideal: e0 = E_11 and e1 = E_21,
    so e0 e0 = e0, e1 e0 = e1 and the other products vanish.  Associative
    and perfect, but neither commutative nor anticommutative."""
    one, zero = field.one, field.zero
    return StructureAlgebra(field, [
        [(one, zero), (zero, zero)],
        [(zero, one), (zero, zero)],
    ])


def dense_laurent_multiply(algebra: StructureAlgebra, x: LaurentElement,
                           y: LaurentElement) -> LaurentElement:
    """Oracle for loops.laurent_multiply: one dense base product per pair
    of degrees, through `naive_multiply`, so it shares no code with the
    sparse product routine of findim."""
    x._check_compatible(y)
    if algebra.dim != x.base_dim:
        raise DimensionMismatch("algebra dimension does not match coefficients")
    support = {}
    for d1, v1 in x.support.items():
        for d2, v2 in y.support.items():
            prod = naive_multiply(algebra, v1, v2)
            if vec_is_zero(prod):
                continue
            deg = tuple(a + b for a, b in zip(d1, d2))
            cur = support.get(deg)
            support[deg] = prod if cur is None else vec_add(cur, prod)
    return LaurentElement(x.field, x.arity, x.base_dim, support)


def ordered_pair_products(tower):
    """The nonzero a . b, as sparse rows, over every ordered pair of members
    of the window whose radii are the stage moduli: the oracle of the
    perfectness certificate of `loops.inherited_flags` on any base, whose
    rows lie in their span and cover the inner window exactly when they
    do.  The products are dense (`dense_laurent_multiply`), so the rows do
    not depend on the product routine the certificate uses."""
    box = DegreeBox(tuple(s.modulus for s in tower.stages))
    window = tower.basis_in_box(box)
    rows = []
    for a in window:
        for b in window:
            prod = dense_laurent_multiply(tower.base, a, b)
            if not prod.is_zero():
                rows.append(prod.sparse_items())
    return rows


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """The common vectors of two subspaces of one coordinate space."""
    field = a.field
    if not a.basis or not b.basis:
        return Subspace(field, a.ambient)
    # solutions of sum s_i a_i - sum t_j b_j = 0 give the common vectors
    columns = [{k: x for k, x in enumerate(v) if x} for v in a.basis]
    columns += [{k: -x for k, x in enumerate(v) if x} for v in b.basis]
    vectors = []
    for sol in column_kernel(range(len(columns)), columns, field):
        v = zero_vector(field, a.ambient)
        for i, c in sol.items():
            if i < len(a.basis):
                v = vec_add(v, vec_scale(c, a.basis[i]))
        vectors.append(v)
    return Subspace(field, a.ambient, vectors)


def mult_module_closure(a: StructureAlgebra, vectors) -> Subspace:
    """Smallest subspace containing the vectors and stable under all
    left and right multiplications (the ideal generated by them)."""
    solver = SpanSolver(a.field, a.dim)
    spanning = [v for v in vectors if solver.add(v)]
    for w in spanning:  # the list grows while it is walked
        for i in range(a.dim):
            for m in (dense_left_mult(a, i), dense_right_mult(a, i)):
                u = mat_apply(m, w)
                if solver.add(u):
                    spanning.append(u)
    return Subspace(a.field, a.dim, spanning)


def transposed_module_closure(a: StructureAlgebra, vectors) -> Subspace:
    """Smallest subspace containing the vectors and stable under the
    transposes of all left and right multiplications (a submodule of the
    transposed, or dual, module)."""
    solver = SpanSolver(a.field, a.dim)
    spanning = [v for v in vectors if solver.add(v)]
    for w in spanning:  # the list grows while it is walked
        for i in range(a.dim):
            for m in (dense_left_mult(a, i), dense_right_mult(a, i)):
                u = mat_apply(transpose(m), w)
                if solver.add(u):
                    spanning.append(u)
    return Subspace(a.field, a.dim, spanning)


def eager_simple_candidates(a: StructureAlgebra, basis_mats):
    """Oracle for findim._simple_candidates: all seeded random combinations
    of basis matrices built first, then L_i and R_i for each i."""
    field = a.field
    rng = random.Random(findim._SIMPLE_SEED)
    candidates = []
    for _ in range(findim._SIMPLE_TRIALS):
        hi = min(4, len(basis_mats))
        terms = rng.randint(min(2, hi), hi)
        picks = rng.sample(range(len(basis_mats)), terms)
        m = None
        for p in picks:
            c = field.from_rational(rng.randint(-2, 2))
            scaled = tuple(
                tuple(c * x for x in row) for row in basis_mats[p]
            )
            m = scaled if m is None else tuple(
                tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(m, scaled)
            )
        candidates.append(m)
    for i in range(a.dim):
        candidates.append(dense_left_mult(a, i))
        candidates.append(dense_right_mult(a, i))
    return candidates


def hermitian_orbit_count(radius) -> int:
    """Independent count of the hermitian stabilizer basis on a box.

    Basis: (z1^i1 + (-1)^i2 z1^-i1) z2^i2 with i1 > 0 even, together with
    z2^i2 for even i2; counted inside the given radius."""
    r1, r2 = radius
    count = 0
    for i1 in range(2, r1 + 1, 2):
        count += 2 * r2 + 1
    count += len([i2 for i2 in range(-r2, r2 + 1) if i2 % 2 == 0])
    return count


def peval(p, x):
    """Horner evaluation of a polynomial (constant term first) at x."""
    acc = x.field.zero
    for c in reversed(p):
        acc = acc * x + c
    return acc


# -- the sympy factoring oracle -------------------------------------------------
#
# The factoring path the package used before it factored in-house: sympy's
# rational factorization and a bivariate resultant for Trager's norm.  Polys
# are built straight from coefficients, never through sympy expressions.

_X, _Y = sympy.symbols("_loom_x _loom_y")
_QQ = sympy.QQ


def _qq(q):
    return _QQ(q.numerator, q.denominator)


def _from_sympy_factor(poly, field):
    out = []
    for c in reversed(poly.all_coeffs()):
        q = sympy.Rational(c)
        out.append(field.from_rational(Fraction(int(q.p), int(q.q))))
    return polyfactor.ptrim(out)


def _sympy_norm(g, field):
    """Resultant over the cyclotomic modulus: the field norm of g."""
    phi = sympy.Poly.from_dict(
        {(k, 0): _QQ(c) for k, c in enumerate(field.modulus) if c},
        _Y, _X, domain=_QQ,
    )
    terms = {
        (k, i): _qq(q)
        for i, c in enumerate(g)
        for k, q in enumerate(c.coeffs)
        if q
    }
    return phi.resultant(sympy.Poly.from_dict(terms, _Y, _X, domain=_QQ))


def _sympy_factor_squarefree(p, field):
    pf = polyfactor
    if pf.pdeg(p) <= 1:
        return [pf.pmonic(p)]
    if field.degree == 1:
        rep = [_qq(c.as_rational()) for c in reversed(p)]
        _, factors = sympy.Poly.from_list(rep, _X, domain=_QQ).factor_list()
        return [pf.pmonic(_from_sympy_factor(f, field)) for f, _ in factors]
    for s in range(0, 20 * field.degree):
        g = pf.pshift(p, field.from_rational(-s) * field.zeta)
        norm = _sympy_norm(g, field)
        if norm.gcd(norm.diff(_X)).degree() > 0:
            continue
        back = field.from_rational(s) * field.zeta
        out = []
        for fac, _mult in norm.factor_list()[1]:
            cand = pf.pgcd(g, _from_sympy_factor(fac, field))
            if pf.pdeg(cand) >= 1:
                out.append(pf.pmonic(pf.pshift(cand, back)))
        return out
    raise AssertionError("no squarefree norm shift")


def sympy_factor(p, field):
    """Oracle for polyfactor.factor through sympy: monic irreducible
    factors with multiplicities, in factor's order."""
    out = [
        (f, k)
        for g, k in polyfactor.squarefree_decomposition(p)
        for f in _sympy_factor_squarefree(g, field)
    ]
    out.sort(key=lambda fk: (polyfactor.pdeg(fk[0]),
                             tuple(c.coeffs for c in fk[0])))
    return out


def element_from_box_coordinates(field, base_dim, box: DegreeBox, flat):
    """Inverse of box_coordinates: the Laurent element with these
    coordinates over the box degrees."""
    support = {}
    degs = box.degrees()
    if len(flat) != len(degs) * base_dim:
        raise DimensionMismatch("flat vector does not match the box")
    for k, deg in enumerate(degs):
        vec = tuple(flat[k * base_dim : (k + 1) * base_dim])
        if not vec_is_zero(vec):
            support[deg] = vec
    return LaurentElement(field, box.arity, base_dim, support)


def reference_centroid_action(maps, u, x):
    """Oracle for centroid_action: u . x = sum over the terms c_s (x) z^d of
    u of c_s . mat_apply(maps[s].matrix, x) shifted by d, with every map
    applied as a matrix, whatever its `scalar`."""
    acc = LaurentElement.zero(x.field, x.arity, x.base_dim)
    for du, cu in u.support.items():
        for s, c in enumerate(cu):
            image = {
                dx: mat_apply(maps[s].matrix, vx)
                for dx, vx in x.support.items()
            }
            term = LaurentElement(x.field, x.arity, x.base_dim, image)
            acc = acc.add(term.shift(du).scale(c))
    return acc


def window_stabilizer(tower, box: DegreeBox) -> StabilizerBasis:
    """Oracle for centroid_loop.stabilizer_in_box: one kernel per exponent
    of the outermost variable, every unknown degree of that slice posed
    against every window member (no periods, nothing stored)."""
    calg, maps = centroid_algebra(tower.base)
    r = calg.dim
    field = tower.field
    window = tower.basis_in_box(box)
    degrees = box.degrees()
    elements = []
    dims_by_degree = {}
    last_r = box.radius[-1]
    for d_last in range(-last_r, last_r + 1):
        block_degs = [d for d in degrees if d[-1] == d_last]
        keys = [(d, s) for d in block_degs for s in range(r)]
        columns = []
        for d, s in keys:
            u = LaurentElement.monomial(
                field, tower.n, r, d,
                tuple(field.one if q == s else field.zero
                      for q in range(r)),
            )
            column = {}
            for t, x in enumerate(window):
                ux = centroid_action(maps, u, x)
                defect = ux.sub(member_projection(tower, ux))
                for (deg, coord), val in defect.sparse_items().items():
                    column[(t, deg, coord)] = val
            columns.append(column)
        sols = column_kernel(keys, columns, field)
        dims_by_degree[d_last] = len(sols)
        for sol in sols:
            support = {}
            for (d, s), val in sol.items():
                if val:
                    vec = support.setdefault(d, [field.zero] * r)
                    vec[s] = val
            elements.append(
                LaurentElement(field, tower.n, r, support)
            )
    return StabilizerBasis(box, elements, dims_by_degree, maps)


def restricted_stabilizer_span(tower, big_radius, small_box: DegreeBox,
                               stab=None):
    """Stabilizer window at big_radius, cut down to the small window.

    Returns the subspace (in small-box coordinates) of stabilizer
    combinations whose support already fits inside the small box.  Two
    calls with different big radii become directly comparable, which is
    what the box-growth stability check needs.  A precomputed stabilizer
    for big_radius may be passed to avoid recomputation."""
    big_box = DegreeBox(big_radius)
    if stab is None:
        stab = stabilizer_in_box(tower, big_box)
    field = tower.field
    r = stab.elements[0].base_dim if stab.elements else 1
    big = window_span(stab.elements, big_box, field, r)
    degs = big_box.degrees()
    pos = {d: k for k, d in enumerate(degs)}
    inject = []
    for d in small_box.degrees():
        for s in range(r):
            v = [field.zero] * (len(degs) * r)
            v[pos[d] * r + s] = field.one
            inject.append(tuple(v))
    coord_sub = Subspace(field, len(degs) * r, inject)
    meet = intersect(big, coord_sub)
    small_vecs = []
    for vec in meet.basis:
        e = element_from_box_coordinates(field, r, big_box, vec)
        small_vecs.append(box_coordinates(e, small_box))
    return Subspace(field, small_box.volume() * r, small_vecs)


class FractionCyclo:
    """Oracle for exactnum.CycloNumber: an element of Q(zeta_N) as a tuple
    of Fraction power-basis coefficients, with one Fraction operation per
    coefficient and reduction by long division by the cyclotomic
    polynomial."""

    def __init__(self, field, coeffs):
        self.field = field
        cs = [Fraction(c) for c in coeffs]
        modulus, phi = field.modulus, field.degree
        # the modulus is monic: clear the top coefficient until phi remain
        for k in range(len(cs) - 1, phi - 1, -1):
            c = cs[k]
            if c:
                for i, m in enumerate(modulus):
                    cs[k - phi + i] -= c * m
        cs = cs[:phi]
        self.coeffs = tuple(cs + [Fraction(0)] * (phi - len(cs)))

    @classmethod
    def of(cls, a):
        return cls(a.field, a.coeffs)

    def __add__(self, other):
        return FractionCyclo(
            self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        return FractionCyclo(
            self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return FractionCyclo(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        conv = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        return FractionCyclo(self.field, conv)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = FractionCyclo(self.field, [1])
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return self.field is other.field and self.coeffs == other.coeffs

    def inverse(self):
        """Extended Euclid against the cyclotomic modulus in Q[x]."""
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero")
        r0 = [Fraction(c) for c in self.field.modulus]
        r1 = _trim(list(self.coeffs))
        t0, t1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
        return FractionCyclo(self.field, [c / r1[0] for c in t1])

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            rat = (str(c.numerator) if c.denominator == 1
                   else f"{c.numerator}/{c.denominator}")
            if k == 0:
                parts.append(rat)
            else:
                stem = "z" if k == 1 else f"z^{k}"
                parts.append(stem if c == 1 else f"{rat}*{stem}")
        return " + ".join(parts) if parts else "0"


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a, b):
    a = a[:]
    db = len(b) - 1
    q = [Fraction(0)] * max(0, len(a) - db)
    while a and len(a) - 1 >= db:
        k = len(a) - 1 - db
        c = a[-1] / b[-1]
        q[k] = c
        for i in range(len(b)):
            a[i + k] -= c * b[i]
        _trim(a)
    return q, a


def _poly_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def naive_mat_mul(a, b):
    """Oracle for linalg.mat_mul: the triple loop, every product formed."""
    zero = a[0][0].field.zero
    return tuple(
        tuple(
            sum((a[i][t] * b[t][j] for t in range(len(b))), start=zero)
            for j in range(len(b[0]))
        )
        for i in range(len(a))
    )


def mat_apply(m, v):
    """Oracle for linalg.column_apply: matrix times column vector over the
    dense rows, every row entry in the vector's support multiplied."""
    support = [(j, x) for j, x in enumerate(v) if x]
    return tuple(
        sum((row[j] * x for j, x in support), start=row[0].field.zero)
        for row in m
    )


def dense_mult_algebra_basis(a: StructureAlgebra):
    """Oracle for findim.mult_algebra_basis: every product of an accepted
    element and a generator formed as a dense matrix and zero-tested entry
    by entry before it enters the echelon."""
    n = a.dim
    gens = [dense_left_mult(a, i) for i in range(n)]
    gens += [dense_right_mult(a, i) for i in range(n)]
    ident = identity_matrix(a.field, n)
    ech = SparseEchelon()

    def sparse(m):
        return {(i, j): m[i][j] for i in range(n) for j in range(n) if m[i][j]}

    queue = [ident]
    ech.add_row(sparse(ident))
    basis = [ident]
    while queue:
        m = queue.pop()
        for g in gens:
            prod = mat_mul(m, g)
            if ech.add_row(sparse(prod)) is not None:
                basis.append(prod)
                queue.append(prod)
    return basis


def trace(m):
    """Sum of the diagonal entries of a nonempty square matrix."""
    return sum((m[i][i] for i in range(len(m))), start=m[0][0].field.zero)


def faddeev_leverrier_charpoly(m, field):
    """Oracle for linalg.charpoly by the Faddeev-LeVerrier recurrence:
    A_1 = m, c_(n-1) = -tr A_1, and A_k = m (A_(k-1) + c_(n-k+1) I) with
    c_(n-k) = -tr(A_k) / k.  Low degree first, monic."""
    n = len(m)
    coeffs = [field.zero] * (n + 1)
    coeffs[n] = field.one
    ak = m
    ck = field.one
    for k in range(1, n + 1):
        if k > 1:
            shifted = tuple(
                tuple(ak[i][j] + (ck if i == j else field.zero) for j in range(n))
                for i in range(n)
            )
            ak = mat_mul(m, shifted)
        ck = -(trace(ak) / k)
        coeffs[n - k] = ck
    return coeffs


def dense_is_associative(a: StructureAlgebra) -> bool:
    """Oracle for findim._is_associative: (xy)z = x(yz) on every triple of
    basis vectors, each product a dense multiply."""
    basis = a.basis()
    for x in basis:
        for y in basis:
            xy = a.multiply(x, y)
            for z in basis:
                if a.multiply(xy, z) != a.multiply(x, a.multiply(y, z)):
                    return False
    return True


def dense_satisfies_jacobi(a: StructureAlgebra) -> bool:
    """Oracle for findim.satisfies_jacobi: the three cyclic terms of every
    triple of distinct basis vectors, each product a dense multiply."""
    basis = a.basis()
    for i, x in enumerate(basis):
        for j in range(i + 1, a.dim):
            y = basis[j]
            for k in range(j + 1, a.dim):
                z = basis[k]
                s = vec_add(
                    vec_add(
                        a.multiply(a.multiply(x, y), z),
                        a.multiply(a.multiply(y, z), x),
                    ),
                    a.multiply(a.multiply(z, x), y),
                )
                if not vec_is_zero(s):
                    return False
    return True


def naive_multiply(a: StructureAlgebra, x, y):
    """Oracle for StructureAlgebra.multiply: x_i y_j times the dense table
    vector e_i e_j, summed over every pair of nonzero coordinates."""
    acc = zero_vector(a.field, a.dim)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    acc = vec_add(acc, vec_scale(xi * yj, a.table[i][j]))
    return acc


def dense_left_mult(a: StructureAlgebra, i: int):
    """Oracle for the matrix of L_i: column j is the table entry e_i e_j."""
    return transpose(a.table[i])


def dense_right_mult(a: StructureAlgebra, i: int):
    """Oracle for the matrix of R_i: column j is the table entry e_j e_i."""
    return transpose([a.table[j][i] for j in range(a.dim)])


def _dense_combination(a: StructureAlgebra, mats, x):
    """sum of x_m mats[m] over the nonzero coordinates of x, as dense rows."""
    acc = tuple(zero_vector(a.field, a.dim) for _ in range(a.dim))
    for m, c in enumerate(x):
        if c:
            acc = tuple(vec_add(r, vec_scale(c, s))
                        for r, s in zip(acc, mats[m]))
    return acc


def dense_centre(a: StructureAlgebra) -> Subspace:
    """Oracle for findim.centre: the commutator and the three associator
    conditions on z as dense matrices built from the L_i and R_i, every
    row of every product handed to kernel_basis."""
    n = a.dim
    lmats = [dense_left_mult(a, i) for i in range(n)]
    rmats = [dense_right_mult(a, i) for i in range(n)]
    rows = []
    # z*e_i - e_i*z = 0
    for i in range(n):
        li, ri = lmats[i], rmats[i]
        for k in range(n):
            rows.append(tuple(ri[k][t] - li[k][t] for t in range(n)))
    # (z x) y - z (x y) and (x z) y - x (z y) and (x y) z - x (y z)
    for i in range(n):
        for j in range(n):
            xy = a.table[i][j]
            l_xy = _dense_combination(a, lmats, xy)
            r_xy = _dense_combination(a, rmats, xy)
            li, ri, lj, rj = lmats[i], rmats[i], lmats[j], rmats[j]
            m1 = mat_mul(rj, ri)  # z -> (z e_i) e_j
            for k in range(n):
                rows.append(tuple(m1[k][t] - r_xy[k][t] for t in range(n)))
            m2 = mat_mul(rj, li)  # z -> (e_i z) e_j
            m2b = mat_mul(li, rj)  # z -> e_i (z e_j)
            for k in range(n):
                rows.append(tuple(m2[k][t] - m2b[k][t] for t in range(n)))
            m3 = mat_mul(li, lj)  # z -> e_i (e_j z)
            for k in range(n):
                rows.append(tuple(l_xy[k][t] - m3[k][t] for t in range(n)))
    return Subspace(a.field, n, kernel_basis(rows, n, a.field))


def dense_centroid(a: StructureAlgebra):
    """Oracle for findim.centroid: for every (i, j, k) both constraint rows
    are read off the dense table, scanning every s, as sparse rows keyed
    (row, column) of chi; the canonical kernel as dense matrices."""
    n = a.dim
    ech = SparseEchelon()
    for i in range(n):
        for j in range(n):
            p = a.table[i][j]
            for k in range(n):
                # chi(e_i e_j)_k - (chi(e_i) e_j)_k = 0
                row = {(k, r): p[r] for r in range(n) if p[r]}
                for s in range(n):
                    c = a.table[s][j][k]
                    if c:
                        row[(s, i)] = row.get((s, i), a.field.zero) - c
                ech.add_row(row)
                # chi(e_i e_j)_k - (e_i chi(e_j))_k = 0
                row = {(k, r): p[r] for r in range(n) if p[r]}
                for s in range(n):
                    c = a.table[i][s][k]
                    if c:
                        row[(s, j)] = row.get((s, j), a.field.zero) - c
                ech.add_row(row)
    keys = [(r, c) for r in range(n) for c in range(n)]
    maps = []
    for sol in ech.kernel(keys, a.field):
        m = [[a.field.zero] * n for _ in range(n)]
        for (r, c), v in sol.items():
            m[r][c] = v
        maps.append(tuple(tuple(row) for row in m))
    return maps


def projection_stabilizes(tower, maps, u, box: DegreeBox) -> bool:
    """Oracle for centroid_loop.stabilizes: every image u . x of a window
    member has zero projection defect u . x - member_projection(u . x)."""
    for x in tower.basis_in_box(box):
        ux = centroid_action(maps, u, x)
        if not ux.sub(member_projection(tower, ux)).is_zero():
            return False
    return True


def kernel_centroid_grading(grading: ModGrading) -> ModGrading:
    """Oracle for grading.centroid_grading's coordinate grading: component
    lambda is the kernel of the residual system chi(A_j) inside A_(lambda+j)
    for every j, solved over the canonical centroid basis."""
    algebra = grading.algebra
    field = algebra.field
    calg, maps = centroid_algebra(algebra)
    r = len(maps)
    subspaces = []
    for lam in range(grading.modulus):
        columns = [{} for _ in maps]
        for j, comp in enumerate(grading.components):
            target = grading.component(lam + j)
            for k, b in enumerate(comp.basis):
                for s, mp in enumerate(maps):
                    res = target.residual(mp.apply(b))
                    for coord, val in enumerate(res):
                        if val:
                            columns[s][(j, k, coord)] = val
        sols = [
            tuple(sol.get(s, field.zero) for s in range(r))
            for sol in column_kernel(range(r), columns, field)
        ]
        subspaces.append(Subspace(field, r, sols))
    if sum(sub.dim for sub in subspaces) != r:
        raise InvariantViolated("centroid grading failed to fill the centroid")
    return ModGrading(calg, grading.modulus, grading.zeta, subspaces)


def _split_spectrum(m, field):
    """Distinct eigenvalues when m is diagonalizable with all eigenvalues in
    the field; None otherwise."""
    cp = faddeev_leverrier_charpoly(m, field)
    factors = polyfactor.factor(cp, field)
    if any(polyfactor.pdeg(f) != 1 for f, _ in factors):
        return None
    lams = [-f[0] for f, _ in factors]
    n = len(m)
    prod = None
    for lam in lams:
        shifted = tuple(
            tuple(m[i][j] - (lam if i == j else field.zero) for j in range(n))
            for i in range(n)
        )
        prod = shifted if prod is None else mat_mul(prod, shifted)
    if any(v for row in prod for v in row):
        return None
    return lams


def _restricted_matrix(op, block, field):
    """Matrix of op on the span of block, in block coordinates; None if the
    span is not invariant."""
    ambient = len(block[0])
    solver = SpanSolver(field, ambient)
    for b in block:
        solver.add(b)
    cols = []
    for b in block:
        img = mat_apply(op, b)
        coords = solver.express(img)
        if coords is None:
            return None
        cols.append(coords)
    return tuple(zip(*cols))


def reference_find_cartan(a: StructureAlgebra, seed: int):
    """Oracle for archetypes._find_cartan's family: a candidate joins when
    the characteristic polynomial of its adjoint splits into linear factors
    and the product of (ad z - lambda) over its roots is zero."""
    field = a.field
    n = a.dim
    rng = random.Random(seed)
    family = []
    span = SpanSolver(field, n)
    budget = 6 * n + 60
    while True:
        if family:
            rows = []
            for h in family:
                rows.extend(a.left_mult(h).matrix)
            cent = kernel_basis(rows, n, field)
        else:
            cent = [a.basis_vector(i) for i in range(n)]
        if len(cent) == len(family):
            return family
        found = None
        tried = 0
        for z in _centralizer_candidates(cent, field, rng):
            tried += 1
            if tried > budget:
                break
            if span.contains(z):
                continue
            if _split_spectrum(a.left_mult(z).matrix, field) is not None:
                found = z
                break
        if found is None:
            raise NotSplit(
                "no split toral extension found within the retry budget"
            )
        family.append(found)
        span.add(found)


def reference_joint_eigenspaces(a: StructureAlgebra, family):
    """Oracle for archetypes._find_cartan's blocks: refine the whole space
    into joint eigenspaces of the adjoint family, one family member at a
    time, by restricting each adjoint to each block and solving each
    eigenspace in block coordinates.

    Returns a list of (weight tuple, block basis); raises NotSplit when an
    adjoint restriction fails to split into eigenspaces over the field."""
    field = a.field
    n = a.dim
    blocks = [((), [a.basis_vector(i) for i in range(n)])]
    for h in family:
        op = a.left_mult(h).matrix
        refined = []
        for weight, block in blocks:
            r = _restricted_matrix(op, block, field)
            if r is None:
                raise NotSplit("adjoint action does not preserve a block")
            cp = faddeev_leverrier_charpoly(r, field)
            total = 0
            for lam, _mult in polyfactor.roots_in_field(cp, field):
                k = len(block)
                shifted = tuple(
                    tuple(
                        r[i][j] - (lam if i == j else field.zero)
                        for j in range(k)
                    )
                    for i in range(k)
                )
                for sol in kernel_basis(shifted, k, field):
                    v = zero_vector(field, n)
                    for c, b in zip(sol, block):
                        if c:
                            v = vec_add(v, vec_scale(c, b))
                    refined.append((weight + (lam,), [v]))
                    total += 1
            if total != len(block):
                raise NotSplit(
                    "adjoint action has eigenvalues outside the session field"
                )
        merged = {}
        for weight, vecs in refined:
            merged.setdefault(weight, []).extend(vecs)
        blocks = sorted(merged.items(), key=lambda t: _weight_key(t[0]))
    return blocks


# -- syntax-tree records as dataclasses --------------------------------------
# loomalg.dsl once declared its records as frozen slotted dataclasses.  These
# are those definitions, kept as the reference that the hand-written records
# must behave like: fields, defaults, equality and hashing without the span,
# repr, frozenness and the Diagnostic checks.


@dataclass(frozen=True, slots=True)
class Span:
    line: int
    col: int
    end_line: int
    end_col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    severity: str
    span: Span
    message: str
    code: str

    def __post_init__(self):
        if self.severity not in ("error", "warning"):
            raise ValueError(self.severity)
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(self.code)

    def __str__(self):
        return (
            f"{self.span}: {self.severity}[{self.code}]: {self.message}"
        )


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # name | int | punct | eof
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col, self.line,
                    self.col + max(1, len(self.text)))


@dataclass(frozen=True, slots=True)
class Scalar:
    """Exact literal:
    sign * (numerator/denominator) * zeta(zeta_order)^zeta_power."""
    negative: bool = False
    numerator: int = 1
    denominator: int = 1
    zeta_order: int | None = None
    zeta_power: int = 1



@dataclass(frozen=True, slots=True)
class FieldDecl:
    order: int
    span: Span = dc_field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class AlgebraDecl:
    name: str
    kind: str  # mat | sl | unit | quaternion
    size: int | None
    span: Span = dc_field(compare=False, default=None)

    @property
    def dim(self) -> int:
        if self.kind == "mat":
            return self.size * self.size
        if self.kind == "sl":
            return self.size * self.size - 1
        if self.kind == "unit":
            return 1
        return 4  # quaternion

    @property
    def matrix_size(self) -> int | None:
        """Defining matrix size, for the algebras that have one."""
        if self.kind in ("mat", "sl"):
            return self.size
        return None


@dataclass(frozen=True, slots=True)
class AutoDecl:
    name: str
    kind: str  # conj | matrix | identity
    target: str
    entries: tuple  # tuple of row tuples of Scalar; () for identity
    span: Span = dc_field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class GradingDecl:
    name: str
    auto: str
    modulus: int | None
    span: Span = dc_field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class StageExpr:
    auto: str
    modulus: int
    m_matrix: tuple | None  # integer rows; None means identity action
    c_vector: tuple | None  # integers; None means zero character
    char_order: int | None  # zeta(r) for the character; None means trivial
    span: Span = dc_field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class TowerDecl:
    name: str
    kind: str  # multiloop | loop
    base: str
    autos: tuple  # names, multiloop only
    stages: tuple  # StageExpr, loop only
    span: Span = dc_field(compare=False, default=None)

    @property
    def arity(self) -> int:
        return len(self.autos) if self.kind == "multiloop" else len(
            self.stages
        )


@dataclass(frozen=True, slots=True)
class ReportOpt:
    key: str  # box | seed
    values: tuple
    span: Span = dc_field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class ElementTerm:
    sign: int  # +1 or -1, the joiner sign
    coeff: Scalar | None  # None means coefficient 1 written implicitly
    label: str
    degree: tuple
    span: Span = dc_field(compare=False, default=None)


@dataclass(frozen=True, slots=True)
class Command:
    op: str  # check-grading | build-tower | centroid | kind | type
             # | untwist | canonical-form
    target: str
    second: str | None = None
    box: tuple | None = None
    element: tuple | None = None
    span: Span = dc_field(compare=False, default=None)


REFERENCE_RECORDS = (
    Span, Diagnostic, Token, Scalar, FieldDecl, AlgebraDecl, AutoDecl,
    GradingDecl, StageExpr, TowerDecl, ReportOpt, ElementTerm, Command,
)
