"""Centroids of loop towers, realized as Laurent-polynomial stabilizers.

The centroid of a tower is computed as the stabilizer ring: elements of
(base centroid) (x) Laurent variables whose multiplication action maps the
tower into itself.  Everything infinite-dimensional is certified on explicit
degree windows; the kind dichotomy for 2-step towers and the strange-ring
audit are exact.
"""

from __future__ import annotations

import random
from math import gcd

from .errors import (
    DimensionMismatch,
    HypothesisNotMet,
    InvariantViolated,
    LoomError,
)
from .exactnum import CycloNumber
from .findim import (
    StructureAlgebra,
    centroid_algebra,
    is_central,
    is_pfgc_findim,
    is_simple,
    matrix_algebra,
)
from .grading import ModGrading, auto_from_grading, centroid_twist
from .linalg import SparseEchelon, column_kernel
from .loops import (
    DegreeBox,
    LaurentElement,
    LoopTower,
    ToralMonomialAuto,
    TowerStage,
    canonical_form,
    canonical_reconstruct,
    free_basis_check,
    laurent_multiply,
    member_projection,
    tower_membership,
)
from .polyfactor import roots_in_field

# The first-kind isomorphism-class criterion (equal scalar square classes)
# ships unproven upstream; results that depend on it carry this label and
# nothing in the package treats them as certified.
FIRST_KIND_ISO_ADVISORY = "paper remark, proof omitted in source"


class StabilizerBasis:
    """Window basis of the stabilizer ring of a tower.

    elements are Laurent elements whose coefficient vectors are coordinates
    over the base-centroid basis `maps`; dims_by_degree counts basis members
    per exponent of the outermost variable."""

    def __init__(self, box, elements, dims_by_degree, maps):
        self.box = box
        self.elements = list(elements)
        self.dims_by_degree = dict(dims_by_degree)
        self.maps = list(maps)

    @property
    def dim(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return (
            f"<StabilizerBasis dim {self.dim} on box {self.box.radius}>"
        )


class StrangeRingData:
    """Second-kind centroid generators and their defining scalar."""

    def __init__(self, rho: CycloNumber, u1, u2, u2_inv, w):
        self.rho = rho
        self.u1 = u1
        self.u2 = u2
        self.u2_inv = u2_inv
        self.w = w

    def __repr__(self):
        return "<StrangeRingData>"


class KindVerdict:
    """Outcome of the 2-step centroid dichotomy."""

    def __init__(self, kind: str, witness, details):
        if kind not in ("First", "Second"):
            raise ValueError(kind)
        self.kind = kind
        self.witness = witness
        self.details = details

    def __repr__(self):
        return f"<KindVerdict {self.kind}>"


def centroid_action(maps, u: LaurentElement, x: LaurentElement) -> LaurentElement:
    """Act by a centroid-coefficient Laurent element on a base-coefficient one.

    (chi (x) z^d) . (a (x) z^e) = chi(a) (x) z^(d+e), extended bilinearly.
    Maps whose `scalar` is set (c times the identity, as `centroid_algebra`
    decides for a central base) act without a matrix: per degree of u their
    coefficients fold into one scalar that scales x's rows; only the other
    maps are applied, by `LinearMap.apply` on x's coefficient vector, which
    reads the columns at its nonzero coordinates."""
    if u.arity != x.arity:
        raise DimensionMismatch("action arity mismatch")
    one = x.field.one
    rows = {}
    for du, cu in u.rows.items():
        scalar = None
        matrices = []
        for s, coeff in cu.items():
            c = maps[s].scalar
            if c is None:
                matrices.append((coeff, maps[s]))
            else:
                c = coeff * c
                scalar = c if scalar is None else scalar + c
        if scalar is not None and not scalar:
            scalar = None
        if scalar is None and not matrices:
            continue
        unit = scalar is not None and scalar == one
        for dx, rx in x.rows.items():
            deg = tuple(a + b for a, b in zip(du, dx))
            row = rows.get(deg)
            if row is None:
                row = rows[deg] = {}
            if scalar is None:
                terms = []
            elif unit:
                terms = list(rx.items())
            else:
                terms = [(j, scalar * a) for j, a in rx.items()]
            for coeff, mp in matrices:
                terms += [(i, coeff * v) for i, v in
                          enumerate(mp.apply(x.coefficient(dx))) if v]
            for j, v in terms:
                cur = row.get(j)
                row[j] = v if cur is None else cur + v
    return LaurentElement._from_rows(x.field, x.arity, x.base_dim, rows)


def stabilizes(tower: LoopTower, maps, u: LaurentElement,
               box: DegreeBox) -> bool:
    """Does u map every window basis member of the tower into the tower?
    Each image is decided by tower_membership; no linear system is posed
    (stabilizer_in_box poses one through member_projection)."""
    return all(
        tower_membership(tower, centroid_action(maps, u, x))
        for x in tower.basis_in_box(box)
    )


def stabilizer_in_box(tower: LoopTower, box: DegreeBox) -> StabilizerBasis:
    """Window basis of {u in C(A) (x) Laurent : u . L inside L}.

    The membership defect of u . x is linear in u, so the stabilizer is a
    kernel, posed on the tower's period classes (LoopTower): the rows come
    from the members at the first degree of each class in the box.
    Members are homogeneous in the variables with a period, so unknowns
    in different slices (LoopTower.degree_slice) share no row, and a block
    is the box degrees of one slice.  The first block of each class in the
    box is solved and its canonical kernel shifted onto the other blocks of
    the class.  The constraint sets equal those of
    the whole window, so the kernels do too.  The same box serves as the
    action-verification window.  Scalar centroid maps act without a
    matrix (see centroid_action).  Each box is solved once per tower;
    later calls return the stored basis."""
    if box.arity != tower.n:
        raise DimensionMismatch(
            f"box arity {box.arity}, tower has {tower.n} stages"
        )
    stored = tower._stabilizer_cache.get(box.radius)
    if stored is not None:
        return stored
    if not is_pfgc_findim(tower.base):
        raise HypothesisNotMet(
            "stabilizer realization requires a pfgc base"
        )
    if tower.n == 0:
        raise HypothesisNotMet(
            "stabilizer windows need at least one loop stage"
        )
    calg, maps = centroid_algebra(tower.base)
    r = calg.dim
    field = tower.field
    lows = tuple(-x for x in box.radius)
    members = [
        x for x in tower.basis_in_box(box)
        if not any(tower.class_shift(tower.member_degree(x), lows))
    ]
    blocks = {}
    for d in box.degrees():
        blocks.setdefault(tower.degree_slice(d), []).append(d)

    def block_kernel(block_degs):
        keys = [(d, s) for d in block_degs for s in range(r)]
        columns = []
        for d, s in keys:
            u = LaurentElement.monomial(
                field, tower.n, r, d, calg.basis_vector(s)
            )
            # the defect u . x - P(u . x) of each member, entered straight
            # into the column; the echelon drops entries that cancel
            column = {}
            for t, x in enumerate(members):
                ux = centroid_action(maps, u, x)
                for deg, row in ux.rows.items():
                    for k, val in row.items():
                        column[(t, deg, k)] = val
                for deg, row in member_projection(tower, ux).rows.items():
                    for k, val in row.items():
                        key = (t, deg, k)
                        cur = column.get(key)
                        column[key] = -val if cur is None else cur - val
            columns.append(column)
        return column_kernel(keys, columns, field)

    kernels = {}
    elements = []
    dims_by_degree = dict.fromkeys(range(lows[-1], box.radius[-1] + 1), 0)
    # blocks in order of the outermost exponent (P_n is always set), then
    # of their slices
    for key in sorted(blocks, key=lambda k: (k[-1], k)):
        head = blocks[key][0]
        shift = tower.class_shift(head, lows)
        first = tower.degree_slice(tuple(g - o for g, o in zip(head, shift)))
        if first not in kernels:
            kernels[first] = block_kernel(blocks[first])
        dims_by_degree[key[-1]] += len(kernels[first])
        for sol in kernels[first]:
            rows = {}
            for (d, s), val in sol.items():
                deg = tuple(a + o for a, o in zip(d, shift))
                rows.setdefault(deg, {})[s] = val
            elements.append(LaurentElement._from_rows(field, tower.n, r, rows))
    stab = StabilizerBasis(box, elements, dims_by_degree, maps)
    tower._stabilizer_cache[box.radius] = stab
    return stab


def same_span(first, second) -> bool:
    """Do two families of Laurent elements span the same space?

    Each family's (degree, coordinate) rows (LaurentElement.sparse_items)
    go to an echelon of their own; the spans agree when the ranks match and
    every element of the second family reduces to zero against the first.
    Rows at different degrees share no key, so a homogeneous row is
    eliminated inside its own degree, and an element spread over several
    degrees is still reduced exactly."""
    ech = SparseEchelon()
    for e in first:
        ech.add_row(e.sparse_items())
    other = SparseEchelon()
    for e in second:
        row = e.sparse_items()
        if ech.reduce_vector(row):
            return False
        other.add_row(row)
    return ech.rank == other.rank


def centroid_tower(tower: LoopTower):
    """The induced tower over the base centroid.

    Each stage twist is replaced by the twist its coefficient automorphism
    induces on the centroid (centroid_twist, whose eigen-grading is the
    centroid grading) and keeps the degree matrix and character; the
    result is again a toral-monomial tower, over the centroid algebra."""
    calg, maps = centroid_algebra(tower.base)
    stages = []
    for stage in tower.stages:
        twist = ToralMonomialAuto(
            centroid_twist(stage.twist.theta), stage.twist.m_matrix,
            stage.twist.c_vector, stage.twist.zeta,
        )
        stages.append(TowerStage(twist, stage.modulus, stage.zeta))
    return LoopTower(calg, stages), calg, maps


def multiloop_centroid_check(tower: LoopTower, stab: StabilizerBasis):
    """Stabilizer of a multiloop over a central simple base: exactly the
    monomials in z_p^(m_p).  Reports any discrepancy in the window of
    `stab`, a stabilizer_in_box result for the tower."""
    # every degree period is set exactly when every degree matrix is I
    if None in tower.degree_periods or any(
            any(stage.twist.c_vector) for stage in tower.stages):
        raise HypothesisNotMet("tower was not built as a multiloop")
    if not (is_simple(tower.base) and is_central(tower.base)):
        raise HypothesisNotMet(
            "multiloop centroid description requires a central simple base"
        )
    box = stab.box
    moduli = tower.moduli()
    expected = [
        d for d in box.degrees()
        if all(di % m == 0 for di, m in zip(d, moduli))
    ]
    field = tower.field
    expected_elements = [
        LaurentElement.monomial(field, tower.n, 1, d, (field.one,))
        for d in expected
    ]
    return {
        "ok": same_span(stab.elements, expected_elements),
        "expected_count": len(expected),
        "stabilizer_dim": stab.dim,
        "generators": [
            f"z{p + 1}^{m}" for p, m in enumerate(moduli)
        ],
        "box": box.radius,
        "dims_by_degree": stab.dims_by_degree,
    }


def psi_check(algebra: StructureAlgebra, grading: ModGrading, box: DegreeBox):
    """One-step comparison: loop of the centroid versus centroid of the loop.

    Builds the 1-step tower of the grading, computes its stabilizer window,
    then builds the loop tower of the centroid grading and verifies that its
    window lands inside the stabilizer with matching per-degree dimensions,
    acting by the centroid product rule."""
    if box.arity != 1:
        raise DimensionMismatch(
            f"psi comparison is a 1-step statement, box arity {box.arity}"
        )
    if not is_pfgc_findim(algebra):
        raise HypothesisNotMet("psi comparison requires a pfgc algebra")
    auto = auto_from_grading(grading)
    field = algebra.field
    twist = ToralMonomialAuto(auto, (), (), field.one)
    tower = LoopTower(algebra, [TowerStage(twist, grading.modulus,
                                           grading.zeta)])
    stab = stabilizer_in_box(tower, box)
    ctower, _, maps = centroid_tower(tower)
    cwindow = ctower.basis_in_box(box)
    dims_loop_of_centroid = {}
    for e in cwindow:
        for deg in e.rows:
            dims_loop_of_centroid[deg[0]] = (
                dims_loop_of_centroid.get(deg[0], 0) + 1
            )
    window = tower.basis_in_box(box)
    into_stabilizer = all(
        stabilizes(tower, maps, u, box) for u in cwindow
    )
    product_rule_ok = True
    for u in cwindow:
        for x in window:
            for y in window:
                ux = centroid_action(maps, u, x)
                uy = centroid_action(maps, u, y)
                lhs = centroid_action(maps, u, laurent_multiply(algebra, x, y))
                if lhs != laurent_multiply(algebra, ux, y) or lhs != (
                    laurent_multiply(algebra, x, uy)
                ):
                    product_rule_ok = False
                    break
            if not product_rule_ok:
                break
        if not product_rule_ok:
            break
    span_match = same_span(stab.elements, cwindow)
    return {
        "ok": into_stabilizer and product_rule_ok and span_match,
        "into_stabilizer": into_stabilizer,
        "product_rule": product_rule_ok,
        "span_match": span_match,
        "dims_stabilizer_by_degree": stab.dims_by_degree,
        "dims_loop_of_centroid_by_degree": dims_loop_of_centroid,
        "box": box.radius,
    }


def untwist_check(tower: LoopTower, box: DegreeBox):
    """Windowed verification of the untwisting theorem.

    Three parts: the coefficient ring is free over the centroid tower with
    the monomial sections as a basis (exact window decomposition; the
    coefficients are unique by canonical_form's construction); every
    base-window vector has an exact canonical form over the main tower that
    reconstructs bit-identically; and the stabilizer window coincides with
    the centroid-tower window as a subspace."""
    if not is_pfgc_findim(tower.base):
        raise HypothesisNotMet("untwisting requires a pfgc base")
    ctower = centroid_tower(tower)[0]
    field = tower.field
    freeness = free_basis_check(ctower, box)
    if not freeness["ok"]:
        return {"ok": False, "stage": "coefficient-ring", "freeness": freeness}
    rank = freeness["rank"]
    checked = 0
    for d in box.degrees():
        for i in range(tower.base.dim):
            y = LaurentElement.monomial(
                field, tower.n, tower.base.dim, d,
                tower.base.basis_vector(i),
            )
            fam = canonical_form(tower, y)
            if canonical_reconstruct(tower, fam) != y:
                return {"ok": False, "stage": "base-window", "at": d}
            checked += 1
    stab = stabilizer_in_box(tower, box)
    if not same_span(stab.elements, ctower.basis_in_box(box)):
        return {"ok": False, "stage": "stabilizer-window"}
    return {
        "ok": True,
        "rank": rank,
        "sections": tower.index_classes(),
        "coefficient_vectors_checked": freeness["checked"],
        "base_vectors_checked": checked,
        "stabilizer_dim": stab.dim,
        "box": box.radius,
        "note": (
            f"coefficient ring is free of rank {rank} over the stabilizer "
            f"(verified on box {box.radius})"
        ),
    }


def _scalar_coefficient_algebra(field) -> StructureAlgebra:
    return matrix_algebra(1, field)


def kind_classify(tower: LoopTower) -> KindVerdict:
    """Dichotomy for the centroid of a 2-step tower over a central simple base.

    First kind: some monomial z1^(m1) z2^j stabilizes; the witness is a
    Laurent-generator pair.  Second kind: no such monomial; the witness is
    strange-ring data with its defining scalar.  Two independent routes
    (monomial membership, degree-matrix sign) must agree."""
    if tower.n != 2:
        raise HypothesisNotMet("kind is defined for 2-step towers")
    base = tower.base
    if not (is_simple(base) and is_central(base)):
        raise HypothesisNotMet("kind requires a central simple base")
    m1, m2 = tower.moduli()
    twist2 = tower.stages[1].twist
    field = tower.field
    maps = centroid_algebra(base)[1]
    mono_sign = twist2.m_matrix[0][0]
    if mono_sign not in (1, -1):
        raise HypothesisNotMet(
            "second-stage degree action must be inversion or identity"
        )
    window = tower.default_box()
    hits = []
    for j in range(m2):
        u = LaurentElement.monomial(
            field, 2, 1, (m1, j), (field.one,)
        )
        if stabilizes(tower, maps, u, window):
            hits.append(j)
    first_by_monomial = bool(hits)
    first_by_sign = mono_sign == 1
    if first_by_monomial != first_by_sign:
        raise InvariantViolated(
            "kind routes disagree; twist outside the supported class"
        )
    rho = twist2.character_value((m1,))
    if first_by_monomial:
        # z1^(m1) z2^e stabilizes exactly when zeta_2^e = rho
        e = hits[0]
        p2 = gcd(e, m2)
        n2 = m2 // p2
        r_prime = e // p2
        s = pow(r_prime, -1, n2) if n2 > 1 else 0
        t1 = LaurentElement.monomial(field, 2, 1, (m1 * n2, 0), (field.one,))
        t2 = LaurentElement.monomial(field, 2, 1, (m1 * s, p2), (field.one,))
        for gen in (t1, t2):
            if not stabilizes(tower, maps, gen, window):
                raise InvariantViolated("first-kind witness does not stabilize")
        return KindVerdict(
            "First",
            (t1, t2),
            {
                "monomial_exponents": hits,
                "rho_prime": rho,
                "order_of_rho_prime": n2,
                "t1_degree": (m1 * n2, 0),
                "t2_degree": (m1 * s, p2),
                "verified_box": window.radius,
                "isomorphism_advisory": FIRST_KIND_ISO_ADVISORY,
            },
        )
    if m2 % 2 != 0:
        raise HypothesisNotMet(
            "inversion twist needs an even second modulus"
        )
    one = (field.one,)
    u1 = LaurentElement(
        field, 2, 1,
        {(m1, 0): one, (-m1, 0): (rho,)},
    )
    u2 = LaurentElement.monomial(field, 2, 1, (0, m2), one)
    u2_inv = LaurentElement.monomial(field, 2, 1, (0, -m2), one)
    w = LaurentElement(
        field, 2, 1,
        {(m1, m2 // 2): one, (-m1, m2 // 2): (-rho,)},
    )
    for gen in (u1, u2, u2_inv, w):
        if not stabilizes(tower, maps, gen, window):
            raise InvariantViolated("second-kind witness does not stabilize")
    return KindVerdict(
        "Second",
        StrangeRingData(rho, u1, u2, u2_inv, w),
        {
            "rho": rho,
            "verified_box": window.radius,
            "relation": "w^2 = (u1^2 - 4 rho) u2",
        },
    )


def first_kind_iso_hint(field, rho_a: CycloNumber, rho_b: CycloNumber):
    """Advisory comparison of two first-kind towers by their scalars.

    The criterion (same class iff rho_a/rho_b is a square in the field) is
    unproven upstream, so the answer is labeled, never certified.  The
    square test itself is exact: x^2 - ratio either has a root in the field
    or it does not."""
    if not rho_b:
        raise HypothesisNotMet("second scalar must be nonzero")
    ratio = rho_a * rho_b.inverse()
    sqrt = None
    for root, _ in roots_in_field([-ratio, field.zero, field.one], field):
        sqrt = root
        break
    return {
        "ratio": ratio,
        "square_in_field": sqrt is not None,
        "square_root": sqrt,
        "advisory": FIRST_KIND_ISO_ADVISORY,
    }


_AUDIT_SEED = 20260214


def strange_ring_audit(data: StrangeRingData, degree_bound: int):
    """Exact checks on strange-ring generators.

    Verifies the defining relation, the linear independence of the monomial
    family u1^a u2^b w^c over the window, and multiplicativity of the norm
    on pseudo-random samples."""
    field = data.u1.field
    scalar = _scalar_coefficient_algebra(field)
    one = LaurentElement.monomial(field, 2, 1, (0, 0), (field.one,))

    def mul(x, y):
        return laurent_multiply(scalar, x, y)

    w_sq = mul(data.w, data.w)
    u1_sq = mul(data.u1, data.u1)
    relation_rhs = mul(u1_sq.sub(one.scale(data.rho * 4)), data.u2)
    relation_ok = w_sq == relation_rhs
    if not relation_ok:
        raise LoomError(
            "strange ring relation failed", code="strange-ring-relation"
        )
    if mul(data.u2, data.u2_inv) != one:
        raise LoomError(
            "u2 inverse is wrong", code="strange-ring-relation"
        )
    ech = SparseEchelon()
    count = 0
    u1_pows = [one]
    for _ in range(degree_bound):
        u1_pows.append(mul(u1_pows[-1], data.u1))
    u2_pows = {0: one}
    for b in range(1, degree_bound + 1):
        u2_pows[b] = mul(u2_pows[b - 1], data.u2)
        u2_pows[-b] = mul(u2_pows.get(-(b - 1), one), data.u2_inv)
    independent = True
    for a in range(degree_bound + 1):
        for b in range(-degree_bound, degree_bound + 1):
            for c in (0, 1):
                elt = mul(u1_pows[a], u2_pows[b])
                if c:
                    elt = mul(elt, data.w)
                if ech.add_row(elt.sparse_items()) is None:
                    independent = False
                count += 1
    expected = 2 * (degree_bound + 1) * (2 * degree_bound + 1)
    rng = random.Random(_AUDIT_SEED)

    def random_poly():
        acc = LaurentElement.zero(field, 2, 1)
        for _ in range(3):
            a = rng.randint(0, 2)
            b = rng.randint(-2, 2)
            coeff = rng.randint(-3, 3)
            if coeff:
                term = mul(u1_pows[a], u2_pows[b]).scale(coeff)
                acc = acc.add(term)
        return acc

    def norm(x1, x2):
        return mul(x1, x1).sub(mul(mul(x2, x2), w_sq))

    norm_samples = 0
    norm_ok = True
    for _ in range(8):
        p1, p2 = random_poly(), random_poly()
        q1, q2 = random_poly(), random_poly()
        pq1 = mul(p1, q1).add(mul(mul(p2, q2), w_sq))
        pq2 = mul(p1, q2).add(mul(p2, q1))
        if norm(pq1, pq2) != mul(norm(p1, p2), norm(q1, q2)):
            norm_ok = False
        norm_samples += 1
    return {
        "relation_ok": relation_ok,
        "independence": {
            "checked": count,
            "expected": expected,
            "rank": ech.rank,
            "ok": independent and count == expected,
        },
        "norm_samples": norm_samples,
        "norm_multiplicative": norm_ok,
    }
