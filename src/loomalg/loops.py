"""Iterated loop constructions over Laurent polynomial coefficients.

An n-step tower refines a base structure algebra through n graded-loop
stages.  Elements are stored sparsely as multidegree -> coefficient-vector
maps; nothing is ever truncated silently.  Every infinite-dimensional claim
(twist stabilization, twist period) is verified on an explicit finite degree
window and reported as such.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import gcd, lcm

from .errors import (
    DimensionMismatch,
    HypothesisNotMet,
    InvalidGrading,
    InvariantViolated,
    NotAnAutomorphism,
)
from .exactnum import CycloNumber, root_of_unity_order
from .findim import (
    StructureAlgebra,
    is_associative,
    nonzero_terms,
    property_report,
)
from .grading import FiniteOrderAuto
from .linalg import (
    SparseEchelon,
    column_kernel,
    vec_add,
    vec_is_zero,
)

_MATRIX_ORDER_CAP = 4096


class DegreeBox:
    """A finite symmetric window of multidegrees: |d_i| <= radius_i."""

    def __init__(self, radius):
        self.radius = tuple(int(r) for r in radius)
        if any(r < 0 for r in self.radius):
            raise ValueError("box radii must be nonnegative")

    @property
    def arity(self) -> int:
        return len(self.radius)

    def contains(self, degree) -> bool:
        return len(degree) == self.arity and all(
            -r <= d <= r for d, r in zip(degree, self.radius)
        )

    def degrees(self):
        """All multidegrees in the window, lexicographically sorted."""
        ranges = [range(-r, r + 1) for r in self.radius]
        return list(iter_product(*ranges))

    def prefix(self) -> "DegreeBox":
        return DegreeBox(self.radius[:-1])

    def halved(self) -> "DegreeBox":
        return DegreeBox(tuple(r // 2 for r in self.radius))

    def volume(self) -> int:
        v = 1
        for r in self.radius:
            v *= 2 * r + 1
        return v

    def __eq__(self, other):
        return isinstance(other, DegreeBox) and self.radius == other.radius

    def __hash__(self):
        return hash(self.radius)

    def __repr__(self):
        return f"DegreeBox{self.radius}"


def _checked_degree(deg, arity):
    deg = tuple(int(d) for d in deg)
    if len(deg) != arity:
        raise DimensionMismatch(
            f"degree {deg} has arity {len(deg)}, expected {arity}"
        )
    return deg


def _checked_vector(vec, base_dim):
    vec = tuple(vec)
    if len(vec) != base_dim:
        raise DimensionMismatch(
            f"coefficient length {len(vec)}, expected {base_dim}"
        )
    return vec


class LaurentElement:
    """A base-algebra-valued Laurent polynomial in `arity` variables.

    support maps multidegree tuples to nonzero coefficient vectors; an
    arity-0 element is a plain vector wrapped with the empty degree ().

    The constructor zero-tests every coordinate it is given.  The kernels
    of this layer build their results through two internal constructors
    that zero-test only what was computed: _from_rows takes sparse rows
    {degree: {coordinate: scalar}}, and _from_nonzero takes vectors
    already known to be nonzero, moved unchanged to other degrees.  Both
    still convert and check every degree.
    """

    __slots__ = ("field", "arity", "base_dim", "support")

    def __init__(self, field, arity: int, base_dim: int, support=None):
        self.field = field
        self.arity = arity
        self.base_dim = base_dim
        clean = {}
        if support:
            for deg, vec in support.items():
                deg = _checked_degree(deg, arity)
                vec = _checked_vector(vec, base_dim)
                if not vec_is_zero(vec):
                    clean[deg] = vec
        self.support = clean

    @classmethod
    def _with_support(cls, field, arity, base_dim, support):
        x = cls.__new__(cls)
        x.field = field
        x.arity = arity
        x.base_dim = base_dim
        x.support = support
        return x

    @classmethod
    def _from_rows(cls, field, arity, base_dim, rows):
        """The element with rows {degree: {coordinate: scalar}}: a row's
        scalars may be sums that cancelled, so each is zero-tested once,
        and each nonzero row becomes its dense vector."""
        zero = field.zero
        support = {}
        for deg, row in rows.items():
            vec = None
            for k, c in row.items():
                if c:
                    if vec is None:
                        vec = [zero] * base_dim
                    vec[k] = c
            if vec is not None:
                support[_checked_degree(deg, arity)] = tuple(vec)
        return cls._with_support(field, arity, base_dim, support)

    @classmethod
    def _from_nonzero(cls, field, arity, base_dim, support):
        """The element with these degrees and vectors, the vectors known
        to be nonzero, so none is zero-tested again."""
        return cls._with_support(field, arity, base_dim, {
            _checked_degree(deg, arity): _checked_vector(vec, base_dim)
            for deg, vec in support.items()
        })

    @classmethod
    def zero(cls, field, arity, base_dim):
        return cls(field, arity, base_dim, {})

    @classmethod
    def monomial(cls, field, arity, base_dim, degree, vec):
        return cls(field, arity, base_dim, {tuple(degree): tuple(vec)})

    @classmethod
    def from_vector(cls, field, vec):
        vec = tuple(vec)
        return cls(field, 0, len(vec), {(): vec})

    def is_zero(self) -> bool:
        return not self.support

    def degrees(self):
        return sorted(self.support)

    def coefficient(self, degree):
        degree = tuple(degree)
        vec = self.support.get(degree)
        if vec is None:
            return tuple(self.field.zero for _ in range(self.base_dim))
        return vec

    def _check_compatible(self, other: "LaurentElement"):
        if (
            self.field is not other.field
            or self.arity != other.arity
            or self.base_dim != other.base_dim
        ):
            raise DimensionMismatch("laurent elements live in different spaces")

    def add(self, other: "LaurentElement") -> "LaurentElement":
        self._check_compatible(other)
        support = dict(self.support)
        for deg, vec in other.support.items():
            cur = support.get(deg)
            support[deg] = vec if cur is None else vec_add(cur, vec)
        return LaurentElement(self.field, self.arity, self.base_dim, support)

    def sub(self, other: "LaurentElement") -> "LaurentElement":
        self._check_compatible(other)
        support = dict(self.support)
        for deg, vec in other.support.items():
            cur = support.get(deg)
            support[deg] = (tuple(-x for x in vec) if cur is None
                            else tuple(a - b for a, b in zip(cur, vec)))
        return LaurentElement(self.field, self.arity, self.base_dim, support)

    def scale(self, c) -> "LaurentElement":
        if not isinstance(c, CycloNumber):
            c = self.field.from_rational(Fraction(c))
        if c.is_zero():
            return LaurentElement.zero(self.field, self.arity, self.base_dim)
        # only nonzero entries are multiplied
        support = {
            deg: tuple(c * a if a else a for a in vec)
            for deg, vec in self.support.items()
        }
        return LaurentElement(self.field, self.arity, self.base_dim, support)

    def shift(self, offset) -> "LaurentElement":
        """Multiply by the monomial z^offset (degree translation)."""
        offset = tuple(int(d) for d in offset)
        if len(offset) != self.arity:
            raise DimensionMismatch("shift arity mismatch")
        support = {
            tuple(d + o for d, o in zip(deg, offset)): vec
            for deg, vec in self.support.items()
        }
        return LaurentElement._from_nonzero(
            self.field, self.arity, self.base_dim, support)

    def tensor_last(self, j: int) -> "LaurentElement":
        """Append one variable, placing everything in exponent j."""
        support = {deg + (int(j),): vec for deg, vec in self.support.items()}
        return LaurentElement._from_nonzero(
            self.field, self.arity + 1, self.base_dim, support)

    def in_box(self, box: DegreeBox) -> bool:
        return all(box.contains(deg) for deg in self.support)

    def sparse_items(self):
        """(degree, coordinate) -> scalar view, for echelon bookkeeping."""
        out = {}
        for deg, vec in self.support.items():
            for i, v in enumerate(vec):
                if v:
                    out[(deg, i)] = v
        return out

    def __eq__(self, other):
        if not isinstance(other, LaurentElement):
            return NotImplemented
        return (
            self.field is other.field
            and self.arity == other.arity
            and self.base_dim == other.base_dim
            and self.support == other.support
        )

    def __hash__(self):
        return hash(
            (self.arity, self.base_dim, tuple(sorted(self.support.items())))
        )

    def __repr__(self):
        if self.is_zero():
            return "<LaurentElement 0>"
        return f"<LaurentElement arity {self.arity}, {len(self.support)} terms>"


def laurent_str(algebra: StructureAlgebra, x: LaurentElement) -> str:
    """Readable rendering with base-algebra labels and z1..zp monomials."""
    if x.is_zero():
        return "0"
    terms = []
    for deg in x.degrees():
        coeff = algebra.element_str(x.support[deg])
        mono = " ".join(
            f"z{k + 1}^{d}" if d != 1 else f"z{k + 1}"
            for k, d in enumerate(deg)
            if d != 0
        )
        if not mono:
            terms.append(f"({coeff})")
        else:
            terms.append(f"({coeff}) (x) {mono}")
    return " + ".join(terms)


def laurent_multiply(
    algebra: StructureAlgebra, x: LaurentElement, y: LaurentElement
) -> LaurentElement:
    """Convolution product: degrees add, coefficients multiply in the base.

    The nonzero terms of each coefficient are listed once, and for each
    pair of degrees `StructureAlgebra.add_product` adds the product of the
    two coefficients into the coefficient at their sum."""
    x._check_compatible(y)
    if algebra.dim != x.base_dim:
        raise DimensionMismatch("algebra dimension does not match coefficients")
    coords = range(algebra.dim)
    y_terms = [(d2, nonzero_terms(v2)) for d2, v2 in y.support.items()]
    acc = {}
    for d1, v1 in x.support.items():
        x_terms = nonzero_terms(v1)
        for d2, terms in y_terms:
            deg = tuple(a + b for a, b in zip(d1, d2))
            row = acc.get(deg)
            if row is None:
                row = acc[deg] = {}
            algebra.add_product(row, coords, x_terms, terms)
    return LaurentElement._from_rows(x.field, x.arity, x.base_dim, acc)


def box_coordinates(x: LaurentElement, box: DegreeBox):
    """Flatten a window element over (degree, coordinate) positions."""
    if not x.in_box(box):
        raise DimensionMismatch("element has support outside the box")
    field = x.field
    out = []
    for deg in box.degrees():
        vec = x.support.get(deg)
        if vec is None:
            out.extend(field.zero for _ in range(x.base_dim))
        else:
            out.extend(vec)
    return tuple(out)


def _int_matrix_det(m):
    n = len(m)
    if n == 0:
        return 1
    rows = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    if det.denominator != 1:
        raise InvariantViolated("integer matrix has a fractional determinant")
    return int(det)


def _int_mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _int_identity(n):
    return tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


class ToralMonomialAuto:
    """Twist of the form  a (x) z^j  ->  zeta^<c, j> theta(a) (x) z^(M j).

    theta acts on base coefficients, the integer matrix M (a unit, of finite
    order) remaps the Laurent degrees, and the character <c, .> twists by a
    root of unity.  Finitely presentable, closed under composition, and wide
    enough for every tower built here.
    """

    def __init__(self, theta: FiniteOrderAuto, m_matrix, c_vector,
                 zeta: CycloNumber):
        self.theta = theta
        self.field = theta.field
        self.m_matrix = tuple(tuple(int(v) for v in row) for row in m_matrix)
        self.c_vector = tuple(int(v) for v in c_vector)
        p = len(self.m_matrix)
        if any(len(row) != p for row in self.m_matrix):
            raise DimensionMismatch("degree matrix must be square")
        if len(self.c_vector) != p:
            raise DimensionMismatch("character vector length mismatch")
        det = _int_matrix_det(self.m_matrix)
        if det not in (1, -1):
            raise NotAnAutomorphism(
                f"degree matrix determinant {det} is not a unit"
            )
        self.zeta = zeta
        self.powers = _root_powers(zeta)
        if self.powers is None:
            raise NotAnAutomorphism("character root is not a root of unity")
        self.root_order = len(self.powers)
        ident = _int_identity(p)
        power = self.m_matrix
        for _ in range(_MATRIX_ORDER_CAP):
            if power == ident:
                break
            power = _int_mat_mul(power, self.m_matrix)
        else:
            raise NotAnAutomorphism("degree matrix does not have finite order")

    @property
    def arity(self) -> int:
        return len(self.m_matrix)

    def degree_image(self, degree):
        return tuple(
            sum(row[k] * degree[k] for k in range(self.arity))
            for row in self.m_matrix
        )

    def character_value(self, degree) -> CycloNumber:
        e = sum(c * d for c, d in zip(self.c_vector, degree))
        return self.powers[e % self.root_order]

    def apply(self, x: LaurentElement) -> LaurentElement:
        """The twist on the coefficients and the first `arity` variables of
        x; any later variables ride along unchanged, so a stage twist acts
        on elements of every later stage of its tower."""
        if x.arity < self.arity:
            raise DimensionMismatch(
                f"twist expects arity at least {self.arity}, "
                f"element has {x.arity}"
            )
        return LaurentElement._from_rows(
            x.field, x.arity, x.base_dim, self._image_rows(_terms(x)))

    def _image_rows(self, terms):
        """The twist of the terms (degree, [(coordinate, scalar)]) as rows
        {degree: {coordinate: scalar}}.  Only the columns of theta at the
        given coordinates are read, each scalar first multiplied by the
        character value of its degree; a row's scalars may cancel to zero."""
        k = self.arity
        columns = self.theta.columns
        c_vector, powers, order = self.c_vector, self.powers, self.root_order
        rows = {}
        for deg, pairs in terms:
            head = deg[:k]
            e = sum(c * d for c, d in zip(c_vector, head)) % order
            ndeg = self.degree_image(head) + deg[k:]
            row = rows.get(ndeg)
            if row is None:
                row = rows[ndeg] = {}
            for j, a in pairs:
                if e:
                    a = powers[e] * a
                for i, c in columns[j]:
                    t = c * a
                    cur = row.get(i)
                    row[i] = t if cur is None else cur + t
        return rows

    def __repr__(self):
        return f"<ToralMonomialAuto arity {self.arity}>"


def _terms(x: LaurentElement):
    """x as terms (degree, [(coordinate, scalar)]) of nonzero scalars."""
    return [(deg, nonzero_terms(vec)) for deg, vec in x.support.items()]


def _root_powers(zeta: CycloNumber):
    """(1, zeta, ..., zeta^(o - 1)) for o the order of the root of unity
    zeta, or None when zeta is not a root of unity."""
    order = root_of_unity_order(zeta)
    if order is None:
        return None
    powers = [zeta.field.one]
    for _ in range(order - 1):
        powers.append(powers[-1] * zeta)
    return tuple(powers)


class TowerStage:
    """One stage: its twist, modulus m and root zeta.  powers holds zeta^t
    for 0 <= t < m in a valid stage, whose root has order m (the tower
    checks that)."""

    __slots__ = ("twist", "modulus", "zeta", "powers")

    def __init__(self, twist: ToralMonomialAuto, modulus: int,
                 zeta: CycloNumber):
        self.twist = twist
        self.modulus = modulus
        self.zeta = zeta
        self.powers = _root_powers(zeta)


class LoopTower:
    """The loop algebra of its parent tower by the last stage's twist.

    LoopTower(base, stages) is L_n with n = len(stages); its parent is
    LoopTower(base, stages[:-1]), or None for the base itself (n == 0).
    Each tower validates only the stage it adds: the root is checked
    primitive, and the twist is checked to stabilize the parent and to
    satisfy sigma^m = id, both on the parent's default window, whose radii
    extend the parent's validation_boxes; the least k with sigma^k = id
    there extends the parent's actual_periods.  Stages may be shared
    between towers, so nothing is recorded on them.  Towers are immutable
    afterwards.

    degree_periods holds the periods P: shifting by z_p^(P_p) maps the
    tower onto itself.  P_n = m_n always.  For p < n, P_p is set only
    when every stage's degree matrix is I (then members are homogeneous
    in every variable); it is m_p t_p with t_p the least integer such that
    every later stage's character is trivial on m_p t_p e_p, and None
    otherwise.  So whether and how a (x) z^g lies in the tower depends on
    g only through its class: g modulo P_p in each variable with a period,
    g_p itself in the others.  class_shift is the one place that turns
    the periods into offsets; members are homogeneous in the variables
    with a period, and the member projection commutes with the shifts.
    """

    def __init__(self, base: StructureAlgebra, stages):
        self.base = base
        self.field = base.field
        self.stages = tuple(stages)
        self.n = len(self.stages)
        self._window_cache = {}
        self._eigen_cache = {}
        self._proj_memo = {}
        # stabilizer_in_box results by box radius, kept like the windows
        self._stabilizer_cache = {}
        if self.n == 0:
            self.parent = None
            self.validation_boxes = []
            self.actual_periods = ()
        else:
            self.parent = LoopTower(base, self.stages[:-1])
            radius, period = self._validate_last_stage()
            self.validation_boxes = [*self.parent.validation_boxes, radius]
            self.actual_periods = (*self.parent.actual_periods, period)
        self.degree_periods = self._degree_periods()

    # -- construction-time checks ------------------------------------------

    def _degree_periods(self):
        identity = all(s.twist.m_matrix == _int_identity(s.twist.arity)
                       for s in self.stages)
        periods = []
        for p, stage in enumerate(self.stages):
            # z_p^(m t) is fixed by stage q's character zeta_q^<c_q, .>
            # exactly when o_q divides m t c_q[p]
            t = 1
            for later in self.stages[p + 1:]:
                o = later.twist.root_order
                t = lcm(t, o // gcd(o, stage.modulus * later.twist.c_vector[p]))
            outer = p == self.n - 1
            periods.append(stage.modulus * t if identity or outer else None)
        return tuple(periods)

    def _validate_last_stage(self):
        """Check the stage this tower adds; return the window radii used
        and the stage's actual period."""
        p = self.n
        stage = self.stages[-1]
        twist, m = stage.twist, stage.modulus
        if m < 1:
            raise InvalidGrading(f"stage {p} modulus must be positive")
        if twist.arity != p - 1:
            raise InvalidGrading(
                f"stage {p} twist has arity {twist.arity}, expected {p - 1}"
            )
        if twist.theta.algebra is not self.base:
            raise InvalidGrading(
                f"stage {p} twist coefficients act on a different base"
            )
        order = None if stage.powers is None else len(stage.powers)
        if order != m:
            raise InvalidGrading(
                f"stage {p} root has order {order}, expected {m}"
            )
        box = self.parent.default_box()
        basis = self.parent.basis_in_box(box)
        images = [twist.apply(b) for b in basis]
        if not all(tower_membership(self.parent, x) for x in images):
            raise InvalidGrading(
                f"stage {p} twist does not stabilize the previous stage "
                f"(checked on box {box.radius})"
            )
        # images holds sigma^k of the window: the least divisor k of m
        # that fixes it is the stage's actual period
        for k in range(1, m + 1):
            if m % k == 0 and images == basis:
                return box.radius, k
            images = [twist.apply(x) for x in images]
        raise InvalidGrading(
            f"stage {p} twist does not satisfy sigma^{m} = id "
            f"(checked on box {box.radius})"
        )

    # -- structure ---------------------------------------------------------

    def moduli(self):
        return tuple(s.modulus for s in self.stages)

    def index_classes(self):
        """The canonical-form index set: the product of range(m_p)."""
        return list(iter_product(*(range(s.modulus) for s in self.stages)))

    def default_box(self) -> DegreeBox:
        return DegreeBox(tuple(2 * s.modulus for s in self.stages))

    def class_shift(self, degree, origin):
        """The period multiple that moves degree to the first degree of its
        class at or above origin: per variable 0 where no period is set,
        else the multiple of P_p with origin_p <= g_p - shift_p < origin_p
        + P_p (negative exponents floor to the start of their class)."""
        return tuple(
            0 if period is None else (g - o) // period * period
            for g, o, period in zip(degree, origin, self.degree_periods)
        )

    def degree_slice(self, degree):
        """The slice of a degree: its exponents in the variables with a
        period.  Members are homogeneous in those variables, so a member
        lies in one slice, and the product of members of slices s and t
        lies in slice s + t."""
        return tuple(g for g, period in zip(degree, self.degree_periods)
                     if period is not None)

    def member_degree(self, x: LaurentElement):
        """A degree of a window member's support, checked to share its
        slice with the whole support."""
        if len({self.degree_slice(deg) for deg in x.support}) != 1:
            raise InvariantViolated(
                "window member is not homogeneous in the variables with a "
                "period"
            )
        return next(iter(x.support))

    # -- window bases ------------------------------------------------------

    def basis_in_box(self, box: DegreeBox):
        """Basis of the members supported inside the box.

        Recursive: a window basis of the previous stage feeds per-residue
        eigenspace solves for the last twist; each eigenvector is tensored
        onto every admissible exponent of the last variable."""
        if box.arity != self.n:
            raise DimensionMismatch(
                f"box arity {box.arity}, tower has {self.n} stages"
            )
        cached = self._window_cache.get(box.radius)
        if cached is not None:
            return cached
        if self.n == 0:
            out = [
                LaurentElement.from_vector(self.field, self.base.basis_vector(i))
                for i in range(self.base.dim)
            ]
            self._window_cache[box.radius] = out
            return out
        stage = self.stages[-1]
        window = self.parent.basis_in_box(box.prefix())
        eigen = self._eigenspaces(box.prefix(), window, stage)
        out = []
        r_last = box.radius[-1]
        for j in range(-r_last, r_last + 1):
            for vec in eigen[j % stage.modulus]:
                out.append(vec.tensor_last(j))
        self._window_cache[box.radius] = out
        return out

    def _eigenspaces(self, prefix_box, window, stage):
        """Per-residue eigenbases of the stage twist inside span(window).

        The twist equation is evaluated on full supports (including degrees
        the twist pushes outside the window), so no spurious eigenvectors
        appear; each residue is one sparse kernel over all window
        generators."""
        cached = self._eigen_cache.get(prefix_box.radius)
        if cached is not None:
            return cached
        twist, m = stage.twist, stage.modulus
        field = self.field
        images = [twist.apply(b) for b in window]
        keys = range(len(window))
        result = {}
        for ell in range(m):
            lam = stage.powers[ell]
            columns = [
                img.sub(b.scale(lam)).sparse_items()
                for b, img in zip(window, images)
            ]
            basis_ell = []
            for sol in column_kernel(keys, columns, field):
                acc = LaurentElement.zero(field, self.n - 1, self.base.dim)
                for t, coeff in sorted(sol.items()):
                    acc = acc.add(window[t].scale(coeff))
                basis_ell.append(acc)
            result[ell] = basis_ell
        self._eigen_cache[prefix_box.radius] = result
        return result

    def __repr__(self):
        return (
            f"<LoopTower {self.n} stages, moduli {self.moduli()}, "
            f"base dim {self.base.dim}>"
        )


def tower_membership(tower: LoopTower, x: LaurentElement) -> bool:
    """Stage-by-stage test; exact, no window involved.  x is a member
    exactly when, for every stage p, sigma_p (acting on the first p - 1
    variables) scales each monomial of x by zeta_p^(g_p), g_p its z_p
    exponent; the first failing stage decides.  x's nonzero terms are
    listed once: each stage's image is built from them, and only they are
    scaled into the vector each image coefficient must equal.  The
    routine that decides membership of a given element (member_projection
    poses the linear systems in unknown ones)."""
    if x.arity != tower.n:
        raise DimensionMismatch(
            f"element arity {x.arity}, tower has {tower.n} stages"
        )
    zero = x.field.zero
    terms = _terms(x)
    for p, stage in enumerate(tower.stages):
        powers, m = stage.powers, stage.modulus
        image = LaurentElement._from_rows(
            x.field, x.arity, x.base_dim, stage.twist._image_rows(terms)
        ).support
        if len(image) != len(terms):
            return False
        for deg, pairs in terms:
            vec = image.get(deg)
            if vec is None:
                return False
            e = deg[p] % m
            want = [zero] * x.base_dim
            for k, b in pairs:
                want[k] = powers[e] * b if e else b
            if vec != tuple(want):
                return False
    return True


def member_projection(tower: LoopTower, y: LaurentElement) -> LaurentElement:
    """Linear idempotent projection whose fixed points are the members.

    Applies E_1, then E_2, up to E_n, where E_p averages the stage twist
    against the z_p exponent (see _project_once).  The image always lies
    in the tower (twists stabilize earlier stages), so y is a member
    exactly when member_projection(tower, y) == y; the defect y - P(y) is
    linear in y, which turns membership of unknown linear combinations into
    kernel systems (stabilizer_in_box, canonical_form); tower_membership
    decides membership of a given element.  The projection commutes with
    the shifts by the degree periods, so single-monomial projections are
    memoized per tower by (class representative, coordinate), the
    representative being the first degree of the class at or above 0, and
    each cached piece, stored as its nonzero terms, is shifted back onto
    the degree asked for."""
    if y.arity != tower.n:
        raise DimensionMismatch(
            f"element arity {y.arity}, tower has {tower.n} stages"
        )
    one = tower.field.one
    origin = (0,) * tower.n
    rows = {}
    memo = tower._proj_memo
    for g, pairs in _terms(y):
        shift = tower.class_shift(g, origin)
        moved = any(shift)
        rep = tuple(a - s for a, s in zip(g, shift)) if moved else g
        for i, c in pairs:
            cached = memo.get((rep, i))
            if cached is None:
                cached = memo[(rep, i)] = _project_once(tower, rep, i)
            unit = c == one
            for deg, piece in cached:
                if moved:
                    deg = tuple(a + s for a, s in zip(deg, shift))
                row = rows.get(deg)
                if row is None:
                    row = rows[deg] = {}
                for k, v in piece:
                    if not unit:
                        v = c * v
                    cur = row.get(k)
                    row[k] = v if cur is None else cur + v
    return LaurentElement._from_rows(tower.field, tower.n, tower.base.dim, rows)


def _project_once(tower: LoopTower, degree, coordinate):
    """E_n ... E_1 of the monomial e_coordinate (x) z^degree, as its
    nonzero terms (degree, [(coordinate, scalar)]), where
    E_p = (1/m_p) sum_t zeta_p^(-g_p t) sigma_p^t on each monomial of z_p
    exponent g_p.  sigma_p keeps the exponents from the p-th on, so
    applied innermost first this unrolls the recursion
    L_n = L(L_(n-1), sigma_n)."""
    field = tower.field
    terms = [(degree, [(coordinate, field.one)])]
    for p, stage in enumerate(tower.stages):
        twist, m, powers = stage.twist, stage.modulus, stage.powers
        inv_m = field.from_rational(Fraction(1, m))
        acc = {}
        cur = terms
        for t in range(m):
            if t:
                cur = [(deg, row.items())
                       for deg, row in twist._image_rows(cur).items()]
            for deg, pairs in cur:
                e = -deg[p] * t % m
                row = acc.get(deg)
                if row is None:
                    row = acc[deg] = {}
                for k, v in pairs:
                    if e:
                        v = powers[e] * v
                    a = row.get(k)
                    row[k] = v if a is None else a + v
        terms = []
        for deg, row in acc.items():
            pairs = [(k, inv_m * v) for k, v in row.items() if v]
            if pairs:
                terms.append((deg, pairs))
        if not terms:
            break
    return terms


def canonical_form(tower: LoopTower, y: LaurentElement):
    """Unique decomposition y = sum over residue classes of z^i . x_i.

    Returns a dict keyed by every index class of the tower; each value is a
    verified member.  Piece i is the member projection of z^-i . y: the
    projection fixes members and sends z^a . x to zero for every member x
    and every offset a != 0 with |a_p| < m_p (the outer slices land on the
    wrong twist eigenvalue, or the prefix projection kills them), and two
    index classes differ by exactly such an offset."""
    if y.arity != tower.n:
        raise DimensionMismatch(
            f"element arity {y.arity}, tower has {tower.n} stages"
        )
    out = {}
    for idx in tower.index_classes():
        x = member_projection(tower, y.shift(tuple(-i for i in idx)))
        if not x.is_zero() and not tower_membership(tower, x):
            raise InvariantViolated(
                f"canonical piece at {idx} is not a member"
            )
        out[idx] = x
    return out


def canonical_reconstruct(tower: LoopTower, family) -> LaurentElement:
    """Sum of z^i . x_i over the family; inverse of canonical_form."""
    acc = LaurentElement.zero(tower.field, tower.n, tower.base.dim)
    for idx, x in family.items():
        acc = acc.add(x.shift(idx))
    return acc


def multiloop(base: StructureAlgebra, autos, zetas) -> LoopTower:
    """Tower of commuting base automorphisms, trivial on the variables.

    Stage p has modulus the period of autos[p-1].  LoopTower validates
    every stage, so nothing is checked here twice: the root order is the
    stage's own check, and commutation is stabilization.  In a multiloop
    the members of each degree are a joint eigenspace of the earlier
    automorphisms, and the default window holds every class, so a stage
    stabilizes the stage before it exactly when its automorphism commutes
    with every earlier one."""
    autos = list(autos)
    zetas = list(zetas)
    if len(autos) != len(zetas):
        raise DimensionMismatch("need one root per automorphism")
    stages = []
    field = base.field
    for p, (auto, zeta) in enumerate(zip(autos, zetas), start=1):
        twist = ToralMonomialAuto(
            auto, _int_identity(p - 1), (0,) * (p - 1), field.one
        )
        stages.append(TowerStage(twist, auto.period, zeta))
    return LoopTower(base, stages)


def free_basis_check(tower: LoopTower, box: DegreeBox):
    """Free-module verification over the monomial sections 1 (x) z^i.

    For a unital associative base, every window member must equal
    sum_i x_i . (1 (x) z^i) with x_i the canonical pieces, which are unique
    by construction (see canonical_form); the rank is the product of the
    stage moduli.  The unit is two-sided (StructureAlgebra checks it), so
    x_i . (1 (x) z^i) is the shift z^i . x_i and the sum is
    canonical_reconstruct of the pieces."""
    base = tower.base
    if base.unit is None:
        raise HypothesisNotMet("free module check requires a unital base")
    if not is_associative(base):
        raise HypothesisNotMet("free module check requires an associative base")
    rank = 1
    for s in tower.stages:
        rank *= s.modulus
    checked = 0
    for y in tower.basis_in_box(box):
        if canonical_reconstruct(tower, canonical_form(tower, y)) != y:
            return {"ok": False, "rank": rank, "checked": checked}
        checked += 1
    return {
        "ok": True,
        "rank": rank,
        "checked": checked,
        "box": box.radius,
        "sections": tower.index_classes(),
    }


def _covers_inner_window(tower: LoopTower, window, inner, lie: bool,
                         unordered: bool) -> bool:
    """Do the products of pairs of window members span every inner member?

    Slice by slice (LoopTower.degree_slice): the products whose slices sum
    to one holding inner members go to that slice's own echelon, pairs in
    window order; a pair of any other slice is never formed.  Whenever a
    new pivot brings a slice's rank up to the number of its members still
    uncovered, those are reduced, and the slice is done once none is left.
    False as soon as a slice runs out of pairs first."""
    base = tower.base
    pending = {}
    for y in inner:
        pending.setdefault(tower.degree_slice(tower.member_degree(y)),
                           []).append(y.sparse_items())
    members = []  # (slice, nonzero terms by degree), in window order
    by_slice = {}  # slice -> [(window index, nonzero terms by degree)]
    for t, b in enumerate(window):
        key = tower.degree_slice(tower.member_degree(b))
        terms = [(deg, nonzero_terms(vec)) for deg, vec in b.support.items()]
        members.append((key, terms))
        by_slice.setdefault(key, []).append((t, terms))
    keys = {}  # degree -> the row keys (degree, k) of its coordinates

    def rows(target):
        for i, (key, a_terms) in enumerate(members):
            partner = tuple(g - h for g, h in zip(target, key))
            for j, b_terms in by_slice.get(partner, ()):
                if unordered and (j <= i if lie else j < i):
                    continue
                row = {}
                for d1, x_terms in a_terms:
                    for d2, y_terms in b_terms:
                        deg = tuple(p + q for p, q in zip(d1, d2))
                        deg_keys = keys.get(deg)
                        if deg_keys is None:
                            deg_keys = keys[deg] = tuple(
                                (deg, k) for k in range(base.dim))
                        base.add_product(row, deg_keys, x_terms, y_terms)
                yield row

    for target in sorted(pending):
        uncovered = pending[target]
        ech = SparseEchelon()
        for row in rows(target):
            if ech.add_row(row) is not None and ech.rank >= len(uncovered):
                uncovered = [y for y in uncovered if ech.reduce_vector(y)]
                if not uncovered:
                    break
        if uncovered:
            return False
    return True


def inherited_flags(tower: LoopTower):
    """Base properties carried to the loop by the permanence theorem.

    Each loop flag records its provenance; nonzeroness and perfectness are
    additionally certified inside the window whose radii are the stage
    moduli when they hold there.

    Perfectness is certified when the products of pairs of window members
    span every member of the inner window, box.halved(); products of
    members stay members, so this certifies perfectness of everything the
    inner window sees.  The span is a direct sum over slices
    (LoopTower.degree_slice): members are homogeneous in the variables
    with a period, a product a . b lies in the slice of exp(a) + exp(b),
    and rows of different slices share no coordinate.  So each inner
    member needs only the rows of its own slice, a pair is formed only
    when its slice holds inner members, and a slice takes no more pairs
    once its inner members are covered (_covers_inner_window).  A pair
    whose product vanishes is sent too, and the echelon drops it.

    When the base is commutative or Lie, each unordered pair is formed
    once.  A Laurent product sums a_d . b_e at degree d + e, so over such a
    base b . a = +-a . b, and over a Lie base a . a = 0 (each a_d . a_d
    vanishes and the terms a_d . a_e, a_e . a_d cancel).  Any other base
    takes every ordered pair.  The row of a pair is summed by
    `StructureAlgebra.add_product` straight under its (degree, coordinate)
    keys, from the nonzero terms of each member, listed once."""
    base_report = property_report(tower.base)
    base = tower.base

    def derived(value):
        return {"value": value, "source": "derived-by-theorem"}

    loop_flags = {"nonzero": derived(base.dim > 0)}
    for name in ("perfect", "pfgc", "unital", "commutative", "associative"):
        loop_flags[name] = derived(base_report[name]["value"])
    prime_val = base_report["prime"]["value"]
    loop_flags["prime"] = derived(True if prime_val else None)
    if base.dim == 0:
        for flag in loop_flags.values():
            flag["value"] = None
            flag["source"] = "not applicable: zero base"
        return {"base": base_report, "loop": loop_flags}
    box = DegreeBox(tuple(s.modulus for s in tower.stages))
    window = tower.basis_in_box(box)
    if window:
        loop_flags["nonzero"] = {"value": True, "source": "verified-in-box"}
    if base_report["perfect"]["value"]:
        lie = base_report["lie"]["value"]
        unordered = lie or base_report["commutative"]["value"]
        inner = tower.basis_in_box(box.halved())
        if _covers_inner_window(tower, window, inner, lie, unordered):
            loop_flags["perfect"] = {"value": True, "source": "verified-in-box"}
    return {"base": base_report, "loop": loop_flags, "box": box.radius}
