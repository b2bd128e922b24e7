"""Z/m-gradings of structure algebras and their determining automorphisms.

A grading is stored with its modulus and an explicit primitive root zeta of
that order; the components are eigenspace-canonical subspaces.  The root is
always passed around explicitly, never inferred from context, so a grading
over a field with several roots of the same order is unambiguous.
"""

from __future__ import annotations

from .errors import InvalidGrading, InvariantViolated, NotAnAutomorphism
from .exactnum import CycloNumber, root_of_unity_order
from .findim import LinearMap, StructureAlgebra, centroid_algebra
from .linalg import (
    SpanSolver,
    Subspace,
    charpoly,
    column_apply,
    identity_matrix,
    kernel_basis,
    mat_mul,
    sparse_columns,
    vec_add,
    vec_scale,
    zero_vector,
)

_ORDER_SEARCH_CAP = 4096


class FiniteOrderAuto:
    """An algebra automorphism of verified finite multiplicative order.

    `matrix` holds the rows (column j is the image of e_j); `columns` is
    its column form (linalg's sparse_columns), built once here, and `apply`
    reads only that."""

    def __init__(self, algebra: StructureAlgebra, matrix):
        self.algebra = algebra
        self.field = algebra.field
        self.matrix = tuple(tuple(row) for row in matrix)
        n = algebra.dim
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise NotAnAutomorphism("matrix shape does not match the algebra")
        self.columns = sparse_columns(self.matrix)
        # det = +-chi(0), so a zero constant term means a singular matrix
        poly = charpoly(self.matrix, self.field)
        if not poly[0]:
            raise NotAnAutomorphism("matrix is singular")
        basis = algebra.basis()
        images = [self.apply(e) for e in basis]
        for i in range(n):
            for j in range(n):
                lhs = self.apply(algebra.multiply(basis[i], basis[j]))
                rhs = algebra.multiply(images[i], images[j])
                if lhs != rhs:
                    raise NotAnAutomorphism(
                        f"does not preserve the product on basis pair ({i}, {j})"
                    )
        # the eigenvalues of a matrix of finite order are roots of unity,
        # which are algebraic integers, so its characteristic polynomial
        # has integral coefficients; one that is not means infinite order
        if not all(c.is_integral() for c in poly):
            raise NotAnAutomorphism(
                "characteristic polynomial is not integral, so the "
                "automorphism has infinite order"
            )
        ident = identity_matrix(self.field, n)
        inverse, power = ident, self.matrix
        for k in range(1, _ORDER_SEARCH_CAP + 1):
            if power == ident:
                break
            inverse, power = power, mat_mul(power, self.matrix)
        else:
            raise NotAnAutomorphism(
                f"no finite order found within {_ORDER_SEARCH_CAP} iterations"
            )
        self.period = k
        self._inverse = inverse

    @classmethod
    def identity(cls, algebra: StructureAlgebra):
        return cls(algebra, identity_matrix(algebra.field, algebra.dim))

    def apply(self, vec):
        return column_apply(self.columns, vec)

    def inverse_matrix(self):
        return self._inverse

    def __repr__(self):
        return f"<FiniteOrderAuto period {self.period} on dim {self.algebra.dim}>"


class ModGrading:
    """A Z/m-grading: modulus, explicit root, and m component subspaces.

    Components may be zero; the declared modulus is kept either way.
    """

    def __init__(self, algebra: StructureAlgebra, modulus: int,
                 zeta: CycloNumber, components):
        self.algebra = algebra
        self.modulus = modulus
        self.zeta = zeta
        comps = tuple(components)
        if len(comps) != modulus:
            raise InvalidGrading(
                f"expected {modulus} components, got {len(comps)}"
            )
        self.components = comps

    def component(self, i: int) -> Subspace:
        return self.components[i % self.modulus]

    def dims(self):
        return tuple(c.dim for c in self.components)

    def __eq__(self, other):
        if not isinstance(other, ModGrading):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.modulus == other.modulus
            and self.zeta == other.zeta
            and self.components == other.components
        )

    def __repr__(self):
        return f"<ModGrading mod {self.modulus} dims {self.dims()}>"


def grading_from_auto(auto: FiniteOrderAuto, zeta: CycloNumber) -> ModGrading:
    """Eigenspace grading of a finite-order automorphism.

    The modulus is the order of zeta; the automorphism's period must divide
    it (strictly smaller periods give legal gradings with empty components).
    """
    m = root_of_unity_order(zeta)
    if m is None:
        raise InvalidGrading("grading root is not a root of unity")
    if m % auto.period != 0:
        raise InvalidGrading(
            f"automorphism period {auto.period} does not divide modulus {m}"
        )
    algebra = auto.algebra
    n = algebra.dim
    field = algebra.field
    comps = []
    total = 0
    for i in range(m):
        lam = zeta**i
        rows = [
            tuple(auto.matrix[r][c] - (lam if r == c else field.zero)
                  for c in range(n))
            for r in range(n)
        ]
        comp = Subspace(field, n, kernel_basis(rows, n, field))
        comps.append(comp)
        total += comp.dim
    if total != n:
        raise InvariantViolated("eigenspaces failed to fill the algebra")
    return ModGrading(algebra, m, zeta, comps)


def auto_from_grading(grading: ModGrading) -> FiniteOrderAuto:
    """The automorphism acting by zeta^i on component i."""
    algebra = grading.algebra
    field = algebra.field
    n = algebra.dim
    solver = SpanSolver(field, n)
    gen_info = []
    for i, comp in enumerate(grading.components):
        for b in comp.basis:
            if not solver.add(b):
                raise InvalidGrading("components are not independent")
            gen_info.append((i, b))
    if solver.dim != n:
        raise InvalidGrading("components do not span the algebra")
    cols = []
    for j in range(n):
        e = algebra.basis_vector(j)
        img = zero_vector(field, n)
        for (i, b), c in zip(gen_info, solver.express(e)):
            if c:
                img = vec_add(img, vec_scale(c * grading.zeta**i, b))
        cols.append(img)
    matrix = tuple(zip(*cols))
    return FiniteOrderAuto(algebra, matrix)


def validate_grading(grading: ModGrading) -> list[str]:
    """All violations of the grading axioms; empty list means valid."""
    violations = []
    algebra = grading.algebra
    m = grading.modulus
    order = root_of_unity_order(grading.zeta)
    if order != m:
        violations.append(
            f"declared root has order {order}, expected {m}"
        )
    solver = SpanSolver(algebra.field, algebra.dim)
    independent = True
    for comp in grading.components:
        for b in comp.basis:
            if not solver.add(b):
                independent = False
    if not independent:
        violations.append("components are not linearly independent")
    if solver.dim != algebra.dim:
        violations.append(
            f"components span dimension {solver.dim} of {algebra.dim}"
        )
    for i, ci in enumerate(grading.components):
        for j, cj in enumerate(grading.components):
            target = grading.component(i + j)
            for x in ci.basis:
                for y in cj.basis:
                    p = algebra.multiply(x, y)
                    if not target.contains(p):
                        violations.append(
                            f"product A_{i} * A_{j} leaves A_{(i + j) % m}"
                        )
                        break
                else:
                    continue
                break
    return violations


def centroid_twist(auto: FiniteOrderAuto) -> FiniteOrderAuto:
    """The automorphism chi -> theta chi theta^-1 that theta = auto induces
    on the centroid algebra, in the canonical basis of centroid_algebra;
    centroid_tower and centroid_grading both read it from here."""
    calg, maps = centroid_algebra(auto.algebra)
    d = auto.algebra.dim
    solver = SpanSolver(auto.field, d * d)
    for mp in maps:
        if not solver.add(mp.flat()):
            raise InvariantViolated("centroid basis must be independent")
    theta_inv = auto.inverse_matrix()
    cols = []
    for mp in maps:
        conj = mat_mul(mat_mul(auto.matrix, mp.matrix), theta_inv)
        coords = solver.express(tuple(v for row in conj for v in row))
        if coords is None:
            raise InvariantViolated("conjugation left the centroid span")
        cols.append(coords)
    return FiniteOrderAuto(calg, tuple(zip(*cols)))


class CentroidGrading:
    """The induced grading of the centroid of a graded algebra.

    Component lambda collects the centroid maps sending A_j into A_(lambda+j)
    for every j.  Exposed both as lists of LinearMaps and as a coordinate
    grading of the centroid algebra, ready to be looped."""

    def __init__(self, base_grading: ModGrading, algebra: StructureAlgebra,
                 maps, component_maps, coordinate_grading: ModGrading):
        self.base_grading = base_grading
        self.algebra = algebra  # the centroid as a StructureAlgebra
        self.maps = maps        # canonical centroid basis of the base algebra
        self.component_maps = component_maps
        self.coordinate_grading = coordinate_grading

    @property
    def modulus(self):
        return self.base_grading.modulus

    def dims(self):
        return tuple(len(c) for c in self.component_maps)


def centroid_grading(grading: ModGrading) -> CentroidGrading:
    """Grade the centroid by shift degree against a graded algebra.

    chi sends every A_j into A_(lambda+j) exactly when theta chi theta^-1
    = zeta^lambda chi, theta = auto_from_grading(grading): the grading is
    the eigen-grading at grading.zeta of the induced twist centroid_twist,
    with no linear system of its own.  A grading whose components do not
    multiply as graded raises NotAnAutomorphism, and one whose root order
    is not its modulus InvalidGrading."""
    if root_of_unity_order(grading.zeta) != grading.modulus:
        raise InvalidGrading("grading root order does not match its modulus")
    algebra = grading.algebra
    field = algebra.field
    calg, maps = centroid_algebra(algebra)
    coord_grading = grading_from_auto(
        centroid_twist(auto_from_grading(grading)), grading.zeta
    )
    n = algebra.dim
    component_maps = []
    for comp in coord_grading.components:
        comp_maps = []
        for sol in comp.basis:
            flat = zero_vector(field, n * n)
            for mp, c in zip(maps, sol):
                if c:
                    flat = vec_add(flat, vec_scale(c, mp.flat()))
            rows = [flat[a * n:(a + 1) * n] for a in range(n)]
            comp_maps.append(LinearMap(field, rows))
        component_maps.append(tuple(comp_maps))
    return CentroidGrading(grading, calg, maps, tuple(component_maps), coord_grading)
