"""Finite-dimensional nonassociative algebras given by structure constants.

An algebra is a coordinate space with a bilinear product: e_i * e_j =
sum_k c[i][j][k] e_k over a fixed cyclotomic field.  No identities are
assumed; Lie, associative and commutative cases are all detected, never
presumed.  All decision procedures here are exact.
"""

from __future__ import annotations

import random

from .errors import DimensionMismatch, InvariantViolated, Undecided
from .exactnum import CycloField
from .linalg import (
    SpanSolver,
    SparseEchelon,
    Subspace,
    charpoly,
    column_apply,
    column_kernel,
    identity_matrix,
    kernel_basis,
    mat_mul,
    sparse_columns,
    transpose,
    unit_vector,
    vec_is_zero,
    zero_vector,
)
from . import polyfactor


class LinearMap:
    """A linear endomorphism of a coordinate space; column j is the image of e_j.

    `matrix` holds the rows; `columns` is its column form (linalg's
    sparse_columns), built once here, and `apply` reads only that.
    `scalar` is c when the map is known to be c times the identity (set by
    `centroid_algebra` on the centroid basis it stores), else None."""

    __slots__ = ("field", "matrix", "columns", "scalar")

    def __init__(self, field: CycloField, matrix):
        self.field = field
        self.matrix = tuple(tuple(row) for row in matrix)
        self.columns = sparse_columns(self.matrix)
        self.scalar = None

    @classmethod
    def identity(cls, field: CycloField, n: int):
        return cls(field, identity_matrix(field, n))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def apply(self, vec):
        return column_apply(self.columns, vec)

    def compose(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.field, mat_mul(self.matrix, other.matrix))

    def flat(self):
        return tuple(c for row in self.matrix for c in row)

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.field is other.field and self.matrix == other.matrix

    def __hash__(self):
        return hash((self.field.order, self.matrix))

    def __repr__(self):
        return f"<LinearMap dim {self.dim}>"


def nonzero_terms(vec) -> list:
    """The (index, scalar) pairs of vec's nonzero coordinates, in order."""
    return [(i, c) for i, c in enumerate(vec) if c]


class StructureAlgebra:
    """dim, structure constants, optional unit and basis labels."""

    def __init__(self, field: CycloField, constants, unit=None, labels=None):
        self.field = field
        self.dim = len(constants)
        table = []
        for i, row in enumerate(constants):
            if len(row) != self.dim:
                raise DimensionMismatch("structure constant table is not square")
            tr = []
            for j, vec in enumerate(row):
                v = tuple(vec)
                if len(v) != self.dim:
                    raise DimensionMismatch(
                        f"product vector e{i}*e{j} has wrong length"
                    )
                tr.append(v)
            table.append(tuple(tr))
        self.table = tuple(table)
        # per pair (i, j), the nonzero (k, c) of e_i * e_j = sum c e_k
        self._products = tuple(
            tuple(tuple((k, c) for k, c in enumerate(p) if c) for p in tr)
            for tr in self.table
        )
        self.unit = tuple(unit) if unit is not None else None
        if labels is not None and len(labels) != self.dim:
            raise DimensionMismatch("label count does not match dimension")
        self.labels = tuple(labels) if labels is not None else None
        if self.unit is not None:
            for j in range(self.dim):
                e = unit_vector(field, self.dim, j)
                if self.multiply(self.unit, e) != e or self.multiply(e, self.unit) != e:
                    raise DimensionMismatch("declared unit is not a two-sided unit")
        self._facts: dict = {}  # verdicts and centroid, computed once

    def zero(self):
        return zero_vector(self.field, self.dim)

    def basis_vector(self, i: int):
        return unit_vector(self.field, self.dim, i)

    def basis(self):
        return [self.basis_vector(i) for i in range(self.dim)]

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"e{i}"

    def multiply(self, x, y):
        """x . y as a dense tuple, summed by `add_product` from the nonzero
        coordinates of x and y."""
        acc = {}
        coords = range(self.dim)
        self.add_product(acc, coords, nonzero_terms(x), nonzero_terms(y))
        zero = self.field.zero
        return tuple(acc.get(k, zero) for k in coords)

    def add_product(self, acc: dict, keys, x_terms, y_terms):
        """Add x . y into acc, coordinate k under the key keys[k].

        x_terms and y_terms are the nonzero (index, scalar) pairs of x and
        y (`nonzero_terms`); only the products e_i e_j that the table holds
        nonzero are formed, and an entry of acc may cancel to zero.  Every
        product of two elements is summed here: `multiply`, the Laurent
        coefficients of `loops.laurent_multiply` and the rows of the
        perfectness certificate in `loops.inherited_flags`."""
        prods = self._products
        for i, xi in x_terms:
            row = prods[i]
            for j, yj in y_terms:
                prod = row[j]
                if prod:
                    c = xi * yj
                    for k, pk in prod:
                        key = keys[k]
                        cur = acc.get(key)
                        acc[key] = c * pk if cur is None else cur + c * pk

    def left_mult(self, x):
        """x_0 L_0 + ... + x_(n-1) L_(n-1), summed from their columns."""
        return self._operator_sum(x, _operators(self)[:self.dim])

    def right_mult(self, x):
        """x_0 R_0 + ... + x_(n-1) R_(n-1), summed from their columns."""
        return self._operator_sum(x, _operators(self)[self.dim:])

    def _operator_sum(self, x, operators):
        m = [[self.field.zero] * self.dim for _ in range(self.dim)]
        for xi, columns in zip(x, operators):
            if xi:
                for j, col in enumerate(columns):
                    for k, c in col:
                        m[k][j] = m[k][j] + xi * c
        return LinearMap(self.field, m)

    def element_str(self, vec) -> str:
        from .exactnum import cyclo_str

        parts = []
        for i, c in enumerate(vec):
            if not c:
                continue
            if c == 1:
                parts.append(self.label(i))
            else:
                cs = cyclo_str(c)
                if " + " in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{self.label(i)}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<StructureAlgebra dim {self.dim} over Q(zeta_{self.field.order})>"


# ---------------------------------------------------------------------------
# constructors


def matrix_algebra(n: int, field: CycloField) -> StructureAlgebra:
    """Full associative matrix algebra with the E_ij basis."""
    idx = {(a, b): a * n + b for a in range(n) for b in range(n)}
    dim = n * n
    constants = []
    for (a, b) in sorted(idx, key=idx.get):
        row = []
        for (c, d) in sorted(idx, key=idx.get):
            vec = [field.zero] * dim
            if b == c:
                vec[idx[(a, d)]] = field.one
            row.append(tuple(vec))
        constants.append(row)
    unit = [field.zero] * dim
    for a in range(n):
        unit[idx[(a, a)]] = field.one
    labels = [f"E{a + 1}{b + 1}" for (a, b) in sorted(idx, key=idx.get)]
    return StructureAlgebra(field, constants, unit=unit, labels=labels)


def sl_basis(n: int, field: CycloField):
    """The basis of sl(n) as flattened n x n matrices, with labels: the
    off-diagonal matrix units E_ab, then H_k = E_kk - E_(k+1)(k+1)."""
    if n < 2:
        raise ValueError("sl(n) needs n >= 2")
    units = [(a, b) for a in range(n) for b in range(n) if a != b]
    entries = [{a * n + b: field.one} for a, b in units]
    entries += [{k * (n + 1): field.one, (k + 1) * (n + 1): -field.one}
                for k in range(n - 1)]
    vecs = [tuple(e.get(i, field.zero) for i in range(n * n)) for e in entries]
    labels = [f"E{a + 1}{b + 1}" for a, b in units]
    labels += [f"H{k + 1}" for k in range(n - 1)]
    return vecs, labels


def sl_algebra(n: int, field: CycloField) -> StructureAlgebra:
    """Traceless n x n matrices under the commutator, on `sl_basis`."""
    vecs, labels = sl_basis(n, field)
    mat = matrix_algebra(n, field)
    solver = SpanSolver(field, n * n)
    for v in vecs:
        solver.add(v)
    constants = []
    for x in vecs:
        row = []
        for y in vecs:
            comm = tuple(
                a - b for a, b in zip(mat.multiply(x, y), mat.multiply(y, x))
            )
            coords = solver.express(comm)
            if coords is None:
                raise InvariantViolated("commutator left the traceless span")
            row.append(coords)
        constants.append(row)
    return StructureAlgebra(field, constants, labels=labels)


def direct_sum(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    if a.field is not b.field:
        raise DimensionMismatch("direct summands live over different fields")
    field = a.field
    dim = a.dim + b.dim
    constants = []
    for i in range(dim):
        row = []
        for j in range(dim):
            vec = [field.zero] * dim
            if i < a.dim and j < a.dim:
                prod = a.table[i][j]
                for k, c in enumerate(prod):
                    vec[k] = c
            elif i >= a.dim and j >= a.dim:
                prod = b.table[i - a.dim][j - a.dim]
                for k, c in enumerate(prod):
                    vec[a.dim + k] = c
            row.append(tuple(vec))
        constants.append(row)
    unit = None
    if a.unit is not None and b.unit is not None:
        unit = tuple(a.unit) + tuple(b.unit)
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = tuple(f"0:{l}" for l in a.labels) + tuple(f"1:{l}" for l in b.labels)
    return StructureAlgebra(field, constants, unit=unit, labels=labels)


def change_basis(a: StructureAlgebra, columns) -> StructureAlgebra:
    """The same algebra written on the basis given by the columns (old coords)."""
    field = a.field
    n = a.dim
    cols = [tuple(col) for col in columns]
    if len(cols) != n:
        raise DimensionMismatch("basis change needs dim many columns")
    solver = SpanSolver(field, n)
    for col in cols:
        if not solver.add(col):
            raise DimensionMismatch("proposed basis is linearly dependent")
    constants = [
        [solver.express(a.multiply(x, y)) for y in cols] for x in cols
    ]
    unit = solver.express(a.unit) if a.unit is not None else None
    return StructureAlgebra(field, constants, unit=unit)


# ---------------------------------------------------------------------------
# structural predicates


def is_commutative(a: StructureAlgebra) -> bool:
    return all(
        a.table[i][j] == a.table[j][i]
        for i in range(a.dim)
        for j in range(i + 1, a.dim)
    )


def is_anticommutative(a: StructureAlgebra) -> bool:
    for i in range(a.dim):
        if not vec_is_zero(a.table[i][i]):
            return False
        for j in range(i + 1, a.dim):
            if any(x + y for x, y in zip(a.table[i][j], a.table[j][i])):
                return False
    return True


def is_associative(a: StructureAlgebra) -> bool:
    """Whether (xy)z = x(yz) on the basis; the verdict is stored on `a`."""
    if "associative" not in a._facts:
        a._facts["associative"] = _is_associative(a)
    return a._facts["associative"]


def _operators(a: StructureAlgebra) -> tuple:
    """L_0, ..., L_(n-1), then R_0, ..., R_(n-1), in linalg's sparse column
    form, read off the sparse product table: column j of L_i is e_i e_j and
    column j of R_i is e_j e_i.  These are the only multiplication operators
    the module forms; `_transposed` gives their row form."""
    prods = a._products
    return (*prods, *zip(*prods))


def _transposed(columns) -> list:
    """Column form of the transpose of a square matrix given in column form:
    entry k lists the (j, c) with c at row k of column j."""
    rows = [[] for _ in columns]
    for j, col in enumerate(columns):
        for k, c in col:
            rows[k].append((j, c))
    return rows


def _times(acc: dict, vec, prods, k: int):
    """acc += vec e_k, with vec given by its nonzero (index, coefficient)
    pairs and prods the algebra's sparse product table."""
    for l, c in vec:
        for m, d in prods[l][k]:
            cur = acc.get(m)
            acc[m] = c * d if cur is None else cur + c * d


def _associator(prods, i: int, j: int, k: int) -> dict:
    """(e_i e_j) e_k - e_i (e_j e_k) as {index: coefficient}, summed from the
    sparse product table; an entry may be zero."""
    acc = {}
    _times(acc, prods[i][j], prods, k)
    for l, c in prods[j][k]:
        for m, d in prods[i][l]:
            cd = c * d
            cur = acc.get(m)
            acc[m] = -cd if cur is None else cur - cd
    return acc


def _is_associative(a: StructureAlgebra) -> bool:
    """(e_i e_j) e_k = e_i (e_j e_k) for every basis triple."""
    prods = a._products
    n = a.dim
    return not any(
        any(_associator(prods, i, j, k).values())
        for i in range(n) for j in range(n) for k in range(n)
    )


def satisfies_jacobi(a: StructureAlgebra) -> bool:
    """(xy)z + (yz)x + (zx)y = 0 for every triple of distinct basis
    vectors x = e_i, y = e_j, z = e_k with i < j < k, summed from the
    sparse product table."""
    prods = a._products
    n = a.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                acc = {}
                _times(acc, prods[i][j], prods, k)
                _times(acc, prods[j][k], prods, i)
                _times(acc, prods[k][i], prods, j)
                if any(acc.values()):
                    return False
    return True


def is_lie(a: StructureAlgebra) -> bool:
    """Anticommutativity and the Jacobi identity; the verdict is stored on
    `a`."""
    if "lie" not in a._facts:
        a._facts["lie"] = is_anticommutative(a) and satisfies_jacobi(a)
    return a._facts["lie"]


def is_perfect(a: StructureAlgebra) -> bool:
    """Whether the span of all products is the whole algebra."""
    solver = SpanSolver(a.field, a.dim)
    for i in range(a.dim):
        for j in range(a.dim):
            if solver.add(a.table[i][j]) and solver.dim == a.dim:
                return True
    return solver.dim == a.dim


def centre(a: StructureAlgebra) -> Subspace:
    """Elements commuting and associating with everything: the z with
    [z, e_i] = 0 and (z, e_i, e_j) = (e_i, z, e_j) = 0 for all i, j, where
    (x, y, w) = (xy)w - x(yw).  These imply (x, y, z) = 0 as well:
    (xy)z = z(xy) = (zx)y = (xz)y = x(zy) = x(yz), so that condition is
    not posed.  One kernel system in the coordinates of z; the column of
    e_t holds those brackets with z = e_t."""
    n = a.dim
    prods = a._products
    zero = a.field.zero
    columns = []
    for t in range(n):
        col = {}
        for i in range(n):
            for m, c in prods[t][i]:
                col[0, i, 0, m] = c
            for m, c in prods[i][t]:
                col[0, i, 0, m] = col.get((0, i, 0, m), zero) - c
            for j in range(n):
                for kind, xyw in enumerate(((t, i, j), (i, t, j))):
                    for m, c in _associator(prods, *xyw).items():
                        col[kind + 1, i, j, m] = c
        columns.append(col)
    return Subspace(a.field, n, [
        tuple(sol.get(t, zero) for t in range(n))
        for sol in column_kernel(range(n), columns, a.field)
    ])


def centroid(a: StructureAlgebra) -> list[LinearMap]:
    """Canonical basis of the maps chi with chi(xy) = chi(x)y = x chi(y).

    The unknowns are the entries chi[r][c], keyed (r, c).  For each basis
    pair and coordinate k, (chi(e_i) e_j)_k reads row k of R_j and
    (e_i chi(e_j))_k row k of L_i, both from the operators' row forms."""
    n = a.dim
    prods = a._products
    zero = a.field.zero
    ops = [_transposed(columns) for columns in _operators(a)]
    lrows, rrows = ops[:n], ops[n:]
    ech = SparseEchelon()
    for i in range(n):
        for j in range(n):
            p = prods[i][j]
            for k in range(n):
                # chi(e_i e_j)_k - (chi(e_i) e_j)_k = 0, then the same with
                # (e_i chi(e_j))_k
                for s_rows, col in ((rrows[j][k], i), (lrows[i][k], j)):
                    row = {(k, r): c for r, c in p}
                    for s, c in s_rows:
                        row[s, col] = row.get((s, col), zero) - c
                    ech.add_row(row)
    keys = [(r, c) for r in range(n) for c in range(n)]
    return [
        LinearMap(a.field, [[sol.get((r, c), zero) for c in range(n)]
                            for r in range(n)])
        for sol in ech.kernel(keys, a.field)
    ]


def is_central(a: StructureAlgebra) -> bool:
    return centroid_algebra(a)[0].dim == 1


def centroid_algebra(a: StructureAlgebra):
    """The centroid as a unital associative StructureAlgebra.

    Returns (algebra, basis_maps); coordinates of the algebra are taken in
    the canonical centroid basis.  The result is stored on `a`.
    """
    if "centroid" in a._facts:
        return a._facts["centroid"]
    maps = centroid(a)
    field = a.field
    r = len(maps)
    solver = SpanSolver(field, a.dim * a.dim)
    for mp in maps:
        solver.add(mp.flat())
    constants = []
    for i in range(r):
        row = []
        for j in range(r):
            comp = maps[i].compose(maps[j])
            coords = solver.express(comp.flat())
            if coords is None:
                raise InvariantViolated(
                    "centroid is not closed under composition"
                )
            row.append(coords)
        constants.append(row)
    unit = solver.express(LinearMap.identity(field, a.dim).flat())
    if unit is None:
        raise InvariantViolated("centroid span lost the identity map")
    labels = [f"c{i}" for i in range(r)]
    alg = StructureAlgebra(field, constants, unit=unit, labels=labels)
    for mp in maps:
        mp.scalar = _scalar_multiple(mp.matrix)
    a._facts["centroid"] = (alg, tuple(maps))  # shared, so immutable
    return a._facts["centroid"]


def _scalar_multiple(matrix):
    """c when the square matrix is c times the identity, else None."""
    if not matrix:
        return None
    c = matrix[0][0]
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if (v != c) if i == j else v:
                return None
    return c


def is_pfgc_findim(a: StructureAlgebra) -> bool:
    """Nonzero, perfect, and finitely generated over the centroid; the last
    condition is automatic in finite dimension over a field."""
    return a.dim > 0 and is_perfect(a)


# ---------------------------------------------------------------------------
# simplicity


def _generators(a: StructureAlgebra):
    """The linearly independent multiplications among `_operators`, each kept
    only when it lies outside the span of those kept before it, as
    (columns, rows): its column form and that of its transpose."""
    ech = SparseEchelon()
    out = []
    for columns in _operators(a):
        row = {(j, k): c for j, col in enumerate(columns) for k, c in col}
        if ech.add_row(row) is not None:
            out.append((columns, _transposed(columns)))
    return out


def mult_algebra_basis(a: StructureAlgebra):
    """Basis of the multiplication algebra: the unital associative algebra of
    endomorphisms generated by all left and right multiplications.

    Only the independent generators (`_generators`) are multiplied in.  A
    dropped generator g is a combination of generators before it, so each
    product m g is the same combination of products already offered to the
    echelon and would be dependent: the basis and its order are those of
    the full generator list.  On a Lie or commutative algebra R_i = -L_i or
    L_i, so half the products are skipped.  Accepted elements and the
    generators are held as sparse rows; each product is formed sparsely,
    keyed by (row, column), and enters the echelon as it is.  Only accepted
    products are densified.  At rank n^2 the basis spans every matrix and
    no later product could be independent, so the search stops there."""
    n = a.dim
    zero = a.field.zero

    gens = [rows for _, rows in _generators(a)]
    one = a.field.one
    ech = SparseEchelon()
    ech.add_row({(i, i): one for i in range(n)})
    basis = [identity_matrix(a.field, n)]
    queue = [[[(i, one)] for i in range(n)]]
    while queue:
        m = queue.pop()
        for g in gens:
            prod = {}
            for i, row in enumerate(m):
                for j, x in row:
                    for k, y in g[j]:
                        cur = prod.get((i, k))
                        prod[i, k] = x * y if cur is None else cur + x * y
            if ech.add_row(prod) is not None:
                rows = [[] for _ in range(n)]
                dense = [[zero] * n for _ in range(n)]
                for (i, k), x in prod.items():
                    if x:
                        rows[i].append((k, x))
                        dense[i][k] = x
                basis.append(tuple(tuple(row) for row in dense))
                if ech.rank == n * n:
                    return basis
                queue.append(rows)
    return basis


def _spin(generators, v, n: int) -> int:
    """Dimension of the closure of v under the maps given in column form:
    the smallest subspace that contains v and that every map sends into
    itself.  Closing under generators closes under every word in them, so
    under the generated unital algebra.  Stops at dimension n."""
    ech = SparseEchelon()
    start = {j: x for j, x in enumerate(v) if x}
    if ech.add_row(start) is None:
        return 0
    queue = [start]
    while queue:
        w = queue.pop()
        for columns in generators:
            u = {}
            for j, x in w.items():
                for i, c in columns[j]:
                    cur = u.get(i)
                    u[i] = c * x if cur is None else cur + c * x
            if ech.add_row(u) is not None:
                if ech.rank == n:
                    return n
                queue.append({i: x for i, x in u.items() if x})
    return ech.rank


_SIMPLE_SEED, _SIMPLE_TRIALS = 20260214, 25


def _simple_candidates(a: StructureAlgebra, basis_mats):
    """The elements of the multiplication algebra whose characteristic
    polynomials `is_simple` factors, in order: seeded pseudo-random
    combinations of up to four basis matrices, then L_i and R_i for each i.
    Each is built only when the search asks for it; the draws are the same
    as when all are built first."""
    field = a.field
    zero = field.zero
    n = a.dim
    rng = random.Random(_SIMPLE_SEED)
    entries = {}  # basis matrix index -> its nonzero (row, column, entry)
    for _ in range(_SIMPLE_TRIALS):
        hi = min(4, len(basis_mats))
        terms = rng.randint(min(2, hi), hi)
        picks = rng.sample(range(len(basis_mats)), terms)
        # summed in pick order over the picked matrices' nonzero entries,
        # so each candidate equals the dense scale-and-add of the draws
        acc = {}
        for p in picks:
            c = field.from_rational(rng.randint(-2, 2))
            if not c:
                continue
            nonzero = entries.get(p)
            if nonzero is None:
                nonzero = entries[p] = [
                    (i, j, x) for i, row in enumerate(basis_mats[p])
                    for j, x in enumerate(row) if x
                ]
            for i, j, x in nonzero:
                cur = acc.get((i, j))
                acc[(i, j)] = c * x if cur is None else cur + c * x
        yield tuple(
            tuple(acc.get((i, j), zero) for j in range(n)) for i in range(n)
        )
    for i in range(a.dim):
        e = a.basis_vector(i)
        yield a.left_mult(e).matrix
        yield a.right_mult(e).matrix


def is_simple(a: StructureAlgebra) -> bool:
    """Exact simplicity test: nonzero product and no proper ideal.

    The ideal generated by v is Mult(A) v, the closure of v under the
    independent left and right multiplications (`_spin`); the closure of v
    under their transposes is the transposed module's.  Proper ideals are
    hunted by spinning basis vectors and kernel vectors of factored
    characteristic polynomials of seeded pseudo-random elements of the
    multiplication algebra, which serves only to supply those elements and
    is built only when every basis-vector spin fills A.
    Irreducibility is certified through a factor of multiplicity one
    (Norton's criterion) by spinning one kernel vector in the module and
    one in the transposed module.  The verdict is stored on `a`.
    """
    if "simple" not in a._facts:
        a._facts["simple"] = _is_simple(a)
    return a._facts["simple"]


def _is_simple(a: StructureAlgebra) -> bool:
    n = a.dim
    if n == 0:
        return False
    if all(
        vec_is_zero(a.table[i][j]) for i in range(n) for j in range(n)
    ):
        return False
    field = a.field
    gens = _generators(a)
    columns = [cols for cols, _ in gens]
    tcolumns = [rows for _, rows in gens]
    spins = n
    for i in range(n):
        if _spin(columns, a.basis_vector(i), n) < n:
            return False

    basis_mats = mult_algebra_basis(a)
    drawn = simple_factors = 0
    for theta in _simple_candidates(a, basis_mats):
        drawn += 1
        cp = charpoly(theta, field)
        factors = polyfactor.factor(cp, field)
        for f, mult in factors:
            ftheta = _matrix_poly(f, theta, field)
            ker = kernel_basis(ftheta, n, field)
            spins += len(ker)
            for v in ker:
                d = _spin(columns, v, n)
                if 0 < d < n:
                    return False
            if mult != 1:
                continue
            simple_factors += 1
            if len(ker) == polyfactor.pdeg(f):
                # multiplicity-one factor: one spin each way settles it;
                # the loop above spun ker[0] to all of A
                tker = kernel_basis(_matrix_poly(f, transpose(theta), field), n, field)
                if _spin(tcolumns, tker[0], n) < n:
                    return False
                return True
    raise Undecided(
        "simplicity search exhausted without a certifying element: "
        f"{drawn} candidates drawn, {spins} spins made, "
        f"{simple_factors} multiplicity-one factors met; "
        f"multiplication algebra dimension {len(basis_mats)} over module dimension {n}"
    )


def _matrix_poly(coeffs, m, field):
    """f(m) by Horner's rule; a coefficient is added on the diagonal only."""
    n = len(m)
    acc = [[field.zero] * n for _ in range(n)]
    for k, c in enumerate(reversed(coeffs)):
        if k:
            acc = [list(row) for row in mat_mul(acc, m)]
        if c:
            for i in range(n):
                acc[i][i] = acc[i][i] + c
    return tuple(tuple(row) for row in acc)


def property_report(a: StructureAlgebra) -> dict:
    """Structural flags with provenance labels for reporting."""
    report = {}

    def put(name, value, provenance, note=None):
        entry = {"value": value, "provenance": provenance}
        if note:
            entry["note"] = note
        report[name] = entry

    put("nonzero", a.dim > 0, "verified")
    put("perfect", is_perfect(a), "verified")
    put("unital", a.unit is not None, "verified")
    put("commutative", is_commutative(a), "verified")
    put("associative", is_associative(a), "verified")
    put("lie", is_lie(a), "verified")
    put("pfgc", is_pfgc_findim(a), "verified",
        note="finite generation over the centroid is automatic in finite dimension")
    simple = is_simple(a)
    put("simple", simple, "verified")
    put("central", is_central(a), "verified")
    put("prime", True if simple else None, "derived-by-theorem",
        note="simple implies prime; no independent primality decision is run")
    return report
