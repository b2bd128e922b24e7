"""Exact linear algebra over a cyclotomic field.

Vectors are tuples of CycloNumber and matrices are tuples of rows.  A
square matrix is applied to vectors only in its column form
(sparse_columns): for each column, the (row, entry) pairs of its nonzero
entries.  column_apply touches only the columns in the vector's support
and only their nonzero entries, so a permutation or diagonal map costs
one product per nonzero coordinate.

All elimination runs in one engine, SparseEchelon: a row echelon over sparse
dict rows whose pivot is the smallest column key.  rref, kernel_basis,
Subspace and SpanSolver are dense front ends that translate to and from it.
column_kernel is the one front end for systems posed one unknown at a
time (each unknown given by its sparse image); it is the only place such a
system is transposed into rows.  rref back-eliminates the echelon and
returns reduced row echelon form with leftmost pivots, which is unique, so
each subspace has exactly one stored basis and subspace equality is
equality of representations; for the same reason a kernel over a fixed
unknown order does not depend on the order of the rows.  SpanSolver is
the one way to write a vector in a basis: express() gives its dense
coordinates over the generators, and an inverse matrix is the coordinates
of the unit vectors over the columns.  Nothing here is ever numeric: all
pivots are exact.
"""

from __future__ import annotations

from .exactnum import CycloField


def zero_vector(field: CycloField, n: int) -> tuple:
    return (field.zero,) * n


def unit_vector(field: CycloField, n: int, i: int) -> tuple:
    return tuple(field.one if j == i else field.zero for j in range(n))


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def vec_is_zero(a) -> bool:
    return all(x.is_zero() for x in a)


def sparse_columns(m) -> tuple:
    """Column form of a square matrix: for each column j, the (row, entry)
    pairs of its nonzero entries, in row order."""
    return tuple(
        tuple((i, row[j]) for i, row in enumerate(m) if row[j])
        for j in range(len(m))
    )


def column_apply(columns, v) -> tuple:
    """Matrix times column vector, for the matrix in its column form;
    column j is the image of basis vector j."""
    acc = [None] * len(columns)
    for x, col in zip(v, columns):
        if x:
            for i, c in col:
                cur = acc[i]
                acc[i] = c * x if cur is None else cur + c * x
    return tuple(v[0].field.zero if y is None else y for y in acc)


def mat_mul(a, b):
    """Matrix product; each entry of either factor is tested for zero once,
    and only products of two nonzero entries are formed."""
    p = len(b[0]) if b else 0
    zero = a[0][0].field.zero
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for ai in a:
        acc = [None] * p
        for x, brow in zip(ai, b_rows):
            if x:
                for j, y in brow:
                    cur = acc[j]
                    acc[j] = x * y if cur is None else cur + x * y
        out.append(tuple(zero if v is None else v for v in acc))
    return tuple(out)


def identity_matrix(field: CycloField, n: int):
    return tuple(unit_vector(field, n, i) for i in range(n))


def transpose(m):
    return tuple(zip(*m))


class SparseEchelon:
    """Row echelon accumulator over arbitrary orderable column keys.

    Rows are sparse dicts; the pivot of a row is its smallest key and its
    entry there is one.  The dense front ends below use integer column
    keys; the large homogeneous constraint systems use (degree, component)
    pairs.
    """

    def __init__(self):
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _eliminate(self, work: dict, rest: dict | None):
        """Clear pivot keys from work, smallest key first, by subtracting
        multiples of pivot rows.  Keys without a pivot row move to rest; with
        rest None the loop stops at the first such key and returns it, and
        work keeps that key and everything after it."""
        rows = self.rows
        while work:
            k = min(work)
            piv = rows.get(k)
            if piv is None:
                if rest is None:
                    return k
                rest[k] = work.pop(k)
                continue
            c = work.pop(k)
            for kk, vv in piv.items():
                if kk == k:
                    continue
                cur = work.get(kk)
                nv = (cur - c * vv) if cur is not None else -(c * vv)
                if nv:
                    work[kk] = nv
                else:
                    work.pop(kk, None)
        return None

    def add_row(self, row: dict):
        """Reduce and insert; returns the new pivot key or None if dependent."""
        work = {k: v for k, v in row.items() if v}
        k = self._eliminate(work, None)
        if k is not None:
            c = work[k].inverse()
            self.rows[k] = {kk: c * vv for kk, vv in work.items()}
        return k

    def reduce_vector(self, row: dict) -> dict:
        """Residual of a vector against the accumulated row space."""
        out = {}
        self._eliminate({k: v for k, v in row.items() if v}, out)
        return out

    def _back_eliminate(self):
        # from the last pivot down, so every row subtracted is already reduced
        for p in sorted(self.rows, reverse=True):
            row = self.rows[p]
            reduced = {p: row.pop(p)}
            self._eliminate(row, reduced)
            self.rows[p] = reduced

    def kernel(self, keys, field: CycloField):
        """Canonical kernel basis over the full ordered key list.

        Returns a list of sparse dicts, one per free key, in key order.
        """
        self._back_eliminate()
        pivot_set = set(self.rows)
        out = []
        for f in keys:
            if f in pivot_set:
                continue
            vec = {f: field.one}
            for p, row in self.rows.items():
                c = row.get(f)
                if c:
                    vec[p] = -c
            out.append(vec)
        return out


def _sparse(vec) -> dict:
    return {j: x for j, x in enumerate(vec) if x}


def _dense(row: dict, n: int, zero) -> tuple:
    return tuple(row.get(j, zero) for j in range(n))


def _echelon_of(rows) -> SparseEchelon:
    ech = SparseEchelon()
    for row in rows:
        ech.add_row(_sparse(row))
    return ech


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); zero rows are dropped and pivots
    are the lexicographically first possible set (leftmost column first).
    """
    rows = list(rows)
    ech = _echelon_of(rows)
    if not ech.rows:
        return (), ()
    ech._back_eliminate()
    pivots = tuple(sorted(ech.rows))
    zero = ech.rows[pivots[0]][pivots[0]].field.zero
    ncols = len(rows[0])
    return tuple(_dense(ech.rows[p], ncols, zero) for p in pivots), pivots


def kernel_basis(rows, ncols, field):
    """Canonical basis of the right kernel of the matrix given by rows."""
    return [
        _dense(v, ncols, field.zero)
        for v in _echelon_of(rows).kernel(range(ncols), field)
    ]


def column_kernel(keys, columns, field):
    """Canonical kernel of a system given one unknown at a time.

    columns[i] is the image {row key: value} of unknown keys[i]; the rows
    enter the echelon in sorted row-key order.  Returns sparse dicts
    {unknown key: value}, one per free unknown, in key order."""
    rows = {}
    for key, col in zip(keys, columns):
        for rk, val in col.items():
            rows.setdefault(rk, {})[key] = val
    ech = SparseEchelon()
    for rk in sorted(rows):
        ech.add_row(rows[rk])
    return ech.kernel(keys, field)


def charpoly(m, field: CycloField):
    """Characteristic polynomial det(x - m) of a square matrix, low degree
    first, monic.

    m is first brought to upper Hessenberg form h = P m P^-1 by similarity.
    det(x - P m P^-1) = det(P (x - m) P^-1) = det(x - m), so the polynomial
    is unchanged.  Column c is cleared below its subdiagonal entry, with the
    first nonzero entry at or below the subdiagonal as pivot, moved there by
    a row swap and the matching column swap.  A pivot only has to be
    nonzero, and zero is decided exactly in the field, so every pivot and
    every multiplier is exact.  The leading principal minors p_k of x - h
    then satisfy

        p_k = (x - h_kk) p_(k-1)
              - sum_(i<k) h_ik h_(i+1,i) h_(i+2,i+1) ... h_(k,k-1) p_(i-1)

    and p_n is the answer (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.2.9).  Both steps take O(n^3) field operations,
    and a zero subdiagonal entry ends the sum early."""
    n = len(m)
    h = [list(row) for row in m]
    for c in range(n - 2):
        r = c + 1
        piv = next((i for i in range(r, n) if h[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            h[piv], h[r] = h[r], h[piv]
            for row in h:
                row[piv], row[r] = row[r], row[piv]
        inv = h[r][c].inverse()
        # the pivot row is zero before column c, and row i - u * (pivot
        # row) is zero at column c by the choice of u
        pivot_row = [(j, h[r][j]) for j in range(r, n) if h[r][j]]
        mults = []
        for i in range(r + 1, n):
            row = h[i]
            if not row[c]:
                continue
            u = row[c] * inv
            row[c] = field.zero
            for j, x in pivot_row:
                row[j] = row[j] - u * x
            mults.append((i, u))
        # the inverse similarity: column r gains u times column i
        for row in h:
            acc = row[r]
            for i, u in mults:
                y = row[i]
                if y:
                    acc = acc + u * y
            row[r] = acc
    minors = [[field.one]]
    for k in range(n):
        prev = minors[k]
        hkk = h[k][k]
        p = [field.zero] + prev  # x p_(k-1)
        if hkk:
            for d, y in enumerate(prev):
                if y:
                    p[d] = p[d] - hkk * y
        t = field.one
        for i in range(k - 1, -1, -1):
            t = t * h[i + 1][i]
            if not t:
                break
            hik = h[i][k]
            if hik:
                s = hik * t
                for d, y in enumerate(minors[i]):
                    if y:
                        p[d] = p[d] - s * y
        minors.append(p)
    return minors[n]


class Subspace:
    """A subspace of a fixed coordinate space, held in canonical reduced form."""

    __slots__ = ("field", "ambient", "basis", "pivots", "_echelon")

    def __init__(self, field: CycloField, ambient: int, vectors=()):
        self.field = field
        self.ambient = ambient
        self.basis, self.pivots = rref(vectors) if vectors else ((), ())
        self._echelon = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def residual(self, vec):
        """vec minus its projection on the span; zero iff vec belongs."""
        if self._echelon is None:
            # the canonical rows already form a reduced echelon
            self._echelon = SparseEchelon()
            self._echelon.rows = {
                p: _sparse(row) for row, p in zip(self.basis, self.pivots)
            }
        rest = self._echelon.reduce_vector(_sparse(vec))
        return _dense(rest, len(vec), self.field.zero)

    def contains(self, vec) -> bool:
        return vec_is_zero(self.residual(vec))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field is other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field.order, self.ambient, self.basis))

    def __repr__(self):
        return f"<Subspace dim {self.dim} of {self.ambient}>"


class SpanSolver:
    """Incremental span that writes vectors in the generators' coordinates.

    Generators are added one at a time; express() returns the coordinates
    of a vector over every generator added so far, or None when the vector
    lies outside the span.  Generator g enters the echelon tagged with a one
    in the extra column ambient + g, after the coordinate columns, so
    reducing a vector leaves minus its coordinates in the tag columns; a
    generator that did not enlarge the span gets no tag and coordinate zero.
    """

    def __init__(self, field: CycloField, ambient: int):
        self.field = field
        self.ambient = ambient
        self.count = 0
        self._echelon = SparseEchelon()

    @property
    def dim(self) -> int:
        return self._echelon.rank

    def _residual(self, vec):
        """Reduced vec and whether it lies in the span (no coordinate left)."""
        rest = self._echelon.reduce_vector(_sparse(vec))
        return rest, not rest or min(rest) >= self.ambient

    def add(self, vec) -> bool:
        """Add a generator; True when it enlarged the span."""
        idx = self.count
        self.count += 1
        rest, inside = self._residual(vec)
        if inside:
            return False
        rest[self.ambient + idx] = self.field.one
        self._echelon.add_row(rest)
        return True

    def contains(self, vec) -> bool:
        return self._residual(vec)[1]

    def express(self, vec):
        """Dense coordinates over the generators in order of addition, so
        that vec = sum of coordinate times generator, or None."""
        rest, inside = self._residual(vec)
        if not inside:
            return None
        coords = [self.field.zero] * self.count
        for k, c in rest.items():
            coords[k - self.ambient] = -c
        return tuple(coords)
