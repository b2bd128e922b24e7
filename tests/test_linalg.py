"""Exact linear algebra against sympy oracles and structural invariants."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    faddeev_leverrier_charpoly,
    intersect,
    mat_apply,
    naive_mat_mul,
    trace,
)
from loomalg.exactnum import CycloField
from loomalg.findim import sl_algebra
from loomalg.fixtures import matrix_inverse
from loomalg.linalg import (
    SpanSolver,
    SparseEchelon,
    Subspace,
    charpoly,
    column_apply,
    column_kernel,
    identity_matrix,
    kernel_basis,
    mat_mul,
    rref,
    sparse_columns,
    transpose,
    unit_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vector,
)

F1 = CycloField(1)
F4 = CycloField(4)

SEED = 20260214


def rand_matrix(rng, field, rows, cols, span=5):
    return tuple(
        tuple(
            field.from_rational(Fraction(rng.randint(-span, span)))
            for _ in range(cols)
        )
        for _ in range(rows)
    )


def to_sympy_rational(m):
    return sympy.Matrix([[x.coeffs[0] for x in row] for row in m])


def to_sympy_gauss(m):
    # F4 element a + b*zeta maps to a + b*I
    return sympy.Matrix(
        [[x.coeffs[0] + x.coeffs[1] * sympy.I for x in row] for row in m]
    )


# -- rref / rank / kernel ---------------------------------------------------


def assert_rref_is_sympys(reduced, pivots, want, want_pivots, to_sympy):
    assert pivots == want_pivots
    assert len(reduced) == len(pivots)
    # sympy keeps the zero rows at the bottom; ours drops them
    for k, row in enumerate(reduced):
        diff = to_sympy((row,)) - want[k, :]
        assert all(sympy.simplify(x) == 0 for x in diff)


def test_rref_rank_matches_sympy():
    rng = random.Random(SEED)
    for _ in range(15):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, F1, rows, cols, span=3)
        reduced, pivots = rref(m)
        assert len(reduced) == len(pivots)
        assert len(pivots) == to_sympy_rational(m).rank()
        assert_rref_is_sympys(
            reduced, pivots, *to_sympy_rational(m).rref(), to_sympy_rational
        )
        # pivot columns carry unit vectors
        for k, p in enumerate(pivots):
            col = [row[p] for row in reduced]
            assert col[k] == F1.one
            assert all(not col[i] for i in range(len(reduced)) if i != k)
    for _ in range(10):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = tuple(
            tuple(
                F4.from_coeffs([rng.randint(-2, 2), rng.randint(-2, 2)])
                for _ in range(cols)
            )
            for _ in range(rows)
        )
        assert_rref_is_sympys(
            *rref(m), *to_sympy_gauss(m).rref(simplify=True), to_sympy_gauss
        )


def test_rref_is_idempotent():
    rng = random.Random(SEED + 1)
    m = rand_matrix(rng, F4, 4, 6, span=2)
    reduced, pivots = rref(m)
    again, pivots2 = rref(reduced)
    assert again == reduced and pivots2 == pivots


def test_kernel_basis_matches_sympy_nullity():
    rng = random.Random(SEED + 2)
    for _ in range(15):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = rand_matrix(rng, F1, rows, cols, span=2)
        ker = kernel_basis(m, cols, F1)
        assert len(ker) == cols - to_sympy_rational(m).rank()
        for v in ker:
            assert vec_is_zero(mat_apply(m, v))


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(identity_matrix(F4, 3), 3, F4) == []


# -- inverse ----------------------------------------------------------------


def test_matrix_inverse_over_gaussian_rationals():
    rng = random.Random(SEED + 3)

    def entry():
        return (F4.from_rational(Fraction(rng.randint(-3, 3)))
                + F4.from_rational(Fraction(rng.randint(-2, 2))) * F4.zeta)

    checked = 0
    while checked < 10:
        n = rng.randint(1, 4)
        m = tuple(tuple(entry() for _ in range(n)) for _ in range(n))
        if len(rref(m)[1]) < n:
            continue
        inv = matrix_inverse(F4, m)
        assert mat_mul(inv, m) == identity_matrix(F4, n)
        assert mat_mul(m, inv) == identity_matrix(F4, n)
        checked += 1


def test_matrix_inverse_rejects_singular_matrices():
    rng = random.Random(SEED + 11)
    for _ in range(5):
        top = rand_matrix(rng, F4, 2, 3, span=3)
        m = top + (vec_add(top[0], vec_scale(F4.zeta, top[1])),)
        with pytest.raises(ValueError, match="singular"):
            matrix_inverse(F4, m)


# -- charpoly ---------------------------------------------------------------


def test_charpoly_matches_sympy_over_rationals():
    rng = random.Random(SEED + 4)
    lam = sympy.symbols("lam")
    for _ in range(8):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, F1, n, n, span=3)
        ours = charpoly(m, F1)
        want = sympy.Poly(
            to_sympy_rational(m).charpoly(lam).as_expr(), lam
        ).all_coeffs()
        assert [c.coeffs[0] for c in reversed(ours)] == [
            Fraction(str(w)) for w in want
        ]


def test_charpoly_matches_sympy_over_gaussians():
    rng = random.Random(SEED + 5)
    lam = sympy.symbols("lam")
    for _ in range(5):
        n = rng.randint(1, 3)
        m = tuple(
            tuple(
                F4.from_coeffs([rng.randint(-2, 2), rng.randint(-2, 2)])
                for _ in range(n)
            )
            for _ in range(n)
        )
        ours = charpoly(m, F4)
        want = sympy.Poly(
            to_sympy_gauss(m).charpoly(lam).as_expr(), lam
        ).all_coeffs()
        for c, w in zip(reversed(ours), want):
            w = sympy.expand(w)
            assert c.coeffs[0] == Fraction(str(sympy.re(w)))
            assert c.coeffs[1] == Fraction(str(sympy.im(w)))


def _random_entry(rng, field):
    return field.from_coeffs(
        [rng.randint(-3, 3) for _ in range(field.degree)])


def _charpoly_cases(field):
    """(name, matrix) pairs of sizes 0 to 8 that exercise every branch of
    the Hessenberg reduction: random, zero, strictly triangular, permutation
    (zero subdiagonals force row and column swaps) and companion matrices,
    and adjoints of random elements of sl(3) and sl(4)."""
    rng = random.Random(SEED + field.order)
    zero, one = field.zero, field.one
    for n in range(9):
        yield f"random-{n}", tuple(
            tuple(_random_entry(rng, field) for _ in range(n))
            for _ in range(n))
        yield f"zero-{n}", tuple((zero,) * n for _ in range(n))
        yield f"upper-{n}", tuple(
            tuple(_random_entry(rng, field) if j > i else zero
                  for j in range(n))
            for i in range(n))
        yield f"lower-{n}", tuple(
            tuple(_random_entry(rng, field) if j < i else zero
                  for j in range(n))
            for i in range(n))
        perm = list(range(n))
        rng.shuffle(perm)
        yield f"permutation-{n}", tuple(
            tuple(one if perm[i] == j else zero for j in range(n))
            for i in range(n))
        # companion of x^n + c_(n-1) x^(n-1) + ... + c_0
        cs = [_random_entry(rng, field) for _ in range(n)]
        yield f"companion-{n}", tuple(
            tuple(-cs[i] if j == n - 1 else one if i == j + 1 else zero
                  for j in range(n))
            for i in range(n))
    for size in (3, 4):
        a = sl_algebra(size, field)
        for k in range(2):
            x = tuple(
                _random_entry(rng, field) if rng.random() < 0.5 else zero
                for _ in range(a.dim))
            yield f"ad-sl{size}-{k}", a.left_mult(x).matrix


@pytest.mark.parametrize("order", [1, 4, 12])
def test_charpoly_matches_the_faddeev_leverrier_oracle(order):
    field = CycloField(order)
    for name, m in _charpoly_cases(field):
        assert charpoly(m, field) == faddeev_leverrier_charpoly(m, field), name


# -- matrix helpers ---------------------------------------------------------


def test_mat_mul_transpose_trace_against_sympy():
    rng = random.Random(SEED + 6)
    a = rand_matrix(rng, F1, 3, 4, span=3)
    b = rand_matrix(rng, F1, 4, 2, span=3)
    assert to_sympy_rational(mat_mul(a, b)) == (
        to_sympy_rational(a) * to_sympy_rational(b)
    )
    assert to_sympy_rational(transpose(a)) == to_sympy_rational(a).T
    sq = rand_matrix(rng, F1, 3, 3, span=3)
    assert trace(sq).coeffs[0] == to_sympy_rational(sq).trace()


@st.composite
def sparse_products(draw):
    """Factors of shapes n x k and k x p over Q(zeta_4) or Q(zeta_12),
    mostly zero, with a zero row of a and a zero column of b forced."""
    field = CycloField(draw(st.sampled_from([4, 12])))
    n, k, p = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    entry = st.one_of(
        st.just(0), st.just(0),
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=1, max_size=field.degree).map(field.from_coeffs),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    )

    def matrix(rows, cols):
        return [[field.from_rational(0) + draw(entry) for _ in range(cols)]
                for _ in range(rows)]

    a, b = matrix(n, k), matrix(k, p)
    a[draw(st.integers(min_value=0, max_value=n - 1))] = [field.zero] * k
    zero_col = draw(st.integers(min_value=0, max_value=p - 1))
    for row in b:
        row[zero_col] = field.zero
    return tuple(map(tuple, a)), tuple(map(tuple, b))


@given(sparse_products())
def test_mat_mul_and_mat_apply_match_the_triple_loop(factors):
    a, b = factors
    assert mat_mul(a, b) == naive_mat_mul(a, b)
    for j in range(len(b[0])):
        column = tuple(row[j] for row in b)
        assert mat_apply(a, column) == tuple(
            row[j] for row in naive_mat_mul(a, b)
        )


@st.composite
def sparse_applications(draw):
    """A square matrix over Q(zeta_N), N in {1, 3, 4, 8}, mostly zero with
    one all-zero column forced, and vectors to apply it to: the zero
    vector, a unit vector and a drawn vector."""
    field = CycloField(draw(st.sampled_from([1, 3, 4, 8])))
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.one_of(
        st.just(0), st.just(0),
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=1, max_size=field.degree).map(field.from_coeffs),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    )

    def vector():
        return [field.from_rational(0) + draw(entry) for _ in range(n)]

    m = [vector() for _ in range(n)]
    zero_col = draw(st.integers(min_value=0, max_value=n - 1))
    for row in m:
        row[zero_col] = field.zero
    unit = unit_vector(field, n, draw(st.integers(min_value=0,
                                                  max_value=n - 1)))
    vectors = (zero_vector(field, n), unit, tuple(vector()))
    return tuple(map(tuple, m)), vectors


@given(sparse_applications())
def test_column_apply_matches_the_dense_apply(case):
    m, vectors = case
    columns = sparse_columns(m)
    assert all(c for col in columns for _, c in col)
    for v in vectors:
        assert column_apply(columns, v) == mat_apply(m, v)


def test_vector_helpers():
    v = unit_vector(F4, 3, 1)
    assert v == (F4.zero, F4.one, F4.zero)
    assert vec_is_zero(zero_vector(F4, 3))
    w = vec_add(v, vec_scale(F4.zeta, v))
    assert w[1] == F4.one + F4.zeta


# -- Subspace ---------------------------------------------------------------


def test_subspace_canonical_equality():
    # two spanning sets of the same plane give identical canonical bases
    rng = random.Random(SEED + 7)
    v1 = tuple(F1.from_rational(Fraction(x)) for x in (1, 2, 0, 1))
    v2 = tuple(F1.from_rational(Fraction(x)) for x in (0, 1, 1, -1))
    s = Subspace(F1, 4, [v1, v2])
    mixed = [
        vec_add(vec_scale(F1.from_rational(Fraction(3)), v1), v2),
        vec_sub_helper(v1, v2),
    ]
    t = Subspace(F1, 4, mixed)
    assert s == t
    assert s.dim == 2
    assert s.contains(v1) and s.contains(v2)
    assert not s.contains(unit_vector(F1, 4, 3))


def vec_sub_helper(a, b):
    return tuple(x - y for x, y in zip(a, b))


def test_subspace_intersection():
    e = [unit_vector(F1, 3, i) for i in range(3)]
    xy = Subspace(F1, 3, [e[0], e[1]])
    yz = Subspace(F1, 3, [e[1], e[2]])
    meet = intersect(xy, yz)
    assert meet.dim == 1
    assert meet.contains(e[1])


# -- SpanSolver -------------------------------------------------------------


def test_span_solver_express_certificates():
    rng = random.Random(SEED + 8)
    solver = SpanSolver(F4, 5)
    gens = [rand_matrix(rng, F4, 1, 5, span=3)[0] for _ in range(4)]
    # a dependent generator between independent ones keeps its index but
    # never enters a certificate
    gens.insert(2, vec_add(gens[0], vec_scale(F4.zeta, gens[1])))
    added = [solver.add(g) for g in gens]
    assert added == [True, True, False, True, True]
    # an honest combination must be certified and re-evaluate exactly
    combo_vec = vec_add(gens[0], vec_scale(F4.zeta, gens[3]))
    coords = solver.express(combo_vec)
    assert coords is not None
    assert len(coords) == len(gens)
    assert coords[2] == F4.zero
    rebuilt = zero_vector(F4, 5)
    for g, c in enumerate(coords):
        rebuilt = vec_add(rebuilt, vec_scale(c, gens[g]))
    assert rebuilt == combo_vec
    # coordinates on independent generators are unique
    assert coords == (F4.one, F4.zero, F4.zero, F4.zeta, F4.zero)
    coords = solver.express(gens[2])
    assert coords == (F4.one, F4.zeta, F4.zero, F4.zero, F4.zero)


def test_span_solver_rejects_outside_vectors():
    solver = SpanSolver(F1, 3)
    solver.add(unit_vector(F1, 3, 0))
    assert solver.express(unit_vector(F1, 3, 2)) is None
    assert not solver.contains(unit_vector(F1, 3, 2))
    assert solver.dim == 1


def test_span_solver_dependent_add_returns_false():
    solver = SpanSolver(F1, 2)
    assert solver.add(unit_vector(F1, 2, 0))
    assert not solver.add(vec_scale(F1.from_rational(Fraction(5)),
                                    unit_vector(F1, 2, 0)))


# -- SparseEchelon ----------------------------------------------------------


def test_sparse_echelon_kernel_agrees_with_dense():
    # the reference is sympy's nullspace: kernel_basis runs this same engine
    rng = random.Random(SEED + 9)
    for _ in range(8):
        rows, cols = rng.randint(1, 4), rng.randint(2, 5)
        m = rand_matrix(rng, F4, rows, cols, span=2)
        ech = SparseEchelon()
        for row in m:
            ech.add_row({j: v for j, v in enumerate(row) if v})
        sparse = ech.kernel(list(range(cols)), F4)
        got = Subspace(
            F4, cols,
            [tuple(s.get(j, F4.zero) for j in range(cols)) for s in sparse],
        )
        want = Subspace(
            F4, cols,
            [
                tuple(F4.from_rational(Fraction(str(x))) for x in v)
                for v in to_sympy_rational(m).nullspace()
            ],
        )
        assert got == want


@pytest.mark.parametrize("field, to_sympy, gaussian", [
    (F1, to_sympy_rational, False),
    (F4, to_sympy_gauss, True),
], ids=["Q", "Q(i)"])
def test_column_kernel_is_sympys_nullspace(field, to_sympy, gaussian):
    # both kernels put a one on each free unknown (in order) and minus the
    # reduced row entries on the pivots, so they agree vector for vector
    rng = random.Random(SEED + 10)

    def entry():
        re = Fraction(rng.choice((0, 0, 1, -1, 2, -3)))
        im = Fraction(rng.choice((0, 0, 1, -2))) if gaussian else 0
        return field.from_rational(re) + field.from_rational(im) * field.zeta

    def from_sympy(x):
        re, im = sympy.expand(x).as_real_imag()
        return (field.from_rational(Fraction(str(re)))
                + field.from_rational(Fraction(str(im))) * field.zeta)

    for _ in range(12):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))
        # unknown j is the column ("u", j); its image is keyed by row name
        keys = [("u", j) for j in range(cols)]
        columns = [
            {("row", i): m[i][j] for i in range(rows) if m[i][j]}
            for j in range(cols)
        ]
        got = [
            tuple(sol.get(k, field.zero) for k in keys)
            for sol in column_kernel(keys, columns, field)
        ]
        want = [
            tuple(from_sympy(x) for x in v)
            for v in to_sympy(m).nullspace(simplify=True)
        ]
        assert got == want


def test_sparse_echelon_rank_and_reduce():
    ech = SparseEchelon()
    one = F1.one
    assert ech.add_row({("a", 0): one, ("b", 1): one}) is not None
    assert ech.add_row({("a", 0): one + one}) is not None
    # dependent row reduces to nothing
    assert ech.add_row({("b", 1): one}) is None
    assert ech.rank == 2
    assert ech.reduce_vector({("a", 0): one}) == {}
    res = ech.reduce_vector({("c", 2): one})
    assert list(res) == [("c", 2)]
