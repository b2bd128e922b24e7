"""Structure-constant algebras: table oracles, predicates, centroid laws."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    column_ideal_algebra,
    cross_product_algebra,
    dense_centre,
    dense_centroid,
    dense_is_associative,
    dense_left_mult,
    dense_mult_algebra_basis,
    dense_right_mult,
    dense_satisfies_jacobi,
    eager_simple_candidates,
    mult_module_closure,
    naive_multiply,
    transposed_module_closure,
    zero_algebra,
)
from loomalg import findim, polyfactor
from loomalg.errors import DimensionMismatch, LoomError, Undecided
from loomalg.exactnum import CycloField
from loomalg.findim import (
    LinearMap,
    StructureAlgebra,
    centre,
    centroid,
    centroid_algebra,
    change_basis,
    direct_sum,
    is_anticommutative,
    is_associative,
    is_central,
    is_commutative,
    is_lie,
    is_perfect,
    is_pfgc_findim,
    is_simple,
    matrix_algebra,
    mult_algebra_basis,
    nonzero_terms,
    property_report,
    satisfies_jacobi,
    sl_algebra,
)
from loomalg.fixtures import quaternion_algebra
from loomalg.linalg import (
    SpanSolver,
    charpoly,
    kernel_basis,
    mat_mul,
    sparse_columns,
    transpose,
    unit_vector,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vector,
)

F1 = CycloField(1)
F2 = CycloField(2)

SEED = 20260214


def rand_vec(rng, field, n, span=3):
    return tuple(
        field.from_rational(Fraction(rng.randint(-span, span))) for _ in range(n)
    )


def rand_nonzero_vec(rng, field, n, span=3):
    while True:
        v = rand_vec(rng, field, n, span)
        if not vec_is_zero(v):
            return v


# -- structure constants against direct matrix arithmetic -------------------


@pytest.mark.parametrize("n", [2, 3])
def test_matrix_algebra_constants_oracle(n):
    # multiply(E_ab, E_cd) must be delta_bc E_ad, re-derived by index algebra
    alg = matrix_algebra(n, F1)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    i, j = a * n + b, c * n + d
                    got = alg.multiply(alg.basis_vector(i), alg.basis_vector(j))
                    want = list(zero_vector(F1, n * n))
                    if b == c:
                        want[a * n + d] = F1.one
                    assert got == tuple(want)


def _label_to_matrix(field, n, label):
    if label.startswith("E"):
        a, b = int(label[1]) - 1, int(label[2]) - 1
        return [[field.one if (r, c) == (a, b) else field.zero
                 for c in range(n)] for r in range(n)]
    k = int(label[1:]) - 1
    m = [[field.zero] * n for _ in range(n)]
    m[k][k] = field.one
    m[k + 1][k + 1] = -field.one
    return m


@pytest.mark.parametrize("n", [2, 3])
def test_sl_algebra_bracket_matches_matrix_commutator(n):
    alg = sl_algebra(n, F1)
    mats = [_label_to_matrix(F1, n, lab) for lab in alg.labels]
    flat = [tuple(v for row in m for v in row) for m in mats]
    solver = SpanSolver(F1, n * n)
    for f in flat:
        assert solver.add(f)
    for i in range(alg.dim):
        for j in range(alg.dim):
            comm = [
                [x - y for x, y in zip(r1, r2)]
                for r1, r2 in zip(
                    mat_mul(mats[i], mats[j]), mat_mul(mats[j], mats[i])
                )
            ]
            want = solver.express(tuple(v for row in comm for v in row))
            got = alg.multiply(alg.basis_vector(i), alg.basis_vector(j))
            assert got == want


def test_sl2_is_traceless_and_three_dimensional():
    alg = sl_algebra(2, F1)
    assert alg.dim == 3
    assert list(alg.labels) == ["E12", "E21", "H1"]


# -- predicate table on known algebras --------------------------------------


def test_predicates_on_matrix_algebra():
    a = matrix_algebra(2, F1)
    assert is_associative(a) and not is_commutative(a)
    assert a.unit is not None and is_perfect(a)
    assert is_central(a) and is_simple(a) and is_pfgc_findim(a)
    assert not is_lie(a)


def test_predicates_on_sl2():
    a = sl_algebra(2, F1)
    assert is_lie(a) and is_anticommutative(a) and satisfies_jacobi(a)
    assert is_perfect(a) and not is_associative(a)
    assert is_simple(a) and is_central(a)


def test_predicates_on_degenerate_algebras():
    z = zero_algebra(3, F1)
    assert not is_perfect(z)
    assert is_commutative(z) and is_associative(z)
    assert not is_simple(z)
    s = direct_sum(sl_algebra(2, F1), sl_algebra(2, F1))
    assert is_perfect(s) and is_lie(s)
    assert not is_simple(s) and not is_central(s)


def test_quaternions_are_central_simple():
    q = quaternion_algebra()
    assert is_associative(q) and not is_commutative(q)
    assert is_simple(q) and is_central(q)
    assert q.unit == (F1.one, F1.zero, F1.zero, F1.zero)


F4 = CycloField(4)
_PRODUCT_ALGEBRAS = {
    "mat(2)": matrix_algebra(2, F4),
    "mat(3)": matrix_algebra(3, F4),
    "sl(2)": sl_algebra(2, F4),
    "sl(3)": sl_algebra(3, F4),
    "quaternions": quaternion_algebra(F4),
    "cross-product": cross_product_algebra(F4),
    "column-ideal": column_ideal_algebra(F4),
    "sl(2)+mat(1)": direct_sum(sl_algebra(2, F4), matrix_algebra(1, F4)),
}


@st.composite
def algebra_and_factors(draw):
    """An algebra and two of its vectors over Q(zeta_4), mostly zero."""
    a = _PRODUCT_ALGEBRAS[draw(st.sampled_from(sorted(_PRODUCT_ALGEBRAS)))]
    entry = st.one_of(
        st.just(0), st.just(0),
        st.lists(st.integers(min_value=-3, max_value=3),
                 min_size=1, max_size=F4.degree).map(F4.from_coeffs),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    )

    def vector():
        return tuple(F4.from_rational(0) + draw(entry) for _ in range(a.dim))

    return a, vector(), vector()


@given(algebra_and_factors())
def test_multiply_matches_the_dense_table(factors):
    # multiply, left_mult and right_mult read the nonzero products built
    # once per algebra; on a basis vector the maps are the table's L_i, R_i
    a, x, y = factors
    assert a.multiply(x, y) == naive_multiply(a, x, y)
    assert a.left_mult(x).apply(y) == naive_multiply(a, x, y)
    assert a.right_mult(y).apply(x) == naive_multiply(a, x, y)
    for i in range(a.dim):
        e = a.basis_vector(i)
        assert a.left_mult(e).matrix == dense_left_mult(a, i)
        assert a.right_mult(e).matrix == dense_right_mult(a, i)


@given(algebra_and_factors(), st.integers(min_value=0, max_value=2))
def test_add_product_adds_under_the_callers_keys(factors, shift):
    # the one product routine adds x . y into a dict that already holds
    # y . x, under keys the caller chose
    a, x, y = factors
    keys = [("coordinate", (k + shift) % a.dim) for k in range(a.dim)]
    acc = {}
    a.add_product(acc, keys, nonzero_terms(y), nonzero_terms(x))
    a.add_product(acc, keys, nonzero_terms(x), nonzero_terms(y))
    want = vec_add(naive_multiply(a, y, x), naive_multiply(a, x, y))
    assert set(acc) <= set(keys)
    assert tuple(acc.get(key, F4.zero) for key in keys) == want


# -- centroid invariants ----------------------------------------------------


def _is_centroid_map(a, chi):
    for i in range(a.dim):
        for j in range(a.dim):
            x, y = a.basis_vector(i), a.basis_vector(j)
            cxy = chi.apply(a.multiply(x, y))
            if cxy != a.multiply(chi.apply(x), y):
                return False
            if cxy != a.multiply(x, chi.apply(y)):
                return False
    return True


@pytest.mark.parametrize(
    "make",
    [
        lambda: matrix_algebra(2, F1),
        lambda: sl_algebra(2, F1),
        lambda: direct_sum(sl_algebra(2, F1), sl_algebra(2, F1)),
        lambda: quaternion_algebra(),
    ],
)
def test_centroid_contains_identity_and_satisfies_identities(make):
    a = make()
    maps = centroid(a)
    solver = SpanSolver(a.field, a.dim * a.dim)
    for chi in maps:
        assert _is_centroid_map(a, chi)
        solver.add(chi.flat())
    ident = LinearMap.identity(a.field, a.dim)
    assert solver.contains(ident.flat())


def test_unital_centre_matches_centroid():
    # left multiplication by a centre basis must span the centroid
    for a in (matrix_algebra(2, F1),
              direct_sum(matrix_algebra(2, F1), matrix_algebra(2, F1)),
              quaternion_algebra()):
        zc = centre(a)
        maps = centroid(a)
        assert zc.dim == len(maps)
        solver = SpanSolver(a.field, a.dim * a.dim)
        for chi in maps:
            solver.add(chi.flat())
        for zv in zc.basis:
            lm = a.left_mult(zv)
            coords = solver.express(lm.flat())
            assert coords is not None


def test_perfect_centroid_is_commutative():
    for a in (sl_algebra(2, F1),
              matrix_algebra(3, F1),
              direct_sum(sl_algebra(2, F1), sl_algebra(2, F1))):
        assert is_perfect(a)
        maps = centroid(a)
        for x in maps:
            for y in maps:
                assert mat_mul(x.matrix, y.matrix) == mat_mul(y.matrix, x.matrix)


def test_centroid_transport_under_isomorphism():
    # conjugation by a random invertible map sends centroid onto centroid
    rng = random.Random(SEED)
    a = direct_sum(sl_algebra(2, F1), sl_algebra(2, F1))
    n = a.dim
    while True:
        cols = [rand_vec(rng, F1, n, span=2) for _ in range(n)]
        probe = SpanSolver(F1, n)
        if all(probe.add(c) for c in cols):
            break
    b = change_basis(a, cols)
    # rho: b -> a sends the k-th b-basis vector to cols[k]
    rho = tuple(zip(*cols))
    rho_inv_solver = SpanSolver(F1, n)
    for c in cols:
        rho_inv_solver.add(c)
    target = SpanSolver(F1, n * n)
    for chi in centroid(b):
        target.add(chi.flat())
    for chi in centroid(a):
        # conjugate: chi' = rho^-1 chi rho, expressed on b coordinates
        conj_cols = []
        for k in range(n):
            img = chi.apply(cols[k])
            conj_cols.append(rho_inv_solver.express(img))
        conj = tuple(zip(*conj_cols))
        flat = tuple(v for row in conj for v in row)
        assert target.express(flat) is not None


def test_centroid_algebra_of_direct_sum_is_two_dimensional():
    a = direct_sum(sl_algebra(2, F1), sl_algebra(2, F1))
    calg, maps = centroid_algebra(a)
    assert calg.dim == 2 and len(maps) == 2
    assert is_commutative(calg) and is_associative(calg)
    assert calg.unit is not None


def test_centroid_algebra_missing_certificate_is_a_coded_error(monkeypatch):
    # a product of centroid maps outside the centroid span is a library
    # defect; it must stop with a coded error, also under python -O
    monkeypatch.setattr(SpanSolver, "express", lambda self, vec: None)
    with pytest.raises(LoomError) as info:
        centroid_algebra(matrix_algebra(2, F1))
    assert info.value.code == "invariant-violated"


# -- simplicity and ideals --------------------------------------------------


def test_simple_algebras_have_no_proper_ideals_on_samples():
    rng = random.Random(SEED + 1)
    for a in (sl_algebra(2, F1), matrix_algebra(2, F1)):
        assert is_simple(a)
        for _ in range(100):
            x = rand_nonzero_vec(rng, a.field, a.dim)
            assert mult_module_closure(a, [x]).dim == a.dim


def test_ideal_detects_direct_summand():
    a = direct_sum(sl_algebra(2, F1), sl_algebra(2, F1))
    x = unit_vector(F1, a.dim, 0)
    ideal = mult_module_closure(a, [x])
    assert ideal.dim == 3


def test_is_simple_seed_determinism():
    # the verdict is stored on the algebra, so a second call on the same
    # object would only read it back: run the seeded search on two builds
    a, b = sl_algebra(3, F1), sl_algebra(3, F1)
    assert a is not b
    assert is_simple(a) == is_simple(b)
    assert is_simple(a)


F3 = CycloField(3)


def _diagonal(k, field):
    """k copies of the field, multiplied coordinatewise."""
    a = matrix_algebra(1, field)
    for _ in range(k - 1):
        a = direct_sum(a, matrix_algebra(1, field))
    return a


_SPIN_ALGEBRAS = {
    "sl(2)": lambda: sl_algebra(2, F1),
    "sl(3)": lambda: sl_algebra(3, F1),
    "sl(4)": lambda: sl_algebra(4, F1),
    "mat(2)": lambda: matrix_algebra(2, F1),
    "mat(3)": lambda: matrix_algebra(3, F1),
    "quaternions": quaternion_algebra,
    "sl(2)+sl(2)": lambda: direct_sum(sl_algebra(2, F1), sl_algebra(2, F1)),
    # commutative bases, and a Lie base over a larger field: R_i = L_i or
    # R_i = -L_i, so half the generators are dropped
    "unit": lambda: matrix_algebra(1, F1),
    "diag(3)/Q(zeta3)": lambda: _diagonal(3, F3),
    "sl(3)/Q(zeta4)": lambda: sl_algebra(3, F4),
}


@pytest.mark.parametrize("name", sorted(_SPIN_ALGEBRAS))
def test_sparse_mult_algebra_basis_matches_the_dense_oracle(monkeypatch, name):
    build = _SPIN_ALGEBRAS[name]
    a = build()
    dense = dense_mult_algebra_basis(a)
    # the same products accepted in the same order, so the same span and
    # the same seeded simplicity search, although dependent generators are
    # skipped
    assert mult_algebra_basis(a) == dense
    if is_commutative(a) or is_anticommutative(a):
        assert len(findim._generators(a)) <= a.dim
    verdict = is_simple(a)
    # A is central simple exactly when its multiplication algebra is all
    # of End(A) (Burnside); every simple algebra here is central
    assert verdict == (len(dense) == a.dim ** 2)
    monkeypatch.setattr(findim, "mult_algebra_basis", dense_mult_algebra_basis)
    assert is_simple(build()) == verdict


def test_mult_algebra_is_built_only_after_the_basis_spins(monkeypatch):
    # a basis-vector spin refutes simplicity of sl(2) + sl(4) before any
    # candidate is drawn; sl(3) needs candidates, so one build
    calls = []
    original = findim.mult_algebra_basis

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(findim, "mult_algebra_basis", counted)
    assert not is_simple(direct_sum(sl_algebra(2, F1), sl_algebra(4, F1)))
    assert calls == []
    a = sl_algebra(3, F1)
    assert is_simple(a)
    assert calls == [a]


@pytest.mark.parametrize(
    "name", ["sl(2)", "sl(3)", "sl(4)", "mat(2)", "mat(3)", "quaternions"])
def test_lazy_candidates_match_the_eager_draws(name):
    a = _SPIN_ALGEBRAS[name]()
    basis = mult_algebra_basis(a)
    lazy = findim._simple_candidates(a, basis)
    assert list(lazy) == eager_simple_candidates(a, basis)


_ORACLE_ALGEBRAS = {
    "sl(2)": lambda: sl_algebra(2, F1),
    "sl(3)": lambda: sl_algebra(3, F1),
    "sl(4)": lambda: sl_algebra(4, F1),
    "mat(2)": lambda: matrix_algebra(2, F1),
    "mat(3)": lambda: matrix_algebra(3, F1),
    "quaternions/Q(i)": lambda: quaternion_algebra(F4),
    "sl(2)+sl(2)": lambda: direct_sum(sl_algebra(2, F1), sl_algebra(2, F1)),
    "sl(2)+sl(3)": lambda: direct_sum(sl_algebra(2, F1), sl_algebra(3, F1)),
    "zero(3)": lambda: zero_algebra(3, F1),
}


def _spin_probes(a, rng):
    """The zero vector, a basis vector, random vectors, and one kernel
    vector of f(theta) for each factor f of the characteristic polynomial
    of the first two candidates theta of the simplicity search."""
    field = a.field

    def entry():
        return field.from_coeffs(
            [rng.randint(-2, 2) for _ in range(field.degree)])

    probes = [a.zero(), a.basis_vector(a.dim - 1)]
    probes += [tuple(entry() for _ in range(a.dim)) for _ in range(3)]
    candidates = findim._simple_candidates(a, mult_algebra_basis(a))
    for theta in (next(candidates), next(candidates)):
        for f, _ in polyfactor.factor(charpoly(theta, field), field):
            ftheta = findim._matrix_poly(f, theta, field)
            probes.append(kernel_basis(ftheta, a.dim, field)[0])
    return probes


@pytest.mark.parametrize("name", sorted(_ORACLE_ALGEBRAS))
def test_generator_spin_matches_the_module_closure_oracle(name):
    # the spin closes v under the independent L_i and R_i only; the oracle
    # closes it under every L_i and R_i
    a = _ORACLE_ALGEBRAS[name]()
    gens = findim._generators(a)
    columns = [cols for cols, _ in gens]
    tcolumns = [rows for _, rows in gens]
    rng = random.Random(SEED + 3)
    for v in _spin_probes(a, rng):
        assert findim._spin(columns, v, a.dim) == mult_module_closure(a, [v]).dim
        assert (findim._spin(tcolumns, v, a.dim)
                == transposed_module_closure(a, [v]).dim)


def test_is_simple_on_sl5_and_a_sum_of_two_simple_lie_algebras():
    assert is_simple(sl_algebra(5, F1))
    assert not is_simple(direct_sum(sl_algebra(2, F1), sl_algebra(3, F1)))


def test_exhausted_simplicity_search_says_what_it_tried(monkeypatch):
    # with every factor reported twice, no factor certifies irreducibility
    factor = polyfactor.factor
    monkeypatch.setattr(
        findim.polyfactor, "factor",
        lambda p, field: [(f, 2) for f, _ in factor(p, field)])
    with pytest.raises(Undecided) as info:
        is_simple(sl_algebra(2, F1))
    assert str(info.value) == (
        "simplicity search exhausted without a certifying element: "
        "31 candidates drawn, 74 spins made, 0 multiplicity-one factors met; "
        "multiplication algebra dimension 9 over module dimension 3"
    )


# -- basis change -----------------------------------------------------------


def test_change_basis_preserves_structure():
    rng = random.Random(SEED + 2)
    a = matrix_algebra(2, F1)
    n = a.dim
    while True:
        cols = [rand_vec(rng, F1, n, span=2) for _ in range(n)]
        probe = SpanSolver(F1, n)
        if all(probe.add(c) for c in cols):
            break
    b = change_basis(a, cols)
    assert is_associative(b) and not is_commutative(b)
    assert is_simple(b)
    assert b.unit is not None
    # the unit coordinates re-express the original unit
    rebuilt = zero_vector(F1, n)
    for k, c in enumerate(b.unit):
        rebuilt = vec_add(rebuilt, vec_scale(c, cols[k]))
    assert rebuilt == a.unit


def test_change_basis_rejects_dependent_columns():
    a = matrix_algebra(2, F1)
    cols = [unit_vector(F1, 4, 0)] * 4
    with pytest.raises(DimensionMismatch):
        change_basis(a, cols)


# -- report -----------------------------------------------------------------


def test_property_report_shapes_and_provenance():
    rep = property_report(matrix_algebra(2, F1))
    names = {
        "nonzero", "perfect", "unital", "commutative", "associative",
        "lie", "pfgc", "simple", "central", "prime",
    }
    assert set(rep) == names
    for entry in rep.values():
        assert "value" in entry and "provenance" in entry
    assert rep["simple"]["value"] is True
    assert rep["prime"]["value"] is True
    assert rep["prime"]["provenance"] == "derived-by-theorem"
    assert rep["associative"]["provenance"] == "verified"


def test_element_str_uses_labels():
    a = matrix_algebra(2, F1)
    v = vec_add(
        a.basis_vector(0),
        vec_scale(F1.from_rational(Fraction(-2)), a.basis_vector(3)),
    )
    s = a.element_str(v)
    assert "E11" in s and "E22" in s


# -- identities on the sparse product table ---------------------------------


def _table_algebra(field, n, products):
    """The algebra on e_0..e_(n-1) with e_i e_j = sum of c e_k over the
    (k, c) in products[i, j], every other product zero."""
    zero = field.zero
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            vec = [zero] * n
            for k, c in products.get((i, j), ()):
                vec[k] = field.from_rational(c)
            row.append(tuple(vec))
        table.append(row)
    return StructureAlgebra(field, table)


def _jacobi_fails_last():
    # anticommutative on e1, e2, e3 with e0 annihilating everything:
    # [e1, e2] = e3 and [e2, e3] = e2 give the Jacobi sum -e3 at
    # (1, 2, 3), the last triple, and zero at every triple with e0
    return _table_algebra(F1, 4, {
        (1, 2): [(3, 1)], (2, 1): [(3, -1)],
        (2, 3): [(2, 1)], (3, 2): [(2, -1)],
    })


def _associativity_fails_last():
    # e2 e2 = e1 and e1 e2 = e0: (e2 e2) e2 = e0 but e2 (e2 e2) = 0, and
    # every other triple associates; (2, 2, 2) is the last triple
    return _table_algebra(F1, 3, {(2, 2): [(1, 1)], (1, 2): [(0, 1)]})


_IDENTITY_ALGEBRAS = {
    "sl(2)": lambda: sl_algebra(2, F1),
    "sl(3)/Q(zeta4)": lambda: sl_algebra(3, F4),
    "sl(4)": lambda: sl_algebra(4, F1),
    "mat(2)": lambda: matrix_algebra(2, F1),
    "mat(3)/Q(zeta3)": lambda: matrix_algebra(3, F3),
    "quaternions": quaternion_algebra,
    "zero(3)": lambda: zero_algebra(3, F1),
    "sl(2)+sl(3)": lambda: direct_sum(sl_algebra(2, F1), sl_algebra(3, F1)),
    "mat(2)+sl(2)": lambda: direct_sum(matrix_algebra(2, F1),
                                       sl_algebra(2, F1)),
    "cross-product": lambda: cross_product_algebra(F1),
    "jacobi-fails-once": _jacobi_fails_last,
    "associativity-fails-once": _associativity_fails_last,
}


@pytest.mark.parametrize("name", sorted(_IDENTITY_ALGEBRAS))
def test_identity_checks_match_the_dense_oracles(name):
    a = _IDENTITY_ALGEBRAS[name]()
    assert satisfies_jacobi(a) == dense_satisfies_jacobi(a)
    assert findim._is_associative(a) == dense_is_associative(a)
    assert centre(a) == dense_centre(a)
    assert [chi.matrix for chi in centroid(a)] == dense_centroid(a)
    # every operator, in column and row form, is the table's L_i, then R_i
    dense = [dense_left_mult(a, i) for i in range(a.dim)]
    dense += [dense_right_mult(a, i) for i in range(a.dim)]
    ops = findim._operators(a)
    assert ops == tuple(sparse_columns(m) for m in dense)
    assert [tuple(map(tuple, findim._transposed(cols))) for cols in ops] == [
        sparse_columns(transpose(m)) for m in dense]
    for i in range(a.dim):
        e = a.basis_vector(i)
        assert a.left_mult(e).matrix == dense[i]
        assert a.right_mult(e).matrix == dense[a.dim + i]


def test_identity_check_algebras_cover_both_verdicts():
    jac = _jacobi_fails_last()
    assert is_anticommutative(jac) and not satisfies_jacobi(jac)
    assert not is_lie(jac)
    assoc = _associativity_fails_last()
    assert not is_associative(assoc)
    assert satisfies_jacobi(sl_algebra(4, F1))
    assert is_associative(matrix_algebra(3, F3))
    # (E11 E12) E21 + (E12 E21) E11 + (E21 E11) E12 = 2 E11 + E22
    assert not satisfies_jacobi(matrix_algebra(2, F1))


def test_matrix_poly_matches_the_sum_of_powers():
    rng = random.Random(SEED + 9)
    field = F4
    n = 4
    m = tuple(
        tuple(field.from_coeffs([rng.randint(-2, 2), rng.randint(-2, 2)])
              for _ in range(n))
        for _ in range(n))
    coeffs = [field.from_rational(c) for c in (3, 0, -1, 2)] + [field.one]
    want = tuple(tuple(field.zero for _ in range(n)) for _ in range(n))
    power = tuple(unit_vector(field, n, i) for i in range(n))
    for c in coeffs:
        want = tuple(vec_add(r, vec_scale(c, p)) for r, p in zip(want, power))
        power = mat_mul(power, m)
    assert findim._matrix_poly(coeffs, m, field) == want
