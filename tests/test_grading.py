"""Mod-m gradings and finite-order automorphisms: dictionary round-trips."""

from __future__ import annotations

from fractions import Fraction

import pytest

from helpers import kernel_centroid_grading, mat_apply, zero_algebra
from loomalg import grading
from loomalg.errors import InvalidGrading, NotAnAutomorphism
from loomalg.exactnum import CycloField, CycloNumber
from loomalg.findim import direct_sum, matrix_algebra, sl_algebra, sl_basis
from loomalg.fixtures import (
    conjugation_auto,
    matrix_inverse,
    neg_antitranspose,
    sl_matrix_auto,
    swap_sum_fixture,
)
from loomalg.grading import (
    FiniteOrderAuto,
    ModGrading,
    Subspace,
    auto_from_grading,
    centroid_grading,
    grading_from_auto,
    validate_grading,
)
from loomalg.linalg import (
    charpoly,
    identity_matrix,
    mat_mul,
    unit_vector,
    vec_add,
    vec_scale,
    zero_vector,
)

F2 = CycloField(2)
F4 = CycloField(4)


def diag_conj_auto(field=F2):
    # conjugation by the involution diag(1, -1) on sl2: H fixed, E12 and
    # E21 negated
    alg = sl_algebra(2, field)
    u = ((field.one, field.zero), (field.zero, -field.one))
    auto = sl_matrix_auto(alg, 2, lambda m: mat_mul(mat_mul(u, m), u))
    return auto, alg


# -- FiniteOrderAuto construction -------------------------------------------


def test_auto_detects_period():
    auto, _ = diag_conj_auto()
    assert auto.period == 2
    square = mat_mul(auto.matrix, auto.matrix)
    assert square == identity_matrix(F2, 3)
    assert mat_mul(square, auto.matrix) == auto.matrix


@pytest.mark.parametrize("kind", ["permutation", "diagonal"])
def test_auto_apply_multiplies_only_nonzero_column_entries(monkeypatch, kind):
    # one product per nonzero matrix entry in the vector's support columns;
    # a dense apply would make dim products per support column
    one, zero, zeta = F4.one, F4.zero, F4.zeta
    if kind == "permutation":
        u = ((zero, one, zero), (zero, zero, one), (one, zero, zero))
    else:
        u = ((one, zero, zero), (zero, zeta, zero), (zero, zero, -one))
    auto = conjugation_auto(matrix_algebra(3, F4), u)
    vec = list(zero_vector(F4, 9))
    vec[1], vec[4], vec[8] = one, zeta + 2, -zeta
    support = [j for j, x in enumerate(vec) if x]
    entries = sum(1 for j in support for row in auto.matrix if row[j])
    assert entries == len(support)
    products = []
    original = CycloNumber.__mul__

    def counted(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(CycloNumber, "__mul__", counted)
    image = auto.apply(tuple(vec))
    monkeypatch.undo()
    assert len(products) == entries
    assert image == mat_apply(auto.matrix, tuple(vec))


def test_auto_identity_has_period_one():
    alg = sl_algebra(2, F2)
    ident = FiniteOrderAuto.identity(alg)
    assert ident.period == 1


def test_auto_rejects_bad_shapes_and_singularity():
    alg = sl_algebra(2, F2)
    with pytest.raises(NotAnAutomorphism):
        FiniteOrderAuto(alg, ((F2.one, F2.zero),))
    zero_m = tuple(tuple(F2.zero for _ in range(3)) for _ in range(3))
    with pytest.raises(NotAnAutomorphism):
        FiniteOrderAuto(alg, zero_m)


def test_auto_with_a_fractional_charpoly_fails_before_the_order_search(
        monkeypatch):
    # conjugation by u on mat(2) over Q(zeta_4): u has eigenvalues that are
    # not roots of unity and the charpoly of the conjugation is not
    # integral, so the order search, which squares nothing here but would
    # multiply growing entries up to its cap, must never start
    zeta, one = F4.zeta, F4.one
    u = ((zeta**-2, 17 * one), (Fraction(-19, 2) * zeta**3, -8 * one))
    alg = matrix_algebra(2, F4)
    products = []
    monkeypatch.setattr(grading, "mat_mul",
                        lambda a, b: products.append(1) or mat_mul(a, b))
    with pytest.raises(NotAnAutomorphism, match="not integral"):
        conjugation_auto(alg, u)
    assert products == []


def test_auto_of_finite_order_with_fractional_entries_keeps_its_period():
    # the charpoly of a finite-order map is integral even when its matrix
    # is not: conjugation by the involution [[0, 1/2], [2, 0]]
    half, two, zero = F2.from_rational(Fraction(1, 2)), 2 * F2.one, F2.zero
    auto = conjugation_auto(matrix_algebra(2, F2), ((zero, half), (two, zero)))
    assert not all(c.is_integral() for row in auto.matrix for c in row)
    assert all(c.is_integral() for c in charpoly(auto.matrix, F2))
    assert auto.period == 2


def test_auto_of_infinite_order_with_an_integral_charpoly_hits_the_cap():
    # every invertible map of a zero-product algebra is an automorphism;
    # [[2, 1], [1, 1]] has charpoly x^2 - 3x + 1 and infinite order
    alg = zero_algebra(2, F2)
    m = ((2 * F2.one, F2.one), (F2.one, F2.one))
    with pytest.raises(NotAnAutomorphism, match="no finite order found"):
        FiniteOrderAuto(alg, m)


def test_auto_rejects_non_multiplicative_map():
    # negation is invertible but does not preserve the sl2 bracket
    alg = sl_algebra(2, F2)
    neg = tuple(
        tuple(-F2.one if i == j else F2.zero for j in range(3))
        for i in range(3)
    )
    with pytest.raises(NotAnAutomorphism):
        FiniteOrderAuto(alg, neg)


@pytest.mark.parametrize("n", [2, 3])
def test_sl_matrix_auto_realizes_the_map_on_sl_basis(n):
    # column j of the automorphism holds the sl_basis coordinates of f
    # applied to basis matrix j, for an inner and an outer automorphism
    field = F4
    alg = sl_algebra(n, field)
    flat, labels = sl_basis(n, field)
    assert list(labels) == list(alg.labels)
    # a monomial matrix with root-of-unity entries: conjugation has finite order
    u = tuple(
        tuple(field.zeta**r if c == (r + 1) % n else field.zero
              for c in range(n))
        for r in range(n)
    )
    uinv = matrix_inverse(field, u)
    maps = (
        lambda m: mat_mul(mat_mul(u, m), uinv),
        lambda m: neg_antitranspose(field, m),
    )
    for f in maps:
        auto = sl_matrix_auto(alg, n, f)
        for j, v in enumerate(flat):
            img = f(tuple(v[r * n:(r + 1) * n] for r in range(n)))
            got = zero_vector(field, n * n)
            for i, w in enumerate(flat):
                got = vec_add(got, vec_scale(auto.matrix[i][j], w))
            assert got == tuple(x for row in img for x in row)


def test_auto_inverse_matrix():
    auto, _ = diag_conj_auto()
    assert mat_mul(auto.matrix, auto.inverse_matrix()) == identity_matrix(F2, 3)


# -- grading_from_auto ------------------------------------------------------


def test_eigenspace_grading_of_sl2():
    auto, alg = diag_conj_auto()
    grading = grading_from_auto(auto, F2.zeta)
    assert grading.modulus == 2
    assert grading.dims() == (1, 2)
    assert validate_grading(grading) == []
    # degree-0 part is the Cartan line
    h = unit_vector(F2, 3, 2)
    assert grading.component(0).contains(h)


def test_grading_with_empty_components_keeps_modulus():
    auto, alg = diag_conj_auto(F4)
    z4 = F4.zeta
    grading = grading_from_auto(auto, z4)
    assert grading.modulus == 4
    assert grading.dims() == (1, 0, 2, 0)
    assert validate_grading(grading) == []


def test_grading_requires_root_and_divisibility():
    auto, _ = diag_conj_auto()
    with pytest.raises(InvalidGrading):
        grading_from_auto(auto, F2.from_rational(2))
    # period 2 does not divide order(zeta) = 1
    with pytest.raises(InvalidGrading):
        grading_from_auto(auto, F2.one)


# -- dictionary round-trips -------------------------------------------------


def test_round_trip_from_auto():
    auto, _ = diag_conj_auto()
    grading = grading_from_auto(auto, F2.zeta)
    back = auto_from_grading(grading)
    assert back.matrix == auto.matrix
    assert back.period == auto.period


def test_round_trip_from_grading():
    fix = swap_sum_fixture()
    grading = fix["grading"]
    auto = auto_from_grading(grading)
    again = grading_from_auto(auto, grading.zeta)
    assert again == grading


def test_period_exactness_against_modulus():
    # the determining automorphism satisfies sigma^m = 1 and re-determines
    # the grading, even when empty components force a smaller exact period
    auto, alg = diag_conj_auto(F4)
    grading = grading_from_auto(auto, F4.zeta)
    sigma = auto_from_grading(grading)
    m = grading.modulus
    assert m % sigma.period == 0
    acc = identity_matrix(F4, 3)
    for _ in range(m):
        acc = mat_mul(acc, sigma.matrix)
    assert acc == identity_matrix(F4, 3)
    assert grading_from_auto(sigma, grading.zeta) == grading


# -- validate_grading catches corruption ------------------------------------


def test_validate_flags_wrong_root_order():
    auto, alg = diag_conj_auto(F4)
    grading = grading_from_auto(auto, -F4.one)
    bad = ModGrading(alg, 2, F4.zeta, grading.components)
    msgs = validate_grading(bad)
    assert any("order" in m for m in msgs)


def test_validate_flags_product_escape():
    # swapping the two components of the sl2 grading breaks compatibility:
    # the even part must be closed, but E12 * E21 lands on the Cartan line
    auto, alg = diag_conj_auto()
    grading = grading_from_auto(auto, F2.zeta)
    swapped = ModGrading(
        alg, 2, F2.zeta, (grading.components[1], grading.components[0])
    )
    msgs = validate_grading(swapped)
    assert any("product" in m for m in msgs)


def test_validate_flags_missing_span():
    auto, alg = diag_conj_auto()
    grading = grading_from_auto(auto, F2.zeta)
    empty = Subspace(F2, 3)
    crippled = ModGrading(alg, 2, F2.zeta, (grading.components[0], empty))
    msgs = validate_grading(crippled)
    assert any("span" in m for m in msgs)


# -- centroid grading -------------------------------------------------------


def test_centroid_grading_of_swap_fixture():
    fix = swap_sum_fixture()
    cg = centroid_grading(fix["grading"])
    assert cg.modulus == 2
    assert cg.dims() == (1, 1)
    assert cg.algebra.dim == 2
    # the coordinate grading is itself a valid grading of the centroid
    assert validate_grading(cg.coordinate_grading) == []


def test_centroid_grading_of_simple_base_is_concentrated():
    # central simple base: centroid is the ground line in degree zero
    alg = matrix_algebra(2, F2)
    u = ((F2.zero, F2.one), (F2.one, F2.zero))
    auto = conjugation_auto(alg, u)
    grading = grading_from_auto(auto, F2.zeta)
    cg = centroid_grading(grading)
    assert cg.algebra.dim == 1
    assert cg.dims() == (1, 0)


def mat2_swap_grading():
    alg = matrix_algebra(2, F2)
    u = ((F2.zero, F2.one), (F2.one, F2.zero))
    return grading_from_auto(conjugation_auto(alg, u), F2.zeta)


def four_cycle_grading():
    # the 4-cycle permutation of the factors of sl2^4 over Q(zeta_4)
    half = sl_algebra(2, F4)
    alg = direct_sum(direct_sum(half, half), direct_sum(half, half))
    d = alg.dim
    cols = [unit_vector(F4, d, (c + half.dim) % d) for c in range(d)]
    return grading_from_auto(FiniteOrderAuto(alg, tuple(zip(*cols))), F4.zeta)


@pytest.mark.parametrize("make, dims", [
    (lambda: swap_sum_fixture()["grading"], (1, 1)),
    (mat2_swap_grading, (1, 0)),
    (four_cycle_grading, (1, 1, 1, 1)),
], ids=["swap-sum", "mat2-swap", "sl2^4-cycle"])
def test_centroid_grading_matches_residual_kernel_oracle(make, dims):
    # the eigen-grading of the induced twist against the residual system
    # chi(A_j) inside A_(lambda+j), as canonical subspaces
    grading = make()
    cg = centroid_grading(grading)
    assert cg.coordinate_grading == kernel_centroid_grading(grading)
    assert cg.dims() == cg.coordinate_grading.dims() == dims
    for lam, comp_maps in enumerate(cg.component_maps):
        for j, comp in enumerate(grading.components):
            target = grading.component(lam + j)
            assert all(target.contains(mp.apply(b))
                       for mp in comp_maps for b in comp.basis)


def test_centroid_grading_rejects_a_non_multiplicative_grading():
    auto, alg = diag_conj_auto()
    grading = grading_from_auto(auto, F2.zeta)
    swapped = ModGrading(
        alg, 2, F2.zeta, (grading.components[1], grading.components[0])
    )
    with pytest.raises(NotAnAutomorphism) as err:
        centroid_grading(swapped)
    assert err.value.code == "not-an-automorphism"


def test_centroid_grading_rejects_a_root_of_the_wrong_order():
    # the eigen-grading is taken at the declared root, so a mod-4 grading
    # declared with a square root of unity is refused, not coarsened
    grading = swap_sum_fixture()["grading"]
    empty = Subspace(F2, grading.algebra.dim)
    padded = ModGrading(grading.algebra, 4, F2.zeta,
                        (*grading.components, empty, empty))
    with pytest.raises(InvalidGrading):
        centroid_grading(padded)
