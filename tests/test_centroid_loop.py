"""Centroid stabilizers, untwisting, and the kind dichotomy."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import (
    hermitian_orbit_count,
    projection_stabilizes,
    reference_centroid_action,
    restricted_stabilizer_span,
    window_stabilizer,
    zero_algebra,
)
from loomalg.centroid_loop import (
    FIRST_KIND_ISO_ADVISORY,
    StrangeRingData,
    centroid_action,
    centroid_tower,
    first_kind_iso_hint,
    kind_classify,
    multiloop_centroid_check,
    psi_check,
    stabilizer_in_box,
    stabilizes,
    strange_ring_audit,
    untwist_check,
    window_span,
)
from loomalg.errors import HypothesisNotMet, InvariantViolated, LoomError
from loomalg.exactnum import CycloField
from loomalg.findim import (
    LinearMap,
    centroid_algebra,
    direct_sum,
    matrix_algebra,
    sl_algebra,
)
from loomalg.fixtures import (
    conjugation_auto,
    fixture_registry,
    hermitian_tower,
    quantum_torus_tower,
    sl_matrix_auto,
    swap_sum_fixture,
    synthetic_kind_towers,
)
from loomalg.grading import FiniteOrderAuto, auto_from_grading
from loomalg.linalg import SpanSolver, mat_mul
from loomalg.loops import (
    DegreeBox,
    LaurentElement,
    LoopTower,
    ToralMonomialAuto,
    TowerStage,
    box_coordinates,
    laurent_multiply,
    multiloop,
    tower_membership,
)

F1 = CycloField(1)


def scalar_monomial(field, degree):
    return LaurentElement.monomial(field, 2, 1, degree, (field.one,))


# -- stabilizer windows -----------------------------------------------------


def test_quantum_torus_stabilizer_is_the_sublattice():
    qt = quantum_torus_tower(2)
    tower, field = qt["tower"], qt["field"]
    box = DegreeBox((4, 4))
    check = multiloop_centroid_check(tower, stabilizer_in_box(tower, box))
    assert check["ok"] is True
    assert check["stabilizer_dim"] == 25
    assert check["expected_count"] == 25
    assert check["generators"] == ["z1^2", "z2^2"]
    assert check["dims_by_degree"] == {
        -4: 5, -3: 0, -2: 5, -1: 0, 0: 5, 1: 0, 2: 5, 3: 0, 4: 5
    }


def test_multiloop_centroid_check_rejects_twisted_towers():
    herm = hermitian_tower(1)
    stab = stabilizer_in_box(herm["tower"], DegreeBox((2, 2)))
    with pytest.raises(HypothesisNotMet):
        multiloop_centroid_check(herm["tower"], stab)


def test_hermitian_stabilizer_matches_orbit_oracle():
    herm = hermitian_tower(1)
    stab = stabilizer_in_box(herm["tower"], DegreeBox((4, 4)))
    assert stab.dim == hermitian_orbit_count((4, 4))
    assert stab.dims_by_degree == {
        -4: 3, -3: 2, -2: 3, -1: 2, 0: 3, 1: 2, 2: 3, 3: 2, 4: 3
    }


def test_hermitian_rejects_bare_lattice_monomials():
    # z1^2 z2^j alone does not stabilize; only symmetrized combinations do
    herm = hermitian_tower(1)
    tower, field = herm["tower"], herm["field"]
    calg, maps = centroid_algebra(tower.base)
    window = DegreeBox((4, 4))
    for j in (0, 1):
        assert not stabilizes(tower, maps, scalar_monomial(field, (2, j)),
                              window)
    sym = scalar_monomial(field, (2, 0)).add(scalar_monomial(field, (-2, 0)))
    assert stabilizes(tower, maps, sym, window)


def test_stabilizer_requires_pfgc_base():
    field = CycloField(2)
    dead = zero_algebra(1, field)
    ident = FiniteOrderAuto.identity(dead)
    twist = ToralMonomialAuto(ident, (), (), field.one)
    tower = LoopTower(dead, [TowerStage(twist, 2, field.zeta)])
    with pytest.raises(HypothesisNotMet):
        stabilizer_in_box(tower, DegreeBox((2,)))


def test_stabilizer_box_arity_must_match():
    qt = quantum_torus_tower(2)
    with pytest.raises(LoomError):
        stabilizer_in_box(qt["tower"], DegreeBox((2,)))


# -- stabilizer invariants --------------------------------------------------


def test_stabilizer_closure_under_products():
    qt = quantum_torus_tower(2)
    tower, field, base = qt["tower"], qt["field"], qt["base"]
    calg, maps = centroid_algebra(base)
    small = stabilizer_in_box(tower, DegreeBox((2, 2)))
    big = stabilizer_in_box(tower, DegreeBox((4, 4)))
    big_box = DegreeBox((4, 4))
    big_span = window_span(big.elements, big_box, field, 1)
    for a in small.elements:
        for b in small.elements:
            prod = laurent_multiply(calg, a, b)
            assert stabilizes(tower, maps, prod, DegreeBox((2, 2)))
            assert big_span.contains(box_coordinates(prod, big_box))


def test_stabilizer_action_is_faithful_on_window():
    # distinct stabilizer basis vectors act by independent transformations
    for fix in (quantum_torus_tower(2), hermitian_tower(1)):
        tower, field = fix["tower"], fix["field"]
        calg, maps = centroid_algebra(tower.base)
        box = DegreeBox((2, 2))
        stab = stabilizer_in_box(tower, box)
        window = tower.basis_in_box(box)
        image_box = DegreeBox((4, 4))
        solver = SpanSolver(
            field, image_box.volume() * tower.base.dim * len(window)
        )
        for u in stab.elements:
            action_flat = []
            for x in window:
                ux = centroid_action(maps, u, x)
                action_flat.extend(box_coordinates(ux, image_box))
            assert solver.add(tuple(action_flat)), (
                "stabilizer element acted dependently"
            )


def test_stabilizes_agrees_with_projection_defect_oracle():
    # membership by tower_membership against the zero projection defect,
    # on the kind candidates, the kind witnesses and a few lattice
    # monomials, at least one of which must fail to stabilize
    for name, entry in fixture_registry().items():
        tower, field = entry["tower"], entry["field"]
        m1, m2 = tower.moduli()
        maps = centroid_algebra(tower.base)[1]
        box = tower.default_box()
        witness = kind_classify(tower).witness
        if isinstance(witness, StrangeRingData):
            witness = (witness.u1, witness.u2, witness.u2_inv, witness.w)
        candidates = [scalar_monomial(field, (m1, j)) for j in range(m2)]
        extras = [scalar_monomial(field, d) for d in ((1, 0), (0, 1), (1, 1))]
        verdicts = []
        for u in [*candidates, *witness, *extras]:
            got = stabilizes(tower, maps, u, box)
            assert got == projection_stabilizes(tower, maps, u, box), name
            verdicts.append(got)
        assert all(verdicts[m2:m2 + len(witness)]), name
        assert not all(verdicts), name


def test_stabilizes_agrees_with_the_oracle_on_a_non_central_base():
    # one loop step of sl(2) + sl(2) by id + conj(diag(1, -1)): each
    # centroid projection acts on one summand, so c_s (x) z sends the
    # members of the other summand to zero, inside the tower, and its own
    # out of it (15 and 13 of the 28 members of the default window)
    field = CycloField(2)
    half = sl_algebra(2, field)
    d = ((field.one, field.zero), (field.zero, -field.one))  # d = d^-1
    flip = sl_matrix_auto(half, 2, lambda m: mat_mul(mat_mul(d, m), d))
    base = direct_sum(half, half)
    matrix = tuple(
        tuple(
            (field.one if i == j else field.zero) if i < 3 and j < 3
            else flip.matrix[i - 3][j - 3] if i >= 3 and j >= 3
            else field.zero
            for j in range(6)
        )
        for i in range(6)
    )
    tower = multiloop(base, [FiniteOrderAuto(base, matrix)], [field.zeta])
    maps = centroid_algebra(base)[1]
    box = tower.default_box()
    window = tower.basis_in_box(box)
    assert len(maps) == 2 and len(window) == 28
    inside = []
    for s in range(2):
        c = tuple(field.one if q == s else field.zero for q in range(2))
        u = LaurentElement.monomial(field, 1, 2, (1,), c)
        inside.append(sum(
            tower_membership(tower, centroid_action(maps, u, x))
            for x in window
        ))
        assert not stabilizes(tower, maps, u, box)
        assert not projection_stabilizes(tower, maps, u, box)
        u2 = LaurentElement.monomial(field, 1, 2, (2,), c)
        assert stabilizes(tower, maps, u2, box)
        assert projection_stabilizes(tower, maps, u2, box)
    assert sorted(inside) == [13, 15]


# -- centroid action: scalar maps without matrices ---------------------------


def random_laurent(rng, field, arity, dim, terms):
    support = {}
    for _ in range(terms):
        deg = tuple(rng.randint(-2, 2) for _ in range(arity))
        support[deg] = tuple(
            field.from_coeffs(
                [rng.randint(-3, 3) for _ in range(field.degree)]
            ) if rng.random() < 0.7 else field.zero
            for _ in range(dim)
        )
    return LaurentElement(field, arity, dim, support)


def scalar_map(field, dim, c):
    mp = LinearMap(field, [[c if i == j else field.zero for j in range(dim)]
                           for i in range(dim)])
    mp.scalar = c
    return mp


def central_mat2_maps():
    qt = quantum_torus_tower(2)
    field, maps = qt["field"], centroid_algebra(qt["base"])[1]
    assert [mp.scalar for mp in maps] == [field.one]
    return field, qt["base"].dim, maps


def swap_sum_maps():
    fix = swap_sum_fixture()
    maps = centroid_algebra(fix["algebra"])[1]
    assert [mp.scalar for mp in maps] == [None, None]
    return fix["field"], fix["algebra"].dim, maps


def mixed_scalar_maps():
    """2.Id and -Id marked scalar around a projection of sl2 + sl2, so one
    coefficient vector mixes both paths and scalar parts can cancel."""
    field, dim, (projection, _) = swap_sum_maps()
    maps = (
        scalar_map(field, dim, field.one * 2),
        projection,
        scalar_map(field, dim, -field.one),
    )
    return field, dim, maps


@pytest.mark.parametrize(
    "bases", [central_mat2_maps, swap_sum_maps, mixed_scalar_maps],
    ids=["central-mat2", "swap-sum", "mixed"],
)
def test_centroid_action_matches_matrix_oracle(bases):
    field, dim, maps = bases()
    rng = random.Random(20260214)
    for _ in range(25):
        u = random_laurent(rng, field, 2, len(maps), rng.randint(1, 3))
        x = random_laurent(rng, field, 2, dim, rng.randint(1, 4))
        assert centroid_action(maps, u, x) == (
            reference_centroid_action(maps, u, x)
        )
    x = random_laurent(rng, field, 2, dim, 3)
    if bases is mixed_scalar_maps:
        # 1 * (2 Id) + 2 * (-Id) folds to zero: only the projection acts
        u = LaurentElement.monomial(
            field, 2, 3, (1, 0), (field.one, field.one, field.one * 2)
        )
        assert centroid_action(maps, u, x) == centroid_action(
            maps, LaurentElement.monomial(
                field, 2, 3, (1, 0), (field.zero, field.one, field.zero)
            ), x,
        )
    zero_u = LaurentElement.zero(field, 2, len(maps))
    assert centroid_action(maps, zero_u, x).is_zero()


def count_centroid_matrix_applications(monkeypatch, maps):
    """Counts LinearMap.apply calls on a centroid basis map, the one way the
    centroid action reaches a map's matrix."""
    calls = []
    original = LinearMap.apply

    def counted(self, vec):
        if any(self is mp for mp in maps):
            calls.append(1)
        return original(self, vec)

    monkeypatch.setattr(LinearMap, "apply", counted)
    return calls


def test_stabilizer_on_central_base_applies_no_centroid_matrix(monkeypatch):
    qt = quantum_torus_tower(2)
    tower = qt["tower"]
    calls = count_centroid_matrix_applications(
        monkeypatch, centroid_algebra(tower.base)[1]
    )
    stab = stabilizer_in_box(tower, DegreeBox((2, 2)))
    assert stab.dim == 9  # z1^(2a) z2^(2b) with |2a|, |2b| <= 2
    assert calls == []


def test_stabilizer_on_swap_base_still_applies_matrices(monkeypatch):
    fix = swap_sum_fixture()
    alg, grading, field = fix["algebra"], fix["grading"], fix["field"]
    twist = ToralMonomialAuto(auto_from_grading(grading), (), (), field.one)
    tower = LoopTower(alg, [TowerStage(twist, grading.modulus, grading.zeta)])
    calls = count_centroid_matrix_applications(
        monkeypatch, centroid_algebra(alg)[1]
    )
    stab = stabilizer_in_box(tower, DegreeBox((2,)))
    assert stab.dim > 0
    assert calls


def test_box_growth_stability_quantum_torus():
    qt = quantum_torus_tower(2)
    small = DegreeBox((1, 1))
    at_d = restricted_stabilizer_span(qt["tower"], (2, 2), small)
    at_2d = restricted_stabilizer_span(qt["tower"], (4, 4), small)
    assert at_d == at_2d


# -- the period solver against the window oracle ----------------------------

# even boxes, uneven boxes, and boxes narrower than one period in a variable
_ORACLE_BOXES = ((1, 1), (2, 2), (1, 3), (3, 1), (0, 2), (2, 0))


def assert_matches_window_oracle(tower, box):
    got = stabilizer_in_box(tower, box)
    want = window_stabilizer(tower, box)
    assert got.elements == want.elements
    assert list(got.dims_by_degree.items()) == list(
        want.dims_by_degree.items()
    )


_REGISTRY = fixture_registry()


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_stabilizer_matches_the_window_oracle_on_the_registry(name):
    tower = _REGISTRY[name]["tower"]
    for radius in _ORACLE_BOXES:
        assert_matches_window_oracle(tower, DegreeBox(radius))


def swap_loop_tower():
    """The one-stage tower psi_check builds from the swap fixture."""
    fix = swap_sum_fixture()
    alg, grading, field = fix["algebra"], fix["grading"], fix["field"]
    twist = ToralMonomialAuto(auto_from_grading(grading), (), (), field.one)
    return LoopTower(alg, [TowerStage(twist, grading.modulus, grading.zeta)])


def test_stabilizer_matches_the_window_oracle_on_one_stage():
    tower = swap_loop_tower()
    assert tower.degree_periods == (2,)
    for radius in (0, 1, 2, 3):
        assert_matches_window_oracle(tower, DegreeBox((radius,)))


def test_stabilizer_matches_the_window_oracle_on_three_stages():
    field = CycloField(2)
    base = matrix_algebra(2, field)
    one, zero = field.one, field.zero
    autos = [
        conjugation_auto(base, u)
        for u in (((one, zero), (zero, -one)),
                  ((zero, one), (one, zero)),
                  ((zero, one), (-one, zero)))
    ]
    tower = multiloop(base, autos, [field.zeta] * 3)
    assert tower.degree_periods == (2, 2, 2)
    for radius in ((1, 1, 1), (2, 1, 0), (0, 1, 2), (2, 2, 1)):
        assert_matches_window_oracle(tower, DegreeBox(radius))


def test_stabilizer_matches_the_window_oracle_on_a_split_centroid():
    # mat(2) + mat(2): two central idempotents, so the centroid is
    # 2-dimensional and its maps are not scalars
    field = CycloField(2)
    half = matrix_algebra(2, field)
    base = direct_sum(half, half)
    assert len(centroid_algebra(base)[1]) == 2
    one, zero = field.one, field.zero
    d = conjugation_auto(half, ((one, zero), (zero, -one))).matrix
    n = half.dim
    both = tuple(
        tuple(d[i % n][j % n] if i // n == j // n else zero
              for j in range(2 * n))
        for i in range(2 * n)
    )
    swap = tuple(
        tuple(one if (i + n) % (2 * n) == j else zero for j in range(2 * n))
        for i in range(2 * n)
    )
    autos = [FiniteOrderAuto(base, swap), FiniteOrderAuto(base, both)]
    tower = multiloop(base, autos, [field.zeta] * 2)
    for radius in _ORACLE_BOXES:
        assert_matches_window_oracle(tower, DegreeBox(radius))


@pytest.mark.parametrize("build,same_last", [
    (lambda: quantum_torus_tower(2), True),
    (lambda: quantum_torus_tower(2), False),
    (lambda: hermitian_tower(1), False),
], ids=["multiloop-first-variable", "multiloop-last-variable", "hermitian"])
def test_stabilizer_refuses_a_member_of_two_degrees(build, same_last):
    # the period argument needs members homogeneous in every variable
    # (identity degree matrices) or in the outermost one; a window that
    # breaks it raises a coded error, also under python -O
    tower = build()["tower"]
    box = DegreeBox((1, 1))
    window = list(tower.basis_in_box(box))
    first = window[0].degrees()[0]
    other = next(
        x for x in window[1:]
        if (x.degrees()[0][-1] == first[-1]) == same_last
        and x.degrees()[0] != first
    )
    window[0] = window[0].add(other)
    tower._window_cache[box.radius] = window
    with pytest.raises(InvariantViolated) as err:
        stabilizer_in_box(tower, box)
    assert err.value.code == "invariant-violated"


def test_centroid_tower_matches_stabilizer_window():
    for fix in (quantum_torus_tower(2), hermitian_tower(1)):
        tower, field = fix["tower"], fix["field"]
        box = DegreeBox((4, 4))
        stab = stabilizer_in_box(tower, box)
        ctower, calg, maps = centroid_tower(tower)
        got = window_span(stab.elements, box, field, calg.dim)
        want = window_span(ctower.basis_in_box(box), box, field, calg.dim)
        assert got == want


# -- psi comparison ---------------------------------------------------------


def test_psi_check_on_swap_fixture():
    fix = swap_sum_fixture()
    out = psi_check(fix["algebra"], fix["grading"], DegreeBox((2,)))
    assert out["ok"] is True
    assert out["into_stabilizer"] and out["product_rule"] and out["span_match"]
    assert out["dims_stabilizer_by_degree"] == (
        out["dims_loop_of_centroid_by_degree"]
    )


def test_psi_check_needs_one_step_box():
    fix = swap_sum_fixture()
    with pytest.raises(LoomError):
        psi_check(fix["algebra"], fix["grading"], DegreeBox((2, 2)))


# -- untwisting -------------------------------------------------------------


def test_untwist_quantum_torus():
    qt = quantum_torus_tower(2)
    out = untwist_check(qt["tower"], DegreeBox((2, 2)))
    assert out["ok"] is True
    assert out["rank"] == 4
    assert sorted(out["sections"]) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert out["base_vectors_checked"] == 25 * 4
    assert out["stabilizer_dim"] == 9


def test_untwist_hermitian():
    herm = hermitian_tower(1)
    out = untwist_check(herm["tower"], DegreeBox((2, 2)))
    assert out["ok"] is True
    assert out["rank"] == 4


# -- kind dichotomy ---------------------------------------------------------


def test_kind_first_on_quantum_torus():
    qt = quantum_torus_tower(2)
    verdict = kind_classify(qt["tower"])
    assert verdict.kind == "First"
    det = verdict.details
    assert det["rho_prime"] == qt["field"].one
    assert det["t1_degree"] == (2, 0)
    assert det["t2_degree"] == (0, 2)
    assert det["isomorphism_advisory"] == FIRST_KIND_ISO_ADVISORY
    t1, t2 = verdict.witness
    assert t1.degrees() == [(2, 0)]
    assert t2.degrees() == [(0, 2)]


def test_kind_second_on_hermitian():
    herm = hermitian_tower(1)
    verdict = kind_classify(herm["tower"])
    assert verdict.kind == "Second"
    assert verdict.details["rho"] == herm["field"].one
    assert verdict.details["relation"] == "w^2 = (u1^2 - 4 rho) u2"
    data = verdict.witness
    assert isinstance(data, StrangeRingData)
    # the defining relation, re-verified here from the witnesses
    field = herm["field"]
    from loomalg.findim import matrix_algebra

    scalar = matrix_algebra(1, field)
    lhs = laurent_multiply(scalar, data.w, data.w)
    u1sq = laurent_multiply(scalar, data.u1, data.u1)
    four_rho = scalar_monomial(field, (0, 0)).scale(data.rho * 4)
    rhs = laurent_multiply(scalar, u1sq.sub(four_rho), data.u2)
    assert lhs == rhs


def test_kind_first_witnesses_span_stabilizer_window():
    qt = quantum_torus_tower(2)
    tower, field = qt["tower"], qt["field"]
    verdict = kind_classify(tower)
    t1, t2 = verdict.witness
    (d1,) = t1.degrees()
    (d2,) = t2.degrees()
    box = DegreeBox((4, 4))
    monos = []
    for a in range(-2, 3):
        for b in range(-2, 3):
            deg = (a * d1[0] + b * d2[0], a * d1[1] + b * d2[1])
            if box.contains(deg):
                monos.append(scalar_monomial(field, deg))
    stab = stabilizer_in_box(tower, box)
    assert window_span(monos, box, field, 1) == window_span(
        stab.elements, box, field, 1
    )


def test_kind_dichotomy_on_synthetics():
    for fix in synthetic_kind_towers():
        verdict = kind_classify(fix["tower"])
        assert verdict.kind == fix["expected_kind"], fix["name"]


def test_kind_requires_two_steps():
    qt = quantum_torus_tower(2)
    with pytest.raises(HypothesisNotMet):
        kind_classify(qt["tower"].parent)


def test_kind_requires_central_simple_base():
    fix = swap_sum_fixture()
    field = fix["field"]
    ident = FiniteOrderAuto.identity(fix["algebra"])
    twist = ToralMonomialAuto(ident, (), (), field.one)
    stages = [
        TowerStage(twist, 1, field.one),
        TowerStage(
            ToralMonomialAuto(
                FiniteOrderAuto.identity(fix["algebra"]),
                ((1,),), (0,), field.one
            ),
            1, field.one,
        ),
    ]
    tower = LoopTower(fix["algebra"], stages)
    with pytest.raises(HypothesisNotMet):
        kind_classify(tower)


# -- strange ring audit -----------------------------------------------------


def test_strange_ring_audit_on_hermitian_witnesses():
    herm = hermitian_tower(1)
    data = kind_classify(herm["tower"]).witness
    out = strange_ring_audit(data, 2)
    assert out["relation_ok"] is True
    assert out["independence"]["ok"] is True
    assert out["independence"]["rank"] == out["independence"]["expected"]
    assert out["norm_multiplicative"] is True


def test_strange_ring_audit_on_synthetic_rho_two():
    # direct construction with rho = 2 over the rationals: u1 = z1 + 2/z1,
    # u2 = z2^2, w = (z1 - 2/z1) z2; the relation w^2 = (u1^2 - 8) u2 holds
    rho = F1.from_rational(Fraction(2))
    u1 = scalar_monomial(F1, (1, 0)).add(
        scalar_monomial(F1, (-1, 0)).scale(rho)
    )
    u2 = scalar_monomial(F1, (0, 2))
    u2_inv = scalar_monomial(F1, (0, -2))
    w = scalar_monomial(F1, (1, 1)).sub(
        scalar_monomial(F1, (-1, 1)).scale(rho)
    )
    data = StrangeRingData(rho, u1, u2, u2_inv, w)
    out = strange_ring_audit(data, 2)
    assert out["relation_ok"] is True
    assert out["independence"]["ok"] is True
    assert out["norm_multiplicative"] is True


def test_strange_ring_audit_rejects_broken_relation():
    rho = F1.from_rational(Fraction(2))
    u1 = scalar_monomial(F1, (1, 0))
    u2 = scalar_monomial(F1, (0, 2))
    u2_inv = scalar_monomial(F1, (0, -2))
    w = scalar_monomial(F1, (1, 1))
    data = StrangeRingData(rho, u1, u2, u2_inv, w)
    with pytest.raises(LoomError):
        strange_ring_audit(data, 2)


# -- first kind isomorphism advisory ----------------------------------------


def test_first_kind_iso_hint_square_and_nonsquare():
    field = CycloField(12)
    z = field.zeta
    hit = first_kind_iso_hint(field, z**2, z**4)
    assert hit["square_in_field"] is True
    assert hit["square_root"] is not None
    assert hit["square_root"] * hit["square_root"] == hit["ratio"]
    assert hit["advisory"] == FIRST_KIND_ISO_ADVISORY
    miss = first_kind_iso_hint(field, z, field.one)
    assert miss["square_in_field"] is False
    assert miss["square_root"] is None


def test_first_kind_iso_hint_rejects_zero_divisor():
    field = CycloField(2)
    with pytest.raises(LoomError):
        first_kind_iso_hint(field, field.one, field.zero)
