"""Iterated loop towers: window bases, canonical forms, membership routes."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    column_ideal_algebra,
    cross_product_algebra,
    dense_laurent_multiply,
    element_from_box_coordinates,
    intersect,
    ordered_pair_products,
    recursive_membership,
    recursive_projection,
    scaled_apply,
    sliced_apply,
    swap_sum_tower,
)
from loomalg import loops
from loomalg.centroid_loop import centroid_tower
from loomalg.errors import DimensionMismatch, InvalidGrading, InvariantViolated
from loomalg.exactnum import CycloField, CycloNumber, primitive_root
from loomalg.findim import matrix_algebra, sl_algebra
from loomalg.fixtures import (
    conjugation_auto,
    fixture_registry,
    hermitian_tower,
    matrix_inverse,
    neg_antitranspose,
    quantum_torus_tower,
    sl_matrix_auto,
    synthetic_kind_towers,
)
from loomalg.grading import FiniteOrderAuto
from loomalg.linalg import (
    SparseEchelon,
    Subspace,
    kernel_basis,
    mat_mul,
    vec_is_zero,
)
from loomalg.loops import (
    DegreeBox,
    LaurentElement,
    LoopTower,
    ToralMonomialAuto,
    TowerStage,
    box_coordinates,
    canonical_form,
    canonical_reconstruct,
    free_basis_check,
    inherited_flags,
    laurent_multiply,
    laurent_str,
    member_projection,
    multiloop,
    tower_membership,
)

SEED = 20260214


def rand_member(rng, tower, box, span=3):
    basis = tower.basis_in_box(box)
    acc = LaurentElement.zero(tower.field, tower.n, tower.base.dim)
    for b in basis:
        c = rng.randint(-span, span)
        if c:
            acc = acc.add(b.scale(tower.field.from_rational(Fraction(c))))
    return acc


def rand_window_element(rng, field, arity, base_dim, box, span=3):
    support = {}
    for deg in box.degrees():
        if rng.random() < 0.25:
            vec = tuple(
                field.from_rational(Fraction(rng.randint(-span, span)))
                for _ in range(base_dim)
            )
            if not vec_is_zero(vec):
                support[deg] = vec
    return LaurentElement(field, arity, base_dim, support)


# -- DegreeBox --------------------------------------------------------------


def test_degree_box_geometry():
    box = DegreeBox((2, 1))
    assert box.arity == 2
    assert box.volume() == 5 * 3
    assert box.contains((2, -1)) and not box.contains((3, 0))
    assert box.prefix() == DegreeBox((2,))
    assert box.halved() == DegreeBox((1, 0))
    assert len(box.degrees()) == box.volume()
    # iteration order is deterministic
    assert box.degrees() == DegreeBox((2, 1)).degrees()


# -- LaurentElement ---------------------------------------------------------


def test_laurent_element_algebra():
    field = CycloField(4)
    x = LaurentElement.monomial(field, 2, 2, (1, 0), (field.one, field.zero))
    y = LaurentElement.monomial(field, 2, 2, (0, -1), (field.zero, field.one))
    s = x.add(y)
    assert s.coefficient((1, 0)) == (field.one, field.zero)
    assert s.sub(y) == x
    assert x.scale(field.zero).is_zero()
    shifted = x.shift((2, 3))
    assert shifted.degrees() == [(3, 3)]
    assert x.tensor_last(5).degrees() == [(1, 0, 5)]


def test_laurent_element_equality_and_hash():
    field = CycloField(2)
    a = LaurentElement.monomial(field, 1, 1, (3,), (field.one,))
    b = LaurentElement(field, 1, 1, {(3,): (field.one,)})
    assert a == b and hash(a) == hash(b)
    assert a != a.scale(-field.one)


def test_laurent_multiply_is_degreewise_convolution():
    rng = random.Random(SEED)
    field = CycloField(2)
    base = matrix_algebra(2, field)
    for _ in range(10):
        d1 = (rng.randint(-2, 2), rng.randint(-2, 2))
        d2 = (rng.randint(-2, 2), rng.randint(-2, 2))
        i, j = rng.randrange(4), rng.randrange(4)
        x = LaurentElement.monomial(field, 2, 4, d1, base.basis_vector(i))
        y = LaurentElement.monomial(field, 2, 4, d2, base.basis_vector(j))
        prod = laurent_multiply(base, x, y)
        want_vec = base.multiply(base.basis_vector(i), base.basis_vector(j))
        if vec_is_zero(want_vec):
            assert prod.is_zero()
        else:
            deg = tuple(a + b for a, b in zip(d1, d2))
            assert prod.degrees() == [deg]
            assert prod.coefficient(deg) == want_vec


F4 = CycloField(4)
_LAURENT_BASES = {
    "sl(2)": sl_algebra(2, F4),
    "sl(3)": sl_algebra(3, F4),
    "mat(2)": matrix_algebra(2, F4),
    "cross-product": cross_product_algebra(F4),
    "column-ideal": column_ideal_algebra(F4),
}


@st.composite
def laurent_factors(draw):
    """A base over Q(zeta_4) and two Laurent elements of arity 1 or 2 with
    mostly zero coefficients; sometimes both factors are the same."""
    base = _LAURENT_BASES[draw(st.sampled_from(sorted(_LAURENT_BASES)))]
    arity = draw(st.integers(min_value=1, max_value=2))
    entry = st.one_of(
        st.just(0), st.just(0), st.integers(min_value=-2, max_value=2),
        st.integers(min_value=0, max_value=3).map(lambda k: F4.zeta ** k),
    )
    degree = st.tuples(*[st.integers(min_value=-2, max_value=2)] * arity)

    def element():
        support = draw(st.dictionaries(
            degree,
            st.tuples(*[entry] * base.dim).map(
                lambda v: tuple(F4.zero + c for c in v)),
            max_size=4,
        ))
        return LaurentElement(F4, arity, base.dim, support)

    x = element()
    return base, x, x if draw(st.booleans()) else element()


@given(laurent_factors())
def test_laurent_multiply_matches_the_dense_oracle(factors):
    # over a Lie base x . x cancels across degrees, and a cancelled degree
    # must leave no zero vector in the support
    base, x, y = factors
    prod = laurent_multiply(base, x, y)
    assert prod == dense_laurent_multiply(base, x, y)
    assert not any(vec_is_zero(v) for v in prod.support.values())


def test_box_coordinate_round_trip():
    rng = random.Random(SEED + 1)
    field = CycloField(4)
    box = DegreeBox((1, 1))
    x = rand_window_element(rng, field, 2, 3, box)
    flat = box_coordinates(x, box)
    back = element_from_box_coordinates(field, 3, box, flat)
    assert back == x


def test_laurent_str_forms():
    field = CycloField(2)
    base = matrix_algebra(2, field)
    x = LaurentElement.monomial(field, 2, 4, (2, 1), base.basis_vector(0))
    s = laurent_str(base, x)
    assert "E11" in s and "z1^2" in s and "z2" in s
    assert laurent_str(base, LaurentElement.zero(field, 2, 4)) == "0"


# -- ToralMonomialAuto ------------------------------------------------------


def test_toral_auto_degree_action_and_period():
    field = CycloField(2)
    base = matrix_algebra(1, field)
    ident = FiniteOrderAuto.identity(base)
    # z -> -z^-1 style twist: inversion with character (-1)^degree
    twist = ToralMonomialAuto(ident, ((-1,),), (1,), field.zeta)
    assert twist.degree_image((3,)) == (-3,)
    x = LaurentElement.monomial(field, 1, 1, (3,), (field.one,))
    tx = twist.apply(x)
    assert tx.degrees() == [(-3,)]
    # character (-1)^3 on degree 3
    assert tx.coefficient((-3,)) == (-field.one,)
    assert twist.apply(tx) == x  # period 2


def test_toral_auto_rejects_non_unimodular_matrix():
    field = CycloField(2)
    base = matrix_algebra(1, field)
    ident = FiniteOrderAuto.identity(base)
    with pytest.raises(Exception):
        ToralMonomialAuto(ident, ((2,),), (0,), field.one)


# -- tower construction and membership --------------------------------------


def test_multiloop_requires_matching_root_orders():
    qt = quantum_torus_tower(2)
    field = qt["field"]
    base = qt["base"]
    d_auto = FiniteOrderAuto(base, qt["tower"].stages[0].twist.theta.matrix)
    with pytest.raises(InvalidGrading):
        multiloop(base, [d_auto], [field.one])


def test_multiloop_rejects_noncommuting_autos():
    field = CycloField(4)
    base = matrix_algebra(2, field)
    u = ((field.zero, field.one), (field.one, field.zero))
    v = ((field.one, field.zero), (field.zero, field.zeta))
    a1, a2 = conjugation_auto(base, u), conjugation_auto(base, v)
    with pytest.raises(InvalidGrading) as err:
        multiloop(base, [a1, a2], [field.zeta**2, field.zeta])
    assert str(err.value) == (
        "stage 2 twist does not stabilize the previous stage "
        "(checked on box (4,))"
    )


def _named_tower(name):
    if name == "quantum-torus-2":
        return quantum_torus_tower(2)["tower"]
    if name == "hermitian-1":
        return hermitian_tower(1)["tower"]
    return next(
        s["tower"] for s in synthetic_kind_towers() if s["name"] == name
    )


@pytest.mark.parametrize(
    "name", ["quantum-torus-2", "hermitian-1", "synthetic-b4"]
)
def test_membership_is_linear_and_basis_is_exact(name):
    # hermitian-1 inverts a variable, and synthetic-b4 also twists by a
    # nontrivial character, so their twists move degrees
    rng = random.Random(SEED + 2)
    tower = _named_tower(name)
    box = DegreeBox((2, 2))
    basis = tower.basis_in_box(box)
    # every random combination of window basis vectors is a member
    for _ in range(10):
        x = rand_member(rng, tower, box)
        assert tower_membership(tower, x)
    # basis vectors are linearly independent and exactly span the members:
    # a window element outside their span must fail membership, and the
    # projection of a window element (a member, still inside the symmetric
    # box) must lie in their span
    span = Subspace(
        tower.field, box.volume() * tower.base.dim,
        [box_coordinates(b, box) for b in basis],
    )
    assert span.dim == len(basis)
    probes = 0
    while probes < 10:
        y = rand_window_element(rng, tower.field, 2, tower.base.dim, box)
        if y.is_zero():
            continue
        inside = span.contains(box_coordinates(y, box))
        assert tower_membership(tower, y) == inside
        assert span.contains(
            box_coordinates(member_projection(tower, y), box)
        )
        probes += 1


@pytest.mark.parametrize(
    "name", ["quantum-torus-2", "hermitian-1", "synthetic-b4"]
)
def test_projection_and_membership_invert_no_roots(name, monkeypatch):
    # zeta^k for k < 0 equals zeta^(k mod order); a negative power would
    # run the extended-Euclid inverse for every negative degree
    tower = _named_tower(name)
    calls = []
    original = CycloNumber.inverse

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CycloNumber, "inverse", counted)
    field, d = tower.field, tower.base.dim
    ones = (field.one,) * d
    for deg in DegreeBox((3, 3)).degrees():
        y = LaurentElement.monomial(field, 2, d, deg, ones)
        p = member_projection(tower, y)
        assert tower_membership(tower, p)
        assert tower_membership(tower, y) == (p == y)
    assert calls == []


def test_two_route_multiloop_membership():
    # route one: tower_membership; route two: simultaneous eigenspaces of
    # the defining automorphisms, computed independently with kernel solves
    rng = random.Random(SEED + 3)
    qt = quantum_torus_tower(2)
    tower, field, base = qt["tower"], qt["field"], qt["base"]
    zeta = qt["zeta"]
    autos = [s.twist.theta for s in tower.stages]
    n = base.dim

    def eigenspace(auto, lam):
        rows = [
            tuple(
                auto.matrix[r][c] - (lam if r == c else field.zero)
                for c in range(n)
            )
            for r in range(n)
        ]
        return Subspace(field, n, kernel_basis(rows, n, field))

    joint = {}
    for r1 in range(2):
        for r2 in range(2):
            joint[(r1, r2)] = intersect(
                eigenspace(autos[0], zeta**r1), eigenspace(autos[1], zeta**r2)
            )
    checked = 0
    while checked < 100:
        deg = (rng.randint(-3, 3), rng.randint(-3, 3))
        cls = (deg[0] % 2, deg[1] % 2)
        if rng.random() < 0.5:
            # draw from the matching eigenspace: both routes must accept
            space = joint[cls]
            vec = [field.zero] * n
            for b in space.basis:
                c = field.from_rational(Fraction(rng.randint(-2, 2)))
                vec = [a + c * x for a, x in zip(vec, b)]
            if vec_is_zero(vec):
                continue
            x = LaurentElement.monomial(field, 2, n, deg, tuple(vec))
            assert tower_membership(tower, x)
        else:
            # random vector: membership must equal eigenspace membership
            vec = tuple(
                field.from_rational(Fraction(rng.randint(-2, 2)))
                for _ in range(n)
            )
            if vec_is_zero(vec):
                continue
            x = LaurentElement.monomial(field, 2, n, deg, vec)
            assert tower_membership(tower, x) == joint[cls].contains(vec)
        checked += 1


def test_products_of_members_are_members():
    qt = quantum_torus_tower(2)
    tower, base = qt["tower"], qt["base"]
    box = DegreeBox((1, 1))
    basis = tower.basis_in_box(box)
    for a in basis:
        for b in basis:
            prod = laurent_multiply(base, a, b)
            assert tower_membership(tower, prod)


def test_quantum_relation_of_the_torus():
    for ell in (2, 3):
        qt = quantum_torus_tower(ell)
        base, zeta = qt["base"], qt["zeta"]
        x1, x2 = qt["x1"], qt["x2"]
        lhs = laurent_multiply(base, x2, x1)
        rhs = laurent_multiply(base, x1, x2).scale(zeta)
        assert lhs == rhs


# -- canonical form ---------------------------------------------------------


CANONICAL_TOWERS = {
    "quantum-torus-2": lambda: quantum_torus_tower(2),
    # inversion degree matrix on the second stage
    "hermitian-1": lambda: hermitian_tower(1),
    # inversion degree matrix and a nontrivial character
    "synthetic-b4": lambda: next(
        e for e in synthetic_kind_towers() if e["name"] == "synthetic-b4"
    ),
}


@pytest.mark.parametrize("name", list(CANONICAL_TOWERS))
def test_canonical_form_reconstructs_members_and_non_members(name):
    rng = random.Random(SEED + 4)
    tower = CANONICAL_TOWERS[name]()["tower"]
    box = DegreeBox((2, 2))
    for _ in range(15):
        y = rand_window_element(rng, tower.field, 2, tower.base.dim, box)
        fam = canonical_form(tower, y)
        assert set(fam) == set(tower.index_classes())
        assert canonical_reconstruct(tower, fam) == y
        for piece in fam.values():
            if not piece.is_zero():
                assert tower_membership(tower, piece)


def test_canonical_form_is_unique_on_families():
    rng = random.Random(SEED + 5)
    herm = hermitian_tower(1)
    tower = herm["tower"]
    box = DegreeBox((2, 2))
    for _ in range(8):
        fam = {
            idx: rand_member(rng, tower, box, span=2)
            for idx in tower.index_classes()
        }
        y = canonical_reconstruct(tower, fam)
        redo = canonical_form(tower, y)
        # shifting by the index class must land back on the same family
        rebuilt = canonical_reconstruct(tower, redo)
        assert rebuilt == y
        again = canonical_form(tower, rebuilt)
        assert all(again[idx] == redo[idx] for idx in redo)


def test_canonical_form_memoization_is_transparent():
    qt = quantum_torus_tower(2)
    tower = qt["tower"]
    field = tower.field
    y = LaurentElement.monomial(
        field, 2, 4, (1, 1),
        tuple(field.one for _ in range(4)),
    )
    first = canonical_form(tower, y)
    second = canonical_form(tower, y)
    assert all(first[idx] == second[idx] for idx in first)


def test_canonical_form_raises_on_a_non_member_piece(monkeypatch):
    # membership is checked on an independent route; a piece it rejects
    # means the tower's twists were validated wrongly
    tower = quantum_torus_tower(2)["tower"]
    field = tower.field
    y = LaurentElement.monomial(
        field, 2, 4, (1, 1),
        tuple(field.one for _ in range(4)),
    )
    monkeypatch.setattr(loops, "tower_membership", lambda tower, x: False)
    with pytest.raises(InvariantViolated) as err:
        canonical_form(tower, y)
    assert err.value.code == "invariant-violated"


# -- stage periods ----------------------------------------------------------


def test_stage_twist_period_on_previous_stage():
    # hermitian stage 2 inverts z1: exact period 2 on the stage-1 window
    herm = hermitian_tower(1)
    tower = herm["tower"]
    stage2 = tower.stages[1]
    window = tower.parent.basis_in_box(DegreeBox((2,)))
    assert any(stage2.twist.apply(b) != b for b in window)
    for b in window:
        assert stage2.twist.apply(stage2.twist.apply(b)) == b
    assert tower.actual_periods[1] == 2


def test_synthetic_stage_periods_match_validation():
    for fix in synthetic_kind_towers():
        tower = fix["tower"]
        assert len(tower.actual_periods) == tower.n
        for stage, period in zip(tower.stages, tower.actual_periods):
            assert stage.modulus % period == 0


# -- parent chain and default box -------------------------------------------

_REGISTRY = fixture_registry()


# -- degree periods ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_degree_periods_shift_the_tower_onto_itself(name):
    tower = _REGISTRY[name]["tower"]
    assert tower.degree_periods[-1] == tower.stages[-1].modulus
    identity = all(
        s.twist.m_matrix == tuple(
            tuple(int(i == j) for j in range(s.twist.arity))
            for i in range(s.twist.arity)
        )
        for s in tower.stages
    )
    assert (None not in tower.degree_periods) == identity
    window = tower.basis_in_box(tower.default_box())
    for p, period in enumerate(tower.degree_periods):
        if period is None:
            continue
        assert period % tower.stages[p].modulus == 0
        for sign in (1, -1):
            offset = tuple(sign * period if q == p else 0
                           for q in range(tower.n))
            for x in window:
                assert tower_membership(tower, x.shift(offset))


def test_first_kind_period_exceeds_the_modulus_when_the_character_does():
    # synthetic-a3: m1 = 1, and the second character zeta_4^(j1) is
    # trivial on z1^t only for 4 | t, so t_1 = 4 and shifting by m1 fails
    fix = _REGISTRY["synthetic-a3"]
    tower = fix["tower"]
    assert (fix["m1"], fix["c1"], fix["r"]) == (1, 1, 4)
    assert tower.degree_periods == (4, 4)
    window = tower.basis_in_box(tower.default_box())
    assert not all(
        tower_membership(tower, x.shift((fix["m1"], 0))) for x in window
    )
    assert _REGISTRY["synthetic-a4"]["tower"].degree_periods == (2, 4)
    assert _REGISTRY["quantum-torus-3"]["tower"].degree_periods == (3, 3)
    assert _REGISTRY["hermitian-2"]["tower"].degree_periods == (None, 2)


@pytest.mark.parametrize(
    "name,p",
    [(name, p) for name, fix in _REGISTRY.items()
     for p in range(fix["tower"].n + 1)],
    ids=str,
)
def test_prefix_matches_directly_built_tower(name, p):
    # the parent at depth p is the tower built from the first p stages
    tower = _REGISTRY[name]["tower"]
    pre = tower
    for _ in range(tower.n - p):
        pre = pre.parent
    assert pre.n == p and pre.stages == tower.stages[:p]
    direct = LoopTower(tower.base, tower.stages[:p])
    assert pre.actual_periods == direct.actual_periods
    assert pre.validation_boxes == direct.validation_boxes
    box = direct.default_box()

    def window(t):
        vecs = [box_coordinates(b, box) for b in t.basis_in_box(box)]
        return Subspace(t.field, box.volume() * t.base.dim, vecs)

    assert window(pre) == window(direct)


def test_each_stage_is_validated_once_by_the_tower_adding_it(monkeypatch):
    validated = []
    check = LoopTower._validate_last_stage

    def counted(self):
        validated.append(self.n)
        return check(self)

    monkeypatch.setattr(LoopTower, "_validate_last_stage", counted)
    qt = quantum_torus_tower(2)
    base, zeta = qt["base"], qt["zeta"]
    autos = [s.twist.theta for s in qt["tower"].stages]
    validated.clear()
    tower = multiloop(base, [*autos, FiniteOrderAuto.identity(base)],
                      [zeta, zeta, base.field.one])
    assert validated == [1, 2, 3]
    validated.clear()
    chain = []
    node = tower
    while node is not None:
        chain.append((node.n, node.validation_boxes))
        node = node.parent
    assert validated == []
    assert chain == [
        (3, [(), (4,), (4, 4)]), (2, [(), (4,)]), (1, [()]), (0, []),
    ]


def _three_stage_multiloop():
    field = CycloField(2)
    base = matrix_algebra(2, field)
    one, zero = field.one, field.zero
    autos = [
        conjugation_auto(base, u)
        for u in (((one, zero), (zero, -one)),
                  ((zero, one), (one, zero)),
                  ((zero, one), (-one, zero)))
    ]
    return multiloop(base, autos, [field.zeta] * 3)


_ORACLE_TOWERS = {
    **{name: (lambda name=name: _REGISTRY[name]["tower"])
       for name in _REGISTRY},
    "three-stage-mat2": _three_stage_multiloop,
    "swap-sum": swap_sum_tower,
}


@pytest.mark.parametrize("name", sorted(_ORACLE_TOWERS))
def test_stage_loops_match_the_recursive_oracles(name):
    # tower_membership and member_projection loop over the stages, and a
    # stage twist acts on longer elements with the later variables riding
    # along; the oracles slice by the outer exponents and recurse
    rng = random.Random(SEED + 6)
    tower = _ORACLE_TOWERS[name]()
    box = tower.default_box()
    members = [rand_member(rng, tower, box) for _ in range(3)]
    others = []
    while len(others) < 3:
        y = rand_window_element(rng, tower.field, tower.n, tower.base.dim,
                                box)
        if not recursive_membership(tower, y):
            others.append(y)
    for x in members + others:
        assert tower_membership(tower, x) == (x in members)
        assert recursive_membership(tower, x) == (x in members)
        assert member_projection(tower, x) == recursive_projection(tower, x)
        for stage in tower.stages:
            assert stage.twist.arity < tower.n
            assert stage.twist.apply(x) == sliced_apply(stage.twist, x)
    # a member shifted by z_p may fail at stage p alone (in a multiloop
    # it does whenever m_p > 1), so every stage's test must run
    for p in range(tower.n):
        shifted = members[0].shift(tuple(int(q == p) for q in range(tower.n)))
        assert tower_membership(tower, shifted) == recursive_membership(
            tower, shifted)


@pytest.mark.parametrize("name", sorted(_ORACLE_TOWERS))
def test_root_power_tables_match_powers_of_the_root(name):
    # stages and twists read zeta^t from a table, and a twist skips the
    # scaling where its character is 1 (on every multiloop stage); the
    # oracle raises zeta to each power and always scales
    rng = random.Random(SEED + 7)
    tower = _ORACLE_TOWERS[name]()
    box = tower.default_box()
    elements = [rand_member(rng, tower, box) for _ in range(2)] + [
        rand_window_element(rng, tower.field, tower.n, tower.base.dim, box)
        for _ in range(2)
    ]
    for stage in tower.stages:
        twist = stage.twist
        assert stage.powers == tuple(
            stage.zeta**t for t in range(stage.modulus))
        assert twist.powers == tuple(
            twist.zeta**t for t in range(twist.root_order))
        for x in elements:
            assert twist.apply(x) == scaled_apply(twist, x)
            for deg in x.degrees():
                e = sum(c * d for c, d in zip(twist.c_vector, deg))
                assert twist.character_value(deg) == twist.zeta ** (
                    e % twist.root_order)


@pytest.mark.parametrize("name", sorted(_ORACLE_TOWERS))
def test_projection_runs_once_per_class_and_coordinate(name, monkeypatch):
    # the projection commutes with the shifts by the degree periods, so a
    # fresh tower projects one monomial per (class, coordinate) and shifts
    # the cached piece onto every other degree of the class
    built = _ORACLE_TOWERS[name]()
    tower = LoopTower(built.base, built.stages)
    periods = tower.degree_periods
    calls = []
    project_once = loops._project_once

    def counted(*args):
        calls.append(args)
        return project_once(*args)

    monkeypatch.setattr(loops, "_project_once", counted)
    box = DegreeBox(tuple(
        m if period is None else period
        for m, period in zip(tower.moduli(), periods)
    ))
    met = set()
    for g in box.degrees():
        for i in range(tower.base.dim):
            y = LaurentElement.monomial(tower.field, tower.n, tower.base.dim,
                                        g, tower.base.basis_vector(i))
            assert member_projection(tower, y) == recursive_projection(
                tower, y)
            met.add((tuple(a if period is None else a % period
                           for a, period in zip(g, periods)), i))
    assert len(calls) == len(met)


@pytest.mark.parametrize("name,degree,origin,shift", [
    ("quantum-torus-3", (-4, 5), (0, 0), (-6, 3)),
    ("quantum-torus-3", (-1, -3), (0, 0), (-3, -3)),
    ("quantum-torus-3", (-5, 7), (-2, -2), (-3, 9)),
    ("quantum-torus-3", (0, -2), (-2, -2), (0, 0)),
    ("synthetic-a3", (-1, 9), (0, 0), (-4, 8)),
    ("hermitian-2", (5, -3), (0, 0), (0, -4)),
    ("hermitian-2", (-7, 3), (-2, -2), (0, 4)),
])
def test_class_shift_on_hand_picked_degrees(name, degree, origin, shift):
    # negative exponents floor to the start of their class; a variable
    # with no period (the inner one of hermitian-2) is never shifted
    tower = _REGISTRY[name]["tower"]
    assert tower.class_shift(degree, origin) == shift


@pytest.mark.parametrize("name", ["quantum-torus-3", "synthetic-a4",
                                  "hermitian-2"])
def test_class_shift_lands_in_the_first_class_window(name):
    tower = _REGISTRY[name]["tower"]
    periods = tower.degree_periods
    for origin in [(0, 0), (-2, -3), (3, -1)]:
        for degree in DegreeBox((9, 9)).degrees():
            shift = tower.class_shift(degree, origin)
            for g, o, s, period in zip(degree, origin, shift, periods):
                if period is None:
                    assert s == 0
                else:
                    assert s % period == 0 and o <= g - s < o + period


def test_stage_twist_refuses_a_shorter_element():
    tower = _three_stage_multiloop()
    twist = tower.stages[2].twist
    x = LaurentElement.monomial(tower.field, 1, tower.base.dim, (1,),
                                tower.base.basis_vector(0))
    with pytest.raises(DimensionMismatch):
        twist.apply(x)


def test_default_box_doubles_moduli():
    qt = quantum_torus_tower(3)
    assert qt["tower"].default_box() == DegreeBox((6, 6))


# -- free module sections ---------------------------------------------------


def test_unit_sections_act_as_shifts():
    # free_basis_check rebuilds members with canonical_reconstruct: over a
    # two-sided unit, x . (1 (x) z^i) is the shift z^i . x
    qt = quantum_torus_tower(2)
    ctower = centroid_tower(qt["tower"])[0]
    for tower in (qt["tower"], ctower):
        base = tower.base
        for x in tower.basis_in_box(DegreeBox((2, 2))):
            for idx in tower.index_classes():
                section = LaurentElement.monomial(
                    tower.field, tower.n, base.dim, idx, base.unit
                )
                assert laurent_multiply(base, x, section) == x.shift(idx)


def test_free_basis_check_on_quantum_torus():
    qt = quantum_torus_tower(2)
    tower = qt["tower"]
    out = free_basis_check(tower, DegreeBox((2, 2)))
    assert out["ok"] is True
    assert out["rank"] == 4
    assert sorted(out["sections"]) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert out["checked"] > 0


# -- inherited flags --------------------------------------------------------


def test_inherited_flags_structure_and_agreement():
    qt = quantum_torus_tower(2)
    flags = inherited_flags(qt["tower"])
    base, loop = flags["base"], flags["loop"]
    for name in ("associative", "commutative", "unital", "perfect"):
        assert loop[name]["value"] == base[name]["value"]
    for name in ("associative", "commutative", "unital"):
        assert loop[name]["source"] == "derived-by-theorem"
    assert loop["nonzero"]["value"] is True
    assert loop["nonzero"]["source"] == "verified-in-box"
    # the base is perfect, so the window certificate upgrades the flag
    assert loop["perfect"]["source"] == "verified-in-box"
    assert loop["prime"]["value"] is True


def _certificate_tower(name):
    if name == "cross-product":
        # so(3) is anticommutative; diag(1, -1, -1) is a rotation of order 2
        field = CycloField(2)
        base = cross_product_algebra(field)
        one, zero = field.one, field.zero
        rotation = FiniteOrderAuto(base, [
            [one, zero, zero], [zero, -one, zero], [zero, zero, -one],
        ])
        return multiloop(base, [rotation], [field.zeta])
    if name == "column-ideal":
        # e1 t^2 is only e1 t . e0 t, and e0 t precedes e1 t in the window,
        # so unordered pairs would miss it
        field = CycloField(1)
        base = column_ideal_algebra(field)
        return multiloop(base, [FiniteOrderAuto.identity(base)], [field.one])
    return _REGISTRY[name]["tower"]


_CERTIFICATE_TOWERS = sorted(_REGISTRY) + ["column-ideal", "cross-product"]


def _row_slice(tower, row):
    """The slice of a certificate or oracle row, None for an empty row."""
    for deg, _ in row:
        return tower.degree_slice(deg)
    return None


def _certificate_rows(tower, dropped=None):
    """inherited_flags of the tower, and every row its perfectness
    certificate sent to an echelon.  A row of the slice `dropped` reaches
    the echelon emptied, as if its product vanished."""
    rows = []

    class RecordingEchelon(SparseEchelon):
        def add_row(self, row):
            if dropped is not None and _row_slice(tower, row) == dropped:
                row = {}
            rows.append(dict(row))
            return super().add_row(row)

    # the certificate's echelons are the only ones that loops builds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loops, "SparseEchelon", RecordingEchelon)
        return inherited_flags(tower), rows


def _echelon(rows):
    ech = SparseEchelon()
    for row in rows:
        ech.add_row(row)
    return ech


def _inner_window(tower):
    box = DegreeBox(tuple(s.modulus for s in tower.stages)).halved()
    return tower.basis_in_box(box)


def _covers_inner_window(tower, rows):
    ech = _echelon(rows)
    return all(not ech.reduce_vector(y.sparse_items())
               for y in _inner_window(tower))


def _check_certificate_against_oracle(tower, oracle_rows, dropped=None):
    """The certificate's rows lie in the oracle's span, the inner window
    lies in the span of its rows exactly when it lies in the oracle's, and
    the flag is certified exactly then.  With `dropped`, the rows of that
    slice are taken out of both.  Returns the oracle's verdict."""
    flags, rows = _certificate_rows(tower, dropped)
    if dropped is not None:
        oracle_rows = [row for row in oracle_rows
                       if _row_slice(tower, row) != dropped]
    oracle = _echelon(oracle_rows)
    assert not any(oracle.reduce_vector(row) for row in rows)
    covered = _covers_inner_window(tower, oracle_rows)
    assert _covers_inner_window(tower, rows) is covered
    source = "verified-in-box" if covered else "derived-by-theorem"
    assert flags["loop"]["perfect"] == {"value": True, "source": source}
    return covered


@pytest.mark.parametrize("name", _CERTIFICATE_TOWERS)
def test_perfectness_certificate_agrees_with_the_ordered_pair_oracle(name):
    # the registry has Lie (hermitian), commutative (synthetic) and neither
    # (quantum-torus) bases; the cross product is anticommutative, and the
    # column ideal is a base where the order of a pair matters
    tower = _certificate_tower(name)
    assert _check_certificate_against_oracle(
        tower, ordered_pair_products(tower)) is True


@pytest.mark.parametrize("name, count", [
    ("hermitian-2", 55),
    ("hermitian-1", 25),
    ("cross-product", 7),
    ("synthetic-b1", 1),
    ("quantum-torus-2", 9),
    ("column-ideal", 3),
    ("quantum-torus-3", 9),
    *((name, 1) for name in _CERTIFICATE_TOWERS
      if name.startswith("synthetic-") and name != "synthetic-b1"),
])
def test_perfectness_certificate_row_counts(name, count):
    # a pair is formed only when its slice holds inner members, and a slice
    # takes no pair once they are covered; a row whose product vanishes is
    # sent too, and the echelon drops it
    _, rows = _certificate_rows(_certificate_tower(name))
    assert len(rows) == count


@pytest.mark.parametrize("name", ["hermitian-1", "quantum-torus-2",
                                  "column-ideal"])
def test_perfectness_certificate_fails_on_an_uncoverable_slice(name):
    # without the products of the zero slice, neither the certificate nor
    # the oracle spans the inner members there, so the flag stays derived
    tower = _certificate_tower(name)
    zero = tower.degree_slice((0,) * tower.n)
    assert _check_certificate_against_oracle(
        tower, ordered_pair_products(tower), dropped=zero) is False


def test_perfectness_certificate_refuses_a_non_homogeneous_member(
        monkeypatch):
    # a window member spread over two slices would put one pair's row in
    # two slices; the certificate raises, as the stabilizer does
    tower = _certificate_tower("quantum-torus-2")
    window = tower.basis_in_box(DegreeBox((2, 2)))
    mixed = window[0].add(window[0].shift((1, 0)))
    monkeypatch.setattr(tower, "basis_in_box", lambda box: [mixed, *window])
    with pytest.raises(InvariantViolated, match="not homogeneous"):
        inherited_flags(tower)


# -- drawn towers -------------------------------------------------------------


def _monomial_matrices(n, order):
    """The conjugators of the drawn multiloops, as (permutation, exponents):
    u e_j = zeta_N^(exponents[j]) e_(permutation[j]).  Diagonal ones (the
    first exponent 0, since scalars conjugate trivially) and permutation
    matrices whose order divides N, so that Q(zeta_N) has the root each
    stage needs."""
    out = [(tuple(range(n)), (0, *rest))
           for rest in iter_product(range(order), repeat=n - 1)]
    for perm in permutations(range(n)):
        power, period = perm, 1
        while power != tuple(range(n)):
            power, period = tuple(perm[j] for j in power), period + 1
        if period > 1 and order % period == 0:
            out.append((perm, (0,) * n))
    return out


def _conjugations_commute(u, v, order):
    # u v = c v u for a scalar c: the permutations commute and the
    # exponents of u v and v u differ by one constant
    (p, a), (q, b) = u, v
    if any(p[q[j]] != q[p[j]] for j in range(len(p))):
        return False
    return len({(b[j] + a[q[j]] - a[j] - b[p[j]]) % order
                for j in range(len(p))}) == 1


def _conjugation(base, u, field):
    perm, exps = u
    n = len(perm)
    matrix = [[field.zero] * n for _ in range(n)]
    for j in range(n):
        matrix[perm[j]][j] = field.zeta ** exps[j]
    return conjugation_auto(base, matrix)


@st.composite
def matrix_multiloops(draw):
    """Two-stage multiloops of mat(2) or mat(3) over Q(zeta_N), N <= 6, by
    commuting conjugations, each by a diagonal matrix of N-th roots of
    unity or by a permutation matrix."""
    n = draw(st.integers(min_value=2, max_value=3))
    order = draw(st.integers(min_value=1, max_value=6))
    field = CycloField(order)
    base = matrix_algebra(n, field)
    candidates = _monomial_matrices(n, order)
    first = draw(st.sampled_from(candidates))
    second = draw(st.sampled_from(
        [v for v in candidates if _conjugations_commute(first, v, order)]))
    autos = [_conjugation(base, u, field) for u in (first, second)]
    return multiloop(base, autos,
                     [primitive_root(a.period, field) for a in autos])


@st.composite
def sl2_inversion_towers(draw):
    """Two-stage towers over sl(2) over Q(zeta_N), N in 2, 4, 6: the loop
    of a diagonal conjugation or of the antidiagonal involution, then a
    stage that inverts the first variable with a drawn character.  Its
    coefficient map must invert the first automorphism: the identity, when
    that is an involution, or the conjugation by the antidiagonal matrix,
    which inverts every diagonal conjugation and commutes with the
    antidiagonal involution."""
    order = draw(st.sampled_from((2, 4, 6)))
    field = CycloField(order)
    base = sl_algebra(2, field)
    one, zero = field.one, field.zero

    def conj(u):
        u_inv = matrix_inverse(field, u)
        return sl_matrix_auto(base, 2,
                              lambda m: mat_mul(mat_mul(u, m), u_inv))

    swap = ((zero, one), (one, zero))
    if draw(st.booleans()):
        first = sl_matrix_auto(base, 2,
                               lambda m: neg_antitranspose(field, m))
    else:
        e = draw(st.integers(min_value=0, max_value=order - 1))
        first = conj(((field.zeta ** e, zero), (zero, one)))
    if first.period <= 2 and draw(st.booleans()):
        theta = FiniteOrderAuto.identity(base)
    else:
        theta = conj(swap)
    c = draw(st.integers(min_value=0, max_value=1))
    root = primitive_root(draw(st.sampled_from(
        [r for r in range(1, order + 1) if order % r == 0])), field)
    modulus = draw(st.sampled_from([m for m in (2, 4) if order % m == 0]))
    stages = [
        TowerStage(ToralMonomialAuto(first, (), (), one), first.period,
                   primitive_root(first.period, field)),
        TowerStage(ToralMonomialAuto(theta, ((-1,),), (c,), root), modulus,
                   primitive_root(modulus, field)),
    ]
    return LoopTower(base, stages)


def _check_drawn_certificate(tower, data):
    # the verdict agrees with the oracle's, and again with the products of
    # one drawn slice of the inner window taken out of both
    oracle_rows = ordered_pair_products(tower)
    assert _check_certificate_against_oracle(tower, oracle_rows) is True
    inner = _inner_window(tower)
    if inner:
        y = data.draw(st.sampled_from(inner))
        dropped = tower.degree_slice(tower.member_degree(y))
        assert _check_certificate_against_oracle(
            tower, oracle_rows, dropped=dropped) is False


@settings(max_examples=6)
@given(matrix_multiloops(), st.data())
def test_drawn_multiloop_certificate_agrees_with_the_oracle(tower, data):
    _check_drawn_certificate(tower, data)


@settings(max_examples=6)
@given(sl2_inversion_towers(), st.data())
def test_drawn_inversion_certificate_agrees_with_the_oracle(tower, data):
    _check_drawn_certificate(tower, data)


def test_ordered_pair_oracle_does_not_use_the_product_routine(monkeypatch):
    # the certificate's rows are checked against ordered_pair_products, so
    # the oracle forms its products without StructureAlgebra.add_product
    tower = _certificate_tower("column-ideal")
    expected = ordered_pair_products(tower)

    def refuse(*args):
        raise AssertionError("the oracle reached the product routine")

    monkeypatch.setattr(type(tower.base), "add_product", refuse)
    assert ordered_pair_products(tower) == expected
