"""Absolute type classifiers and the archetype registry."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import (
    cross_product_algebra,
    reference_find_cartan,
    reference_joint_eigenspaces,
    zero_algebra,
)
from loomalg import archetypes, findim
from loomalg.archetypes import (
    Archetype,
    RootSystemData,
    _classify_diagram,
    _find_cartan,
    algebra_type,
    associative_type,
    lie_split_type,
    registry_label_valid,
    tower_type,
)
from loomalg.errors import (
    HypothesisNotMet,
    NotLie,
    NotSimple,
    NotSplit,
    Undecided,
)
from loomalg.exactnum import CycloField
from loomalg.findim import (
    StructureAlgebra,
    change_basis,
    direct_sum,
    matrix_algebra,
    sl_algebra,
)
from loomalg.fixtures import (
    fixture_registry,
    hermitian_tower,
    quantum_torus_tower,
    quaternion_algebra,
)
from loomalg.linalg import Subspace, column_kernel


# -- registry ---------------------------------------------------------------


def test_registry_accepts_the_closed_label_set():
    good = [
        ("Lie", "A1"), ("Lie", "A7"), ("Lie", "B2"), ("Lie", "C3"),
        ("Lie", "D4"), ("Lie", "E6"), ("Lie", "E7"), ("Lie", "E8"),
        ("Lie", "F4"), ("Lie", "G2"),
        ("Associative", "Mat1"), ("Associative", "Mat12"),
        ("CommAssociative", "Unit"),
        ("Jordan", "anything"), ("Alternative", "Oct"),
    ]
    for variety, label in good:
        assert registry_label_valid(variety, label), (variety, label)


def test_registry_rejects_out_of_range_labels():
    bad = [
        ("Lie", "A0"), ("Lie", "B1"), ("Lie", "C2"), ("Lie", "D3"),
        ("Lie", "E9"), ("Lie", "X4"), ("Lie", "A"), ("Lie", "Ax"),
        ("Associative", "Mat0"), ("Associative", "Mat"),
        ("CommAssociative", "Field"),
        ("NoSuchVariety", "A1"),
    ]
    for variety, label in bad:
        assert not registry_label_valid(variety, label), (variety, label)


def test_archetype_constructor_validates():
    a = Archetype("Lie", "A1", provenance="by permanence", steps=2)
    rep = a.as_report()
    assert rep == {
        "variety": "Lie", "label": "A1",
        "provenance": "by permanence", "steps": 2,
    }
    with pytest.raises(ValueError):
        Archetype("Lie", "B1")
    with pytest.raises(ValueError):
        Archetype("Monoid", "A1")


# -- Lie classification -----------------------------------------------------


@pytest.mark.parametrize("n,order,label", [
    pytest.param(2, 4, "A1", id="2-A1"),
    pytest.param(3, 4, "A2", id="3-A2"),
    pytest.param(4, 4, "A3", id="4-A3"),
    # 24 dimensions: the largest typing in the suite
    pytest.param(5, 1, "A4", id="5-A4-over-Q"),
])
def test_special_linear_gets_a_series(n, order, label):
    field = CycloField(order)
    a = sl_algebra(n, field)
    arch = lie_split_type(a)
    assert arch.variety == "Lie"
    assert arch.label == label
    data = arch.data
    assert isinstance(data, RootSystemData)
    assert data.rank == n - 1
    assert a.dim == data.rank + len(data.roots)
    assert len(data.simple_roots) == data.rank


def test_a2_diagram_and_cartan_matrix():
    field = CycloField(1)
    arch = lie_split_type(sl_algebra(3, field))
    data = arch.data
    assert data.cartan_matrix in (
        ((2, -1), (-1, 2)),
    )
    assert data.diagram == ((0, 1, 1),)


def _changed_bases():
    """Three random change-of-basis images of sl(2) over Q(zeta_4)."""
    field = CycloField(4)
    a = sl_algebra(2, field)
    rng = random.Random(99)
    out = []
    for _ in range(3):
        while True:
            cols = [
                [field.from_rational(rng.randint(-2, 2)) for _ in range(a.dim)]
                for _ in range(a.dim)
            ]
            try:
                out.append(change_basis(a, cols))
                break
            except Exception:
                continue
    return out


def test_label_survives_change_of_basis():
    for b in _changed_bases():
        assert lie_split_type(b).label == "A1"


# (kind, size, field order); "basis" k is the k-th change of basis of sl(2)
_SEARCH_CASES = (
    [("sl", n, order) for n in (2, 3) for order in (1, 3, 4, 12)]
    + [("sl", 4, 1), ("sl", 4, 4), ("so", 3, 4), ("so", 3, 12)]
    + [("basis", k, 4) for k in range(3)]
)


def _search_algebra(kind, size, order):
    if kind == "sl":
        return sl_algebra(size, CycloField(order))
    if kind == "so":
        return cross_product_algebra(CycloField(order))
    return _changed_bases()[size]


@pytest.mark.parametrize("seed", [20260214, 7])
@pytest.mark.parametrize(
    "case", _SEARCH_CASES, ids=lambda c: f"{c[0]}{c[1]}-Q{c[2]}"
)
def test_cartan_search_matches_the_two_pass_oracle(case, seed):
    # one pass (filling the blocks accepts a candidate) against the old
    # two passes (split spectrum, then joint eigenspaces from scratch)
    a = _search_algebra(*case)
    family, blocks = _find_cartan(a, seed)
    old_family = reference_find_cartan(a, seed)
    old_blocks = reference_joint_eigenspaces(a, old_family)
    assert family == old_family
    assert [w for w, _ in blocks] == [w for w, _ in old_blocks]
    assert [Subspace(a.field, a.dim, vecs) for _, vecs in blocks] == [
        Subspace(a.field, a.dim, vecs) for _, vecs in old_blocks
    ]


@pytest.mark.parametrize(
    "n, order, solves", [(5, 1, 168), (4, 1, 79), (3, 4, 29)]
)
def test_split_blocks_stop_once_a_block_is_filled(n, order, solves,
                                                  monkeypatch):
    # a filled block tries no further roots, since eigenspaces for distinct
    # roots are independent: typing sl(n) makes this many kernel solves
    # (238, 111 and 36 when every root was tried on every block)
    calls = []

    def counted(*args):
        calls.append(args)
        return column_kernel(*args)

    monkeypatch.setattr(archetypes, "column_kernel", counted)
    a = sl_algebra(n, CycloField(order))
    assert lie_split_type(a).label == f"A{n - 1}"
    assert len(calls) == solves


def test_cross_product_splits_only_with_a_square_root_of_minus_one():
    with pytest.raises(NotSplit) as err:
        lie_split_type(cross_product_algebra(CycloField(1)))
    # the error says what was tried: the three zero draws lie in the empty
    # family's span and are skipped; every other draw has an irreducible
    # quadratic factor x^2 + c in its adjoint characteristic polynomial
    assert str(err.value) == (
        "no split toral extension found within the retry budget: "
        "78 candidates tried, 75 failed to fill the blocks; "
        "family size 0, centralizer dimension 3"
    )
    assert lie_split_type(cross_product_algebra(CycloField(4))).label == "A1"


def test_lie_classifier_rejects_non_lie_and_non_simple():
    field = CycloField(1)
    with pytest.raises(NotLie):
        lie_split_type(matrix_algebra(2, field))
    with pytest.raises(NotSimple):
        lie_split_type(direct_sum(sl_algebra(2, field), sl_algebra(2, field)))


def test_seed_determinism():
    field = CycloField(4)
    a = sl_algebra(3, field)
    first = lie_split_type(a, seed=7)
    second = lie_split_type(a, seed=7)
    assert first.as_report() == second.as_report()
    assert first.data.cartan_matrix == second.data.cartan_matrix


# -- Dynkin diagrams --------------------------------------------------------


def _vec(n, terms):
    out = [Fraction(0)] * n
    for i, c in terms.items():
        out[i] = Fraction(c)
    return out


def _chain(n, count):
    """e_k - e_(k+1) for k < count, in n coordinates."""
    return [_vec(n, {k: 1, k + 1: -1}) for k in range(count)]


def _simple_roots(label):
    """Bourbaki's simple roots of each registry type, as rational vectors."""
    family, r = label[0], int(label[1:])
    half = Fraction(1, 2)
    if family == "A":
        return _chain(r + 1, r)
    if family in "BCD":
        last = {"B": {r - 1: 1}, "C": {r - 1: 2},
                "D": {r - 2: 1, r - 1: 1}}[family]
        return _chain(r, r - 1) + [_vec(r, last)]
    if family == "E":
        e8 = [
            _vec(8, {0: half, 7: half, **{k: -half for k in range(1, 7)}}),
            _vec(8, {0: 1, 1: 1}),
        ] + [_vec(8, {k - 2: 1, k - 3: -1}) for k in range(3, 9)]
        return e8[:r]
    if family == "F":
        return [_vec(4, {1: 1, 2: -1}), _vec(4, {2: 1, 3: -1}),
                _vec(4, {3: 1}), _vec(4, {0: half, 1: -half, 2: -half,
                                          3: -half})]
    return [_vec(3, {0: 1, 1: -1}), _vec(3, {0: -2, 1: 1, 2: 1})]  # G2


def _cartan_matrix(roots):
    """Entry (i, j) is <alpha_j, alpha_i^vee> = 2 (alpha_j, alpha_i) /
    (alpha_i, alpha_i), as lie_split_type reads it off root strings."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    out = []
    for a in roots:
        row = [2 * dot(b, a) / dot(a, a) for b in roots]
        if any(x.denominator != 1 for x in row):
            raise ValueError("not a Cartan matrix")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


def _shuffled(matrix, rng):
    order = list(range(len(matrix)))
    rng.shuffle(order)
    return tuple(tuple(matrix[i][j] for j in order) for i in order)


@pytest.mark.parametrize("label", [
    "A1", "A3", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "E6", "E7", "E8",
    "F4", "G2",
])
def test_classify_diagram_names_every_registry_type(label):
    rng = random.Random(label)
    matrix = _cartan_matrix(_simple_roots(label))
    assert registry_label_valid("Lie", label)
    for _ in range(4):
        assert _classify_diagram(_shuffled(matrix, rng)) == label


def _simply_laced(r, edges):
    return tuple(
        tuple(2 if i == j else -int((i, j) in edges or (j, i) in edges)
              for j in range(r))
        for i in range(r)
    )


@pytest.mark.parametrize("matrix,message", [
    (_simply_laced(3, {(0, 1)}), "diagram is disconnected"),
    # affine A2: a triangle
    (_simply_laced(3, {(0, 1), (1, 2), (2, 0)}), "diagram has a cycle"),
    # affine D4: one node of degree 4
    (_simply_laced(5, {(0, 1), (0, 2), (0, 3), (0, 4)}),
     "diagram is not in the registry"),
    # affine E6: three branches of length 2
    (_simply_laced(7, {(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)}),
     "diagram is not in the registry"),
    # affine D5: two branch nodes
    (_simply_laced(6, {(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)}),
     "diagram is not in the registry"),
    # affine G2: a triple bond at rank 3
    (((2, -1, 0), (-1, 2, -1), (0, -3, 2)), "triple bond outside rank 2"),
    # affine C2: two double bonds
    (((2, -1, 0), (-2, 2, -2), (0, -1, 2)), "diagram is not in the registry"),
    # affine F4: an interior double bond at rank 5
    (((2, -1, 0, 0, 0), (-1, 2, -1, 0, 0), (0, -2, 2, -1, 0),
      (0, 0, -1, 2, -1), (0, 0, 0, -1, 2)),
     "interior double bond outside rank 4"),
], ids=["disconnected", "cycle", "degree-4", "E6-affine", "two-branches",
        "G2-affine", "two-doubles", "F4-affine"])
def test_classify_diagram_refuses_diagrams_outside_the_registry(matrix,
                                                                message):
    with pytest.raises(Undecided) as err:
        _classify_diagram(matrix)
    assert str(err.value) == message
    assert err.value.code == "undecided"


# -- associative classification ---------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_matrix_algebra_is_mat_n(n):
    field = CycloField(1)
    arch = associative_type(matrix_algebra(n, field))
    assert arch.variety == "Associative"
    assert arch.label == f"Mat{n}"


def test_quaternions_are_refused_as_not_split():
    with pytest.raises(NotSplit) as err:
        associative_type(quaternion_algebra())
    assert "central simple, not split" in str(err.value)


@pytest.mark.parametrize("order", [3, 6])
def test_quaternions_split_over_fields_with_sqrt_minus_three(order):
    # (i+j+k)^2 = -3, so 1+i+j+k has a split characteristic polynomial
    q = quaternion_algebra(CycloField(order))
    for seed in (0, 1, 2, 3, 20260214):
        arch = associative_type(q, seed=seed)
        assert (arch.variety, arch.label) == ("Associative", "Mat2")


def test_algebra_type_dispatches_on_the_variety():
    field = CycloField(1)
    got = [
        algebra_type(a)
        for a in (sl_algebra(2, field), matrix_algebra(2, field),
                  matrix_algebra(1, field))
    ]
    assert [(t.variety, t.label) for t in got] == [
        ("Lie", "A1"), ("Associative", "Mat2"), ("CommAssociative", "Unit")
    ]
    # e0 e1 = e0 and every other product zero: neither Lie nor associative
    zero = (field.zero, field.zero)
    e0 = (field.one, field.zero)
    odd = StructureAlgebra(field, [[zero, e0], [zero, zero]])
    with pytest.raises(HypothesisNotMet):
        algebra_type(odd)


def test_associative_classifier_checks_hypotheses():
    field = CycloField(1)
    with pytest.raises(HypothesisNotMet):
        associative_type(sl_algebra(2, field))  # not associative
    with pytest.raises(HypothesisNotMet):
        associative_type(
            direct_sum(matrix_algebra(2, field), matrix_algebra(2, field))
        )  # not simple


# -- towers by permanence ---------------------------------------------------


def test_tower_type_quantum_torus():
    qt = quantum_torus_tower(2)
    arch = tower_type(qt["tower"])
    assert arch.variety == "Associative"
    assert arch.label == "Mat2"
    assert arch.steps == 2
    assert arch.provenance == "by permanence"


def test_tower_type_hermitian():
    herm = hermitian_tower(1)
    arch = tower_type(herm["tower"])
    assert arch.variety == "Lie"
    assert arch.label == "A1"
    assert arch.steps == 2


def test_tower_type_everywhere_in_registry():
    # permanence: every fixture tower reports its base's archetype
    for name, fix in fixture_registry().items():
        tower = fix["tower"]
        arch = tower_type(tower)
        assert arch.steps == tower.n, name
        assert arch.provenance == "by permanence", name
        base = tower.base
        if name.startswith("synthetic"):
            assert (arch.variety, arch.label) == ("CommAssociative", "Unit")
        elif name.startswith("quantum-torus"):
            ell = fix["ell"]
            assert (arch.variety, arch.label) == ("Associative", f"Mat{ell}")
        else:
            ell = fix["ell"]
            assert (arch.variety, arch.label) == ("Lie", f"A{ell}")
        assert registry_label_valid(arch.variety, arch.label)


@pytest.mark.parametrize("build,check", [
    (lambda: hermitian_tower(1), "satisfies_jacobi"),
    (lambda: quantum_torus_tower(2), "_is_associative"),
], ids=["jacobi", "associativity"])
def test_tower_type_checks_each_identity_once(build, check, monkeypatch):
    # algebra_type and then lie_split_type or associative_type ask for the
    # same verdict; the base stores it
    tower = build()["tower"]
    calls = []
    original = getattr(findim, check)

    def counted(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(findim, check, counted)
    tower_type(tower)
    assert calls == [tower.base]
    tower_type(tower)
    assert calls == [tower.base]


def test_tower_type_needs_a_good_base():
    from loomalg.grading import FiniteOrderAuto
    from loomalg.loops import LoopTower, ToralMonomialAuto, TowerStage

    field = CycloField(2)
    dead = zero_algebra(2, field)
    twist = ToralMonomialAuto(FiniteOrderAuto.identity(dead), (), (),
                              field.one)
    tower = LoopTower(dead, [TowerStage(twist, 2, field.zeta)])
    with pytest.raises(HypothesisNotMet):
        tower_type(tower)
