"""The Laurent layer's sparse kernels against their dense oracles.

ToralMonomialAuto.apply, member_projection, tower_membership and
centroid_action read only nonzero coordinates and build their results from
sparse rows; tests/helpers.py keeps the dense versions they replaced.  Each
kernel is compared with its oracle on every registry tower and on a tower
whose centroid is not the scalars, on drawn elements and on sums whose
coefficients cancel, and every producer must leave a clean support."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    assert_clean_support,
    dense_centroid_action,
    dense_member_projection,
    dense_tower_membership,
    dense_twist_apply,
    swap_sum_tower,
    zero_algebra,
)
from loomalg import loops
from loomalg.centroid_loop import centroid_action, stabilizer_in_box
from loomalg.exactnum import CycloField
from loomalg.findim import centroid_algebra
from loomalg.fixtures import fixture_registry
from loomalg.grading import FiniteOrderAuto
from loomalg.loops import (
    DegreeBox,
    LaurentElement,
    LoopTower,
    canonical_form,
    laurent_multiply,
    member_projection,
    multiloop,
    tower_membership,
)

_REGISTRY = fixture_registry()
_TOWERS = {
    **{name: entry["tower"] for name, entry in _REGISTRY.items()},
    "swap-sum": swap_sum_tower(),
}
_NAMES = sorted(_TOWERS)
# drawn degrees stay in this box, so each draw meets a few period classes
_BOX = DegreeBox((2, 2))


@st.composite
def laurent_elements(draw, field, arity, base_dim, box=_BOX, max_terms=3):
    """Small elements of the box; coefficient vectors may hold zeros."""
    degrees = draw(st.lists(st.sampled_from(box.degrees()), min_size=0,
                            max_size=max_terms, unique=True))
    support = {}
    for deg in degrees:
        support[deg] = tuple(
            field.from_rational(draw(st.integers(-2, 2)))
            for _ in range(base_dim))
    return LaurentElement(field, arity, base_dim, support)


@st.composite
def tower_elements(draw):
    """(tower, element): a drawn element, a member (its projection), or a
    defect x - P(x), whose projection cancels to zero."""
    tower = _TOWERS[draw(st.sampled_from(_NAMES))]
    x = draw(laurent_elements(tower.field, tower.n, tower.base.dim))
    shape = draw(st.sampled_from(["drawn", "member", "defect"]))
    if shape == "member":
        x = member_projection(tower, x)
    elif shape == "defect":
        x = x.sub(member_projection(tower, x))
    return tower, x


@given(tower_elements())
def test_twist_apply_matches_the_dense_oracle(case):
    tower, x = case
    for stage in tower.stages:
        image = stage.twist.apply(x)
        assert image == dense_twist_apply(stage.twist, x)
        assert_clean_support(image, tower.n, tower.base.dim)


@given(tower_elements())
def test_membership_matches_the_dense_oracle(case):
    tower, x = case
    assert tower_membership(tower, x) == dense_tower_membership(tower, x)
    for p in range(tower.n):
        shifted = x.shift(tuple(int(q == p) for q in range(tower.n)))
        assert tower_membership(tower, shifted) == dense_tower_membership(
            tower, shifted)


@given(tower_elements())
def test_projection_matches_the_dense_oracle(case):
    tower, x = case
    projected = member_projection(tower, x)
    assert projected == dense_member_projection(tower, x)
    assert_clean_support(projected, tower.n, tower.base.dim)
    assert tower_membership(tower, projected)


@given(st.data())
def test_centroid_action_matches_the_dense_oracle(data):
    tower = _TOWERS[data.draw(st.sampled_from(_NAMES))]
    maps = centroid_algebra(tower.base)[1]
    field = tower.field
    u = data.draw(laurent_elements(field, tower.n, len(maps)))
    x = data.draw(laurent_elements(field, tower.n, tower.base.dim))
    acted = centroid_action(maps, u, x)
    assert acted == dense_centroid_action(maps, u, x)
    assert_clean_support(acted, tower.n, tower.base.dim)


@pytest.mark.parametrize("name", _NAMES)
def test_kernels_match_the_oracles_on_cancelling_sums(name):
    # (z^a - z^b) . (x z^b + x z^a) = x z^(2a) - x z^(2b): the two terms at
    # z^(a+b) cancel; and the defect y - P(y) of a non-member projects to 0
    tower = _TOWERS[name]
    field, n, d = tower.field, tower.n, tower.base.dim
    maps = centroid_algebra(tower.base)[1]
    a, b = (1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,)
    one = field.one
    unit = tuple(one for _ in maps)
    u = LaurentElement(field, n, len(maps), {
        a: unit, b: tuple(-c for c in unit)})
    vec = tuple(field.from_rational(k + 1) for k in range(d))
    x = LaurentElement(field, n, d, {a: vec, b: vec})
    acted = centroid_action(maps, u, x)
    assert acted == dense_centroid_action(maps, u, x)
    assert_clean_support(acted, n, d)
    if all(mp.scalar is not None for mp in maps):
        assert sorted(acted.support) == sorted(
            [tuple(2 * g for g in a), tuple(2 * g for g in b)])
    for y in tower.basis_in_box(tower.default_box())[:4] + [x]:
        defect = y.sub(member_projection(tower, y))
        assert member_projection(tower, defect).is_zero()
        assert dense_member_projection(tower, defect).is_zero()
        assert tower_membership(tower, defect) == dense_tower_membership(
            tower, defect)


@pytest.mark.parametrize("name", _NAMES)
def test_every_producer_leaves_a_clean_support(name):
    built = _TOWERS[name]
    # a fresh tower, so windows, projections and the stabilizer are built
    # here rather than read from another test's stores
    tower = LoopTower(built.base, built.stages)
    field, n, d = tower.field, tower.n, tower.base.dim
    box = DegreeBox(tuple(s.modulus for s in tower.stages))
    window = tower.basis_in_box(box)
    x = window[0].add(window[-1].shift((1,) * n))
    produced = [
        *window,
        *(stage.twist.apply(x) for stage in tower.stages),
        member_projection(tower, x),
        x.scale(field.from_rational(Fraction(-3, 2))),
        x.shift((2,) * n),
        x.add(window[1]),
        x.sub(x),
        laurent_multiply(tower.base, x, window[1]),
        *canonical_form(tower, x).values(),
    ]
    for y in produced:
        assert_clean_support(y, n, d)
    assert_clean_support(x.tensor_last(-1), n + 1, d)
    maps = centroid_algebra(tower.base)[1]
    stab = stabilizer_in_box(tower, DegreeBox((1,) * n))
    for u in stab.elements:
        assert_clean_support(u, n, len(maps))
        assert_clean_support(centroid_action(maps, u, x), n, d)
    # the projection memo holds nonzero terms at integer degrees
    for (rep, i), piece in tower._proj_memo.items():
        for deg, pairs in piece:
            assert len(deg) == n and all(type(g) is int for g in deg)
            assert pairs and all(c for _, c in pairs)
            assert all(0 <= k < d for k, _ in pairs)


def test_sparse_constructors_still_check_degrees():
    # the internal constructors skip zero tests, not the degree checks
    tower = _TOWERS["quantum-torus-2"]
    field, d = tower.field, tower.base.dim
    vec = tuple(field.one for _ in range(d))
    with pytest.raises(loops.DimensionMismatch):
        LaurentElement._from_rows(field, 2, d, {(1,): {0: field.one}})
    with pytest.raises(loops.DimensionMismatch):
        LaurentElement._from_nonzero(field, 2, d, {(1, 2, 3): vec})
    with pytest.raises(loops.DimensionMismatch):
        LaurentElement._from_nonzero(field, 2, d, {(1, 2): vec[1:]})
    x = LaurentElement._from_rows(field, 2, d, {
        (Fraction(4, 2), 0): {1: field.one, 0: field.zero},
        (0, 0): {0: field.one - field.one},
    })
    assert list(x.support) == [(2, 0)] and type(next(iter(x.support))[0]) is int
    assert x.support[(2, 0)] == (field.zero, field.one) + (field.zero,) * (d - 2)


def test_membership_sees_a_coordinate_the_twist_never_touches():
    # theta: e0 -> e2, e1 -> e0 - e2, e2 -> e0 + e1 has order 3 and is an
    # automorphism of the zero-product algebra.  theta(e0 + e1) = e0: the
    # columns read touch e0 and e2 only, and the image agrees with e0 + e1
    # at e0, but e0 + e1 is no fixed vector, since its e1 entry is lost
    field = CycloField(3)
    one, zero = field.one, field.zero
    theta = FiniteOrderAuto(zero_algebra(3, field), (
        (zero, one, one), (zero, zero, one), (one, -one, zero)))
    assert theta.period == 3
    tower = multiloop(theta.algebra, [theta], [field.zeta])
    x = LaurentElement(field, 1, 3, {(0,): (one, one, zero)})
    assert tower.stages[0].twist.apply(x).support == {(0,): (one, zero, zero)}
    assert not dense_tower_membership(tower, x)
    assert not tower_membership(tower, x)
    fixed = LaurentElement(field, 1, 3, {(0,): (2 * one, one, one)})
    assert tower_membership(tower, fixed) and dense_tower_membership(
        tower, fixed)
