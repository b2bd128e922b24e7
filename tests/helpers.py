"""Helpers shared between the unit suites and the acceptance module."""

from __future__ import annotations

from loomalg.centroid_loop import stabilizer_in_box, window_span
from loomalg.errors import DimensionMismatch
from loomalg.findim import StructureAlgebra
from loomalg.linalg import Subspace, mat_apply, vec_is_zero, zero_vector
from loomalg.loops import DegreeBox, LaurentElement, box_coordinates


def zero_algebra(n, field):
    """The n-dimensional algebra with every product zero."""
    z = tuple(zero_vector(field, n) for _ in range(n))
    return StructureAlgebra(field, tuple(z for _ in range(n)))


def peval(p, x):
    """Horner evaluation of a polynomial (constant term first) at x."""
    acc = x.field.zero
    for c in reversed(p):
        acc = acc * x + c
    return acc


def element_from_box_coordinates(field, base_dim, box: DegreeBox, flat):
    """Inverse of box_coordinates: the Laurent element with these
    coordinates over the box degrees."""
    support = {}
    degs = box.degrees()
    if len(flat) != len(degs) * base_dim:
        raise DimensionMismatch("flat vector does not match the box")
    for k, deg in enumerate(degs):
        vec = tuple(flat[k * base_dim : (k + 1) * base_dim])
        if not vec_is_zero(vec):
            support[deg] = vec
    return LaurentElement(field, box.arity, base_dim, support)


def reference_centroid_action(maps, u, x):
    """Oracle for centroid_action: u . x = sum over the terms c_s (x) z^d of
    u of c_s . mat_apply(maps[s].matrix, x) shifted by d, with every map
    applied as a matrix, whatever its `scalar`."""
    acc = LaurentElement.zero(x.field, x.arity, x.base_dim)
    for du, cu in u.support.items():
        for s, c in enumerate(cu):
            image = {
                dx: mat_apply(maps[s].matrix, vx)
                for dx, vx in x.support.items()
            }
            term = LaurentElement(x.field, x.arity, x.base_dim, image)
            acc = acc.add(term.shift(du).scale(c))
    return acc


def restricted_stabilizer_span(tower, big_radius, small_box: DegreeBox,
                               stab=None):
    """Stabilizer window at big_radius, cut down to the small window.

    Returns the subspace (in small-box coordinates) of stabilizer
    combinations whose support already fits inside the small box.  Two
    calls with different big radii become directly comparable, which is
    what the box-growth stability check needs.  A precomputed stabilizer
    for big_radius may be passed to avoid recomputation."""
    big_box = DegreeBox(big_radius)
    if stab is None:
        stab = stabilizer_in_box(tower, big_box)
    field = tower.field
    r = stab.elements[0].base_dim if stab.elements else 1
    big = window_span(stab.elements, big_box, field, r)
    degs = big_box.degrees()
    pos = {d: k for k, d in enumerate(degs)}
    inject = []
    for d in small_box.degrees():
        for s in range(r):
            v = [field.zero] * (len(degs) * r)
            v[pos[d] * r + s] = field.one
            inject.append(tuple(v))
    coord_sub = Subspace(field, len(degs) * r, inject)
    meet = big.intersect(coord_sub)
    small_vecs = []
    for vec in meet.basis:
        e = element_from_box_coordinates(field, r, big_box, vec)
        small_vecs.append(box_coordinates(e, small_box))
    return Subspace(field, small_box.volume() * r, small_vecs)
