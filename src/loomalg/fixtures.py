"""Worked fixtures: named algebras, gradings, and towers.

These are the concrete objects the test suite and the example scripts run
against.  Everything is built from first principles with exact arithmetic;
nothing here is mocked or approximated.
"""

from __future__ import annotations

from .exactnum import CycloField, primitive_root
from .findim import (
    StructureAlgebra,
    direct_sum,
    matrix_algebra,
    sl_algebra,
    sl_basis,
)
from .grading import FiniteOrderAuto, grading_from_auto
from .linalg import SpanSolver, unit_vector, zero_vector
from .loops import (
    LaurentElement,
    LoopTower,
    ToralMonomialAuto,
    TowerStage,
    multiloop,
)


def matrix_inverse(field, m):
    """Inverse of a square matrix: column k holds the coordinates of the
    k-th unit vector over the columns of m."""
    n = len(m)
    solver = SpanSolver(field, n)
    for col in zip(*m):
        solver.add(col)
    if solver.dim < n:
        raise ValueError("matrix is singular")
    return tuple(zip(*(solver.express(unit_vector(field, n, k))
                       for k in range(n))))


def conjugation_auto(alg: StructureAlgebra, u) -> FiniteOrderAuto:
    """The automorphism X -> u X u^-1 of a full matrix algebra."""
    field = alg.field
    n = len(u)
    if alg.dim != n * n:
        raise ValueError("algebra dimension does not match the matrix size")
    uinv = matrix_inverse(field, u)
    cols = []
    for a in range(n):
        for b in range(n):
            vec = [field.zero] * (n * n)
            for r in range(n):
                for c in range(n):
                    val = u[r][a] * uinv[b][c]
                    if val:
                        vec[r * n + c] = val
            cols.append(tuple(vec))
    matrix = tuple(zip(*cols))
    return FiniteOrderAuto(alg, matrix)


def sl_matrix_auto(alg: StructureAlgebra, n: int, f) -> FiniteOrderAuto:
    """Automorphism of a traceless matrix algebra induced by a matrix-level
    map f; alg must be sl_algebra(n, field)."""
    field = alg.field
    flat, _ = sl_basis(n, field)
    solver = SpanSolver(field, n * n)
    for v in flat:
        solver.add(v)
    cols = []
    for v in flat:
        img = f(tuple(v[r * n:(r + 1) * n] for r in range(n)))
        coords = solver.express(tuple(x for row in img for x in row))
        if coords is None:
            raise ValueError("map does not preserve the traceless space")
        cols.append(coords)
    return FiniteOrderAuto(alg, tuple(zip(*cols)))


def neg_antitranspose(field, m):
    """a -> -J a^T J with J the antidiagonal unit matrix."""
    n = len(m)
    return tuple(
        tuple(-m[n - 1 - c][n - 1 - r] for c in range(n)) for r in range(n)
    )


def quantum_torus_tower(ell: int):
    """2-step multiloop of the full matrix algebra whose loop algebra is a
    quantum torus: x2 x1 = zeta x1 x2 for the Weyl-pair generators."""
    if ell < 2:
        raise ValueError("need ell >= 2")
    field = CycloField(ell)
    zeta = primitive_root(ell, field)
    base = matrix_algebra(ell, field)
    d = tuple(
        tuple(zeta**a if a == b else field.zero for b in range(ell))
        for a in range(ell)
    )
    p = tuple(
        tuple(field.one if a == (b + 1) % ell else field.zero
              for b in range(ell))
        for a in range(ell)
    )
    auto_d = conjugation_auto(base, d)
    auto_p = conjugation_auto(base, p)
    tower = multiloop(base, [auto_d, auto_p], [zeta, zeta])
    d_vec = tuple(
        zeta**a if a == b else field.zero
        for a in range(ell) for b in range(ell)
    )
    p_vec = tuple(
        field.one if a == (b + 1) % ell else field.zero
        for a in range(ell) for b in range(ell)
    )
    x1 = LaurentElement.monomial(field, 2, ell * ell, (1, 0), p_vec)
    x2 = LaurentElement.monomial(field, 2, ell * ell, (0, ell - 1), d_vec)
    return {
        "name": f"quantum-torus-{ell}",
        "ell": ell,
        "field": field,
        "zeta": zeta,
        "base": base,
        "tower": tower,
        "x1": x1,
        "x2": x2,
    }


def hermitian_tower(ell: int):
    """2-step tower over sl(ell+1): first stage loops the antidiagonal
    involution, second stage inverts the first variable.  Its centroid is of
    the second kind with rho = 1."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    field = CycloField(2)
    n = ell + 1
    base = sl_algebra(n, field)
    sigma1 = sl_matrix_auto(base, n, lambda m: neg_antitranspose(field, m))
    twist1 = ToralMonomialAuto(sigma1, (), (), field.one)
    twist2 = ToralMonomialAuto(
        FiniteOrderAuto.identity(base), ((-1,),), (0,), field.one
    )
    stages = [
        TowerStage(twist1, 2, field.zeta),
        TowerStage(twist2, 2, field.zeta),
    ]
    tower = LoopTower(base, stages)
    return {
        "name": f"hermitian-{ell}",
        "ell": ell,
        "field": field,
        "base": base,
        "tower": tower,
    }


def swap_sum_fixture():
    """sl2 x sl2 with the factor-swap automorphism and its mod-2 grading."""
    field = CycloField(2)
    half = sl_algebra(2, field)
    alg = direct_sum(half, half)
    d = alg.dim
    h = d // 2
    cols = []
    for c in range(d):
        vec = list(zero_vector(field, d))
        vec[(c + h) % d] = field.one
        cols.append(tuple(vec))
    matrix = tuple(zip(*cols))
    auto = FiniteOrderAuto(alg, matrix)
    grading = grading_from_auto(auto, field.zeta)
    return {
        "name": "swap-sum",
        "field": field,
        "algebra": alg,
        "auto": auto,
        "grading": grading,
    }


_SYNTHETIC_CONFIGS = (
    ("synthetic-a1", 1, 2, 1, 1, 2),
    ("synthetic-a2", 2, 2, 1, 1, 2),
    ("synthetic-a3", 1, 4, 1, 1, 4),
    ("synthetic-a4", 1, 4, 1, 2, 4),
    ("synthetic-a5", 2, 4, 1, 1, 2),
    ("synthetic-b1", 1, 2, -1, 0, 1),
    ("synthetic-b2", 1, 2, -1, 1, 2),
    ("synthetic-b3", 1, 2, -1, 1, 4),
    ("synthetic-b4", 2, 4, -1, 1, 3),
    ("synthetic-b5", 1, 4, -1, 1, 12),
)


def synthetic_kind_towers():
    """Ten 2-step towers over a one-dimensional base, half with the identity
    degree action (first kind) and half with inversion (second kind)."""
    field = CycloField(12)
    base = matrix_algebra(1, field)
    out = []
    for name, m1, m2, msign, c1, r in _SYNTHETIC_CONFIGS:
        ident = FiniteOrderAuto.identity(base)
        stage1 = TowerStage(
            ToralMonomialAuto(ident, (), (), field.one),
            m1, primitive_root(m1, field),
        )
        stage2 = TowerStage(
            ToralMonomialAuto(
                ident, ((msign,),), (c1,), primitive_root(r, field)
            ),
            m2, primitive_root(m2, field),
        )
        tower = LoopTower(base, [stage1, stage2])
        out.append({
            "name": name,
            "field": field,
            "base": base,
            "tower": tower,
            "m1": m1,
            "m2": m2,
            "msign": msign,
            "c1": c1,
            "r": r,
            "expected_kind": "First" if msign == 1 else "Second",
        })
    return out


def quaternion_algebra(field=None) -> StructureAlgebra:
    """Hamilton quaternions: central simple of dimension 4, split only if
    -1 is a sum of two squares in the field."""
    field = field or CycloField(1)
    one, zero = field.one, field.zero

    def vec(a, b, c, d):
        return (a, b, c, d)

    e, i, j, k = (
        vec(one, zero, zero, zero),
        vec(zero, one, zero, zero),
        vec(zero, zero, one, zero),
        vec(zero, zero, zero, one),
    )
    neg = lambda v: tuple(-x for x in v)
    table = {
        (0, 0): e, (0, 1): i, (0, 2): j, (0, 3): k,
        (1, 0): i, (1, 1): neg(e), (1, 2): k, (1, 3): neg(j),
        (2, 0): j, (2, 1): neg(k), (2, 2): neg(e), (2, 3): i,
        (3, 0): k, (3, 1): j, (3, 2): neg(i), (3, 3): neg(e),
    }
    constants = tuple(
        tuple(table[(a, b)] for b in range(4)) for a in range(4)
    )
    return StructureAlgebra(
        field, constants, unit=e, labels=["1", "i", "j", "k"]
    )


def fixture_registry():
    """All named 2-step towers, keyed by name."""
    entries = [
        quantum_torus_tower(2),
        quantum_torus_tower(3),
        hermitian_tower(1),
        hermitian_tower(2),
    ]
    entries.extend(synthetic_kind_towers())
    return {e["name"]: e for e in entries}
