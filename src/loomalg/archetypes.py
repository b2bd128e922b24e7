"""Absolute type detection: archetype registry and classifiers.

An archetype names the isomorphism class an algebra acquires after scalars
are extended to a big field: Dynkin labels for split simple Lie algebras,
Mat_l for split central simple associative algebras, Unit for the ground
field.  Towers inherit their base's archetype (permanence), with the number
of loop steps carried along as a second invariant.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import polyfactor
from .errors import HypothesisNotMet, NotLie, NotSimple, NotSplit, Undecided
from .exactnum import CycloNumber
from .findim import (
    StructureAlgebra,
    is_associative,
    is_central,
    is_commutative,
    is_lie,
    is_pfgc_findim,
    is_simple,
)
from .linalg import (
    SpanSolver,
    Subspace,
    charpoly,
    column_kernel,
    kernel_basis,
    vec_add,
    vec_is_zero,
    vec_scale,
    zero_vector,
)
from .loops import LoopTower

_SEED = 20260214


# ---------------------------------------------------------------------------
# registry

EXCEPTIONAL_LABELS = ("E6", "E7", "E8", "F4", "G2")

# Varieties with label-only registration carry no classifier; they exist so
# the registry states the full taxonomy.
LABEL_ONLY_VARIETIES = ("Jordan", "Alternative")

VARIETIES = ("Lie", "Associative", "CommAssociative") + LABEL_ONLY_VARIETIES


def registry_label_valid(variety: str, label: str) -> bool:
    """Membership in the closed label registry."""
    if variety == "Lie":
        if label in EXCEPTIONAL_LABELS:
            return True
        if len(label) < 2 or label[0] not in "ABCD":
            return False
        if not label[1:].isdigit():
            return False
        rank = int(label[1:])
        floor = {"A": 1, "B": 2, "C": 3, "D": 4}[label[0]]
        return rank >= floor
    if variety == "Associative":
        return label.startswith("Mat") and label[3:].isdigit() and int(label[3:]) >= 1
    if variety == "CommAssociative":
        return label == "Unit"
    if variety in LABEL_ONLY_VARIETIES:
        return True
    return False


class Archetype:
    """A registry entry: variety plus label, with optional provenance."""

    __slots__ = ("variety", "label", "provenance", "data", "steps")

    def __init__(self, variety, label, provenance=None, data=None, steps=None):
        if variety not in VARIETIES:
            raise ValueError(f"unknown variety {variety!r}")
        if not registry_label_valid(variety, label):
            raise ValueError(f"label {label!r} is not in the {variety} registry")
        self.variety = variety
        self.label = label
        self.provenance = provenance
        self.data = data
        self.steps = steps

    def as_report(self) -> dict:
        out = {"variety": self.variety, "label": self.label}
        if self.provenance:
            out["provenance"] = self.provenance
        if self.steps is not None:
            out["steps"] = self.steps
        return out

    def __repr__(self):
        extra = f" steps {self.steps}" if self.steps is not None else ""
        return f"<Archetype {self.variety} {self.label}{extra}>"


class RootSystemData:
    """Split Cartan subalgebra with its root decomposition.

    roots are weight tuples (values on the Cartan basis); diagram is the
    edge list (i, j, bonds) over simple-root indices."""

    __slots__ = ("cartan", "roots", "simple_roots", "cartan_matrix", "diagram")

    def __init__(self, cartan, roots, simple_roots, cartan_matrix, diagram):
        self.cartan = cartan
        self.roots = list(roots)
        self.simple_roots = list(simple_roots)
        self.cartan_matrix = tuple(tuple(r) for r in cartan_matrix)
        self.diagram = tuple(diagram)

    @property
    def rank(self) -> int:
        return len(self.cartan_matrix)

    def __repr__(self):
        return f"<RootSystemData rank {self.rank}, {len(self.roots)} roots>"


# ---------------------------------------------------------------------------
# split-diagonalizability helpers

def _rational_value(c: CycloNumber):
    if any(c.coeffs[1:]):
        return None
    return c.coeffs[0]


def _split_blocks(op, blocks, field):
    """Eigenspaces of op inside each block, sorted by weight; None unless
    they fill every block.

    op is the LinearMap ad z for a z that commutes with the family whose
    joint eigenspaces the blocks are, so op preserves each block and its
    eigenvalues there are roots of its characteristic polynomial.  The
    blocks fill the space, so filling every block is the same as op being
    diagonalizable with all eigenvalues in the field.  Distinct roots have
    independent eigenspaces, so a filled block takes no further roots."""
    zero = field.zero
    lams = [lam for lam, _ in
            polyfactor.roots_in_field(charpoly(op.matrix, field))]
    refined = []
    for weight, block in blocks:
        images = [
            {j: x for j, x in enumerate(op.apply(b)) if x} for b in block
        ]
        supports = [[(j, x) for j, x in enumerate(b) if x] for b in block]
        filled = 0
        for lam in lams:
            if filled == len(block):
                break
            columns = []
            for img, support in zip(images, supports):
                col = dict(img)  # (op - lam) b
                if lam:
                    for j, x in support:
                        col[j] = col[j] - lam * x if j in col else -(lam * x)
                columns.append(col)
            vecs = []
            for sol in column_kernel(range(len(block)), columns, field):
                # sum c b_i over the nonzero entries of each b_i
                acc = {}
                for i, c in sol.items():
                    for j, x in supports[i]:
                        cur = acc.get(j)
                        acc[j] = c * x if cur is None else cur + c * x
                vecs.append(tuple(acc.get(j, zero) for j in range(op.dim)))
            if vecs:
                refined.append((weight + (lam,), vecs))
                filled += len(vecs)
        if filled != len(block):
            return None
    return sorted(refined, key=lambda t: _weight_key(t[0]))


# ---------------------------------------------------------------------------
# Lie classification

def _find_cartan(a: StructureAlgebra, seed: int):
    """Seeded search for a split toral family and its joint eigenspaces.

    Returns (family, blocks), with blocks the (weight, vectors) pairs of
    the joint eigenspaces of the adjoint family, sorted by weight.  Each
    candidate comes from the centralizer of the family; it joins the
    family when its adjoint eigenspaces fill every block (_split_blocks),
    and its refined blocks replace the old ones.  The search ends when the
    centralizer is the span of the family."""
    field = a.field
    n = a.dim
    rng = random.Random(seed)
    family, rows = [], []
    blocks = [((), a.basis())]
    span = SpanSolver(field, n)
    budget = 6 * n + 60
    while True:
        cent = kernel_basis(rows, n, field)
        if len(cent) == len(family):
            return family, blocks
        candidates = _centralizer_candidates(cent, field, rng)
        unfilled = 0
        for tried, z in enumerate(candidates, start=1):
            if tried > budget:
                raise NotSplit(
                    "no split toral extension found within the retry budget: "
                    f"{budget} candidates tried, {unfilled} failed to fill "
                    f"the blocks; family size {len(family)}, centralizer "
                    f"dimension {len(cent)}"
                )
            if span.contains(z):
                continue
            op = a.left_mult(z)
            refined = _split_blocks(op, blocks, field)
            if refined is not None:
                break
            unfilled += 1
        family.append(z)
        span.add(z)
        rows.extend(op.matrix)
        blocks = refined


def _centralizer_candidates(cent, field, rng):
    for z in cent:
        yield z
    dim = len(cent)
    ambient = len(cent[0])
    while True:
        vec = list(zero_vector(field, ambient))
        for _ in range(min(dim, 3)):
            i = rng.randrange(dim)
            c = rng.randint(-2, 2)
            if c:
                vec = [
                    x + field.from_rational(c) * y
                    for x, y in zip(vec, cent[i])
                ]
        yield tuple(vec)


def _weight_key(weight):
    return tuple(c.coeffs for c in weight)


def _rational_root_coordinates(roots, field):
    """Coordinates of every root over a maximal independent subset; all
    entries must be rational."""
    rank_solver = SpanSolver(field, len(roots[0]))
    independent = [g for g, alpha in enumerate(roots) if rank_solver.add(alpha)]
    coords = []
    for beta in roots:
        sol = rank_solver.express(beta)
        rat = []
        for g in independent:
            q = _rational_value(sol[g])
            if q is None:
                raise NotSplit(
                    "root coordinates are irrational over the session field"
                )
            rat.append(q)
        coords.append(tuple(rat))
    return coords


def _root_string_integer(alpha, beta, root_set, field):
    """p - q for the alpha-string through beta."""
    def step(base, direction, k):
        return tuple(
            b + direction * k * x for b, x in zip(base, alpha)
        )
    p = 0
    while step(beta, -1, p + 1) in root_set:
        p += 1
    q = 0
    while step(beta, 1, q + 1) in root_set:
        q += 1
    return p - q


def _classify_diagram(cartan_matrix):
    """Dynkin label of a connected generalized Cartan matrix."""
    r = len(cartan_matrix)
    if r == 1:
        return "A1"
    bonds = {}
    adj = {i: set() for i in range(r)}
    for i in range(r):
        for j in range(i + 1, r):
            b = cartan_matrix[i][j] * cartan_matrix[j][i]
            if b:
                bonds[(i, j)] = b
                adj[i].add(j)
                adj[j].add(i)
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    if len(seen) != r:
        raise Undecided("diagram is disconnected")
    if len(bonds) != r - 1:
        raise Undecided("diagram has a cycle")
    if any(b == 3 for b in bonds.values()):
        if r == 2 and len(bonds) == 1:
            return "G2"
        raise Undecided("triple bond outside rank 2")
    doubles = [e for e, b in bonds.items() if b == 2]
    degrees = {i: len(adj[i]) for i in range(r)}
    if not doubles:
        branch_nodes = [i for i, d in degrees.items() if d > 2]
        if not branch_nodes:
            return f"A{r}"
        if len(branch_nodes) > 1 or degrees[branch_nodes[0]] != 3:
            raise Undecided("diagram is not in the registry")
        center = branch_nodes[0]
        lengths = sorted(
            _branch_length(adj, center, first) for first in adj[center]
        )
        if lengths[0] == 1 and lengths[1] == 1:
            return f"D{r}"
        if lengths == [1, 2, 2]:
            return "E6"
        if lengths == [1, 2, 3]:
            return "E7"
        if lengths == [1, 2, 4]:
            return "E8"
        raise Undecided("diagram is not in the registry")
    if len(doubles) != 1 or any(d > 2 for d in degrees.values()):
        raise Undecided("diagram is not in the registry")
    if r == 2:
        return "B2"
    i, j = doubles[0]
    if degrees[i] == 2 and degrees[j] == 2:
        if r == 4:
            return "F4"
        raise Undecided("interior double bond outside rank 4")
    end = i if degrees[i] == 1 else j
    other = j if end == i else i
    # entry -2 in row k means alpha_k is the short root of the pair
    end_short = cartan_matrix[end][other] == -2
    return f"B{r}" if end_short else f"C{r}"


def _branch_length(adj, center, first):
    """Nodes on the path from `first` away from `center`, the only branch."""
    length = 1
    prev, cur = center, first
    while True:
        nxt = [x for x in adj[cur] if x != prev]
        if not nxt:
            return length
        prev, cur = cur, nxt[0]
        length += 1


def lie_split_type(a: StructureAlgebra, seed: int = _SEED) -> Archetype:
    """Dynkin label of a split simple Lie algebra over the session field.

    Finds a split Cartan subalgebra by a seeded search that carries the
    root decomposition along: a candidate joins the toral family exactly
    when its adjoint eigenspaces fill every joint eigenspace of the family
    so far, which is the same as being ad-diagonalizable over the field.
    Then reads Cartan integers off root strings and matches the diagram
    against the registry."""
    if not is_lie(a):
        raise NotLie("algebra is not Lie (anticommutativity or Jacobi fails)")
    if not is_simple(a):
        raise NotSimple("algebra is not simple")
    field = a.field
    family, blocks = _find_cartan(a, seed)
    r = len(family)
    zero_weight = tuple(field.zero for _ in range(r))
    roots = []
    for weight, vecs in blocks:
        if weight == zero_weight:
            if len(vecs) != r:
                raise NotSplit(
                    "zero weight space exceeds the toral subalgebra"
                )
            continue
        if len(vecs) != 1:
            raise NotSplit("a root space has dimension above one")
        roots.append(weight)
    if len(roots) + r != a.dim:
        raise NotSplit("root decomposition does not fill the algebra")
    root_set = set(roots)
    for alpha in roots:
        if tuple(-c for c in alpha) not in root_set:
            raise NotSplit("roots do not come in opposite pairs")
    coords = _rational_root_coordinates(roots, field)
    positive = [
        alpha for alpha, q in zip(roots, coords)
        if q > tuple(Fraction(0) for _ in q)
    ]
    positive_set = set(positive)
    simple = []
    for alpha in positive:
        decomposable = any(
            tuple(x - y for x, y in zip(alpha, beta)) in positive_set
            for beta in positive
            if beta != alpha
        )
        if not decomposable:
            simple.append(alpha)
    if len(simple) != r:
        raise Undecided(
            f"found {len(simple)} simple roots at rank {r}"
        )
    coord_of = dict(zip(roots, coords))
    simple.sort(key=lambda alp: coord_of[alp])
    cartan_matrix = tuple(
        tuple(
            2 if i == j else _root_string_integer(
                simple[i], simple[j], root_set, field
            )
            for j in range(r)
        )
        for i in range(r)
    )
    for i in range(r):
        for j in range(r):
            if i != j and cartan_matrix[i][j] not in (0, -1, -2, -3):
                raise Undecided("Cartan integer outside the valid range")
            if i != j and (cartan_matrix[i][j] == 0) != (
                cartan_matrix[j][i] == 0
            ):
                raise Undecided("Cartan matrix zero pattern is asymmetric")
    label = _classify_diagram(cartan_matrix)
    diagram = tuple(
        (i, j, cartan_matrix[i][j] * cartan_matrix[j][i])
        for i in range(r) for j in range(i + 1, r)
        if cartan_matrix[i][j]
    )
    data = RootSystemData(
        Subspace(field, a.dim, family), roots, simple, cartan_matrix, diagram
    )
    return Archetype("Lie", label, data=data)


# ---------------------------------------------------------------------------
# associative classification

def _left_ideal(a: StructureAlgebra, v) -> Subspace:
    return Subspace(
        a.field, a.dim,
        [a.multiply(a.basis_vector(i), v) for i in range(a.dim)],
    )


def _charpoly_sections(a: StructureAlgebra, x):
    """Elements h(x) for h = charpoly of left-mult with one irreducible
    factor struck; singular for split semisimple x, so they seed proper
    left ideals."""
    field = a.field
    lx = a.left_mult(x)
    factors = polyfactor.factor(charpoly(lx.matrix, field), field)
    if len(factors) < 2:
        return []
    out = []
    unit = a.unit
    if unit is None:
        return []
    for skip in range(len(factors)):
        h = [field.one]
        for k, (f, mult) in enumerate(factors):
            if k == skip:
                continue
            for _ in range(mult):
                h = polyfactor.pmul(h, f)
        acc = zero_vector(field, a.dim)
        power = tuple(unit)
        for c in h:
            if c:
                acc = vec_add(acc, vec_scale(c, power))
            power = lx.apply(power)
        if not vec_is_zero(acc):
            out.append(acc)
    return out


def _split_candidates(a: StructureAlgebra, seed: int):
    """Elements whose left ideals may have dimension sqrt(dim), cheapest
    first: the basis vectors (E11 settles Mat_l), then the charpoly
    sections of each basis vector, of their sum (1+i+j+k splits the
    quaternions over Q(zeta_3)) and of three seeded random elements."""
    basis = a.basis()
    yield from basis
    total = zero_vector(a.field, a.dim)
    for x in basis:
        yield from _charpoly_sections(a, x)
        total = vec_add(total, x)
    yield from _charpoly_sections(a, total)
    rng = random.Random(seed)
    for _ in range(3):
        vec = list(zero_vector(a.field, a.dim))
        for _ in range(3):
            i = rng.randrange(a.dim)
            c = rng.randint(-2, 2)
            if c:
                vec[i] = vec[i] + a.field.from_rational(c)
        yield from _charpoly_sections(a, tuple(vec))


def associative_type(a: StructureAlgebra, seed: int = _SEED) -> Archetype:
    """Mat_l label for a split central simple associative algebra.

    Splitness is certified by exhibiting a left ideal of dimension exactly
    sqrt(dim); a division algebra like the rational quaternions has no such
    ideal and is refused."""
    if not is_associative(a):
        raise HypothesisNotMet("algebra is not associative")
    if not is_simple(a):
        raise HypothesisNotMet("algebra is not simple")
    if not is_central(a):
        raise HypothesisNotMet("algebra is not central over the session field")
    ell = math.isqrt(a.dim)
    if ell * ell != a.dim:
        raise NotSplit(
            f"dimension {a.dim} is not a perfect square; "
            "not split over the session field"
        )
    best = None
    for v in _split_candidates(a, seed):
        if vec_is_zero(v):
            continue
        ideal = _left_ideal(a, v)
        d = ideal.dim
        if d == ell:
            return Archetype("Associative", f"Mat{ell}")
        if ell < d < a.dim and (best is None or d < best.dim):
            best = ideal
    # shrink inside a proper ideal if one appeared
    while best is not None:
        shrunk = None
        for u in best.basis:
            d = _left_ideal(a, u).dim
            if d == ell:
                return Archetype("Associative", f"Mat{ell}")
            if ell < d < best.dim:
                shrunk = u
                break
        if shrunk is None:
            break
        best = _left_ideal(a, shrunk)
    raise NotSplit(
        "central simple, not split: no left ideal of dimension "
        f"{ell} was found"
    )


def algebra_type(a: StructureAlgebra, seed: int = _SEED) -> Archetype:
    """Archetype of an algebra, by the first registered variety it is in."""
    if is_lie(a):
        return lie_split_type(a, seed=seed)
    if is_associative(a):
        if a.dim == 1 and is_commutative(a):
            return Archetype("CommAssociative", "Unit")
        return associative_type(a, seed=seed)
    raise HypothesisNotMet("no registered variety matches the algebra")


# ---------------------------------------------------------------------------
# towers

def tower_type(tower: LoopTower, seed: int = _SEED) -> Archetype:
    """Archetype of a tower: the base's archetype, by permanence, with the
    step count attached."""
    base = tower.base
    missing = []
    if not is_pfgc_findim(base):
        missing.append("perfect and nonzero")
    if not is_simple(base):
        missing.append("prime (certified via simple)")
    if missing:
        raise HypothesisNotMet(
            "tower typing needs flags the base does not have: "
            + ", ".join(missing)
        )
    inner = algebra_type(base, seed=seed)
    return Archetype(
        inner.variety, inner.label,
        provenance="by permanence",
        data=inner.data,
        steps=tower.n,
    )
