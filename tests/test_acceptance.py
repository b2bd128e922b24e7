"""Acceptance gate: one test per shipped criterion, exact tolerances.

Each test_criterion_N function is one release criterion; the terminal
summary prints a PASS/FAIL line per criterion (see conftest).  Expensive
intermediates (fixture registry, stabilizers, kind verdicts) are memoized
at module level so criteria can share them without re-deriving.
"""

from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import hermitian_orbit_count, restricted_stabilizer_span
from loomalg.archetypes import associative_type, lie_split_type, tower_type
from loomalg.centroid_loop import (
    kind_classify,
    multiloop_centroid_check,
    psi_check,
    stabilizer_in_box,
    strange_ring_audit,
    stabilizes,
    untwist_check,
    window_span,
)
from loomalg.dsl import Command, Document, parse
from loomalg.errors import NotSplit
from loomalg.findim import centroid_algebra, matrix_algebra, sl_algebra
from loomalg.fixtures import (
    fixture_registry,
    quaternion_algebra,
    swap_sum_fixture,
)
from loomalg.loops import (
    DegreeBox,
    LaurentElement,
    canonical_form,
    canonical_reconstruct,
    free_basis_check,
    inherited_flags,
    laurent_multiply,
)
from loomalg.runner import execute

SEED = 20260214
FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"

_registry = None
_stab_cache: dict = {}
_kind_cache: dict = {}


def registry():
    global _registry
    if _registry is None:
        _registry = fixture_registry()
    return _registry


def stab(name, radius):
    key = (name, tuple(radius))
    if key not in _stab_cache:
        tower = registry()[name]["tower"]
        _stab_cache[key] = stabilizer_in_box(tower, DegreeBox(radius))
    return _stab_cache[key]


def kind_of(name):
    if name not in _kind_cache:
        _kind_cache[name] = kind_classify(registry()[name]["tower"])
    return _kind_cache[name]


def scalar_monomial(field, degree, coeff=None):
    return LaurentElement.monomial(
        field, len(degree), 1, degree, (coeff if coeff is not None
                                        else field.one,)
    )


# criterion 1: quantum torus towers.  The two inner twists produce the
# defining relation x2 x1 = zeta x1 x2 exactly; the centroid stabilizer
# window is exactly the coarse monomial lattice; untwisting exhibits a
# free basis of rank ell^2 indexed by the residue classes.
@pytest.mark.parametrize("ell", [2, 3])
def test_criterion_1(ell):
    fix = registry()[f"quantum-torus-{ell}"]
    tower, field, base = fix["tower"], fix["field"], fix["base"]
    zeta = fix["zeta"]

    x1x2 = laurent_multiply(base, fix["x1"], fix["x2"])
    x2x1 = laurent_multiply(base, fix["x2"], fix["x1"])
    assert x2x1 == x1x2.scale(zeta)
    assert not x1x2.is_zero()

    box = DegreeBox((2 * ell, 2 * ell))
    stabilizer = stab(fix["name"], (2 * ell, 2 * ell))
    lattice = [
        scalar_monomial(field, (ell * a, ell * b))
        for a in range(-2, 3)
        for b in range(-2, 3)
    ]
    assert stabilizer.dim == len(lattice) == 25
    assert window_span(stabilizer.elements, box, field, 1) == window_span(
        lattice, box, field, 1
    )
    lattice_check = multiloop_centroid_check(tower, stabilizer)
    assert lattice_check["ok"] is True
    assert lattice_check["expected_count"] == 25
    assert lattice_check["generators"] == [f"z1^{ell}", f"z2^{ell}"]

    expected_sections = [(i, j) for i in range(ell) for j in range(ell)]
    untwist = untwist_check(tower, DegreeBox((ell, ell)))
    assert untwist["ok"] is True
    assert untwist["rank"] == ell * ell
    assert sorted(untwist["sections"]) == expected_sections

    free = free_basis_check(tower, DegreeBox((ell, ell)))
    assert free["ok"] is True
    assert free["rank"] == ell * ell
    assert sorted(free["sections"]) == expected_sections


# criterion 2: hermitian towers.  Second kind with rho = 1; the bare
# lattice monomials z1^2 z2^j do NOT stabilize; the stabilizer window
# dimension equals an independent character-orbit enumeration; and the
# strange-ring witnesses satisfy w^2 = (u1^2 - 4) u2 exactly.
@pytest.mark.parametrize("ell", [1, 2])
def test_criterion_2(ell):
    fix = registry()[f"hermitian-{ell}"]
    tower, field = fix["tower"], fix["field"]

    verdict = kind_of(fix["name"])
    assert verdict.kind == "Second"
    data = verdict.witness
    assert data.rho == field.one

    calg, maps = centroid_algebra(tower.base)
    window = DegreeBox((4, 4))
    for j in (0, 1):
        assert not stabilizes(
            tower, maps, scalar_monomial(field, (2, j)), window
        )

    assert stab(fix["name"], (4, 4)).dim == hermitian_orbit_count((4, 4))

    audit = strange_ring_audit(data, 2)
    assert audit["relation_ok"] is True
    assert audit["independence"]["ok"] is True
    assert audit["norm_multiplicative"] is True
    # rho = 1, so the audited relation specializes to w^2 = (u1^2 - 4) u2
    scalars = matrix_algebra(1, field)
    lhs = laurent_multiply(scalars, data.w, data.w)
    u1sq = laurent_multiply(scalars, data.u1, data.u1)
    four = scalar_monomial(field, (0, 0), field.from_rational(4))
    rhs = laurent_multiply(scalars, u1sq.sub(four), data.u2)
    assert lhs == rhs


# criterion 3: ten synthetic two-step towers, five per kind.  The verdict
# must match the construction, and the returned witnesses must satisfy
# their defining relations exactly: first kind t1 = y1^n2 with n2 the
# exact order of rho'; second kind u1 = y1 + rho y1^{-1} with the strange
# relation verified by multiplication.
def test_criterion_3():
    synthetics = [f for f in registry().values()
                  if f["name"].startswith("synthetic-")]
    assert len(synthetics) == 10
    for fix in synthetics:
        field, m1, m2 = fix["field"], fix["m1"], fix["m2"]
        scalars = matrix_algebra(1, field)
        verdict = kind_of(fix["name"])
        assert verdict.kind == fix["expected_kind"], fix["name"]
        if verdict.kind == "First":
            rho_prime = verdict.details["rho_prime"]
            n2 = verdict.details["order_of_rho_prime"]
            assert rho_prime ** n2 == field.one
            assert all(rho_prime ** k != field.one for k in range(1, n2))
            t1, t2 = verdict.witness
            assert t1 == scalar_monomial(field, (m1 * n2, 0))
            assert verdict.details["t1_degree"] == (m1 * n2, 0)
        else:
            data = verdict.witness
            rho = data.rho
            assert data.u1 == scalar_monomial(field, (m1, 0)).add(
                scalar_monomial(field, (-m1, 0), rho)
            )
            lhs = laurent_multiply(scalars, data.w, data.w)
            u1sq = laurent_multiply(scalars, data.u1, data.u1)
            four_rho = scalar_monomial(field, (0, 0),
                                       rho * field.from_rational(4))
            rhs = laurent_multiply(scalars, u1sq.sub(four_rho), data.u2)
            assert lhs == rhs, fix["name"]


# criterion 4: canonical form.  200 pseudo-random members per fixture
# tower decompose into residue-class pieces that reconstruct the input
# exactly, and decomposing the reconstruction returns identical pieces.
def test_criterion_4():
    rng = random.Random(SEED)
    for name, fix in registry().items():
        tower = fix["tower"]
        field = fix["field"]
        box = tower.default_box().halved()
        basis = tower.basis_in_box(box)
        assert basis, name
        for _ in range(200):
            y = LaurentElement.zero(field, tower.n, tower.base.dim)
            for _ in range(rng.randint(1, 4)):
                coeff = field.from_rational(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                )
                y = y.add(basis[rng.randrange(len(basis))].scale(coeff))
            family = canonical_form(tower, y)
            assert canonical_reconstruct(tower, family) == y, name
            again = canonical_form(tower, y)
            assert again == family, name
            assert set(family) == set(tower.index_classes()), name


# criterion 5: centroid of a loop equals the loop of the centroid for the
# one-step tower over the swapped direct sum; window dimensions agree
# degree by degree with zero mismatch.
def test_criterion_5():
    fix = swap_sum_fixture()
    out = psi_check(fix["algebra"], fix["grading"], DegreeBox((4,)))
    assert out["ok"] is True
    assert out["into_stabilizer"] is True
    assert out["product_rule"] is True
    assert out["span_match"] is True
    assert out["dims_stabilizer_by_degree"] == (
        out["dims_loop_of_centroid_by_degree"]
    )
    mismatches = [
        d for d in out["dims_stabilizer_by_degree"]
        if out["dims_stabilizer_by_degree"][d]
        != out["dims_loop_of_centroid_by_degree"][d]
    ]
    assert mismatches == []


# criterion 6: inheritance.  For every fixture the loop's nonzeroness and
# perfectness are verified inside a window, and the derived flags (prime,
# unital, associative, commutative) match the base report item for item.
def test_criterion_6():
    for name, fix in registry().items():
        flags = inherited_flags(fix["tower"])
        base_report, loop = flags["base"], flags["loop"]
        assert loop["nonzero"] == {
            "value": True, "source": "verified-in-box"
        }, name
        assert loop["perfect"] == {
            "value": True, "source": "verified-in-box"
        }, name
        for prop in ("unital", "associative", "commutative"):
            assert loop[prop]["value"] == base_report[prop]["value"], (
                name, prop
            )
            assert loop[prop]["source"] == "derived-by-theorem", (name, prop)
        assert base_report["prime"]["value"] is True, name
        assert loop["prime"]["value"] is True, name


# criterion 7: absolute type.  Split Lie classification labels sl(2), sl(3)
# and the hermitian bases; matrix algebras get Mat_ell; rational
# quaternions are refused as not split; and every fixture tower reports
# its base archetype with the step count attached.
def test_criterion_7():
    field = registry()["quantum-torus-2"]["field"]
    assert lie_split_type(sl_algebra(2, field)).label == "A1"
    assert lie_split_type(sl_algebra(3, field)).label == "A2"
    for ell in (1, 2):
        base = registry()[f"hermitian-{ell}"]["tower"].base
        assert lie_split_type(base).label == f"A{ell}"
    for ell in (2, 3):
        arch = associative_type(matrix_algebra(ell, field))
        assert (arch.variety, arch.label) == ("Associative", f"Mat{ell}")
    with pytest.raises(NotSplit) as err:
        associative_type(quaternion_algebra())
    assert "not split" in str(err.value)

    for name, fix in registry().items():
        arch = tower_type(fix["tower"])
        assert arch.steps == fix["tower"].n == 2, name
        assert arch.provenance == "by permanence", name
        if name.startswith("quantum-torus"):
            expected = ("Associative", f"Mat{fix['ell']}")
        elif name.startswith("hermitian"):
            expected = ("Lie", f"A{fix['ell']}")
        else:
            expected = ("CommAssociative", "Unit")
        assert (arch.variety, arch.label) == expected, name


# criterion 8: centroid certification.  Every two-step fixture's centroid
# is certified as either a rank-two Laurent ring (first kind) or a strange
# ring (second kind), and the execution report annotates both outcomes
# with the known dimension, 2.
def test_criterion_8():
    for name, fix in registry().items():
        verdict = kind_of(name)
        assert verdict.kind in ("First", "Second"), name
        if name.startswith("quantum-torus"):
            assert verdict.kind == "First", name
        elif name.startswith("hermitian"):
            assert verdict.kind == "Second", name
        else:
            assert verdict.kind == fix["expected_kind"], name

    for doc_name in ("quantum_torus_2.loom", "hermitian_1.loom",
                     "synthetic_b4.loom"):
        parsed = parse((FIXTURES_DIR / doc_name).read_text(encoding="utf-8"))
        assert parsed.ok, doc_name
        kept = [
            s for s in parsed.document.statements
            if not isinstance(s, Command) or s.op == "kind"
        ]
        report = execute(Document(kept))
        kinds = [c for c in report["commands"] if c["command"] == "kind"]
        assert kinds, doc_name
        for entry in kinds:
            assert entry["ok"] is True, doc_name
            assert entry["centroid_dimension"] == 2, doc_name
            assert entry["kind"] in ("First", "Second")


# criterion 9: property suites and box-growth stability.  The per-module
# invariant suites run in this same pytest invocation (the gate is the
# whole run); here we assert they are all present and collectible, and
# check stabilizer box-growth stability on every fixture: windows of
# radius D and 2D agree once both are restricted to the D/2 window.
def test_criterion_9():
    suites = [
        "test_exactnum.py", "test_linalg.py", "test_polyfactor.py",
        "test_findim.py", "test_grading.py", "test_loops.py",
        "test_centroid_loop.py", "test_archetypes.py", "test_dsl.py",
        "test_runner.py", "test_cli.py",
    ]
    here = Path(__file__).resolve().parent
    for suite in suites:
        assert (here / suite).is_file(), suite
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         *[str(here / s) for s in suites]],
        capture_output=True, text=True, cwd=here.parent, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    tail = proc.stdout.strip().splitlines()[-1]
    assert "error" not in tail

    for name, fix in registry().items():
        tower = fix["tower"]
        two_d = tower.default_box().radius
        d = tower.default_box().halved().radius
        small = DegreeBox(d).halved()
        at_d = restricted_stabilizer_span(tower, d, small)
        at_2d = restricted_stabilizer_span(
            tower, two_d, small, stab=stab(name, two_d)
        )
        assert at_d == at_2d, name
        assert at_d.dim > 0, name
