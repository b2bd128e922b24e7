"""Exact construction and analysis of iterated loop algebras.

Finite-dimensional algebras with explicit structure constants over
cyclotomic fields, mod-m gradings and finite-order automorphisms, n-step
loop towers with sparse Laurent coefficients, centroid stabilizers with
the first/second kind dichotomy, untwisting certificates, absolute type
detection, and a small declaration language with a CLI front end.  All
arithmetic is exact; every infinite-dimensional statement is certified on
explicit degree windows.
"""

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    HypothesisNotMet,
    InvalidGrading,
    LoomError,
    NotAnAutomorphism,
    NotLie,
    NotSimple,
    NotSplit,
    RootOrderUnavailable,
    Undecided,
)
from .exactnum import (
    CycloField,
    CycloNumber,
    primitive_root,
    root_of_unity_order,
)
from .findim import (
    LinearMap,
    StructureAlgebra,
    centre,
    centroid,
    centroid_algebra,
    change_basis,
    direct_sum,
    is_associative,
    is_central,
    is_commutative,
    is_lie,
    is_perfect,
    is_pfgc_findim,
    is_simple,
    matrix_algebra,
    property_report,
    sl_algebra,
)
from .grading import (
    FiniteOrderAuto,
    ModGrading,
    auto_from_grading,
    centroid_grading,
    grading_from_auto,
    validate_grading,
)
from .loops import (
    DegreeBox,
    LaurentElement,
    LoopTower,
    ToralMonomialAuto,
    TowerStage,
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
from .centroid_loop import (
    KindVerdict,
    StabilizerBasis,
    StrangeRingData,
    first_kind_iso_hint,
    kind_classify,
    multiloop_centroid_check,
    psi_check,
    stabilizer_in_box,
    strange_ring_audit,
    untwist_check,
)
from .archetypes import (
    Archetype,
    RootSystemData,
    algebra_type,
    associative_type,
    lie_split_type,
    registry_label_valid,
    tower_type,
)
from .dsl import Diagnostic, Document, ParseResult, format_document, parse
from .runner import execute, render_text, report_json

__version__ = "0.1.0"
