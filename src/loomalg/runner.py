"""Execution of parsed documents: build declared objects, run commands,
emit one JSON report.

Declarations are built lazily and memoized; a declaration that fails to
build poisons every command that references it, while unused bad
declarations cost nothing.  The JSON report is the single source of truth:
the human rendering is derived from the report dict, never computed
separately, and serialization is canonical so identical source and seed
give byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .archetypes import algebra_type, tower_type
from .centroid_loop import (
    kind_classify,
    multiloop_centroid_check,
    stabilizer_in_box,
    untwist_check,
)
from .dsl import (
    AlgebraDecl,
    AutoDecl,
    Command,
    Document,
    GradingDecl,
    Scalar,
    TowerDecl,
)
from .errors import (
    DimensionMismatch,
    HypothesisNotMet,
    LoomError,
    WindowTooLarge,
)
from .exactnum import CycloField, primitive_root
from .findim import matrix_algebra, sl_algebra
from .fixtures import (
    conjugation_auto,
    matrix_inverse,
    quaternion_algebra,
    sl_matrix_auto,
)
from .grading import FiniteOrderAuto, grading_from_auto, validate_grading
from .linalg import mat_mul
from .loops import (
    DegreeBox,
    LaurentElement,
    LoopTower,
    TowerStage,
    ToralMonomialAuto,
    canonical_form,
    canonical_reconstruct,
    inherited_flags,
    laurent_str,
    multiloop,
)

SCHEMA_VERSION = 1
DEFAULT_SEED = 20260214
# Largest window a command may run in, counted as box volume times base
# dimension: the coordinates a window element has.  No fixture, test or
# benchmark workload comes within a tenth of it.  It bounds the size of what
# a window command builds: the window bases, the stabilizer's unknowns and
# the sparse rows of the span checks.  On a one-stage tower these grow about
# linearly in the count.  It is not a work budget, since the work per
# coordinate still grows with the base dimension and the number of stages.
WINDOW_LIMIT = 40_000


def _mono_str(degree) -> str:
    parts = [f"z{i + 1}^{d}" for i, d in enumerate(degree) if d != 0]
    return "*".join(parts) if parts else "1"


def _scalar_laurent_str(x: LaurentElement) -> str:
    """Rendering for elements with one-dimensional coefficients."""
    if x.is_zero():
        return "0"
    one = x.field.one
    parts = []
    for deg in x.degrees():
        c = x.coefficient(deg)[0]
        mono = _mono_str(deg)
        if mono == "1":
            parts.append(str(c))
        elif c == one:
            parts.append(mono)
        else:
            parts.append(f"({c})*{mono}")
    return " + ".join(parts)


class _RunContext:
    def __init__(self, document: Document, box_override, seed):
        self.document = document
        self.field = CycloField(document.root_order)
        self.box_override = tuple(box_override) if box_override else None
        self.seed = seed if seed is not None else (
            document.report_seed if document.report_seed is not None
            else DEFAULT_SEED
        )
        self._cache = {}

    # -- scalar and matrix evaluation --------------------------------------

    def scalar_value(self, s: Scalar):
        field = self.field
        val = field.from_rational(Fraction(s.numerator, s.denominator))
        if s.zeta_order is not None:
            order = field.order
            if order % s.zeta_order:
                raise LoomError(
                    f"zeta({s.zeta_order}) does not exist in the session "
                    f"field of order {order}",
                    code="root-order-shortfall",
                )
            step = order // s.zeta_order
            val = val * field.zeta ** ((s.zeta_power % s.zeta_order) * step)
        return -val if s.negative else val

    def matrix_value(self, entries):
        return tuple(
            tuple(self.scalar_value(s) for s in row) for row in entries
        )

    # -- declaration building ----------------------------------------------

    def obj(self, name: str):
        cached = self._cache.get(name)
        if cached is not None:
            status, payload = cached
            if status == "ok":
                return payload
            raise payload
        decl = self.document.decls[name]
        try:
            built = self._build(decl)
        except LoomError as exc:
            self._cache[name] = ("err", exc)
            raise
        self._cache[name] = ("ok", built)
        return built

    def _build(self, decl):
        if isinstance(decl, AlgebraDecl):
            return self._build_algebra(decl)
        if isinstance(decl, AutoDecl):
            return self._build_auto(decl)
        if isinstance(decl, GradingDecl):
            return self._build_grading(decl)
        return self._build_tower(decl)

    def _build_algebra(self, decl: AlgebraDecl):
        if decl.kind == "mat":
            return matrix_algebra(decl.size, self.field)
        if decl.kind == "sl":
            return sl_algebra(decl.size, self.field)
        if decl.kind == "unit":
            return matrix_algebra(1, self.field)
        return quaternion_algebra(self.field)

    def _build_auto(self, decl: AutoDecl) -> FiniteOrderAuto:
        alg = self.obj(decl.target)
        if decl.kind == "identity":
            return FiniteOrderAuto.identity(alg)
        if decl.kind == "matrix":
            return FiniteOrderAuto(alg, self.matrix_value(decl.entries))
        # conj: the validator restricted the target to mat or sl
        target_decl = self.document.decls[decl.target]
        u = self.matrix_value(decl.entries)
        try:
            if target_decl.kind == "mat":
                return conjugation_auto(alg, u)
            uinv = matrix_inverse(self.field, u)
            return sl_matrix_auto(
                alg, target_decl.size,
                lambda m: mat_mul(mat_mul(u, m), uinv),
            )
        except ValueError as exc:
            raise LoomError(str(exc), code="singular-matrix") from exc

    def _build_grading(self, decl: GradingDecl):
        auto = self.obj(decl.auto)
        modulus = decl.modulus if decl.modulus is not None else auto.period
        zeta = primitive_root(modulus, self.field)
        return grading_from_auto(auto, zeta)

    def _build_tower(self, decl: TowerDecl) -> LoopTower:
        base = self.obj(decl.base)
        if decl.kind == "multiloop":
            autos = [self.obj(name) for name in decl.autos]
            zetas = [
                primitive_root(a.period, self.field) for a in autos
            ]
            return multiloop(base, autos, zetas)
        stages = []
        for p, st in enumerate(decl.stages, start=1):
            theta = self.obj(st.auto)
            prior = p - 1
            m_rows = st.m_matrix if st.m_matrix is not None else tuple(
                tuple(1 if i == j else 0 for j in range(prior))
                for i in range(prior)
            )
            c_vec = st.c_vector if st.c_vector is not None else (0,) * prior
            char_zeta = (
                primitive_root(st.char_order, self.field)
                if st.char_order is not None else self.field.one
            )
            twist = ToralMonomialAuto(theta, m_rows, c_vec, char_zeta)
            stages.append(
                TowerStage(twist, st.modulus,
                           primitive_root(st.modulus, self.field))
            )
        return LoopTower(base, stages)

    # -- windows -----------------------------------------------------------

    def window(self, cmd: Command, tower: LoopTower) -> DegreeBox:
        for box in (self.box_override, cmd.box, self.document.report_box):
            if box is not None:
                if len(box) != tower.n:
                    raise DimensionMismatch(
                        f"box has {len(box)} radii but the tower has "
                        f"{tower.n} stages"
                    )
                window = DegreeBox(tuple(box))
                break
        else:
            window = tower.default_box()
        size = window.volume() * tower.base.dim
        if size > WINDOW_LIMIT:
            raise WindowTooLarge(
                f"window {list(window.radius)} holds {size} coordinates "
                f"(volume {window.volume()} times base dimension "
                f"{tower.base.dim}); the limit is {WINDOW_LIMIT}"
            )
        return window


# ---------------------------------------------------------------------------
# command executors


def _flags_json(flags: dict) -> dict:
    out = {}
    for name, entry in flags.items():
        slim = {"value": entry["value"]}
        slim["source"] = entry.get("source") or entry.get("provenance")
        if entry.get("note"):
            slim["note"] = entry["note"]
        out[name] = slim
    return out


def _run_check_grading(ctx: _RunContext, cmd: Command) -> dict:
    grading = ctx.obj(cmd.target)
    algebra = ctx.obj(cmd.second)
    if grading.algebra is not algebra:
        raise LoomError(
            f"grading {cmd.target!r} was built on a different algebra "
            f"than {cmd.second!r}"
        )
    problems = validate_grading(grading)
    return {
        "grading": cmd.target,
        "algebra": cmd.second,
        "grading_valid": not problems,
        "problems": list(problems),
        "modulus": grading.modulus,
        "component_dims": list(grading.dims()),
        "ok": not problems,
    }


def _run_build_tower(ctx: _RunContext, cmd: Command) -> dict:
    tower = ctx.obj(cmd.target)
    flags = inherited_flags(tower)
    return {
        "tower": cmd.target,
        "arity": tower.n,
        "moduli": list(tower.moduli()),
        "actual_periods": list(tower.actual_periods),
        "base_dim": tower.base.dim,
        "validated_boxes": [list(b) for b in tower.validation_boxes],
        "flags": {
            "base": _flags_json(flags["base"]),
            "loop": _flags_json(flags["loop"]),
        },
        "ok": True,
    }


def _run_centroid(ctx: _RunContext, cmd: Command) -> dict:
    tower = ctx.obj(cmd.target)
    box = ctx.window(cmd, tower)
    stab = stabilizer_in_box(tower, box)
    out = {
        "tower": cmd.target,
        "box": list(box.radius),
        "stabilizer_dim": stab.dim,
        "stabilizer_dim_by_degree": {
            str(k): v for k, v in sorted(stab.dims_by_degree.items())
        },
        "centroid_dimension": tower.n,
        "ok": True,
    }
    try:
        lattice = multiloop_centroid_check(tower, stab)
    except HypothesisNotMet:
        return out
    generators = []
    for p, m in enumerate(tower.moduli()):
        generators.append(f"z{p + 1}^{m}")
        generators.append(f"z{p + 1}^-{m}")
    out["lattice"] = {
        "ok": lattice["ok"],
        "generators": generators,
        "expected_count": lattice["expected_count"],
    }
    out["ok"] = lattice["ok"]
    return out


def _run_kind(ctx: _RunContext, cmd: Command) -> dict:
    tower = ctx.obj(cmd.target)
    verdict = kind_classify(tower)
    details = verdict.details
    out = {
        "tower": cmd.target,
        "kind": verdict.kind,
        "verified_box": list(details["verified_box"]),
        "centroid_dimension": 2,
        "ok": True,
    }
    if verdict.kind == "First":
        t1, t2 = verdict.witness
        out["witness_generators"] = [
            _scalar_laurent_str(t1), _scalar_laurent_str(t2)
        ]
        out["rho_prime"] = str(details["rho_prime"])
        out["monomial_exponents"] = list(details["monomial_exponents"])
        out["isomorphism_advisory"] = details["isomorphism_advisory"]
    else:
        data = verdict.witness
        out["witness_generators"] = [
            _scalar_laurent_str(data.u1),
            _scalar_laurent_str(data.u2),
            _scalar_laurent_str(data.u2_inv),
            _scalar_laurent_str(data.w),
        ]
        out["strange_rho"] = str(data.rho)
        out["relation"] = details["relation"]
    return out


def _run_type(ctx: _RunContext, cmd: Command) -> dict:
    decl = ctx.document.decls[cmd.target]
    target = ctx.obj(cmd.target)
    if isinstance(decl, TowerDecl):
        arch = tower_type(target, seed=ctx.seed)
    else:
        arch = algebra_type(target, seed=ctx.seed)
    out = {"target": cmd.target, "ok": True}
    out.update(arch.as_report())
    return out


def _run_untwist(ctx: _RunContext, cmd: Command) -> dict:
    tower = ctx.obj(cmd.target)
    box = ctx.window(cmd, tower)
    result = untwist_check(tower, box)
    out = {
        "tower": cmd.target,
        "verified_box": list(box.radius),
        "ok": bool(result["ok"]),
    }
    if result["ok"]:
        out["untwist_rank"] = result["rank"]
        out["sections"] = [list(s) for s in result["sections"]]
        out["stabilizer_dim"] = result["stabilizer_dim"]
        out["coefficient_vectors_checked"] = (
            result["coefficient_vectors_checked"]
        )
        out["base_vectors_checked"] = result["base_vectors_checked"]
        out["note"] = result["note"]
    else:
        out["failed_stage"] = result["stage"]
    return out


def _element_value(ctx: _RunContext, tower: LoopTower, terms):
    base = tower.base
    labels = list(base.labels or ())
    x = LaurentElement.zero(ctx.field, tower.n, base.dim)
    for term in terms:
        # leading zeros aside, more digits than the dimension has cannot
        # name a basis vector, and int() refuses very long strings
        digits = term.label[1:].lstrip("0") or "0"
        if term.label in labels:
            idx = labels.index(term.label)
        elif (term.label.startswith("e")
              and term.label[1:].isdecimal()
              and len(digits) <= len(str(base.dim))
              and int(digits) < base.dim):
            idx = int(digits)
        else:
            raise LoomError(
                f"unknown basis label {term.label!r}; the base algebra "
                f"has labels {labels or '(none)'} and e0..e{base.dim - 1}",
                code="unknown-basis-label",
            )
        coeff = (ctx.scalar_value(term.coeff) if term.coeff is not None
                 else ctx.field.one)
        if term.sign < 0:
            coeff = -coeff
        mono = LaurentElement.monomial(
            ctx.field, tower.n, base.dim, term.degree,
            base.basis_vector(idx),
        )
        x = x.add(mono.scale(coeff))
    return x


def _run_canonical_form(ctx: _RunContext, cmd: Command) -> dict:
    tower = ctx.obj(cmd.target)
    x = _element_value(ctx, tower, cmd.element)
    family = canonical_form(tower, x)
    recon = canonical_reconstruct(tower, family)
    pieces = []
    for idx in sorted(family):
        piece = family[idx]
        if not piece.is_zero():
            pieces.append({
                "class": list(idx),
                "value": laurent_str(tower.base, piece),
            })
    return {
        "tower": cmd.target,
        "input": laurent_str(tower.base, x),
        "pieces": pieces,
        "round_trip": recon == x,
        "ok": recon == x,
    }


_EXECUTORS = {
    "check-grading": ("check grading", _run_check_grading),
    "build-tower": ("build tower", _run_build_tower),
    "centroid": ("centroid", _run_centroid),
    "kind": ("kind", _run_kind),
    "type": ("type", _run_type),
    "untwist": ("untwist", _run_untwist),
    "canonical-form": ("canonical-form", _run_canonical_form),
}


def execute(document: Document, box_override=None, seed=None,
            fail_fast: bool = False) -> dict:
    """Run every command in order and aggregate the JSON report dict."""
    ctx = _RunContext(document, box_override, seed)
    commands = []
    ok = True
    for cmd in document.commands:
        title, handler = _EXECUTORS[cmd.op]
        try:
            entry = handler(ctx, cmd)
        except LoomError as exc:
            entry = {
                "target": cmd.target,
                "ok": False,
                "error": {"code": exc.code, "message": str(exc)},
            }
        entry["command"] = title
        commands.append(entry)
        if not entry["ok"]:
            ok = False
            if fail_fast:
                break
    return {
        "schema_version": SCHEMA_VERSION,
        "root_order": document.root_order,
        "seed": ctx.seed,
        "commands": commands,
        "ok": ok,
    }


def report_json(report: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline."""
    return json.dumps(report, indent=2, sort_keys=True,
                      ensure_ascii=True) + "\n"


# ---------------------------------------------------------------------------
# text rendering, derived from the JSON dict only


def _render_flags(flags: dict, label: str) -> str:
    parts = [
        f"{name}={entry['value']} ({entry['source']})"
        for name, entry in sorted(flags.items())
    ]
    return f"    flags[{label}]: " + ", ".join(parts)


def _render_command(entry: dict) -> list:
    head = entry["command"]
    target = entry.get("tower") or entry.get("target") or entry.get(
        "grading"
    )
    status = "ok" if entry["ok"] else "FAILED"
    lines = [f"{head} {target}: {status}"]
    if "error" in entry:
        err = entry["error"]
        lines.append(f"    error[{err['code']}]: {err['message']}")
        return lines
    cmd = entry["command"]
    if cmd == "check grading":
        lines.append(
            f"    grading_valid={entry['grading_valid']} modulus="
            f"{entry['modulus']} component_dims={entry['component_dims']}"
        )
        for p in entry["problems"]:
            lines.append(f"    problem: {p}")
    elif cmd == "build tower":
        lines.append(
            f"    arity={entry['arity']} moduli={entry['moduli']} "
            f"periods={entry['actual_periods']} "
            f"base_dim={entry['base_dim']}"
        )
        lines.append(_render_flags(entry["flags"]["base"], "base"))
        lines.append(_render_flags(entry["flags"]["loop"], "loop"))
    elif cmd == "centroid":
        dims = entry["stabilizer_dim_by_degree"]
        by_degree = " ".join(
            f"{k}:{dims[k]}" for k in sorted(dims, key=int)
        )
        lines.append(
            f"    box={entry['box']} stabilizer_dim="
            f"{entry['stabilizer_dim']} (by last degree: {by_degree})"
        )
        lines.append(
            f"    centroid dimension {entry['centroid_dimension']}"
        )
        if "lattice" in entry:
            lat = entry["lattice"]
            lines.append(
                f"    lattice ok={lat['ok']} generators="
                + ", ".join(lat["generators"])
            )
    elif cmd == "kind":
        lines.append(
            f"    kind={entry['kind']} verified_box="
            f"{entry['verified_box']} centroid dimension "
            f"{entry['centroid_dimension']}"
        )
        lines.append(
            "    witnesses: " + "; ".join(entry["witness_generators"])
        )
        if entry["kind"] == "First":
            lines.append(
                f"    rho'={entry['rho_prime']} "
                f"(advisory: {entry['isomorphism_advisory']})"
            )
        else:
            lines.append(
                f"    rho={entry['strange_rho']} relation: "
                f"{entry['relation']}"
            )
    elif cmd == "type":
        bits = [f"variety={entry['variety']}", f"label={entry['label']}"]
        if "steps" in entry:
            bits.append(f"steps={entry['steps']}")
        if "provenance" in entry:
            bits.append(f"provenance={entry['provenance']!r}")
        lines.append("    " + " ".join(bits))
    elif cmd == "untwist":
        if entry["ok"]:
            lines.append(
                f"    rank={entry['untwist_rank']} box="
                f"{entry['verified_box']} stabilizer_dim="
                f"{entry['stabilizer_dim']}"
            )
            lines.append(f"    {entry['note']}")
        else:
            lines.append(f"    failed at stage: {entry['failed_stage']}")
    elif cmd == "canonical-form":
        lines.append(f"    input: {entry['input']}")
        for piece in entry["pieces"]:
            lines.append(
                f"    class {piece['class']}: {piece['value']}"
            )
        lines.append(f"    round_trip={entry['round_trip']}")
    return lines


def render_text(report: dict) -> str:
    lines = [
        f"loomalg report (schema {report['schema_version']}) | "
        f"root order {report['root_order']} | seed {report['seed']}"
    ]
    for i, entry in enumerate(report["commands"], start=1):
        body = _render_command(entry)
        lines.append(f"[{i}] {body[0]}")
        lines.extend(body[1:])
    lines.append("overall: " + ("ok" if report["ok"] else "FAILED"))
    return "\n".join(lines) + "\n"
