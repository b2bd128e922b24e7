"""The loomalg layer boundaries the traced run times, and the per-layer
metrics derived from them.

Every boundary is a public function or method of a module under
src/loomalg/, except two private hooks that have no public equivalent:
the runner's command dispatch table (one span per command kind) and
`loops._project_once`, whose calls are exactly the projection-memo
misses.  Scalar arithmetic is measured with timed probes instead of
wrappers: a small document makes about a million scalar calls, and
wrapping them would distort every other span.  The probes read declared
scalars through the runner's declaration builder, `runner._RunContext`.
"""

from __future__ import annotations

import statistics

from loomalg import (
    archetypes,
    centroid_loop,
    dsl,
    findim,
    grading,
    linalg,
    loops,
    polyfactor,
    runner,
)
from loomalg.dsl import AutoDecl

COMMANDS = ("centroid", "kind", "type", "untwist", "canonical-form",
            "build-tower", "check-grading")


def install(tracer):
    """Wrap every boundary of the library in `tracer` spans."""
    t = tracer
    for name in ("rref", "kernel_basis", "charpoly"):
        t.patch_function(linalg, name, f"linalg.{name}")
    for meth in ("add", "contains", "express"):
        t.patch_method(linalg.SpanSolver, meth, "linalg.SpanSolver")

    def echelon_row(args, kwargs, pivot):
        t.counters["echelon.rows"] += 1
        if pivot is not None:
            t.counters["echelon.rank"] += 1

    t.patch_method(linalg.SparseEchelon, "add_row", "linalg.SparseEchelon",
                   after=echelon_row)
    for meth in ("reduce_vector", "kernel"):
        t.patch_method(linalg.SparseEchelon, meth, "linalg.SparseEchelon")

    t.patch_function(polyfactor, "factor", "polyfactor.factor")

    t.patch_function(
        findim, "is_simple", "findim.is_simple",
        before=lambda args, kw: t.distinct["is_simple"].add(
            (t.doc, id(args[0]))),
    )
    for name in ("mult_algebra_basis", "centroid_algebra"):
        t.patch_function(findim, name, f"findim.{name}")

    for name in ("grading_from_auto", "validate_grading"):
        t.patch_function(grading, name, f"grading.{name}")

    def memo_lookups(args, kwargs):
        # member_projection looks up the memo once per nonzero coefficient
        t.counters["projection.lookups"] += sum(
            1 for vec in args[1].support.values() for c in vec
            if any(c.coeffs)
        )

    t.patch_function(loops, "member_projection", "loops.member_projection",
                     before=memo_lookups)
    t.patch_function(loops, "_project_once", "loops.member_projection.miss")
    t.patch_function(loops, "canonical_form", "loops.canonical_form")
    t.patch_function(loops, "inherited_flags", "loops.inherited_flags")
    t.patch_method(loops.LoopTower, "__init__", "loops.LoopTower.build")
    t.patch_method(loops.LoopTower, "basis_in_box",
                   "loops.LoopTower.basis_in_box")

    def stabilizer_done(args, kwargs, stab):
        tower, box = args
        t.counters["stabilizer.unknowns"] += box.volume() * len(stab.maps)
        t.distinct["stabilizer"].add((t.doc, id(tower), box.radius))

    t.patch_function(centroid_loop, "stabilizer_in_box",
                     "centroid_loop.stabilizer_in_box", after=stabilizer_done)
    for name in ("multiloop_centroid_check", "untwist_check",
                 "kind_classify"):
        t.patch_function(centroid_loop, name, f"centroid_loop.{name}")

    for name in ("lie_split_type", "associative_type", "tower_type"):
        t.patch_function(archetypes, name, f"archetypes.{name}")

    for name in ("parse", "format_document"):
        t.patch_function(dsl, name, f"dsl.{name}")
    t.patch_function(runner, "report_json", "runner.report_json")
    for op in COMMANDS:
        t.patch_table(runner._EXECUTORS, op, f"runner.cmd.{op}")


def _frac(num, den):
    return num / den if den else 0.0


def metrics(tracer) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    s, c, d = tracer.stats, tracer.counters, tracer.distinct
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    rows = c["echelon.rows"]
    put("linalg.SparseEchelon.rows", rows, "count")
    put("linalg.SparseEchelon.s", s["linalg.SparseEchelon"].inclusive, "s")
    put("linalg.SparseEchelon.rank_frac", _frac(c["echelon.rank"], rows),
        "ratio")
    put("linalg.rref.calls", s["linalg.rref"].calls, "count")
    for name in ("rref", "SpanSolver", "kernel_basis", "charpoly"):
        put(f"linalg.{name}.s", s[f"linalg.{name}"].inclusive, "s")

    put("polyfactor.factor.calls", s["polyfactor.factor"].calls, "count")
    put("polyfactor.factor.s", s["polyfactor.factor"].inclusive, "s")

    simple = s["findim.is_simple"]
    put("findim.is_simple.calls", simple.calls, "count")
    put("findim.is_simple.s", simple.inclusive, "s")
    put("findim.is_simple.distinct_frac",
        _frac(len(d["is_simple"]), simple.calls), "ratio")
    put("findim.mult_algebra_basis.s",
        s["findim.mult_algebra_basis"].inclusive, "s")
    put("findim.centroid_algebra.calls",
        s["findim.centroid_algebra"].calls, "count")
    put("findim.centroid_algebra.s",
        s["findim.centroid_algebra"].inclusive, "s")

    for name in ("grading_from_auto", "validate_grading"):
        put(f"grading.{name}.s", s[f"grading.{name}"].inclusive, "s")

    proj = s["loops.member_projection"]
    lookups = c["projection.lookups"]
    misses = s["loops.member_projection.miss"].calls
    put("loops.member_projection.calls", proj.calls, "count")
    put("loops.member_projection.s", proj.inclusive, "s")
    put("loops.member_projection.misses", misses, "count")
    put("loops.member_projection.memo_hit_frac",
        _frac(lookups - misses, lookups), "ratio")
    put("loops.canonical_form.s", s["loops.canonical_form"].inclusive, "s")
    put("loops.LoopTower.basis_in_box.s",
        s["loops.LoopTower.basis_in_box"].inclusive, "s")
    put("loops.LoopTower.build_s", s["loops.LoopTower.build"].inclusive, "s")
    put("loops.inherited_flags.s", s["loops.inherited_flags"].inclusive, "s")

    stab = s["centroid_loop.stabilizer_in_box"]
    put("centroid_loop.stabilizer_in_box.calls", stab.calls, "count")
    put("centroid_loop.stabilizer_in_box.s", stab.inclusive, "s")
    put("centroid_loop.stabilizer_in_box.unknowns",
        c["stabilizer.unknowns"], "count")
    put("centroid_loop.stabilizer_in_box.distinct_frac",
        _frac(len(d["stabilizer"]), stab.calls), "ratio")
    for name in ("multiloop_centroid_check", "untwist_check"):
        put(f"centroid_loop.{name}.self_s",
            s[f"centroid_loop.{name}"].self_time, "s")
    put("centroid_loop.kind_classify.s",
        s["centroid_loop.kind_classify"].inclusive, "s")

    for name in ("lie_split_type", "associative_type"):
        put(f"archetypes.{name}.s", s[f"archetypes.{name}"].inclusive, "s")
    put("archetypes.tower_type.self_s",
        s["archetypes.tower_type"].self_time, "s")

    for name in ("parse", "format_document"):
        put(f"dsl.{name}.s", s[f"dsl.{name}"].inclusive, "s")
    for op in COMMANDS:
        put(f"runner.cmd.{op}.s", s[f"runner.cmd.{op}"].inclusive, "s")
    put("runner.report_json.s", s["runner.report_json"].inclusive, "s")
    return out


def unreached(tracer) -> list:
    """Boundaries that recorded no span; every workload reaches them all."""
    return sorted(name for name, st in tracer.stats.items() if st.calls == 0)


# ---------------------------------------------------------------------------
# scalar probes


def _operand_pools(docs):
    """Per field, the scalars the workload's documents declare (matrix
    entries, zeros included) and the powers of the field root."""
    pools = {}
    for doc in docs:
        document = dsl.parse(doc.text).document
        if document is None:
            continue
        ctx = runner._RunContext(document, None, None)
        field = ctx.field
        pool = pools.setdefault(field.order, {})
        for k in range(field.order):
            z = field.zeta ** k
            pool[z.coeffs] = z
        for decl in document.decls.values():
            if isinstance(decl, AutoDecl):
                for row in decl.entries:
                    for scalar in row:
                        value = ctx.scalar_value(scalar)
                        pool[value.coeffs] = value
    return [list(pool.values()) for pool in pools.values()]


def scalar_probes(docs, meter, rounds: int = 5,
                  ops_per_round: int = 20000) -> dict:
    """Median normalized ns per CycloNumber mul, add, is_zero and inverse
    on operands from the workload's own fields and matrices."""
    pools = _operand_pools(docs)

    def repeat(items):
        return (items * (ops_per_round // len(items) + 1))[:ops_per_round]

    pairs = repeat([(a, b) for pool in pools for a in pool for b in pool])
    singles = repeat([a for pool in pools for a in pool])
    units = repeat([a for pool in pools for a in pool if not a.is_zero()])
    samples = {"mul": [], "add": [], "is_zero": [], "inverse": []}

    def timed(op, started):
        samples[op].append(meter.stop(started)[1] * 1e9 / ops_per_round)

    for _ in range(rounds):
        started = meter.start()
        for a, b in pairs:
            a * b
        timed("mul", started)
        started = meter.start()
        for a, b in pairs:
            a + b
        timed("add", started)
        started = meter.start()
        for a in singles:
            a.is_zero()
        timed("is_zero", started)
        started = meter.start()
        for a in units:
            a.inverse()
        timed("inverse", started)
    return {
        f"exactnum.{op}_ns": (statistics.median(v), "ns")
        for op, v in samples.items()
    }
