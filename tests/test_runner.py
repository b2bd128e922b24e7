"""Document execution: reports, precedence, poisoning, determinism."""

from __future__ import annotations

import json
import pathlib
import time
from collections import Counter

import pytest

from loomalg import centroid_loop, findim, runner
from loomalg.dsl import parse
from loomalg.runner import (
    DEFAULT_SEED,
    SCHEMA_VERSION,
    WINDOW_LIMIT,
    execute,
    render_text,
    report_json,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run_file(name, **kw):
    result = parse((FIXTURES / name).read_text(encoding="utf-8"))
    assert result.ok, [str(d) for d in result.diagnostics]
    return execute(result.document, **kw)


def run_source(src, **kw):
    result = parse(src)
    assert result.ok, [str(d) for d in result.diagnostics]
    return execute(result.document, **kw)


def entry(report, title):
    found = [c for c in report["commands"] if c["command"] == title]
    assert found, f"no {title} entry"
    return found[0]


@pytest.fixture(scope="module")
def qt2_report():
    return run_file("quantum_torus_2.loom")


@pytest.fixture(scope="module")
def herm1_report():
    return run_file("hermitian_1.loom")


# -- envelope ---------------------------------------------------------------


def test_schema_and_defaults(qt2_report):
    assert qt2_report["schema_version"] == SCHEMA_VERSION == 1
    assert qt2_report["seed"] == DEFAULT_SEED
    assert qt2_report["root_order"] == 2
    assert qt2_report["ok"] is True
    assert [c["command"] for c in qt2_report["commands"]] == [
        "build tower", "centroid", "kind", "untwist", "type",
        "canonical-form",
    ]


def test_reports_are_byte_identical(herm1_report):
    again = run_file("hermitian_1.loom")
    assert report_json(again) == report_json(herm1_report)


def test_render_text_is_a_function_of_the_json(herm1_report):
    through_json = json.loads(report_json(herm1_report))
    assert render_text(through_json) == render_text(herm1_report)
    text = render_text(herm1_report)
    assert "kind" in text and "Second" in text


# -- window and seed precedence ---------------------------------------------

PRECEDENCE_SRC = (
    "field zeta 2;\n"
    "algebra A = mat(1);\n"
    "auto i = identity(A);\n"
    "tower T = multiloop(A, [i, i]);\n"
    "report box 3, 3;\n"
    "report seed 7;\n"
    "centroid T box 2, 2;\n"
    "untwist T;\n"
)


def test_command_box_beats_report_box():
    report = run_source(PRECEDENCE_SRC)
    assert entry(report, "centroid")["box"] == [2, 2]
    # untwist has no command box, so the report box applies
    assert entry(report, "untwist")["verified_box"] == [3, 3]


def test_cli_box_override_beats_everything():
    report = run_source(PRECEDENCE_SRC, box_override=(1, 1))
    assert entry(report, "centroid")["box"] == [1, 1]
    assert entry(report, "untwist")["verified_box"] == [1, 1]


def test_seed_precedence():
    assert run_source(PRECEDENCE_SRC)["seed"] == 7
    assert run_source(PRECEDENCE_SRC, seed=123)["seed"] == 123
    no_seed = PRECEDENCE_SRC.replace("report seed 7;\n", "")
    assert run_source(no_seed)["seed"] == DEFAULT_SEED


def test_default_box_when_nothing_specified():
    src = (
        "field zeta 2;\n"
        "algebra A = mat(1);\n"
        "auto i = identity(A);\n"
        "tower T = multiloop(A, [i, i]);\n"
        "centroid T;\n"
    )
    report = run_source(src)
    # both moduli are 1, so the default window has radius 2 per stage
    assert entry(report, "centroid")["box"] == [2, 2]
    assert entry(report, "centroid")["ok"] is True


# -- declaration poisoning --------------------------------------------------

POISON_SRC = (
    "field zeta 2;\n"
    "algebra A = mat(2);\n"
    "auto s = conj(A, [[1, 1], [1, 1]]);\n"
    "tower T = multiloop(A, [s, s]);\n"
    "build tower T;\n"
    "centroid T box 2, 2;\n"
)


def test_singular_conjugator_poisons_every_referencing_command():
    report = run_source(POISON_SRC)
    assert report["ok"] is False
    assert len(report["commands"]) == 2
    for cmd in report["commands"]:
        assert cmd["ok"] is False
        assert cmd["error"]["code"] == "singular-matrix"


def test_fail_fast_stops_at_the_first_failure():
    report = run_source(POISON_SRC, fail_fast=True)
    assert report["ok"] is False
    assert len(report["commands"]) == 1


# -- stage refusals ---------------------------------------------------------

STAGE_REFUSALS = {
    # conj by diag(1, i) has order 4, so sigma^2 moves E12 and E21
    "period-first-stage": (
        "field zeta 4;\nalgebra A = mat(2);\n"
        "auto s = conj(A, [[1, 0], [0, zeta(4)]]);\n"
        "tower T = loop(A, stage(s, 2));\n",
        "invalid-grading",
        "stage 1 twist does not satisfy sigma^2 = id (checked on box ())",
    ),
    "period-second-stage": (
        "field zeta 4;\nalgebra A = mat(2);\nauto id = identity(A);\n"
        "auto s = conj(A, [[1, 0], [0, zeta(4)]]);\n"
        "tower T = loop(A, stage(id, 1), stage(s, 2));\n",
        "invalid-grading",
        "stage 2 twist does not satisfy sigma^2 = id (checked on box (2,))",
    ),
    "other-base": (
        "field zeta 2;\nalgebra A = mat(2);\nalgebra B = mat(2);\n"
        "auto s = identity(B);\ntower T = loop(A, stage(s, 1));\n",
        "invalid-grading",
        "stage 1 twist coefficients act on a different base",
    ),
    "determinant-not-a-unit": (
        "field zeta 2;\nalgebra k = unit();\nauto id = identity(k);\n"
        "tower T = loop(k, stage(id, 1), stage(id, 1, [[2]], [0]));\n",
        "not-an-automorphism",
        "degree matrix determinant 2 is not a unit",
    ),
    "infinite-order": (
        "field zeta 2;\nalgebra k = unit();\nauto id = identity(k);\n"
        "tower T = loop(k, stage(id, 1), stage(id, 1), "
        "stage(id, 1, [[2, 1], [1, 1]], [0, 0]));\n",
        "not-an-automorphism",
        "degree matrix does not have finite order",
    ),
}


@pytest.mark.parametrize("name", sorted(STAGE_REFUSALS))
def test_refused_stages_carry_code_and_message(name):
    src, code, message = STAGE_REFUSALS[name]
    report = run_source(src + "build tower T;\n")
    assert report["ok"] is False
    assert entry(report, "build tower")["error"] == {
        "code": code, "message": message,
    }


# -- command content --------------------------------------------------------


def test_check_grading_entry():
    src = (
        "field zeta 2;\n"
        "algebra A = sl(2);\n"
        "auto s = matrix(A, [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]);\n"
        "grading G = eigenspaces(s);\n"
        "check grading G on A;\n"
    )
    report = run_source(src)
    got = entry(report, "check grading")
    assert got["ok"] is True
    assert got["grading_valid"] is True
    assert got["problems"] == []
    assert got["modulus"] == 2
    assert got["component_dims"] == [1, 2]


def test_build_tower_entry(qt2_report):
    got = entry(qt2_report, "build tower")
    assert got["arity"] == 2
    assert got["moduli"] == [2, 2]
    assert got["actual_periods"] == [2, 2]
    assert got["base_dim"] == 4
    flags = got["flags"]
    assert flags["base"]["simple"]["value"] is True
    assert flags["loop"]["perfect"]["value"] is True
    assert flags["loop"]["perfect"]["source"] == "verified-in-box"
    assert flags["loop"]["associative"]["source"] == "derived-by-theorem"


def test_centroid_entry_quantum_torus(qt2_report):
    got = entry(qt2_report, "centroid")
    assert got["ok"] is True
    assert got["box"] == [4, 4]
    assert got["stabilizer_dim"] == 25
    assert got["centroid_dimension"] == 2
    assert got["lattice"]["ok"] is True
    assert got["lattice"]["generators"] == [
        "z1^2", "z1^-2", "z2^2", "z2^-2"
    ]
    assert got["lattice"]["expected_count"] == 25
    assert got["stabilizer_dim_by_degree"]["0"] == 5
    assert got["stabilizer_dim_by_degree"]["-3"] == 0


def test_kind_entry_first(qt2_report):
    got = entry(qt2_report, "kind")
    assert got["kind"] == "First"
    assert got["centroid_dimension"] == 2
    assert got["rho_prime"] == "1"
    assert len(got["witness_generators"]) == 2
    assert "isomorphism_advisory" in got


def test_kind_entry_second(herm1_report):
    got = entry(herm1_report, "kind")
    assert got["kind"] == "Second"
    assert got["centroid_dimension"] == 2
    assert got["strange_rho"] == "1"
    assert got["relation"] == "w^2 = (u1^2 - 4 rho) u2"
    assert len(got["witness_generators"]) == 4


def test_centroid_entry_hermitian(herm1_report):
    got = entry(herm1_report, "centroid")
    assert got["ok"] is True
    assert got["stabilizer_dim"] == 23
    assert "lattice" not in got  # twisted tower, no lattice certificate


def test_untwist_entry(qt2_report):
    got = entry(qt2_report, "untwist")
    assert got["ok"] is True
    assert got["verified_box"] == [2, 2]
    assert got["untwist_rank"] == 4
    assert sorted(tuple(s) for s in got["sections"]) == [
        (0, 0), (0, 1), (1, 0), (1, 1)
    ]
    assert got["stabilizer_dim"] == 9


def test_type_entries(qt2_report, herm1_report):
    qt_type = entry(qt2_report, "type")
    assert qt_type["variety"] == "Associative"
    assert qt_type["label"] == "Mat2"
    assert qt_type["steps"] == 2
    assert qt_type["provenance"] == "by permanence"
    h_type = entry(herm1_report, "type")
    assert (h_type["variety"], h_type["label"]) == ("Lie", "A1")
    assert h_type["steps"] == 2


def test_canonical_form_entry(qt2_report):
    got = entry(qt2_report, "canonical-form")
    assert got["ok"] is True
    assert got["round_trip"] is True
    assert got["pieces"]
    for piece in got["pieces"]:
        assert len(piece["class"]) == 2
        assert piece["value"]


def test_canonical_form_unknown_label():
    src = (
        "field zeta 2;\n"
        "algebra A = mat(2);\n"
        "auto sd = conj(A, [[1, 0], [0, -1]]);\n"
        "auto sp = conj(A, [[0, 1], [1, 0]]);\n"
        "tower T = multiloop(A, [sd, sp]);\n"
        "canonical-form T of X9 * z(0, 0);\n"
    )
    report = run_source(src)
    got = entry(report, "canonical-form")
    assert got["ok"] is False
    assert got["error"]["code"] == "unknown-basis-label"


def test_canonical_form_superscript_label():
    # e followed by a superscript digit is a name, not e0..e3
    src = (
        "field zeta 2;\n"
        "algebra A = mat(2);\n"
        "auto sd = conj(A, [[1, 0], [0, -1]]);\n"
        "tower T = multiloop(A, [sd]);\n"
        "canonical-form T of e\u00b2 * z(1);\n"
    )
    got = entry(run_source(src), "canonical-form")
    assert got["ok"] is False
    assert got["error"]["code"] == "unknown-basis-label"


def test_canonical_form_label_with_thousands_of_digits():
    # int() refuses strings over 4,300 digits; the label is still only an
    # unknown name, and leading zeros still name a basis vector
    def canonical_form_of(label):
        return entry(run_source(
            "field zeta 2;\n"
            "algebra A = mat(2);\n"
            "auto sd = conj(A, [[1, 0], [0, -1]]);\n"
            "tower T = multiloop(A, [sd]);\n"
            f"canonical-form T of {label} * z(1);\n"
        ), "canonical-form")

    for label in ("e" + "1" * 5000, "e" + "0" * 5000 + "12"):
        got = canonical_form_of(label)
        assert got["ok"] is False
        assert got["error"]["code"] == "unknown-basis-label"
    plain = canonical_form_of("e1")
    assert plain["ok"] is True
    for label in ("e01", "e" + "0" * 5000 + "1"):
        assert canonical_form_of(label) == plain


# -- each structural fact once ----------------------------------------------


def test_structural_facts_are_computed_once_per_document(monkeypatch):
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name, id(args[0])] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return counted

    # one counter for the stabilizer solve in both namespaces that bind it
    solve = count(centroid_loop, "stabilizer_in_box")
    monkeypatch.setattr(runner, "stabilizer_in_box", solve)
    count(findim, "mult_algebra_basis")
    count(findim, "centroid")
    built = []

    def build_base(*args):
        built.append(findim.matrix_algebra(*args))
        return built[-1]

    monkeypatch.setattr(runner, "matrix_algebra", build_base)
    report = run_source(
        "field zeta 2;\n"
        "algebra A = mat(2);\n"
        "auto sd = conj(A, [[1, 0], [0, -1]]);\n"
        "auto sp = conj(A, [[0, 1], [1, 0]]);\n"
        "tower T = multiloop(A, [sd, sp]);\n"
        "build tower T;\n"
        "centroid T box 2, 2;\n"
        "kind T;\n"
        "type T;\n"
    )
    assert report["ok"] is True
    assert entry(report, "centroid")["lattice"]["ok"] is True
    (base,) = built
    solves = sum(n for (name, _), n in calls.items()
                 if name == "stabilizer_in_box")
    assert solves == 1
    assert calls["mult_algebra_basis", id(base)] == 1
    assert calls["centroid", id(base)] == 1


def test_untwist_reuses_the_box_its_centroid_solved(monkeypatch):
    # count the work inside the solve, not the calls to stabilizer_in_box
    actions = Counter()
    original = centroid_loop.centroid_action

    def counted(*args):
        actions["calls"] += 1
        return original(*args)

    monkeypatch.setattr(centroid_loop, "centroid_action", counted)
    head = (
        "field zeta 2;\n"
        "algebra A = mat(2);\n"
        "auto sd = conj(A, [[1, 0], [0, -1]]);\n"
        "auto sp = conj(A, [[0, 1], [1, 0]]);\n"
        "tower T = multiloop(A, [sd, sp]);\n"
        "centroid T box 1, 1;\n"
    )
    assert run_source(head)["ok"] is True
    one_solve = actions["calls"]
    assert one_solve > 0
    actions.clear()
    report = run_source(head + "untwist T box 1, 1;\n")
    assert report["ok"] is True
    assert entry(report, "untwist")["ok"] is True
    assert actions["calls"] == one_solve


def test_oversized_window_fails_fast():
    # volume 200001 over a one-dimensional base: the solve ran past 20 s
    # before the runner refused windows above WINDOW_LIMIT
    started = time.perf_counter()
    report = run_source(
        "algebra k = unit();\n"
        "auto id = identity(k);\n"
        "tower T = loop(k, stage(id, 1));\n"
        "centroid T box 100000;\n"
        "untwist T;\n"
    )
    assert time.perf_counter() - started < 1.0
    centroid, untwist = report["commands"]
    assert centroid["error"]["code"] == "window-too-large"
    assert str(WINDOW_LIMIT) in centroid["error"]["message"]
    # the default window of the same tower is far below the limit
    assert untwist["ok"] is True


def test_window_limit_is_far_above_every_fixture_window():
    for path in sorted(FIXTURES.glob("*.loom")):
        result = parse(path.read_text(encoding="utf-8"))
        ctx = runner._RunContext(result.document, None, None)
        for cmd in result.document.commands:
            if cmd.op in ("centroid", "untwist"):
                tower = ctx.obj(cmd.target)
                box = ctx.window(cmd, tower)
                assert 10 * box.volume() * tower.base.dim <= WINDOW_LIMIT
