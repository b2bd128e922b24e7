"""Parser, diagnostics corpus, and printer round trips."""

from __future__ import annotations

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loomalg.dsl import DIAGNOSTIC_CODES, Diagnostic, Span, format_document, parse

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
MAIN_DOCS = sorted(FIXTURES.glob("*.loom"))
DIAG_DOCS = sorted((FIXTURES / "diagnostics").glob("*.loom"))


def expected_outcome(path: pathlib.Path):
    """Each corpus file declares its own expectation on the first line."""
    head = path.read_text(encoding="utf-8").splitlines()[0]
    assert head.startswith("# expect "), path.name
    kind, _, code = head[len("# expect "):].partition(":")
    return kind.strip(), code.strip()


# -- main corpus ------------------------------------------------------------


@pytest.mark.parametrize("path", MAIN_DOCS, ids=lambda p: p.stem)
def test_fixture_documents_parse_clean(path):
    result = parse(path.read_text(encoding="utf-8"))
    assert result.ok, [str(d) for d in result.diagnostics]
    assert result.errors == []


@pytest.mark.parametrize("path", MAIN_DOCS, ids=lambda p: p.stem)
def test_print_parse_round_trip(path):
    first = parse(path.read_text(encoding="utf-8"))
    assert first.ok
    printed = format_document(first.document)
    second = parse(printed)
    assert second.ok, [str(d) for d in second.diagnostics]
    assert second.document == first.document
    # canonical form is a fixed point of the printer
    assert format_document(second.document) == printed


def test_canonical_form_is_one_statement_per_line():
    result = parse(MAIN_DOCS[0].read_text(encoding="utf-8"))
    printed = format_document(result.document)
    lines = [ln for ln in printed.splitlines() if ln.strip()]
    assert len(lines) == len(result.document.statements)
    for ln in lines:
        assert ln.rstrip().endswith(";")


# -- diagnostics corpus -----------------------------------------------------


@pytest.mark.parametrize("path", DIAG_DOCS, ids=lambda p: p.stem)
def test_diagnostics_corpus(path):
    kind, code = expected_outcome(path)
    result = parse(path.read_text(encoding="utf-8"))
    if kind == "error":
        assert not result.ok
        assert code in {d.code for d in result.errors}, (
            [str(d) for d in result.diagnostics]
        )
    else:
        assert kind == "warning"
        assert result.ok
        assert code in {d.code for d in result.warnings}, (
            [str(d) for d in result.diagnostics]
        )


def test_corpus_covers_every_documented_code():
    seen = {expected_outcome(p)[1] for p in DIAG_DOCS}
    assert seen == set(DIAGNOSTIC_CODES)


def test_diagnostics_are_position_sorted():
    for path in DIAG_DOCS:
        result = parse(path.read_text(encoding="utf-8"))
        keys = [
            (d.span.line, d.span.col, d.severity == "warning")
            for d in result.diagnostics
        ]
        assert keys == sorted(keys), path.name


# -- diagnostics object -----------------------------------------------------


def test_diagnostic_string_format():
    d = Diagnostic("error", Span(3, 7, 3, 9), "boom", "bad-literal")
    assert str(d) == "3:7: error[bad-literal]: boom"
    with pytest.raises(ValueError):
        Diagnostic("fatal", Span(1, 1, 1, 1), "x", "bad-literal")
    with pytest.raises(ValueError):
        Diagnostic("error", Span(1, 1, 1, 1), "x", "made-up-code")


# -- grammar corners --------------------------------------------------------


def test_reserved_words_cannot_be_names():
    result = parse("algebra field = mat(2);")
    assert not result.ok


def test_hyphenated_identifiers_glue():
    src = "field zeta 2; algebra my-alg = mat(2); auto s = identity(my-alg);\nbuild tower T;"
    result = parse(src)
    # T unresolved, but my-alg must have resolved as a single token
    codes = {d.code for d in result.errors}
    assert "unresolved-name" in codes
    messages = " ".join(d.message for d in result.diagnostics)
    assert "my-alg" not in messages or "T" in messages


def test_hyphenated_name_round_trips():
    src = (
        "field zeta 2;\n"
        "algebra my-alg = mat(2);\n"
        "auto flip-sign = identity(my-alg);\n"
        "grading G = eigenspaces(flip-sign);\n"
        "check grading G on my-alg;\n"
    )
    first = parse(src)
    assert first.ok, [str(d) for d in first.diagnostics]
    printed = format_document(first.document)
    assert "my-alg" in printed and "flip-sign" in printed
    assert parse(printed).document == first.document


def test_superscript_digit_is_a_syntax_error():
    # str.isdigit accepts superscripts that int() cannot read
    result = parse("field zeta \u00b2;\n")
    assert [d.code for d in result.errors] == ["syntax-error"]


def test_integer_past_the_conversion_limit_is_a_bad_literal():
    # CPython reads at most 4300 digits by default
    result = parse("field zeta " + "9" * 5000 + ";\n")
    assert [str(d) for d in result.errors] == [
        "1:12: error[bad-literal]: integer literal of 5000 digits is too long"
    ]


def test_parse_is_deterministic():
    src = (FIXTURES / "hermitian_1.loom").read_text(encoding="utf-8")
    a, b = parse(src), parse(src)
    assert a.document == b.document
    assert [str(d) for d in a.diagnostics] == [str(d) for d in b.diagnostics]


def test_parses_of_one_text_share_identifier_strings():
    # identifiers are interned, so parse trees kept side by side hold one
    # string per distinct name instead of one per parse
    src = (FIXTURES / "hermitian_1.loom").read_text(encoding="utf-8")

    def names(doc):
        return [s.name for s in doc.statements if hasattr(s, "name")] + [
            c.target for c in doc.commands
        ]

    first, second = names(parse(src).document), names(parse(src).document)
    assert "s1" in first and first == second
    assert all(x is y for x, y in zip(first, second))


def test_comments_are_dropped_by_the_printer():
    src = "# leading note\nfield zeta 2; algebra A = mat(2); # trailing\nbuild tower A;"
    result = parse(src)
    # build applied to an algebra name: wrong reference kind
    assert not result.ok
    assert "wrong-reference-kind" in {d.code for d in result.errors}


def test_warning_only_documents_still_build():
    src = "field zeta 2;\nalgebra A = mat(2);\n"
    result = parse(src)
    assert result.ok
    codes = {d.code for d in result.warnings}
    assert "no-commands" in codes
    assert "unused-declaration" in codes


# -- malformed lists --------------------------------------------------------

# Every bracketed and comma-separated list goes through one parser routine;
# these documents pin the full diagnostic text, position and code for
# malformed lists.  Only the character vector may be empty, so its `[]`
# parses and only the length check fires.
LIST_HEAD = "field zeta 2;\nalgebra A = mat(2);\n"
MALFORMED_LISTS = {
    "empty-matrix-row": (
        "auto s = matrix(A, [[1, 0, 0, 0], []]);\n",
        [
            "1:1: warning[no-commands]: document has no commands",
            "2:1: warning[unused-declaration]: 'A' is never used",
            "3:36: error[syntax-error]: expected an integer, found ']'",
        ],
    ),
    "empty-degree-row": (
        "auto id = identity(A);\ntower T = loop(A, stage(id, 2, [[]], [0]));\nbuild tower T;\n",
        [
            "3:1: warning[unused-declaration]: 'id' is never used",
            "4:34: error[syntax-error]: expected an integer, found ']'",
            "5:1: error[unresolved-name]: unresolved name 'T'",
        ],
    ),
    "trailing-comma-in-matrix": (
        "auto s = conj(A, [[1, 0], [0, -1],]);\n",
        [
            "1:1: warning[no-commands]: document has no commands",
            "2:1: warning[unused-declaration]: 'A' is never used",
            "3:35: error[syntax-error]: expected '[', found ']'",
        ],
    ),
    "trailing-comma-in-box": (
        "auto s = identity(A);\ntower T = multiloop(A, [s]);\ncentroid T box 1, ;\n",
        [
            "1:1: warning[no-commands]: document has no commands",
            "4:1: warning[unused-declaration]: 'T' is never used",
            "5:19: error[syntax-error]: expected an integer, found ';'",
        ],
    ),
    "trailing-comma-in-character": (
        "auto id = identity(A);\ntower T = loop(A, stage(id, 2, [[-1]], [0,]));\nbuild tower T;\n",
        [
            "3:1: warning[unused-declaration]: 'id' is never used",
            "4:43: error[syntax-error]: expected an integer, found ']'",
            "5:1: error[unresolved-name]: unresolved name 'T'",
        ],
    ),
    "missing-bracket-in-matrix": (
        "auto s = conj(A, [[1, 0], [0, -1]);\n",
        [
            "1:1: warning[no-commands]: document has no commands",
            "2:1: warning[unused-declaration]: 'A' is never used",
            "3:34: error[syntax-error]: expected ']', found ')'",
        ],
    ),
    "missing-bracket-in-names": (
        "auto s = identity(A);\ntower T = multiloop(A, [s);\nbuild tower T;\n",
        [
            "3:1: warning[unused-declaration]: 's' is never used",
            "4:26: error[syntax-error]: expected ']', found ')'",
            "5:1: error[unresolved-name]: unresolved name 'T'",
        ],
    ),
    "empty-character-vector": (
        "auto id = identity(A);\ntower T = loop(A, stage(id, 2), stage(id, 2, [[-1]], []));\nbuild tower T;\n",
        [
            "4:33: error[shape-mismatch]: stage 2 character vector must have length 1",
        ],
    ),
    "empty-degree-matrix": (
        "auto id = identity(A);\ntower T = loop(A, stage(id, 2, [], []));\nbuild tower T;\n",
        [
            "3:1: warning[unused-declaration]: 'id' is never used",
            "4:33: error[syntax-error]: expected '[', found ']'",
            "5:1: error[unresolved-name]: unresolved name 'T'",
        ],
    ),
    "empty-multiloop-list": (
        "auto s = identity(A);\ntower T = multiloop(A, []);\nbuild tower T;\n",
        [
            "3:1: warning[unused-declaration]: 's' is never used",
            "4:25: error[syntax-error]: expected the name of a declaration, found ']'",
            "5:1: error[unresolved-name]: unresolved name 'T'",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_LISTS))
def test_malformed_lists_keep_their_diagnostics(name):
    body, want = MALFORMED_LISTS[name]
    result = parse(LIST_HEAD + body)
    assert [str(d) for d in result.diagnostics] == want


# -- grammar property tests -------------------------------------------------

_NAMES = ("A", "B", "C", "s", "t", "u", "G", "H", "T", "U", "V", "my-alg")
_LABELS = ("e0", "e1", "E11", "E12", "h", "i")


def _ints(values) -> str:
    return ", ".join(str(v) for v in values)


@st.composite
def _scalar_text(draw, orders):
    sign = draw(st.sampled_from(("", "-")))
    zeta = ""
    if draw(st.booleans()):
        zeta = f"zeta({draw(st.sampled_from(orders))})"
        if draw(st.booleans()):
            zeta += f"^{draw(st.integers(-5, 5))}"
        if draw(st.booleans()):
            return sign + zeta
    rat = str(draw(st.integers(0, 20)))
    if draw(st.booleans()):
        rat += f"/{draw(st.integers(1, 9))}"
    return sign + rat + (f" * {zeta}" if zeta else "")


def _matrix_text(draw, entry, rows, cols):
    return "[" + ", ".join(
        "[" + ", ".join(draw(entry) for _ in range(cols)) + "]"
        for _ in range(rows)
    ) + "]"


@st.composite
def loom_documents(draw):
    """Document text drawn from the grammar.  Most statements are valid:
    references name an earlier declaration of the right kind, and shapes,
    sizes and root orders fit.  About one draw in thirty is a slip (an
    unknown or reused name, a bad literal, a wrong shape, a missing
    root), so the validator's diagnostics run too."""
    def slip():
        return draw(st.integers(0, 29)) == 0

    order = draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
    divisors = [d for d in range(1, order + 1) if order % d == 0]
    algebras, autos, gradings, towers = {}, [], [], {}
    used = set()

    def fresh():
        free = [n for n in _NAMES if n not in used]
        name = draw(st.sampled_from(_NAMES if slip() or not free else free))
        used.add(name)
        return name

    def ref(pool):
        if slip():
            return draw(st.sampled_from(_NAMES))
        return draw(st.sampled_from(sorted(pool)))

    def modulus():
        return 0 if slip() else draw(st.sampled_from(divisors))

    def root_order():
        return draw(st.sampled_from((5, 7) if slip() else divisors))

    lines = [f"field zeta {0 if slip() else order};"]
    # every document builds a tower and runs a command on it; the
    # statements in between are drawn from what is declared so far
    script = ["algebra", "auto", "tower"]
    script += [None] * draw(st.integers(0, 10)) + ["build"]
    for what in script:
        if what is None:
            options = ["field", "report"] + ["algebra"] * (4 - len(algebras))
            options += ["auto"] * 3 + ["type"] + ["grading"] + ["tower"] * 3
            options += ["check"] * bool(gradings)
            options += ["build", "centroid", "untwist", "kind",
                        "canonical-form"] * 2
            what = draw(st.sampled_from(options))
        if what == "field":
            lines.append(f"field zeta {draw(st.sampled_from(divisors))};")
        elif what == "algebra":
            kind = draw(st.sampled_from(("mat", "sl", "unit", "quaternion")))
            size = None
            if kind in ("mat", "sl"):
                size = 0 if slip() else draw(st.integers(
                    1 if kind == "mat" else 2, 3))
            name = fresh()
            dim = {"mat": (size or 0) ** 2, "sl": (size or 0) ** 2 - 1,
                   "unit": 1, "quaternion": 4}[kind]
            algebras[name] = (kind, size, dim)
            lines.append(
                f"algebra {name} = {kind}({'' if size is None else size});")
        elif what == "auto":
            target = ref(algebras)
            kind, size, dim = algebras.get(target, ("unit", None, 1))
            choices = ["identity"]
            if kind in ("mat", "sl") or slip():
                choices.append("conj")
            if dim <= 4:
                choices.append("matrix")
            op = draw(st.sampled_from(choices))
            body = target
            if op != "identity":
                n = (size or 2) if op == "conj" else dim
                rows, cols = (draw(st.integers(1, 3)),) * 2 if slip() \
                    else (n, n)
                body += ", " + _matrix_text(
                    draw, _scalar_text([root_order()]), rows, max(cols, 1))
            name = fresh()
            autos.append(name)
            lines.append(f"auto {name} = {op}({body});")
        elif what == "grading":
            mod = f", {modulus()}" if draw(st.booleans()) else ""
            name = fresh()
            gradings.append(name)
            lines.append(
                f"grading {name} = eigenspaces({ref(autos)}{mod});")
        elif what == "tower":
            base = ref(algebras) if algebras else draw(st.sampled_from(_NAMES))
            arity = draw(st.integers(1, 3))
            if draw(st.booleans()):
                names = _ints(ref(autos) for _ in range(arity))
                body = f"multiloop({base}, [{names}])"
            else:
                stages = []
                for p in range(arity):
                    stage = f"stage({ref(autos)}, {modulus()}"
                    if p and draw(st.integers(0, 3)):
                        side = p + 1 if slip() else p
                        stage += ", " + _matrix_text(
                            draw, st.integers(-2, 2).map(str), side, side)
                        c = [draw(st.integers(-3, 3)) for _ in range(p)]
                        stage += f", [{_ints(c)}]"
                        if draw(st.integers(0, 3)):
                            stage += f", zeta({root_order()})"
                    stages.append(stage + ")")
                body = f"loop({base}, {', '.join(stages)})"
            name = fresh()
            towers[name] = arity
            lines.append(f"tower {name} = {body};")
        elif what == "report":
            if draw(st.booleans()):
                radii = [draw(st.integers(-1 if slip() else 0, 3))
                         for _ in range(draw(st.integers(1, 3)))]
                lines.append(f"report box {_ints(radii)};")
            else:
                lines.append(f"report seed {draw(st.integers(0, 99))};")
        elif what == "type":
            pool = {**algebras, **towers}
            lines.append(f"type {ref(pool)};")
        elif what == "check":
            lines.append(
                f"check grading {ref(gradings)} on {ref(algebras)};")
        else:
            target = ref(towers)
            arity = towers.get(target, 1) + (1 if slip() else 0)
            if what == "build":
                lines.append(f"build tower {target};")
            elif what == "kind":
                lines.append(f"kind {target};")
            elif what in ("centroid", "untwist"):
                box = ""
                if draw(st.booleans()):
                    radii = [draw(st.integers(0, 3)) for _ in range(arity)]
                    box = f" box {_ints(radii)}"
                lines.append(f"{what} {target}{box};")
            else:
                terms = []
                for k in range(draw(st.integers(1, 3))):
                    joiner = draw(st.sampled_from(
                        ("", "-") if k == 0 else ("+", "-")))
                    coeff = ""
                    if draw(st.booleans()):
                        coeff = draw(_scalar_text([root_order()])) + " * "
                    label = draw(st.sampled_from(_LABELS))
                    degree = _ints(draw(st.integers(-4, 4))
                                   for _ in range(arity))
                    terms.append(
                        f"{joiner} {coeff}{label} * z({degree})".strip())
                lines.append(
                    f"canonical-form {target} of {' '.join(terms)};")
    return "\n".join(lines) + "\n"


def _check_parse(source):
    """parse raises nothing and reports only documented codes; a parsed
    document prints to a fixed point that parses back to itself."""
    result = parse(source)
    assert all(d.code in DIAGNOSTIC_CODES for d in result.diagnostics)
    assert result.ok == (not result.errors)
    if result.ok:
        printed = format_document(result.document)
        again = parse(printed)
        assert again.document == result.document
        assert format_document(again.document) == printed


@settings(max_examples=100)
@given(loom_documents())
def test_grammar_documents_round_trip_through_the_printer(source):
    _check_parse(source)


@settings(max_examples=100)
@given(loom_documents(), st.data())
def test_damaged_documents_get_coded_diagnostics(source, data):
    # delete a stretch of the text and insert a stray character, so the
    # parser's recovery and the lexer's refusals run too
    start = data.draw(st.integers(0, len(source)))
    stop = data.draw(st.integers(start, min(len(source), start + 8)))
    stray = data.draw(st.sampled_from(
        ";=()[],+-*^/#\n 0aZ_²٣é$"))
    at = data.draw(st.integers(0, len(source) - (stop - start)))
    damaged = source[:start] + source[stop:]
    _check_parse(damaged[:at] + stray + damaged[at:])
