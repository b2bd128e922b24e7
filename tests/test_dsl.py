"""Parser, diagnostics corpus, and printer round trips."""

from __future__ import annotations

import pathlib

import pytest

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
