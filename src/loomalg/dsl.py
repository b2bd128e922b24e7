"""Declaration language for fields, algebras, automorphisms, and towers.

A document is a list of semicolon-terminated statements: `field zeta N`
declarations fixing the session field, named declarations (`algebra`,
`auto`, `grading`, `tower`), report options, and analysis commands.  parse
returns either a validated Document or a list of positioned diagnostics;
format_document renders the canonical form, and parsing that form again
yields a structurally equal Document.

Scalars in matrix literals are exact: an optional sign, a rational part,
and an optional root-of-unity factor `zeta(k)^p`.  All name resolution,
shape checking, and root-order checking that does not require building the
objects happens here; everything else is the runner's job.
"""

from __future__ import annotations

import sys
from math import lcm

# Stable diagnostic codes.  Every code is exercised by a corpus file under
# fixtures/diagnostics and the table below is the documentation of record.
DIAGNOSTIC_CODES = {
    "syntax-error": "the source text does not match the grammar",
    "bad-literal": "a literal is out of range (zero denominator, zero "
                   "modulus, undersized algebra, zeta(0), an integer too long "
                   "to read)",
    "duplicate-name": "a name is declared twice",
    "unresolved-name": "a reference to a name with no earlier declaration",
    "wrong-reference-kind": "a name resolves to a declaration of the wrong "
                            "kind for its position",
    "root-order-shortfall": "a declaration needs a root of unity the "
                            "declared field orders do not provide",
    "shape-mismatch": "a matrix, vector, box, or degree has the wrong "
                      "shape for its target",
    "conj-unsupported": "conj() applied to an algebra with no matrix "
                        "realization in this language",
    "unused-declaration": "a declared name is never referenced (warning)",
    "no-commands": "the document declares objects but runs nothing "
                   "(warning)",
}

_RESERVED = frozenset((
    "field", "zeta", "algebra", "auto", "grading", "tower", "check",
    "report", "build", "centroid", "kind", "type", "untwist", "on", "of",
    "box", "seed", "stage", "loop", "multiloop", "eigenspaces", "conj",
    "matrix", "identity", "mat", "sl", "unit", "quaternion",
    "canonical-form", "z",
))

_PUNCT = frozenset(";=()[],+-*^/")


_set = object.__setattr__


class _Record:
    """Immutable slotted syntax-tree record.

    A subclass lists its fields in __slots__ and sets them in its own
    __init__ through _set.  Equality and hashing read the fields named in
    _compared: by default every field but the source span, so a document
    parsed back from its canonical form is equal to the original.  repr
    shows every field."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        if "_compared" not in cls.__dict__:
            cls._compared = tuple(f for f in cls.__slots__ if f != "span")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)


class Span(_Record):
    __slots__ = ("line", "col", "end_line", "end_col")

    def __init__(self, line: int, col: int, end_line: int, end_col: int):
        _set(self, "line", line)
        _set(self, "col", col)
        _set(self, "end_line", end_line)
        _set(self, "end_col", end_col)

    def __str__(self):
        return f"{self.line}:{self.col}"


class Diagnostic(_Record):
    __slots__ = ("severity", "span", "message", "code")
    _compared = __slots__  # where a diagnostic points is part of it

    def __init__(self, severity: str, span: Span, message: str, code: str):
        _set(self, "severity", severity)
        _set(self, "span", span)
        _set(self, "message", message)
        _set(self, "code", code)
        self.__post_init__()

    def __post_init__(self):
        if self.severity not in ("error", "warning"):
            raise ValueError(self.severity)
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(self.code)

    def __str__(self):
        return (
            f"{self.span}: {self.severity}[{self.code}]: {self.message}"
        )


class Token(_Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        _set(self, "kind", kind)  # name | int | punct | eof
        _set(self, "text", text)
        _set(self, "line", line)
        _set(self, "col", col)

    @property
    def span(self) -> Span:
        return Span(self.line, self.col, self.line,
                    self.col + max(1, len(self.text)))


class _LexError(Exception):
    def __init__(self, span, message):
        self.span = span
        self.message = message


def _lex(source: str):
    """Token list.  `#` comments run to end of line.  A hyphen joins an
    identifier when squeezed between a word character and a letter, so
    `canonical-form` is one name while `z(1,-2)` keeps its minus sign."""
    tokens = []
    line, col, i, n = 1, 1, 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
                if (j < n - 1 and source[j] == "-"
                        and source[j + 1].isalpha()):
                    j += 1
            # interned: every parse of a name shares one string object, so
            # parse trees kept together do not each hold their own copies
            text = sys.intern(source[i:j])
            tokens.append(Token("name", text, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            tokens.append(Token("int", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise _LexError(
            Span(line, start_col, line, start_col + 1),
            f"unexpected character {ch!r}",
        )
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# syntax tree


class Scalar(_Record):
    """Exact literal:
    sign * (numerator/denominator) * zeta(zeta_order)^zeta_power."""
    __slots__ = ("negative", "numerator", "denominator", "zeta_order",
                 "zeta_power")

    def __init__(self, negative: bool = False, numerator: int = 1,
                 denominator: int = 1, zeta_order: int | None = None,
                 zeta_power: int = 1):
        _set(self, "negative", negative)
        _set(self, "numerator", numerator)
        _set(self, "denominator", denominator)
        _set(self, "zeta_order", zeta_order)
        _set(self, "zeta_power", zeta_power)



class FieldDecl(_Record):
    __slots__ = ("order", "span")

    def __init__(self, order: int, span: Span = None):
        _set(self, "order", order)
        _set(self, "span", span)


class AlgebraDecl(_Record):
    __slots__ = ("name", "kind", "size", "span")

    def __init__(self, name: str, kind: str, size: int | None,
                 span: Span = None):
        _set(self, "name", name)
        _set(self, "kind", kind)  # mat | sl | unit | quaternion
        _set(self, "size", size)
        _set(self, "span", span)

    @property
    def dim(self) -> int:
        if self.kind == "mat":
            return self.size * self.size
        if self.kind == "sl":
            return self.size * self.size - 1
        if self.kind == "unit":
            return 1
        return 4  # quaternion

    @property
    def matrix_size(self) -> int | None:
        """Defining matrix size, for the algebras that have one."""
        if self.kind in ("mat", "sl"):
            return self.size
        return None


class AutoDecl(_Record):
    __slots__ = ("name", "kind", "target", "entries", "span")

    def __init__(self, name: str, kind: str, target: str, entries: tuple,
                 span: Span = None):
        _set(self, "name", name)
        _set(self, "kind", kind)  # conj | matrix | identity
        _set(self, "target", target)
        # tuple of row tuples of Scalar; () for identity
        _set(self, "entries", entries)
        _set(self, "span", span)


class GradingDecl(_Record):
    __slots__ = ("name", "auto", "modulus", "span")

    def __init__(self, name: str, auto: str, modulus: int | None,
                 span: Span = None):
        _set(self, "name", name)
        _set(self, "auto", auto)
        _set(self, "modulus", modulus)
        _set(self, "span", span)


class StageExpr(_Record):
    __slots__ = ("auto", "modulus", "m_matrix", "c_vector", "char_order",
                 "span")

    def __init__(self, auto: str, modulus: int, m_matrix: tuple | None,
                 c_vector: tuple | None, char_order: int | None,
                 span: Span = None):
        _set(self, "auto", auto)
        _set(self, "modulus", modulus)
        # integer rows; None means identity action
        _set(self, "m_matrix", m_matrix)
        # integers; None means zero character
        _set(self, "c_vector", c_vector)
        # zeta(r) for the character; None means trivial
        _set(self, "char_order", char_order)
        _set(self, "span", span)


class TowerDecl(_Record):
    __slots__ = ("name", "kind", "base", "autos", "stages", "span")

    def __init__(self, name: str, kind: str, base: str, autos: tuple,
                 stages: tuple, span: Span = None):
        _set(self, "name", name)
        _set(self, "kind", kind)  # multiloop | loop
        _set(self, "base", base)
        _set(self, "autos", autos)  # names, multiloop only
        _set(self, "stages", stages)  # StageExpr, loop only
        _set(self, "span", span)

    @property
    def arity(self) -> int:
        return len(self.autos) if self.kind == "multiloop" else len(
            self.stages
        )


class ReportOpt(_Record):
    __slots__ = ("key", "values", "span")

    def __init__(self, key: str, values: tuple, span: Span = None):
        _set(self, "key", key)  # box | seed
        _set(self, "values", values)
        _set(self, "span", span)


class ElementTerm(_Record):
    __slots__ = ("sign", "coeff", "label", "degree", "span")

    def __init__(self, sign: int, coeff: Scalar | None, label: str,
                 degree: tuple, span: Span = None):
        _set(self, "sign", sign)  # +1 or -1, the joiner sign
        # None means coefficient 1 written implicitly
        _set(self, "coeff", coeff)
        _set(self, "label", label)
        _set(self, "degree", degree)
        _set(self, "span", span)


class Command(_Record):
    __slots__ = ("op", "target", "second", "box", "element", "span")

    def __init__(self, op: str, target: str, second: str | None = None,
                 box: tuple | None = None, element: tuple | None = None,
                 span: Span = None):
        # check-grading | build-tower | centroid | kind | type | untwist
        # | canonical-form
        _set(self, "op", op)
        _set(self, "target", target)
        _set(self, "second", second)
        _set(self, "box", box)
        _set(self, "element", element)
        _set(self, "span", span)


def _root_order(statements) -> int:
    """The order of the root the declared fields provide: the lcm of the
    field orders, 1 when no field is declared."""
    return lcm(*(s.order for s in statements if isinstance(s, FieldDecl)))


class Document:
    """Validated program: orders, declarations, and commands, in order."""

    def __init__(self, statements):
        self.statements = tuple(statements)
        self.root_order = _root_order(self.statements)
        self.decls = {}
        for s in self.statements:
            if isinstance(s, (AlgebraDecl, AutoDecl, GradingDecl,
                              TowerDecl)):
                self.decls[s.name] = s
        self.commands = tuple(
            s for s in self.statements if isinstance(s, Command)
        )
        self.report_box = None
        self.report_seed = None
        for s in self.statements:
            if isinstance(s, ReportOpt):
                if s.key == "box":
                    self.report_box = s.values
                else:
                    self.report_seed = s.values[0]

    def __eq__(self, other):
        if not isinstance(other, Document):
            return NotImplemented
        return self.statements == other.statements

    def __repr__(self):
        return (
            f"<Document N={self.root_order} decls={len(self.decls)} "
            f"commands={len(self.commands)}>"
        )


class ParseResult:
    def __init__(self, document, diagnostics):
        self.document = document
        self.diagnostics = list(diagnostics)

    @property
    def ok(self) -> bool:
        return self.document is not None

    @property
    def errors(self):
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self):
        return [d for d in self.diagnostics if d.severity == "warning"]


# ---------------------------------------------------------------------------
# parser


class _SyntaxFail(Exception):
    def __init__(self, diagnostic):
        self.diagnostic = diagnostic


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics = []

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message, span=None, code="syntax-error"):
        span = span or self.peek().span
        raise _SyntaxFail(Diagnostic("error", span, message, code))

    def expect_punct(self, ch) -> Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == ch:
            return self.advance()
        self.fail(f"expected {ch!r}, found {tok.text!r}"
                  if tok.kind != "eof" else f"expected {ch!r}, found end "
                  "of input")

    def expect_word(self, word) -> Token:
        tok = self.peek()
        if tok.kind == "name" and tok.text == word:
            return self.advance()
        self.fail(f"expected {word!r}, found {tok.text!r}"
                  if tok.kind != "eof" else f"expected {word!r}, found end "
                  "of input")

    def at_word(self, word) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text == word

    def at_punct(self, ch) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == ch

    def fresh_name(self) -> Token:
        tok = self.peek()
        if tok.kind != "name":
            self.fail(f"expected a name, found {tok.text!r}" if tok.kind
                      != "eof" else "expected a name, found end of input")
        if tok.text in _RESERVED:
            self.fail(f"{tok.text!r} is a reserved word")
        return self.advance()

    def ref_name(self) -> Token:
        tok = self.peek()
        if tok.kind != "name" or tok.text in _RESERVED:
            self.fail("expected the name of a declaration, found "
                      + (repr(tok.text) if tok.kind != "eof"
                         else "end of input"))
        return self.advance()

    def int_literal(self) -> int:
        tok = self.peek()
        if tok.kind != "int":
            self.fail(f"expected an integer, found {tok.text!r}"
                      if tok.kind != "eof"
                      else "expected an integer, found end of input")
        self.advance()
        try:
            return int(tok.text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            self.fail(f"integer literal of {len(tok.text)} digits is too "
                      "long", span=tok.span, code="bad-literal")

    def signed_int(self) -> int:
        if self.at_punct("-"):
            self.advance()
            return -self.int_literal()
        return self.int_literal()

    def comma_list(self, item):
        """One or more items separated by commas."""
        vals = [item()]
        while self.at_punct(","):
            self.advance()
            vals.append(item())
        return tuple(vals)

    def bracketed(self, item, empty=False):
        """`[` comma_list `]`; with empty, `[]` gives ()."""
        self.expect_punct("[")
        vals = () if empty and self.at_punct("]") else self.comma_list(item)
        self.expect_punct("]")
        return vals

    # -- literals ----------------------------------------------------------

    def zeta_factor(self):
        """zeta(k) or zeta(k)^p; returns (order, power)."""
        span = self.expect_word("zeta").span
        self.expect_punct("(")
        order = self.int_literal()
        self.expect_punct(")")
        power = 1
        if self.at_punct("^"):
            self.advance()
            power = self.signed_int()
        if order < 1:
            self.fail("zeta order must be at least 1", span=span,
                      code="bad-literal")
        return order, power

    def scalar(self) -> Scalar:
        negative = False
        if self.at_punct("-"):
            self.advance()
            negative = True
        if self.at_word("zeta"):
            order, power = self.zeta_factor()
            return Scalar(negative, 1, 1, order, power)
        span = self.peek().span
        num = self.int_literal()
        den = 1
        if self.at_punct("/"):
            self.advance()
            den = self.int_literal()
            if den == 0:
                self.fail("zero denominator", span=span, code="bad-literal")
        if self.at_punct("*") and self.tokens[self.pos + 1].text == "zeta":
            self.advance()
            order, power = self.zeta_factor()
            return Scalar(negative, num, den, order, power)
        return Scalar(negative, num, den, None, 1)

    # -- statements --------------------------------------------------------

    def document(self):
        statements = []
        while self.peek().kind != "eof":
            try:
                statements.append(self.statement())
            except _SyntaxFail as exc:
                self.diagnostics.append(exc.diagnostic)
                self.recover()
        return statements

    def recover(self):
        """Skip past the next `;` so later statements still get checked."""
        while self.peek().kind != "eof":
            tok = self.advance()
            if tok.kind == "punct" and tok.text == ";":
                return

    def statement(self):
        tok = self.peek()
        if tok.kind != "name":
            self.fail(f"expected a statement keyword, found {tok.text!r}")
        word = tok.text
        if word == "field":
            return self.field_stmt()
        if word == "algebra":
            return self.algebra_stmt()
        if word == "auto":
            return self.auto_stmt()
        if word == "grading":
            return self.grading_stmt()
        if word == "tower":
            return self.tower_stmt()
        if word == "report":
            return self.report_stmt()
        if word in ("check", "build", "centroid", "kind", "type",
                    "untwist", "canonical-form"):
            return self.command_stmt()
        self.fail(f"expected a statement keyword, found {word!r}")

    def field_stmt(self):
        start = self.expect_word("field")
        self.expect_word("zeta")
        span = self.peek().span
        order = self.int_literal()
        if order < 1:
            self.fail("field order must be at least 1", span=span,
                      code="bad-literal")
        self.expect_punct(";")
        return FieldDecl(order, span=start.span)

    def algebra_stmt(self):
        start = self.expect_word("algebra")
        name = self.fresh_name()
        self.expect_punct("=")
        tok = self.peek()
        if tok.kind != "name" or tok.text not in ("mat", "sl", "unit",
                                                  "quaternion"):
            self.fail("expected one of mat, sl, unit, quaternion")
        kind = self.advance().text
        self.expect_punct("(")
        size = None
        if kind in ("mat", "sl"):
            size_span = self.peek().span
            size = self.int_literal()
            floor = 1 if kind == "mat" else 2
            if size < floor:
                self.fail(f"{kind} size must be at least {floor}",
                          span=size_span, code="bad-literal")
        self.expect_punct(")")
        self.expect_punct(";")
        return AlgebraDecl(name.text, kind, size, span=start.span)

    def auto_stmt(self):
        start = self.expect_word("auto")
        name = self.fresh_name()
        self.expect_punct("=")
        tok = self.peek()
        if tok.kind != "name" or tok.text not in ("conj", "matrix",
                                                  "identity"):
            self.fail("expected one of conj, matrix, identity")
        kind = self.advance().text
        self.expect_punct("(")
        target = self.ref_name()
        entries = ()
        if kind in ("conj", "matrix"):
            self.expect_punct(",")
            entries = self.bracketed(lambda: self.bracketed(self.scalar))
        self.expect_punct(")")
        self.expect_punct(";")
        return AutoDecl(name.text, kind, target.text, entries,
                        span=start.span)

    def grading_stmt(self):
        start = self.expect_word("grading")
        name = self.fresh_name()
        self.expect_punct("=")
        self.expect_word("eigenspaces")
        self.expect_punct("(")
        auto = self.ref_name()
        modulus = None
        mod_span = None
        if self.at_punct(","):
            self.advance()
            mod_span = self.peek().span
            modulus = self.int_literal()
            if modulus < 1:
                self.fail("modulus must be at least 1", span=mod_span,
                          code="bad-literal")
        self.expect_punct(")")
        self.expect_punct(";")
        return GradingDecl(name.text, auto.text, modulus, span=start.span)

    def tower_stmt(self):
        start = self.expect_word("tower")
        name = self.fresh_name()
        self.expect_punct("=")
        tok = self.peek()
        if tok.kind != "name" or tok.text not in ("multiloop", "loop"):
            self.fail("expected multiloop or loop")
        kind = self.advance().text
        self.expect_punct("(")
        base = self.ref_name()
        autos, stages = (), ()
        if kind == "multiloop":
            self.expect_punct(",")
            autos = self.bracketed(lambda: self.ref_name().text)
        else:
            parts = []
            while self.at_punct(","):
                self.advance()
                parts.append(self.stage_expr())
            if not parts:
                self.fail("loop() needs at least one stage")
            stages = tuple(parts)
        self.expect_punct(")")
        self.expect_punct(";")
        return TowerDecl(name.text, kind, base.text, autos, stages,
                         span=start.span)

    def stage_expr(self) -> StageExpr:
        start = self.expect_word("stage")
        self.expect_punct("(")
        auto = self.ref_name()
        self.expect_punct(",")
        mod_span = self.peek().span
        modulus = self.int_literal()
        m_matrix = None
        c_vector = None
        char_order = None
        if self.at_punct(","):
            self.advance()
            m_matrix = self.bracketed(lambda: self.bracketed(self.signed_int))
            self.expect_punct(",")
            c_vector = self.bracketed(self.signed_int, empty=True)
            if self.at_punct(","):
                self.advance()
                char_order, power = self.zeta_factor()
                if power != 1:
                    self.fail("the character root takes no power here",
                              span=start.span)
        self.expect_punct(")")
        if modulus < 1:
            self.fail("modulus must be at least 1", span=mod_span,
                      code="bad-literal")
        return StageExpr(auto.text, modulus, m_matrix, c_vector,
                         char_order, span=start.span)

    def report_stmt(self):
        start = self.expect_word("report")
        tok = self.peek()
        if tok.kind != "name" or tok.text not in ("box", "seed"):
            self.fail("expected box or seed after report")
        key = self.advance().text
        if key == "box":
            values = self.comma_list(self.signed_int)
        else:
            values = (self.int_literal(),)
        self.expect_punct(";")
        return ReportOpt(key, values, span=start.span)

    def command_stmt(self) -> Command:
        start = self.peek()
        word = start.text
        if word == "check":
            self.advance()
            self.expect_word("grading")
            target = self.ref_name()
            self.expect_word("on")
            second = self.ref_name()
            self.expect_punct(";")
            return Command("check-grading", target.text, second=second.text,
                           span=start.span)
        if word == "build":
            self.advance()
            self.expect_word("tower")
            target = self.ref_name()
            self.expect_punct(";")
            return Command("build-tower", target.text, span=start.span)
        if word in ("centroid", "untwist"):
            self.advance()
            target = self.ref_name()
            box = None
            if self.at_word("box"):
                self.advance()
                box = self.comma_list(self.signed_int)
            self.expect_punct(";")
            return Command(word, target.text, box=box, span=start.span)
        if word in ("kind", "type"):
            self.advance()
            target = self.ref_name()
            self.expect_punct(";")
            return Command(word, target.text, span=start.span)
        self.advance()  # canonical-form
        target = self.ref_name()
        self.expect_word("of")
        element = self.element()
        self.expect_punct(";")
        return Command("canonical-form", target.text, element=element,
                       span=start.span)

    # -- elements ----------------------------------------------------------

    def element(self):
        terms = [self.element_term(self.leading_sign())]
        while self.at_punct("+") or self.at_punct("-"):
            sign = 1 if self.advance().text == "+" else -1
            terms.append(self.element_term(sign))
        return tuple(terms)

    def leading_sign(self) -> int:
        # a leading minus on the first term, e.g. `- e0 * z(1)`
        if self.at_punct("-"):
            nxt = self.tokens[self.pos + 1]
            if not (nxt.kind == "int" or nxt.text == "zeta"):
                self.advance()
                return -1
        return 1

    def element_term(self, sign) -> ElementTerm:
        span = self.peek().span
        coeff = None
        tok = self.peek()
        if tok.kind == "int" or tok.text == "zeta" or (
                tok.kind == "punct" and tok.text == "-"):
            coeff = self.scalar()
            self.expect_punct("*")
        label = self.peek()
        if label.kind != "name" or label.text in _RESERVED:
            self.fail("expected a basis label")
        self.advance()
        self.expect_punct("*")
        self.expect_word("z")
        self.expect_punct("(")
        degree = self.comma_list(self.signed_int)
        self.expect_punct(")")
        return ElementTerm(sign, coeff, label.text, degree, span=span)


# ---------------------------------------------------------------------------
# validation


def _divides(m: int, n: int) -> bool:
    return m >= 1 and n % m == 0


class _Validator:
    def __init__(self, statements, diagnostics):
        self.statements = statements
        self.diagnostics = diagnostics
        self.table = {}
        self.used = set()
        self.root_order = _root_order(statements)

    def error(self, span, message, code):
        self.diagnostics.append(Diagnostic("error", span, message, code))

    def warn(self, span, message, code):
        self.diagnostics.append(Diagnostic("warning", span, message, code))

    def resolve(self, name, want, span):
        """Look up a reference; `want` is a declaration class or tuple."""
        decl = self.table.get(name)
        if decl is None:
            self.error(span, f"unresolved name {name!r}", "unresolved-name")
            return None
        if not isinstance(decl, want):
            kinds = {AlgebraDecl: "an algebra", AutoDecl: "an automorphism",
                     GradingDecl: "a grading", TowerDecl: "a tower"}
            self.error(
                span,
                f"{name!r} was declared as {kinds[type(decl)]}, which "
                "cannot appear here",
                "wrong-reference-kind",
            )
            return None
        self.used.add(name)
        return decl

    def need_root(self, m, span, what):
        if not _divides(m, self.root_order):
            self.error(
                span,
                f"{what} needs zeta({m}) but the declared field orders "
                f"only provide zeta({self.root_order})",
                "root-order-shortfall",
            )

    def check_scalar_matrix(self, entries, span, shape, what):
        rows = len(entries)
        ragged = any(len(r) != len(entries[0]) for r in entries)
        if ragged or (rows, len(entries[0])) != shape:
            got = f"{rows} ragged rows" if ragged else (
                f"{rows}x{len(entries[0])}"
            )
            self.error(
                span,
                f"{what} must be {shape[0]}x{shape[1]}, got {got}",
                "shape-mismatch",
            )
            return
        for row in entries:
            for s in row:
                if s.zeta_order is not None:
                    self.need_root(s.zeta_order, span, what)

    def run(self):
        for s in self.statements:
            if isinstance(s, AlgebraDecl):
                self.declare(s)
            elif isinstance(s, AutoDecl):
                self.auto_decl(s)
            elif isinstance(s, GradingDecl):
                self.grading_decl(s)
            elif isinstance(s, TowerDecl):
                self.tower_decl(s)
            elif isinstance(s, ReportOpt):
                self.report_opt(s)
            elif isinstance(s, Command):
                self.command(s)
        commands = [s for s in self.statements if isinstance(s, Command)]
        if not commands:
            span = (self.statements[0].span if self.statements
                    else Span(1, 1, 1, 1))
            self.warn(span, "document has no commands", "no-commands")
        for name, decl in self.table.items():
            if name not in self.used:
                self.warn(decl.span, f"{name!r} is never used",
                          "unused-declaration")

    def declare(self, decl):
        if decl.name in self.table:
            self.error(decl.span, f"{decl.name!r} is already declared",
                       "duplicate-name")
            return False
        self.table[decl.name] = decl
        return True

    def auto_decl(self, s: AutoDecl):
        target = self.resolve(s.target, AlgebraDecl, s.span)
        if target is not None:
            if s.kind == "conj":
                size = target.matrix_size
                if size is None:
                    self.error(
                        s.span,
                        f"conj needs a mat or sl algebra, {s.target!r} "
                        f"is {target.kind}",
                        "conj-unsupported",
                    )
                else:
                    self.check_scalar_matrix(
                        s.entries, s.span, (size, size),
                        "the conjugating matrix",
                    )
            elif s.kind == "matrix":
                self.check_scalar_matrix(
                    s.entries, s.span, (target.dim, target.dim),
                    "the automorphism matrix",
                )
        self.declare(s)

    def grading_decl(self, s: GradingDecl):
        self.resolve(s.auto, AutoDecl, s.span)
        if s.modulus is not None:
            self.need_root(s.modulus, s.span, "the grading modulus")
        self.declare(s)

    def tower_decl(self, s: TowerDecl):
        self.resolve(s.base, AlgebraDecl, s.span)
        if s.kind == "multiloop":
            for name in s.autos:
                self.resolve(name, AutoDecl, s.span)
        else:
            for p, stage in enumerate(s.stages, start=1):
                self.resolve(stage.auto, AutoDecl, stage.span or s.span)
                span = stage.span or s.span
                self.need_root(stage.modulus, span,
                               f"stage {p} of tower {s.name!r}")
                if stage.char_order is not None:
                    self.need_root(stage.char_order, span,
                                   f"the stage-{p} character")
                prior = p - 1
                if stage.m_matrix is not None:
                    rows = len(stage.m_matrix)
                    ragged = any(
                        len(r) != len(stage.m_matrix[0])
                        for r in stage.m_matrix
                    )
                    cols = len(stage.m_matrix[0]) if rows else 0
                    if prior == 0 or ragged or (rows, cols) != (
                            prior, prior):
                        self.error(
                            span,
                            f"stage {p} acts on {prior} earlier "
                            f"variables; its degree matrix must be "
                            f"{prior}x{prior}",
                            "shape-mismatch",
                        )
                if stage.c_vector is not None and len(
                        stage.c_vector) != prior:
                    self.error(
                        span,
                        f"stage {p} character vector must have length "
                        f"{prior}",
                        "shape-mismatch",
                    )
        self.declare(s)

    def report_opt(self, s: ReportOpt):
        if s.key == "box" and any(v < 0 for v in s.values):
            self.error(s.span, "box radii must be nonnegative",
                       "shape-mismatch")

    def box_check(self, box, arity, span, target):
        if box is None:
            return
        if any(v < 0 for v in box):
            self.error(span, "box radii must be nonnegative",
                       "shape-mismatch")
        elif len(box) != arity:
            self.error(
                span,
                f"box has {len(box)} radii but tower {target!r} has "
                f"{arity} stages",
                "shape-mismatch",
            )

    def command(self, s: Command):
        if s.op == "check-grading":
            self.resolve(s.target, GradingDecl, s.span)
            self.resolve(s.second, AlgebraDecl, s.span)
        elif s.op == "type":
            self.resolve(s.target, (TowerDecl, AlgebraDecl), s.span)
        else:
            decl = self.resolve(s.target, TowerDecl, s.span)
            if decl is not None:
                if s.op in ("centroid", "untwist"):
                    self.box_check(s.box, decl.arity, s.span, s.target)
                if s.op == "canonical-form":
                    for term in s.element:
                        if len(term.degree) != decl.arity:
                            self.error(
                                term.span or s.span,
                                f"degree has {len(term.degree)} entries "
                                f"but tower {s.target!r} has {decl.arity} "
                                "stages",
                                "shape-mismatch",
                            )


def parse(source: str) -> ParseResult:
    """Front door: lex, parse with recovery, then validate.

    The result carries a Document only when there are no errors; warnings
    ride along either way."""
    try:
        tokens = _lex(source)
    except _LexError as exc:
        return ParseResult(None, [
            Diagnostic("error", exc.span, exc.message, "syntax-error")
        ])
    parser = _Parser(tokens)
    statements = parser.document()
    diagnostics = parser.diagnostics
    validator = _Validator(statements, diagnostics)
    validator.run()
    diagnostics.sort(key=lambda d: (d.span.line, d.span.col,
                                    d.severity == "warning"))
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(Document(statements), diagnostics)


# ---------------------------------------------------------------------------
# printer


def scalar_str(s: Scalar) -> str:
    sign = "-" if s.negative else ""
    rat = (str(s.numerator) if s.denominator == 1
           else f"{s.numerator}/{s.denominator}")
    if s.zeta_order is None:
        return sign + rat
    zpart = f"zeta({s.zeta_order})"
    if s.zeta_power != 1:
        zpart += f"^{s.zeta_power}"
    if (s.numerator, s.denominator) == (1, 1):
        return sign + zpart
    return f"{sign}{rat} * {zpart}"


def _ints_str(values) -> str:
    return ", ".join(str(v) for v in values)


def _scalar_matrix_str(entries) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(scalar_str(s) for s in row) + "]"
        for row in entries
    ) + "]"


def _int_matrix_str(rows) -> str:
    return "[" + ", ".join(
        "[" + _ints_str(row) + "]" for row in rows
    ) + "]"


def element_str(terms) -> str:
    parts = []
    for i, t in enumerate(terms):
        body = ""
        if t.coeff is not None:
            body += scalar_str(t.coeff) + " * "
        body += f"{t.label} * z({_ints_str(t.degree)})"
        if i == 0:
            parts.append(("-" if t.sign < 0 else "") + body)
        else:
            parts.append(("- " if t.sign < 0 else "+ ") + body)
    return " ".join(parts)


def _stage_str(stage: StageExpr) -> str:
    body = f"stage({stage.auto}, {stage.modulus}"
    if stage.m_matrix is not None:
        body += f", {_int_matrix_str(stage.m_matrix)}"
        body += ", [" + _ints_str(stage.c_vector or ()) + "]"
        if stage.char_order is not None:
            body += f", zeta({stage.char_order})"
    return body + ")"


def statement_str(s) -> str:
    if isinstance(s, FieldDecl):
        return f"field zeta {s.order};"
    if isinstance(s, AlgebraDecl):
        inner = "" if s.size is None else str(s.size)
        return f"algebra {s.name} = {s.kind}({inner});"
    if isinstance(s, AutoDecl):
        if s.kind == "identity":
            return f"auto {s.name} = identity({s.target});"
        return (f"auto {s.name} = {s.kind}({s.target}, "
                f"{_scalar_matrix_str(s.entries)});")
    if isinstance(s, GradingDecl):
        inner = s.auto if s.modulus is None else f"{s.auto}, {s.modulus}"
        return f"grading {s.name} = eigenspaces({inner});"
    if isinstance(s, TowerDecl):
        if s.kind == "multiloop":
            return (f"tower {s.name} = multiloop({s.base}, "
                    f"[{', '.join(s.autos)}]);")
        stages = ", ".join(_stage_str(st) for st in s.stages)
        return f"tower {s.name} = loop({s.base}, {stages});"
    if isinstance(s, ReportOpt):
        return f"report {s.key} {_ints_str(s.values)};"
    if isinstance(s, Command):
        if s.op == "check-grading":
            return f"check grading {s.target} on {s.second};"
        if s.op == "build-tower":
            return f"build tower {s.target};"
        if s.op in ("centroid", "untwist"):
            box = f" box {_ints_str(s.box)}" if s.box is not None else ""
            return f"{s.op} {s.target}{box};"
        if s.op in ("kind", "type"):
            return f"{s.op} {s.target};"
        return f"canonical-form {s.target} of {element_str(s.element)};"
    raise TypeError(type(s).__name__)


def format_document(doc: Document) -> str:
    """Canonical rendering; parsing it back gives an equal Document."""
    return "\n".join(statement_str(s) for s in doc.statements) + "\n"
