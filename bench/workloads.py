"""Seeded `.loom` document generators for the benchmark workloads.

Each generator turns a seed into a list of `Doc` values: the document
text plus what its report must say.  The library only ever sees the
text.  Every workload runs all seven command kinds at least once so that
every layer the traced run times is reached; the workloads differ in
which layers dominate.  Within a workload the seed varies scalars,
elements, characters, the assignment of boxes and fields to documents
and the search seed, while the multiset of sizes each pass runs is fixed,
so the work per pass stays close to constant across seeds.  README.md in
this directory says why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

WORKLOADS = ("window", "lie", "batch")


@dataclass
class Doc:
    """One generated document and the seed-independent facts about it."""

    name: str
    text: str
    # expected diagnostic or command error code, for seeded error documents
    error: str | None = None
    # expected "kind" of each kind command, in command order
    kinds: list = field(default_factory=list)
    # expected (variety, label) of each type command, in command order
    types: list = field(default_factory=list)
    # multiloop towers: every centroid command must carry an ok lattice
    lattice: bool = False


def generate(workload: str, seed: int) -> list:
    rng = random.Random(f"loomalg-bench:{workload}:{seed}")
    return _GENERATORS[workload](rng, seed)


# ---------------------------------------------------------------------------
# shared pieces


_COEFFS = ("1", "2", "3", "1/2", "3/2", "2/3")


def _coeff(rng, zeta_order: int) -> str:
    c = rng.choice(_COEFFS)
    if zeta_order > 2 and rng.random() < 0.5:
        power = rng.randrange(1, zeta_order)
        return f"{c} * zeta({zeta_order})^{power}"
    return c


def _element(rng, labels, arity: int, zeta_order: int, terms: int,
             reach: int = 3) -> str:
    """A seeded element `c * label * z(d1, ..., dn) +- ...` of a tower."""
    parts = []
    for k in range(terms):
        degree = ", ".join(
            str(rng.randint(-reach, reach)) for _ in range(arity)
        )
        coeff = _coeff(rng, zeta_order)
        body = f"{coeff} * {rng.choice(labels)} * z({degree})"
        sign = rng.choice(("+", "-"))
        if k == 0:
            parts.append(body if sign == "+" else "- " + body)
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def _matrix(rows) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(str(v) for v in row) + "]" for row in rows
    ) + "]"


def _mat_labels(n: int):
    return [f"E{a + 1}{b + 1}" for a in range(n) for b in range(n)]


def _sl_labels(n: int):
    off = [f"E{a + 1}{b + 1}" for a in range(n) for b in range(n) if a != b]
    return off + [f"H{k + 1}" for k in range(n - 1)]


def _lines(*lines) -> str:
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# window: quantum-torus multiloops, stabilizer windows dominate


# Centroid boxes of the three mat(2) documents of a pass: volumes 63, 63
# and 65, so the stabilizer work per pass is fixed while the seed decides
# which document gets which shape.
_WINDOW_QT2_BOXES = ((3, 4), (4, 3), (2, 6))
_WINDOW_QT3_BOX = (2, 2)


def _quantum_torus(rng, ell: int, box, full: bool, seed: int) -> Doc:
    """Multiloop of conj(diag of ell-th roots) and a weighted cycle on
    mat(ell).  The weights are seeded signs; any nonzero weights give an
    automorphism of order ell commuting with the diagonal one."""
    z = f"zeta({ell})"
    power = rng.choice([k for k in range(1, ell) if gcd(k, ell) == 1])
    diag = []
    for a in range(ell):
        e = (a * power) % ell
        entry = "1" if e == 0 else (
            "-1" if ell == 2 else (z if e == 1 else f"{z}^{e}")
        )
        diag.append([entry if b == a else "0" for b in range(ell)])
    weights = [rng.choice(("1", "-1")) for _ in range(ell)]
    cycle = [
        [weights[a] if a == (b + 1) % ell else "0" for b in range(ell)]
        for a in range(ell)
    ]
    labels = _mat_labels(ell)
    lines = [
        f"# window: quantum torus over mat({ell})",
        f"field zeta {ell};",
        f"algebra A = mat({ell});",
        f"auto sd = conj(A, {_matrix(diag)});",
        f"auto sp = conj(A, {_matrix(cycle)});",
        "grading G = eigenspaces(sd);",
        "tower T = multiloop(A, [sd, sp]);",
        f"report seed {seed};",
        "check grading G on A;",
    ]
    if full:
        lines.append("build tower T;")
    lines.append(f"centroid T box {box[0]}, {box[1]};")
    lines.append("untwist T box 1, 1;")
    kinds, types = [], []
    if full:
        lines += ["kind T;", "type T;"]
        kinds.append("First")
        types.append(("Associative", f"Mat{ell}"))
    else:
        # reaches Lie typing, which the window workload otherwise never runs
        lines[3:3] = ["algebra L = sl(2);"]
        lines.append("type L;")
        types.append(("Lie", "A1"))
    for _ in range(3 if full else 2):
        elem = _element(rng, labels, 2, ell, terms=rng.randint(2, 3))
        lines.append(f"canonical-form T of {elem};")
    return Doc(f"qt{ell}", _lines(*lines), kinds=kinds, types=types,
               lattice=True)


def _window(rng, seed):
    boxes = list(_WINDOW_QT2_BOXES)
    rng.shuffle(boxes)
    docs = [_quantum_torus(rng, 2, box, True, seed) for box in boxes]
    # mat(3) pays about 2.4 s per simplicity test, and build/kind/type run
    # four of them, so the mat(3) document keeps the window commands only
    docs.append(_quantum_torus(rng, 3, _WINDOW_QT3_BOX, False, seed))
    return docs


# ---------------------------------------------------------------------------
# lie: split simple Lie bases, typing and simplicity dominate


def _antidiagonal_involution(n: int):
    """Matrix of X -> -J X^T J on the sl(n) basis (off-diagonal units,
    then H_k), as integer rows; column j is the image of basis vector j."""
    basis = [(a, b) for a in range(n) for b in range(n) if a != b]
    index = {ab: i for i, ab in enumerate(basis)}
    dim = n * n - 1
    cols = []
    for a, b in basis:
        # -J E_ab^T J = -E_(n-1-b)(n-1-a)
        col = [0] * dim
        col[index[(n - 1 - b, n - 1 - a)]] = -1
        cols.append(col)
    for k in range(n - 1):
        # H_k = E_kk - E_(k+1)(k+1) maps to E_(n-2-k) - E_(n-1-k), i.e.
        # H_(n-2-k) in the H basis
        col = [0] * dim
        col[len(basis) + (n - 2 - k)] = 1
        cols.append(col)
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


def _hermitian(rng, n: int, box, seed: int) -> Doc:
    """Two-step tower over sl(n): loop the antidiagonal involution, then
    invert the first variable.  Second kind with rho = 1."""
    labels = _sl_labels(n)
    lines = [
        f"# lie: hermitian inversion tower over sl({n})",
        "field zeta 2;",
        f"algebra A = sl({n});",
        f"auto s1 = matrix(A, {_matrix(_antidiagonal_involution(n))});",
        "auto id = identity(A);",
        "grading G = eigenspaces(s1);",
        "tower T = loop(A, stage(s1, 2), stage(id, 2, [[-1]], [0]));",
        f"report seed {seed};",
        "check grading G on A;",
        "build tower T;",
        f"centroid T box {box[0]}, {box[1]};",
        "untwist T box 1, 1;",
        "kind T;",
        "type T;",
    ]
    types = [("Lie", f"A{n - 1}")]
    if n == 2:
        # reaches associative typing, which the lie workload otherwise
        # never runs
        lines[3:3] = ["algebra M = mat(2);"]
        lines.append("type M;")
        types.append(("Associative", "Mat2"))
    for _ in range(2):
        elem = _element(rng, labels, 2, 2, terms=2, reach=2)
        lines.append(f"canonical-form T of {elem};")
    return Doc(f"hermitian-sl{n}", _lines(*lines), kinds=["Second"],
               types=types)


def _split_lie(rng, n: int, order: int, seed: int) -> Doc:
    text = _lines(
        f"# lie: split sl({n}) over zeta {order}",
        f"field zeta {order};",
        f"algebra L = sl({n});",
        f"report seed {seed};",
        "type L;",
    )
    return Doc(f"sl{n}-type", text, types=[("Lie", f"A{n - 1}")])


def _lie(rng, seed):
    # two of three fields of the same degree (phi = 2), so the scalar cost
    # is fixed
    orders = rng.sample((3, 4, 6), 2)
    herm_boxes = [(1, 2), (2, 1)]
    rng.shuffle(herm_boxes)
    return [
        _split_lie(rng, 3, orders[0], seed),
        _hermitian(rng, 2, herm_boxes[0], seed),
        _hermitian(rng, 3, herm_boxes[1], seed),
        _split_lie(rng, 3, orders[1], seed),
    ]


# ---------------------------------------------------------------------------
# batch: many small documents, fixed per-document overhead dominates


_FIELDS = (4, 6, 12)


def _synthetic_configs(order: int):
    """Valid (m1, m2, sign, c1, r) for two-step towers over unit().

    The stage-2 twist must have a period dividing m2 on the stage-1
    members: inversion needs an even m2, the identity action needs the
    character value zeta_r^(c1 m1) to have order dividing m2."""
    out = []
    divs = [d for d in range(2, order + 1) if order % d == 0]
    for m1 in (1, 2, 3):
        for m2 in (2, 3, 4, 6):
            if order % m1 or order % m2:
                continue
            for sign in (1, -1):
                for c1 in (1, 2):
                    for r in divs:
                        if sign == -1:
                            valid = m2 % 2 == 0
                        else:
                            valid = m2 % (r // gcd(r, c1 * m1)) == 0
                        if valid:
                            out.append((m1, m2, sign, c1, r))
    return out


def _synthetic(rng, order: int, m1: int, m2: int, sign: int,
               with_windows: bool, seed: int) -> Doc:
    c1, r = rng.choice([
        (c1, r) for cm1, cm2, csign, c1, r in _synthetic_configs(order)
        if (cm1, cm2, csign) == (m1, m2, sign)
    ])
    lines = [
        f"# batch: synthetic {'first' if sign == 1 else 'second'}-kind "
        "tower",
        f"field zeta {order};",
        "algebra k = unit();",
        "auto id = identity(k);",
        f"tower T = loop(k, stage(id, {m1}), "
        f"stage(id, {m2}, [[{sign}]], [{c1}], zeta({r})));",
        f"report seed {seed};",
        "build tower T;",
        "kind T;",
        "type T;",
    ]
    if with_windows:
        lines += ["centroid T box 1, 1;", "untwist T box 1, 1;"]
    elem = _element(rng, ["e0"], 2, order, terms=rng.randint(1, 3))
    lines.append(f"canonical-form T of {elem};")
    return Doc(
        "synthetic", _lines(*lines),
        kinds=["First" if sign == 1 else "Second"],
        types=[("CommAssociative", "Unit")],
    )


def _base_algebra(rng, kind: str, order: int, variant: int,
                  seed: int) -> Doc:
    """A base algebra, a seeded finite-order automorphism, its eigenspace
    grading, the grading check and the type."""
    z4 = "zeta(4)" if order % 4 == 0 else None
    if kind == "unit":
        decl, auto = "unit()", "identity(A)"
        label = ("CommAssociative", "Unit")
    elif kind == "quaternion":
        decl = "quaternion()"
        # conjugation by i (order 2) or the cycle i -> j -> k (order 3)
        if order % 3 == 0 and variant % 2:
            auto = "matrix(A, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], " \
                   "[0, 1, 0, 0]])"
        else:
            auto = "matrix(A, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], " \
                   "[0, 0, 0, -1]])"
        label = None
    else:
        decl = f"{kind}(2)"
        a, b = rng.choice(("1", "-1", "2")), rng.choice(("1", "-1", "3"))
        choices = [f"[[1, 0], [0, -1]]", f"[[0, {a}], [{b}, 0]]"]
        if z4:
            choices.append(f"[[1, 0], [0, {z4}]]")
        auto = f"conj(A, {choices[variant % len(choices)]})"
        label = ("Associative", "Mat2") if kind == "mat" else ("Lie", "A1")
    lines = [
        f"# batch: {kind} base with an eigenspace grading",
        f"field zeta {order};",
        f"algebra A = {decl};",
        f"auto s = {auto};",
        "grading G = eigenspaces(s);",
        f"report seed {seed};",
        "check grading G on A;",
    ]
    # associative_type misses the split of the quaternions over Q(zeta_6)
    # for every search seed, and over Q(zeta_4) for some: quaternion
    # documents are not typed until that search is fixed
    types = []
    if kind != "quaternion":
        lines.append("type A;")
        types.append(label)
    return Doc(f"base-{kind}", _lines(*lines), types=types)


def _error_doc(rng, code: str) -> Doc:
    """A small document seeded with one mistake and the code it must get."""
    name = rng.choice(("A", "B", "alg", "my-alg"))
    n = rng.randint(2, 3)
    if code == "duplicate-name":
        body = [f"algebra {name} = mat({n});", f"algebra {name} = sl({n});",
                f"type {name};"]
    elif code == "unresolved-name":
        body = [f"algebra {name} = mat({n});", f"type {name}2;"]
    elif code == "wrong-reference-kind":
        body = [f"algebra {name} = mat({n});", f"kind {name};"]
    elif code == "root-order-shortfall":
        body = [f"algebra {name} = mat(2);",
                f"auto s = conj({name}, [[0, 1], [1, 0]]);",
                f"grading G = eigenspaces(s, {rng.choice((3, 5, 7))});",
                f"check grading G on {name};"]
    elif code == "shape-mismatch":
        body = [f"algebra {name} = mat({n});",
                f"auto s = conj({name}, [[0, 1]]);",
                "grading G = eigenspaces(s);",
                f"check grading G on {name};"]
    elif code == "conj-unsupported":
        body = [f"algebra {name} = quaternion();",
                f"auto c = conj({name}, [[1]]);",
                "grading G = eigenspaces(c);",
                f"check grading G on {name};"]
    elif code == "bad-literal":
        body = [f"algebra {name} = mat(0);", f"type {name};"]
    elif code == "syntax-error":
        body = [f"algebra {name} = ;", f"type {name};"]
    else:  # singular-matrix: parses, then fails when the runner builds it
        body = [f"algebra {name} = mat(2);",
                f"auto s = conj({name}, [[1, {n}], [1, {n}]]);",
                "grading G = eigenspaces(s);",
                f"check grading G on {name};"]
    text = _lines(f"# batch: expect {code}", "field zeta 2;", *body)
    return Doc(f"error-{code}", text, error=code)


ERROR_CODES = (
    "duplicate-name", "unresolved-name", "wrong-reference-kind",
    "root-order-shortfall", "shape-mismatch", "conj-unsupported",
    "bad-literal", "syntax-error", "singular-matrix",
)


def _batch(rng, seed):
    docs = []
    # 72 synthetic towers: each field and each kind equally often; one in
    # four also runs a small centroid and untwist window
    for order in _FIELDS:
        for sign in (1, -1):
            # the moduli cycle through every valid pair, so each pass runs
            # the same multiset of tower sizes; the seed picks characters
            pairs = sorted({(m1, m2) for m1, m2, s, _, _ in
                            _synthetic_configs(order) if s == sign})
            for k in range(12):
                m1, m2 = pairs[k % len(pairs)]
                docs.append(_synthetic(rng, order, m1, m2, sign, k % 4 == 0,
                                       seed))
    # 16 base documents, 4 per base: each field once plus a seeded one,
    # automorphisms in rotation
    for kind in ("unit", "quaternion", "mat", "sl"):
        orders = list(_FIELDS) + [rng.choice(_FIELDS)]
        rng.shuffle(orders)
        for variant, order in enumerate(orders):
            docs.append(_base_algebra(rng, kind, order, variant, seed))
    # 12 error documents (a fixed share of 12 in 100)
    codes = list(ERROR_CODES) + list(rng.sample(ERROR_CODES, 3))
    docs += [_error_doc(rng, code) for code in codes]
    # setup_s builds the first document, so it stays the same family
    first, rest = docs[0], docs[1:]
    rng.shuffle(rest)
    return [first] + rest


_GENERATORS = {"window": _window, "lie": _lie, "batch": _batch}
