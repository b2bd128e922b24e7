"""Source-level guards on the package itself."""

from __future__ import annotations

import ast
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "loomalg"


def test_no_bare_asserts_in_the_package():
    # `python -O` strips assert statements, so an invariant guarded by one
    # would pass silently; invariants raise InvariantViolated instead
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_sympy_import_under_src():
    # factoring is done in-house; sympy is a test oracle only, and importing
    # it costs every process about half a second and 35 MB
    paths = sorted(SRC.parent.rglob("*.py"))
    assert paths, f"no sources under {SRC.parent}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "sympy"]
    assert found == []


def test_scalar_layout_stays_in_exactnum():
    # only exactnum builds a CycloNumber or reads its numerators and
    # denominator, so the layout can change without touching any caller
    bench = SRC.parent.parent / "bench"
    found = []
    for path in sorted([*SRC.glob("*.py"), *bench.glob("*.py")]):
        if path.name == "exactnum.py" and path.parent == SRC:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("num", "den"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Call) and "CycloNumber" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            ):
                found.append(f"{path.name}:{node.lineno} CycloNumber(...)")
    assert found == []


def test_product_table_stays_in_findim():
    # only findim reads an algebra's sparse product table, so its layout
    # can change without touching any caller
    bench = SRC.parent.parent / "bench"
    found = []
    for path in sorted([*SRC.glob("*.py"), *bench.glob("*.py")]):
        if path.name == "findim.py" and path.parent == SRC:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno} ._products"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "_products"]
    assert found == []


_STARTUP_MODULES = """
import sys
sys.path.insert(0, sys.argv[1])
import loomalg.cli
heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
print(" ".join(m for m in heavy if m in sys.modules))
"""


def test_cli_start_up_loads_no_code_generation_modules():
    # every `loomalg run` pays its imports; dataclasses alone loads inspect,
    # ast, dis and tokenize and runs generated code through exec
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_MODULES, str(SRC.parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _identifiers(source: str) -> set:
    """Names a module reads, imports or looks up as attributes; the name a
    def or class statement binds is not among them."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def test_every_export_is_used():
    # each name the package exports needs a reader besides its own
    # definition: package code, a test, or the README
    repo = SRC.parent.parent
    init = SRC / "__init__.py"
    exports = [
        alias.asname or alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert exports
    seen = set()
    for path in [*SRC.glob("*.py"), *(repo / "tests").glob("*.py")]:
        if path != init:
            seen |= _identifiers(path.read_text(encoding="utf-8"))
    readme = (repo / "README.md").read_text(encoding="utf-8")
    unused = [
        name for name in exports
        if name not in seen
        and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == []


def _private_definitions(tree) -> list:
    """(name, line) of each module-level def, class or assignment that
    binds a private name; dunders are left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for t in node.targets for target in ast.walk(t)
                     if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                             ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(name, node.lineno) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def _reads(tree) -> set:
    """Names a module loads, imports or looks up as attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_private_name_is_read():
    # a private helper that lost its last caller in the package is dead
    # code; tests may still read it, but only package code counts here
    paths = sorted(SRC.parent.rglob("*.py"))
    assert paths, f"no sources under {SRC.parent}"
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in paths
    }
    read = set().union(*(_reads(tree) for tree in trees.values()))
    unread = [
        f"{path.name}:{line} {name}"
        for path, tree in trees.items() if path.parent == SRC
        for name, line in _private_definitions(tree) if name not in read
    ]
    assert unread == []


def _unused_imports(path) -> list:
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{path.name}:{line} {name}"
        for name, line in imported.items() if name not in read
    ]


def test_no_unused_imports():
    # the package __init__ imports only to re-export
    tests = pathlib.Path(__file__).resolve().parent
    paths = [
        *(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
        *tests.glob("*.py"),
    ]
    found = [entry for path in sorted(paths) for entry in _unused_imports(path)]
    assert found == []


_TRACER_ROUND_TRIP = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers
from tracer import Tracer

def bindings():
    return {
        (name, key): value
        for name, mod in sorted(sys.modules.items())
        if name.startswith("loomalg") and mod is not None
        for key, value in vars(mod).items()
        if callable(value)
    }

before = bindings()
tracer = Tracer()
layers.install(tracer)
patched = [k for k, v in bindings().items() if before.get(k) is not v]
tracer.uninstall()
assert patched, "install wrapped nothing"
assert bindings() == before, "uninstall left wrappers behind"
"""


def test_bench_tracer_wraps_existing_names():
    # the benchmark's traced run wraps library names by string; a renamed
    # or deleted name would otherwise surface only there, as AttributeError
    repo = SRC.parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _TRACER_ROUND_TRIP,
         str(repo / "bench"), str(SRC.parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_TRACED_BATCH_PASS = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers
import workloads
from tracer import Tracer
from loomalg import dsl, runner

tracer = Tracer()
layers.install(tracer)
for i, doc in enumerate(workloads.generate("batch", 1)):
    tracer.doc = i
    # module attributes are read at call time, so the wrappers are seen
    parsed = dsl.parse(doc.text)
    if parsed.document is not None:
        runner.report_json(runner.execute(parsed.document))
        dsl.format_document(parsed.document)
tracer.uninstall()
missing = layers.unreached(tracer)
assert missing == [], f"traced boundaries recorded no span: {missing}"
"""


def test_bench_traced_boundaries_are_reached_on_batch():
    # a wrapped boundary that the library stops calling reads as
    # `correct: false` in a traced benchmark run; one seed-1 batch pass
    # shows it here
    repo = SRC.parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_BATCH_PASS,
         str(repo / "bench"), str(SRC.parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


_SEED_ONE_DIGESTS = """
import hashlib
import json
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
from loomalg import dsl, runner

with open(sys.argv[3], encoding="utf-8") as handle:
    reference = json.load(handle)
changed = []
for workload in workloads.WORKLOADS:
    docs = workloads.generate(workload, 1)
    expected = reference[workload]["1"]
    assert len(docs) == len(expected), f"{workload}: generator changed"
    for i, doc in enumerate(docs):
        # the output the benchmark hashes: the report, or the diagnostics
        parsed = dsl.parse(doc.text)
        if parsed.document is None:
            output = "".join(f"{d}\\n" for d in parsed.diagnostics)
        else:
            output = runner.report_json(runner.execute(parsed.document))
        if hashlib.sha256(output.encode("utf-8")).hexdigest() != expected[i]:
            changed.append(f"{workload}#{i} {doc.name}")
assert changed == [], f"reports differ from the recorded digests: {changed}"
"""


def test_seed_one_workload_reports_match_the_recorded_digests():
    # the benchmark refuses a run whose reports differ from
    # bench/reference.json; one seed-1 pass of each workload shows a
    # report change here first
    bench = SRC.parent.parent / "bench"
    proc = subprocess.run(
        [sys.executable, "-c", _SEED_ONE_DIGESTS, str(bench), str(SRC.parent),
         str(bench / "reference.json")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
