"""Source-level guards on the package itself."""

from __future__ import annotations

import ast
import pathlib
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
