"""Fixture reports pinned byte for byte.

`fixture_reports.json` maps each fixture path (relative to the repository
root) to the exit code of `loomalg run --json - PATH` and the SHA-256 of
its stdout and of its stderr.  Every fixture document is pinned; the
entries for `quantum_torus_3` and `hermitian_2` (about 4 s each) were
recorded before the one-pass Cartan search, the others before the scalar
centroid action and the `any()` zero tests landed.  A change that keeps
every report must keep these; one that changes a report on purpose
rewrites the entry and says why.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
PINS = json.loads(
    (pathlib.Path(__file__).parent / "fixture_reports.json").read_text(
        encoding="utf-8"
    )
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("path", sorted(PINS))
def test_fixture_report_is_byte_identical(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "loomalg.cli", "run", "--json", "-", path],
        capture_output=True, cwd=REPO, env=env, timeout=300,
    )
    got = {
        "exit": proc.returncode,
        "stdout_sha256": sha256(proc.stdout),
        "stderr_sha256": sha256(proc.stderr),
    }
    assert got == PINS[path], proc.stderr.decode("utf-8", "replace")
