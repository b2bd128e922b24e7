"""End-to-end command line behaviour through subprocesses."""

from __future__ import annotations

import errno
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def loomalg(*args, cwd=None, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-m", "loomalg.cli", *args],
        capture_output=True, text=True, cwd=cwd, timeout=560,
    )


SMALL_DOC = (
    "field zeta 2;\n"
    "algebra A = mat(1);\n"
    "auto i = identity(A);\n"
    "tower T = multiloop(A, [i, i]);\n"
    "build tower T;\n"
    "centroid T box 1, 1;\n"
)

FAILING_DOC = (
    "field zeta 2;\n"
    "algebra A = mat(2);\n"
    "auto s = conj(A, [[1, 1], [1, 1]]);\n"
    "tower T = multiloop(A, [s, s]);\n"
    "build tower T;\n"
)


@pytest.fixture
def small_file(tmp_path):
    path = tmp_path / "small.loom"
    path.write_text(SMALL_DOC, encoding="utf-8")
    return path


def test_run_success_exit_zero(small_file):
    proc = loomalg("run", str(small_file))
    assert proc.returncode == 0, proc.stderr
    assert "centroid" in proc.stdout


def test_run_json_to_stdout(small_file):
    proc = loomalg("run", str(small_file), "--json", "-")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["schema_version"] == 1
    assert report["ok"] is True
    # JSON replaces the text report entirely on stdout
    assert proc.stdout.lstrip().startswith("{")


def test_run_json_to_file(small_file, tmp_path):
    out = tmp_path / "report.json"
    proc = loomalg("run", str(small_file), "--json", str(out))
    assert proc.returncode == 0
    assert proc.stdout  # human text still on stdout
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["ok"] is True


def test_run_box_and_seed_flags(small_file):
    proc = loomalg("run", str(small_file), "--box", "2,2",
                   "--seed", "5", "--json", "-")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["seed"] == 5
    centroid = [c for c in report["commands"]
                if c["command"] == "centroid"][0]
    assert centroid["box"] == [2, 2]


ONE_STAGE_REPORT_BOX_DOC = (
    "field zeta 2;\n"
    "algebra A = mat(1);\n"
    "auto i = identity(A);\n"
    "tower T = multiloop(A, [i]);\n"
    "report box 1, 1;\n"
    "centroid T;\n"
)


def _windowed_error_codes(report):
    return {c["command"]: c["error"]["code"] for c in report["commands"]
            if c["command"] in ("centroid", "untwist")}


def test_box_override_of_the_wrong_arity_is_a_dimension_mismatch():
    # the override reaches the runner unchecked; only the windowed
    # commands fail, the rest of the fixture still runs
    proc = loomalg("run", str(FIXTURES / "quantum_torus_2.loom"),
                   "--box", "2", "--json", "-")
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert _windowed_error_codes(report) == {
        "centroid": "dimension-mismatch", "untwist": "dimension-mismatch",
    }
    assert all(c["ok"] for c in report["commands"]
               if c["command"] not in ("centroid", "untwist"))


def test_report_box_of_the_wrong_arity_is_a_dimension_mismatch(tmp_path):
    path = tmp_path / "report_box.loom"
    path.write_text(ONE_STAGE_REPORT_BOX_DOC, encoding="utf-8")
    proc = loomalg("run", str(path), "--json", "-")
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert _windowed_error_codes(report) == {"centroid": "dimension-mismatch"}


def test_run_command_failure_exit_one(tmp_path):
    path = tmp_path / "failing.loom"
    path.write_text(FAILING_DOC, encoding="utf-8")
    proc = loomalg("run", str(path))
    assert proc.returncode == 1


def test_parse_error_exit_two_with_stderr_diagnostics(tmp_path):
    path = tmp_path / "broken.loom"
    path.write_text("algebra A = ;\n", encoding="utf-8")
    proc = loomalg("run", str(path))
    assert proc.returncode == 2
    assert "syntax-error" in proc.stderr
    assert proc.stdout == ""


def test_missing_file_exit_two(tmp_path):
    proc = loomalg("run", str(tmp_path / "absent.loom"))
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr


@pytest.mark.parametrize("target, code", [
    ("absent/out.json", errno.ENOENT),
    (".", errno.EISDIR),
], ids=["missing-directory", "directory"])
def test_unwritable_json_out_exit_two(target, code, small_file, tmp_path):
    out = tmp_path / target
    proc = loomalg("run", str(small_file), "--json", str(out))
    assert proc.returncode == 2
    assert proc.stderr == (
        f"loomalg: cannot write {out}: {os.strerror(code)}\n"
    )
    assert proc.stdout == ""


@pytest.mark.parametrize("subcommand", ["run", "fmt"])
def test_file_that_is_not_utf8_exit_two(subcommand, tmp_path):
    path = tmp_path / "latin1.loom"
    path.write_bytes(b"field zeta \xff;\n")
    proc = loomalg(subcommand, str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"loomalg: cannot read {path}: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_usage_error_exit_two():
    proc = loomalg("explode")
    assert proc.returncode == 2


def test_fmt_is_canonical_and_idempotent(tmp_path):
    messy = tmp_path / "messy.loom"
    messy.write_text(
        "# comment vanishes\nfield   zeta 2;  algebra A=mat( 1 ) ;\n"
        "auto i = identity(A); tower T = multiloop(A,[i,i]); build tower T;\n",
        encoding="utf-8",
    )
    first = loomalg("fmt", str(messy))
    assert first.returncode == 0
    assert "#" not in first.stdout
    assert first.stdout.count("\n") == 5  # one statement per line
    formatted = tmp_path / "formatted.loom"
    formatted.write_text(first.stdout, encoding="utf-8")
    second = loomalg("fmt", str(formatted))
    assert second.stdout == first.stdout


def test_fmt_rejects_invalid_documents(tmp_path):
    path = tmp_path / "bad.loom"
    path.write_text("algebra A = mat(0);\n", encoding="utf-8")
    proc = loomalg("fmt", str(path))
    assert proc.returncode == 2
    assert "bad-literal" in proc.stderr


def _install_launcher(bin_dir, name, value):
    """Write the launcher a pip install makes for a console script."""
    bin_dir.mkdir()
    launcher = bin_dir / name
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"sys.exit(EntryPoint({name!r}, {value!r}, 'console_scripts')"
        ".load()())\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)


def test_console_script_is_installed(small_file, tmp_path):
    # The suite runs from a checkout without installing the package, so the
    # test does what a pip install does for the declared entry point: put a
    # launcher for it on PATH, with the checkout's src on PYTHONPATH.
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert "loomalg" in scripts
    installed = shutil.which("loomalg")
    bin_dir = tmp_path / "bin"
    _install_launcher(bin_dir, "loomalg", scripts["loomalg"])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir),
                                                env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(REPO / "src"), env.get("PYTHONPATH")]))

    def script(command, path):
        return subprocess.run(
            [command, "run", str(path)],
            capture_output=True, env=env, timeout=560,
        )

    proc = script("loomalg", small_file)
    assert proc.returncode == 0, proc.stderr
    assert b"[2] centroid T: ok" in proc.stdout.splitlines()
    if installed is not None:
        # A real install must behave as the declared entry point does.
        real = script(installed, small_file)
        assert real.returncode == proc.returncode, real.stderr
        assert real.stdout == proc.stdout

    failing = tmp_path / "failing.loom"
    failing.write_text(FAILING_DOC, encoding="utf-8")
    assert script("loomalg", failing).returncode == 1

    broken = tmp_path / "broken.loom"
    broken.write_text("algebra A = ;\n", encoding="utf-8")
    proc = script("loomalg", broken)
    assert proc.returncode == 2
    assert b"syntax-error" in proc.stderr


def test_same_source_and_seed_byte_identical(small_file):
    a = loomalg("run", str(small_file), "--json", "-")
    b = loomalg("run", str(small_file), "--json", "-")
    assert a.stdout == b.stdout


# six of the seven command kinds (all but `check grading`) on a small tower
OPTIMIZED_DOC = (FIXTURES / "synthetic_b4.loom").read_text(
    encoding="utf-8"
) + (
    "centroid T box 1, 1;\n"
    "untwist T box 1, 1;\n"
    "canonical-form T of E11 * z(1, 1) + 2 * E11 * z(-1, 3);\n"
)


@pytest.mark.parametrize("source", ["inline", "diagnostics"])
def test_reports_are_identical_under_python_O(source, tmp_path):
    # invariants raise coded errors instead of asserting, so -O changes
    # neither the report, nor the diagnostics, nor the exit code
    if source == "inline":
        path = tmp_path / "six_kinds.loom"
        path.write_text(OPTIMIZED_DOC, encoding="utf-8")
    else:
        path = FIXTURES / "diagnostics" / "unused_declaration.loom"
    plain = loomalg("run", str(path), "--json", "-")
    optimized = loomalg("run", str(path), "--json", "-", flags=("-O",))
    assert plain.returncode == 0, plain.stderr
    assert json.loads(plain.stdout)["ok"] is True
    assert optimized.stdout == plain.stdout
    assert optimized.stderr == plain.stderr
    assert optimized.returncode == plain.returncode
