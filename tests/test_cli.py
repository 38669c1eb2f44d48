"""End-to-end exercise of the command-line interface.

Most tests drive `pipedreams.cli.main` in-process and read stdout through
capsys; a few go through a real subprocess to cover the installed console
script and environment handling.

The `python -m pipedreams.cli` tests run against the checked-out package:
the child gets the caller's environment with the directory of the imported
`pipedreams` package put first on PYTHONPATH.  The console-script test needs
the `pipedreams` script installed, in this interpreter's scripts directory or
on PATH, and is skipped where there is none.  An install that works offline:

    python -m venv --system-site-packages .venv && .venv/bin/python setup.py develop

after which `.venv/bin/python -m pytest` runs the test without activating the
venv.  An offline `pip install -e .` fails instead (`invalid command
'bdist_wheel'`): it needs the `wheel` package and setuptools >= 68.
"""

import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import pipedreams
from pipedreams.cli import main
from pipedreams.geometry import matrix_to_json
from pipedreams.poly import Poly, schubert


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- polynomial commands ---------------------------------------------------------


def test_schubert_text(capsys):
    rc, out, _ = run(capsys, "schubert", "24153")
    assert rc == 0
    assert out.strip() == ("x1^2*x2^2 + x1^2*x2*x3 + x1^2*x2*x4"
                           " + x1*x2^2*x3 + x1*x2^2*x4")


def test_schubert_json_roundtrip(capsys):
    rc, out, _ = run(capsys, "schubert", "24153", "--format", "json")
    assert rc == 0
    assert Poly.from_json(out) == schubert([2, 4, 1, 5, 3]).restrict_arity(5)


def test_schubert_latex(capsys):
    rc, out, _ = run(capsys, "schubert", "321", "--format", "latex")
    assert rc == 0
    assert out.strip() == "x_{1}^{2} x_{2}"


def test_schubert_of_word(capsys):
    rc, out, _ = run(capsys, "schubert", "21231", "--k", "3")
    assert rc == 0
    assert out.strip() == ("x1^2*x2*x3 + x1^2*x3^2 + x1^2*x3*x5"
                           " + x1*x2*x3^2 + x1*x3^2*x5")


def test_grothendieck_text(capsys):
    rc, out, _ = run(capsys, "grothendieck", "132")
    assert rc == 0
    assert out.strip() == "x1 + x2 - x1*x2"


def test_double_schubert(capsys):
    rc, out, _ = run(capsys, "schubert", "21", "--double")
    assert rc == 0
    assert out.strip() == "x1 - y1"


def test_double_of_word_is_an_error(capsys):
    rc, _, err = run(capsys, "schubert", "21231", "--k", "3", "--double")
    assert rc == 2
    assert "error:" in err


def test_bad_letters_exit_2(capsys):
    rc, _, err = run(capsys, "schubert", "103")
    assert rc == 2
    assert "error:" in err


# -- diagram commands ---------------------------------------------------------


def test_pipedreams_reduced_text(capsys):
    rc, out, _ = run(capsys, "pipedreams", "24153")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "5 reduced pipe dreams of permutation 24153"
    assert len(lines) == 6
    assert all(json.loads(line)["N"] == 5 for line in lines[1:])


def test_pipedreams_all_json(capsys):
    rc, out, _ = run(capsys, "pipedreams", "24153", "--all", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["permutation"] == "24153"
    assert payload["count"] == 13
    assert len(payload["diagrams"]) == 13


def test_pipedreams_word_render(capsys):
    rc, out, _ = run(capsys, "pipedreams", "21231", "--k", "3", "--render")
    assert rc == 0
    assert out.splitlines()[0] == "5 reduced pipe dreams of word 21231"
    assert "x1" in out and "x3" in out  # row labels from the substitution


def test_bpd_counts(capsys):
    rc, out, _ = run(capsys, "bpd", "24153")
    assert rc == 0
    assert out.splitlines()[0] == "5 reduced bumpless pipe dreams of permutation 24153"
    rc, out, _ = run(capsys, "bpd", "24153", "--all")
    assert rc == 0
    assert out.splitlines()[0] == ("6 K-theoretic bumpless pipe dreams"
                                   " of permutation 24153")


def test_bpd_ascii_art(capsys):
    rc, out, _ = run(capsys, "bpd", "21", "--format", "ascii-art")
    assert rc == 0
    assert "╭" in out and "┼" in out


# -- verification commands ---------------------------------------------------------


def test_verify_rings_single_pair(capsys):
    rc, out, _ = run(capsys, "verify", "rings", "--n", "3", "--k", "2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("verify rings (3,2): rank 6/6")
    assert lines[0].endswith("ok")
    summary = json.loads(lines[-1])
    assert summary["command"] == "verify-rings"
    assert summary["ok"] is True
    assert summary["pairs"][0]["rank"] == 6


def test_verify_rings_needs_both_sizes(capsys):
    rc, _, err = run(capsys, "verify", "rings", "--n", "3")
    assert rc == 2
    assert "--n and --k go together" in err


def test_verify_rings_cap(capsys):
    rc, _, err = run(capsys, "verify", "rings", "--n", "7", "--k", "2")
    assert rc == 2
    assert "--force" in err


def test_verify_identities(capsys):
    rc, out, _ = run(capsys, "verify", "identities", "--n", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "verify identities S_1 (PD+BPD+double): ok"
    assert lines[2] == "verify identities S_3 (PD+BPD+double): ok"
    summary = json.loads(lines[-1])
    assert summary["ok"] is True
    assert [s["n"] for s in summary["sizes"]] == [1, 2, 3]


# -- matrix commands ---------------------------------------------------------


def test_pattern_matrix_text(capsys):
    rc, out, _ = run(capsys, "pattern-matrix", "2442343", "--k", "4")
    assert rc == 0
    assert out.splitlines() == [
        "0 0 0 0 0 0 0",
        "1 * * 1 * * *",
        "0 0 0 0 1 0 1",
        "0 1 1 0 0 1 *",
    ]


def test_pattern_matrix_latex(capsys):
    rc, out, _ = run(capsys, "pattern-matrix", "12", "--format", "latex")
    assert rc == 0
    assert out.startswith("\\begin{pmatrix}")
    assert "\\star" in out


def test_reduce_from_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json([[1, 2, 3, 1, 1],
                                    [2, 1, 3, 0, -1],
                                    [3, -3, 0, 0, 3]]))
    rc, out, _ = run(capsys, "reduce", str(path), "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["word"] == "12233"
    assert payload["R"] == [["1", "-2/3", "-1", "1/3", "1/9"],
                            ["0", "1", "1", "-2/3", "-1/3"],
                            ["0", "0", "0", "1", "1"]]
    assert payload["fits_pattern"] is True


def test_reduce_text_layout(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json([[1, 2], [0, 1]]))
    rc, out, _ = run(capsys, "reduce", str(path))
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "word: 12"
    assert lines[-1] == "fits pattern: True"


def test_reduce_closes_the_matrix_file(tmp_path):
    # development mode reports a file left for the garbage collector to close
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json([[1, 2], [0, 1]]))
    proc = run_module("text", "reduce", str(path), python_flags=("-X", "dev"))
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr


def test_reduce_random_is_seeded(capsys):
    rc, first, _ = run(capsys, "reduce", "--random", "4", "2", "--seed", "7")
    assert rc == 0
    rc, second, _ = run(capsys, "reduce", "--random", "4", "2", "--seed", "7")
    assert first == second
    assert first.splitlines()[0].startswith("word: ")


def test_reduce_usage_errors(capsys, tmp_path):
    rc, _, err = run(capsys, "reduce")
    assert rc == 2 and "matrix file required" in err
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json([[1]]))
    rc, _, err = run(capsys, "reduce", str(path), "--random", "2", "1")
    assert rc == 2 and "not both" in err
    rc, _, err = run(capsys, "reduce", str(path), "--field", "r")
    assert rc == 2 and "--field" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "reduce", str(bad))
    assert rc == 2 and "malformed matrix JSON" in err


def test_reduce_mod_p_failure_exits_2(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json([["1/3"]]))
    rc, _, err = run(capsys, "reduce", str(path), "--field", "p=3")
    assert rc == 2
    assert "denominator" in err


def test_cell_report_json(capsys):
    rc, out, _ = run(capsys, "cell-report", "2442343", "--k", "4",
                     "--format", "json")
    assert rc == 0
    rep = json.loads(out)
    assert rep["star_count"] == 6
    assert rep["kn_minus_length"] == 16
    assert rep["cell_dimension"] == 9
    assert rep["consistent"] is False


def test_cell_report_text_flags_disagreement(capsys):
    rc, out, _ = run(capsys, "cell-report", "2442343", "--k", "4")
    assert rc == 0
    assert "star_count: 6" in out
    assert "note:" in out


# -- fubini command ---------------------------------------------------------


def test_fubini_enumeration(capsys):
    rc, out, _ = run(capsys, "fubini", "--n", "3", "--k", "2")
    assert rc == 0
    assert out.split() == ["112", "121", "122", "211", "212", "221"]


def test_fubini_count_and_json(capsys):
    rc, out, _ = run(capsys, "fubini", "--n", "3", "--k", "2", "--count")
    assert rc == 0 and out.strip() == "6"
    rc, out, _ = run(capsys, "fubini", "--n", "3", "--k", "2",
                     "--format", "json")
    payload = json.loads(out)
    assert payload["count"] == 6
    assert len(payload["words"]) == 6


def test_fubini_rejects_nonpositive(capsys):
    rc, _, err = run(capsys, "fubini", "--n", "0", "--k", "2")
    assert rc == 2


# -- process-level behavior ---------------------------------------------------------


# Absolute path of the installed `pipedreams` script, looked up in this
# interpreter's scripts directory first, then on PATH; None if absent.
CONSOLE_SCRIPT = (shutil.which("pipedreams", path=sysconfig.get_path("scripts"))
                  or shutil.which("pipedreams"))


def run_module(fmt, *argv, python_flags=()):
    """Run `python -m pipedreams.cli` with PIPEDREAMS_FORMAT set to `fmt`,
    importing the same package as this process."""
    env = dict(os.environ, PIPEDREAMS_FORMAT=fmt)
    package_root = str(Path(pipedreams.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "pipedreams.cli", *argv],
        capture_output=True, text=True, env=env)


@pytest.mark.skipif(CONSOLE_SCRIPT is None,
                    reason="no `pipedreams` console script installed; run "
                           "`python setup.py develop` in this interpreter")
def test_console_script_installed():
    proc = subprocess.run([CONSOLE_SCRIPT, "fubini", "--n", "2", "--k", "2",
                           "--count"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2"


def test_setup_py_reads_the_project_metadata():
    # the offline `python setup.py develop` install runs this same script
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "setup.py", "--name"], cwd=root,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "artifact"
    # no warning about an optional extension build
    assert "Cython" not in proc.stderr
    assert "lattice" not in proc.stderr


def test_format_environment_variable():
    proc = run_module("json", "schubert", "21")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["terms"] == [{"coeff": "1", "exp": [1, 0]}]


def test_bad_format_environment_warns_once():
    proc = run_module("bogus", "schubert", "21")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "x1"
    assert proc.stderr.count("ignoring PIPEDREAMS_FORMAT") == 1


def test_explicit_flag_beats_environment():
    proc = run_module("json", "schubert", "21", "--format", "text")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "x1"
