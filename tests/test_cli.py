"""End-to-end checks of the command-line interface.

Most tests shell out to ``python -m cpcat`` so argument parsing, exit
codes, and the printed format are all exercised exactly as a user sees
them; tests that make many calls run ``cli.main`` in this process.
The ``golden`` directory pins full outputs for a corpus of scripts;
regenerate a file there only after inspecting the change.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpcat import (Mor, Obj, cli, parse_script, print_script, read_morfile,
                   swap, write_morfile)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, env=None, cwd=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "cpcat", *args],
                          capture_output=True, text=True, env=full_env,
                          cwd=cwd)


def script_semiring(path: Path) -> str:
    first = path.read_text().splitlines()[0]
    return "bool" if "semiring: bool" in first else "complex"


def test_eq_of_a_self_adjoint_wire():
    proc = run_cli("eq", "id 2", "dagger (id 2)", "--tol", "1e-9")
    assert proc.returncode == 0
    assert "equal=true" in proc.stdout


def test_eq_failure_reports_the_deviation():
    proc = run_cli("eq", "[1, 0; 0, 1]", "[1, 0; 0, -1]")
    assert proc.returncode == 1
    assert "equal=false" in proc.stdout
    assert "max_abs_diff=2" in proc.stdout


def test_eval_prints_entries_with_full_precision():
    proc = run_cli("eval", "[0.1]")
    assert proc.returncode == 0
    assert "entry[0][0]=0.10000000000000001 0" in proc.stdout


def test_eval_writes_morphism_files(tmp_path):
    out = tmp_path / "swap.mor"
    proc = run_cli("eval", "swap 2 3", "--out", str(out))
    assert proc.returncode == 0
    m = read_morfile(out)
    assert m.dom == Obj(2, 3)
    assert np.array_equal(m.array, swap(2, 3).array)


def test_check_cp_rejects_the_transpose_choi(tmp_path):
    path = tmp_path / "transpose.mor"
    write_morfile(Mor(Obj(2, 2), Obj(2, 2), swap(2, 2).array), path)
    proc = run_cli("check-cp", str(path))
    assert proc.returncode == 1
    assert "cp=false" in proc.stdout
    line = [l for l in proc.stdout.splitlines()
            if l.startswith("min_eigenvalue=")][0]
    assert abs(float(line.split("=")[1]) + 1.0) < 1e-9


def test_check_cp_accepts_the_identity_choi(tmp_path):
    choi = np.zeros((4, 4))
    for spot in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        choi[spot] = 1.0
    path = tmp_path / "identity.mor"
    write_morfile(Mor(Obj(2, 2), Obj(2, 2), choi), path)
    proc = run_cli("check-cp", str(path))
    assert proc.returncode == 0
    assert "cp=true" in proc.stdout
    assert "hermitian=true" in proc.stdout


def test_dilate_round_trips_through_choi(tmp_path):
    choi = np.zeros((4, 4))
    for spot in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        choi[spot] = 1.0
    path = tmp_path / "identity.mor"
    write_morfile(Mor(Obj(2, 2), Obj(2, 2), choi), path)
    out = tmp_path / "kraus.mor"
    proc = run_cli("dilate", str(path), "--out", str(out))
    assert proc.returncode == 0
    assert "ancilla_dim=1" in proc.stdout
    line = [l for l in proc.stdout.splitlines()
            if l.startswith("reconstruction_error=")][0]
    assert float(line.split("=")[1]) < 1e-10
    stacked = read_morfile(out)
    assert stacked.dom == Obj(2)


def test_dilate_refuses_a_non_cp_choi(tmp_path):
    path = tmp_path / "transpose.mor"
    write_morfile(Mor(Obj(2, 2), Obj(2, 2), swap(2, 2).array), path)
    proc = run_cli("dilate", str(path))
    assert proc.returncode == 1
    assert "cp=false" in proc.stdout


def test_choi_output_feeds_check_cp(tmp_path):
    # the swap's codomain splits as output 2, traced ancilla 2
    out = tmp_path / "choi.mor"
    proc = run_cli("choi", "swap 2 2", "--out", str(out))
    assert proc.returncode == 0
    assert "in_dim=4" in proc.stdout
    assert "out_dim=2" in proc.stdout
    again = run_cli("check-cp", str(out))
    assert again.returncode == 0
    assert "cp=true" in again.stdout


def test_cp_compose_reports_the_composite_type(tmp_path):
    script = tmp_path / "pair.cps"
    script.write_text(
        "mor v : 2 -> 2*2 = [1, 0; 0, 0; 0, 0; 0, 1] ;\n"
        "mor w : 2 -> 3*1 = [1, 0; 0, 1; 0, 0] ;\n")
    proc = run_cli("cp-compose", "w", "v", "--script", str(script))
    assert proc.returncode == 0
    assert "dom=2" in proc.stdout
    assert "out=3" in proc.stdout
    assert "ancilla=1*2" in proc.stdout


def test_check_axioms_doubling_holds():
    proc = run_cli("check-axioms", "--axiom", "doubling",
                   "--seed", "7", "--samples", "100")
    assert proc.returncode == 0
    assert proc.stdout.rstrip().endswith("summary=holds on 100 samples")


def test_check_axioms_env_a_boolean():
    proc = run_cli("check-axioms", "--axiom", "env-a", "--semiring", "bool",
                   "--samples", "5")
    assert proc.returncode == 0
    assert "status=holds" in proc.stdout
    # env-a enumerates every object up to dimension 4 and samples nothing,
    # so the report must not echo --samples back
    assert "samples=0\n" in proc.stdout
    assert "checked=26\n" in proc.stdout
    assert proc.stdout.rstrip().endswith("summary=holds on 26 enumerated clauses")


def test_check_axioms_env_c_needs_complex():
    proc = run_cli("check-axioms", "--axiom", "env-c", "--semiring", "bool")
    assert proc.returncode == 2
    assert "complex" in proc.stderr


def test_laws_both_semirings():
    for semiring in ("complex", "bool"):
        proc = run_cli("laws", "--semiring", semiring, "--trials", "30")
        assert proc.returncode == 0
        assert "ok=true" in proc.stdout
        assert "law[dagger_involution]=0" in proc.stdout


def test_script_mode_failing_check_exits_one(tmp_path):
    script = tmp_path / "wrong.cps"
    script.write_text("eq [1], [2] ;\n")
    proc = run_cli("eval", "--script", str(script))
    assert proc.returncode == 1
    assert "check[0].equal=false" in proc.stdout


def test_tolerance_environment_variable(tmp_path):
    strict = run_cli("eq", "[1]", "[1.000001]")
    assert strict.returncode == 1
    loose = run_cli("eq", "[1]", "[1.000001]", env={"CPCAT_TOL": "1e-3"})
    assert loose.returncode == 0
    # an explicit flag wins over the environment
    flagged = run_cli("eq", "[1]", "[1.000001]", "--tol", "1e-9",
                      env={"CPCAT_TOL": "1e-3"})
    assert flagged.returncode == 1
    garbled = run_cli("eq", "[1]", "[1]", env={"CPCAT_TOL": "many"})
    assert garbled.returncode == 2


def test_usage_errors_exit_two():
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("check-axioms").returncode == 2
    assert run_cli("eval").returncode == 2


def test_missing_script_file_exits_two(tmp_path):
    proc = run_cli("eval", "--script", str(tmp_path / "absent.cps"))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def assert_bad_input(proc):
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_cp_rejects_a_nan_choi_file(tmp_path):
    # json reads NaN, so the entry reaches the reader as a float
    path = tmp_path / "nan.mor"
    path.write_text('{"dom": [1, 1], "cod": [1, 1], "semiring": "complex", '
                    '"entries": [[[NaN, 0]]]}')
    proc = run_cli("check-cp", str(path))
    assert_bad_input(proc)
    assert proc.stdout == ""


def test_eval_rejects_an_overflowing_literal():
    proc = run_cli("eval", "[1e400]")
    assert_bad_input(proc)
    assert "out of range" in proc.stderr


def test_check_cp_rejects_ragged_entries(tmp_path):
    path = tmp_path / "ragged.mor"
    path.write_text('{"dom": [2], "cod": [2], "semiring": "complex", '
                    '"entries": [[[1, 0], [0, 0]], [[1, 0]]]}')
    assert_bad_input(run_cli("check-cp", str(path)))


def run_main(capsys, *args):
    """``cli.main`` in this process: (exit code, stdout, stderr)."""
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def identity_choi(tmp_path):
    choi = np.zeros((4, 4))
    for spot in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        choi[spot] = 1.0
    path = tmp_path / "identity.mor"
    write_morfile(Mor(Obj(2, 2), Obj(2, 2), choi), path)
    return str(path)


# every subcommand that reads a tolerance, with inputs it accepts
TOL_COMMANDS = {
    "eval": lambda tmp: ["eval", "[1]"],
    "eq": lambda tmp: ["eq", "[1]", "[1]"],
    "check-cp": lambda tmp: ["check-cp", identity_choi(tmp)],
    "dilate": lambda tmp: ["dilate", identity_choi(tmp)],
    "check-axioms": lambda tmp: ["check-axioms", "--axiom", "env-a"],
    "laws": lambda tmp: ["laws", "--trials", "2"],
}


@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
def test_a_bad_tolerance_exits_two(command, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CPCAT_TOL", raising=False)
    argv = TOL_COMMANDS[command](tmp_path)
    assert run_main(capsys, *argv)[0] == 0
    for bad in ("-1", "nan", "inf"):
        code, out, err = run_main(capsys, *argv, "--tol", bad)
        assert (code, out) == (2, ""), bad
        assert "tolerance must be finite and >= 0" in err
    monkeypatch.setenv("CPCAT_TOL", "-1")
    # dilate's --tol is its eigenvalue cutoff and ignores CPCAT_TOL
    assert run_main(capsys, *argv)[0] == (0 if command == "dilate" else 2)


def test_choi_and_cp_compose_take_no_tolerance(capsys):
    for argv in (["choi", "swap 2 2"], ["cp-compose", "swap 2 2", "swap 2 2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--tol", "1"])
        assert exc.value.code == 2


def test_eval_script_reads_the_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CPCAT_TOL", raising=False)
    script = tmp_path / "close.cps"
    script.write_text("eq [1], [1.5] ;\n")
    assert run_main(capsys, "eval", "--script", str(script))[0] == 1
    code, out, _ = run_main(capsys, "eval", "--script", str(script),
                            "--tol", "1")
    assert code == 0
    assert "check[0].equal=true" in out


def test_laws_rejects_a_zero_max_dim(capsys):
    code, out, err = run_main(capsys, "laws", "--max-dim", "0")
    assert (code, out) == (2, "")
    assert "max_dim" in err


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_eval_rejects_a_non_finite_result(capsys):
    code, out, err = run_main(capsys, "eval", "[1e300] ox [1e300]")
    assert (code, out) == (2, "")
    assert "non-finite" in err


CHAIN = " ; ".join(["id 2"] * 5000)


@pytest.mark.parametrize("expr,code", [
    (CHAIN, 0),
    (" ox ".join(["id 1"] * 5000), 0),
    (CHAIN + " ; id 3", 2),
    ("(" * 2000 + "id 1" + ")" * 2000, 2),
    ("dagger " * 3000 + "id 1", 2),
], ids=["seq-chain", "ox-chain", "chain-clash", "parens", "daggers"])
def test_long_and_deep_expressions_exit_cleanly(expr, code, capsys):
    got, out, err = run_main(capsys, "eval", expr)
    assert got == code
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert "error: line 1" in err


GOOD_SCRIPTS = sorted(GOLDEN.glob("*.cps"))
BAD_SCRIPTS = sorted(GOLDEN.glob("*.bad"))


@pytest.mark.parametrize("path", GOOD_SCRIPTS, ids=lambda p: p.stem)
def test_golden_output(path):
    proc = run_cli("eval", "--script", str(path),
                   "--semiring", script_semiring(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == path.with_suffix(".out").read_text()


@pytest.mark.parametrize("path", GOOD_SCRIPTS, ids=lambda p: p.stem)
def test_golden_print_parse_identity(path):
    statements = parse_script(path.read_text())
    assert parse_script(print_script(statements)) == statements


@pytest.mark.parametrize("path", BAD_SCRIPTS, ids=lambda p: p.stem)
def test_malformed_scripts_exit_two(path):
    proc = run_cli("eval", "--script", str(path))
    assert proc.returncode == 2
    assert "error: line" in proc.stderr
    assert "col" in proc.stderr


def test_corpus_size_is_stable():
    assert len(GOOD_SCRIPTS) == 20
    assert len(BAD_SCRIPTS) == 3
