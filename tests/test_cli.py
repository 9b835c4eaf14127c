"""End-to-end checks of the command-line interface.

Most tests shell out to ``python -m cpcat`` so argument parsing, exit
codes, and the printed format are all exercised exactly as a user sees
them; tests that make many calls run ``cli.main`` in this process.
The ``golden`` directory pins full outputs for a corpus of scripts;
regenerate a file there only after inspecting the change.
"""

import argparse
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cpcat import (BOOLEAN, COMPLEX, Mor, Obj, cli, dsl, parse_script,
                   print_script, read_morfile, swap, write_morfile)
from test_command_goldens import CHOI

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


def identity_choi(tmp_path) -> str:
    """A file holding the identity channel's Choi matrix on 2 levels."""
    path = tmp_path / "identity.mor"
    write_morfile(CHOI["identity"], path)
    return str(path)


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
    proc = run_cli("check-cp", identity_choi(tmp_path))
    assert proc.returncode == 0
    assert "cp=true" in proc.stdout
    assert "hermitian=true" in proc.stdout


def test_dilate_round_trips_through_choi(tmp_path):
    out = tmp_path / "kraus.mor"
    proc = run_cli("dilate", identity_choi(tmp_path), "--out", str(out))
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


def test_dilate_refuses_a_choi_no_kraus_factor_rebuilds(tmp_path):
    # eigenvalues 2.9e-10 and -9e-11: within the default tol of positive,
    # but the Cholesky leaves a pivot of -2.61e-10
    choi = np.array([[1e-10, 1.9e-10], [1.9e-10, 1e-10]])
    path = tmp_path / "faint.mor"
    write_morfile(Mor(Obj(1, 2), Obj(1, 2), choi), path)
    proc = run_cli("dilate", str(path))
    assert (proc.returncode, proc.stderr) == (1, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == "cp=false"
    assert lines[1] == "error=Choi matrix has pivot -2.610e-10 < -1.000e-10"
    assert len(lines) == 2


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


# a Latin-1 "é" after five ASCII bytes: not UTF-8 from offset 5 on
@pytest.mark.parametrize("argv", [
    ["eval", "--script", "{path}"],
    ["eq", "id 2", "id 2", "--script", "{path}"],
    ["check-cp", "{path}"], ["dilate", "{path}"]])
def test_a_file_that_is_not_utf8_exits_two_naming_the_byte(argv, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# caf\xe9\n")
    proc = run_cli(*[arg.format(path=path) for arg in argv])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (f"error: {path}: not UTF-8 text: byte 0xe9 at "
                           "offset 5\n")


def test_eval_script_refuses_out_before_printing(tmp_path):
    out = tmp_path / "result.mor"
    proc = run_cli("eval", "--script", str(GOLDEN / "pauli_x.cps"),
                   "--out", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: --out needs an expression\n")
    assert not out.exists()


def choi_file(tmp: Path, mor: Mor) -> str:
    path = tmp / "choi.mor"
    write_morfile(mor, path)
    return str(path)


def bad_mor_script(tmp: Path) -> str:
    path = tmp / "bad.cps"
    path.write_text("mor 1 : 1 -> 1 = [1] ;\n")
    return str(path)


# refusals at the boundary, each with the whole of its message
REFUSALS = [
    (lambda tmp: ["eval", "--script", bad_mor_script(tmp)],
     "line 1, col 5: expected a fresh name after 'mor'"),
    (lambda tmp: ["eval"], "eval needs an expression or --script"),
    (lambda tmp: ["choi", "swap 2 2", "--semiring", "bool"],
     "choi needs the complex semiring"),
    (lambda tmp: ["check-cp", choi_file(tmp, Mor(Obj(2, 2), Obj(2, 2),
                                                 np.eye(4), BOOLEAN))],
     "{tmp}/choi.mor: Choi matrices need the complex semiring"),
    (lambda tmp: ["dilate", choi_file(tmp, Mor(Obj(2, 2), Obj(2, 2),
                                               np.eye(4), BOOLEAN))],
     "{tmp}/choi.mor: Choi matrices need the complex semiring"),
    (lambda tmp: ["check-cp", choi_file(tmp, Mor(Obj(4), Obj(2, 2),
                                                 np.eye(4)))],
     "{tmp}/choi.mor: a Choi matrix is typed A*B -> A*B (input, output); "
     "got 4 -> 2*2"),
    (lambda tmp: ["check-cp", choi_file(tmp, Mor(Obj(1, 2), Obj(1, 2),
                                                 np.full((2, 2), np.nan)))],
     "complex entries must be finite"),
]


@pytest.mark.parametrize("argv,message", REFUSALS)
def test_each_refusal_exits_two_with_its_message(argv, message, tmp_path,
                                                 capsys):
    code, out, err = run_main(capsys, *argv(tmp_path))
    assert (code, out, err) == (
        2, "", f"error: {message.format(tmp=tmp_path)}\n")


def test_a_tolerance_variable_that_is_no_number_exits_two(capsys,
                                                           monkeypatch):
    monkeypatch.setenv("CPCAT_TOL", "1e-9x")
    assert run_main(capsys, "eval", "[1]") == (
        2, "", "error: CPCAT_TOL must be a number, got '1e-9x'\n")


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


def test_check_cp_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.mor"
    path.write_text("[" * 100000 + "]" * 100000)
    assert_bad_input(run_cli("check-cp", str(path)))


def run_main(capsys, *args):
    """``cli.main`` in this process: (exit code, stdout, stderr)."""
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


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
    # dilate's --tol is its Kraus-factor cutoff and ignores CPCAT_TOL
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


# bindings in order, then two checks that fail to type when run
UNUSED_CHECKS = ("mor k : 2 -> 2*1 = [1, 0; 0, 1] ;\n"
                 "mor j : 2 -> 2*1 = k ; dagger k ;\n"
                 "eval id 2 ; id 3 ;\n"
                 "eq id 2, id 3 ;\n")
SCRIPT_USES = [("choi", "j"), ("eq", "j", "id 2"), ("eval", "id 2"),
               ("cp-compose", "j", "k")]


@pytest.mark.parametrize("argv", SCRIPT_USES)
def test_only_eval_without_an_expression_runs_script_checks(argv, tmp_path,
                                                            capsys):
    script = tmp_path / "checks.cps"
    script.write_text(UNUSED_CHECKS)
    code, out, err = run_main(capsys, *argv, "--script", str(script))
    assert (code, err) == (0, "")
    assert out
    code, out, err = run_main(capsys, "eval", "--script", str(script))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 3, col ")


@pytest.mark.parametrize("argv", SCRIPT_USES)
@pytest.mark.parametrize("check,message", [
    ("eval [1, 2 ;", "line 3, col 1: expected a scalar"),
    ("eval nope ;", "line 2, col 6: unknown name 'nope'"),
    ("mor m : 2 -> 3 = id 2 ;", "line 2, col 1: binding 'm' declares")])
def test_every_script_use_parses_the_whole_script_and_runs_its_bindings(
        argv, check, message, tmp_path, capsys):
    script = tmp_path / "bad.cps"
    script.write_text("mor j : 2 -> 2*1 = [1, 0; 0, 1] ;\n"
                      f"{check}\n")
    code, out, err = run_main(capsys, *argv, "--script", str(script))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [
    ("laws", "--seed", "-1"),
    ("check-axioms", "--axiom", "doubling", "--seed", "-5")])
def test_a_negative_seed_exits_two(argv, capsys):
    code, out, err = run_main(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: seed must be >= 0")


def test_a_sampled_runner_refuses_zero_samples(capsys):
    code, out, err = run_main(capsys, "check-axioms", "--axiom", "doubling",
                              "--samples", "0")
    assert (code, out, err) == (2, "", "error: samples must be >= 1, got 0\n")


@pytest.mark.parametrize("flags", [
    ("--samples", "-1", "--seed", "-3"), ("--samples", "-1"),
    ("--seed", "-3")])
def test_env_a_refuses_a_negative_sample_count_or_seed(flags, capsys):
    # env-a enumerates its objects, so it ignores both, but it refuses
    # what the sampled runners refuse
    code, out, err = run_main(capsys, "check-axioms", "--axiom", "env-a",
                              *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    code, out, _ = run_main(capsys, "check-axioms", "--axiom", "env-a",
                            "--samples", "0")
    assert code == 0
    assert "status=holds" in out


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


@pytest.mark.parametrize("expr,col,text", [
    ("id 0", 4, "0"), ("swap 2 0", 8, "0"), ("cup 0.0", 5, "0.0")])
def test_a_zero_dimension_is_a_positioned_syntax_error(expr, col, text,
                                                       capsys):
    code, out, err = run_main(capsys, "eval", expr)
    assert (code, out) == (2, "")
    assert err == (f"error: line 1, col {col}: "
                   f"expected a positive integer, got {text!r}\n")


def test_an_overflow_prints_only_the_error_line():
    proc = run_cli("eval", "[1e300] ox [1e300]")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stderr == "error: the result has non-finite entries\n"


def test_an_infinite_deviation_prints_no_warning():
    proc = run_cli("eq", "[1e308]", "[-1e308]")
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout.splitlines()[:2] == ["equal=false", "max_abs_diff=inf"]


@pytest.mark.parametrize("command", ["check-cp", "dilate"])
def test_a_choi_near_the_float_limit_is_cp_without_warnings(tmp_path, command):
    path = tmp_path / "huge.mor"
    write_morfile(Mor(Obj(1, 2), Obj(1, 2), np.diag([1e308, 1e308])), path)
    proc = run_cli(command, str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    if command == "check-cp":
        assert "min_eigenvalue=1e+308" in proc.stdout.splitlines()
        assert "cp=true" in proc.stdout.splitlines()
    else:
        assert "kraus[1].entry[1][0]=1e+154 0" in proc.stdout.splitlines()


@pytest.mark.parametrize("command", ["check-cp", "dilate"])
def test_an_indefinite_choi_near_the_float_limit_is_refused_without_warnings(
        tmp_path, command):
    path = tmp_path / "huge.mor"
    m = np.array([[1e308, 1e308], [1e308, -1e308]])
    write_morfile(Mor(Obj(1, 2), Obj(1, 2), m), path)
    proc = run_cli(command, str(path))
    assert (proc.returncode, proc.stderr) == (1, "")
    lines = proc.stdout.splitlines()
    assert "cp=false" in lines
    assert "min_eigenvalue=-1.4142135623730951e+308" in lines


def test_dilate_of_a_rank_one_choi_at_the_float_limit_prints_no_warning(
        tmp_path):
    # the factor's Gram matrix L†L overflows to inf; the certificate
    # still holds, and numpy's warning must not reach stderr
    path = tmp_path / "huge.mor"
    write_morfile(Mor(Obj(1, 2), Obj(1, 2), np.full((2, 2), 1e308)), path)
    proc = run_cli("dilate", str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == ("in_dim=1\nout_dim=2\nancilla_dim=1\n"
                           "reconstruction_error=0\n"
                           "kraus[0].entry[0][0]=1e+154 0\n"
                           "kraus[0].entry[1][0]=1e+154 0\n")


def test_a_type_error_quotes_a_long_subterm_shortened(capsys):
    _, _, err = run_main(capsys, "eval", "id 2 ; id 3")
    assert err == ("error: line 1, col 6: cannot compose 2 into 3 "
                   "in 'id 2 ; id 3'\n")
    code, out, err = run_main(capsys, "eval", CHAIN + " ; id 3")
    assert (code, out) == (2, "")
    assert len(err) < 250
    assert err.startswith("error: line 1, col 34999: cannot compose 2 into 3 "
                          "in 'id 2 ; id 2 ; ")
    assert " ... " in err
    assert err.endswith(" ; id 2 ; id 3'\n")


# Far below what an over-budget term would ask for, far above what a
# refused one needs: a regression fails with MemoryError, not paging.
ADDRESS_LIMIT = 1 << 30


def limited_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


@pytest.mark.parametrize("expr", [
    "id 1e300", "id 1e18", "cup 1e12", "swap 1e10 1e10", "discard 1e19",
    "id 300 ox id 300", "discard 100000 ; dagger (discard 100000)"])
def test_an_over_budget_term_exits_two_before_allocating(expr):
    proc = subprocess.run(
        [sys.executable, "-m", "cpcat", "eval", expr], capture_output=True,
        text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=limited_address_space)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: line 1, col ")
    assert f"more than {dsl.MAX_ENTRIES} entries" in proc.stderr


@pytest.mark.parametrize("fits,over", [
    ("id 4", "id 5"), ("swap 2 2", "swap 2 3"), ("cup 2", "cap 5"),
    ("id 2 ox id 2", "id 2 ox [1, 2; 3, 4; 5, 6]"),
    ("discard 4 ; dagger discard 4", "discard 5 ; dagger discard 5")])
def test_the_entry_budget_admits_its_bound_and_refuses_past_it(
        fits, over, capsys, monkeypatch):
    monkeypatch.setattr(dsl, "MAX_ENTRIES", 16)
    assert run_main(capsys, "eval", fits)[0] == 0
    code, out, err = run_main(capsys, "eval", over)
    assert (code, out) == (2, "")
    assert "the result would have more than 16 entries in " in err


def run_limited(*argv, limit=limited_address_space, stdout=subprocess.PIPE):
    """``python -m cpcat`` in a child whose address space ``limit`` caps."""
    return subprocess.run(
        [sys.executable, "-m", "cpcat", *argv], stdout=stdout,
        stderr=subprocess.PIPE, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, preexec_fn=limit)


# ``choi "swap 1 100"`` asks for (100 * 100)^2 entries from a Kraus term of
# 10^4; the composite of ``cup 128`` after ``swap 128 1`` has 2^28 entries
# although each term has 2^14.
@pytest.mark.parametrize("argv,what", [
    (["choi", "swap 1 100"], "Choi matrix"),
    (["cp-compose", "cup 128", "swap 128 1"], "composite")])
def test_an_over_budget_choi_or_composite_exits_two_before_allocating(
        argv, what):
    proc = run_limited(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: the {what} would have ")
    assert proc.stderr.endswith(f" entries, more than {dsl.MAX_ENTRIES}\n")


@pytest.mark.parametrize("argv,err", [
    (["choi", "[1; 0; 0; 0] ox [1]"], None),
    (["choi", "[1; 0; 0; 0; 0] ox [1]"],
     "the Choi matrix would have 25 entries, more than 16"),
    (["cp-compose", "id 2 ox [1; 0]", "[1; 0] ox [1; 0; 0; 0]"], None),
    (["cp-compose", "id 2 ox [1; 0]", "[1; 0] ox [1; 0; 0; 0; 0]"],
     "the composite would have 20 entries, more than 16"),
    # 3 outputs meet 2 inputs: no composite, whatever its 20 entries
    (["cp-compose", "id 2 ox [1; 0]", "[1; 0; 0] ox [1; 0; 0; 0; 0]"],
     "cp_compose: output dim 3 != input dim 2")])
def test_choi_and_cp_compose_admit_the_budget_and_refuse_past_it(
        argv, err, capsys, monkeypatch):
    # every term here fits the budget; only the result can pass it
    monkeypatch.setattr(dsl, "MAX_ENTRIES", 16)
    code, out, stderr = run_main(capsys, *argv)
    if err is None:
        assert (code, stderr) == (0, "")
        assert out.count("entry[") == 16
    else:
        assert (code, out, stderr) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("argv", [
    ["choi", "id 2000"], ["cp-compose", "id 2000", "swap 2 2"],
    ["cp-compose", "swap 2 2", "id 2000"]])
def test_a_kraus_term_without_two_factors_is_refused_unbuilt(argv, capsys):
    # id 2000 is inside the budget, but it alone holds 61 MiB
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, *capsys.readouterr()) == (
        2, "", "error: expression 'id 2000' has codomain 2000; a Kraus "
        "morphism needs exactly two factors (output, ancilla)\n")
    assert peak < 2**20


# Each refusal comes from the types alone, so neither term is built:
# id 2000 holds 61 MiB, swap 40 40 39 MiB and swap 2048 1 64 MiB.  A
# binding is typed against its declaration before it is built.
@pytest.mark.parametrize("argv,err", [
    (["eq", "id 2000", "id 2"], "cannot compare 2000 -> 2000 with 2 -> 2"),
    (["eq", "[1]", "id 2000"], "cannot compare 1 -> 1 with 2000 -> 2000"),
    (["eval", "--script", "{script}"],
     "line 1, col 1: eq compares 2000 -> 2000 with 2 -> 2"),
    (["choi", "swap 40 40"],
     f"the Choi matrix would have {(40 ** 3) ** 2} entries, more than "
     f"{dsl.MAX_ENTRIES}"),
    (["cp-compose", "cup 5", "swap 2048 1"],
     f"the composite would have {25 * 2048 ** 2} entries, more than "
     f"{dsl.MAX_ENTRIES}"),
    (["eval", "--script", "{binding}"],
     "line 1, col 1: binding 'x' declares 2 -> 2 but the expression has "
     "2000 -> 2000")])
def test_a_refusal_by_type_or_size_builds_neither_term(argv, err, tmp_path,
                                                        capsys):
    script, binding = tmp_path / "eq.cps", tmp_path / "binding.cps"
    script.write_text("eq id 2000, id 2 ;\n", encoding="utf-8")
    binding.write_text("mor x : 2 -> 2 = id 2000 ;\n", encoding="utf-8")
    argv = [arg.format(script=script, binding=binding) for arg in argv]
    # a first call builds the parser and imports the command's modules,
    # so the traced one allocates only what the command itself does
    cli.main(argv)
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, *capsys.readouterr()) == (2, "", f"error: {err}\n")
    assert peak < 2**20


# What a launch imports after running ``eval``, and what ``import cpcat``
# alone imports of the package.
LAUNCH = """\
import sys
import cpcat
print(sorted(name for name in sys.modules if name.startswith("cpcat")))
from cpcat import cli
cli.main(["eval", "swap 2 3"])
print(sorted({"cpcat.axioms", "cpcat.channels", "cpcat.cp", "cpcat.cpm",
              "json"} & set(sys.modules)))
"""


def test_a_launch_loads_only_the_modules_its_subcommand_runs():
    proc = subprocess.run([sys.executable, "-c", LAUNCH], capture_output=True,
                          text=True)
    lines = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr) == (0, "")
    assert lines[0] == "['cpcat', 'cpcat.errors']"
    assert lines[1:-1] == run_cli("eval", "swap 2 3").stdout.splitlines()
    assert lines[-1] == "[]"


def test_laws_past_the_budget_exits_two_before_drawing():
    # one trial at --max-dim 91 holds g ⊗ g2 of up to 91**4 entries, past
    # the budget; 90**4 is inside it
    proc = run_limited("laws", "--max-dim", "91", "--trials", "3")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: the largest intermediate of a trial would have {91**4} "
        f"entries, more than {dsl.MAX_ENTRIES}\n")
    assert 90**4 <= dsl.MAX_ENTRIES


def test_laws_admits_the_budget_and_refuses_past_it(capsys, monkeypatch):
    monkeypatch.setattr(dsl, "MAX_ENTRIES", 16)
    code, out, err = run_main(capsys, "laws", "--max-dim", "2")
    assert (code, err) == (0, "")
    assert "ok=true" in out
    code, out, err = run_main(capsys, "laws", "--max-dim", "3")
    assert (code, out, err) == (2, "", "error: the largest intermediate of a "
                                "trial would have 81 entries, more than 16\n")


def test_a_result_too_large_for_the_host_exits_two_out_of_memory():
    # inside the budget (6.4e7 entries), but 1 GiB does not hold it
    proc = run_limited("eval", "id 8000")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: out of memory\n"


PROBE = """
import contextlib, io
from cpcat import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["eval", "id 2"])
with open("/proc/self/status") as fp:
    print(next(int(line.split()[1]) for line in fp
               if line.startswith("VmPeak:")) * 1024)
"""


def test_a_result_inside_the_budget_prints_in_about_one_row(tmp_path):
    # id 800 is 10 MB of entries; its 640,000 lines and their scalars,
    # held at once, need about 80 MB more.  So 48 MiB over what a small
    # evaluation needs holds the array and one row, not every line.
    probe = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                           text=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert probe.returncode == 0, probe.stderr
    limit = int(probe.stdout) + (48 << 20)
    path = tmp_path / "id800.out"
    with open(path, "w", encoding="utf-8") as fp:
        proc = run_limited(
            "eval", "id 800", stdout=fp,
            limit=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                             (limit, limit)))
    assert (proc.returncode, proc.stderr) == (0, "")
    with open(path, encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    assert lines[:3] == ["semiring=complex", "dom=800", "cod=800"]
    assert len(lines) == 3 + 800 * 800
    assert lines[4] == "entry[0][1]=0 0"
    assert lines[-1] == "entry[799][799]=1 0"


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


# check-axioms at seed 0 with default samples for every axiom and
# semiring (env-c is complex only) and laws on both semirings, each file
# the exact stdout of ``python -m cpcat <command> ...``:
# check-axioms_<axiom>_<semiring>.out and laws_<semiring>.out.
SWEEP = sorted((GOLDEN / "sweep").glob("*.out"))


def sweep_argv(path: Path) -> list:
    command, *rest = path.stem.split("_")
    if command == "laws":
        return ["laws", "--semiring", rest[0]]
    axiom, semiring = rest
    return ["check-axioms", "--axiom", axiom, "--semiring", semiring]


@pytest.mark.parametrize("path", SWEEP, ids=lambda p: p.stem)
def test_sweep_output_is_byte_identical(path, capsys, monkeypatch):
    monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
    code, out, err = run_main(capsys, *sweep_argv(path))
    assert (code, err) == (0, "")
    assert out == path.read_text()


def test_sweep_covers_every_axiom_and_semiring():
    assert len(SWEEP) == 13


def assert_as_in_a_fresh_process(capsys, *argv):
    """``cli.main`` here prints what a fresh ``python -m cpcat`` prints."""
    proc = run_cli(*argv)
    assert run_main(capsys, *argv) == (proc.returncode, proc.stdout,
                                       proc.stderr)


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_a_bool_script_leaves_the_default_semiring(capsys, monkeypatch):
    monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
    bool_script = next(p for p in GOOD_SCRIPTS
                       if script_semiring(p) == "bool")
    code, out, _ = run_main(capsys, "eval", "--script", str(bool_script),
                            "--semiring", "bool")
    assert (code, out.splitlines()[0]) == (0, "semiring=bool")
    assert_as_in_a_fresh_process(capsys, "eval", "[1, 2; 3, 4]")


def test_a_tolerance_flag_leaves_the_environment_default(capsys,
                                                         monkeypatch):
    monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
    code, out, _ = run_main(capsys, "eq", "[1]", "[1.5]", "--tol", "1")
    assert (code, out.splitlines()[-1]) == (0, "tol=1")
    monkeypatch.setenv(cli.TOL_ENV_VAR, "0.25")
    assert_as_in_a_fresh_process(capsys, "eq", "[1]", "[1.5]")


def test_an_out_file_is_written_by_its_own_call_only(tmp_path, capsys):
    out = tmp_path / "f.mor"
    assert run_main(capsys, "eval", "swap 2 3", "--out", str(out))[0] == 0
    out.unlink()
    assert_as_in_a_fresh_process(capsys, "eval", "swap 2 3")
    assert not out.exists()


def test_a_usage_error_leaves_the_next_call_clean(capsys, monkeypatch):
    monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
    with pytest.raises(SystemExit) as exc:
        cli.main(["eq", "[1]", "--semiring", "octonion"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert_as_in_a_fresh_process(capsys, "eq", "[1]", "[1]")


def test_main_builds_no_parser_after_its_first_call(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
    run_main(capsys, "eval", "id 2")
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    choi = identity_choi(tmp_path)
    for argv in (["eval", "id 2"], ["eval", "swap 2 3", "--semiring", "bool"],
                 ["eq", "[1]", "[2]"], ["check-cp", choi], ["dilate", choi],
                 ["choi", "swap 2 2"], ["cp-compose", "swap 2 2", "swap 2 2"],
                 ["check-axioms", "--axiom", "env-a", "--samples", "1"],
                 ["laws", "--trials", "2"], ["eval", "id 0"]):
        run_main(capsys, *argv)
    assert built == []
    # the counter does see a parser being built: one plus eight subparsers
    cli.build_parser.__wrapped__()
    assert len(built) == 9


def indexed_entry_lines(array, semiring, prefix):
    """The entry lines read one numpy scalar at a time."""
    lines = []
    for r in range(array.shape[0]):
        for c in range(array.shape[1]):
            v = array[r, c]
            if semiring is BOOLEAN:
                lines.append(f"{prefix}entry[{r}][{c}]={int(v)}")
            else:
                lines.append(f"{prefix}entry[{r}][{c}]="
                             f"{cli._f(v.real)} {cli._f(v.imag)}")
    return lines


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (4, 3)])
def test_entry_lines_match_the_indexed_loop(shape):
    rng = np.random.default_rng(sum(shape))
    signed_zeros = [complex(-0.0, -0.0), complex(0.0, -0.0),
                    complex(-0.0, 0.0), complex(-0.0, 1.5), complex(0.1, -0.0)]
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    z.flat[:len(signed_zeros)] = signed_zeros[:z.size]
    b = rng.integers(0, 2, size=shape).astype(np.bool_)
    for array, semiring in ((z, COMPLEX), (z.T, COMPLEX), (b, BOOLEAN)):
        for prefix in ("", "kraus[1]."):
            want = "\n".join(indexed_entry_lines(array, semiring, prefix))
            assert "\n".join(cli._entry_lines(array, semiring, prefix)) == want
    assert next(cli._entry_lines(z[:1, :1] * 0 - 0.0, COMPLEX, "")) == \
        "entry[0][0]=0 0"


# a 1*2 Choi matrix that is CP, and the same record with one value out
# of place
CP_RECORD = ('{"dom": [1, 2], "cod": [1, 2], "semiring": "complex", '
             '"entries": [[[1, 0], [0, 0]], [[0, 0], [1.0, 0]]]}')
BAD_RECORDS = {
    "a boolean dimension": CP_RECORD.replace('"dom": [1', '"dom": [true'),
    "a boolean codomain factor": CP_RECORD.replace('"cod": [1',
                                                   '"cod": [true'),
    "a string entry": CP_RECORD.replace("[[[1, 0]", '[[["1", 0]'),
    "a boolean among numbers": CP_RECORD.replace("[[[1, 0]", "[[[true, 0]"),
}


def check_cp_of(record: str, tmp_path, capsys) -> tuple:
    path = tmp_path / "record.mor"
    path.write_text(record)
    return run_main(capsys, "check-cp", str(path))


@pytest.mark.parametrize("record", BAD_RECORDS.values(), ids=BAD_RECORDS)
def test_a_morphism_file_holds_only_numbers(record, tmp_path, capsys):
    code, out, err = check_cp_of(record, tmp_path, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_the_same_records_with_numbers_are_cp(tmp_path, capsys):
    code, out, _ = check_cp_of(CP_RECORD, tmp_path, capsys)
    assert (code, out.splitlines()[-2]) == (0, "cp=true")


def test_a_result_prints_before_its_out_file_is_written(tmp_path, capsys):
    # the missing directory fails the write, after the result printed
    out = tmp_path / "missing" / "swap.mor"
    code, printed, err = run_main(capsys, "eval", "swap 2 3", "--out",
                                  str(out))
    assert (code, printed.splitlines()[0]) == (2, "semiring=complex")
    assert printed.count("\n") == 3 + 36 and err.startswith("error: ")


def emitted(capsys, fields, semiring=COMPLEX) -> str:
    cli._emit(fields, semiring)
    return capsys.readouterr().out


EMITTED = [
    ([("x", -0.0)], "x=0\n"),
    ([("x", 0.1)], "x=0.10000000000000001\n"),
    ([("x", np.float64(-1 / 3))], "x=-0.33333333333333331\n"),
    ([("ok", True), ("bad", False)], "ok=true\nbad=false\n"),
    ([("ok", np.bool_(True))], "ok=true\n"),
    ([("dom", Obj()), ("cod", Obj(2, 3))], "dom=1\ncod=2*3\n"),
    ([("n", 7), ("n", np.int64(-3))], "n=7\nn=-3\n"),
    ([("status", "holds")], "status=holds\n"),
    ([("error", ValueError("bad pivot"))], "error=bad pivot\n"),
    ([("v", np.array([1.5, -0.0]))],
     "v.entry[0][0]=1.5 0\nv.entry[1][0]=0 0\n"),
    ([("", np.array([[2j]]))], "entry[0][0]=0 2\n"),
]


@pytest.mark.parametrize("fields, want", EMITTED, ids=[
    "-0.0", "float", "np.float64", "bool", "np.bool_", "Obj", "int", "str",
    "exception", "1-D array", "unprefixed array"])
def test_emit_prints_each_type_in_its_format(fields, want, capsys):
    assert emitted(capsys, fields) == want


def test_emit_prints_a_3d_array_one_row_per_leading_index(capsys):
    stack = np.arange(8).reshape(2, 2, 2) % 3 == 0
    assert emitted(capsys, [("w", stack)], BOOLEAN) == "".join(
        f"w.entry[{r}][{c}]={int(v)}\n"
        for r, row in enumerate(stack.reshape(2, 4))
        for c, v in enumerate(row))


def test_emit_prints_a_mor_under_its_key_in_its_own_instance(capsys):
    m = Mor(Obj(1), Obj(2), np.array([[True], [False]]), BOOLEAN)
    want = ("check[3].semiring=bool\ncheck[3].dom=1\ncheck[3].cod=2\n"
            "check[3].entry[0][0]=1\ncheck[3].entry[1][0]=0\n")
    assert emitted(capsys, [("check[3]", m)], COMPLEX) == want
    assert emitted(capsys, [("", m)]) == want.replace("check[3].", "")


@pytest.mark.parametrize("value", [np.float32(0.5), np.longdouble(0.5),
                                   np.complex128(1j)], ids=type)
def test_emit_refuses_a_float_it_has_no_format_for(value, capsys):
    with pytest.raises(TypeError, match="no format"):
        cli._emit([("x", value)], COMPLEX)
    assert capsys.readouterr().out == ""
