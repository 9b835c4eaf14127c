"""Every subcommand's stdout and exit code, pinned byte for byte.

``tests/golden/*.out`` pins ``eval --script`` and ``tests/golden/sweep``
and ``tests/golden/witness`` pin ``check-axioms`` and ``laws``.  The
files here pin the rest: ``eq``, ``eval EXPR``, ``check-cp``,
``dilate``, ``choi`` and ``cp-compose``, on inputs that reach each of
their reports (equal and unequal, CP and not, Hermitian and not, a
dilation and each of its three refusals), and a ``laws`` run that fails.

* ``commands/<case>.out`` is the exact stdout of ``python -m cpcat``
  with the arguments :data:`CASES` gives ``<case>``; the case also gives
  the exit code.  Nothing is printed to stderr.
* ``commands/<name>.mor`` are the Choi matrices the ``check-cp`` and
  ``dilate`` cases read.

Regenerate with ``PYTHONPATH=src python tests/test_command_goldens.py``,
and only at a commit whose output is known good: the point of these
files is that a change to the command line leaves them alone.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from cpcat import Mor, Obj, cli, swap, write_morfile

COMMANDS = Path(__file__).parent / "golden" / "commands"


# the Choi matrices the check-cp and dilate cases read
CHOI = {
    # the identity's: the outer product of the vectorised identity
    "identity": Mor(Obj(2, 2), Obj(2, 2), np.outer(*2 * [np.eye(2).ravel()])),
    # the transpose: Hermitian, with least eigenvalue -1
    "swap": Mor(Obj(2, 2), Obj(2, 2), swap(2, 2).array),
    # eigenvalues 2.9e-10 and -9e-11: within the default tol of positive,
    # but the Cholesky leaves a pivot of -2.61e-10
    "faint": Mor(Obj(1, 2), Obj(1, 2),
                 np.array([[1e-10, 1.9e-10], [1.9e-10, 1e-10]])),
    # antisymmetric: its adjoint is its negative, 2 away per entry
    "skew": Mor(Obj(1, 2), Obj(1, 2), np.array([[0.0, 1.0], [-1.0, 0.0]])),
}


def choi_path(name: str) -> str:
    return str(COMMANDS / f"{name}.mor")


# (case, argv, exit code)
CASES = [
    ("eq_equal", ["eq", "id 2", "dagger (id 2)"], 0),
    ("eq_unequal", ["eq", "[1, 0; 0, 1]", "[1, 0; 0, -1]"], 1),
    ("eval_swap_complex", ["eval", "swap 2 3"], 0),
    ("eval_swap_bool", ["eval", "swap 2 3", "--semiring", "bool"], 0),
    # conjugating a real matrix gives imaginary parts of -0
    ("eval_signed_zeros", ["eval", "dagger [1, 2; 3, 4]"], 0),
    ("check-cp_identity", ["check-cp", choi_path("identity")], 0),
    ("check-cp_swap", ["check-cp", choi_path("swap")], 1),
    ("check-cp_skew", ["check-cp", choi_path("skew")], 1),
    ("dilate_identity", ["dilate", choi_path("identity")], 0),
    ("dilate_swap", ["dilate", choi_path("swap")], 1),
    ("dilate_faint", ["dilate", choi_path("faint")], 1),
    ("dilate_skew", ["dilate", choi_path("skew")], 1),
    ("choi_swap", ["choi", "swap 2 2"], 0),
    ("cp-compose_complex", ["cp-compose", "swap 2 2", "swap 1 4"], 0),
    ("cp-compose_bool", ["cp-compose", "swap 2 2", "swap 1 4",
                         "--semiring", "bool"], 0),
    ("laws_complex_tol0", ["laws", "--tol", "0"], 1),
]


def run_main(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
def test_command_output_is_byte_identical(case, monkeypatch):
    monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
    name, argv, code = case
    want = (COMMANDS / f"{name}.out").read_text()
    assert run_main(argv) == (code, want, "")


def test_the_goldens_reach_every_report():
    texts = {name: (COMMANDS / f"{name}.out").read_text()
             for name, _, _ in CASES}
    assert "kraus[0].entry[0][0]=" in texts["dilate_identity"]
    assert "min_eigenvalue=" in texts["dilate_swap"]
    assert "error=Choi matrix has pivot" in texts["dilate_faint"]
    assert texts["dilate_skew"].startswith("hermitian=false\nerror=")
    assert texts["check-cp_skew"].count("\n") == 5
    assert "ok=false\n" in texts["laws_complex_tol0"]


def write_goldens() -> None:
    COMMANDS.mkdir(parents=True, exist_ok=True)
    for name, m in CHOI.items():
        write_morfile(m, choi_path(name))
    for name, argv, _ in CASES:
        (COMMANDS / f"{name}.out").write_text(run_main(argv)[1])


if __name__ == "__main__":
    if cli.TOL_ENV_VAR in os.environ:
        sys.exit(f"unset {cli.TOL_ENV_VAR} first")
    write_goldens()
