"""Failing axiom runs and replay reports, pinned byte for byte.

``tests/golden/sweep/`` pins the default runs, which all hold and so
print no witness.  The files here pin what the sweep cannot: the first
witness, ``checked``, ``samples`` and ``max_deviation`` of runs that fail
at a tight tolerance, of every sampling runner at the held-out seed 7,
and of :func:`cpcat.axioms.run_replay`, which the CLI does not expose.

* ``witness/check-axioms_<axiom>_<semiring>_seed<N>[_tol<T>].out`` is
  the exact stdout of ``python -m cpcat check-axioms`` with those
  arguments (default tolerance when ``_tol`` is absent); the exit code
  follows from its ``holds=`` line.
* ``witness/replay.json`` holds ``run_replay`` reports at 200 samples,
  seeds 0 and 7, the default tolerance and ``1e-15``, on both semirings.
  Floats are stored as ``repr`` strings, so the comparison is bitwise.

Regenerate with ``PYTHONPATH=src python tests/test_witness_goldens.py``,
and only at a commit whose output is known good: the point of these
files is that a change to the samplers or kernels leaves them alone.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from cpcat import BOOLEAN, COMPLEX, cli
from cpcat.axioms import run_replay

WITNESS = Path(__file__).parent / "golden" / "witness"

CHECK_AXIOMS = [
    # the three complex runners that fail at 1e-15 at seed 0
    ("doubling", "complex", 0, "1e-15"),
    ("xi", "complex", 0, "1e-15"),
    ("env-c", "complex", 0, "1e-15"),
    # every sampling runner at the held-out seed, on both semirings
    *((axiom, semiring, 7, None)
      for axiom in ("doubling", "prep-state", "env-b", "xi")
      for semiring in ("complex", "bool")),
    # failing runs of the runners that evaluate samples in shape groups
    ("doubling", "complex", 7, "3e-16"),
    ("prep-state", "complex", 7, "1e-16"),
    ("prep-state", "complex", 0, "0.3"),
    ("xi", "complex", 7, "1e-15"),
]

REPLAY_SAMPLES = 200
REPLAY_RUNS = [(semiring, seed, tol) for semiring in (COMPLEX, BOOLEAN)
               for seed in (0, 7) for tol in (None, 1e-15)]


def golden_name(axiom, semiring, seed, tol) -> str:
    tail = f"_tol{tol}" if tol else ""
    return f"check-axioms_{axiom}_{semiring}_seed{seed}{tail}.out"


def argv_of(axiom, semiring, seed, tol) -> list:
    argv = ["check-axioms", "--axiom", axiom, "--semiring", semiring,
            "--seed", str(seed)]
    return argv + (["--tol", tol] if tol else [])


def run_main(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def encode(value):
    """A JSON form of a report value that keeps every float bit."""
    if isinstance(value, np.ndarray):
        if value.dtype == np.bool_:
            entries = value.tolist()
        else:
            entries = [[repr(z.real), repr(z.imag)]
                       for z in value.reshape(-1).tolist()]
        return {"dtype": str(value.dtype), "shape": list(value.shape),
                "entries": entries}
    if isinstance(value, dict):
        return {key: encode(value[key]) for key in sorted(value)}
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return [encode(v) for v in value]
    return value


def replay_key(semiring, seed, tol) -> str:
    return f"{semiring.name} seed={seed} tol={tol or 'default'}"


def replay_report(semiring, seed, tol) -> dict:
    kwargs = {"tol": tol} if tol else {}
    report = run_replay(semiring, samples=REPLAY_SAMPLES, seed=seed,
                        **kwargs)
    return {"axiom": report.axiom, "holds": report.holds,
            "checked": report.checked, "samples": report.samples,
            "max_deviation": repr(report.max_deviation),
            "witness": encode(report.witness), "notes": encode(report.notes)}


@pytest.mark.parametrize("case", CHECK_AXIOMS, ids=lambda c: golden_name(*c))
def test_check_axioms_output_is_byte_identical(case, monkeypatch):
    monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
    want = (WITNESS / golden_name(*case)).read_text()
    code, out = run_main(argv_of(*case))
    assert out == want
    assert code == (0 if "holds=true\n" in want else 1)


def test_the_failing_goldens_carry_witnesses():
    texts = [(WITNESS / golden_name(*case)).read_text()
             for case in CHECK_AXIOMS]
    failing = [text for text in texts if "holds=false\n" in text]
    assert len(failing) == 7
    assert all("witness." in text for text in failing)


@pytest.mark.parametrize("run", REPLAY_RUNS, ids=lambda r: replay_key(*r))
def test_replay_reports_are_bitwise_identical(run):
    want = json.loads((WITNESS / "replay.json").read_text())
    assert replay_report(*run) == want[replay_key(*run)]


def test_the_replay_golden_has_failing_and_holding_runs():
    want = json.loads((WITNESS / "replay.json").read_text())
    assert sorted(want) == sorted(replay_key(*run) for run in REPLAY_RUNS)
    assert {report["holds"] for report in want.values()} == {True, False}


def write_goldens() -> None:
    WITNESS.mkdir(parents=True, exist_ok=True)
    for case in CHECK_AXIOMS:
        (WITNESS / golden_name(*case)).write_text(run_main(argv_of(*case))[1])
    reports = {replay_key(*run): replay_report(*run) for run in REPLAY_RUNS}
    (WITNESS / "replay.json").write_text(json.dumps(reports, indent=1) + "\n")


if __name__ == "__main__":
    if cli.TOL_ENV_VAR in os.environ:
        sys.exit(f"unset {cli.TOL_ENV_VAR} first")
    write_goldens()
