"""cpcat benchmark: one workload per invocation, every metric by name.

    python3 perfbench/run.py --workload kraus-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cpcat is imported from ``src``.
The workload runs in a child process (``child.py``).  Set-up-only
children and fresh ``python -m cpcat`` processes, before and after it,
time set-up and a cold CLI call.  Human-readable lines come first; the
last line of stdout is the JSON result.  With ``--trace 0`` it carries
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run.  See README.md for workloads, seeds and metric meanings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import around, calibrate, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("axioms-small", "kraus-large", "relations-large", "dsl-cli")

# Set-up children and cold CLI launches run in slots before and after the
# workload child, so their samples span the whole run rather than one
# spell of the host's speed.  Each sample is taken between two calibrations
# and scaled to the reference speed (``hostspeed``); setup_s and
# cli_cold_ms are the medians of the scaled samples.
SLOTS_PER_SIDE = 3
COLD_PER_SLOT = 2
COLD_CLI_ARGS = ("eval", "swap 2 3")
# A child still running this long after set-up is killed.
CHILD_TIMEOUT_S = 120
# One BLAS thread: on the 2-core reference machine a two-thread OpenBLAS
# call pays a fixed wake-up cost (64x64 complex matmul: 16 ms against
# 0.06 ms single-threaded), which made timings swing between processes.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "units_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB", "cli_cold_ms": "ms"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CPCAT_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def machine_record() -> dict:
    """Host facts every result is read against."""
    record = {"nproc": len(os.sched_getaffinity(0)),
              "python": platform.python_version(),
              "blas_threads": int(BLAS_THREADS)}
    try:
        with open("/proc/meminfo", encoding="ascii") as fp:
            kb = int(fp.readline().split()[1])
        record["mem_total_gb"] = round(kb / 2 ** 20, 2)
    except (OSError, ValueError, IndexError):
        record["mem_total_gb"] = None
    probe = ("import json, numpy; b = numpy.show_config(mode='dicts')"
             "['Build Dependencies']['blas']; print(json.dumps("
             "[numpy.__version__, b.get('name'), b.get('version')]))")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                         capture_output=True, text=True, timeout=60)
    if out.returncode == 0:
        numpy_version, blas, blas_version = json.loads(out.stdout)
        record.update(numpy=numpy_version, blas=blas, blas_version=blas_version)
    return record


def run_child(args, setup_only: bool) -> tuple:
    """Run one child; returns (set-up seconds, report or None)."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"{args.workload}: child failed during set-up")
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{args.workload}: child exited {proc.returncode}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def expected_swap_output(a: int, b: int) -> str:
    """What ``cpcat eval "swap a b"`` prints, built without cpcat."""
    lines = ["semiring=complex", f"dom={a}*{b}", f"cod={b}*{a}"]
    n = a * b
    for row in range(n):
        j, i = divmod(row, a)        # output index (j, i) in B ⊗ A
        for col in range(n):
            one = col == i * b + j   # input index (i, j) in A ⊗ B
            lines.append(f"entry[{row}][{col}]={1 if one else 0} 0")
    return "\n".join(lines) + "\n"


def cold_cli() -> tuple:
    """(wall ms, correct) of one fresh ``python -m cpcat`` process."""
    t0 = perf_counter()
    out = subprocess.run([sys.executable, "-m", "cpcat", *COLD_CLI_ARGS],
                         cwd=ROOT, env=child_env(), capture_output=True,
                         text=True, timeout=60)
    ms = (perf_counter() - t0) * 1000
    return ms, out.returncode == 0 and out.stdout == expected_swap_output(2, 3)


def side_samples(args, setups: list, launches: list) -> None:
    """Append set-up seconds and (launch ms, correct), both scaled to the
    reference speed."""
    for _ in range(SLOTS_PER_SIDE):
        (setup_s, _), scale = around(lambda: run_child(args, True))
        setups.append(setup_s * scale)
        for _ in range(COLD_PER_SLOT):
            (ms, ok), scale = around(cold_cli)
            launches.append((ms * scale, ok))


def end_to_end(setups: list, report: dict, launches: list) -> dict:
    rounds = report["rounds"]
    correct_per_round = sum(r["correct"] for r in rounds) / len(rounds)
    return {
        "setup_s": statistics.median(setups),
        "units_per_s": correct_per_round / report["pass_s"]["wall_s"],
        "cpu_s": report["pass_s"]["cpu_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "cli_cold_ms": statistics.median(ms for ms, _ in launches),
    }


def run(args) -> dict:
    if not (ROOT / "src" / "cpcat" / "__init__.py").is_file():
        raise BenchError(f"no cpcat sources under {ROOT / 'src'}")
    machine = machine_record()
    machine["pinned_cpu"] = pin_to_one_cpu()
    print("machine " + json.dumps(machine, sort_keys=True))
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
    calibrate()  # first call imports numpy and warms the loop
    setups, launches = [], []
    side_samples(args, setups, launches)
    _, report = run_child(args, False)
    side_samples(args, setups, launches)

    cold_failed = sum(not ok for _, ok in launches)
    attempted = report["attempted"] + len(launches)
    failed = report["failed"] + cold_failed
    for kind, error in sorted(report["errors"].items()):
        print(f"FAILED {kind}: {error}", file=sys.stderr)
    if cold_failed:
        print(f"FAILED cli-cold: {cold_failed} of {len(launches)}",
              file=sys.stderr)

    if args.trace:
        from tracer import metric_units
        units = metric_units()
        values = report["layers"]
        print(f"traced: {sum(r['correct'] for r in report['rounds'])} "
              f"untraced units, traced wall {report['traced_wall_s']:.3f} s, "
              f"self-time sum {report['self_s_sum']:.3f} s")
    else:
        units = END_TO_END
        values = end_to_end(setups, report, launches)
    print(f"workload={args.workload} seed={args.seed} "
          f"rounds={len(report['rounds'])} "
          f"speed_exponent={report['speed_exponent']} attempted={attempted} "
          f"failed={failed} fail_ratio={failed / attempted:.6g} (ratio)")
    for name, unit in units.items():
        print(f"{name}={values[name]:.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1,
                   help="input seed (1 is the baseline seed, 7 is held out)")
    p.add_argument("--seconds", type=float, default=20,
                   help="measuring time of the workload child")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 reports per-layer metrics from a traced run")
    args = p.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
