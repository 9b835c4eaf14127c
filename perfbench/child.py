"""One workload in its own process: set up, signal ready, measure, report.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``.  Protocol on stdout: a
line ``ready`` once cpcat is imported, the inputs are generated and each
kind of unit has run once; then, unless ``--setup-only``, one JSON line
with the per-round measurements.  The warm-up units count as attempted.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_S, calibrate

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def cpu_seconds() -> float:
    """User plus system CPU of this process, all threads."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Tally:
    """Units attempted and failed, with the first error of each kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = {}

    def run(self, unit, tracer=None) -> tuple:
        """Run one unit; returns (wall seconds, cpu seconds, correct)."""
        self.attempted += 1
        c0 = cpu_seconds()
        t0 = perf_counter()
        try:
            if tracer is None:
                result = unit.call()
            else:
                # a root span per unit, so its children have a parent
                result = tracer.call(tracer.span_id("bench.unit"),
                                     unit.call, (), {})
            t1 = perf_counter()
            c1 = cpu_seconds()
            ok = bool(unit.check(result))
            if not ok:
                self.errors.setdefault(unit.kind, "result disagrees with oracle")
        except Exception:  # a raising unit is a failed unit, not a crash
            t1 = perf_counter()
            c1 = cpu_seconds()
            ok = False
            self.errors.setdefault(unit.kind, traceback.format_exc(limit=4))
        self.failed += not ok
        return t1 - t0, c1 - c0, ok


# A calibration runs before a unit once this long has passed since the
# last one, so short units share their calibrations and do not drown in them.
CAL_GAP_S = 0.05


def run_round(units, tally: Tally, tracer=None) -> dict:
    """One pass over ``units``: per unit, wall and CPU seconds of its timed
    call and the mean calibration time around it (``hostspeed``); and how
    many units came out correct."""
    walls, cpus, before = [], [], []
    cals = [calibrate()]
    last = perf_counter()
    correct = 0
    for unit in units:
        if perf_counter() - last > CAL_GAP_S:
            cals.append(calibrate())
            last = perf_counter()
        before.append(len(cals) - 1)
        dt, dc, ok = tally.run(unit, tracer)
        walls.append(dt)
        cpus.append(dc)
        correct += ok
    cals.append(calibrate())
    return {"wall_s": walls, "cpu_s": cpus, "correct": correct,
            "cal_s": [(cals[i] + cals[i + 1]) / 2 for i in before]}


def work_list_seconds(rounds: list, key: str, exponent: float = 1.0) -> float:
    """Seconds for one pass of the work list at the reference host speed.

    A unit's time in a round is scaled by ``(REFERENCE_S / c) ** exponent``,
    ``c`` being the calibration around it (``hostspeed``).  A unit that
    takes ``CAL_GAP_S`` or longer has its own calibrations and counts with
    its median scaled time over the rounds.  A shorter unit shares its
    calibrations with its neighbours, so the pairing is loose: it counts
    with its fastest round, scaled by the run's fastest calibration.  Over
    five runs each, the spread (IQR/median) of the pass time was 0.036 on
    axioms-small and 0.047 on dsl-cli with this rule, against 0.037 and
    0.074 with the median for every unit and 0.097 and 0.047 with the
    fastest round for every unit.
    """
    walls = list(zip(*(r["wall_s"] for r in rounds)))
    cals = list(zip(*(r["cal_s"] for r in rounds)))
    fastest_cal = min(map(min, cals))
    total = 0.0
    for times, wall, cal in zip(zip(*(r[key] for r in rounds)), walls, cals):
        if statistics.median(wall) < CAL_GAP_S:
            total += min(times) * (REFERENCE_S / fastest_cal) ** exponent
        else:
            total += statistics.median(t * (REFERENCE_S / c) ** exponent
                                       for t, c in zip(times, cal))
    return total


def repeat(step, seconds: float) -> None:
    """Call ``step`` until ``seconds`` have passed; at least once."""
    start = perf_counter()
    step()
    while perf_counter() - start < seconds:
        step()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import cpcat
    if Path(cpcat.__file__).resolve().parent != ROOT / "src" / "cpcat":
        raise ImportError(f"cpcat imported from {cpcat.__file__}, "
                          f"not from {ROOT / 'src'}")
    import numpy as np
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        rng = np.random.default_rng(args.seed)
        work = workloads.WORKLOADS[args.workload](rng, ROOT, scratch)
        tally = Tally()
        for unit in work.warmup:
            tally.run(unit)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        calibrate()  # the first call warms the loop

        report = {}
        if args.trace:
            import tracer as tracing
            spans = tracing.Tracer()
            plain, traced = [], []

            def pair():
                # Untraced and traced rounds alternate, so drift in the
                # machine's speed affects both sides of the overhead ratio.
                plain.append(run_round(work.units, tally))
                restore = tracing.install(spans)
                try:
                    traced.append(run_round(work.units, tally, spans))
                finally:
                    restore()
            repeat(pair, args.seconds)
            ratio = (work_list_seconds(traced, "wall_s", work.speed_exponent)
                     / work_list_seconds(plain, "wall_s", work.speed_exponent))
            report["layers"] = tracing.layer_metrics(spans, len(traced), ratio)
            report["traced_wall_s"] = sum(sum(r["wall_s"]) for r in traced)
            report["self_s_sum"] = sum(s for _, s, _ in spans.totals().values())
            spans.save(OUT / f"trace-{args.workload}.npz",
                       workload=args.workload, seed=args.seed,
                       rounds=len(traced))
            report["rounds"] = plain
        else:
            rounds = []
            repeat(lambda: rounds.append(run_round(work.units, tally)),
                   args.seconds)
            report["rounds"] = rounds
        report["pass_s"] = {
            key: work_list_seconds(report["rounds"], key, work.speed_exponent)
            for key in ("wall_s", "cpu_s")}
        report["speed_exponent"] = work.speed_exponent
        report.update(
            attempted=tally.attempted, failed=tally.failed,
            errors=tally.errors,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
