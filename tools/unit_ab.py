"""Time benchmark units, or cold command-line launches, in two trees.

    python tools/unit_ab.py [--rev REV] [--calls N] [--root ROOT]
                            [--workload NAME | --realized | --launch]

loads the package of git revision ``REV`` (default ``HEAD``, extracted by
``git archive`` into a temporary directory) and the package of the
working tree ``ROOT/src`` (``ROOT`` is the checkout this script sits in)
side by side, under two module names, and the working tree's
``perfbench/workloads.py`` once against each.  It then runs ``N`` rounds
(default 20) over the units of benchmark workload ``NAME`` (default
``axioms-small``; the choices are the keys of ``workloads.WORKLOADS``),
timing each unit's ``call``, the call the benchmark times.  Unlike the
benchmark, which builds its units once, each round rebuilds both trees'
units from ``np.random.default_rng(1)``, the benchmark's baseline seed,
so every timed call sees new morphisms built from the same inputs and no
Gram tensor kept by an earlier call serves it.  Units are named by their
``kind``, numbered from 0 where a kind repeats.  Before timing, every
unit runs once in each tree, untimed, and its oracle ``check`` must
pass; otherwise the script names the unit and the tree and exits 1.

With ``--realized`` the units are complex ``cpm_form`` calls alone: one
per input shape of the sweep, on every input of that shape that the
complex ``axioms-small`` units pass it when run once in the working
tree, and one per ``n -> n ⊗ n`` map that ``workloads.random_kraus``
draws at seed 1, at each ``kraus-large`` size and at 24.

Each round calls every unit once in each tree, the tree that goes first
alternating, so both see the same spells of host speed.  The process
pins itself to one CPU and runs OpenBLAS on one thread.  One more call
of every unit in each tree then runs under ``tracemalloc`` for its peak.
It prints one line per unit, ``unit rev_ms tree_ms ratio rev_peak_b
tree_peak_b``: the fastest call in each tree, ``ratio = rev_ms /
tree_ms`` (above 1 when the working tree is faster) and the peaks in
bytes; a line, named after the workload (or ``realized``), with the sum
of the minima and the largest peaks; and last a JSON object of the same
figures.

With ``--launch`` nothing is loaded in this process.  Each round
instead launches ``python -m cpcat eval "swap 2 3"`` once on each
tree's sources, in a fresh process, the tree that goes first
alternating; that is the launch the benchmark's ``cli_cold_ms`` times.
The working tree's ``src/cpcat`` is copied without its ``__pycache__``
and the children run under ``PYTHONDONTWRITEBYTECODE=1``, so both trees
compile every module they import at every launch, as in a fresh
checkout.  Every launch must exit 0 and print what the first one
printed.  It prints each tree's median and quartiles of the wall time
of a launch in ms, how many rounds the working tree won, and last a
JSON object of the same figures; ``N`` must be at least 2.
"""

import argparse
import collections
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

SIDES = ("rev", "tree")
# the benchmark's baseline seed
SEED = 1
# the command of --launch, the one the benchmark's cli_cold_ms times
LAUNCH_ARGS = ("eval", "swap 2 3")


def load(name: str, path: Path):
    """Import the module file or package directory ``path`` as ``name``."""
    package = path.is_dir()
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    # registered before it runs: dataclasses look their module up here
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(side: str, package: Path, bench: Path):
    """``bench/workloads.py`` loaded against the cpcat in ``package``."""
    sys.modules["cpcat"] = load(f"cpcat_{side}", package)
    try:
        return load(f"workloads_{side}", bench / "workloads.py")
    finally:
        del sys.modules["cpcat"]


def workload_units(bench, name: str, root: Path, scratch: Path) -> dict:
    """The units of workload ``name`` built at seed 1, by unit name."""
    import numpy as np

    units = bench.WORKLOADS[name](np.random.default_rng(SEED), root,
                                  scratch).units
    repeats = collections.Counter(unit.kind for unit in units)
    seen, named = collections.Counter(), {}
    for unit in units:
        number = seen[unit.kind] if repeats[unit.kind] > 1 else ""
        seen[unit.kind] += 1
        named[f"{unit.kind}{number}"] = unit
    return named


def sweep_kraus_entries(bench, root: Path, scratch: Path) -> dict:
    """``{(batch, dom, out, ancilla): [entries, ...]}`` of the calls of
    ``cpm_form`` that the complex ``axioms-small`` units make in ``bench``."""
    cpm, axioms = bench.cpm, bench.axioms
    real, seen = cpm.cpm_form, {}

    def record(k):
        arr = k.mor.array
        key = (arr.shape[:-2], k.dom.dim, k.out.dim, k.ancilla.dim)
        seen.setdefault(key, []).append(arr)
        return real(k)

    cpm.cpm_form = axioms.cpm_form = record
    try:
        for name, unit in workload_units(bench, "axioms-small", root,
                                         scratch).items():
            if name.endswith(".complex"):
                unit.call()
    finally:
        cpm.cpm_form = axioms.cpm_form = real
    return seen


def realized_units(bench, sweep: dict) -> dict:
    """Complex ``cpm_form`` calls in ``bench``'s tree, by unit name."""
    import numpy as np

    core, cpm, obj = bench.core, bench.cpm, bench.core.Obj

    def forms(maps):
        for k in maps:
            cpm.cpm_form(k)

    calls = {}
    for (batch, na, nb, nc), arrays in sorted(sweep.items()):
        maps = [bench.cp.KrausMor._of(
                    core.Mor._of(obj(na), obj(nb, nc), arr, core.COMPLEX),
                    obj(nb), obj(nc)) for arr in arrays]
        name = f"{na}>{nb}x{nc}@{'x'.join(map(str, batch)) or 1}"
        calls[name] = lambda maps=maps: forms(maps)
    rng = np.random.default_rng(SEED)
    for n in bench.KRAUS_SIZES + (24,):
        k = bench.random_kraus(rng, n, n, n, core.COMPLEX)
        calls[f"form{n}"] = lambda k=k: cpm.cpm_form(k)
    return calls


def time_units(make, calls: int) -> tuple:
    """Each unit's fastest call in seconds and ``tracemalloc`` peak in
    bytes, by side and name; ``make(side)`` builds a side's calls afresh
    before every round."""
    best = {side: collections.defaultdict(lambda: float("inf"))
            for side in SIDES}
    for n in range(calls):
        trees = {side: make(side) for side in SIDES}
        order = SIDES if n % 2 == 0 else SIDES[::-1]
        for name in trees["tree"]:
            for side in order:
                start = time.perf_counter()
                trees[side][name]()
                best[side][name] = min(best[side][name],
                                       time.perf_counter() - start)
    trees = {side: make(side) for side in SIDES}
    peak = {side: {} for side in SIDES}
    for name in trees["tree"]:
        for side in SIDES:
            tracemalloc.start()
            try:
                trees[side][name]()
                peak[side][name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    return best, peak


def launches(calls: int, sources: dict) -> dict:
    """Wall ms of ``calls`` alternating cold launches of each tree;
    ``sources`` maps each side to the directory holding its ``cpcat``."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    times, first = {side: [] for side in sources}, None
    for n in range(calls):
        for side in SIDES if n % 2 == 0 else SIDES[::-1]:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "cpcat", *LAUNCH_ARGS],
                cwd=sources[side], capture_output=True, text=True,
                env={**env, "PYTHONPATH": str(sources[side])})
            times[side].append((time.perf_counter() - start) * 1e3)
            first = proc.stdout if first is None else first
            if proc.returncode != 0 or proc.stdout != first:
                raise RuntimeError(f"{side}: the launch exited "
                                   f"{proc.returncode}, printing\n"
                                   f"{proc.stdout}{proc.stderr}")
    return times


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", default="HEAD")
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1])
    kind = parser.add_mutually_exclusive_group()
    kind.add_argument("--workload", default="axioms-small",
                      help="time this benchmark workload's units; the "
                      "choices are the keys of workloads.WORKLOADS")
    kind.add_argument("--realized", action="store_true",
                      help="time complex cpm_form alone, not a workload")
    kind.add_argument("--launch", action="store_true",
                      help="time cold python -m cpcat launches")
    args = parser.parse_args(argv[1:])
    if args.launch and args.calls < 2:
        parser.error("--launch needs --calls of at least 2")
    # before numpy loads with the packages: one BLAS thread, as the
    # benchmark's children run
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    archive = subprocess.run(
        ["git", "-C", str(args.root), "archive", "--format=tar", args.rev,
         "src/cpcat"], check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        if args.launch:
            tree = tmp / "tree"
            shutil.copytree(args.root / "src" / "cpcat", tree / "cpcat",
                            ignore=shutil.ignore_patterns("__pycache__"))
            times = launches(args.calls, {"rev": tmp / "src", "tree": tree})
            return print_launches(args, times)
        bench = args.root / "perfbench"
        # workloads.py imports oracles.py beside it
        sys.path.insert(0, str(bench))
        packages = {"rev": tmp / "src" / "cpcat",
                    "tree": args.root / "src" / "cpcat"}
        benches = {side: load_workloads(side, packages[side], bench)
                   for side in SIDES}
        choices = sorted(benches["tree"].WORKLOADS)
        if not args.realized and args.workload not in choices:
            parser.error(f"--workload must be one of {', '.join(choices)}")
        for side in SIDES:
            (tmp / side).mkdir()
        if args.realized:
            sweep = sweep_kraus_entries(benches["tree"], args.root,
                                        tmp / "tree")
            best, peak = time_units(
                lambda side: realized_units(benches[side], sweep),
                args.calls)
            return print_units(args, best, peak, "realized")

        def units(side):
            return workload_units(benches[side], args.workload, args.root,
                                  tmp / side)
        for side in SIDES:
            for name, unit in units(side).items():
                if not unit.check(unit.call()):
                    print(f"unit_ab: {name} in {side} fails its check",
                          file=sys.stderr)
                    return 1
        best, peak = time_units(
            lambda side: {name: unit.call
                          for name, unit in units(side).items()},
            args.calls)
        return print_units(args, best, peak, args.workload)


def print_units(args, best: dict, peak: dict, total: str) -> int:
    """Print each unit's minima, ratio and peaks, then their total."""
    result = {"rev": args.rev, "calls": args.calls, "units": {}}
    rows = {name: (best["rev"][name], best["tree"][name], peak["rev"][name],
                   peak["tree"][name]) for name in best["tree"]}
    rows[total] = (*(sum(best[side].values()) for side in SIDES),
                   *(max(peak[side].values()) for side in SIDES))
    for name, (rev_s, tree_s, rev_b, tree_b) in rows.items():
        print("%-20s %9.3f %9.3f %6.2f %10d %10d" % (
            name, rev_s * 1e3, tree_s * 1e3, rev_s / tree_s, rev_b, tree_b))
        result["units"][name] = {"rev_ms": rev_s * 1e3,
                                 "tree_ms": tree_s * 1e3,
                                 "rev_peak_b": rev_b, "tree_peak_b": tree_b}
    print(json.dumps(result))
    return 0


def print_launches(args, times: dict) -> int:
    """Print each side's quartiles and the working tree's wins."""
    result = {"rev": args.rev, "calls": args.calls, "launch": {}}
    print("%-6s %9s %9s %9s" % ("launch", "q1_ms", "median_ms", "q3_ms"))
    for side, ms in times.items():
        q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
        print("%-6s %9.1f %9.1f %9.1f" % (side, q1, median, q3))
        result["launch"][f"{side}_ms"] = {"q1": q1, "median": median,
                                          "q3": q3}
    wins = sum(tree < rev for rev, tree in zip(times["rev"], times["tree"]))
    print(f"tree won {wins} of {args.calls} rounds")
    result["launch"]["tree_wins"] = wins
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
