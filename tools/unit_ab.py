"""Time each unit of the axiom sweep in two trees, interleaved in one process.

    python tools/unit_ab.py [--rev REV] [--calls N] [--root ROOT]

loads the package of git revision ``REV`` (default ``HEAD``, extracted by
``git archive`` into a temporary directory) and the package of the
working tree ``ROOT/src`` (``ROOT`` is the checkout this script sits in)
side by side, under two module names.  It then runs ``N`` rounds (default
20) over the units of the ``axioms-small`` benchmark workload: every
``AXIOM_RUNNERS`` entry at 100 samples on both semirings (``env-c`` on
complex only), ``run_replay`` and ``check_laws`` at 200, all at seed 0.
Each round calls every unit once in each tree, the tree that goes first
alternating from round to round, so both see the same spells of host
speed.  The process pins itself to one CPU and runs OpenBLAS on one
thread.

It prints one line per unit, ``unit rev_ms tree_ms ratio``, with the
minimum time of a call in each tree and ``ratio = rev_ms / tree_ms``
(above 1 when the working tree is faster), a line for the sum of the
minima, and last a JSON object of the same figures.
"""

import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

SAMPLES, LONG, SEED = 100, 200, 0


def load(name: str, package: Path):
    """Import the package directory ``package`` as module ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def units(pkg) -> dict:
    """The sweep's calls in ``pkg``, by unit name, in the workload's order."""
    calls = {}
    for sem_name in ("complex", "bool"):
        sem = pkg.SEMIRINGS[sem_name]
        for axiom, runner in pkg.AXIOM_RUNNERS.items():
            if axiom == "env-c" and sem_name != "complex":
                continue
            calls[f"{axiom}.{sem_name}"] = (
                lambda r=runner, s=sem: r(s, samples=SAMPLES, seed=SEED))
        calls[f"replay.{sem_name}"] = (
            lambda s=sem: pkg.axioms.run_replay(s, samples=LONG, seed=SEED))
        calls[f"laws.{sem_name}"] = (
            lambda s=sem: pkg.check_laws(s, trials=LONG, seed=SEED))
    return calls


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rev", default="HEAD")
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv[1:])
    # before numpy loads with the packages: one BLAS thread, as the
    # benchmark's children run
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    archive = subprocess.run(
        ["git", "-C", str(args.root), "archive", "--format=tar", args.rev,
         "src/cpcat"], check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"rev": units(load("cpcat_rev", Path(tmp) / "src" / "cpcat")),
                 "tree": units(load("cpcat_tree",
                                    args.root / "src" / "cpcat"))}
        names = [name for name in trees["tree"] if name in trees["rev"]]
        best = {side: dict.fromkeys(names, float("inf")) for side in trees}
        for n in range(args.calls):
            order = ("rev", "tree") if n % 2 == 0 else ("tree", "rev")
            for name in names:
                for side in order:
                    start = time.perf_counter()
                    trees[side][name]()
                    best[side][name] = min(best[side][name],
                                           time.perf_counter() - start)
    result = {"rev": args.rev, "calls": args.calls, "units": {}}
    for name in names + ["sweep"]:
        if name == "sweep":
            rev_s, tree_s = (sum(best[side].values()) for side in trees)
        else:
            rev_s, tree_s = best["rev"][name], best["tree"][name]
        print("%-18s %9.3f %9.3f %6.2f" % (name, rev_s * 1e3, tree_s * 1e3,
                                           rev_s / tree_s))
        result["units"][name] = {"rev_ms": rev_s * 1e3,
                                 "tree_ms": tree_s * 1e3}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
