"""Time benchmark units, or cold command-line launches, in two trees.

    python tools/unit_ab.py [--rev REV] [--calls N] [--root ROOT]
                            [--cli | --relations | --kraus | --realized
                             | --launch]

loads the package of git revision ``REV`` (default ``HEAD``, extracted by
``git archive`` into a temporary directory) and the package of the
working tree ``ROOT/src`` (``ROOT`` is the checkout this script sits in)
side by side, under two module names.  It then runs ``N`` rounds (default
20) over the units of the ``axioms-small`` benchmark workload: every
``AXIOM_RUNNERS`` entry at 100 samples on both semirings (``env-c`` on
complex only), ``run_replay`` and ``check_laws`` at 200, all at seed 0.
With ``--cli`` the units are in-process ``cli.main`` calls instead, with
their output captured: ``eval --script`` over every ``tests/golden/*.cps``
file (on the semiring its first line names, as the ``dsl-cli`` workload
reads it) and every ``*.bad`` file, and over one generated chain of 200
``;`` terms drawn like the workload's chains.  With ``--relations`` the
units are the calls of the ``relations-large`` workload, on inputs drawn
at seed 0 at the workload's densities: ``cp_form`` and ``cpm_form`` of a
boolean ``d -> d ⊗ d`` relation at d = 6, 8, 10 and 12, on a new
``KrausMor`` at every call, so no Gram tensor kept by an earlier call
serves it; ``compose`` of two ``n``-element relations and ``tensor`` of
two whose product has ``n`` elements, at n = 256, 512 and 1024.  With
``--kraus`` the units are the calls of one ``kraus-large`` round on
complex ``n -> n ⊗ n`` maps at n = 6, 8, 12 and 16, drawn at seed 0 as
the workload draws them: the Choi matrix, ``check_cp``,
``kraus_from_choi``, ``cp_form``, ``cpm_form``, ``cp_compose``,
``cp_deviation`` of the dilation, ``cpm_dagger`` and, at 6 only,
``cp_tensor``.  Both maps are new ``KrausMor`` objects at every call, so
no Gram tensor kept by an earlier call serves it (the benchmark keeps
its maps from round to round).  With ``--realized`` the units are
complex ``cpm_form`` calls alone, on two sets of inputs: the sweep's,
recorded by running the complex sweep units once in the working tree
(states ``1 -> b ⊗ c`` and maps ``d -> d`` with trivial ancilla, ``b, c,
d <= 3``, batched as the runners batch them), one unit per input shape
that calls ``cpm_form`` on every recorded input of that shape; and one
``n -> n ⊗ n`` map drawn at seed 0 at n = 6, 8, 12, 16 and 24.  Each
round calls every unit once in each tree, the tree that goes first
alternating from round to round, so both see the same spells of host
speed.  The process pins itself to one CPU and runs OpenBLAS on one
thread.

After the timed rounds, one more call of every unit in each tree runs
untimed under ``tracemalloc``, which records the peak of the memory
that call allocated.

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

It prints one line per unit, ``unit rev_ms tree_ms ratio rev_peak_b
tree_peak_b``, with the minimum time of a call in each tree, ``ratio =
rev_ms / tree_ms`` (above 1 when the working tree is faster) and the
traced peaks in bytes; a line for the sum of the minima and the largest
peak (``sweep``, ``cli``, ``relations``, ``kraus`` or ``realized``); and
last a JSON object of the same figures.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

SAMPLES, LONG, SEED = 100, 200, 0
CHAIN_TERMS = 200
# the relations-large workload's sizes
FORM_DIMS = (6, 8, 10, 12)
RELATION_SIZES = (256, 512, 1024)
TENSOR_FACTORS = ((16, 16), (16, 32), (32, 32))
# the kraus-large workload's sizes, and the largest that runs cp_tensor
KRAUS_SIZES = (6, 8, 12, 16)
TENSOR_MAX = 6
# the n -> n ⊗ n maps of --realized: kraus-large's sizes and 24
REALIZED_SIZES = KRAUS_SIZES + (24,)
# the command of --launch, the one the benchmark's cli_cold_ms times
LAUNCH_ARGS = ("eval", "swap 2 3")


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


def chain_script(terms: int) -> str:
    """A script that evaluates one ``;`` chain of ``terms`` words.

    Each word is, with equal odds, one of six bound monomial unitaries
    on 4 (phases in 1, i, -1, -i), its dagger or conjugate, ``swap 2 2``
    or ``id 4``.
    """
    rng = random.Random(SEED)
    lines = []
    for k in range(6):
        rows = [["0"] * 4 for _ in range(4)]
        for col, row in enumerate(rng.sample(range(4), 4)):
            rows[row][col] = rng.choice(("1", "i", "-1", "-i"))
        body = "; ".join(", ".join(row) for row in rows)
        lines.append(f"mor u{k} : 4 -> 4 = [{body}] ;")
    words = [rng.choice(("u{}", "dagger u{}", "conj u{}", "swap 2 2",
                         "id 4")).format(rng.randrange(6))
             for _ in range(terms)]
    lines.append("eval " + " ; ".join(words) + " ;")
    return "\n".join(lines) + "\n"


def cli_units(pkg, golden: Path, chain: Path) -> dict:
    """In-process ``cli.main`` calls of ``pkg``, by unit name."""
    cli = importlib.import_module(pkg.__name__ + ".cli")

    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)

    calls = {}
    for path in sorted(golden.glob("*.cps")) + sorted(golden.glob("*.bad")):
        argv = ["eval", "--script", str(path)]
        if path.suffix == ".cps":
            first = path.read_text(encoding="utf-8").splitlines()[0]
            argv += ["--semiring",
                     "bool" if "semiring: bool" in first else "complex"]
        calls[path.name] = lambda a=argv: call(a)
    calls["chain"] = lambda: call(["eval", "--script", str(chain)])
    return calls


def relation_units(pkg) -> dict:
    """The ``relations-large`` calls of ``pkg``, by unit name."""
    # numpy loads here, after main has set the BLAS thread count
    import numpy as np

    rng = np.random.default_rng(SEED)
    obj, sem = pkg.Obj, pkg.BOOLEAN

    def relation(n, density):
        return pkg.Mor(obj(n), obj(n), rng.random((n, n)) < density, sem)

    def forms(d, entries):
        k = pkg.KrausMor(pkg.Mor(obj(d), obj(d, d), entries, sem),
                         obj(d), obj(d))
        return pkg.cp_form(k), pkg.cpm_form(k)

    calls = {}
    for d in FORM_DIMS:
        # about half of the doubled form is true at this density
        entries = rng.random((d * d, d)) < np.sqrt(np.log(2) / d)
        calls[f"forms{d}"] = lambda d=d, e=entries: forms(d, e)
    for n in RELATION_SIZES:
        f, g = (relation(n, np.sqrt(np.log(2) / n)) for _ in range(2))
        calls[f"compose{n}"] = lambda f=f, g=g: pkg.compose(g, f)
    for p, q in TENSOR_FACTORS:
        x, y = relation(p, 0.5), relation(q, 0.5)
        calls[f"tensor{p * q}"] = lambda x=x, y=y: pkg.tensor(x, y)
    return calls


def kraus_units(pkg) -> dict:
    """The ``kraus-large`` calls of ``pkg``, by unit name."""
    import numpy as np

    rng = np.random.default_rng(SEED)
    obj = pkg.Obj

    def kraus(n, entries):
        return pkg.KrausMor(pkg.Mor(obj(n), obj(n, n), entries, pkg.COMPLEX),
                            obj(n), obj(n))

    def round_of(n, f_entries, g_entries):
        k, g = kraus(n, f_entries), kraus(n, g_entries)
        choi = pkg.choi_of_kraus(k)
        pkg.check_cp(choi)
        dilation = pkg.kraus_from_choi(choi)
        pkg.cp_form(k)
        pkg.cpm_form(k)
        pkg.cp_compose(g, k)
        pkg.cp_deviation(dilation.mor, k)
        pkg.cpm_dagger(k)
        if n <= TENSOR_MAX:
            pkg.cp_tensor(k, g)

    calls = {}
    for n in KRAUS_SIZES:
        # standard complex normals, as the workload draws them
        f, g = ((rng.normal(size=shape) + 1j * rng.normal(size=shape))
                / np.sqrt(2) for shape in [(n * n, n)] * 2)
        calls[f"kraus{n}"] = lambda n=n, f=f, g=g: round_of(n, f, g)
    return calls


def sweep_kraus_entries(pkg) -> dict:
    """The inputs of the complex sweep's ``cpm_form`` calls in ``pkg``.

    Runs every complex sweep unit once with ``cpm_form`` wrapped, and
    returns ``{(batch, dom, out, ancilla): [entries, ...]}``.
    """
    cpm, axioms = pkg.cpm, pkg.axioms
    real, seen = cpm.cpm_form, {}

    def record(k):
        arr = k.mor.array
        key = (arr.shape[:-2], k.dom.dim, k.out.dim, k.ancilla.dim)
        seen.setdefault(key, []).append(arr)
        return real(k)

    cpm.cpm_form = axioms.cpm_form = record
    try:
        for name, call in units(pkg).items():
            if name.endswith(".complex"):
                call()
    finally:
        cpm.cpm_form = axioms.cpm_form = real
    return seen


def realized_units(pkg, sweep: dict) -> dict:
    """Complex ``cpm_form`` calls of ``pkg``, by unit name."""
    import numpy as np

    obj = pkg.Obj

    def kraus(na, nb, nc, entries):
        return pkg.KrausMor._of(
            pkg.Mor._of(obj(na), obj(nb, nc), entries, pkg.COMPLEX),
            obj(nb), obj(nc))

    def forms(maps):
        for k in maps:
            pkg.cpm_form(k)

    calls = {}
    for (batch, na, nb, nc), arrays in sorted(sweep.items()):
        maps = [kraus(na, nb, nc, arr) for arr in arrays]
        name = f"{na}>{nb}x{nc}@{'x'.join(map(str, batch)) or 1}"
        calls[name] = lambda maps=maps: forms(maps)
    rng = np.random.default_rng(SEED)
    for n in REALIZED_SIZES:
        shape = (n * n, n)
        k = kraus(n, n, n, (rng.normal(size=shape)
                            + 1j * rng.normal(size=shape)) / np.sqrt(2))
        calls[f"form{n}"] = lambda k=k: pkg.cpm_form(k)
    return calls


def launches(calls: int, sources: dict) -> dict:
    """Wall ms of ``calls`` alternating cold launches of each tree.

    ``sources`` maps each side to the directory its ``cpcat`` package
    sits in.
    """
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    times, first = {side: [] for side in sources}, None
    for n in range(calls):
        for side in (("rev", "tree") if n % 2 == 0 else ("tree", "rev")):
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
    kind.add_argument("--cli", action="store_true",
                      help="time cli.main over scripts, not the sweep")
    kind.add_argument("--relations", action="store_true",
                      help="time the relations-large calls, not the sweep")
    kind.add_argument("--kraus", action="store_true",
                      help="time the kraus-large calls, not the sweep")
    kind.add_argument("--realized", action="store_true",
                      help="time complex cpm_form alone, not the sweep")
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
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        if args.launch:
            tree = Path(tmp) / "tree"
            shutil.copytree(args.root / "src" / "cpcat", tree / "cpcat",
                            ignore=shutil.ignore_patterns("__pycache__"))
            times = launches(args.calls, {"rev": Path(tmp) / "src",
                                          "tree": tree})
            return print_launches(args, times)
        packages = {"rev": load("cpcat_rev", Path(tmp) / "src" / "cpcat"),
                    "tree": load("cpcat_tree", args.root / "src" / "cpcat")}
        if args.cli:
            chain = Path(tmp) / "chain.cps"
            chain.write_text(chain_script(CHAIN_TERMS), encoding="utf-8")
            golden = args.root / "tests" / "golden"
            make, total = (lambda pkg: cli_units(pkg, golden, chain)), "cli"
        elif args.relations:
            make, total = relation_units, "relations"
        elif args.kraus:
            make, total = kraus_units, "kraus"
        elif args.realized:
            sweep = sweep_kraus_entries(packages["tree"])
            make, total = (lambda pkg: realized_units(pkg, sweep)), "realized"
        else:
            make, total = units, "sweep"
        trees = {side: make(pkg) for side, pkg in packages.items()}
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
        peak = {side: {} for side in trees}
        for name in names:
            for side in trees:
                tracemalloc.start()
                try:
                    trees[side][name]()
                    peak[side][name] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
    result = {"rev": args.rev, "calls": args.calls, "units": {}}
    for name in names + [total]:
        if name == total:
            rev_s, tree_s = (sum(best[side].values()) for side in trees)
            rev_b, tree_b = (max(peak[side].values()) for side in trees)
        else:
            rev_s, tree_s = best["rev"][name], best["tree"][name]
            rev_b, tree_b = peak["rev"][name], peak["tree"][name]
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
