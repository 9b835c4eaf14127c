"""The benchmark's workloads: seeded inputs, units and their oracle checks.

A unit is one call into cpcat (``call``) plus the oracle check of its
result (``check``); only ``call`` is timed.  Every program function is
looked up through its cpcat module at call time, so the tracer's wrappers
see the calls.  Expected results are computed on the first check and
reused where they are costly and small, so oracle cost stays out of
set-up and out of the timed calls.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

from cpcat import axioms, channels, cli, core, cp, cpm
import oracles

COMPLEX, BOOLEAN = core.COMPLEX, core.BOOLEAN


@dataclass
class Unit:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    units: list
    warmup: list
    # How closely the units' time follows the host-speed calibration: a
    # call's seconds are scaled by (REFERENCE_S / c) ** speed_exponent
    # (``hostspeed``, ``child.work_list_seconds``).
    speed_exponent: float = 1.0


# In a slow spell of the host, the axiom sweep (many small numpy calls
# driven from Python) slows down a little more than the calibration, and
# the large-array workloads less.  Over five sets of five to ten runs,
# the spread (IQR/median) of the pass time was smaller with 1.2 than with
# 1 on axioms-small in four sets (0.027 against 0.034 over ten runs), and
# smaller with 0.8 than with 1 on kraus-large in four sets (0.049 against
# 0.060) and on relations-large in three of four (0.030 against 0.053);
# elsewhere the two were within 0.02.  dsl-cli keeps 1: its units are
# short and counted at their fastest round, and no exponent did better
# on every set.
SWEEP_EXPONENT = 1.2
ARRAY_EXPONENT = 0.8


# --- seeded inputs --------------------------------------------------------

def random_kraus(rng, a: int, b: int, c: int, semiring) -> "cp.KrausMor":
    """Kraus morphism ``a -> b ⊗ c``.

    Complex entries are standard complex normals.  Boolean entries are
    set with probability ``sqrt(ln 2 / c)``, so about half of the doubled
    form is true and the check is not against an all-true matrix.
    """
    shape = (b * c, a)
    if semiring is BOOLEAN:
        entries = rng.random(shape) < np.sqrt(np.log(2) / c)
    else:
        entries = (rng.normal(size=shape)
                   + 1j * rng.normal(size=shape)) / np.sqrt(2)
    mor = core.Mor(core.Obj(a), core.Obj(b, c), entries, semiring)
    return cp.KrausMor(mor, core.Obj(b), core.Obj(c))


def random_relation(rng, rows: int, cols: int, density: float) -> "core.Mor":
    return core.Mor(core.Obj(cols), core.Obj(rows),
                    rng.random((rows, cols)) < density, BOOLEAN)


def _tensor_of(k) -> np.ndarray:
    return oracles.kraus_tensor(k.mor.array, k.out.dim, k.ancilla.dim)


# --- axioms-small ---------------------------------------------------------

# The runners draw their sample dimensions from their own seed, so the seed
# sets the work: over benchmark seeds 1-10, the bytes stored by ``Mor`` in
# one sweep ranged from 165 to 319 MB.  The sweep therefore runs at the
# runners' default seed 0, as ``cpcat check-axioms`` and ``cpcat laws`` do,
# and the benchmark seed does not change it.
AXIOM_SEED = 0


def _runner_unit(axiom: str, semiring, samples: int) -> Unit:
    want = oracles.axiom_checked(axiom, samples)

    def call():
        if axiom == "replay":
            return axioms.run_replay(semiring, samples=samples, seed=AXIOM_SEED)
        return axioms.AXIOM_RUNNERS[axiom](semiring, samples=samples,
                                           seed=AXIOM_SEED)

    def check(report) -> bool:
        return (report.axiom == axiom and report.holds
                and report.checked == want)
    return Unit(f"{axiom}.{semiring.name}", call, check)


def _laws_unit(semiring, trials: int) -> Unit:
    def call():
        return core.check_laws(semiring, trials=trials, seed=AXIOM_SEED)

    def check(report) -> bool:
        return (report.ok and report.trials == trials
                and len(report.deviations) == oracles.LAW_COUNT)
    return Unit(f"laws.{semiring.name}", call, check)


def axioms_small(rng, root: Path, scratch: Path) -> Workload:
    def sweep(samples: int, replay: int) -> list:
        units = []
        for semiring in (COMPLEX, BOOLEAN):
            for axiom in axioms.AXIOM_RUNNERS:
                if axiom == "env-c" and semiring is not COMPLEX:
                    continue
                units.append(_runner_unit(axiom, semiring, samples))
            units.append(_runner_unit("replay", semiring, replay))
            units.append(_laws_unit(semiring, replay))
        return units
    return Workload(units=sweep(100, 200), warmup=sweep(10, 10),
                    speed_exponent=SWEEP_EXPONENT)


# --- kraus-large ----------------------------------------------------------

def kraus_case(rng, n: int, with_tensor: bool) -> Unit:
    """Every Kraus-layer operation on a complex ``n -> n ⊗ n`` map."""
    k = random_kraus(rng, n, n, n, COMPLEX)
    g = random_kraus(rng, n, n, n, COMPLEX)

    def call():
        choi = channels.choi_of_kraus(k)
        is_cp, min_eig = channels.check_cp(choi)
        dilation = channels.kraus_from_choi(choi)
        return {
            "form": cp.cp_form(k),
            "realized": cpm.cpm_form(k),
            "composite": cp.cp_compose(g, k),
            "choi": choi, "is_cp": is_cp, "min_eig": min_eig,
            "dilation": dilation,
            "deviation": cp.cp_deviation(dilation.mor, k),
            "adjoint": cpm.cpm_dagger(k),
            "product": cp.cp_tensor(k, g) if with_tensor else None,
        }

    def check(r) -> bool:
        # Big arrays are compared and released one at a time, so the check
        # does not raise the workload's peak RSS above the program's own.
        f, h = _tensor_of(k), _tensor_of(g)
        form = oracles.doubled_form(f)
        ok = (oracles.close(r.pop("form").array, form)
              and oracles.close(r.pop("realized").array.reshape(n, n, n, n),
                                oracles.realized_view(form, n, n)))
        dil = _tensor_of(r["dilation"].mor)
        dil_form = oracles.doubled_form(dil)
        oracle_dev = oracles.max_abs_diff(dil_form, form)
        del form, dil_form
        choi = oracles.choi(f)
        ok = (ok
              and oracles.close(r["composite"].mor.array,
                                oracles.kraus_compose(h, f))
              and r["composite"].ancilla.dim == n * n
              and oracles.close(r["choi"].matrix, choi)
              and r["is_cp"]
              and abs(r["min_eig"] - np.linalg.eigvalsh(choi)[0]) <= oracles.TOL
              and r["dilation"].reconstruction_error <= oracles.TOL
              and oracles.close(oracles.choi(dil), choi)
              and r["deviation"] <= oracles.TOL
              and abs(r["deviation"] - oracle_dev) <= oracles.TOL
              and oracles.close(r["adjoint"].mor.array, oracles.kraus_adjoint(f))
              and (r["adjoint"].out.dim, r["adjoint"].ancilla.dim) == (n, n))
        if with_tensor:
            ok = ok and oracles.close(r["product"].mor.array,
                                      oracles.kraus_tensor_product(f, h))
        return ok
    return Unit(f"case{n}", call, check)


# Cases at 8 and above skip cp_tensor: at 8^3 it alone peaks near 820 MB.
KRAUS_SIZES = (6, 8, 12, 16)
TENSOR_MAX = 6


def kraus_large(rng, root: Path, scratch: Path) -> Workload:
    units = [kraus_case(rng, n, n <= TENSOR_MAX) for n in KRAUS_SIZES]
    return Workload(units=units, warmup=[kraus_case(rng, 3, True)],
                    speed_exponent=ARRAY_EXPONENT)


# --- relations-large ------------------------------------------------------

def relation_form_case(rng, d: int) -> Unit:
    """Boolean doubled and realized forms of a ``d -> d ⊗ d`` relation."""
    k = random_kraus(rng, d, d, d, BOOLEAN)

    def call():
        return cp.cp_form(k), cpm.cpm_form(k)

    @cache
    def expected():
        return oracles.doubled_form(_tensor_of(k))

    def check(r) -> bool:
        form = expected()
        return (oracles.close(r[0].array, form)
                and oracles.close(r[1].array.reshape(d, d, d, d),
                                  oracles.realized_view(form, d, d)))
    return Unit(f"forms{d}", call, check)


def relation_compose_case(rng, n: int) -> Unit:
    """``g after f`` on ``n``-element relations of density ``sqrt(ln 2 / n)``.

    At that density about half of the composite is true.
    """
    density = np.sqrt(np.log(2) / n)
    f = random_relation(rng, n, n, density)
    g = random_relation(rng, n, n, density)

    @cache
    def expected():
        return g.array @ f.array  # numpy's native boolean matmul

    def check(r) -> bool:
        return (r.dom.dim, r.cod.dim) == (n, n) and oracles.close(
            r.array, expected())
    return Unit(f"compose{n}", lambda: core.compose(g, f), check)


def relation_tensor_case(rng, p: int, q: int) -> Unit:
    """Tensor of fair-coin relations on ``p`` and ``q`` elements."""
    x = random_relation(rng, p, p, 0.5)
    y = random_relation(rng, q, q, 0.5)

    @cache
    def expected():
        return oracles.kron(x.array, y.array)

    def check(r) -> bool:
        return oracles.close(r.array, expected())
    return Unit(f"tensor{p * q}", lambda: core.tensor(x, y), check)


RELATION_FORM_SIZES = (6, 8, 10, 12)
RELATION_SIZES = (256, 512, 1024)
# Tensor factors whose product is each size in RELATION_SIZES.
TENSOR_FACTORS = ((16, 16), (16, 32), (32, 32))


def relations_large(rng, root: Path, scratch: Path) -> Workload:
    units = [relation_form_case(rng, d) for d in RELATION_FORM_SIZES]
    units += [relation_compose_case(rng, n) for n in RELATION_SIZES]
    units += [relation_tensor_case(rng, p, q) for p, q in TENSOR_FACTORS]
    warmup = [relation_form_case(rng, 3), relation_compose_case(rng, 32),
              relation_tensor_case(rng, 4, 8)]
    return Workload(units=units, warmup=warmup,
                    speed_exponent=ARRAY_EXPONENT)


# --- dsl-cli --------------------------------------------------------------

def invoke(argv: list) -> tuple:
    """In-process ``cli.main``: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_unit(kind: str, argv: list, check) -> Unit:
    return Unit(kind, lambda: invoke(argv), lambda r: check(*r))


def _quarters(rng, shape) -> np.ndarray:
    """Complex entries with real and imaginary parts in quarters of [-2, 2]."""
    parts = rng.integers(-8, 9, size=(2,) + shape) / 4
    return parts[0] + 1j * parts[1]


def _scalar(z: complex) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return f"{re:g}"
    unit = {1.0: "i", -1.0: "-i"}.get(im, f"{im:g}i")
    return unit if re == 0 else f"{re:g}{'+' if im > 0 else ''}{unit}"


def literal(m: np.ndarray) -> str:
    return "[" + "; ".join(", ".join(_scalar(z) for z in row)
                           for row in m) + "]"


def _monomial_unitary(rng, n: int) -> np.ndarray:
    """Permutation matrix with phases in {1, i, -1, -i}: products stay exact."""
    phases = np.array([1, 1j, -1, -1j])[rng.integers(4, size=n)]
    u = np.zeros((n, n), dtype=complex)
    u[rng.permutation(n), np.arange(n)] = phases
    return u


def _swap22() -> np.ndarray:
    s = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            s[2 * j + i, 2 * i + j] = 1
    return s


def _eval_check(head_tail: list, entries: dict):
    head = [("semiring", "complex")] + head_tail

    def check(code, out, err) -> bool:
        return code == 0 and oracles.matches_output(out, head, entries)
    return check


def _mor_head(prefix: str, dom: str, cod: str) -> list:
    return [(f"{prefix}semiring", "complex"), (f"{prefix}dom", dom),
            (f"{prefix}cod", cod)]


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _write_choi(path: Path, a: int, b: int, m: np.ndarray) -> str:
    """Morphism file ``a*b -> a*b`` in the documented JSON layout."""
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    rec = {"dom": [a, b], "cod": [a, b], "semiring": "complex",
           "entries": entries}
    return _write(path, json.dumps(rec))


def _read_entries(path: Path) -> tuple:
    rec = json.loads(path.read_text(encoding="utf-8"))
    flat = np.array(rec["entries"], dtype=float)
    return rec["dom"], rec["cod"], flat[..., 0] + 1j * flat[..., 1]


def golden_units(golden: Path) -> list:
    units = []
    for path in sorted(golden.glob("*.cps")):
        first = path.read_text(encoding="utf-8").splitlines()[0]
        semiring = "bool" if "semiring: bool" in first else "complex"
        want = path.with_suffix(".out").read_bytes()

        def check(code, out, err, want=want) -> bool:
            return code == 0 and out.encode("utf-8") == want
        units.append(_cli_unit("golden", ["eval", "--script", str(path),
                                          "--semiring", semiring], check))
    for path in sorted(golden.glob("*.bad")):
        def check(code, out, err) -> bool:
            return code == 2 and out == "" and err.startswith("error: line")
        units.append(_cli_unit("bad", ["eval", "--script", str(path)], check))
    return units


def matrix_script_unit(rng, scratch: Path, m: int) -> Unit:
    """An ``m x m`` literal, its Gram matrix and a dagger round trip."""
    a = _quarters(rng, (m, m))
    path = _write(scratch / f"matrix{m}.cps",
                  f"mor a : {m} -> {m} = {literal(a)} ;\n"
                  "eval a ; dagger a ;\n"
                  "eq dagger (dagger a), a ;\n")
    check = _eval_check(
        [("checks", "2"), ("check[0]", "eval")]
        + _mor_head("check[0].", str(m), str(m))
        + [("check[1]", "eq"), ("check[1].equal", "true"),
           ("check[1].max_abs_diff", "0")],
        {"check[0].": a.conj().T @ a})
    return _cli_unit("matrix", ["eval", "--script", path], check)


def chain_script_unit(rng, scratch: Path, index: int, terms: int) -> Unit:
    """A ``;`` chain of ``terms`` monomial unitaries, swaps and identities."""
    us = [_monomial_unitary(rng, 4) for _ in range(6)]
    lines = [f"mor u{i} : 4 -> 4 = {literal(u)} ;" for i, u in enumerate(us)]
    words, mats, types = [], [], []
    for _ in range(terms):
        pick, i = int(rng.integers(5)), int(rng.integers(len(us)))
        word, mat, typ = (
            (f"u{i}", us[i], "4"),
            (f"dagger u{i}", us[i].conj().T, "4"),
            (f"conj u{i}", us[i].conj(), "4"),
            ("swap 2 2", _swap22(), "2*2"),
            ("id 4", np.eye(4), "4"),
        )[pick]
        words.append(word)
        mats.append(mat)
        types.append(typ)
    product = np.eye(4)
    for mat in mats:
        product = mat @ product
    lines.append("eval " + " ; ".join(words) + " ;")
    path = _write(scratch / f"chain{index}.cps", "\n".join(lines) + "\n")
    check = _eval_check(
        [("checks", "1"), ("check[0]", "eval")]
        + _mor_head("check[0].", types[0], types[-1]),
        {"check[0].": product})
    return _cli_unit("chain", ["eval", "--script", path], check)


def _kron_all(mats: list) -> np.ndarray:
    out = np.ones((1, 1))
    for m in mats:
        out = oracles.kron(out, m)
    return out


def ox_script_unit(rng, scratch: Path, index: int, dims: tuple) -> Unit:
    """An ``ox`` chain of literals, one factor per entry of ``dims``."""
    mats = [_quarters(rng, (d, d)) for d in dims]
    lines = [f"mor b{i} : {d} -> {d} = {literal(m)} ;"
             for i, (d, m) in enumerate(zip(dims, mats))]
    lines.append("eval " + " ox ".join(f"b{i}" for i in range(len(dims)))
                 + " ;")
    path = _write(scratch / f"ox{index}.cps", "\n".join(lines) + "\n")
    typ = "*".join(str(d) for d in dims)
    check = _eval_check(
        [("checks", "1"), ("check[0]", "eval")]
        + _mor_head("check[0].", typ, typ),
        {"check[0].": _kron_all(mats)})
    return _cli_unit("ox", ["eval", "--script", path], check)


def expr_unit(rng) -> Unit:
    """A literal ``ox`` expression given on the command line."""
    x, y, z = (_quarters(rng, (2, 2)) for _ in range(3))
    expr = f"{literal(x)} ox {literal(y)} ox dagger {literal(z)}"
    check = _eval_check([("dom", "2*2*2"), ("cod", "2*2*2")],
                        {"": _kron_all([x, y, z.conj().T])})
    return _cli_unit("expr", ["eval", expr], check)


def choi_unit(rng, scratch: Path, a: int, b: int, c: int) -> Unit:
    """``choi`` of a scripted Kraus morphism, also written with ``--out``."""
    k = _quarters(rng, (b * c, a))
    script = _write(scratch / f"kraus{a}{b}{c}.cps",
                    f"mor k : {a} -> {b}*{c} = {literal(k)} ;\n")
    out = scratch / f"choi{a}{b}{c}.mor"
    want = oracles.choi(k.reshape(b, c, a))

    def check(code, text, err) -> bool:
        if code != 0 or not oracles.matches_output(
                text, [("in_dim", str(a)), ("out_dim", str(b))], {"": want}):
            return False
        dom, cod, entries = _read_entries(out)
        return dom == [a, b] == cod and oracles.close(entries, want)
    return _cli_unit("choi", ["choi", "k", "--script", script,
                              "--out", str(out)], check)


def _check_cp_unit(path: str, a: int, b: int, m: np.ndarray) -> Unit:
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    head = [("in_dim", str(a)), ("out_dim", str(b))]
    if herm_dev > oracles.TOL:
        head += [("hermitian", "false"), ("hermitian_deviation", herm_dev),
                 ("tol", oracles.TOL)]
        code_want = 1
    else:
        min_eig = float(np.linalg.eigvalsh(m)[0])
        is_cp = min_eig >= -oracles.TOL
        head += [("hermitian", "true"), ("hermitian_deviation", herm_dev),
                 ("min_eigenvalue", min_eig),
                 ("cp", "true" if is_cp else "false"), ("tol", oracles.TOL)]
        code_want = 0 if is_cp else 1

    def check(code, out, err) -> bool:
        return code == code_want and oracles.matches_output(out, head, {})
    return _cli_unit("check-cp", ["check-cp", path], check)


def _dilate_unit(path: str, scratch: Path, a: int, b: int, rank: int,
                 m: np.ndarray) -> Unit:
    out = scratch / (Path(path).stem + ".kraus.mor")

    def check(code, text, err) -> bool:
        head = [("in_dim", str(a)), ("out_dim", str(b)),
                ("ancilla_dim", str(rank)), ("reconstruction_error", 0.0)]
        if code != 0 or not oracles.matches_output(text, head, {}):
            return False
        blocks = {k.split(".")[0] for k, _ in oracles.parse_lines(text)
                  if k.startswith("kraus[")}
        dom, cod, entries = _read_entries(out)
        return (len(blocks) == rank and dom == [a] and cod == [b, rank]
                and oracles.close(oracles.choi(entries.reshape(b, rank, a)),
                                  m, oracles.TOL * (1 + np.abs(m).max())))
    return _cli_unit("dilate", ["dilate", path, "--out", str(out)], check)


def channel_units(rng, scratch: Path) -> list:
    """``check-cp`` over CP, non-CP and non-Hermitian Choi files, and
    ``dilate`` over the CP ones.

    The CP Choi matrices come from complex-normal Kraus maps whose
    ancilla ``c`` is below ``a * b``, so each has rank ``c`` and
    ``dilate`` must return ``c`` operators.
    """
    units = []
    for a, b, c in ((2, 2, 2), (2, 3, 3), (3, 2, 4)):
        f = random_kraus(rng, a, b, c, COMPLEX)
        m = oracles.choi(_tensor_of(f))
        path = _write_choi(scratch / f"cp{a}{b}{c}.mor", a, b, m)
        units.append(_check_cp_unit(path, a, b, m))
        units.append(_dilate_unit(path, scratch, a, b, c, m))
    transpose = np.eye(9)[[3 * (k % 3) + k // 3 for k in range(9)]]
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    for name, (a, b), m in (("transpose", (3, 3), transpose),
                            ("indefinite", (3, 2), (x + x.conj().T) / 2),
                            ("skew", (2, 3), x)):
        path = _write_choi(scratch / f"{name}.mor", a, b, m)
        units.append(_check_cp_unit(path, a, b, m))
    return units


CHAIN_TERMS = 200
MATRIX_SIZES = (4, 8, 16, 32)
OX_DIMS = ((2, 2, 2, 2, 2), (2, 3, 2), (3, 2, 2, 2))


def dsl_cli(rng, root: Path, scratch: Path) -> Workload:
    golden = root / "tests" / "golden"
    if not golden.is_dir():
        raise FileNotFoundError(f"golden corpus missing: {golden}")
    units = golden_units(golden)
    units += [matrix_script_unit(rng, scratch, m) for m in MATRIX_SIZES]
    units += [chain_script_unit(rng, scratch, i, CHAIN_TERMS)
              for i in range(3)]
    units += [ox_script_unit(rng, scratch, i, dims)
              for i, dims in enumerate(OX_DIMS)]
    units.append(expr_unit(rng))
    units += [choi_unit(rng, scratch, a, b, c)
              for a, b, c in ((2, 2, 2), (2, 3, 2), (3, 2, 3))]
    units += channel_units(rng, scratch)
    first_of_kind = {}
    for unit in units:
        first_of_kind.setdefault(unit.kind, unit)
    return Workload(units=units, warmup=list(first_of_kind.values()))


WORKLOADS = {
    "axioms-small": axioms_small,
    "kraus-large": kraus_large,
    "relations-large": relations_large,
    "dsl-cli": dsl_cli,
}
