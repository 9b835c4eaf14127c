"""Command-line front end.

Output is line-oriented ``key=value`` with a stable field order and all
numbers printed to 17 significant digits, so runs are diff-able.  Exit
status: 0 when the command succeeds or the check holds, 1 when a check
fails (the output then carries the witness numbers), 2 on usage or
parse errors.  The ``CPCAT_TOL`` environment variable sets the default
comparison tolerance; ``--tol`` overrides it per invocation.  :func:`main`
resolves the semiring, the tolerance and the ``--script`` bindings once,
before any subcommand runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .axioms import AXIOM_RUNNERS
from .channels import (ChoiMatrix, KRAUS_EIG_TOL, check_cp, choi_of_kraus,
                       hermitian_deviation, kraus_from_choi)
from .core import (BOOLEAN, COMPLEX, DEFAULT_TOL, Mor, Obj, SEMIRINGS,
                   check_laws, max_abs_diff)
from .cp import KrausMor, cp_compose
from .dsl import (eval_script, eval_term, parse_expr, parse_script,
                  read_morfile, write_morfile)
from .errors import CpcatError, InvalidArgument, NotHermitian

TOL_ENV_VAR = "CPCAT_TOL"


def _f(x: float) -> str:
    # Adding 0.0 prints -0.0 as 0: whether a zero carries a sign depends
    # on the route that computed it (a transpose keeps the sign that a
    # conjugate gives it, a sum drops it), not on the value.
    return f"{float(x) + 0.0:.17g}"


def _b(x: bool) -> str:
    return "true" if x else "false"


def _obj_str(obj: Obj) -> str:
    return "*".join(str(d) for d in obj.factors) if obj.factors else "1"


def _entry_lines(array, semiring, prefix: str):
    lines = []
    for r in range(array.shape[0]):
        for c in range(array.shape[1]):
            v = array[r, c]
            if semiring is BOOLEAN:
                lines.append(f"{prefix}entry[{r}][{c}]={int(v)}")
            else:
                lines.append(f"{prefix}entry[{r}][{c}]="
                             f"{_f(v.real)} {_f(v.imag)}")
    return lines


def _mor_lines(m: Mor, prefix: str = ""):
    lines = [f"{prefix}semiring={m.semiring.name}",
             f"{prefix}dom={_obj_str(m.dom)}",
             f"{prefix}cod={_obj_str(m.cod)}"]
    lines.extend(_entry_lines(m.array, m.semiring, prefix))
    return lines


def _resolve(args) -> None:
    """Resolve the options every subcommand shares, once.

    ``--semiring`` becomes its :class:`Semiring`.  The tolerance is
    ``--tol``, else ``$CPCAT_TOL``, else the default, and must be finite
    and >= 0.  ``--script`` runs into ``args.env`` and ``args.results``.
    """
    given = vars(args)
    if "semiring" in given:
        args.semiring = SEMIRINGS[args.semiring]
    if "tol" in given:
        if args.tol is None:
            raw = os.environ.get(TOL_ENV_VAR, DEFAULT_TOL)
            try:
                args.tol = float(raw)
            except ValueError:
                raise InvalidArgument(
                    f"{TOL_ENV_VAR} must be a number, got {raw!r}") from None
        if not (math.isfinite(args.tol) and args.tol >= 0):
            raise InvalidArgument(
                f"tolerance must be finite and >= 0, got {args.tol}")
    args.env, args.results = {}, []
    if given.get("script"):
        with open(args.script, "r", encoding="utf-8") as fp:
            statements = parse_script(fp.read())
        args.env, args.results = eval_script(
            statements, args.semiring, given.get("tol", DEFAULT_TOL))


def _eval_arg(expr: str, semiring, env) -> Mor:
    term = parse_expr(expr, known=set(env))
    return eval_term(term, semiring, env)


def _kraus_arg(expr: str, semiring, env) -> KrausMor:
    m = _eval_arg(expr, semiring, env)
    if len(m.cod.factors) != 2:
        raise CpcatError(
            f"expression {expr!r} has codomain {_obj_str(m.cod)}; a Kraus "
            "morphism needs exactly two factors (output, ancilla)")
    out, anc = m.cod.factors
    return KrausMor(m, Obj(out), Obj(anc))


def _read_choi(path) -> ChoiMatrix:
    m = read_morfile(path)
    if m.semiring is not COMPLEX:
        raise CpcatError(f"{path}: Choi matrices need the complex semiring")
    if m.dom.factors != m.cod.factors or len(m.dom.factors) != 2:
        raise CpcatError(
            f"{path}: a Choi matrix is typed A*B -> A*B (input, output); "
            f"got {_obj_str(m.dom)} -> {_obj_str(m.cod)}")
    in_dim, out_dim = m.dom.factors
    return ChoiMatrix(in_dim, out_dim, m.array)


def cmd_eval(args) -> int:
    if args.expr is None:
        if not args.script:
            raise CpcatError("eval needs an expression or --script")
        print(f"semiring={args.semiring.name}")
        print(f"checks={len(args.results)}")
        failed = False
        for k, res in enumerate(args.results):
            print(f"check[{k}]={res['kind']}")
            if res["kind"] == "eq":
                print(f"check[{k}].equal={_b(res['equal'])}")
                print(f"check[{k}].max_abs_diff={_f(res['max_abs_diff'])}")
                failed = failed or not res["equal"]
            else:
                for line in _mor_lines(res["mor"], f"check[{k}]."):
                    print(line)
        return 1 if failed else 0
    mor = _eval_arg(args.expr, args.semiring, args.env)
    for line in _mor_lines(mor):
        print(line)
    if args.out:
        write_morfile(mor, args.out)
    return 0


def cmd_eq(args) -> int:
    left = _eval_arg(args.left, args.semiring, args.env)
    right = _eval_arg(args.right, args.semiring, args.env)
    if (left.dom.dim, left.cod.dim) != (right.dom.dim, right.cod.dim):
        raise CpcatError(
            f"cannot compare {_obj_str(left.dom)} -> {_obj_str(left.cod)} "
            f"with {_obj_str(right.dom)} -> {_obj_str(right.cod)}")
    dev = max_abs_diff(left, right)
    equal = args.semiring.within(dev, args.tol)
    print(f"equal={_b(equal)}")
    print(f"max_abs_diff={_f(dev)}")
    print(f"tol={_f(args.tol)}")
    return 0 if equal else 1


def cmd_check_cp(args) -> int:
    choi = _read_choi(args.morfile)
    herm_dev = hermitian_deviation(choi.matrix)
    hermitian = herm_dev <= args.tol
    print(f"in_dim={choi.in_dim}")
    print(f"out_dim={choi.out_dim}")
    print(f"hermitian={_b(hermitian)}")
    print(f"hermitian_deviation={_f(herm_dev)}")
    if not hermitian:
        print(f"tol={_f(args.tol)}")
        return 1
    is_cp, min_eig = check_cp(choi, args.tol)
    print(f"min_eigenvalue={_f(min_eig)}")
    print(f"cp={_b(is_cp)}")
    print(f"tol={_f(args.tol)}")
    return 0 if is_cp else 1


def cmd_dilate(args) -> int:
    choi = _read_choi(args.morfile)
    try:
        is_cp, min_eig = check_cp(choi, args.tol)
    except NotHermitian as exc:
        print("hermitian=false")
        print(f"error={exc}")
        return 1
    if not is_cp:
        print("cp=false")
        print(f"min_eigenvalue={_f(min_eig)}")
        return 1
    result = kraus_from_choi(choi, args.tol)
    print(f"in_dim={choi.in_dim}")
    print(f"out_dim={choi.out_dim}")
    print(f"ancilla_dim={result.ancilla_dim}")
    print(f"reconstruction_error={_f(result.reconstruction_error)}")
    for k, op in enumerate(result.kraus_ops):
        for line in _entry_lines(op, COMPLEX, f"kraus[{k}]."):
            print(line)
    if args.out:
        write_morfile(result.mor.mor, args.out)
    return 0


def cmd_choi(args) -> int:
    if args.semiring is not COMPLEX:
        raise CpcatError("choi needs the complex semiring")
    kraus = _kraus_arg(args.expr, COMPLEX, args.env)
    choi = choi_of_kraus(kraus)
    print(f"in_dim={choi.in_dim}")
    print(f"out_dim={choi.out_dim}")
    for line in _entry_lines(choi.matrix, COMPLEX, ""):
        print(line)
    if args.out:
        n = (choi.in_dim, choi.out_dim)
        write_morfile(Mor(Obj(*n), Obj(*n), choi.matrix), args.out)
    return 0


def cmd_cp_compose(args) -> int:
    later = _kraus_arg(args.later, args.semiring, args.env)
    first = _kraus_arg(args.first, args.semiring, args.env)
    composite = cp_compose(later, first)
    print(f"semiring={args.semiring.name}")
    print(f"dom={_obj_str(composite.dom)}")
    print(f"out={_obj_str(composite.out)}")
    print(f"ancilla={_obj_str(composite.ancilla)}")
    for line in _entry_lines(composite.mor.array, args.semiring, ""):
        print(line)
    if args.out:
        write_morfile(composite.mor, args.out)
    return 0


def _witness_lines(witness: dict):
    lines = []
    for key in sorted(witness):
        value = witness[key]
        if isinstance(value, np.ndarray):
            arr = value if value.ndim == 2 else value.reshape(value.shape[0], -1)
            sem = BOOLEAN if arr.dtype == np.bool_ else COMPLEX
            lines.extend(_entry_lines(arr, sem, f"witness.{key}."))
        elif isinstance(value, bool):
            lines.append(f"witness.{key}={_b(value)}")
        elif isinstance(value, float):
            lines.append(f"witness.{key}={_f(value)}")
        else:
            lines.append(f"witness.{key}={value}")
    return lines


def cmd_check_axioms(args) -> int:
    report = AXIOM_RUNNERS[args.axiom](args.semiring, samples=args.samples,
                                       seed=args.seed, tol=args.tol)
    print(f"axiom={report.axiom}")
    print(f"semiring={args.semiring.name}")
    print(f"samples={report.samples}")
    print(f"checked={report.checked}")
    print(f"holds={_b(report.holds)}")
    print(f"status={report.status}")
    print(f"max_deviation={_f(report.max_deviation)}")
    scope = (f"{report.samples} samples" if report.samples
             else f"{report.checked} enumerated clauses")
    if report.holds:
        print(f"summary=holds on {scope}")
        return 0
    if report.witness:
        for line in _witness_lines(report.witness):
            print(line)
    print(f"summary=failed after {scope}")
    return 1


def cmd_laws(args) -> int:
    report = check_laws(args.semiring, trials=args.trials, tol=args.tol,
                        max_dim=args.max_dim, seed=args.seed)
    print(f"semiring={args.semiring.name}")
    print(f"trials={report.trials}")
    print(f"tol={_f(report.tol)}")
    for law, dev in report.deviations.items():
        print(f"law[{law}]={_f(dev)}")
    print(f"max_deviation={_f(report.max_deviation)}")
    print(f"ok={_b(report.ok)}")
    return 0 if report.ok else 1


def _add_semiring(p):
    p.add_argument("--semiring", choices=sorted(SEMIRINGS),
                   default="complex", help="category instance")


def _add_script(p):
    p.add_argument("--script", help="script file providing named morphisms")


def _add_tol(p):
    p.add_argument("--tol", type=float, default=None,
                   help=f"comparison tolerance (default ${TOL_ENV_VAR} "
                        f"or {DEFAULT_TOL:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpcat",
        description="morphism calculator and axiom checker for "
                    "finite-dimensional dagger compact categories")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression or run a script")
    p.add_argument("expr", nargs="?", default=None)
    _add_script(p)
    _add_semiring(p)
    _add_tol(p)
    p.add_argument("--out", help="write the result as a morphism file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("eq", help="compare two expressions")
    p.add_argument("left")
    p.add_argument("right")
    _add_script(p)
    _add_semiring(p)
    _add_tol(p)
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("check-cp",
                       help="test a Choi matrix for complete positivity")
    p.add_argument("morfile")
    _add_tol(p)
    p.set_defaults(func=cmd_check_cp)

    p = sub.add_parser("dilate",
                       help="extract Kraus operators from a Choi matrix")
    p.add_argument("morfile")
    p.add_argument("--tol", type=float, default=KRAUS_EIG_TOL,
                   help=f"eigenvalue cutoff (default {KRAUS_EIG_TOL:g})")
    p.add_argument("--out", help="write the stacked Kraus morphism")
    p.set_defaults(func=cmd_dilate)

    p = sub.add_parser("choi",
                       help="Choi matrix of a Kraus expression (cod = out*ancilla)")
    p.add_argument("expr")
    _add_script(p)
    _add_semiring(p)
    p.add_argument("--out", help="write the Choi matrix as a morphism file")
    p.set_defaults(func=cmd_choi)

    p = sub.add_parser("cp-compose",
                       help="compose two Kraus expressions (later first)")
    p.add_argument("later")
    p.add_argument("first")
    _add_script(p)
    _add_semiring(p)
    p.add_argument("--out", help="write the composite Kraus morphism")
    p.set_defaults(func=cmd_cp_compose)

    p = sub.add_parser("check-axioms", help="run one axiom checker")
    p.add_argument("--axiom", required=True, choices=sorted(AXIOM_RUNNERS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    _add_semiring(p)
    _add_tol(p)
    p.set_defaults(func=cmd_check_axioms)

    p = sub.add_parser("laws", help="sample the category laws")
    _add_semiring(p)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-dim", type=int, default=4)
    _add_tol(p)
    p.set_defaults(func=cmd_laws)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve(args)
        return args.func(args)
    except (CpcatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
