"""Command-line front end.

Each subcommand lists its result as ``(key, value)`` fields in a stable
order, and :func:`_emit` owns their format: line-oriented ``key=value``,
the value's text chosen by its type, with every number printed to 17
significant digits and every zero without a sign, so runs are diff-able.
Exit status: 0 when the command succeeds or the check holds, 1 when a
check fails (the output then carries the witness numbers), 2 on usage or
parse errors and when memory runs out.  Results print row by row, so
stdout may end part-way through a listing when the status is 2; check
the status before parsing stdout.  The ``CPCAT_TOL`` environment
variable sets the default comparison tolerance; ``--tol`` overrides it
per invocation.  :func:`main` resolves the semiring, the tolerance and
the ``--script`` bindings once, before any subcommand runs.  The
modules only some subcommands run (the axiom checkers, the channels and
the CP layer) are imported inside those subcommands, so a launch loads
only what its subcommand executes.

:func:`main` may be called any number of times in one process.  It
builds its argument parser once per process, at its first call rather
than at import, and keeps no other state between calls: every call
reads its options, ``$CPCAT_TOL`` and its script anew.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from .core import (COMPLEX, DEFAULT_TOL, KRAUS_EIG_TOL, Mor, Obj, SEMIRINGS,
                   check_laws, max_abs_diff)
from . import dsl
from .dsl import (Binding, eval_script, parse_expr, parse_script,
                  read_morfile, read_text, write_morfile)
from .errors import (CpcatError, DimensionMismatch, InvalidArgument,
                     NotCompletelyPositive, NotHermitian)

if TYPE_CHECKING:
    from .channels import ChoiMatrix
    from .cp import KrausMor

TOL_ENV_VAR = "CPCAT_TOL"
# the choices of --axiom, the keys of axioms.AXIOM_RUNNERS: listed here,
# so that building the parser does not import the axiom checkers
AXIOM_NAMES = ("doubling", "env-a", "env-b", "env-c", "prep-state", "xi")


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
    """Yield the ``entry[r][c]=`` lines of ``array``, one row at a time.

    Each row comes as one string, its lines joined by newlines, so that
    it costs one write.  Only one row's scalars and lines are alive at
    once, so printing a result needs about one row of memory beyond the
    array itself.
    """
    for r, row in enumerate(array):
        yield semiring.row_text(f"{prefix}entry[{r}]", row)


# a one-line field's text, chosen by the value's exact type; any other
# type prints as str, but _emit refuses a float of a type not listed here
_TEXT = {float: _f, np.float64: _f, bool: _b, np.bool_: _b, Obj: _obj_str}


def _emit(fields, semiring) -> None:
    """Print the ``(key, value)`` fields of a result, in order.

    This is the one format of every result: a value prints as
    ``key=value``, in the text :data:`_TEXT` gives its exact type.  A
    :class:`Mor` prints as the fields ``<key>.semiring``, ``<key>.dom``
    and ``<key>.cod`` and then its entries, in its own instance.  An
    array prints as the :func:`_entry_lines` rows of ``semiring`` under
    ``<key>.``, or under no prefix when the key is ``""``; an array that
    is not 2-D is read as the rows of its first axis.
    """
    for key, value in fields:
        kind, at = type(value), f"{key}." if key else ""
        if kind is Mor:
            _emit([(at + "semiring", value.semiring.name),
                   (at + "dom", value.dom), (at + "cod", value.cod),
                   (key, value.array)], value.semiring)
        elif kind is np.ndarray:
            rows = value if value.ndim == 2 else value.reshape(len(value), -1)
            for row in _entry_lines(rows, semiring, at):
                print(row)
        elif kind in _TEXT or not isinstance(value, (float, np.inexact)):
            print(f"{key}={_TEXT.get(kind, str)(value)}")
        else:
            raise TypeError(f"no format for the {kind.__name__} field {key}")


def _refuse_past_budget(entries: int, what: str) -> None:
    """Refuse a result of more than ``dsl.MAX_ENTRIES`` entries unbuilt."""
    if entries > dsl.MAX_ENTRIES:
        raise CpcatError(f"the {what} would have {entries} entries, more "
                         f"than {dsl.MAX_ENTRIES}")


def _resolve(args) -> None:
    """Resolve the options every subcommand shares, once.

    ``--semiring`` becomes its :class:`Semiring`.  The tolerance is
    ``--tol``, else ``$CPCAT_TOL``, else the default, and must be finite
    and >= 0.  ``--script`` is parsed whole and runs into ``args.env``
    and ``args.results``; its ``eval`` and ``eq`` checks run only for
    ``eval`` with no expression, the one use that prints them, and every
    other use evaluates the bindings alone, in order.
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
        statements = parse_script(read_text(args.script))
        if args.command != "eval" or args.expr is not None:
            statements = [s for s in statements if isinstance(s, Binding)]
        args.env, args.results = eval_script(
            statements, args.semiring, given.get("tol", DEFAULT_TOL))


def _checked_arg(expr: str, semiring, env) -> dsl.Checked:
    """The term ``expr`` denotes, checked and not yet built."""
    return dsl.check_term(parse_expr(expr), semiring, env)


def _kraus_arg(expr: str, semiring, env) -> dsl.Checked:
    """The term ``expr`` denotes, checked and not yet built, with the
    two-factor codomain (output, ancilla) a Kraus morphism needs."""
    checked = _checked_arg(expr, semiring, env)
    if len(checked.cod.factors) != 2:
        raise CpcatError(
            f"expression {expr!r} has codomain {_obj_str(checked.cod)}; a "
            "Kraus morphism needs exactly two factors (output, ancilla)")
    return checked


def _build_kraus(checked: dsl.Checked) -> KrausMor:
    from .cp import KrausMor

    return KrausMor(dsl.eval_term(checked), *checked.cod.factors)


def _read_choi(path) -> ChoiMatrix:
    from .channels import ChoiMatrix

    m = read_morfile(path)
    if not m.semiring.supports_channels:
        raise CpcatError(f"{path}: Choi matrices need an instance with "
                         "supports_channels, such as complex")
    if m.dom.factors != m.cod.factors or len(m.dom.factors) != 2:
        raise CpcatError(
            f"{path}: a Choi matrix is typed A*B -> A*B (input, output); "
            f"got {_obj_str(m.dom)} -> {_obj_str(m.cod)}")
    return ChoiMatrix(*m.dom.factors, m.array)


def cmd_eval(args) -> int:
    if args.expr is None:
        if not args.script:
            raise CpcatError("eval needs an expression or --script")
        if args.out:
            # a script may hold any number of results, or none
            raise CpcatError("--out needs an expression")
        fields = [("semiring", args.semiring.name),
                  ("checks", len(args.results))]
        for k, res in enumerate(args.results):
            key = f"check[{k}]"
            fields.append((key, res["kind"]))
            if res["kind"] == "eq":
                fields += [(f"{key}.equal", res["equal"]),
                           (f"{key}.max_abs_diff", res["max_abs_diff"])]
            else:
                fields.append((key, res["mor"]))
        _emit(fields, args.semiring)
        # an eval result has no verdict; every eq check must hold
        return 0 if all(r.get("equal", True) for r in args.results) else 1
    mor = dsl.eval_term(_checked_arg(args.expr, args.semiring, args.env))
    _emit([("", mor)], args.semiring)
    if args.out:
        write_morfile(mor, args.out)
    return 0


def cmd_eq(args) -> int:
    # both sides are typed before either is built
    left = _checked_arg(args.left, args.semiring, args.env)
    right = _checked_arg(args.right, args.semiring, args.env)
    if (left.dom.dim, left.cod.dim) != (right.dom.dim, right.cod.dim):
        raise CpcatError(
            f"cannot compare {_obj_str(left.dom)} -> {_obj_str(left.cod)} "
            f"with {_obj_str(right.dom)} -> {_obj_str(right.cod)}")
    dev = max_abs_diff(dsl.eval_term(left), dsl.eval_term(right))
    equal = args.semiring.within(dev, args.tol)
    _emit([("equal", equal), ("max_abs_diff", dev), ("tol", args.tol)],
          args.semiring)
    return 0 if equal else 1


def cmd_check_cp(args) -> int:
    from .channels import check_cp

    choi = _read_choi(args.morfile)
    herm_dev = choi.hermitian_deviation
    hermitian = COMPLEX.within(herm_dev, args.tol)
    _emit([("in_dim", choi.in_dim), ("out_dim", choi.out_dim),
           ("hermitian", hermitian), ("hermitian_deviation", herm_dev)],
          COMPLEX)
    if not hermitian:
        _emit([("tol", args.tol)], COMPLEX)
        return 1
    is_cp, min_eig = check_cp(choi, args.tol)
    _emit([("min_eigenvalue", min_eig), ("cp", is_cp), ("tol", args.tol)],
          COMPLEX)
    return 0 if is_cp else 1


def cmd_dilate(args) -> int:
    from .channels import check_cp, kraus_from_choi

    choi = _read_choi(args.morfile)
    try:
        is_cp, min_eig = check_cp(choi, args.tol)
    except NotHermitian as exc:
        _emit([("hermitian", False), ("error", exc)], COMPLEX)
        return 1
    if not is_cp:
        _emit([("cp", False), ("min_eigenvalue", min_eig)], COMPLEX)
        return 1
    try:
        result = kraus_from_choi(choi, args.tol)
    except NotCompletelyPositive as exc:
        # the spectrum passed, but no Kraus factor rebuilds the matrix
        _emit([("cp", False), ("error", exc)], COMPLEX)
        return 1
    _emit([("in_dim", choi.in_dim), ("out_dim", choi.out_dim),
           ("ancilla_dim", result.ancilla_dim),
           ("reconstruction_error", result.reconstruction_error),
           *((f"kraus[{k}]", op) for k, op in enumerate(result.kraus_ops))],
          COMPLEX)
    if args.out:
        write_morfile(result.mor.mor, args.out)
    return 0


def cmd_choi(args) -> int:
    from .channels import choi_of_kraus

    if not args.semiring.supports_channels:
        raise CpcatError("choi needs an instance with supports_channels, "
                         "such as complex")
    kraus = _kraus_arg(args.expr, args.semiring, args.env)
    out = kraus.cod.factors[0]
    _refuse_past_budget((kraus.dom.dim * out) ** 2, "Choi matrix")
    choi = choi_of_kraus(_build_kraus(kraus))
    _emit([("in_dim", choi.in_dim), ("out_dim", choi.out_dim),
           ("", choi.matrix)], COMPLEX)
    if args.out:
        n = (choi.in_dim, choi.out_dim)
        write_morfile(Mor(Obj(*n), Obj(*n), choi.matrix), args.out)
    return 0


def cmd_cp_compose(args) -> int:
    from .cp import cp_compose

    later = _kraus_arg(args.later, args.semiring, args.env)
    first = _kraus_arg(args.first, args.semiring, args.env)
    first_out, first_anc = first.cod.factors
    if first_out != later.dom.dim:
        # a composite that does not exist has no size to refuse
        raise DimensionMismatch(f"cp_compose: output dim {first_out} "
                                f"!= input dim {later.dom.dim}")
    _refuse_past_budget(later.cod.dim * first_anc * first.dom.dim,
                        "composite")
    composite = cp_compose(_build_kraus(later), _build_kraus(first))
    _emit([("semiring", args.semiring.name), ("dom", composite.dom),
           ("out", composite.out), ("ancilla", composite.ancilla),
           ("", composite.mor.array)], args.semiring)
    if args.out:
        write_morfile(composite.mor, args.out)
    return 0


def cmd_check_axioms(args) -> int:
    from .axioms import AXIOM_RUNNERS

    report = AXIOM_RUNNERS[args.axiom](args.semiring, samples=args.samples,
                                       seed=args.seed, tol=args.tol)
    scope = (f"{report.samples} samples" if report.samples
             else f"{report.checked} enumerated clauses")
    witness = {} if report.holds else report.witness or {}
    _emit([("axiom", report.axiom), ("semiring", args.semiring.name),
           ("samples", report.samples), ("checked", report.checked),
           ("holds", report.holds), ("status", report.status),
           ("max_deviation", report.max_deviation),
           *((f"witness.{key}", witness[key]) for key in sorted(witness)),
           ("summary", ("holds on " if report.holds else "failed after ")
            + scope)], args.semiring)
    return 0 if report.holds else 1


def cmd_laws(args) -> int:
    # a trial's largest intermediate, such as interchange's g ⊗ g2, has
    # up to max_dim**4 entries
    _refuse_past_budget(args.max_dim ** 4, "largest intermediate of a trial")
    report = check_laws(args.semiring, trials=args.trials, tol=args.tol,
                        max_dim=args.max_dim, seed=args.seed)
    _emit([("semiring", args.semiring.name), ("trials", report.trials),
           ("tol", report.tol),
           *((f"law[{law}]", dev) for law, dev in report.deviations.items()),
           ("max_deviation", report.max_deviation), ("ok", report.ok)],
          args.semiring)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built at its first call."""
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
                   help="trim cutoff and, times max(1, max|diag|), "
                   "reconstruction bound "
                   f"(default {KRAUS_EIG_TOL:g})")
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
    p.add_argument("--axiom", required=True, choices=AXIOM_NAMES)
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
    except MemoryError:
        # a crash must not exit 1, which means "the check failed"
        print("error: out of memory", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
