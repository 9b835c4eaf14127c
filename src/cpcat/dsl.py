"""A small textual language for building morphisms, plus file I/O.

Scripts are sequences of bindings and checks::

    mor v : 2 -> 2*2 = [1, 0; 0, 0; 0, 0; 0, 1] ;
    eq (v ; dagger v), id 2 ;
    eval swap 2 3 ;

``;`` inside an expression is diagrammatic composition (first to last);
the same character also terminates statements, disambiguated by one
token of lookahead.  ``ox`` is the tensor.  Unary ``dagger``, ``conj``
and ``star`` bind tighter than ``ox``, which binds tighter than ``;``.
Builtins: ``id n``, ``swap n m``, ``cup n``, ``cap n`` and
``discard n`` (the all-ones effect ``n -> 1``).  Matrix literals list
rows separated by ``;`` with comma-separated entries; complex scalars
are written ``a+bi`` with either part optional, and ``#`` starts a
comment.  A binding's declared type must match the expression's total
dimensions and re-brackets its factors, which is how codomain splits
for ancillas are designated.  Chains of ``;`` and ``ox`` may be any
length; parentheses and prefix operators nest at most
:data:`MAX_NESTING` deep.

Morphism files are JSON with fields ``dom``, ``cod``, ``semiring`` and
row-major ``entries`` (two-element ``[re, im]`` arrays for complex,
``0``/``1`` for boolean); see :func:`read_morfile`.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (BOOLEAN, DEFAULT_TOL, Mor, Obj, SEMIRINGS, Semiring,
                   identity, max_abs_diff, swap, tensor)
from .errors import (DslSyntaxError, DslTypeError, InvalidArgument,
                     MissingFactorSplit, ShapeMismatch, UnknownIdentifier)
from .instances import cap, conj_star, cup

KEYWORDS = {"mor", "eq", "eval", "id", "swap", "cup", "cap", "discard",
            "dagger", "conj", "star", "ox"}


@dataclass(frozen=True)
class Token:
    kind: str          # keyword, name, scalar, punct, eof
    text: str
    value: complex
    line: int
    col: int


def _lex_number(src: str, k: int) -> tuple:
    """Scan one real literal starting at ``k``; returns (float, end).

    Raises ``ValueError`` when no digits are present (a stray dot).
    """
    n = len(src)
    j = k
    while j < n and (src[j].isdigit() or src[j] == "."):
        j += 1
    if j < n and src[j] in "eE":
        j2 = j + 1
        if j2 < n and src[j2] in "+-":
            j2 += 1
        if j2 < n and src[j2].isdigit():
            j = j2
            while j < n and src[j].isdigit():
                j += 1
    return float(src[k:j]), j


def tokenize(src: str) -> list:
    tokens = []
    line, col = 1, 1
    k, n = 0, len(src)

    def error(msg):
        raise DslSyntaxError(msg, line, col)

    while k < n:
        ch = src[k]
        if ch == "\n":
            line += 1
            col = 1
            k += 1
            continue
        if ch in " \t\r":
            k += 1
            col += 1
            continue
        if ch == "#":
            while k < n and src[k] != "\n":
                k += 1
            continue
        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            j = k
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[k:j]
            if word == "i":
                tokens.append(Token("scalar", word, 1j, start_line, start_col))
            elif word in KEYWORDS:
                tokens.append(Token("keyword", word, 0j, start_line, start_col))
            else:
                tokens.append(Token("name", word, 0j, start_line, start_col))
            col += j - k
            k = j
            continue
        if src.startswith("->", k):
            tokens.append(Token("punct", "->", 0j, start_line, start_col))
            k += 2
            col += 2
            continue
        if ch.isdigit() or ch in "+-.":
            # a scalar: [sign] [real] [(+|-) imag] [i]
            j = k
            sign = 1.0
            if src[j] in "+-":
                sign = -1.0 if src[j] == "-" else 1.0
                j += 1
                if j >= n or not (src[j].isdigit() or src[j] in ".i"):
                    error(f"stray {ch!r}")
            try:
                if j < n and src[j] == "i" and not (
                        j + 1 < n and (src[j + 1].isalnum() or src[j + 1] == "_")):
                    value = complex(0.0, sign)
                    j += 1
                else:
                    real, j = _lex_number(src, j)
                    if j < n and src[j] == "i":
                        value = complex(0.0, sign * real)
                        j += 1
                    else:
                        value = complex(sign * real, 0.0)
                        if j < n and src[j] in "+-":
                            isign = -1.0 if src[j] == "-" else 1.0
                            j2 = j + 1
                            if j2 < n and src[j2] == "i":
                                value += complex(0.0, isign)
                                j = j2 + 1
                            elif j2 < n and (src[j2].isdigit() or src[j2] == "."):
                                imag, j2 = _lex_number(src, j2)
                                if j2 < n and src[j2] == "i":
                                    value += complex(0.0, isign * imag)
                                    j = j2 + 1
                                # otherwise the sign starts the next token
            except ValueError:
                error(f"bad number starting at {ch!r}")
            if not cmath.isfinite(value):
                error(f"number {src[k:j]!r} is out of range")
            tokens.append(Token("scalar", src[k:j], value, start_line, start_col))
            col += j - k
            k = j
            continue
        if ch in ";:,*=()[]":
            tokens.append(Token("punct", ch, 0j, start_line, start_col))
            k += 1
            col += 1
            continue
        error(f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", 0j, line, col))
    return tokens


# Abstract syntax.  Positions are carried for diagnostics but excluded
# from equality so printed-and-reparsed terms compare structurally.

@dataclass(frozen=True)
class Term:
    line: int = field(compare=False)
    col: int = field(compare=False)


@dataclass(frozen=True)
class MatrixLit(Term):
    rows: tuple


@dataclass(frozen=True)
class Builtin(Term):
    op: str            # id, swap, cup, cap, discard
    dims: tuple


@dataclass(frozen=True)
class NameRef(Term):
    name: str


@dataclass(frozen=True)
class Unary(Term):
    op: str            # dagger, conj, star
    sub: Term


@dataclass(frozen=True)
class Binary(Term):
    op: str            # seq, ox
    left: Term
    right: Term


@dataclass(frozen=True)
class Binding:
    name: str
    dom: tuple
    cod: tuple
    expr: Term
    line: int = field(compare=False)
    col: int = field(compare=False)


@dataclass(frozen=True)
class EqCheck:
    left: Term
    right: Term
    line: int = field(compare=False)
    col: int = field(compare=False)


@dataclass(frozen=True)
class EvalCheck:
    expr: Term
    line: int = field(compare=False)
    col: int = field(compare=False)


_EXPR_START_KEYWORDS = {"id", "swap", "cup", "cap", "discard",
                        "dagger", "conj", "star"}

# Parentheses and prefix operators nest by recursion in the parser, the
# evaluator and the printer; this cap keeps all three far from Python's
# recursion limit.  Chains of ``;`` and ``ox`` are walked in loops.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens, known: Optional[set] = None):
        self.tokens = tokens
        self.k = 0
        self.known = known
        self.depth = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.k]

    def advance(self) -> Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def error(self, msg, tok=None):
        tok = tok or self.cur
        raise DslSyntaxError(msg, tok.line, tok.col)

    def expect(self, kind, text=None) -> Token:
        tok = self.cur
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            got = tok.text or "end of input"
            self.error(f"expected {want!r}, got {got!r}")
        return self.advance()

    def parse_int(self) -> int:
        tok = self.cur
        if tok.kind != "scalar" or tok.value.imag or tok.value.real < 0 \
                or tok.value.real != int(tok.value.real):
            self.error(f"expected a positive integer, got {tok.text!r}")
        self.advance()
        return int(tok.value.real)

    def parse_obj(self) -> tuple:
        dims = [self.parse_int()]
        while self.cur.kind == "punct" and self.cur.text == "*":
            self.advance()
            dims.append(self.parse_int())
        return tuple(dims)

    def parse_expr(self) -> Term:
        left = self.parse_tensor()
        # a ";" is never the last token, which is always "eof"
        while self.cur.kind == "punct" and self.cur.text == ";" \
                and self._starts_expr(self.tokens[self.k + 1]):
            semi = self.advance()
            right = self.parse_tensor()
            left = Binary(semi.line, semi.col, "seq", left, right)
        return left

    @staticmethod
    def _starts_expr(tok: Token) -> bool:
        if tok.kind == "name":
            return True
        if tok.kind == "punct" and tok.text in ("[", "("):
            return True
        return tok.kind == "keyword" and tok.text in _EXPR_START_KEYWORDS

    def parse_tensor(self) -> Term:
        left = self.parse_unary()
        while self.cur.kind == "keyword" and self.cur.text == "ox":
            op = self.advance()
            right = self.parse_unary()
            left = Binary(op.line, op.col, "ox", left, right)
        return left

    def parse_unary(self) -> Term:
        # every parenthesis and every prefix operator passes through here
        # once more, so ``depth`` counts how deeply they nest
        tok = self.cur
        if self.depth == MAX_NESTING:
            self.error(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        if tok.kind == "keyword" and tok.text in ("dagger", "conj", "star"):
            self.advance()
            term = Unary(tok.line, tok.col, tok.text, self.parse_unary())
        else:
            term = self.parse_atom()
        self.depth -= 1
        return term

    def parse_atom(self) -> Term:
        tok = self.cur
        if tok.kind == "keyword" and tok.text == "id":
            self.advance()
            return Builtin(tok.line, tok.col, "id", (self.parse_int(),))
        if tok.kind == "keyword" and tok.text == "swap":
            self.advance()
            return Builtin(tok.line, tok.col, "swap",
                           (self.parse_int(), self.parse_int()))
        if tok.kind == "keyword" and tok.text in ("cup", "cap", "discard"):
            self.advance()
            return Builtin(tok.line, tok.col, tok.text, (self.parse_int(),))
        if tok.kind == "name":
            self.advance()
            if self.known is not None and tok.text not in self.known:
                raise UnknownIdentifier(f"unknown name {tok.text!r}",
                                        tok.line, tok.col)
            return NameRef(tok.line, tok.col, tok.text)
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect("punct", ")")
            return inner
        if tok.kind == "punct" and tok.text == "[":
            return self.parse_matrix()
        self.error(f"expected an expression, got "
                   f"{tok.text!r}" if tok.text else
                   "expected an expression, got end of input")

    def parse_matrix(self) -> Term:
        open_tok = self.expect("punct", "[")
        rows = []
        while True:
            row = [self.parse_scalar()]
            while self.cur.kind == "punct" and self.cur.text == ",":
                self.advance()
                row.append(self.parse_scalar())
            rows.append(tuple(row))
            if self.cur.kind == "punct" and self.cur.text == ";":
                self.advance()
                continue
            self.expect("punct", "]")
            break
        if len({len(r) for r in rows}) != 1:
            self.error("ragged matrix literal", open_tok)
        return MatrixLit(open_tok.line, open_tok.col, tuple(rows))

    def parse_scalar(self) -> complex:
        tok = self.cur
        if tok.kind != "scalar":
            self.error(f"expected a scalar, got {tok.text or 'end of input'!r}")
        self.advance()
        return tok.value

    def parse_statement(self):
        tok = self.cur
        if tok.kind == "keyword" and tok.text == "mor":
            self.advance()
            name_tok = self.cur
            if name_tok.kind != "name":
                self.error("expected a fresh name after 'mor'")
            self.advance()
            self.expect("punct", ":")
            dom = self.parse_obj()
            self.expect("punct", "->")
            cod = self.parse_obj()
            self.expect("punct", "=")
            expr = self.parse_expr()
            self.expect("punct", ";")
            if self.known is not None:
                self.known.add(name_tok.text)
            return Binding(name_tok.text, dom, cod, expr,
                           tok.line, tok.col)
        if tok.kind == "keyword" and tok.text == "eq":
            self.advance()
            left = self.parse_expr()
            self.expect("punct", ",")
            right = self.parse_expr()
            self.expect("punct", ";")
            return EqCheck(left, right, tok.line, tok.col)
        if tok.kind == "keyword" and tok.text == "eval":
            self.advance()
            expr = self.parse_expr()
            self.expect("punct", ";")
            return EvalCheck(expr, tok.line, tok.col)
        self.error(f"expected 'mor', 'eq' or 'eval', got "
                   f"{tok.text or 'end of input'!r}")


def parse_script(src: str) -> list:
    """Parse a whole script; names must be bound before use."""
    parser = _Parser(tokenize(src), known=set())
    statements = []
    while parser.cur.kind != "eof":
        statements.append(parser.parse_statement())
    return statements


def parse_expr(src: str, known=None) -> Term:
    """Parse a single expression (CLI argument form)."""
    parser = _Parser(tokenize(src),
                     known=None if known is None else set(known))
    term = parser.parse_expr()
    if parser.cur.kind != "eof":
        parser.error(f"trailing input {parser.cur.text!r}")
    return term


def _fmt_scalar(z: complex) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return f"{re:.17g}"
    if re == 0:
        return f"{im:.17g}i"
    return f"{re:.17g}{im:+.17g}i"


_PREC = {"seq": 1, "ox": 2}


def print_term(t: Term, ctx: int = 0) -> str:
    """Render a term; reparsing the output reproduces the same AST."""
    if isinstance(t, MatrixLit):
        body = "; ".join(", ".join(_fmt_scalar(z) for z in row)
                         for row in t.rows)
        return f"[{body}]"
    if isinstance(t, Builtin):
        return " ".join([t.op] + [str(d) for d in t.dims])
    if isinstance(t, NameRef):
        return t.name
    if isinstance(t, Unary):
        return f"{t.op} {print_term(t.sub, 3)}"
    if isinstance(t, Binary):
        prec = _PREC[t.op]
        sep = " ; " if t.op == "seq" else " ox "
        rights = []
        while isinstance(t, Binary) and _PREC[t.op] == prec:
            rights.append(print_term(t.right, prec + 1))
            t = t.left
        body = sep.join([print_term(t, prec)] + rights[::-1])
        return f"({body})" if prec < ctx else body
    raise InvalidArgument(f"not a term: {t!r}")


def print_script(statements) -> str:
    lines = []
    for s in statements:
        if isinstance(s, Binding):
            dom = "*".join(str(d) for d in s.dom)
            cod = "*".join(str(d) for d in s.cod)
            lines.append(f"mor {s.name} : {dom} -> {cod} = "
                         f"{print_term(s.expr)} ;")
        elif isinstance(s, EqCheck):
            lines.append(f"eq {print_term(s.left)}, {print_term(s.right)} ;")
        elif isinstance(s, EvalCheck):
            lines.append(f"eval {print_term(s.expr)} ;")
        else:
            raise InvalidArgument(f"not a statement: {s!r}")
    return "\n".join(lines) + "\n"


def eval_term(t: Term, semiring: Semiring, env: Optional[dict] = None) -> Mor:
    """Structural evaluation; failures point at the offending subterm.

    A result with a non-finite entry (an overflow) raises
    :class:`InvalidArgument`.
    """
    env = env or {}

    def fail(node, msg):
        raise DslTypeError(f"{msg} in {print_term(node)!r}",
                           node.line, node.col)

    def go(node: Term) -> Mor:
        if isinstance(node, MatrixLit):
            arr = np.array(node.rows, dtype=np.complex128)
            if semiring is BOOLEAN:
                if arr.imag.any() or not np.isin(arr.real, (0.0, 1.0)).all():
                    fail(node, "boolean matrix entries must be 0 or 1")
                arr = arr.real.astype(np.bool_)
            return Mor(Obj(arr.shape[1]), Obj(arr.shape[0]), arr, semiring)
        if isinstance(node, Builtin):
            if node.op == "id":
                return identity(node.dims[0], semiring)
            if node.op == "swap":
                return swap(node.dims[0], node.dims[1], semiring)
            if node.op == "cup":
                return cup(node.dims[0], semiring)
            if node.op == "cap":
                return cap(node.dims[0], semiring)
            n = node.dims[0]
            return Mor(Obj(n), Obj(), np.ones((1, n)), semiring)
        if isinstance(node, NameRef):
            if node.name not in env:
                raise UnknownIdentifier(f"unknown name {node.name!r}",
                                        node.line, node.col)
            mor = env[node.name]
            if mor.semiring is not semiring:
                fail(node, f"{node.name!r} lives in {mor.semiring.name}, "
                           f"not {semiring.name}")
            return mor
        if isinstance(node, Unary):
            sub = go(node.sub)
            if node.op == "dagger":
                return sub.dagger()
            if node.op == "conj":
                return sub.conjugate()
            try:
                return conj_star(sub)
            except MissingFactorSplit as exc:
                fail(node, str(exc))
        if isinstance(node, Binary):
            spine = []
            while isinstance(node, Binary):
                spine.append(node)
                node = node.left
            left = go(node)
            for node in reversed(spine):
                right = go(node.right)
                if node.op == "ox":
                    left = tensor(left, right)
                    continue
                if left.cod.dim != right.dom.dim:
                    fail(node, f"cannot compose {left.cod.dim} into "
                               f"{right.dom.dim}")
                left = left.then(right)
            return left
        raise InvalidArgument(f"not a term: {node!r}")

    result = go(t)
    if not np.isfinite(result.array).all():
        raise InvalidArgument("the result has non-finite entries")
    return result


def eval_script(statements, semiring: Semiring,
                tol: float = DEFAULT_TOL) -> tuple:
    """Run bindings and checks; returns (env, list of check results).

    Each ``eq`` result is a dict with ``equal`` and ``max_abs_diff``;
    each ``eval`` result carries the morphism.  Binding declarations
    re-bracket the computed morphism to the declared factor lists and
    it is an error when total dimensions disagree.
    """
    env: dict = {}
    results = []
    for s in statements:
        if isinstance(s, Binding):
            mor = eval_term(s.expr, semiring, env)
            dom, cod = Obj(*s.dom), Obj(*s.cod)
            if (dom.dim, cod.dim) != (mor.dom.dim, mor.cod.dim):
                raise DslTypeError(
                    f"binding {s.name!r} declares "
                    f"{dom.dim} -> {cod.dim} but the expression has "
                    f"{mor.dom.dim} -> {mor.cod.dim}", s.line, s.col)
            env[s.name] = mor.retyped(dom, cod)
        elif isinstance(s, EqCheck):
            left = eval_term(s.left, semiring, env)
            right = eval_term(s.right, semiring, env)
            if (left.dom.dim, left.cod.dim) != (right.dom.dim, right.cod.dim):
                raise DslTypeError(
                    f"eq compares {left.dom.dim} -> {left.cod.dim} "
                    f"with {right.dom.dim} -> {right.cod.dim}",
                    s.line, s.col)
            dev = max_abs_diff(left, right)
            results.append({"kind": "eq", "equal": semiring.within(dev, tol),
                            "max_abs_diff": dev})
        else:
            results.append({"kind": "eval",
                            "mor": eval_term(s.expr, semiring, env)})
    return env, results


def mor_to_record(m: Mor) -> dict:
    if m.semiring is BOOLEAN:
        entries = [[int(v) for v in row] for row in m.array]
    else:
        entries = [[[float(v.real), float(v.imag)] for v in row]
                   for row in m.array]
    return {"dom": list(m.dom.factors), "cod": list(m.cod.factors),
            "semiring": m.semiring.name, "entries": entries}


def mor_from_record(rec: dict) -> Mor:
    try:
        semiring = SEMIRINGS[rec["semiring"]]
        dom = Obj(*rec["dom"])
        cod = Obj(*rec["cod"])
        raw = rec["entries"]
    except (KeyError, TypeError) as exc:
        raise InvalidArgument(f"malformed morphism record: {exc}") from None
    try:
        arr = np.array(raw, dtype=None if semiring is BOOLEAN else np.float64)
    except (ValueError, TypeError):
        raise ShapeMismatch(
            "entries must be a rectangular array of numbers") from None
    if semiring is not BOOLEAN:
        if arr.ndim != 3 or arr.shape[2] != 2:
            raise ShapeMismatch(
                "complex entries must be [re, im] pairs, got "
                f"shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidArgument("complex entries must be finite")
        arr = arr[:, :, 0] + 1j * arr[:, :, 1]
    return Mor(dom, cod, arr, semiring)


def write_morfile(m: Mor, path) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(mor_to_record(m), fp, indent=1)
        fp.write("\n")


def read_morfile(path) -> Mor:
    with open(path, "r", encoding="utf-8") as fp:
        try:
            rec = json.load(fp)
        except json.JSONDecodeError as exc:
            raise InvalidArgument(f"{path}: {exc}") from None
    return mor_from_record(rec)
