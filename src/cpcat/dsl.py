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
``discard n`` (the all-ones effect ``n -> 1``); :data:`BUILTINS` and
:data:`UNARY` are the operator table.  Matrix literals list rows
separated by ``;`` with comma-separated entries, and ``#`` starts a
comment.  A scalar is a real number (``2``, ``-0.5``, ``1e-3``), an
imaginary one (``2i``, ``i``, ``-i``), or a real and an imaginary part
joined by their sign (``3.5-2i``, ``2+i``); ``2-3`` is two scalars,
``2`` and ``-3``.  A dimension is any positive integral scalar, so
``id 2.0`` and ``id 1e1`` are accepted.  A binding's declared type must
match the expression's total dimensions and re-brackets its factors,
which is how codomain splits for ancillas are designated.  Chains of
``;`` and ``ox`` may be any length; parentheses and prefix operators
nest at most :data:`MAX_NESTING` deep.  No builtin, tensor or composite
may hold more than :data:`MAX_ENTRIES` entries.  :func:`check_term`
checks a term's types and that budget before anything but its literals
is built, in the order evaluation meets them, so the first error is the
one that building the term step by step would meet first.

Morphism files are JSON with fields ``dom``, ``cod``, ``semiring`` and
row-major ``entries`` (two-element ``[re, im]`` arrays for complex,
``0``/``1`` for boolean); see :func:`read_morfile`.
"""

from __future__ import annotations

import cmath
import re
from collections import namedtuple
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import (DEFAULT_TOL, Mor, Obj, SEMIRINGS, Semiring, UNIT,
                   identity, max_abs_diff, swap, tensor)
from .errors import (DslSyntaxError, DslTypeError, InvalidArgument,
                     MissingFactorSplit, ShapeMismatch, UnknownIdentifier)
from .instances import cap, conj_star, cup, star_split

# One operator of the language.  A builtin takes ``arity`` dimensions:
# ``type(*dims)`` is the ``(dom, cod)`` of what ``build(*dims, semiring)``
# builds.  A prefix operator takes one operand: ``type(dom, cod)`` maps
# the operand's type to its own, and ``build(mor)`` the operand to the
# result.
Op = namedtuple("Op", "arity type build")


def _discard(n: int, semiring: Semiring) -> Mor:
    """The all-ones effect ``n -> 1``."""
    return Mor(Obj(n), Obj(), np.ones((1, n)), semiring)


# The operator table, which the lexer, the parser, :func:`check_term` and
# :func:`build_term` read: the builtin morphisms and the prefix operators.
BUILTINS = {
    "id": Op(1, lambda n: 2 * (Obj(n),), identity),
    "swap": Op(2, lambda n, m: (Obj(n, m), Obj(m, n)), swap),
    "cup": Op(1, lambda n: (UNIT, Obj(n, n)), cup),
    "cap": Op(1, lambda n: (Obj(n, n), UNIT), cap),
    "discard": Op(1, lambda n: (Obj(n), UNIT), _discard),
}
UNARY = {
    "dagger": Op(1, lambda dom, cod: (cod, dom), Mor.dagger),
    "conj": Op(1, lambda dom, cod: (dom, cod), Mor.conjugate),
    "star": Op(1, lambda dom, cod: (dom, Obj(*star_split(cod)[::-1])),
               conj_star),
}
KEYWORDS = {"mor", "eq", "eval", "ox", *BUILTINS, *UNARY}


class Token(NamedTuple):
    kind: str          # keyword, name, scalar, punct, eof
    text: str
    value: complex
    line: int
    col: int


# One alternative per lexeme, each after any run of spaces, so that a
# token costs one match.  A comment runs to the end of its line and is
# read as part of the newline or the end of input that follows it; the
# end of input sits where a last comment starts.  A scalar is
# ``[sign] real [i | (+|-) [imag] i]`` or ``[sign] i``; ``tail`` looks
# past a real part at a signed number that is not imaginary, which
# starts the next token but must itself be well formed.  ``real``,
# ``imag`` and ``tail`` take every digit and dot, so ``0..5`` is one
# bad number rather than two numbers.
_NUM = r"[\d.]+(?:[eE][+-]?\d+)?"
_TOKEN = re.compile(rf"""[ \t\r]*(?:
    (?P<word>[^\W\d]\w*)
  | (?P<punct>->|[;:,*=()\[\]])
  | (?P<scalar>(?P<sign>[+-])?
        (?:(?P<real>{_NUM})
           (?:(?P<imaginary>i)|(?P<isign>[+-])(?P<imag>{_NUM})?i
             |(?=[+-](?P<tail>{_NUM})))?
          |i(?!\w)))
  | (?P<newline>(?:\#[^\n]*)?\n)
  | (?P<end>(?:\#[^\n]*)?\Z)
  | (?P<error>.))
""", re.VERBOSE)


def _scalar_value(m) -> complex:
    """The value of a scalar match; ``ValueError`` for a malformed number."""
    sign, real, imaginary, isign, imag, tail = m.group(
        "sign", "real", "imaginary", "isign", "imag", "tail")
    sign = -1.0 if sign == "-" else 1.0
    if real is None:
        return complex(0.0, sign)
    real = sign * float(real)
    if imaginary:
        return complex(0.0, real)
    value = complex(real, 0.0)
    if isign:
        imag = float(imag) if imag else 1.0
        value += complex(0.0, -imag if isign == "-" else imag)
    elif tail:
        float(tail)            # the number that follows must be well formed
    return value


def tokenize(src: str) -> list:
    tokens = []
    # tuple.__new__ skips the Python-level __new__ of a NamedTuple
    new = tuple.__new__
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        text = m[kind]
        col = m.start(kind) - line_start + 1
        if kind == "word":
            if text == "i":
                tokens.append(new(Token, ("scalar", text, 1j, line, col)))
            elif text in KEYWORDS:
                tokens.append(new(Token, ("keyword", text, 0j, line, col)))
            elif text[0].isalpha() or text[0] == "_":
                tokens.append(new(Token, ("name", text, 0j, line, col)))
            else:
                # a numeral such as "½" is a word character but no letter
                raise DslSyntaxError(f"unexpected character {text[0]!r}",
                                     line, col)
        elif kind == "punct":
            tokens.append(new(Token, ("punct", text, 0j, line, col)))
        elif kind == "scalar":
            try:
                value = _scalar_value(m)
            except ValueError:
                raise DslSyntaxError(f"bad number starting at {text[0]!r}",
                                     line, col) from None
            if not cmath.isfinite(value):
                raise DslSyntaxError(f"number {text!r} is out of range",
                                     line, col)
            tokens.append(new(Token, ("scalar", text, value, line, col)))
        elif kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "end":
            tokens.append(new(Token, ("eof", "", 0j, line, col)))
            break
        elif text not in "+-":
            raise DslSyntaxError(f"unexpected character {text!r}", line, col)
        elif src.startswith("i", m.end()):
            # a sign before a name that starts with "i", as in "-ix"
            raise DslSyntaxError(f"bad number starting at {text!r}", line, col)
        else:
            raise DslSyntaxError(f"stray {text!r}", line, col)
    return tokens


# Abstract syntax.  Positions are carried for diagnostics but excluded
# from equality so printed-and-reparsed terms compare structurally.

@dataclass(frozen=True)
class Node:
    line: int = field(compare=False)
    col: int = field(compare=False)


class Term(Node):
    """An expression."""


class Statement(Node):
    """A binding or a check, one statement of a script."""


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
class Binding(Statement):
    name: str
    dom: tuple
    cod: tuple
    expr: Term


@dataclass(frozen=True)
class EqCheck(Statement):
    left: Term
    right: Term


@dataclass(frozen=True)
class EvalCheck(Statement):
    expr: Term

# Parentheses and prefix operators nest by recursion in the parser and
# the printer; this cap keeps both far from Python's recursion limit.
# Chains of ``;`` and ``ox`` are walked in loops, and :func:`check_term`
# and :func:`build_term` walk every term with a stack of their own.
MAX_NESTING = 100
# The most entries any intermediate of an evaluation may hold: 1 GiB of
# complex128.  A larger one is refused before it is allocated.
MAX_ENTRIES = 2**26


class _Parser:
    def __init__(self, tokens, known: Optional[set] = None):
        self.tokens = tokens
        self.k = 0
        self.cur = tokens[0]   # always tokens[k]
        self.known = known
        self.depth = 0

    def advance(self) -> Token:
        # never called at the last token, "eof", which no rule consumes
        tok = self.cur
        self.k += 1
        self.cur = self.tokens[self.k]
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
        if tok.kind != "scalar" or tok.value.imag or tok.value.real < 1 \
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
        if tok.kind == "keyword":
            return tok.text in BUILTINS or tok.text in UNARY
        return tok.kind == "name" or (tok.kind == "punct"
                                      and tok.text in ("[", "("))

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
        if tok.kind == "keyword" and tok.text in UNARY:
            self.advance()
            term = Unary(tok.line, tok.col, tok.text, self.parse_unary())
        else:
            term = self.parse_atom()
        self.depth -= 1
        return term

    def parse_atom(self) -> Term:
        tok = self.cur
        if tok.kind == "keyword" and tok.text in BUILTINS:
            self.advance()
            return Builtin(tok.line, tok.col, tok.text, tuple(
                [self.parse_int() for _ in range(BUILTINS[tok.text].arity)]))
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
            return Binding(tok.line, tok.col, name_tok.text, dom, cod, expr)
        if tok.kind == "keyword" and tok.text == "eq":
            self.advance()
            left = self.parse_expr()
            self.expect("punct", ",")
            right = self.parse_expr()
            self.expect("punct", ";")
            return EqCheck(tok.line, tok.col, left, right)
        if tok.kind == "keyword" and tok.text == "eval":
            self.advance()
            expr = self.parse_expr()
            self.expect("punct", ";")
            return EvalCheck(tok.line, tok.col, expr)
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


# Longest subterm a type error quotes whole; longer ones keep both ends.
QUOTE_MAX = 120


def _fail(node: Term, msg: str):
    """Raise a type error at ``node`` that quotes it, shortened past
    :data:`QUOTE_MAX` characters."""
    text = print_term(node)
    if len(text) > QUOTE_MAX:
        half = (QUOTE_MAX - 5) // 2
        text = f"{text[:half]} ... {text[-half:]}"
    raise DslTypeError(f"{msg} in {text!r}", node.line, node.col)


class Checked(NamedTuple):
    """A term :func:`check_term` checked: its type, and what
    :func:`build_term` builds it from in ``semiring``."""
    dom: Obj
    cod: Obj
    order: list        # the nodes, names and literals replaced by morphisms
    last: dict         # each builtin's last position in ``order``
    semiring: Semiring


def check_term(t: Term, semiring: Semiring,
               env: Optional[dict] = None) -> Checked:
    """``t`` checked without building it: its type, its nodes in
    evaluation order and where each builtin last occurs among them.

    Every check of :func:`eval_term` is made here, in the order in which
    evaluation meets it, so the first error is the one evaluation would
    raise: a literal's entries must be ones the instance holds, a name
    must be bound in ``env`` to a morphism of the instance, ``star``'s
    operand must have a two-factor codomain, the two sides of ``;`` must
    meet, and no builtin, tensor or composite may hold more than
    :data:`MAX_ENTRIES` entries.  A type error quotes the subterm,
    shortened past :data:`QUOTE_MAX` characters.  Only literals are
    built, which the source text bounds; ``check_term(t, ...)[:2]`` is
    the ``(dom, cod)`` of ``t``.

    The nodes come each after its operands, the left operand first; the
    walk keeps its own stack, since chains of ``;`` and ``ox`` may be any
    length.  Each name and literal among them is replaced by its
    morphism: a literal is checked by building it.  Builtins are keyed by
    ``(op, dims)``, so equal builtins at different places share one key,
    and each is typed once.
    """
    env = env or {}
    order, stack = [], [t]
    while stack:
        node = stack.pop()
        order.append(node)
        if isinstance(node, Binary):
            stack += (node.left, node.right)
        elif isinstance(node, Unary):
            stack.append(node.sub)
    order.reverse()
    last, typed, types = {}, {}, []
    for k, node in enumerate(order):
        kind = type(node)
        if kind is Binary:
            dom, cod = types.pop()
            left_dom, left_cod = types.pop()
            if node.op == "ox":
                dom, cod = left_dom.tensor(dom), left_cod.tensor(cod)
            elif left_cod.dim == dom.dim:
                dom = left_dom
            else:
                _fail(node, f"cannot compose {left_cod.dim} into {dom.dim}")
        elif kind is Builtin:
            key = node.op, node.dims
            if key not in typed:
                typed[key] = BUILTINS[node.op].type(*node.dims)
            last[key] = k
            dom, cod = typed[key]
        elif kind is Unary:
            try:
                types[-1] = UNARY[node.op].type(*types[-1])
            except MissingFactorSplit as exc:
                _fail(node, str(exc))
            continue
        elif kind is NameRef:
            if node.name not in env:
                raise UnknownIdentifier(f"unknown name {node.name!r}",
                                        node.line, node.col)
            mor = env[node.name]
            if mor.semiring is not semiring:
                _fail(node, f"{node.name!r} lives in {mor.semiring.name}, "
                            f"not {semiring.name}")
        elif kind is MatrixLit:
            try:
                mor = Mor(Obj(len(node.rows[0])), Obj(len(node.rows)),
                          node.rows, semiring)
            except InvalidArgument as exc:
                # entries the instance does not hold
                _fail(node, str(exc))
        else:
            raise InvalidArgument(f"not a term: {node!r}")
        if kind is NameRef or kind is MatrixLit:
            order[k] = mor
            dom, cod = mor.dom, mor.cod
        elif dom.dim * cod.dim > MAX_ENTRIES:
            # a builtin, tensor or composite is refused before it is built
            _fail(node, f"the result would have more than {MAX_ENTRIES} "
                        "entries")
        types.append((dom, cod))
    return Checked(*types[0], order, last, semiring)


def eval_term(t: Term, semiring: Semiring, env: Optional[dict] = None) -> Mor:
    """Structural evaluation; failures point at the offending subterm.

    It is :func:`build_term` of :func:`check_term`, which builds nothing
    but the term's literals, so a term past the :data:`MAX_ENTRIES`
    budget allocates nothing.
    """
    return build_term(check_term(t, semiring, env))


def build_term(checked: Checked) -> Mor:
    """The morphism of a term :func:`check_term` checked.

    A result with a non-finite entry (an overflow) raises
    :class:`InvalidArgument`; numpy's overflow warnings are silenced,
    since that error reports them.

    A builtin that occurs more than once in the term is built at its
    first occurrence, and that morphism serves every later one.  It is
    held only until its last occurrence, so a builtin that occurs once
    is never held, and nothing is kept between calls.
    """
    last, semiring = checked.last, checked.semiring
    held, stack = {}, []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, node in enumerate(checked.order):
            kind = type(node)
            if kind is Binary:
                right = stack.pop()
                stack[-1] = (tensor(stack[-1], right) if node.op == "ox"
                             else stack[-1].then(right))
            elif kind is Unary:
                stack[-1] = UNARY[node.op].build(stack[-1])
            elif kind is Builtin:
                key = node.op, node.dims
                if key not in held:
                    held[key] = BUILTINS[node.op].build(*node.dims, semiring)
                stack.append(held.pop(key) if last[key] == k else held[key])
            else:
                stack.append(node)     # a name's or a literal's morphism
    if not np.isfinite(stack[0].array).all():
        raise InvalidArgument("the result has non-finite entries")
    return stack[0]


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
            # typed against its declaration before it is built
            checked = check_term(s.expr, semiring, env)
            dom, cod = Obj(*s.dom), Obj(*s.cod)
            if (dom.dim, cod.dim) != (checked.dom.dim, checked.cod.dim):
                raise DslTypeError(
                    f"binding {s.name!r} declares "
                    f"{dom.dim} -> {cod.dim} but the expression has "
                    f"{checked.dom.dim} -> {checked.cod.dim}", s.line, s.col)
            env[s.name] = build_term(checked).retyped(dom, cod)
        elif isinstance(s, EqCheck):
            # both sides are typed before either is built
            left = check_term(s.left, semiring, env)
            right = check_term(s.right, semiring, env)
            if (left.dom.dim, left.cod.dim) != (right.dom.dim, right.cod.dim):
                raise DslTypeError(
                    f"eq compares {left.dom.dim} -> {left.cod.dim} "
                    f"with {right.dom.dim} -> {right.cod.dim}",
                    s.line, s.col)
            dev = max_abs_diff(build_term(left), build_term(right))
            results.append({"kind": "eq", "equal": semiring.within(dev, tol),
                            "max_abs_diff": dev})
        else:
            results.append({"kind": "eval",
                            "mor": eval_term(s.expr, semiring, env)})
    return env, results


def mor_to_record(m: Mor) -> dict:
    return {"dom": list(m.dom.factors), "cod": list(m.cod.factors),
            "semiring": m.semiring.name,
            "entries": m.semiring.to_record(m.array)}


def mor_from_record(rec: dict) -> Mor:
    try:
        semiring = SEMIRINGS[rec["semiring"]]
        # JSON's true reads as True, an int that Obj would take for 1
        if bool in map(type, [*rec["dom"], *rec["cod"]]):
            raise InvalidArgument("factor dimensions must be integers")
        dom = Obj(*rec["dom"])
        cod = Obj(*rec["cod"])
        raw = rec["entries"]
    except (KeyError, TypeError) as exc:
        raise InvalidArgument(f"malformed morphism record: {exc}") from None
    try:
        arr = semiring.from_record(raw)
    except (ValueError, TypeError, OverflowError):
        raise ShapeMismatch(
            "entries must be a rectangular array of numbers") from None
    return Mor(dom, cod, arr, semiring)


def write_morfile(m: Mor, path) -> None:
    # json loads here: only the commands that read or write files use it
    import json

    with open(path, "w", encoding="utf-8") as fp:
        json.dump(mor_to_record(m), fp, indent=1)
        fp.write("\n")


def read_text(path) -> str:
    """The text of the UTF-8 file ``path``.

    Newlines read as in text mode: ``\\r\\n`` and ``\\r`` become ``\\n``.
    Bytes that are not UTF-8 raise :class:`InvalidArgument` naming the
    path and the offset of the first bad byte.
    """
    with open(path, "rb") as fp:
        data = fp.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidArgument(f"{path}: not UTF-8 text: byte "
                              f"{data[exc.start]:#04x} at offset "
                              f"{exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_morfile(path) -> Mor:
    import json

    text = read_text(path)
    try:
        rec = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidArgument(f"{path}: {exc}") from None
    return mor_from_record(rec)
