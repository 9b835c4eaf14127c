"""Property tests over generated expressions and morphism files.

Terms that are evaluated keep their dimensions at most 4 and token
sequences short.  The :data:`cpcat.dsl.MAX_ENTRIES` budget refuses any
intermediate past 2**26 entries, but one inside it may still hold 1 GiB,
so larger sizes would test the host's memory rather than the language.
A sequence of at most 10 tokens builds at most 2**20 complex entries
(``swap 4 4 ox swap 4 4 ox id 4``), 16 MB, and the comparison with the
reference evaluator lowers the budget to :data:`SMALL_BUDGET`, so that
refusals past it are common and nothing large is built.  ``check_term``
builds nothing but literals, so the terms it alone types take dimensions
up to 10**4, with no such cap.  Generated ``.mor`` records hold at most
5 x 5 entries.
"""

import contextlib
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from cpcat import (BOOLEAN, SEMIRINGS, Mor, Obj, cap, cli, conj_star, cup,
                   dsl, identity, parse_expr, print_term, swap, tensor)
from cpcat.dsl import (BUILTINS, KEYWORDS, UNARY, Binary, Builtin, MatrixLit,
                       NameRef, Unary, check_term, eval_term)
from cpcat.errors import (CpcatError, DslTypeError, InvalidArgument,
                          MissingFactorSplit, UnknownIdentifier)

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=200)

DIMS = st.integers(1, 4)
SCALARS = st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                             allow_infinity=False)
NAMES = st.text("abiox_1", min_size=1, max_size=4).filter(
    lambda s: not s[0].isdigit() and s not in KEYWORDS and s != "i")


def _matrix(rows, cols, scalars):
    return st.lists(st.lists(scalars, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda r: MatrixLit(0, 0, tuple(tuple(row) for row in r)))


def _builtin(op):
    arity = BUILTINS[op].arity
    return st.lists(DIMS, min_size=arity, max_size=arity).map(
        lambda dims: Builtin(0, 0, op, tuple(dims)))


def _terms(names, scalars):
    """Terms over every operator, with names drawn from ``names``.

    Operators come from the language's own table, so a newly declared
    one is generated too.
    """
    leaves = st.one_of(
        st.sampled_from(list(BUILTINS)).flatmap(_builtin),
        st.builds(lambda name: NameRef(0, 0, name), names),
        st.tuples(DIMS, DIMS).flatmap(lambda rc: _matrix(*rc, scalars)),
    )
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(lambda op, t: Unary(0, 0, op, t),
                  st.sampled_from(list(UNARY)), sub),
        st.builds(lambda op, l, r: Binary(0, 0, op, l, r),
                  st.sampled_from(["seq", "ox"]), sub, sub)), max_leaves=8)


TERMS = _terms(NAMES, SCALARS)


@SETTINGS
@given(TERMS)
def test_printed_terms_reparse_to_themselves(term):
    assert parse_expr(print_term(term)) == term


# The evaluator as it stood before the type pass, kept as the oracle of
# ``check_term`` and ``eval_term``: it checks each subterm as it builds it, so
# its first error is the one evaluation meets first.
ORACLE_TYPES = {"id": lambda n: (n, n), "swap": lambda n, m: (n * m, n * m),
                "cup": lambda n: (1, n * n), "cap": lambda n: (n * n, 1),
                "discard": lambda n: (n, 1)}
ORACLE_BUILTINS = {
    "id": identity, "swap": swap, "cup": cup, "cap": cap,
    "discard": lambda n, sem: Mor(Obj(n), Obj(), np.ones((1, n)), sem)}
ORACLE_UNARY = {"dagger": Mor.dagger, "conj": Mor.conjugate,
                "star": conj_star}


def oracle_quote(node) -> str:
    text = print_term(node)
    if len(text) > dsl.QUOTE_MAX:
        half = (dsl.QUOTE_MAX - 5) // 2
        text = f"{text[:half]} ... {text[-half:]}"
    return repr(text)


def oracle_builtin_uses(t) -> dict:
    uses, stack = {}, [t]
    while stack:
        node = stack.pop()
        if isinstance(node, Binary):
            stack += (node.left, node.right)
        elif isinstance(node, Unary):
            stack.append(node.sub)
        elif isinstance(node, Builtin):
            uses[node] = uses.get(node, 0) + 1
    return uses


def oracle_eval(t, semiring, env) -> Mor:
    uses = oracle_builtin_uses(t)
    held = {}

    def fail(node, msg):
        raise DslTypeError(f"{msg} in {oracle_quote(node)}", node.line,
                           node.col)

    def budget(node, entries):
        if entries > dsl.MAX_ENTRIES:
            fail(node, f"the result would have more than {dsl.MAX_ENTRIES} "
                       "entries")

    def go(node):
        if isinstance(node, MatrixLit):
            arr = np.array(node.rows, dtype=np.complex128)
            try:
                return Mor(Obj(arr.shape[1]), Obj(arr.shape[0]), arr, semiring)
            except InvalidArgument as exc:
                fail(node, str(exc))
        if isinstance(node, Builtin):
            rest = uses[node] = uses[node] - 1
            mor = held.get(node) if rest else held.pop(node, None)
            if mor is None:
                dom, cod = ORACLE_TYPES[node.op](*node.dims)
                budget(node, dom * cod)
                mor = ORACLE_BUILTINS[node.op](*node.dims, semiring)
                if rest:
                    held[node] = mor
            return mor
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
            try:
                return ORACLE_UNARY[node.op](sub)
            except MissingFactorSplit as exc:
                fail(node, str(exc))
        spine = []
        while isinstance(node, Binary):
            spine.append(node)
            node = node.left
        left = go(node)
        for node in reversed(spine):
            right = go(node.right)
            if node.op == "ox":
                budget(node, left.array.size * right.array.size)
                left = tensor(left, right)
                continue
            if left.cod.dim != right.dom.dim:
                fail(node, f"cannot compose {left.cod.dim} into "
                           f"{right.dom.dim}")
            budget(node, left.dom.dim * right.cod.dim)
            left = left.then(right)
        return left

    with np.errstate(over="ignore", invalid="ignore"):
        result = go(t)
    if not np.isfinite(result.array).all():
        raise InvalidArgument("the result has non-finite entries")
    return result


def outcome(f, *args):
    """What ``f(*args)`` gives: its value, or its error's class and text."""
    try:
        return f(*args)
    except CpcatError as exc:
        return type(exc), str(exc)


def bits(m: Mor) -> tuple:
    return (m.semiring, m.dom.factors, m.cod.factors, m.array.dtype,
            m.array.shape, m.array.tobytes())


# Names bound in each instance, with one- and two-factor codomains, and
# one name bound in neither
ORACLE_ENV = {
    "a": Mor(Obj(2), Obj(2, 2), np.arange(8).reshape(4, 2) * (0.5 - 0.25j)),
    "b": Mor(Obj(3), Obj(1, 3), np.eye(3), BOOLEAN),
    "o": Mor(Obj(), Obj(4), [[1j], [0], [2], [-1]]),
    "x": Mor(Obj(2, 2), Obj(4), np.eye(4)[[1, 0, 3, 2]], BOOLEAN),
}
# Literal entries are mostly ones a boolean holds; 1e300 overflows in a
# product or a tensor with itself
ORACLE_TERMS = _terms(st.sampled_from([*ORACLE_ENV, "u"]), st.sampled_from(
    [0j, 1 + 0j, 0j, 1 + 0j, -0.5 + 2j, 1e300 + 0j]))
# so small that refusals past it are common, and that two subterms inside
# it often compose or tensor to one past it
SMALL_BUDGET = 16


@SETTINGS
@given(ORACLE_TERMS, st.sampled_from(tuple(SEMIRINGS.values())))
def test_eval_and_infer_match_the_evaluator_that_checked_as_it_built(
        term, semiring):
    with mock.patch.object(dsl, "MAX_ENTRIES", SMALL_BUDGET):
        want = outcome(oracle_eval, term, semiring, ORACLE_ENV)
        got = outcome(eval_term, term, semiring, ORACLE_ENV)
        typed = outcome(check_term, term, semiring, ORACLE_ENV)[:2]
    if isinstance(want, Mor):
        assert isinstance(got, Mor) and bits(got) == bits(want)
        assert typed == (want.dom, want.cod)
    else:
        assert got == want
        if want[1] != "the result has non-finite entries":
            assert typed == want


# Builtins with dimensions up to 10**4, each with the factors of its
# domain and codomain, as the language documents them
BIG_DIMS = st.integers(1, 10**4)
DOCUMENTED_TYPES = {"id": lambda n: ((n,), (n,)),
                    "swap": lambda n, m: ((n, m), (m, n)),
                    "cup": lambda n: ((), (n, n)), "cap": lambda n: ((n, n), ()),
                    "discard": lambda n: ((n,), ())}


def _entries(dom, cod) -> int:
    return math.prod(dom) * math.prod(cod)


def _typed_builtin(op):
    """``(term, dom, cod, largest)``: ``largest`` is the most entries of
    any builtin, tensor or composite in the term."""
    arity = BUILTINS[op].arity

    def typed(dims):
        dom, cod = DOCUMENTED_TYPES[op](*dims)
        return Builtin(0, 0, op, tuple(dims)), dom, cod, _entries(dom, cod)
    return st.lists(BIG_DIMS, min_size=arity, max_size=arity).map(typed)


def _typed_unary(op, case):
    term, dom, cod, largest = case
    if op == "star" and len(cod) != 2:
        op = "dagger"
    dom, cod = {"dagger": (cod, dom), "conj": (dom, cod),
                "star": (dom, cod[::-1])}[op]
    return Unary(0, 0, op, term), dom, cod, largest


def _typed_ox(left, right):
    dom, cod = left[1] + right[1], left[2] + right[2]
    return (Binary(0, 0, "ox", left[0], right[0]), dom, cod,
            max(left[3], right[3], _entries(dom, cod)))


def _typed_seq(case, op):
    # the builtin after ";" takes the codomain's total dimension
    term, dom, cod, largest = case
    d = math.prod(cod)
    after, (mid, cod) = Builtin(0, 0, op, (d,)), DOCUMENTED_TYPES[op](d)
    return (Binary(0, 0, "seq", term, after), dom, cod,
            max(largest, _entries(mid, cod), _entries(dom, cod)))


TYPED_TERMS = st.recursive(
    st.sampled_from(list(BUILTINS)).flatmap(_typed_builtin),
    lambda sub: st.one_of(
        st.builds(_typed_unary, st.sampled_from(list(UNARY)), sub),
        st.builds(_typed_ox, sub, sub),
        st.builds(_typed_seq, sub, st.sampled_from(["id", "discard"]))),
    max_leaves=8)


@SETTINGS
@given(TYPED_TERMS, st.sampled_from(tuple(SEMIRINGS.values())))
def test_infer_types_any_term_or_refuses_it_past_the_budget_unbuilt(
        case, semiring):
    term, dom, cod, largest = case
    tracemalloc.start()
    try:
        got = outcome(check_term, term, semiring)[:2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if largest <= dsl.MAX_ENTRIES:
        assert got == (Obj(*dom), Obj(*cod))
    else:
        assert got[0] is DslTypeError
        assert f"would have more than {dsl.MAX_ENTRIES} entries" in got[1]
    assert peak < 2**20


# sorted: set order changes with string hashing, and the examples must not
TOKENS = st.sampled_from(sorted(KEYWORDS) + [
    "x", "1", "2", "3", "4", "0", "-1", "0.5", "2i", "1e300",
    ";", ",", ":", "*", "=", "->", "(", ")", "[", "]", "#"])


@SETTINGS
@given(st.lists(TOKENS, min_size=1, max_size=10))
def test_eval_of_any_token_sequence_exits_with_a_documented_code(tokens):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # "--" keeps argparse from reading a leading "->" as an option
        code = cli.main(["eval", "--", " ".join(tokens)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# Entries of a .mor record: numbers of every JSON kind, the non-finite
# values Python's json module reads and writes, and things that are no
# number at all.
VALUES = st.one_of(
    st.floats(-10, 10), st.integers(-1, 2), st.booleans(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308,
                     10 ** 400]),
    st.none(), st.text(max_size=2))
NUMBER_PAIRS = st.lists(st.floats(-10, 10), min_size=2, max_size=2)
PAIRS = st.one_of(NUMBER_PAIRS, st.lists(VALUES, max_size=3), VALUES)
FACTORS = st.one_of(st.lists(st.integers(1, 2), min_size=2, max_size=2),
                    st.lists(st.one_of(st.integers(-1, 4), VALUES),
                             max_size=3),
                    VALUES)


@st.composite
def morfile_records(draw):
    """A Choi-shaped record, corrupted in some of its fields."""
    a, b = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n = a * b
    kind = draw(st.sampled_from(["identity", "numbers", "mixed"]))
    if kind == "identity":
        # the identity channel's Choi matrix: Hermitian and CP
        entries = [[[float(i % (b + 1) == 0 and j % (b + 1) == 0), 0.0]
                    for j in range(n)] for i in range(n)]
    elif kind == "numbers":
        row = st.lists(NUMBER_PAIRS, min_size=n, max_size=n)
        entries = draw(st.lists(row, min_size=n, max_size=n))
    else:
        # ragged or wrong-sized rows of anything
        width = st.integers(max(n - 1, 0), n + 1)
        entries = [draw(st.lists(PAIRS, min_size=w, max_size=w))
                   for w in (draw(width) for _ in range(draw(width)))]
    record = {"dom": [a, b], "cod": [a, b], "semiring": "complex",
              "entries": entries}
    for key, values in (("dom", FACTORS), ("cod", FACTORS),
                        ("semiring", st.one_of(
                            st.sampled_from(["bool", "real"]), VALUES)),
                        ("entries", st.lists(st.lists(VALUES, max_size=n),
                                             max_size=n))):
        corruption = draw(st.sampled_from(["keep"] * 4 + ["replace",
                                                          "drop"]))
        if corruption == "replace":
            record[key] = draw(values)
        elif corruption == "drop":
            del record[key]
    return draw(st.one_of(st.just(record), st.just(record),
                          st.just(record), VALUES, st.lists(VALUES)))


@SETTINGS
@given(morfile_records())
def test_check_cp_of_any_morfile_exits_with_a_documented_code(
        tmp_path_factory, record):
    # dilate reads the same Choi files and adds the Kraus factor's refusal
    path = tmp_path_factory.getbasetemp() / "fuzz.mor"
    path.write_text(json.dumps(record), encoding="utf-8")
    for command in ("check-cp", "dilate"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, str(path)])
        assert code in (0, 1, 2), command
