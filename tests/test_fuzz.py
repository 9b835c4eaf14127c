"""Property tests over generated expressions and morphism files.

Generated dimensions stay at most 4 and token sequences short: the
language has no size budget yet, and ``id n`` alone allocates 16·n²
bytes, so unbounded sizes could exhaust memory rather than test
anything.  A sequence of at most 10 tokens builds at most 2**20
complex entries (``swap 4 4 ox swap 4 4 ox id 4``), 16 MB.  Generated
``.mor`` records hold at most 5 x 5 entries.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from cpcat import cli, parse_expr, print_term
from cpcat.dsl import (BUILTINS, KEYWORDS, UNARY, Binary, Builtin, MatrixLit,
                       NameRef, Unary)

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=200)

DIMS = st.integers(1, 4)
SCALARS = st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                             allow_infinity=False)
NAMES = st.text("abiox_1", min_size=1, max_size=4).filter(
    lambda s: not s[0].isdigit() and s not in KEYWORDS and s != "i")


def _matrix(rows, cols):
    return st.lists(st.lists(SCALARS, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda r: MatrixLit(0, 0, tuple(tuple(row) for row in r)))


def _builtin(op):
    return st.lists(DIMS, min_size=BUILTINS[op], max_size=BUILTINS[op]).map(
        lambda dims: Builtin(0, 0, op, tuple(dims)))


# Operators come from the language's own table, so a newly declared one
# is generated too.
LEAVES = st.one_of(
    st.sampled_from(list(BUILTINS)).flatmap(_builtin),
    st.builds(lambda name: NameRef(0, 0, name), NAMES),
    st.tuples(DIMS, DIMS).flatmap(lambda rc: _matrix(*rc)),
)

TERMS = st.recursive(LEAVES, lambda sub: st.one_of(
    st.builds(lambda op, t: Unary(0, 0, op, t), st.sampled_from(UNARY), sub),
    st.builds(lambda op, l, r: Binary(0, 0, op, l, r),
              st.sampled_from(["seq", "ox"]), sub, sub)), max_leaves=8)


@SETTINGS
@given(TERMS)
def test_printed_terms_reparse_to_themselves(term):
    assert parse_expr(print_term(term)) == term


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
