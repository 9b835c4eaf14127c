"""Property tests over generated expressions.

Generated dimensions stay at most 4 and token sequences short: the
language has no size budget yet, and ``id n`` alone allocates 16·n²
bytes, so unbounded sizes could exhaust memory rather than test
anything.  A sequence of at most 10 tokens builds at most 2**20
complex entries (``swap 4 4 ox swap 4 4 ox id 4``), 16 MB.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from cpcat import cli, parse_expr, print_term
from cpcat.dsl import KEYWORDS, Binary, Builtin, MatrixLit, NameRef, Unary

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


LEAVES = st.one_of(
    st.builds(lambda n: Builtin(0, 0, "id", (n,)), DIMS),
    st.builds(lambda n, m: Builtin(0, 0, "swap", (n, m)), DIMS, DIMS),
    st.builds(lambda op, n: Builtin(0, 0, op, (n,)),
              st.sampled_from(["cup", "cap", "discard"]), DIMS),
    st.builds(lambda name: NameRef(0, 0, name), NAMES),
    st.tuples(DIMS, DIMS).flatmap(lambda rc: _matrix(*rc)),
)

TERMS = st.recursive(LEAVES, lambda sub: st.one_of(
    st.builds(lambda op, t: Unary(0, 0, op, t),
              st.sampled_from(["dagger", "conj", "star"]), sub),
    st.builds(lambda op, l, r: Binary(0, 0, op, l, r),
              st.sampled_from(["seq", "ox"]), sub, sub)), max_leaves=8)


@SETTINGS
@given(TERMS)
def test_printed_terms_reparse_to_themselves(term):
    assert parse_expr(print_term(term)) == term


TOKENS = st.sampled_from([
    "id", "swap", "cup", "cap", "discard", "dagger", "conj", "star", "ox",
    "mor", "eq", "eval", "x", "1", "2", "3", "4", "0", "-1", "0.5", "2i",
    "1e300", ";", ",", ":", "*", "=", "->", "(", ")", "[", "]", "#"])


@SETTINGS
@given(st.lists(TOKENS, min_size=1, max_size=10))
def test_eval_of_any_token_sequence_exits_with_a_documented_code(tokens):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # "--" keeps argparse from reading a leading "->" as an option
        code = cli.main(["eval", "--", " ".join(tokens)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
