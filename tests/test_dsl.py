"""Lexer, parser, printer, evaluator, and the morphism file format."""

import weakref

import numpy as np
import pytest

from cpcat import (BOOLEAN, COMPLEX, Mor, Obj, cap, cup, dsl, eval_script,
                   eval_term, parse_expr, parse_script, print_script,
                   print_term, read_morfile, swap, tokenize, write_morfile)
from cpcat.errors import (DslSyntaxError, DslTypeError, InvalidArgument,
                          ShapeMismatch, UnknownIdentifier)


def test_tokenize_positions_are_one_based():
    toks = tokenize("id 2 ;\n eq")
    assert [(t.kind, t.text, t.line, t.col) for t in toks] == [
        ("keyword", "id", 1, 1), ("scalar", "2", 1, 4),
        ("punct", ";", 1, 6), ("keyword", "eq", 2, 2),
        ("eof", "", 2, 4)]


def test_tokenize_number_forms():
    values = {src: tokenize(src)[0].value for src in
              ["2", "-0.5", "1e-3", "2i", "i", "3.5-2i"]}
    assert values["2"] == 2.0
    assert values["-0.5"] == -0.5
    assert values["1e-3"] == 1e-3
    assert values["2i"] == 2j
    assert values["i"] == 1j
    assert values["3.5-2i"] == 3.5 - 2j


def test_tokenize_skips_comments():
    toks = tokenize("# heading\nid 2 # trailing\n")
    assert [t.text for t in toks] == ["id", "2", ""]
    assert toks[0].line == 2


def test_tokenize_rejects_bad_numbers():
    with pytest.raises(DslSyntaxError) as err:
        tokenize("0..5")
    assert "line 1, col 1" in str(err.value)


def _scalar(text, value, col=1):
    return ("scalar", text, value, 1, col)


def _eof(col, line=1):
    return ("eof", "", 0j, line, col)


# The scalar syntax at its edges: the token list (kind, text, value,
# line, col) or the error message of each input.  Reprs are compared, so
# signed zeros count.
@pytest.mark.parametrize("src, want", [
    ("-i", [_scalar("-i", complex(0.0, -1.0)), _eof(3)]),
    ("+i", [_scalar("+i", 1j), _eof(3)]),
    ("2+i", [_scalar("2+i", 2 + 1j), _eof(4)]),
    ("3.5-2i", [_scalar("3.5-2i", 3.5 - 2j), _eof(7)]),
    ("-0", [_scalar("-0", complex(-0.0, 0.0)), _eof(3)]),
    ("2-3", [_scalar("2", 2 + 0j), _scalar("-3", -3 + 0j, 2), _eof(4)]),
    ("2ix", [_scalar("2i", 2j), ("name", "x", 0j, 1, 3), _eof(4)]),
    (".5", [_scalar(".5", 0.5 + 0j), _eof(3)]),
    ("5.", [_scalar("5.", 5 + 0j), _eof(3)]),
    ("1e", [_scalar("1", 1 + 0j), ("name", "e", 0j, 1, 2), _eof(3)]),
    ("x1e5", [("name", "x1e5", 0j, 1, 1), _eof(5)]),
    ("\u0663", [_scalar("\u0663", 3 + 0j), _eof(2)]),
    ("\u00e9", [("name", "\u00e9", 0j, 1, 1), _eof(2)]),
    ("id 2 # c", [("keyword", "id", 0j, 1, 1), _scalar("2", 2 + 0j, 4),
                  _eof(6)]),
    ("id 2 # c\n", [("keyword", "id", 0j, 1, 1), _scalar("2", 2 + 0j, 4),
                    _eof(1, line=2)]),
    ("1e+", "line 1, col 3: stray '+'"),
    ("+", "line 1, col 1: stray '+'"),
    ("-x", "line 1, col 1: stray '-'"),
    ("-ix", "line 1, col 1: bad number starting at '-'"),
    ("0..5", "line 1, col 1: bad number starting at '0'"),
    ("9-.", "line 1, col 1: bad number starting at '9'"),
    ("1e400", "line 1, col 1: number '1e400' is out of range"),
    ("1e400+.", "line 1, col 1: bad number starting at '1'"),
    ("$", "line 1, col 1: unexpected character '$'"),
])
def test_tokenize_scalar_syntax(src, want):
    if isinstance(want, str):
        with pytest.raises(DslSyntaxError) as err:
            tokenize(src)
        assert str(err.value) == want
    else:
        got = [(t.kind, t.text, t.value, t.line, t.col)
               for t in tokenize(src)]
        assert repr(got) == repr(want)


def test_a_token_prints_and_compares_as_its_five_fields():
    tok = tokenize("2")[0]
    assert repr(tok) == ("Token(kind='scalar', text='2', value=(2+0j), "
                         "line=1, col=1)")
    assert tok == ("scalar", "2", 2, 1, 1)


def test_parse_precedence_tensor_binds_tighter_than_seq():
    printed = print_term(parse_expr("id 2 ; swap 2 3 ox id 1 ; discard 6"))
    assert printed == "id 2 ; swap 2 3 ox id 1 ; discard 6"
    grouped = print_term(parse_expr("(id 2 ; discard 2) ox id 3"))
    assert grouped == "(id 2 ; discard 2) ox id 3"


def test_parse_unary_binds_tighter_than_tensor():
    assert print_term(parse_expr("dagger id 2 ox id 3")) == \
        "dagger id 2 ox id 3"
    assert print_term(parse_expr("dagger (id 2 ox id 3)")) == \
        "dagger (id 2 ox id 3)"


@pytest.mark.parametrize("src, where, what", [
    ("dagger (", "line 1, col 9", "expected an expression"),
    ("[1, 0; 0]", "line 1, col 1", "ragged matrix"),
    ("id 2 )", "line 1, col 6", "trailing input"),
])
def test_parse_errors_carry_positions(src, where, what):
    with pytest.raises(DslSyntaxError) as err:
        parse_expr(src)
    assert where in str(err.value)
    assert what in str(err.value)


def test_unknown_names_are_rejected():
    # with a declared name set the parser rejects strays immediately
    with pytest.raises(UnknownIdentifier) as err:
        parse_expr("foo", known=set())
    assert "line 1, col 1" in str(err.value)
    parse_expr("foo", known={"foo"})
    # without one the check happens at evaluation against the environment
    with pytest.raises(UnknownIdentifier):
        eval_term(parse_expr("foo"), COMPLEX)


def test_eval_builtins_match_the_library():
    pairs = [
        ("id 3", np.eye(3)),
        ("swap 2 3", swap(2, 3).array),
        ("cup 2", cup(2).array),
        ("cap 2", cap(2).array),
        ("discard 3", np.ones((1, 3))),
    ]
    for src, want in pairs:
        got = eval_term(parse_expr(src), COMPLEX)
        assert np.array_equal(got.array, want), src


@pytest.mark.parametrize("op", sorted(dsl.BUILTINS))
def test_builtin_types_are_known_before_building(op):
    dims = (2, 3)[:dsl.BUILTINS[op].arity]
    built = eval_term(dsl.Builtin(1, 1, op, dims), COMPLEX)
    assert dsl.BUILTINS[op].type(*dims) == (built.dom, built.cod)


def test_eval_matrix_literal_shapes():
    m = eval_term(parse_expr("[1, 2i; 3, 4; 0, 1-1i]"), COMPLEX)
    assert m.dom == Obj(2)
    assert m.cod == Obj(3)
    assert m.array[0, 1] == 2j
    assert m.array[2, 1] == 1 - 1j


def test_eval_seq_and_tensor():
    got = eval_term(parse_expr("[1, 0; 0, 1; 0, 0] ; discard 3"), COMPLEX)
    assert np.array_equal(got.array, np.array([[1.0, 1.0]]))
    got = eval_term(parse_expr("id 2 ox [0, 1; 1, 0]"), COMPLEX)
    assert np.array_equal(got.array,
                          np.kron(np.eye(2), np.eye(2)[[1, 0]]))


def test_eval_unary_ops():
    dag = eval_term(parse_expr("dagger [i, 0; 0, 1]"), COMPLEX)
    assert np.array_equal(dag.array, np.diag([-1j, 1.0 + 0j]))
    con = eval_term(parse_expr("conj [i, 0; 0, 1]"), COMPLEX)
    assert np.array_equal(con.array, np.diag([-1j, 1.0 + 0j]))
    assert con.dom == Obj(2)
    # star reads the codomain split off the builtin type
    starred = eval_term(parse_expr("star swap 2 3"), COMPLEX)
    assert starred.dom == Obj(2, 3)
    assert starred.cod == Obj(2, 3)


def test_eval_composition_mismatch_names_the_subterm():
    with pytest.raises(DslTypeError) as err:
        eval_term(parse_expr("id 2 ; id 3"), COMPLEX)
    assert "cannot compose 2 into 3 in 'id 2 ; id 3'" in str(err.value)
    assert "line 1, col 6" in str(err.value)


@pytest.mark.parametrize("check", [dsl.check_term, eval_term])
def test_a_name_of_another_instance_is_refused_where_it_stands(check):
    env = {"x": Mor(Obj(2), Obj(2), np.eye(2), BOOLEAN)}
    with pytest.raises(DslTypeError) as err:
        check(parse_expr("id 2 ; x"), COMPLEX, env)
    assert str(err.value) == (
        "line 1, col 8: 'x' lives in bool, not complex in 'x'")


def test_eval_boolean_rejects_fractional_entries():
    with pytest.raises(DslTypeError) as err:
        eval_term(parse_expr("[0.5]"), BOOLEAN)
    assert "0 or 1" in str(err.value)


def watch_builtins(monkeypatch) -> dict:
    """Wrap every builtin: the returned dict maps each ``(op, dims)``
    built to a list of weak references to the arrays of its builds."""
    builds = {}

    def watched(op, make):
        def build(*args):
            mor = make(*args)
            builds.setdefault((op, args[:-1]), []).append(
                weakref.ref(mor.array))
            return mor
        return build
    for op, entry in dsl.BUILTINS.items():
        monkeypatch.setitem(dsl.BUILTINS, op,
                            entry._replace(build=watched(op, entry.build)))
    return builds


def test_a_repeated_builtin_is_built_once_per_term(monkeypatch):
    builds = watch_builtins(monkeypatch)
    a = Mor(Obj(4), Obj(4), np.arange(16.0).reshape(4, 4))
    src = "swap 2 2 ; A ; swap 2 2 ; id 4 ; id 4 ; discard 4"
    got = eval_term(parse_expr(src), COMPLEX, {"A": a})
    assert {key: len(refs) for key, refs in builds.items()} == {
        ("swap", (2, 2)): 1, ("id", (4,)): 1, ("discard", (4,)): 1}
    s = swap(2, 2).array
    assert np.array_equal(got.array, np.ones((1, 4)) @ s @ a.array @ s)
    # every term builds its own: nothing is kept between calls
    eval_term(parse_expr(src), COMPLEX, {"A": a})
    assert [len(refs) for refs in builds.values()] == [2, 2, 2]


def test_a_builtin_is_held_from_its_first_to_its_last_occurrence(
        monkeypatch):
    builds = watch_builtins(monkeypatch)
    seen = []

    def dagger(m):
        seen.append({op: refs[-1]() is not None
                     for (op, _), refs in builds.items()})
        return m.dagger()
    monkeypatch.setitem(dsl.UNARY, "dagger",
                        dsl.UNARY["dagger"]._replace(build=dagger))
    a = Mor(Obj(4), Obj(4), np.eye(4)[[1, 2, 3, 0]])
    # "id 4" occurs once, "swap 2 2" twice; an "A" stands before each
    # "dagger A" so that the evaluator holds no builtin as its operand
    got = eval_term(parse_expr(
        "id 4 ; A ; swap 2 2 ; A ; dagger A ; swap 2 2 ; A ; dagger A"),
        COMPLEX, {"A": a})
    assert seen == [{"id": False, "swap": True},
                    {"id": False, "swap": False}]
    del got
    assert all(ref() is None for refs in builds.values() for ref in refs)


def monomial_unitary(rng, n: int) -> np.ndarray:
    phases = np.array([1, 1j, -1, -1j])[rng.integers(4, size=n)]
    u = np.zeros((n, n), dtype=complex)
    u[rng.permutation(n), np.arange(n)] = phases
    return u


def test_a_long_chain_equals_a_fold_that_builds_every_builtin_afresh():
    rng = np.random.default_rng(18)
    env = {f"u{i}": Mor(Obj(4), Obj(4), monomial_unitary(rng, 4))
           for i in range(6)}
    words = [("u{}", "dagger u{}", "conj u{}", "swap 2 2",
              "id 4")[int(rng.integers(5))].format(int(rng.integers(6)))
             for _ in range(200)]
    assert {"swap 2 2", "id 4"} <= set(words)
    got = eval_term(parse_expr(" ; ".join(words)), COMPLEX, env)
    want = eval_term(parse_expr(words[0]), COMPLEX, env)
    for word in words[1:]:
        want = want.then(eval_term(parse_expr(word), COMPLEX, env))
    assert (got.dom, got.cod) == (want.dom, want.cod)
    assert got.array.tobytes() == want.array.tobytes()


def test_a_repeated_builtin_past_the_budget_fails_at_its_first_occurrence(
        monkeypatch):
    monkeypatch.setattr(dsl, "MAX_ENTRIES", 16)
    env = {"A": Mor(Obj(5), Obj(5), np.eye(5))}
    errors = []
    for src in ("A ; id 5 ; A", "A ; id 5 ; A ; id 5 ; dagger (id 5)"):
        with pytest.raises(DslTypeError) as err:
            eval_term(parse_expr(src), COMPLEX, env)
        errors.append(str(err.value))
    assert errors[0] == errors[1] == (
        "line 1, col 5: the result would have more than 16 entries in "
        "'id 5'")


SCRIPT = """\
# an isometry and a check that it is one
mor v : 2 -> 2*2 = [1, 0; 0, 0; 0, 0; 0, 1] ;
eq v ; dagger v, id 2 ;
eval v ; discard 4 ;
"""


def test_eval_script_runs_bindings_and_checks():
    env, results = eval_script(parse_script(SCRIPT), COMPLEX)
    assert set(env) == {"v"}
    assert env["v"].cod == Obj(2, 2)
    assert results[0] == {"kind": "eq", "equal": True, "max_abs_diff": 0.0}
    assert results[1]["kind"] == "eval"
    assert np.array_equal(results[1]["mor"].array, np.array([[1.0, 1.0]]))


def test_script_bindings_designate_factor_splits():
    env, _ = eval_script(parse_script(
        "mor f : 2 -> 3*2 = [1, 0; 0, 0; 0, 1; 0, 0; 0, 0; 0, 1] ;\n"
        "mor g : 2 -> 2*3 = star f ;\n"), COMPLEX)
    assert env["f"].cod == Obj(3, 2)
    # star reads (ancilla, output) off f's declared split
    assert env["g"].cod == Obj(2, 3)


def test_script_binding_rejects_wrong_total_dimension():
    with pytest.raises(DslTypeError) as err:
        eval_script(parse_script("mor f : 2 -> 3 = id 2 ;"), COMPLEX)
    assert "line 1" in str(err.value)


def test_script_composition_versus_terminator():
    # the ';' before 'a' continues the expression, the final one ends it
    env, results = eval_script(parse_script(
        "mor a : 2 -> 2 = [0, 1; 1, 0] ;\n"
        "mor b : 2 -> 2 = a ; a ;\n"
        "eval b ;\n"), COMPLEX)
    assert np.array_equal(results[0]["mor"].array, np.eye(2))


def test_eq_check_dimension_mismatch_is_a_type_error():
    with pytest.raises(DslTypeError):
        eval_script(parse_script("eq id 2, id 3 ;"), COMPLEX)


def test_eval_script_respects_tolerance():
    src = "eq [1], [1.000001] ;"
    _, strict = eval_script(parse_script(src), COMPLEX)
    _, loose = eval_script(parse_script(src), COMPLEX, tol=1e-3)
    assert not strict[0]["equal"]
    assert loose[0]["equal"]


ROUND_TRIP_SCRIPTS = [
    SCRIPT,
    "mor a : 2 -> 2 = [0, 1; 1, 0] ;\nmor b : 2 -> 2 = a ; a ;\neval b ;\n",
    "eval id 2 ox (cup 3 ; cap 3) ;\n",
    "eval [0.5+0.5i, -1i; 0, 2e-05] ;\n",
    "mor f : 2 -> 3*2 = star (swap 2 3) ;\neq f, f ;\n",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SCRIPTS)
def test_print_parse_round_trip(src):
    first = parse_script(src)
    printed = print_script(first)
    assert parse_script(printed) == first
    # printing is idempotent
    assert print_script(parse_script(printed)) == printed


def test_morfile_round_trip_complex(tmp_path):
    rng = np.random.default_rng(71)
    m = Mor(Obj(2), Obj(3, 2),
            rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
    path = tmp_path / "m.mor"
    write_morfile(m, path)
    back = read_morfile(path)
    assert back.dom == m.dom
    assert back.cod == m.cod
    assert np.array_equal(back.array, m.array)


def test_morfile_round_trip_boolean(tmp_path):
    m = Mor(Obj(2), Obj(2), np.array([[1, 0], [1, 1]]) > 0, BOOLEAN)
    path = tmp_path / "r.mor"
    write_morfile(m, path)
    back = read_morfile(path)
    assert back.semiring is BOOLEAN
    assert np.array_equal(back.array, m.array)


def test_morfile_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.mor"
    path.write_text("not json at all")
    with pytest.raises(InvalidArgument):
        read_morfile(path)
    path.write_text('{"dom": [2], "cod": [2], "semiring": "complex", '
                    '"entries": [[[1, 0]]]}')
    with pytest.raises(ShapeMismatch):
        read_morfile(path)


def test_files_read_their_newlines_as_text_mode_does(tmp_path):
    path = tmp_path / "s.cps"
    path.write_bytes(b"eval id 2 ;\r\neval id 3 ;\r# \xc3\xa9\n\reval id 2 ;")
    assert dsl.read_text(path) == path.read_text(encoding="utf-8") == \
        "eval id 2 ;\neval id 3 ;\n# \u00e9\n\neval id 2 ;"
