"""Objects, morphisms, the two semirings, and the sampled category laws."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpcat import (BOOLEAN, COMPLEX, Mor, Obj, UNIT, as_obj, check_laws,
                   compose, factor_permutation, identity, max_abs_diff,
                   mor_equal, random_mor, random_obj, swap, tensor)
from cpcat import core
from cpcat.core import gram
from cpcat.errors import DimensionMismatch, InvalidArgument, ShapeMismatch


def test_obj_dims_and_tensor():
    a = Obj(2, 3)
    assert a.dim == 6
    assert a.factors == (2, 3)
    assert (a @ Obj(4)).factors == (2, 3, 4)
    assert UNIT.dim == 1
    assert UNIT.factors == ()
    assert a @ UNIT == a


def test_obj_dim_is_the_product_of_the_factors_after_tensor_chains():
    rng = np.random.default_rng(3)
    for _ in range(50):
        obj = UNIT
        for _ in range(int(rng.integers(1, 6))):
            part = UNIT if rng.random() < 0.3 else Obj(
                *(int(d) for d in rng.integers(1, 5, size=rng.integers(1, 3))))
            obj = part.tensor(obj) if rng.random() < 0.5 else obj @ part
            assert obj.dim == int(np.prod(obj.factors, dtype=np.int64))
            assert obj == Obj(*obj.factors)
    assert (UNIT @ UNIT).dim == 1
    assert (UNIT @ Obj(3)) == Obj(3)


def test_obj_equality_is_by_factor_list():
    assert Obj(2, 3) != Obj(3, 2)
    assert Obj(6) != Obj(2, 3)
    assert hash(Obj(2, 3)) == hash(Obj(2, 3))


def test_as_obj_accepts_ints_and_tuples():
    assert as_obj(3) == Obj(3)
    assert as_obj((2, 2)) == Obj(2, 2)
    assert as_obj(Obj(5)) == Obj(5)


def test_obj_rejects_nonpositive_factor():
    with pytest.raises(InvalidArgument):
        Obj(2, 0)


def test_mor_shape_must_match_types():
    with pytest.raises(ShapeMismatch):
        Mor(Obj(2), Obj(3), np.zeros((2, 3)))


def test_mor_array_is_frozen():
    m = identity(2)
    with pytest.raises(ValueError):
        m.array[0, 0] = 5.0


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_mor_copies_the_callers_entries_at_most_once(dtype):
    a = np.ones((512, 512), dtype=dtype)
    tracemalloc.start()
    try:
        m = Mor(Obj(512), Obj(512), a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * m.array.nbytes
    view = Mor(Obj(512), Obj(512), a[:, :])
    a[0, 0] = 5.0
    a[:, :][1, 1] = 7.0
    assert np.array_equal(m.array, np.ones((512, 512)))
    assert np.array_equal(view.array, np.ones((512, 512)))


def test_compose_checks_total_dimension_only():
    f = Mor(Obj(2, 3), Obj(2), np.ones((2, 6)))
    g = Mor(Obj(6), Obj(2), np.ones((2, 6)))
    # same total dimension, different factorings: both accepted
    h = Mor(Obj(2), Obj(3, 2), np.ones((6, 2)))
    assert compose(f, h).dom == Obj(2)
    assert compose(g, h).cod == Obj(2)
    with pytest.raises(DimensionMismatch):
        compose(f, identity(5))


def test_compose_is_matrix_product():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = Mor(Obj(2), Obj(2), a)
    g = Mor(Obj(2), Obj(2), b)
    assert np.array_equal(compose(g, f).array, b @ a)
    assert np.array_equal(f.then(g).array, b @ a)
    assert np.array_equal((f >> g).array, b @ a)


def test_tensor_is_kronecker_in_row_major_order():
    f = Mor(Obj(2), Obj(2), np.array([[1.0, 2.0], [3.0, 4.0]]))
    g = Mor(Obj(3), Obj(1), np.array([[1.0, 0.0, 1.0]]))
    fg = tensor(f, g)
    assert fg.dom == Obj(2, 3)
    assert fg.cod == Obj(2, 1)
    assert np.array_equal(fg.array, np.kron(f.array, g.array))
    assert np.array_equal((f @ g).array, fg.array)


@pytest.mark.parametrize("semiring", [COMPLEX, BOOLEAN])
def test_semiring_kron_is_numpy_kron_bitwise(semiring):
    rng = np.random.default_rng(11)
    shapes = [(1, 1), (1, 4), (3, 1), (2, 5), (4, 3)]
    for sa in shapes:
        for sb in shapes:
            a, b = (random_mor(rng, Obj(s[1]), Obj(s[0]), semiring).array
                    for s in (sa, sb))
            got, want = semiring.kron(a, b), np.kron(a, b)
            assert got.dtype == want.dtype == semiring.dtype
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_dagger_is_conjugate_transpose():
    m = Mor(Obj(2), Obj(1), np.array([[1.0 + 2.0j, 3.0]]))
    d = m.dagger()
    assert d.dom == Obj(1)
    assert d.cod == Obj(2)
    assert np.array_equal(d.array, np.array([[1.0 - 2.0j], [3.0]]))


def test_boolean_matmul_is_or_of_ands():
    rng = np.random.default_rng(11)
    a = rng.random((3, 4)) < 0.5
    b = rng.random((4, 2)) < 0.5
    got = BOOLEAN.matmul(a, b)
    expect = np.zeros((3, 2), dtype=np.bool_)
    for i in range(3):
        for j in range(2):
            acc = False
            for k in range(4):
                acc = acc or (a[i, k] and b[k, j])
            expect[i, j] = acc
    assert np.array_equal(got, expect)


def test_boolean_entries_must_be_zero_or_one():
    with pytest.raises(InvalidArgument):
        BOOLEAN.asarray([[0, 2]])


def test_boolean_deviation_is_zero_or_one():
    a = np.array([[True, False]])
    assert BOOLEAN.deviation(a, a) == 0.0
    assert BOOLEAN.deviation(a, ~a) == 1.0


def test_factor_permutation_against_index_loop():
    factors = (2, 3, 2)
    perm = (2, 0, 1)
    p = factor_permutation(factors, perm)
    n = 12
    expect = np.zeros((n, n))
    for i0 in range(2):
        for i1 in range(3):
            for i2 in range(2):
                src = (i0 * 3 + i1) * 2 + i2
                idx = (i2, i0, i1)  # value landing in slot k is factor perm[k]
                dst = (idx[0] * 2 + idx[1]) * 3 + idx[2]
                expect[dst, src] = 1.0
    assert np.array_equal(p.array, expect)
    assert p.dom == Obj(*factors)
    assert p.cod == Obj(2, 2, 3)


def test_factor_permutation_identity():
    p = factor_permutation((2, 3), (0, 1))
    assert np.array_equal(p.array, np.eye(6))


def test_swap_two_by_two_rows():
    s = swap(2, 2)
    # permutation sending basis vector e_{ij} to e_{ji}
    assert np.array_equal(s.array, np.eye(4)[[0, 2, 1, 3]])
    assert s.dom == Obj(2, 2)
    assert s.cod == Obj(2, 2)


def test_swap_is_an_involution():
    for a, b in [(2, 3), (1, 4), (3, 3)]:
        s = swap(a, b)
        back = swap(b, a)
        assert np.array_equal(compose(back, s).array, np.eye(a * b))


def test_swap_naturality():
    rng = np.random.default_rng(5)
    f = random_mor(rng, Obj(2), Obj(3))
    g = random_mor(rng, Obj(4), Obj(2))
    lhs = compose(swap(3, 2), tensor(f, g))
    rhs = compose(tensor(g, f), swap(2, 4))
    assert max_abs_diff(lhs, rhs) < 1e-12


def test_swap_boolean_is_exact():
    s = swap(2, 3, BOOLEAN)
    assert s.array.dtype == np.bool_
    assert np.array_equal(
        BOOLEAN.matmul(swap(3, 2, BOOLEAN).array, s.array), np.eye(6) > 0)


def test_mor_equal_and_deviation():
    f = Mor(Obj(2), Obj(2), np.eye(2))
    g = Mor(Obj(2), Obj(2), np.diag([1.0, -1.0]))
    assert max_abs_diff(f, g) == 2.0
    assert not mor_equal(f, g)
    assert mor_equal(f, g, tol=3.0)
    with pytest.raises(DimensionMismatch):
        max_abs_diff(f, identity(3))


def test_random_mor_entry_ranges():
    rng = np.random.default_rng(0)
    m = random_mor(rng, Obj(3), Obj(3))
    assert np.all(np.abs(m.array.real) <= 1.0)
    assert np.all(np.abs(m.array.imag) <= 1.0)
    b = random_mor(rng, Obj(3), Obj(3), BOOLEAN)
    assert b.array.dtype == np.bool_


def test_random_obj_respects_max_dim():
    rng = np.random.default_rng(2)
    for _ in range(50):
        assert 1 <= random_obj(rng, max_dim=4).dim <= 4


LAW_NAMES = [
    "compose_assoc", "compose_unit_left", "compose_unit_right",
    "interchange", "tensor_unit_left", "tensor_unit_right",
    "dagger_involution", "dagger_antihomomorphism", "dagger_tensor",
    "dagger_identity", "swap_involution", "swap_naturality",
]


def test_check_laws_complex():
    report = check_laws(COMPLEX, trials=60, seed=1)
    assert list(report.deviations) == LAW_NAMES
    assert report.ok
    assert report.max_deviation < 1e-12


def test_check_laws_boolean_is_exact():
    report = check_laws(BOOLEAN, trials=60, seed=1)
    assert report.ok
    assert report.max_deviation == 0.0


@pytest.mark.parametrize("semiring", [COMPLEX, BOOLEAN])
def test_check_laws_fails_a_swap_that_does_not_permute(semiring, monkeypatch):
    # the identity is its own inverse, so only the check of the public swap
    # against the index permutation can catch it in swap_involution
    def not_a_swap(a, b, semiring=COMPLEX):
        ab = as_obj(a).tensor(as_obj(b))
        return identity(ab, semiring).retyped(ab, as_obj(b).tensor(as_obj(a)))
    monkeypatch.setattr(core, "swap", not_a_swap)
    report = check_laws(semiring, trials=50)
    assert report.deviations["swap_involution"] > 0
    assert report.deviations["swap_naturality"] > 0
    assert not report.ok


@pytest.mark.parametrize("semiring", [COMPLEX, BOOLEAN])
def test_check_laws_builds_one_permutation_per_shape(semiring, monkeypatch):
    shapes = []
    build = core.factor_permutation

    def counted(factors, perm, semiring=COMPLEX):
        shapes.append(tuple(factors))
        return build(factors, perm, semiring)
    monkeypatch.setattr(core, "factor_permutation", counted)
    assert check_laws(semiring, trials=200).ok
    # every shape of single factors up to 4 comes up, each built once
    assert sorted(shapes) == [(x, y) for x in range(1, 5) for y in range(1, 5)]


def test_check_laws_rejects_bad_trials():
    with pytest.raises(InvalidArgument):
        check_laws(COMPLEX, trials=0)


def test_check_laws_rejects_bad_max_dim():
    with pytest.raises(InvalidArgument):
        check_laws(COMPLEX, max_dim=0)


def test_check_laws_rejects_a_negative_seed():
    with pytest.raises(InvalidArgument, match="seed must be >= 0"):
        check_laws(COMPLEX, seed=-1)


@pytest.mark.parametrize("fill", ["random", "true", "false"])
@pytest.mark.parametrize("rows,inner,cols", [
    (6, 6, 6), (64, 48, 80), (1, 9, 1), (3, 5000, 2), (40, 1, 30)])
def test_boolean_matmul_matches_numpy_boolean_matmul(fill, rows, inner, cols):
    rng = np.random.default_rng([rows, inner, cols])
    if fill == "random":
        a = rng.random((rows, inner)) < 0.1
        b = rng.random((inner, cols)) < 0.1
    else:
        a = np.full((rows, inner), fill == "true")
        b = np.full((inner, cols), fill == "true")
    got = BOOLEAN.matmul(a, b)
    assert got.dtype == np.bool_
    assert np.array_equal(got, a @ b)


def boolean_operand(rng, shape, fill, transposed):
    """A boolean matrix of ``shape``; a transposed view when asked, as
    :func:`gram` passes ``m.T``."""
    if transposed:
        return boolean_operand(rng, shape[::-1], fill, False).T
    if fill == "random":
        return rng.random(shape) < rng.uniform(0.01, 0.6)
    return np.full(shape, fill == "true")


def assert_boolean_product(got, a, b):
    assert got.dtype == np.bool_
    assert got.flags.c_contiguous
    assert np.array_equal(got, a @ b)  # numpy's native boolean matmul


TABLE = core.TABLE_MIN
PRODUCT_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                            max_examples=40)
FILLS = st.sampled_from(["random", "false", "true"])


@PRODUCT_SETTINGS
@given(st.integers(TABLE - 3, TABLE + 70), st.integers(1, 140),
       st.integers(TABLE - 3, TABLE + 70), FILLS, st.booleans(),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_boolean_matmul_either_side_of_the_table_threshold(
        rows, inner, cols, fill, a_transposed, b_transposed, seed):
    rng = np.random.default_rng(seed)
    a = boolean_operand(rng, (rows, inner), fill, a_transposed)
    b = boolean_operand(rng, (inner, cols), fill, b_transposed)
    assert_boolean_product(BOOLEAN.matmul(a, b), a, b)


@settings(PRODUCT_SETTINGS, max_examples=150)
@given(st.integers(1, 150), st.integers(1, 150), st.integers(1, 150), FILLS,
       st.booleans(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_table_matmul_at_any_shape(rows, inner, cols, fill, a_transposed,
                                   b_transposed, seed):
    # below the threshold only by its own entry point: dims off the 8-row
    # groups and 64-bit words, an inner dim of 1, single rows and columns
    rng = np.random.default_rng(seed)
    a = boolean_operand(rng, (rows, inner), fill, a_transposed)
    b = boolean_operand(rng, (inner, cols), fill, b_transposed)
    assert_boolean_product(core._table_matmul(a, b), a, b)


@pytest.mark.parametrize("rows,cols,tables", [
    (TABLE, TABLE, True), (TABLE, 3 * TABLE, True), (TABLE - 1, TABLE, False),
    (TABLE, TABLE - 1, False), (1, 4 * TABLE, False), (4 * TABLE, 1, False)])
def test_boolean_matmul_takes_the_table_route_from_table_min(
        rows, cols, tables, monkeypatch):
    calls = []
    table_matmul = core._table_matmul
    monkeypatch.setattr(core, "_table_matmul",
                        lambda a, b: calls.append(1) or table_matmul(a, b))
    a = np.ones((rows, 5), dtype=np.bool_)
    b = np.ones((5, cols), dtype=np.bool_)
    assert_boolean_product(BOOLEAN.matmul(a, b), a, b)
    assert calls == ([1] if tables else [])


def test_a_table_product_holds_about_its_tables():
    m = k = n = 1024
    rng = np.random.default_rng(4)
    a = rng.random((m, k)) < 0.5
    b = rng.random((k, n)) < 0.5
    tracemalloc.start()
    try:
        got = BOOLEAN.matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (m, n)
    # the tables' 4·k·n bytes and the m·n-byte result, plus packed rows
    # and accumulators of an eighth of that each; the float32 route would
    # hold 4·(mk + kn + mn) bytes, 13 MiB here
    assert peak <= 4 * k * n + m * n + (k * n + m * k + 2 * m * n) // 4


@pytest.mark.parametrize("semiring", [COMPLEX, BOOLEAN])
@pytest.mark.parametrize("rows,cols", [(1, 1), (6, 1), (1, 5), (7, 4),
                                       (40, 30)])
def test_gram_sums_conjugate_products_of_rows(semiring, rows, cols):
    rng = np.random.default_rng([rows, cols])
    m = random_mor(rng, Obj(cols), Obj(rows), semiring).array
    got = gram(m, semiring)
    assert got.shape == (rows, rows)
    if semiring is BOOLEAN:
        assert got.dtype == np.bool_
        assert np.array_equal(got, (m.astype(int) @ m.T.astype(int)) > 0)
    else:
        want = np.einsum("ic,jc->ij", m.conj(), m)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
