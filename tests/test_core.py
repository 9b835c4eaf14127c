"""Objects, morphisms, the two semirings, and the sampled category laws."""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpcat import (BOOLEAN, COMPLEX, DEFAULT_TOL, SEMIRINGS, Mor, Obj, UNIT,
                   as_obj, check_laws, compose, factor_permutation,
                   identity, max_abs_diff, mor_equal, random_mor, swap,
                   tensor)
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


@pytest.mark.parametrize("bad", [0, -1, 2.0, "2"])
def test_obj_names_its_rule_for_a_dimension(bad):
    with pytest.raises(InvalidArgument) as err:
        Obj(2, bad)
    assert str(err.value) == (
        f"factor dimensions must be integers >= 1, got {bad!r}")


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


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
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


# --- complex deviations in blocks --------------------------------------

BLOCK = core.DEVIATION_BLOCK
# one below, at and one above the block, in narrow and wide rows, a row
# wider than the block, and several blocks with a partial last one
BLOCK_SHAPES = [(BLOCK - 1, 1), (1, BLOCK - 1), (BLOCK // 64, 64),
                (BLOCK + 1, 1), (1, BLOCK + 1), (3, BLOCK // 2 + 1),
                (5 * BLOCK // 64 + 3, 64)]
# NaN and infinite entries, then finite ones: signed zeros, subnormals
# and entries near the float limit, whose differences overflow to inf
SPECIAL = [np.nan, np.inf, -np.inf, complex(np.nan, 0.0),
           complex(np.inf, np.nan), -0.0, complex(-0.0, -0.0), 5e-324,
           -5e-324, 1e308, -1e308, complex(1e308, -1e308)]
FINITE_SPECIAL = SPECIAL[5:]


def deviation_inputs(kind, shape, rng):
    """Two complex arrays of ``shape``; in ``nan-last`` one NaN, the last."""
    a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
            for _ in range(2))
    if kind in ("special", "nan-last"):
        for x in (a, b):
            flat = x.reshape(-1)
            at = rng.integers(0, flat.size, 64)
            pool = FINITE_SPECIAL if kind == "nan-last" else SPECIAL
            flat[at] = rng.choice(np.array(pool), at.size)
    if kind == "nan-last":
        a.reshape(-1)[-1] = np.nan
    return a, b


def one_line_deviation(a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(a - b).max())


def assert_bitwise(got, want):
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("kind", ["random", "special", "nan-last"])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_blocked_deviation_is_the_one_line_maximum_bitwise(shape, layout,
                                                          kind):
    rng = np.random.default_rng([shape[0], shape[1], len(kind), len(layout)])
    if layout == "transposed":
        a, b = deviation_inputs(kind, shape[::-1], rng)
        a, b = a.T, b.T.copy()
    else:
        a, b = deviation_inputs(kind, shape, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = COMPLEX.deviation(a, b)
    assert_bitwise(got, one_line_deviation(a, b))
    if kind == "nan-last":
        assert np.isnan(got)


@pytest.mark.parametrize("kind", ["random", "special", "nan-last"])
@pytest.mark.parametrize("na,nb", [(12, 9), (9, 12), (16, 16), (1, 91)])
def test_blocked_deviation_of_4d_transposed_views_is_bitwise(na, nb, kind):
    # the certificate's layout: a C-ordered H[b, a, d, e] against the
    # view of a C-ordered (a·b)² matrix under the Choi relabelling
    rng = np.random.default_rng([na, nb, len(kind)])
    g, h = deviation_inputs(kind, (nb, na, nb, na), rng)
    h = h.reshape(na * nb, -1).copy()
    view = h.reshape(na, nb, na, nb).transpose(3, 2, 1, 0)
    assert g.size > BLOCK
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = COMPLEX.deviation(g, view)
    assert_bitwise(got, one_line_deviation(g, view))


@pytest.mark.parametrize("shape_a,shape_b", [
    ((3 * BLOCK // 64, 64), (1, 64)), ((3 * BLOCK // 64, 64), (64,)),
    ((3 * BLOCK // 64, 64), ()), ((3 * BLOCK // 64, 1), (1, 64)),
    ((2, BLOCK + 1), (3, 2, 1))])
def test_blocked_deviation_broadcasts_as_the_one_line_maximum(shape_a,
                                                              shape_b):
    rng = np.random.default_rng([len(shape_a), len(shape_b), shape_a[-1]])
    a, b = (deviation_inputs("special", (int(np.prod(s)),), rng)[0]
            .reshape(s) for s in (shape_a, shape_b))
    assert np.broadcast_shapes(shape_a, shape_b)[0] > 1
    assert np.broadcast(a, b).size > BLOCK
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = COMPLEX.deviation(a, b)
    assert_bitwise(got, one_line_deviation(a, b))


@pytest.mark.parametrize("shape_b", [(BLOCK + 1, 3), (0, 2)])
def test_blocked_deviation_raises_where_the_one_liner_does(shape_b):
    # shapes that do not broadcast, and a broadcast with no entries
    a, b = np.zeros((BLOCK + 1, 2), complex), np.zeros(shape_b, complex)
    with pytest.raises(ValueError):
        one_line_deviation(a, b)
    with pytest.raises(ValueError):
        COMPLEX.deviation(a, b)


def test_an_overflowing_deviation_is_inf_under_raising_errstate_in_threads():
    # one-line and blocked sizes; each difference overflows to inf
    pairs = [(np.full(shape, 1e308, complex), np.full(shape, -1e308, complex))
             for shape in ((3, 3), (BLOCK // 64 + 1, 64))]
    rounds, workers = 200, 4
    start = threading.Barrier(workers)
    found = [[] for _ in range(workers)]

    def work(out):
        start.wait(timeout=30)
        # each thread has its own floating-point error state
        with np.errstate(all="raise"):
            for _ in range(rounds):
                out.extend(COMPLEX.deviation(a, b) for a, b in pairs)
            out.append(np.geterr()["over"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            threads = [threading.Thread(target=work, args=(out,))
                       for out in found]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for out in found:
        assert out == [np.inf] * (2 * rounds) + ["raise"]


def test_blocked_deviation_of_large_arrays_stays_below_one_block():
    rng = np.random.default_rng(77)
    a, b = deviation_inputs("random", (BLOCK, 64), rng)
    tracemalloc.start()
    try:
        COMPLEX.deviation(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a complex and a float buffer of one block each, and the block maxima
    assert peak < 24 * BLOCK + 4096


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


@pytest.mark.parametrize("max_dim", [1, 2, 4, 9])
def test_draw_objects_shares_objects_and_draws_as_scalar_calls(max_dim):
    draw = core.draw_objects(max_dim)
    merged, scalar = np.random.default_rng(2), np.random.default_rng(2)
    drawn = []
    for count in (4, 1, 7, 3) * 10:
        objs = draw(merged, count)
        assert [o.dim for o in objs] == [
            int(scalar.integers(1, max_dim + 1)) for _ in range(count)]
        # a double between draws must come out of the same state too
        assert merged.random() == scalar.random()
        drawn += objs
    assert merged.bit_generator.state == scalar.bit_generator.state
    assert {o.dim for o in drawn} <= set(range(1, max_dim + 1))
    # one object per dim, shared by every draw
    assert len({id(o) for o in drawn}) == len({o.dim for o in drawn})
    assert all(o.factors == (o.dim,) for o in drawn)


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


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
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


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
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


# the real and the imaginary part of a complex entry
PARTS = st.floats(-1, 1)
LAW_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                        max_examples=150)


@st.composite
def law_morphisms(draw, semiring):
    """``f : a -> b``, ``g : b -> c``, ``h, f2 : c -> d`` and
    ``g2 : d -> a``, as :func:`check_laws` draws them."""
    a, b, c, d = (Obj(draw(st.integers(1, 4))) for _ in range(4))
    entry = (st.booleans() if semiring is BOOLEAN
             else st.builds(complex, PARTS, PARTS))

    def mor(dom, cod):
        n = dom.dim * cod.dim
        entries = draw(st.lists(entry, min_size=n, max_size=n))
        return Mor(dom, cod, np.reshape(entries, (cod.dim, dom.dim)),
                   semiring)
    return mor(a, b), mor(b, c), mor(c, d), mor(c, d), mor(d, a)


def law_sides(f, g, h, f2, g2) -> dict:
    """Both sides of every law :func:`check_laws` samples, stated through
    the public operations alone."""
    sem, a, b, c, d = f.semiring, f.dom, f.cod, h.dom, h.cod
    one = identity(UNIT, sem)
    return {
        "compose_assoc": (compose(h, compose(g, f)),
                          compose(compose(h, g), f)),
        "compose_unit_left": (compose(identity(b, sem), f), f),
        "compose_unit_right": (compose(f, identity(a, sem)), f),
        "interchange": (compose(tensor(g, g2), tensor(f, f2)),
                        tensor(compose(g, f), compose(g2, f2))),
        "tensor_unit_left": (tensor(one, f), f),
        "tensor_unit_right": (tensor(f, one), f),
        "dagger_involution": (f.dagger().dagger(), f),
        "dagger_antihomomorphism": (compose(g, f).dagger(),
                                    compose(f.dagger(), g.dagger())),
        "dagger_tensor": (tensor(f, f2).dagger(),
                          tensor(f.dagger(), f2.dagger())),
        "dagger_identity": (identity(a, sem).dagger(), identity(a, sem)),
        "swap_involution": (compose(swap(b, a, sem), swap(a, b, sem)),
                            identity(a.tensor(b), sem)),
        "swap_naturality": (compose(swap(c, d, sem), tensor(g, h)),
                            compose(tensor(h, g), swap(b, c, sem))),
    }


@pytest.mark.parametrize("semiring", SEMIRINGS.values(), ids=SEMIRINGS)
@LAW_SETTINGS
@given(data=st.data())
def test_every_category_law_holds_on_generated_morphisms(semiring, data):
    sides = law_sides(*data.draw(law_morphisms(semiring)))
    assert tuple(sides) == core.LAW_NAMES
    for law, (left, right) in sides.items():
        assert (left.dom, left.cod) == (right.dom, right.cod), law
        if left.array.dtype == np.bool_:
            # booleans hold exactly
            assert np.array_equal(left.array, right.array), law
        else:
            assert np.abs(left.array - right.array).max() <= DEFAULT_TOL, law


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


def test_blocked_tables_hold_less_than_all_the_tables():
    # one block's tables and gathered stack, not every group's tables:
    # 4·k·n bytes, 16 MiB here, is what the whole tables alone would hold
    m = k = n = 2048
    rng = np.random.default_rng(5)
    a = rng.random((m, k)) < 0.5
    b = rng.random((k, n)) < 0.5
    tracemalloc.start()
    try:
        got = BOOLEAN.matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (m, n)
    assert peak < 4 * k * n
    assert np.array_equal(got[::97], a[::97] @ b)


TABLE_BLOCK = core.TABLE_BLOCK


@pytest.mark.parametrize("fill", ["random", "false", "true"])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("cols", [64, 130])
@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("groups", [
    TABLE_BLOCK - 1, TABLE_BLOCK, TABLE_BLOCK + 1,
    2 * TABLE_BLOCK - 1, 2 * TABLE_BLOCK, 2 * TABLE_BLOCK + 1])
def test_table_matmul_at_the_block_boundaries(groups, partial, cols, order,
                                              fill):
    # group counts one below, at and one above a multiple of the block,
    # a last group of 5 rows, output widths on and off the 64-bit words
    inner = 8 * groups - 3 * partial
    rng = np.random.default_rng([groups, partial, cols])
    if fill == "random":
        a = rng.random((37, inner)) < 0.3
        b = rng.random((inner, cols)) < 0.3
    else:
        a = np.full((37, inner), fill == "true")
        b = np.full((inner, cols), fill == "true")
    a, b = np.asarray(a, order=order), np.asarray(b, order=order)
    assert_boolean_product(core._table_matmul(a, b), a, b)


@pytest.mark.parametrize("dim", [TABLE - 1, TABLE])
def test_a_zero_inner_dim_gives_the_all_false_product(dim):
    # either side of the table threshold: the empty OR is false
    a = np.zeros((dim, 0), dtype=np.bool_)
    b = np.zeros((0, dim), dtype=np.bool_)
    for got in (BOOLEAN.matmul(a, b), core._table_matmul(a, b)):
        assert got.shape == (dim, dim)
        assert not got.any()
        assert_boolean_product(got, a, b)


@pytest.mark.parametrize("dim", [TABLE - 1, TABLE, 2 * TABLE])
def test_an_inner_dim_of_one_is_the_outer_and(dim, monkeypatch):
    # bitwise the float32 and table routes, on one matrix and on batches
    rng = np.random.default_rng(dim)
    a, b = rng.random((dim, 1)) < 0.5, rng.random((1, dim)) < 0.5
    tables = core._table_matmul(a, b)
    # the broadcast needs no tables, even past TABLE_MIN
    monkeypatch.setattr(core, "_table_matmul", None)
    got = BOOLEAN.matmul(a, b)
    assert_boolean_product(got, a, b)
    assert np.array_equal(got, tables)
    a3, b3 = rng.random((3, dim, 1)) < 0.5, rng.random((3, 1, dim)) < 0.5
    for x, y in ((a, b), (a3, b3), (a, b3), (a3, b)):
        got = BOOLEAN.matmul(x, y)
        assert got.dtype == np.bool_ and got.flags.c_contiguous
        assert np.array_equal(
            got, (x.astype(np.float32) @ y.astype(np.float32)) > 0)


def test_the_permutation_of_no_factors_is_the_unit():
    for semiring in SEMIRINGS.values():
        for p in (factor_permutation((), (), semiring),
                  swap(UNIT, UNIT, semiring)):
            assert (p.dom, p.cod) == (UNIT, UNIT)
            assert np.array_equal(p.array, semiring.eye(1))


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
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


def test_fold_max_propagates_nan_from_either_side():
    nan = float("nan")
    assert core.fold_max(0.0, 1.5) == 1.5
    assert core.fold_max(2.0, 1.5) == 2.0
    assert np.isnan(core.fold_max(0.0, nan))
    assert np.isnan(core.fold_max(nan, 1.5))
    assert np.isnan(core.fold_max(nan, nan))


@pytest.mark.parametrize("nan_call", [0, 1, 7])
def test_check_laws_keeps_a_nan_residual(nan_call, monkeypatch):
    # with the builtin max as the fold, a NaN residual after the first
    # sample of a law vanished and the report read ok
    calls = []
    deviation = core.max_abs_diff

    def poisoned(f, g):
        calls.append(1)
        return float("nan") if len(calls) - 1 == nan_call else deviation(f, g)
    monkeypatch.setattr(core, "max_abs_diff", poisoned)
    report = check_laws(COMPLEX, trials=3)
    assert not report.ok
    assert np.isnan(report.max_deviation)
    assert sum(np.isnan(dev) for dev in report.deviations.values()) == 1


# the refusals of the kernel, each with its class and message
C2, B2 = identity(2), identity(2, BOOLEAN)


@pytest.mark.parametrize("call, error, message", [
    (lambda: C2.retyped(Obj(2), Obj(3)), DimensionMismatch,
     "cannot retype Mor(Obj(2) -> Obj(2), complex) to Obj(2) -> Obj(3)"),
    (lambda: compose(C2, B2), DimensionMismatch,
     "cannot compose across semirings"),
    (lambda: tensor(C2, B2), DimensionMismatch,
     "cannot tensor across semirings"),
    (lambda: max_abs_diff(C2, B2), DimensionMismatch,
     "cannot compare across semirings"),
    (lambda: factor_permutation((2, 3), [0, 0]), InvalidArgument,
     "[0, 0] is not a permutation of the factors"),
], ids=["retyped", "compose", "tensor", "max_abs_diff", "factor_permutation"])
def test_the_kernel_refuses_with_its_reason(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
