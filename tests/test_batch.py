"""Kernels over leading batch axes, and the runners that batch by shape.

Every kernel indexes from the end, so a stack of inputs must give,
bitwise, the stack of what each slice gives alone.  The sampling runners
that check their samples in shape groups must give the reports that a
one-sample-at-a-time evaluation of the same draws gives.
"""

import numpy as np
import pytest

from cpcat import BOOLEAN, COMPLEX, Mor, Obj, axioms, core
from cpcat.core import contract, gram
from cpcat.cp import (KrausMor, cp_compose, cp_deviation, cp_form, cp_tensor,
                      kraus_gram)
from cpcat.cpm import cpm_dagger, cpm_form

SEMIRINGS = [COMPLEX, BOOLEAN]


def draw(rng, semiring, shape):
    if semiring is BOOLEAN:
        return rng.random(shape) < 0.5
    return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)


def batches(seed, dims=3, count=12):
    """``count`` cases of a batch size in 1..40 and ``dims`` dims in 1..9."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield (rng, int(rng.integers(1, 41)),
               [int(d) for d in rng.integers(1, 10, size=dims)])


def assert_slices(got, want):
    """``got`` is the stack of ``want``, bit for bit."""
    want = [np.asarray(w) for w in want]
    assert got.shape == (len(want),) + want[0].shape
    assert got.dtype == want[0].dtype
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_matmul_of_a_batch_is_its_slices(semiring):
    for rng, n, (p, q, r) in batches(1):
        a, b = draw(rng, semiring, (n, p, q)), draw(rng, semiring, (n, q, r))
        assert_slices(semiring.matmul(a, b),
                      [semiring.matmul(a[i], b[i]) for i in range(n)])
        # a matrix on either side broadcasts over the batch
        assert_slices(semiring.matmul(a, b[0]),
                      [semiring.matmul(a[i], b[0]) for i in range(n)])
        assert_slices(semiring.matmul(a[0], b),
                      [semiring.matmul(a[0], b[i]) for i in range(n)])


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_kron_of_a_batch_is_its_slices(semiring):
    for rng, n, (p, q, r) in batches(2):
        a, b = draw(rng, semiring, (n, p, q)), draw(rng, semiring, (n, r, p))
        got = semiring.kron(a, b)
        assert_slices(got, [semiring.kron(a[i], b[i]) for i in range(n)])
        assert np.array_equal(got[0], np.kron(a[0], b[0]))
        assert_slices(semiring.kron(a[0], b),
                      [semiring.kron(a[0], b[i]) for i in range(n)])


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_gram_of_a_batch_is_its_slices(semiring):
    for rng, n, (p, q, _) in batches(3):
        m = draw(rng, semiring, (n, p, q))
        assert_slices(gram(m, semiring),
                      [gram(m[i], semiring) for i in range(n)])


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_contract_of_a_batch_is_its_slices(semiring):
    for rng, n, (b, c, a) in batches(4):
        x = draw(rng, semiring, (n, b, c, a))
        y = draw(rng, semiring, (n, c, a, b))
        got = contract("...bca,...xyz->...bxcyaz", x, y, rows=b * c * c)
        assert_slices(got, [contract("bca,xyz->bxcyaz", x[i], y[i],
                                     rows=b * c * c) for i in range(n)])
        # a sum over a shared index
        got = contract("...xac,...yec->...xyae", x, x, rows=b * b)
        assert_slices(got, [contract("xac,yec->xyae", x[i], x[i], rows=b * b)
                            for i in range(n)])


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_deviation_of_a_batch_is_its_slices(semiring):
    for rng, n, (p, q, _) in batches(5):
        a, b = draw(rng, semiring, (n, p, q)), draw(rng, semiring, (n, p, q))
        b[::3] = a[::3]
        if semiring is COMPLEX:
            a[1::4, 0, 0] = np.nan
        got = semiring.deviation(a, b, 2)
        want = [semiring.deviation(a[i], b[i]) for i in range(n)]
        assert got.shape == (n,)
        assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("shape,axes", [
    ((3, 64, 64), 2), ((40, 9, 9, 9, 9), 4), ((2, 3, 91, 91), 2),
    ((200, 7, 7), 2), ((5, 1, 9000), 2)])
def test_a_batch_past_one_block_compares_its_slices_bitwise(shape, axes):
    rng = np.random.default_rng(list(shape))
    a, b = draw(rng, COMPLEX, shape), draw(rng, COMPLEX, shape)
    flat = a.reshape(-1)
    flat[rng.integers(0, flat.size, 5)] = [np.nan, np.inf, -np.inf, 1e308,
                                           5e-324]
    assert a.size > core.DEVIATION_BLOCK
    got = COMPLEX.deviation(a, b, axes)
    slices = a.reshape((-1,) + shape[-axes:]), b.reshape((-1,) + shape[-axes:])
    want = np.array([COMPLEX.deviation(x, y) for x, y in zip(*slices)])
    assert got.shape == shape[:-axes]
    assert got.tobytes() == want.reshape(got.shape).tobytes()
    # a matrix broadcasts against the batch
    got = COMPLEX.deviation(a, b[(0,) * (len(shape) - axes)], axes)
    assert got.shape == shape[:-axes]


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_dagger_of_a_batch_is_its_slices(semiring):
    for rng, n, (p, q, _) in batches(6):
        arr = draw(rng, semiring, (n, q, p))
        got = Mor._of(Obj(p), Obj(q), arr, semiring).dagger()
        assert (got.dom, got.cod) == (Obj(q), Obj(p))
        assert_slices(got.array, [Mor._of(Obj(p), Obj(q), arr[i], semiring)
                                  .dagger().array for i in range(n)])


def kraus_batch(rng, semiring, n, a, b, c):
    out, anc = Obj(b), Obj(c)
    arr = draw(rng, semiring, (n, b * c, a))
    one = [KrausMor._of(Mor._of(Obj(a), out @ anc, arr[i], semiring), out, anc)
           for i in range(n)]
    batch = KrausMor._of(Mor._of(Obj(a), out @ anc, arr, semiring), out, anc)
    return batch, one


@pytest.mark.parametrize("semiring", SEMIRINGS)
def test_cp_constructions_of_a_batch_are_their_slices(semiring):
    for rng, n, (a, b, c) in batches(7, count=8):
        k, ks = kraus_batch(rng, semiring, n, a, b, c)
        k2, k2s = kraus_batch(rng, semiring, n, b, c, a)
        assert_slices(k.as_tensor(), [x.as_tensor() for x in ks])
        assert_slices(k.as_rows(), [x.as_rows() for x in ks])
        assert_slices(kraus_gram(k), [kraus_gram(x) for x in ks])
        assert_slices(cp_form(k).array, [cp_form(x).array for x in ks])
        assert_slices(cpm_form(k).array, [cpm_form(x).array for x in ks])
        assert_slices(cpm_dagger(k).mor.array,
                      [cpm_dagger(x).mor.array for x in ks])
        assert_slices(cp_compose(k2, k).mor.array,
                      [cp_compose(y, x).mor.array for x, y in zip(ks, k2s)])
        assert_slices(cp_tensor(k, k2).mor.array,
                      [cp_tensor(x, y).mor.array for x, y in zip(ks, k2s)])
        # an unbatched map composes with and tensors every slice
        assert_slices(cp_compose(k2s[0], k).mor.array,
                      [cp_compose(k2s[0], x).mor.array for x in ks])
        assert_slices(cp_tensor(ks[0], k2).mor.array,
                      [cp_tensor(ks[0], y).mor.array for y in k2s])
        other, others = kraus_batch(rng, semiring, n, a, b, c + 1)
        got = cp_deviation(k, other)
        assert got.shape == (n,)
        assert got.tobytes() == np.array(
            [cp_deviation(x, y) for x, y in zip(ks, others)]).tobytes()


def test_only_two_dimensional_boolean_products_take_the_table_route(
        monkeypatch):
    calls = []
    table_matmul = core._table_matmul
    monkeypatch.setattr(
        core, "_table_matmul",
        lambda a, b: calls.append(a.shape) or table_matmul(a, b))
    rng = np.random.default_rng(8)
    a = rng.random((2, core.TABLE_MIN, 9)) < 0.5
    b = rng.random((2, 9, core.TABLE_MIN)) < 0.5
    got = BOOLEAN.matmul(a, b)
    assert calls == []
    for i in range(2):
        assert np.array_equal(got[i], BOOLEAN.matmul(a[i], b[i]))
    assert calls == [a.shape[1:]] * 2
    assert np.array_equal(got[0], (a[0].astype(int) @ b[0].astype(int)) > 0)


# --- runners ---------------------------------------------------------------

BATCHED = [axioms.run_doubling, axioms.run_prep_state, axioms.run_env_b,
           axioms.run_replay, axioms.run_xi]


def one_at_a_time(draw_sample, check):
    """``_by_shape`` without the groups: each sample checked alone."""
    def run(rng, samples):
        return [check(*draw_sample(rng, n)) for n in range(samples)]
    return run


def same_value(x, y) -> bool:
    if isinstance(x, np.ndarray):
        return (isinstance(y, np.ndarray) and x.shape == y.shape
                and x.dtype == y.dtype and x.tobytes() == y.tobytes())
    if isinstance(x, float):
        return type(y) is float and repr(x) == repr(y)
    return type(x) is type(y) and x == y


def same_report(x, y) -> bool:
    if (x.axiom, x.holds, x.checked, x.samples, x.notes) != (
            y.axiom, y.holds, y.checked, y.samples, y.notes):
        return False
    if not same_value(x.max_deviation, y.max_deviation):
        return False
    if x.witness is None or y.witness is None:
        return x.witness is y.witness
    return (sorted(x.witness) == sorted(y.witness)
            and all(same_value(x.witness[k], y.witness[k]) for k in x.witness))


@pytest.mark.parametrize("runner", BATCHED, ids=lambda r: r.__name__)
@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed,tol", [(0, 1e-9), (3, 1e-15), (7, 3e-16),
                                      (11, 0.0), (5, 0.3)])
def test_shape_groups_report_as_one_sample_at_a_time(runner, semiring, seed,
                                                     tol, monkeypatch):
    grouped = runner(semiring, samples=60, seed=seed, tol=tol)
    monkeypatch.setattr(axioms, "_by_shape", one_at_a_time)
    alone = runner(semiring, samples=60, seed=seed, tol=tol)
    assert same_report(grouped, alone)


@pytest.mark.parametrize("runner", BATCHED, ids=lambda r: r.__name__)
def test_each_shape_group_is_checked_once(runner, monkeypatch):
    groups, shapes = [], set()
    by_shape = axioms._by_shape

    def counted(draw_sample, check):
        def drawn(rng, n):
            mors = draw_sample(rng, n)
            shapes.add(tuple((m.dom, m.cod) for m in mors))
            return mors

        def checked(*batch):
            groups.append(len(batch[0].array))
            return check(*batch)
        return by_shape(drawn, checked)
    monkeypatch.setattr(axioms, "_by_shape", counted)
    report = runner(COMPLEX, samples=80, seed=2)
    assert report.holds
    assert len(groups) == len(shapes) < 80
    assert sum(groups) == 80
