"""Kernels over leading batch axes, and the runners that batch by shape.

Every kernel indexes from the end, so a stack of inputs must give,
bitwise, the stack of what each slice gives alone.  The sampling runners
that check their samples in shape groups must give the reports that a
one-sample-at-a-time evaluation of the same draws gives.  For
``check_laws`` and ``run_xi``, which group each law by the types it
spans, the references are per-sample versions of both, kept here.  All
of them draw and check in chunks of consecutive samples, which must
change no report and must keep a run's peak memory flat in its count.
"""

import tracemalloc

import numpy as np
import pytest

from cpcat import BOOLEAN, COMPLEX, Mor, Obj, UNIT, axioms, core
from cpcat.axioms import AxiomReport, check_doubling_pair
from cpcat.core import (LawReport, compose, contract, gram, identity,
                        max_abs_diff, random_mor, swap, tensor)
from cpcat.cp import (KrausMor, cp_compose, cp_deviation, cp_form, cp_tensor,
                      kraus_gram, pure)
from cpcat.cpm import cpm_dagger, cpm_form

SEMIRINGS = list(core.SEMIRINGS.values())


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
    def run(rng, indices):
        return [check(*draw_sample(rng, n)) for n in indices]
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


# --- laws grouped by the types they span -----------------------------------

def reference_check_laws(semiring, trials=200, tol=1e-9, max_dim=4, seed=0):
    """``check_laws`` one trial at a time, every law on every trial.

    Each object is drawn by its own scalar ``rng.integers`` call, where
    ``check_laws`` draws a trial's four in one call.
    """
    rng = np.random.default_rng(seed)
    residuals, swaps = {}, {}

    def ident(x):
        return identity(x, semiring)

    def swap_rows(x, y):
        key = (x.dim, y.dim)
        if key not in swaps:
            rows = np.arange(x.dim * y.dim).reshape(key).T.reshape(-1)
            dev = semiring.deviation(swap(x, y, semiring).array,
                                     semiring.eye(rows.size)[rows])
            swaps[key] = (rows, np.argsort(rows), dev)
        return swaps[key]

    for _ in range(trials):
        a, b, c, d = (Obj(int(rng.integers(1, max_dim + 1)))
                      for _ in range(4))
        f = random_mor(rng, a, b, semiring)
        g = random_mor(rng, b, c, semiring)
        h = random_mor(rng, c, d, semiring)
        f2 = random_mor(rng, c, d, semiring)
        g2 = random_mor(rng, d, a, semiring)
        for law, x, y in (
                ("compose_assoc", compose(h, compose(g, f)),
                 compose(compose(h, g), f)),
                ("compose_unit_left", compose(ident(b), f), f),
                ("compose_unit_right", compose(f, ident(a)), f),
                ("interchange", compose(tensor(g, g2), tensor(f, f2)),
                 tensor(compose(g, f), compose(g2, f2))),
                ("tensor_unit_left", tensor(ident(UNIT), f), f),
                ("tensor_unit_right", tensor(f, ident(UNIT)), f),
                ("dagger_involution", f.dagger().dagger(), f),
                ("dagger_antihomomorphism", compose(g, f).dagger(),
                 compose(f.dagger(), g.dagger())),
                ("dagger_tensor", tensor(f, f2).dagger(),
                 tensor(f.dagger(), f2.dagger())),
                ("dagger_identity", ident(a).dagger(), ident(a))):
            residuals.setdefault(law, []).append(max_abs_diff(x, y))
        cd_rows, _, cd_dev = swap_rows(c, d)
        _, bc_inverse, bc_dev = swap_rows(b, c)
        residuals.setdefault("swap_involution", []).extend(
            (swap_rows(a, b)[2], swap_rows(b, a)[2]))
        residuals.setdefault("swap_naturality", []).extend(
            (cd_dev, bc_dev, semiring.deviation(
                tensor(g, h).array[cd_rows],
                tensor(h, g).array[:, bc_inverse])))
    return LawReport(semiring, trials, tol, {
        law: float(np.max(devs)) for law, devs in residuals.items()})


def law_values(report) -> list:
    return [(law, repr(dev)) for law, dev in report.deviations.items()]


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", [0, 1, 7, 101])
@pytest.mark.parametrize("trials", [1, 2, 200])
def test_check_laws_reports_as_one_trial_at_a_time(semiring, seed, trials):
    for max_dim in (1, 2, 4, 5):
        got = core.check_laws(semiring, trials, seed=seed, max_dim=max_dim)
        want = reference_check_laws(semiring, trials, seed=seed,
                                    max_dim=max_dim)
        assert list(got.deviations) == list(core.LAW_NAMES)
        assert law_values(got) == law_values(want)
        assert (got.ok, repr(got.max_deviation)) == (
            want.ok, repr(want.max_deviation))


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", [0, 7])
def test_check_laws_checks_each_span_group_once(semiring, seed, monkeypatch):
    calls = {"compose": 0, "tensor": 0}
    spans = {"ab": set(), "abc": set(), "bcd": set(), "abcd": set()}
    draw = core.random_mor
    drawn = []

    def recorded(rng, dom, cod, semiring):
        drawn.append((dom.dim, cod.dim))
        return draw(rng, dom, cod, semiring)

    def counted(name, op):
        def call(x, y):
            calls[name] += 1
            return op(x, y)
        return call
    monkeypatch.setattr(core, "random_mor", recorded)
    monkeypatch.setattr(core, "compose", counted("compose", core.compose))
    monkeypatch.setattr(core, "tensor", counted("tensor", core.tensor))
    trials = 200
    assert core.check_laws(semiring, trials, seed=seed).ok
    for n in range(trials):
        (a, b), (_, c), (_, d) = drawn[5 * n:5 * n + 3]
        spans["ab"].add((a, b))
        spans["abc"].add((a, b, c))
        spans["bcd"].add((b, c, d))
        spans["abcd"].add((a, b, c, d))
    ab, abc, bcd, abcd = (len(spans[k]) for k in ("ab", "abc", "bcd", "abcd"))
    # per (a, b) group both units compose, per (a, b, c) the composite and
    # the composite of daggers, per (a, b, c, d) six composites; both
    # tensor units per (a, b), both sides of naturality per (b, c, d),
    # four tensors per (a, b, c, d)
    assert calls == {"compose": 2 * ab + 2 * abc + 6 * abcd,
                     "tensor": 2 * ab + 2 * bcd + 4 * abcd}
    assert abcd < trials


@pytest.mark.parametrize("batched_call,slot", [(0, 0), (3, -1), (9, 1),
                                               (20, -1)])
def test_a_nan_in_one_slice_of_a_group_reaches_only_its_law(
        batched_call, slot, monkeypatch):
    clean = core.check_laws(COMPLEX, 200, seed=1)
    deviation = core.max_abs_diff
    batched = []

    def poisoned(f, g):
        dev = deviation(f, g)
        if np.ndim(dev) and len(dev) > 1:
            batched.append(1)
            if len(batched) - 1 == batched_call:
                dev = dev.copy()
                dev[slot] = np.nan
        return dev
    monkeypatch.setattr(core, "max_abs_diff", poisoned)
    report = core.check_laws(COMPLEX, 200, seed=1)
    assert len(batched) > batched_call
    nan_laws = [law for law, dev in report.deviations.items() if dev != dev]
    assert len(nan_laws) == 1
    assert not report.ok and np.isnan(report.max_deviation)
    assert [pair for pair in law_values(report) if pair[0] not in nan_laws] \
        == [pair for pair in law_values(clean) if pair[0] not in nan_laws]


def reference_xi_samples(semiring, samples, seed, tol, max_dim=3) -> list:
    """``run_xi``'s per-sample reports, each sample drawn and checked in
    turn."""
    rng = np.random.default_rng(seed)
    env = axioms.EnvStructure.standard(semiring)
    reports = []
    for n in range(samples):
        a, b, c, b2, c2, a3, b3 = (
            Obj(int(d)) for d in rng.integers(1, max_dim + 1, size=7))
        k = axioms._random_kraus(rng, a, b, c, semiring)
        k2 = axioms._random_kraus(rng, b, b2, c2, semiring)
        k3 = axioms._random_kraus(rng, a3, b3, c, semiring)
        def lift(k):
            return axioms.xi_lift(env, k)
        xk = lift(k)
        one = AxiomReport("xi", True, 0)
        for law, dev in (
                ("identity_on_forms", cp_deviation(xk, k)),
                ("compose", cp_deviation(lift(cp_compose(k2, k)),
                                         cp_compose(lift(k2), xk))),
                ("tensor", cp_deviation(lift(cp_tensor(k, k3)),
                                        cp_tensor(xk, lift(k3))))):
            one.observe(semiring.within(dev, tol), dev,
                        {"law": law, "deviation": dev})
        m1 = random_mor(rng, a, b, semiring)
        sub = check_doubling_pair(pure(m1),
                                  pure(axioms._partner(rng, m1, n)), tol)
        one.observe(sub.holds, sub.max_deviation, sub.witness, sub.checked)
        reports.append(one)
    return reports


def reference_run_xi(semiring, samples=100, seed=0, tol=1e-9):
    """``run_xi`` one sample at a time."""
    total = AxiomReport("xi", True, 0, samples=samples)
    for one in reference_xi_samples(semiring, samples, seed, tol):
        total.observe(one.holds, one.max_deviation, one.witness, one.checked)
    return total


def xi_samples(monkeypatch, *args, **kwargs) -> list:
    """``run_xi``'s per-sample reports, as its fold receives them."""
    kept, fold = [], axioms._fold

    def keeping(axiom, samples, seed, run):
        def kept_run(rng, indices):
            reports = run(rng, indices)
            kept.extend(reports)
            return reports
        return fold(axiom, samples, seed, kept_run)
    monkeypatch.setattr(axioms, "_fold", keeping)
    axioms.run_xi(*args, **kwargs)
    return kept


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed,tol", [(0, 1e-9), (3, 1e-15), (7, 1e-15),
                                      (11, 0.0), (5, 0.3)])
def test_run_xi_reports_as_one_sample_at_a_time(semiring, seed, tol):
    got = axioms.run_xi(semiring, samples=60, seed=seed, tol=tol)
    want = reference_run_xi(semiring, samples=60, seed=seed, tol=tol)
    assert same_report(got, want)


@pytest.mark.parametrize("tol", [1e-9, 1e-15])
def test_a_perturbed_lift_reports_as_one_sample_at_a_time(tol, monkeypatch):
    # the exact lifts give every sample the same identity deviation, 0.0;
    # scaling each lifted map by its own first entry makes the deviation
    # differ from sample to sample and from map to map, slice by slice
    lift = axioms.xi_lift

    def perturbed(env, k):
        x = lift(env, k)
        arr = x.mor.array * (1 + 1e-10 * np.abs(x.mor.array[..., :1, :1]))
        return KrausMor._of(Mor._of(x.dom, x.mor.cod, arr, COMPLEX),
                            x.out, x.ancilla)
    monkeypatch.setattr(axioms, "xi_lift", perturbed)
    got = axioms.run_xi(COMPLEX, samples=60, seed=7, tol=tol)
    want = reference_run_xi(COMPLEX, samples=60, seed=7, tol=tol)
    assert same_report(got, want)
    assert got.max_deviation > 0
    # each sample folds its laws before its doubling pair: at 1e-15 both
    # fail on some samples, whose witness is then the first law's
    got = xi_samples(monkeypatch, COMPLEX, samples=60, seed=7, tol=tol)
    want = reference_xi_samples(COMPLEX, 60, 7, tol)
    assert all(same_report(x, y) for x, y in zip(got, want))
    assert len(got) == len(want) == 60


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
def test_run_xi_lifts_each_kraus_type_once(semiring, monkeypatch):
    drawn, batched, single = [], [], []
    random_kraus, lift = axioms._random_kraus, axioms.xi_lift

    def recorded(rng, a, b, c, sem):
        drawn.append((a.dim, b.dim, c.dim))
        return random_kraus(rng, a, b, c, sem)

    def lifted(env, k):
        if k.mor.array.ndim > 2:
            batched.append((k.dom.dim, k.out.dim, k.ancilla.dim))
        else:
            single.append(k)
        return lift(env, k)
    monkeypatch.setattr(axioms, "_random_kraus", recorded)
    monkeypatch.setattr(axioms, "xi_lift", lifted)
    assert axioms.run_xi(semiring, samples=100).holds
    assert len(drawn) == 300
    assert sorted(batched) == sorted(set(drawn))
    # the compose and tensor laws lift their composites one at a time
    assert len(single) == 200


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
def test_run_env_b_builds_each_lift_once_per_output_and_ancilla(
        semiring, monkeypatch):
    groups, envs, discards = [], [], []
    check, discard = axioms.check_env_b_pair, axioms.discard

    def checked(env, f, g, tol):
        groups.append((f.dom.dim,) + f.cod.factors)
        envs.append(env)
        return check(env, f, g, tol)

    def counted(a, sem):
        discards.append(a.dim)
        return discard(a, sem)
    monkeypatch.setattr(axioms, "check_env_b_pair", checked)
    monkeypatch.setattr(axioms, "discard", counted)
    cached = axioms.run_env_b(semiring, seed=3, tol=1e-15)
    # the run's one structure holds one lift per (ancilla, output)
    env = envs[0]
    assert all(e is env for e in envs)
    assert {key[1:] for key in env._lifts} == {
        (Obj(c), Obj(b)) for _, c, b in groups}
    assert len(discards) == len(env._lifts) < len(groups)
    monkeypatch.setattr(axioms.EnvStructure, "_lift",
                        lambda self, key, build: build())
    groups.clear()
    discards.clear()
    built = axioms.run_env_b(semiring, seed=3, tol=1e-15)
    assert len(discards) == len(groups)
    assert same_report(cached, built)


# --- chunks of consecutive samples -----------------------------------------

SAMPLED = [(runner, semiring)
           for runner in (axioms.run_env_b, axioms.run_env_c,
                          axioms.run_doubling, axioms.run_prep_state,
                          axioms.run_replay, axioms.run_xi)
           for semiring in SEMIRINGS
           # env-c needs an instance with supports_channels, such as complex
           if not (runner is axioms.run_env_c and semiring is BOOLEAN)]


def chunked(monkeypatch, size, module, run):
    """``run()`` at chunk ``size``: its result, every morphism drawn
    through ``module.random_mor`` and, for an axiom runner, the
    per-sample reports its fold receives."""
    drawn, kept = [], []
    draw, fold = module.random_mor, axioms._fold

    def recorded(*args):
        m = draw(*args)
        drawn.append((m.dom, m.cod, m.array.tobytes()))
        return m

    def keeping(axiom, samples, seed, run):
        def kept_run(rng, indices):
            reports = list(run(rng, indices))
            kept.extend(reports)
            return reports
        return fold(axiom, samples, seed, kept_run)
    with monkeypatch.context() as patch:
        if size:
            patch.setattr(core, "SAMPLE_CHUNK", size)
        patch.setattr(module, "random_mor", recorded)
        patch.setattr(axioms, "_fold", keeping)
        return run(), drawn, kept


@pytest.mark.parametrize("runner,semiring", SAMPLED,
                         ids=lambda x: getattr(x, "__name__", None)
                         or x.name)
@pytest.mark.parametrize("tol", [None, 1e-15])
def test_chunked_runs_report_as_one_chunk(runner, semiring, tol,
                                          monkeypatch):
    def run():
        # each runner at its own default tolerance, and at a failing one
        return runner(semiring, samples=60, seed=4,
                      **({} if tol is None else {"tol": tol}))
    whole, drawn, kept = chunked(monkeypatch, None, axioms, run)
    assert len(kept) == 60
    for size in (1, 7):
        report, chunk_drawn, chunk_kept = chunked(monkeypatch, size, axioms,
                                                  run)
        assert chunk_drawn == drawn, size
        assert len(chunk_kept) == 60, size
        assert all(map(same_report, chunk_kept, kept)), size
        assert same_report(report, whole), size


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("tol", [1e-9, 1e-15])
def test_chunked_laws_report_as_one_chunk(semiring, tol, monkeypatch):
    def run():
        return core.check_laws(semiring, 60, tol, seed=4)
    whole, drawn, _ = chunked(monkeypatch, None, core, run)
    assert len(drawn) == 5 * 60
    for size in (1, 7):
        report, chunk_drawn, _ = chunked(monkeypatch, size, core, run)
        assert chunk_drawn == drawn, size
        assert law_values(report) == law_values(whole), size
        assert report.ok == whole.ok


def traced_peak(run, count: int) -> int:
    tracemalloc.start()
    try:
        run(count)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_sample_count(monkeypatch):
    monkeypatch.setattr(core, "SAMPLE_CHUNK", 100)

    def run(samples):
        axioms.run_doubling(COMPLEX, samples=samples)
    run(30)  # the first call imports and caches what later ones reuse
    assert traced_peak(run, 3000) <= 1.5 * traced_peak(run, 300)
