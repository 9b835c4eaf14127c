"""Doubled morphisms carried with their Kraus representatives.

The realized matrix of ``f : A -> B ⊗ C`` lives on doubled wires: entry
``[(b', b), (a', a)]`` is ``sum_c conj(f[(b', c), a']) f[(b, c), a]``.
The realized matrices of a CP composite and a CP tensor must then be the
ordinary matrix product and the interleaved Kronecker product of the
parts' realized matrices.
The compact-structure diagrams, built from explicit ``swap`` and ``cap``
morphisms, are a second oracle for the contraction kernel.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpcat import (BOOLEAN, COMPLEX, SEMIRINGS, CpmMor, KrausMor, Mor, Obj,
                   cap, compose, conj_star, cp_compose, cp_form, cp_identity,
                   cp_tensor, cpm_dagger, cpm_form, cup, identity, random_mor,
                   swap, tensor)
from cpcat import core
from cpcat.core import BooleanSemiring, ComplexSemiring, contract, gram
from cpcat.errors import NotCompact


def realized_oracle(k):
    na, nb, nc = k.dom.dim, k.out.dim, k.ancilla.dim
    f = k.mor.array
    if k.semiring is BOOLEAN:
        out = np.zeros((nb * nb, na * na), dtype=np.bool_)
    else:
        out = np.zeros((nb * nb, na * na), dtype=np.complex128)
    for b2 in range(nb):
        for b in range(nb):
            for a2 in range(na):
                for a in range(na):
                    acc = False if k.semiring is BOOLEAN else 0.0
                    for c in range(nc):
                        l = f[b2 * nc + c, a2]
                        r = f[b * nc + c, a]
                        if k.semiring is BOOLEAN:
                            acc = acc or (l and r)
                        else:
                            acc = acc + np.conj(l) * r
                    out[b2 * nb + b, a2 * na + a] = acc
    return out


def random_kraus(rng, na, nb, nc, semiring=COMPLEX):
    m = random_mor(rng, Obj(na), Obj(nb, nc), semiring)
    return KrausMor(m, Obj(nb), Obj(nc))


def diagram_realized(k):
    """``(id_B ⊗ cap_C ⊗ id_B) ∘ (f_* ⊗ f')`` with ``f' = swap(B, C) ∘ f``.

    ``f_*`` is the lower star of ``f'``: ``swap(C, B)`` after its
    entrywise conjugate.
    """
    b, c, sem = k.out, k.ancilla, k.semiring
    front = compose(swap(b, c, sem), k.mor)
    starred = compose(swap(c, b, sem), front.conjugate())
    bend = tensor(identity(b, sem), tensor(cap(c, sem), identity(b, sem)))
    return compose(bend, tensor(starred, front))


def diagram_dagger(k):
    """``(f† ⊗ id_C) ∘ (id_B ⊗ cup_C)``."""
    c, sem = k.ancilla, k.semiring
    feed = tensor(identity(k.out, sem), cup(c, sem))
    return compose(tensor(k.mor.dagger(), identity(c, sem)), feed)


def assert_same(got, want):
    """Exact on booleans; complex sums of a few products agree to 1e-12."""
    if want.dtype == np.bool_:
        assert got.dtype == np.bool_
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
def test_cpm_form_matches_loop_oracle(semiring):
    rng = np.random.default_rng(31)
    for _ in range(5):
        k = random_kraus(rng, 2, 3, 2, semiring)
        got = cpm_form(k).array
        want = realized_oracle(k)
        if semiring is BOOLEAN:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) < 1e-12


def test_cpm_form_needs_compact_structure():
    for cls in (ComplexSemiring, BooleanSemiring):
        rigid = type("Rigid", (cls,), {"compact": False})("rigid")
        m = Mor(Obj(2), Obj(2, 1), np.eye(2), rigid)
        with pytest.raises(NotCompact):
            cpm_form(KrausMor(m, Obj(2), Obj(1)))


def test_realized_is_a_relabelling_of_the_cp_form():
    rng = np.random.default_rng(32)
    k = random_kraus(rng, 2, 3, 2)
    form = cp_form(k).array
    real = cpm_form(k).array
    na, nb = 2, 3
    for a in range(na):
        for b in range(nb):
            for a2 in range(na):
                for b2 in range(nb):
                    assert abs(form[a2 * nb + b2, a * nb + b]
                               - real[b * nb + b2, a2 * na + a]) < 1e-12


def test_cpm_identity_realizes_as_the_identity():
    assert np.array_equal(cpm_form(cp_identity(2)).array, np.eye(4))
    assert np.array_equal(cpm_form(cp_identity(3, BOOLEAN)).array,
                          np.eye(9) > 0)


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
def test_cpm_compose_realizes_as_matrix_product(semiring):
    rng = np.random.default_rng(33)
    f = random_kraus(rng, 2, 3, 2, semiring)
    g = random_kraus(rng, 3, 2, 2, semiring)
    h = cpm_form(cp_compose(g, f))
    want = semiring.matmul(cpm_form(g).array, cpm_form(f).array)
    if semiring is BOOLEAN:
        assert np.array_equal(h.array, want)
    else:
        assert np.max(np.abs(h.array - want)) < 1e-12


def test_cpm_tensor_realizes_as_interleaved_kronecker():
    rng = np.random.default_rng(34)
    k1 = random_kraus(rng, 2, 2, 2)
    k2 = random_kraus(rng, 2, 2, 3)
    r1, r2 = cpm_form(k1).array, cpm_form(k2).array
    got = cpm_form(cp_tensor(k1, k2)).array
    for b1 in range(2):
        for b1p in range(2):
            for b2 in range(2):
                for b2p in range(2):
                    for a1 in range(2):
                        for a1p in range(2):
                            for a2 in range(2):
                                for a2p in range(2):
                                    row = ((b1p * 2 + b2p) * 2 + b1) * 2 + b2
                                    col = ((a1p * 2 + a2p) * 2 + a1) * 2 + a2
                                    want = (r1[b1p * 2 + b1, a1p * 2 + a1]
                                            * r2[b2p * 2 + b2, a2p * 2 + a2])
                                    assert abs(got[row, col] - want) < 1e-12


def test_cpm_dagger_realizes_as_the_adjoint():
    rng = np.random.default_rng(35)
    k = random_kraus(rng, 2, 3, 2)
    back = cpm_dagger(k)
    assert back.dom == Obj(3)
    assert back.out == Obj(2)
    assert np.array_equal(cpm_form(back).array,
                          cpm_form(k).array.conj().T)


def test_cpm_dagger_realizes_as_the_adjoint_on_many_shapes():
    """The mirror is exact on 240 seeded shapes up to 24^3.

    Entry magnitudes spread from 1e-3 to 1e3.  A BLAS Gram product in
    ``cpm_form`` fails this on most shapes: its rounding depends on
    where a row sits and how the buffer is aligned.
    """
    rng = np.random.default_rng(39)
    for _ in range(240):
        na, nb, nc = (int(d) for d in rng.integers(1, 25, 3))
        m = random_mor(rng, Obj(na), Obj(nb, nc))
        scaled = m.array * 10.0 ** rng.uniform(-3, 3, m.array.shape)
        k = KrausMor(Mor(m.dom, m.cod, scaled), Obj(nb), Obj(nc))
        assert np.array_equal(cpm_form(cpm_dagger(k)).array,
                              cpm_form(k).array.conj().T), (na, nb, nc)


def test_cpm_dagger_boolean_is_the_converse():
    rng = np.random.default_rng(36)
    k = random_kraus(rng, 2, 2, 2, BOOLEAN)
    back = cpm_dagger(k)
    assert np.array_equal(cpm_form(back).array, cpm_form(k).array.T)


def test_cpm_dagger_needs_compact_structure():
    for cls in (ComplexSemiring, BooleanSemiring):
        rigid = type("Rigid", (cls,), {"compact": False})("rigid")
        m = Mor(Obj(2), Obj(2, 1), np.eye(2), rigid)
        with pytest.raises(NotCompact) as caught:
            cpm_dagger(KrausMor(m, Obj(2), Obj(1)))
        assert str(caught.value) == "rigid has no compact structure"


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def relabelled_once(rng, batch):
    """``cpm_dagger`` of ``32 -> 32 ⊗ 32`` maps; oracle: a relabelled conj."""
    k = complex_kraus(COMPLEX.random_entries(rng, batch + (1024, 32)),
                      32, 32, 32)
    want = contract("...bca->...acb", np.conj(k.as_tensor()), rows=1024)
    return lambda: cpm_dagger(k).mor.array, want


def starred_once(rng, batch):
    """``conj_star`` of ``32 -> 32 ⊗ 32``; oracle: a relabelled conj."""
    f = random_mor(rng, Obj(32), Obj(32, 32))
    want = contract("cba->bca", np.conj(f.array).reshape(32, 32, 32),
                    rows=1024)
    return lambda: conj_star(f).array, want


@pytest.mark.parametrize("make, batch", [
    (relabelled_once, ()), (relabelled_once, (3,)), (starred_once, ())],
    ids=["cpm_dagger", "cpm_dagger-batch", "conj_star"])
def test_the_relabellings_at_32_cubed_copy_their_entries_once(make, batch):
    # conjugating the relabelled view makes one copy, the result;
    # relabelling a conjugated copy makes two.  Below 32^3 numpy's
    # buffering of a strided ufunc input, 8192 entries a block, reads
    # about 2x the result either way
    run, want = make(np.random.default_rng(42), batch)
    built = []
    peak = peak_bytes(lambda: built.append(run()))
    assert_bits(built[0], want)
    assert peak <= 1.3 * want.nbytes


def test_cpm_of_kraus_packs_both_views():
    rng = np.random.default_rng(38)
    k = KrausMor(random_mor(rng, Obj(2), Obj(2, 3)), Obj(2), Obj(3))
    packed = CpmMor.of(k)
    assert packed.kraus is k
    assert np.array_equal(packed.realized.array, cpm_form(k).array)


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 1, 2), (2, 3, 1),
                                   (1, 2, 3), (4, 2, 2)])
def test_cpm_form_and_dagger_match_the_diagrams(semiring, shape):
    rng = np.random.default_rng([53, *shape])
    for _ in range(3):
        k = random_kraus(rng, *shape, semiring)
        got, want = cpm_form(k), diagram_realized(k)
        assert (got.dom, got.cod) == (want.dom, want.cod)
        assert_same(got.array, want.array)
        back = cpm_dagger(k)
        assert (back.dom, back.out, back.ancilla) == (k.out, k.dom, k.ancilla)
        assert_same(back.mor.array, diagram_dagger(k).array)


# --- the boolean realized matrix is a relabelling of the kept Gram tensor ---

def boolean_kraus(rng, na, nb, nc, density, batch=()):
    """A boolean Kraus morphism, or a stack of them, of one density."""
    out, anc = Obj(nb), Obj(nc)
    arr = rng.random(batch + (nb * nc, na)) < density
    return KrausMor._of(Mor._of(Obj(na), out @ anc, arr, BOOLEAN), out, anc)


def contracted(k):
    """The realized matrix as one sum of the exact kernel, every entry.

    The oracle of both instances; ``conj`` of a boolean array is a copy.
    """
    m = k.as_rows()
    return contract("...xac,...yec->...xyae", k.semiring.conj(m), m,
                    rows=k.out.dim ** 2)


def test_boolean_cpm_form_is_the_exact_contraction():
    """Every shape in 1..8 at two densities, batches, and larger shapes.

    12^3 is the ``relations-large`` workload's largest; 32 -> 16 ⊗ 5 has
    a Gram product of 512 rows, which takes the lookup-table route.
    """
    rng = np.random.default_rng(54)
    shapes = [(na, nb, nc) for na in range(1, 9) for nb in range(1, 9)
              for nc in range(1, 9)] + [(12, 12, 12), (32, 16, 5)]
    for shape in shapes:
        for density in (0.1, 0.5):
            k = boolean_kraus(rng, *shape, density)
            got = cpm_form(k).array
            assert got.dtype == np.bool_
            assert np.array_equal(got, contracted(k)), (shape, density)
    for n, shape in [(1, (3, 2, 4)), (7, (2, 5, 3)), (40, (6, 4, 1)),
                     (5, (12, 12, 12))]:
        k = boolean_kraus(rng, *shape, 0.3, batch=(n,))
        got = cpm_form(k).array
        assert got.shape == (n, shape[1] ** 2, shape[0] ** 2)
        assert np.array_equal(got, contracted(k)), (n, shape)


def test_cpm_dagger_boolean_is_the_converse_on_many_shapes():
    """The boolean mirror on the complex mirror test's 240 shapes."""
    rng = np.random.default_rng(39)
    for _ in range(240):
        na, nb, nc = (int(d) for d in rng.integers(1, 25, 3))
        k = KrausMor(random_mor(rng, Obj(na), Obj(nb, nc), BOOLEAN),
                     Obj(nb), Obj(nc))
        assert np.array_equal(cpm_form(cpm_dagger(k)).array,
                              cpm_form(k).array.T), (na, nb, nc)


def test_boolean_forms_share_one_gram_product(monkeypatch):
    calls = []

    def counted(m, semiring):
        calls.append(m.shape)
        return gram(m, semiring)
    monkeypatch.setattr(core, "gram", counted)
    rng = np.random.default_rng(55)
    for forms in [(cp_form, cpm_form), (cpm_form, cp_form)]:
        calls.clear()
        k = boolean_kraus(rng, 4, 3, 2, 0.5)
        forms[0](k)
        assert calls == [(12, 2)]
        forms[1](k)
        assert calls == [(12, 2)]


# --- the complex realized matrix sums half its blocks and mirrors the rest ---

def complex_kraus(entries, na, nb, nc):
    """Complex Kraus morphisms ``na -> nb ⊗ nc``, one or a stack."""
    out, anc = Obj(nb), Obj(nc)
    return KrausMor._of(Mor._of(Obj(na), out @ anc, entries, COMPLEX),
                        out, anc)


def assert_bits(got, want):
    """Equal real and imaginary bits, zero signs included; NaN where NaN.

    A NaN's sign and payload are not compared, only where NaNs sit.
    """
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.complex128
    g = np.ascontiguousarray(got).view(np.float64)
    w = np.ascontiguousarray(want).view(np.float64)
    nan = np.isnan(w)
    assert np.array_equal(np.isnan(g), nan)
    assert np.array_equal(g.view(np.uint64)[~nan], w.view(np.uint64)[~nan])


def assert_mirrored(realized, nb, na):
    """Block ``(y, x)`` is block ``(x, y)`` mirrored, bit for bit.

    ``R[y, x, e, a]`` has the real part of ``R[x, y, a, e]`` and the
    imaginary part ``0 - im``: what the strips fill in.  Checked on the
    one-sum oracle, this fails if einsum stops rounding ``conj(u) v`` and
    ``conj(v) u`` to mirrored values (a fused multiply-add would).
    """
    r = realized.reshape(realized.shape[:-2] + (nb, nb, na, na))
    mirror = r.swapaxes(-4, -3).swapaxes(-2, -1)
    want = np.empty_like(r)
    want.real = mirror.real
    with np.errstate(invalid="ignore"):
        want.imag = 0.0 - mirror.imag
    assert_bits(r, want)


@pytest.fixture(params=["strips everywhere", "as shipped"])
def route(request, monkeypatch):
    """Run once with every shape summed strip by strip, once as shipped."""
    if request.param == "strips everywhere":
        monkeypatch.setattr(core, "STRIP_MIN_TERMS", 0)


def assert_matches_the_one_sum(k):
    want = contracted(k)
    assert_mirrored(want, k.out.dim, k.dom.dim)
    with np.errstate(invalid="ignore"):
        got = cpm_form(k).array
    assert_bits(got, want)


def test_complex_cpm_form_is_the_one_sum_bitwise_on_the_mirror_shapes(route):
    """The 240 shapes of the mirror test, dims 1-24, magnitudes 1e-3-1e3."""
    rng = np.random.default_rng(39)
    for _ in range(240):
        na, nb, nc = (int(d) for d in rng.integers(1, 25, 3))
        m = random_mor(rng, Obj(na), Obj(nb, nc))
        scaled = m.array * 10.0 ** rng.uniform(-3, 3, m.array.shape)
        assert_matches_the_one_sum(complex_kraus(scaled, na, nb, nc))


# dims of 1 in every position, shapes on either side of the strip
# threshold (8^3 just below it) and 24^3, alone and in batches
ONE_SUM_SHAPES = [(1, 1, 1), (1, 5, 3), (4, 1, 3), (4, 5, 1), (1, 1, 7),
                  (7, 1, 1), (1, 7, 1), (3, 5, 4), (6, 6, 6), (8, 8, 8),
                  (12, 12, 12), (5, 16, 9)]
ONE_SUM_CASES = [(batch, shape) for shape in ONE_SUM_SHAPES
                 for batch in [(), (1,), (7,), (40,)]] + [((), (24, 24, 24))]


@pytest.mark.parametrize("batch, shape", ONE_SUM_CASES)
def test_complex_cpm_form_is_the_one_sum_bitwise_on_batches(route, batch,
                                                             shape):
    na, nb, nc = shape
    rng = np.random.default_rng([61, *batch, *shape])
    entries = COMPLEX.random_entries(rng, batch + (nb * nc, na))
    assert_matches_the_one_sum(complex_kraus(entries, na, nb, nc))


# each part of an entry drawn from these: zeros of both signs,
# subnormals, the smallest normal, infinities and plain values
SPECIAL_PARTS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320,
                          2.2250738585072014e-308, np.inf, -np.inf, 1.0,
                          -1.5, 0.75, 1e300])


def special_entries(rng, shape, parts=SPECIAL_PARTS):
    entries = np.empty(shape, np.complex128)
    entries.real = rng.choice(parts, shape)
    entries.imag = rng.choice(parts, shape)
    return entries


@pytest.mark.parametrize("batch, shape", [((), (6, 6, 6)), ((), (3, 4, 5)),
                                          ((7,), (5, 5, 2)),
                                          ((40,), (2, 3, 4)),
                                          ((), (16, 16, 16))])
def test_complex_cpm_form_keeps_zero_signs_subnormals_and_infinities(
        route, batch, shape):
    """Special parts, alone and mixed with plain draws; NaNs by position."""
    na, nb, nc = shape
    rng = np.random.default_rng([62, *batch, *shape])
    full = batch + (nb * nc, na)
    plain = COMPLEX.random_entries(rng, full)
    # the last draw keeps to zeros and tiny parts: no NaN hides a sign
    for entries in [special_entries(rng, full),
                    np.where(rng.random(full) < 0.2,
                             special_entries(rng, full), plain),
                    special_entries(rng, full, SPECIAL_PARTS[:7])]:
        assert_matches_the_one_sum(complex_kraus(entries, na, nb, nc))


@pytest.mark.parametrize("shape", [(2, 2, 1), (3, 3, 2), (6, 6, 6),
                                   (16, 16, 16)])
def test_a_real_map_has_only_positive_zero_imaginary_parts(route, shape):
    # every imaginary part cancels to +0 in the one sum; conjugating the
    # mirrored half would turn it into -0
    na, nb, nc = shape
    rng = np.random.default_rng([63, *shape])
    k = complex_kraus(rng.normal(size=(nb * nc, na)) + 0j, na, nb, nc)
    assert not np.signbit(cpm_form(k).array.imag).any()
    assert_matches_the_one_sum(k)


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 8)] * 3),
       batch=st.lists(st.integers(1, 4), max_size=2).map(tuple),
       seed=st.integers(0, 2 ** 32 - 1), special=st.booleans())
def test_complex_cpm_form_is_the_one_sum_bitwise_property(dims, batch, seed,
                                                          special):
    na, nb, nc = dims
    rng = np.random.default_rng(seed)
    full = batch + (nb * nc, na)
    entries = (special_entries(rng, full) if special
               else COMPLEX.random_entries(rng, full))
    k = complex_kraus(entries, na, nb, nc)
    for strips_from in (0, core.STRIP_MIN_TERMS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "STRIP_MIN_TERMS", strips_from)
            assert_matches_the_one_sum(k)


@pytest.mark.parametrize("shape, strips", [
    ((8, 8, 8), False), ((12, 12, 12), True), ((1, 24, 24), False),
    ((8, 16, 16), True), ((16, 16, 1), False)])
def test_the_realized_matrix_takes_one_sum_or_one_per_output_index(
        monkeypatch, shape, strips):
    # entries * (ancilla - 1) / out against STRIP_MIN_TERMS: 3584, 19008,
    # 552, 15360 and 0 products beyond each entry's first per strip
    calls = []

    def counted(spec, *operands, **kwargs):
        calls.append(spec)
        return contract(spec, *operands, **kwargs)
    monkeypatch.setattr(core, "contract", counted)
    na, nb, nc = shape
    rng = np.random.default_rng([64, *shape])
    k = complex_kraus(COMPLEX.random_entries(rng, (nb * nc, na)), na, nb, nc)
    cpm_form(k)
    assert len(calls) == (nb if strips else 1)
