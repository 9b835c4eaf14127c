"""Kraus presentations and their doubled forms.

The doubled form of ``f : A -> B ⊗ C`` is the square matrix on ``A ⊗ B``
with entries ``sum_c conj(f[(b, c), a']) f[(b', c), a]``; two Kraus
morphisms present the same CP map exactly when these forms agree.  Each
test below recomputes the form with plain index loops where it matters.
The diagrams of the CPM construction, built from explicit permutation
morphisms, are a second oracle for the contraction kernel.
"""

import tracemalloc

import numpy as np
import pytest

from cpcat import (BOOLEAN, COMPLEX, KrausMor, Mor, Obj, UNIT, compose,
                   cp_compose, cp_deviation, cp_equal, cp_form, cp_identity,
                   cp_tensor, cpm_form, discard, factor_permutation, identity,
                   pure, random_mor, swap, tensor)
from cpcat.errors import ShapeMismatch


def form_oracle(k):
    """Doubled form by brute-force summation."""
    na, nb, nc = k.dom.dim, k.out.dim, k.ancilla.dim
    f = k.mor.array
    if k.semiring is BOOLEAN:
        out = np.zeros((na * nb, na * nb), dtype=np.bool_)
    else:
        out = np.zeros((na * nb, na * nb), dtype=np.complex128)
    for a in range(na):
        for b in range(nb):
            for a2 in range(na):
                for b2 in range(nb):
                    acc = False if k.semiring is BOOLEAN else 0.0
                    for c in range(nc):
                        left = f[b * nc + c, a2]
                        right = f[b2 * nc + c, a]
                        if k.semiring is BOOLEAN:
                            acc = acc or (left and right)
                        else:
                            acc = acc + np.conj(left) * right
                    out[a2 * nb + b2, a * nb + b] = acc
    return out


def random_kraus(rng, na, nb, nc, semiring=COMPLEX):
    m = random_mor(rng, Obj(na), Obj(nb, nc), semiring)
    return KrausMor(m, Obj(nb), Obj(nc))


def diagram_form(k):
    """``(f ⊗ id_B)† ∘ exchange ∘ (f ⊗ id_B)``, exchange swapping the B wires."""
    b, c, sem = k.out, k.ancilla, k.semiring
    lift = tensor(k.mor, identity(b, sem))
    exchange = factor_permutation((b.dim, c.dim, b.dim), (2, 1, 0), sem)
    return compose(lift.dagger(), compose(exchange, lift))


def diagram_compose(g, f):
    """``(g ⊗ id_Cf) ∘ f``: the later Kraus morphism lifted past the ancilla."""
    return compose(tensor(g.mor, identity(f.ancilla, f.semiring)), f.mor)


def diagram_tensor(k1, k2):
    """``(id ⊗ swap(C1, B2) ⊗ id) ∘ (f1 ⊗ f2)``: outputs before ancillas."""
    sem = k1.semiring
    sort = tensor(identity(k1.out, sem),
                  tensor(swap(k1.ancilla, k2.out, sem),
                         identity(k2.ancilla, sem)))
    return compose(sort, tensor(k1.mor, k2.mor))


def assert_same(got, want):
    """Exact on booleans; complex sums of a few products agree to 1e-12."""
    if want.dtype == np.bool_:
        assert got.dtype == np.bool_
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) < 1e-12


# (dom, out, ancilla): non-cubic, unit ancilla, unit output, unit input
SHAPES = [(2, 3, 4), (3, 1, 2), (2, 3, 1), (1, 2, 3), (4, 2, 2)]


def test_kraus_mor_validates_codomain_split():
    m = Mor(Obj(2), Obj(4), np.ones((4, 2)))
    with pytest.raises(ShapeMismatch):
        KrausMor(m, Obj(3), Obj(2))


def test_kraus_mor_retypes_codomain_to_split():
    m = Mor(Obj(2), Obj(4), np.ones((4, 2)))
    k = KrausMor(m, Obj(2), Obj(2))
    assert k.mor.cod == Obj(2, 2)
    assert k.dom == Obj(2)


def test_cp_form_matches_loop_oracle_complex():
    rng = np.random.default_rng(21)
    for _ in range(5):
        k = random_kraus(rng, 2, 2, 3)
        assert np.max(np.abs(cp_form(k).array - form_oracle(k))) < 1e-12


def test_cp_form_matches_loop_oracle_boolean():
    rng = np.random.default_rng(22)
    for _ in range(5):
        k = random_kraus(rng, 2, 3, 2, BOOLEAN)
        assert np.array_equal(cp_form(k).array, form_oracle(k))


def test_cp_identity_form_is_the_swap():
    assert np.array_equal(cp_form(cp_identity(2)).array, swap(2, 2).array)
    assert np.array_equal(cp_form(cp_identity(UNIT)).array,
                          np.array([[1.0]]))


def test_pure_has_trivial_ancilla():
    rng = np.random.default_rng(23)
    f = random_mor(rng, Obj(2), Obj(3))
    k = pure(f)
    assert k.ancilla == UNIT
    assert k.out == Obj(3)


def test_pure_forms_ignore_global_phase():
    rng = np.random.default_rng(24)
    f = random_mor(rng, Obj(2), Obj(3))
    g = Mor(f.dom, f.cod, np.exp(0.7j) * f.array)
    assert cp_deviation(pure(f), pure(g)) < 1e-12
    assert cp_equal(pure(f), pure(g))
    # the Kraus morphisms themselves differ
    assert np.max(np.abs(f.array - g.array)) > 0.1


def test_pure_is_functorial_on_composition():
    rng = np.random.default_rng(25)
    f = random_mor(rng, Obj(2), Obj(3))
    g = random_mor(rng, Obj(3), Obj(2))
    direct = pure(compose(g, f))
    staged = cp_compose(pure(g), pure(f))
    assert cp_deviation(direct, staged) < 1e-12


def test_discard_is_the_identity_kraus():
    d = discard(2)
    assert d.out == UNIT
    assert d.ancilla == Obj(2)
    assert np.array_equal(d.mor.array, np.eye(2))
    assert np.array_equal(cp_form(d).array, np.eye(2))


def test_discards_tensor_to_the_joint_discard():
    t = cp_tensor(discard(2), discard(3))
    assert np.array_equal(t.mor.array, np.eye(6))
    assert cp_equal(t, discard(Obj(2, 3)))


def test_cp_compose_against_entry_loop():
    rng = np.random.default_rng(26)
    f = random_kraus(rng, 2, 3, 2)
    g = random_kraus(rng, 3, 2, 2)
    h = cp_compose(g, f)
    assert h.dom == Obj(2)
    assert h.out == Obj(2)
    assert h.ancilla == Obj(2, 2)
    # composite Kraus entry: sum over the middle wire only
    for a in range(2):
        for b2 in range(2):
            for c2 in range(2):
                for c1 in range(2):
                    acc = 0.0
                    for b1 in range(3):
                        acc += (g.mor.array[b2 * 2 + c2, b1]
                                * f.mor.array[b1 * 2 + c1, a])
                    row = (b2 * 2 + c2) * 2 + c1
                    assert abs(h.mor.array[row, a] - acc) < 1e-12


def test_cp_tensor_against_entry_loop():
    rng = np.random.default_rng(27)
    k1 = random_kraus(rng, 2, 2, 2)
    k2 = random_kraus(rng, 2, 3, 2)
    t = cp_tensor(k1, k2)
    assert t.out == Obj(2, 3)
    assert t.ancilla == Obj(2, 2)
    f1, f2 = k1.mor.array, k2.mor.array
    for a1 in range(2):
        for a2 in range(2):
            for b1 in range(2):
                for b2 in range(3):
                    for c1 in range(2):
                        for c2 in range(2):
                            row = ((b1 * 3 + b2) * 2 + c1) * 2 + c2
                            got = t.mor.array[row, a1 * 2 + a2]
                            want = (f1[b1 * 2 + c1, a1]
                                    * f2[b2 * 2 + c2, a2])
                            assert abs(got - want) < 1e-12


def test_cp_tensor_forms_multiply_on_product_states():
    # forms of a tensor act factorwise on product inputs
    rng = np.random.default_rng(28)
    k1 = random_kraus(rng, 2, 2, 2)
    k2 = random_kraus(rng, 2, 2, 3)
    t = cp_tensor(k1, k2)
    form1, form2, formt = (cp_form(x).array for x in (k1, k2, t))
    x1 = rng.normal(size=4) + 1j * rng.normal(size=4)
    x2 = rng.normal(size=4) + 1j * rng.normal(size=4)
    # interleave: (a1 b1 a2 b2) order inside the joint form
    joint = np.kron(x1, x2).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).ravel()
    lhs = formt @ joint
    rhs = (np.kron(form1 @ x1, form2 @ x2)
           .reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).ravel())
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_cp_deviation_requires_matching_types():
    with pytest.raises(ShapeMismatch):
        cp_deviation(cp_identity(2), discard(2))


@pytest.mark.parametrize("semiring", [COMPLEX, BOOLEAN])
@pytest.mark.parametrize("na,nb,nc1,nc2", [(1, 1, 1, 1), (2, 3, 1, 4),
                                           (3, 2, 5, 2), (4, 4, 4, 4)])
def test_cp_deviation_is_the_deviation_of_the_doubled_forms(semiring, na, nb,
                                                             nc1, nc2):
    rng = np.random.default_rng([na, nb, nc1, nc2])
    k1 = random_kraus(rng, na, nb, nc1, semiring)
    nudged = k1.mor.array.copy()
    nudged[0, 0] = ~nudged[0, 0] if semiring is BOOLEAN else nudged[0, 0] + 1e-3
    for k2 in (random_kraus(rng, na, nb, nc2, semiring), k1,
               KrausMor(Mor(k1.dom, k1.mor.cod, nudged, semiring), k1.out,
                        k1.ancilla)):
        forms = semiring.deviation(cp_form(k1).array, cp_form(k2).array)
        assert cp_deviation(k1, k2) == forms
        assert cp_deviation(k2, k1) == forms


def test_cp_equal_boolean_is_exact():
    rng = np.random.default_rng(29)
    k = random_kraus(rng, 2, 2, 2, BOOLEAN)
    assert cp_equal(k, k)
    flipped = KrausMor(
        Mor(k.dom, Obj(2, 2), ~k.mor.array, BOOLEAN), Obj(2), Obj(2))
    same = np.array_equal(cp_form(k).array, cp_form(flipped).array)
    assert cp_equal(k, flipped) == same


@pytest.mark.parametrize("semiring", [COMPLEX, BOOLEAN])
@pytest.mark.parametrize("shape", SHAPES)
def test_cp_form_matches_the_diagram(semiring, shape):
    rng = np.random.default_rng([50, *shape])
    for _ in range(3):
        k = random_kraus(rng, *shape, semiring)
        got, want = cp_form(k), diagram_form(k)
        assert (got.dom, got.cod) == (want.dom, want.cod)
        assert_same(got.array, want.array)


@pytest.mark.parametrize("semiring", [COMPLEX, BOOLEAN])
@pytest.mark.parametrize("shape", SHAPES)
def test_cp_compose_matches_the_diagram(semiring, shape):
    rng = np.random.default_rng([51, *shape])
    na, nb, nc = shape
    f = random_kraus(rng, na, nb, nc, semiring)
    g = random_kraus(rng, nb, nc, na, semiring)
    h = cp_compose(g, f)
    assert (h.out, h.ancilla) == (g.out, g.ancilla @ f.ancilla)
    assert_same(h.mor.array, diagram_compose(g, f).array)


@pytest.mark.parametrize("semiring", [COMPLEX, BOOLEAN])
@pytest.mark.parametrize("first,second", [
    ((2, 3, 4), (3, 1, 2)), ((2, 3, 1), (1, 2, 3)), ((3, 1, 2), (2, 2, 1))])
def test_cp_tensor_matches_the_diagram(semiring, first, second):
    rng = np.random.default_rng([52, *first, *second])
    k1 = random_kraus(rng, *first, semiring)
    k2 = random_kraus(rng, *second, semiring)
    t = cp_tensor(k1, k2)
    assert t.dom == k1.dom @ k2.dom
    assert (t.out, t.ancilla) == (k1.out @ k2.out, k1.ancilla @ k2.ancilla)
    assert_same(t.mor.array, diagram_tensor(k1, k2).array)


# unit input, output and ancilla, all three, and larger non-cubic maps
GRAM_SHAPES = [(1, 3, 2), (3, 1, 2), (2, 3, 1), (1, 1, 1), (2, 3, 4),
               (5, 4, 3), (16, 16, 16)]


def einsum_form(k):
    """The doubled form as one ``np.einsum`` sum over the ancilla."""
    f = k.mor.array.reshape(k.out.dim, k.ancilla.dim, k.dom.dim)
    left = f if k.semiring is BOOLEAN else f.conj()
    n = k.dom.dim * k.out.dim
    return np.einsum("bca,dce->adeb", left, f).reshape(n, n)


@pytest.mark.parametrize("semiring", [COMPLEX, BOOLEAN])
@pytest.mark.parametrize("shape", GRAM_SHAPES)
def test_cp_form_matches_its_einsum_sum(semiring, shape):
    rng = np.random.default_rng([54, *shape])
    k = random_kraus(rng, *shape, semiring)
    got, want = cp_form(k).array, einsum_form(k)
    assert got.shape == want.shape
    if semiring is BOOLEAN:
        assert got.dtype == np.bool_
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# A dense permutation of the doubled wires at 16^3 alone takes 256 MB
# (4096^2 complex entries); the contraction needs a few MB.
MEMORY_BOUND = 64 * 2 ** 20


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forms_at_16_cubed_stay_below_the_memory_bound():
    k = random_kraus(np.random.default_rng(40), 16, 16, 16)
    assert peak_bytes(lambda: (cp_form(k), cpm_form(k))) < MEMORY_BOUND


def test_cpm_form_at_16_cubed_allocates_its_result_once():
    # the contraction's output is the morphism's array: no second copy
    k = random_kraus(np.random.default_rng(40), 16, 16, 16)
    built = []
    peak = peak_bytes(lambda: built.append(cpm_form(k)))
    assert peak < 1.5 * built[0].array.nbytes


def test_cp_tensor_of_8_cubed_maps_stays_below_the_memory_bound():
    rng = np.random.default_rng(41)
    k1, k2 = random_kraus(rng, 8, 8, 8), random_kraus(rng, 8, 8, 8)
    assert peak_bytes(lambda: cp_tensor(k1, k2)) < MEMORY_BOUND
