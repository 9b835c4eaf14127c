"""Morphisms the package builds itself, without the public constructor.

Every such result must look exactly like one from ``Mor(...)``: a
read-only array of the semiring's dtype, shaped codomain by domain.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cpcat import (COMPLEX, SEMIRINGS, ChoiMatrix, EnvStructure,
                   KrausMor, Obj, Superoperator, choi_of_kraus,
                   choi_of_superop, compose, cp_compose, cp_form, cp_identity,
                   cp_tensor, cpm_dagger, cpm_form, discard,
                   factor_permutation, identity, kraus_from_choi, pure,
                   random_mor, schrodinger_of, superop_compose, tensor,
                   xi_lift)
from cpcat.axioms import _as_state


def assert_built(m, semiring):
    assert m.semiring is semiring
    assert m.array.dtype == semiring.dtype
    assert m.array.shape == (m.cod.dim, m.dom.dim)
    assert not m.array.flags.writeable
    with pytest.raises(ValueError):
        m.array[0, 0] = m.array[0, 0]


def random_kraus(rng, a, b, c, semiring):
    return KrausMor(random_mor(rng, Obj(a), Obj(b, c), semiring),
                    Obj(b), Obj(c))


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
def test_core_results_are_frozen_and_typed(semiring):
    rng = np.random.default_rng(5)
    f = random_mor(rng, Obj(2, 3), Obj(4), semiring)
    g = random_mor(rng, Obj(4), Obj(1, 5), semiring)
    for m in (f, g, compose(g, f), tensor(f, g), f.dagger(), f.conjugate(),
              identity(Obj(2, 2), semiring), f.retyped(Obj(6), Obj(2, 2)),
              factor_permutation((2, 3, 2), (2, 0, 1), semiring)):
        assert_built(m, semiring)


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
def test_cp_results_are_frozen_and_typed(semiring):
    rng = np.random.default_rng(6)
    k1 = random_kraus(rng, 2, 3, 2, semiring)
    k2 = random_kraus(rng, 3, 2, 3, semiring)
    for m in (cp_form(k1), cpm_form(k1), cp_compose(k2, k1).mor,
              cp_tensor(k1, k2).mor):
        assert_built(m, semiring)


def test_choi_and_extracted_kraus_are_frozen_and_typed():
    k = random_kraus(np.random.default_rng(7), 2, 3, 2, COMPLEX)
    choi = choi_of_kraus(k)
    assert choi.matrix.dtype == np.complex128
    assert choi.matrix.shape == (6, 6)
    assert not choi.matrix.flags.writeable
    dilation = kraus_from_choi(choi)
    assert_built(dilation.mor.mor, COMPLEX)
    # the operators share the morphism's entries, so they are frozen too
    assert not any(op.flags.writeable for op in dilation.kraus_ops)


def test_channel_matrices_are_frozen_and_only_the_public_constructors_copy():
    m = np.eye(4, dtype=np.complex128)
    for public in (ChoiMatrix(2, 2, m), Superoperator(2, 2, m)):
        assert not np.shares_memory(public.matrix, m)
        assert not public.matrix.flags.writeable
    rng = np.random.default_rng(8)
    k = random_kraus(rng, 2, 3, 2, COMPLEX)
    back = random_kraus(rng, 3, 2, 2, COMPLEX)
    s, c = schrodinger_of(k), choi_of_kraus(k)
    for built, shape in ((c, (6, 6)), (s, (9, 4)),
                         (superop_compose(schrodinger_of(back), s), (4, 4)),
                         (choi_of_superop(s), (6, 6))):
        assert built.matrix.dtype == np.complex128
        assert built.matrix.shape == shape
        assert not built.matrix.flags.writeable
        with pytest.raises(ValueError):
            built.matrix[0, 0] = 0


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.sampled_from(tuple(SEMIRINGS.values())),
       st.lists(st.integers(1, 3), min_size=5, max_size=5),
       st.integers(0, 2 ** 32 - 1))
def test_package_made_kraus_morphisms_match_their_public_rebuild(
        semiring, dims, seed):
    """``KrausMor._of`` skips the checks; its results must not need them."""
    a, b, c, b2, c2 = dims
    rng = np.random.default_rng(seed)
    k = random_kraus(rng, a, b, c, semiring)
    k2 = random_kraus(rng, b, b2, c2, semiring)
    made = [cp_compose(k2, k), cp_tensor(k, k2), cp_identity(a, semiring),
            cp_identity(Obj(b, c), semiring), discard(a, semiring),
            discard(Obj(b, c), semiring), pure(k.mor), cpm_dagger(k),
            xi_lift(EnvStructure.standard(semiring), k), _as_state(k.mor)[0]]
    if semiring is COMPLEX:
        made.append(kraus_from_choi(choi_of_kraus(k)).mor)
    for built in made:
        rebuilt = KrausMor(built.mor, built.out, built.ancilla)
        assert isinstance(built.out, Obj) and isinstance(built.ancilla, Obj)
        assert (rebuilt.out, rebuilt.ancilla) == (built.out, built.ancilla)
        assert rebuilt.mor.cod.factors == built.mor.cod.factors
        assert rebuilt.mor.array.dtype == built.mor.array.dtype
        assert np.array_equal(rebuilt.mor.array, built.mor.array)
        assert_built(built.mor, semiring)
