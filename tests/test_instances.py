"""Cups, caps, duals, and random unitaries."""

import numpy as np
import pytest

from cpcat import (BOOLEAN, SEMIRINGS, Mor, Obj, cap, compose,
                   conj_star, cup, identity, name_of, random_mor,
                   random_unitary, tensor, transpose)
from cpcat.core import BooleanSemiring, ComplexSemiring
from cpcat.errors import MissingFactorSplit, NotCompact


def test_cup_dim_two_entries():
    c = cup(2)
    assert c.dom == Obj()
    assert c.cod == Obj(2, 2)
    assert np.array_equal(c.array, np.array([[1.0], [0.0], [0.0], [1.0]]))


def test_cup_boolean_dtype():
    c = cup(3, BOOLEAN)
    assert c.array.dtype == np.bool_
    assert int(c.array.sum()) == 3


def test_cap_is_dagger_of_cup():
    assert np.array_equal(cap(3).array, cup(3).array.conj().T)


def test_cup_requires_compact_structure():
    for cls in (ComplexSemiring, BooleanSemiring):
        with pytest.raises(NotCompact):
            cup(2, type("Rigid", (cls,), {"compact": False})("rigid"))


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_snake_equations(semiring, n):
    wire = identity(n, semiring)
    left = compose(tensor(cap(n, semiring), wire),
                   tensor(wire, cup(n, semiring)))
    right = compose(tensor(wire, cap(n, semiring)),
                    tensor(cup(n, semiring), wire))
    assert np.array_equal(left.array, wire.array)
    assert np.array_equal(right.array, wire.array)


def test_conj_star_against_entry_loop():
    rng = np.random.default_rng(7)
    f = random_mor(rng, Obj(3), Obj(2, 3))  # A -> C ⊗ B with C=2, B=3
    g = conj_star(f)
    assert g.dom == Obj(3)
    assert g.cod == Obj(3, 2)
    for a in range(3):
        for b in range(3):
            for c in range(2):
                assert g.array[b * 2 + c, a] == np.conj(f.array[c * 3 + b, a])


def test_conj_star_split_errors():
    f = Mor(Obj(1), Obj(2, 2, 2), np.ones((8, 1)))
    with pytest.raises(MissingFactorSplit):
        conj_star(f)


def test_transpose_is_plain_matrix_transpose():
    m = Mor(Obj(2), Obj(3), np.arange(6, dtype=np.complex128).reshape(3, 2)
            + 1j)
    t = transpose(m)
    assert t.dom == Obj(3)
    assert t.cod == Obj(2)
    assert np.array_equal(t.array, m.array.T)


def test_name_of_bends_the_input_wire():
    rng = np.random.default_rng(9)
    f = random_mor(rng, Obj(3), Obj(2))
    named = name_of(f)
    assert named.dom == Obj()
    assert named.cod == Obj(3, 2)
    # entry at (a, b) is f[b, a]; undoing the bend is a reshape
    assert np.array_equal(named.array.reshape(3, 2), f.array.T)
    for a in range(3):
        for b in range(2):
            assert named.array[a * 2 + b, 0] == f.array[b, a]


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(10)
    u = random_unitary(rng, 4)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

