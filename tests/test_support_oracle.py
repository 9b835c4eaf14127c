"""An exact oracle across the two instances: supports.

``x ↦ x > 0`` is a semiring homomorphism from the non-negative reals to
the booleans, and conjugation is the identity on reals.  So for a Kraus
map with real entries in ``{0} ∪ [0.5, 2]``, each construction's complex
result is non-zero exactly where the boolean result on the support of
the input is true, and its imaginary parts are all 0: no sum of
non-negative terms cancels, and the lower bound keeps every product far
from underflow.  The comparison needs no tolerance, and it crosses the
routes: BLAS and the exact contraction kernel on one side, float32, the
lookup tables and the outer AND on the other.
"""

import numpy as np
import pytest

from cpcat import (BOOLEAN, KrausMor, Mor, Obj, compose, cp_compose,
                   cp_form, cp_tensor, cpm_dagger, cpm_form)
from cpcat.core import TABLE_MIN

SHAPES = 60


def nonnegative(rng, shape, density=0.5):
    """Real entries, non-zero with probability ``density``, in [0.5, 2]."""
    return np.where(rng.random(shape) < density,
                    rng.uniform(0.5, 2.0, shape), 0.0)


def mor_pair(entries, dom, cod):
    """A complex morphism on ``entries`` and the relation of its support."""
    return (Mor(dom, cod, entries), Mor(dom, cod, entries > 0, BOOLEAN))


def kraus_pair(rng, a, b, c):
    out, anc = Obj(b), Obj(c)
    return tuple(KrausMor(m, out, anc) for m in mor_pair(
        nonnegative(rng, (b * c, a)), Obj(a), Obj(b, c)))


def assert_support(complex_array, boolean_array):
    assert boolean_array.dtype == np.bool_
    assert not complex_array.imag.any()
    assert np.array_equal(complex_array != 0, boolean_array)


def dims(rng, count):
    return [int(d) for d in rng.integers(1, 5, count)]


UNARY = {"cp_form": lambda k: cp_form(k).array,
         "cpm_form": lambda k: cpm_form(k).array,
         "cpm_dagger": lambda k: cpm_dagger(k).mor.array}
BINARY = {"cp_compose": lambda g, f: cp_compose(g, f).mor.array,
          "cp_tensor": lambda g, f: cp_tensor(g, f).mor.array}


@pytest.mark.parametrize("name", sorted(UNARY))
def test_one_map_constructions_keep_the_support(name):
    rng = np.random.default_rng(sorted(UNARY).index(name))
    for _ in range(SHAPES):
        assert_support(*map(UNARY[name], kraus_pair(rng, *dims(rng, 3))))


@pytest.mark.parametrize("name", sorted(BINARY))
def test_two_map_constructions_keep_the_support(name):
    rng = np.random.default_rng(10 + sorted(BINARY).index(name))
    for _ in range(SHAPES):
        a, b, c, d, e = dims(rng, 5)
        # g takes f's output, so each pair composes
        fs, gs = kraus_pair(rng, a, b, c), kraus_pair(rng, b, d, e)
        assert_support(*map(BINARY[name], gs, fs))


@pytest.mark.parametrize("rows,inner,cols", [
    (TABLE_MIN, TABLE_MIN, TABLE_MIN), (TABLE_MIN - 1, 1, TABLE_MIN - 1)])
def test_relation_products_have_the_support_of_complex_ones(rows, inner,
                                                            cols):
    # at 512 the relations compose through the lookup tables, at inner
    # dim 1 through the outer AND; the density leaves both true and
    # false entries in the product
    rng = np.random.default_rng([rows, inner, cols])
    density = min(0.5, 1 / np.sqrt(inner))
    f = mor_pair(nonnegative(rng, (inner, cols), density),
                 Obj(cols), Obj(inner))
    g = mor_pair(nonnegative(rng, (rows, inner), density),
                 Obj(inner), Obj(rows))
    relation = compose(g[1], f[1]).array
    assert relation.any() and not relation.all()
    assert_support(compose(g[0], f[0]).array, relation)
