"""Compact structure and the two concrete instances.

Objects are self-dual with respect to the standard basis, so the cup on
``A`` is the state ``I -> A ⊗ A`` pairing equal basis indices and no dual
objects appear at runtime.  Cups are unnormalized: the complex cup on
dimension ``n`` has squared norm ``n``.

The complex semiring gives finite-dimensional Hilbert spaces; the
boolean semiring gives finite sets and relations.
"""

from __future__ import annotations

from .core import (COMPLEX, Mor, Obj, Semiring, as_obj, compose, identity,
                   tensor)
from .errors import MissingFactorSplit, NotCompact


def cup(a, semiring: Semiring = COMPLEX) -> Mor:
    """The state ``I -> A ⊗ A`` with entry 1 where both indices agree."""
    if not semiring.compact:
        raise NotCompact(f"{semiring.name} has no compact structure")
    a = as_obj(a)
    entries = semiring.eye(a.dim).reshape(a.dim * a.dim, 1)
    return Mor._of(Obj(), a.tensor(a), entries, semiring)


def cap(a, semiring: Semiring = COMPLEX) -> Mor:
    """The effect ``A ⊗ A -> I``, dagger of the cup."""
    return cup(a, semiring).dagger()


def star_split(cod: Obj) -> tuple:
    """The factors ``(C, B)`` of the codomain ``C ⊗ B`` that
    :func:`conj_star` reads, of which there must be exactly two."""
    if len(cod.factors) != 2:
        raise MissingFactorSplit(f"codomain {cod!r} has no unique (C, B) split")
    return cod.factors


def conj_star(f: Mor) -> Mor:
    """Lower-star of ``f : A -> C ⊗ B``, typed ``A -> B ⊗ C``.

    This is ``swap(C, B) ∘ conj(f)``, which is what the dagger composed
    with both transposes amounts to under self-dual objects, computed as
    the conjugate of the transposed entries, one copy.
    The codomain split ``(C, B)`` is :func:`star_split`'s.
    """
    c, b = star_split(f.cod)
    sem = f.semiring
    entries = sem.conj(f.array.reshape(c, b, -1).swapaxes(0, 1))
    return Mor._of(f.dom, Obj(b, c), entries.reshape(f.cod.dim, -1), sem)


def transpose(f: Mor) -> Mor:
    """Compact transpose ``B -> A`` of ``f : A -> B`` (conjugated dagger)."""
    return f.dagger().conjugate()


def name_of(f: Mor) -> Mor:
    """Curry ``f : A -> B`` into the state ``I -> A ⊗ B``.

    This is ``(id_A ⊗ f) ∘ cup(A)``; bending the input wire up is
    invertible, so no information is lost.
    """
    return compose(tensor(identity(f.dom, f.semiring), f), cup(f.dom, f.semiring))
