"""Completely positive morphisms presented by Kraus dilations.

A CP morphism ``A -> B`` is carried by a Kraus morphism
``f : A -> B ⊗ C`` of the base category together with the designated
split of its codomain into the output ``B`` and the ancillary object
``C``.  Different dilations can present the same CP morphism, so
equality is decided on a canonical matrix, the *doubled form*

    form[(a', b'), (a, b)] = sum_c conj(f[(b, c), a']) * f[(b', c), a]

typed ``A ⊗ B -> A ⊗ B``.  Global phases on ``f`` and unitary rotations
of the ancilla cancel in this expression, which is why it is canonical.

The diagrammatic picture, ``(f ⊗ id_B)† ∘ exchange ∘ (f ⊗ id_B)`` with
``exchange`` swapping the two ``B`` wires (Selinger's CPM
construction), gives the same matrix.  It is a test oracle here, not
the implementation.  With the Kraus tensor ``F[b, c, a] = f[(b, c), a]``
laid out as the matrix ``m[(b, a), c]``, the form is a relabelling of
the one BLAS Gram product :func:`kraus_gram`; the tensor is one call of
the contraction kernel :func:`cpcat.core.contract`, and composition is
one composition in the base category, so no permutation matrix is
built.

Composition tensors the ancillas (the later ancilla leftmost) and
tensoring interleaves outputs before ancillas, so the result is again a
Kraus morphism in the ``B ⊗ C`` layout.

Like :meth:`cpcat.core.Mor._of` for morphisms, :meth:`KrausMor._of` is
the internal constructor of every Kraus morphism the package builds
itself, here and in :mod:`cpcat.cpm`, :mod:`cpcat.channels` and
:mod:`cpcat.axioms`: its codomain is already ``out ⊗ ancilla``, so the
split is taken as given.  The public ``KrausMor(mor, out, ancilla)``
converts ``out`` and ``ancilla`` to objects, checks that they split the
codomain and retypes ``mor`` to that split; everything built from
caller data goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (COMPLEX, DEFAULT_TOL, Mor, Obj, Semiring, UNIT, as_obj,
                   compose, contract, gram, identity)
from .errors import DimensionMismatch, ShapeMismatch


@dataclass(frozen=True)
class KrausMor:
    """A Kraus morphism ``mor : A -> B ⊗ C`` with its codomain split."""

    mor: Mor
    out: Obj
    ancilla: Obj

    def __post_init__(self):
        out, anc = as_obj(self.out), as_obj(self.ancilla)
        if out.dim * anc.dim != self.mor.cod.dim:
            raise ShapeMismatch(
                f"codomain dim {self.mor.cod.dim} does not split into "
                f"{out!r} ⊗ {anc!r}")
        object.__setattr__(self, "out", out)
        object.__setattr__(self, "ancilla", anc)
        cod = out.tensor(anc)
        if self.mor.cod != cod:
            object.__setattr__(self, "mor", self.mor.retyped(self.mor.dom, cod))

    @classmethod
    def _of(cls, mor: Mor, out: Obj, ancilla: Obj) -> "KrausMor":
        """A Kraus morphism whose split the package built itself.

        ``mor.cod`` must already be ``out.tensor(ancilla)``, with ``out``
        and ``ancilla`` objects; nothing is converted, checked or retyped.
        Never pass caller data.
        """
        k = object.__new__(cls)
        k.__dict__.update(mor=mor, out=out, ancilla=ancilla)
        return k

    @property
    def dom(self) -> Obj:
        return self.mor.dom

    @property
    def semiring(self) -> Semiring:
        return self.mor.semiring

    def as_tensor(self) -> np.ndarray:
        """The entries as the tensor ``F[out, ancilla, dom]`` (a view)."""
        return self.mor.array.reshape(self.out.dim, self.ancilla.dim, -1)

    def as_rows(self) -> np.ndarray:
        """The entries as the tensor ``m[out, dom, ancilla]`` (a copy).

        Each ``m[b, a]`` is one contiguous row, the terms of one sum over
        the ancilla.
        """
        return self.as_tensor().transpose(0, 2, 1).copy()

    def __repr__(self) -> str:
        return (f"KrausMor({self.dom!r} -> {self.out!r}, "
                f"ancilla={self.ancilla!r}, {self.semiring.name})")


def kraus_gram(k: KrausMor) -> np.ndarray:
    """``H[b, a, d, e] = sum_c conj(F[b, c, a]) F[d, c, e]``, one :func:`gram`.

    The doubled form, the Choi matrix and both channel pictures of ``k``
    are transposes of this tensor.
    """
    m = k.as_rows()
    b, a, c = m.shape
    return gram(m.reshape(b * a, c), k.semiring).reshape(b, a, b, a)


def cp_form(k: KrausMor) -> Mor:
    """Canonical doubled form of ``k``, typed ``A ⊗ B -> A ⊗ B``."""
    ab = k.dom.tensor(k.out)
    return Mor._of(ab, ab,
                   kraus_gram(k).transpose(1, 2, 3, 0).reshape(ab.dim, -1),
                   k.semiring)


def cp_identity(a, semiring: Semiring = COMPLEX) -> KrausMor:
    """Identity CP morphism: Kraus ``id_A`` with trivial ancilla."""
    a = as_obj(a)
    return KrausMor._of(identity(a, semiring), a, UNIT)


def pure(f: Mor) -> KrausMor:
    """The doubling of a base morphism: ``f`` itself, trivial ancilla."""
    return KrausMor._of(f, f.cod, UNIT)


def discard(a, semiring: Semiring = COMPLEX) -> KrausMor:
    """Trace-out ``A -> I``: Kraus ``id_A`` with the whole of A ancillary."""
    a = as_obj(a)
    return KrausMor._of(identity(a, semiring), UNIT, a)


def cp_compose(g: KrausMor, f: KrausMor) -> KrausMor:
    """Composite ``g after f``; ancillas collect as ``C_g ⊗ C_f``."""
    if g.semiring is not f.semiring:
        raise DimensionMismatch("cannot compose across semirings")
    if f.out.dim != g.dom.dim:
        raise DimensionMismatch(
            f"cp_compose: output dim {f.out.dim} != input dim {g.dom.dim}")
    # With the output B leading, bending f's ancilla down next to its
    # input is a reshape, so the sum over B is one plain composition.
    sem, out, anc = f.semiring, g.out, g.ancilla.tensor(f.ancilla)
    bent = Mor._of(f.ancilla.tensor(f.dom), f.out,
                   f.mor.array.reshape(f.out.dim, -1), sem)
    entries = compose(g.mor, bent).array.reshape(-1, f.dom.dim)
    return KrausMor._of(Mor._of(f.dom, out.tensor(anc), entries, sem), out, anc)


def cp_tensor(k1: KrausMor, k2: KrausMor) -> KrausMor:
    """Tensor of CP morphisms: outputs first, then both ancillas."""
    if k1.semiring is not k2.semiring:
        raise DimensionMismatch("cannot tensor across semirings")
    out, anc = k1.out.tensor(k2.out), k1.ancilla.tensor(k2.ancilla)
    entries = contract("bca,xyz->bxcyaz", k1.as_tensor(), k2.as_tensor(),
                       rows=out.dim * anc.dim)
    return KrausMor._of(Mor._of(k1.dom.tensor(k2.dom), out.tensor(anc),
                                entries, k1.semiring), out, anc)


def cp_deviation(k1: KrausMor, k2: KrausMor) -> float:
    """Max-abs difference of the doubled forms.

    Both forms are the same relabelling of their :func:`kraus_gram`
    tensors, so the tensors are compared as they are: the same pairs of
    entries, hence the same maximum.
    """
    if k1.semiring is not k2.semiring:
        raise DimensionMismatch("cannot compare across semirings")
    if (k1.dom.dim, k1.out.dim) != (k2.dom.dim, k2.out.dim):
        raise ShapeMismatch(
            f"cp morphisms {k1!r} and {k2!r} have different types")
    return k1.semiring.deviation(kraus_gram(k1), kraus_gram(k2))


def cp_equal(k1: KrausMor, k2: KrausMor, tol: float = DEFAULT_TOL) -> bool:
    """Equality of CP morphisms through their doubled forms.

    Exact on booleans; a max-abs test at ``tol`` on complex entries.
    Dilations with different ancilla dimensions compare fine.
    """
    return k1.semiring.within(cp_deviation(k1, k2), tol)
