"""Doubled morphisms of the compact construction.

Here a CP morphism ``A -> B`` with Kraus morphism ``f : A -> B ⊗ C`` is
realized as one matrix ``A ⊗ A -> B ⊗ B``, entrywise

    realized[(b', b), (a', a)] = sum_c conj(f[(b', c), a']) * f[(b, c), a]

with the left factor of each doubled pair the conjugated one.  This is
the same data as :func:`cpcat.cp.cp_form` under a fixed relabelling,

    cp_form[(a', b'), (a, b)] = realized[(b, b'), (a', a)]

so the two constructions convert into each other without touching the
Kraus representative.

Diagrammatically the realized matrix runs a conjugated copy next to the
original and bends the two ancilla wires into each other,

    realized = (id_B ⊗ cap_C ⊗ id_B) ∘ (f_* ⊗ f')

where ``f' = swap(B, C) ∘ f`` moves the ancilla to the front and ``f_*``
is its lower star (:func:`cpcat.instances.conj_star`).  The tests keep
that picture as an oracle.  Each instance computes it by its own
route, its semiring's ``realized``.  On complex entries it is a sum
over the ancilla in the exact contraction kernel
:func:`cpcat.core.contract`, taken over the contiguous ancilla rows of
:meth:`cpcat.cp.KrausMor.as_rows`, and the adjoint Kraus morphism of
:func:`cpm_dagger` is a transpose.  The doubled form takes the BLAS Gram
product instead; the complex realized matrix stays on the exact kernel
because its adjoint is realized bitwise as its dagger, which BLAS
rounding does not keep.  Swapping the conjugated copy with the plain
one conjugates an entry, ``realized[(b, b'), (a, a')] =
conj(realized[(b', b), (a', a)])``, so past
:data:`cpcat.core.STRIP_MIN_TERMS` only the blocks ``b >= b'`` are
summed and the rest are filled as their mirrors, bitwise the sums they
replace.  A boolean sum is OR of ANDs and never rounds,
so on relations the realized matrix is the kept Gram tensor
:func:`cpcat.core.kraus_gram` relabelled, ``H[x, a, y, e]`` read as
``realized[(x, y), (a, e)]``, and one product serves both forms.

Realized matrices compose by plain matrix product and tensor by an
interleaved Kronecker product: :func:`cpm_form` of a
:func:`cpcat.cp.cp_compose` or :func:`cpcat.cp.cp_tensor` is that
product of the parts' realized matrices, which the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Mor
from .cp import KrausMor
from .errors import NotCompact


def cpm_form(k: KrausMor) -> Mor:
    """Realized doubled matrix ``A ⊗ A -> B ⊗ B`` of a Kraus morphism."""
    if not k.semiring.compact:
        raise NotCompact(f"{k.semiring.name} has no compact structure")
    return Mor._of(k.dom.tensor(k.dom), k.out.tensor(k.out),
                   k.semiring.realized(k), k.semiring)


@dataclass(frozen=True)
class CpmMor:
    """A doubled morphism: Kraus representative plus realized matrix."""

    kraus: KrausMor
    realized: Mor

    @classmethod
    def of(cls, k: KrausMor) -> "CpmMor":
        return cls(k, cpm_form(k))


def cpm_dagger(k: KrausMor) -> KrausMor:
    """Adjoint Kraus morphism ``g : B -> A ⊗ C`` with the same ancilla.

    ``g = (f† ⊗ id_C) ∘ (id_B ⊗ cup_C)``, entrywise
    ``g[(a, c), b] = conj(f[(b, c), a])``; its realized matrix is the
    dagger of the realized matrix of ``k``.
    """
    if not k.semiring.compact:
        raise NotCompact(f"{k.semiring.name} has no compact structure")
    sem, anc = k.semiring, k.ancilla
    cod = k.dom.tensor(anc)
    # one copy, as in Mor.dagger: the conjugate of the relabelled view
    entries = sem.conj(k.as_tensor().swapaxes(-1, -3))
    return KrausMor._of(Mor._of(k.out, cod, entries.reshape(
        entries.shape[:-3] + (cod.dim, -1)), sem), k.dom, anc)

