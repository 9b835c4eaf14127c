"""Checkers for the environment-structure, doubling and
preparation-state axioms, plus numerical replays of the proof steps
that connect them.

Universally quantified statements are checked on seeded samples plus
adversarial families (global phases, ancilla rotations, sign flips), so
a passing report means "holds on N samples", never "proved".  Failing
reports carry the offending morphisms entrywise so a counterexample can
be re-verified without rerunning any sampler.

The environment structure under test is the one where discarding is
tracing out: ``top(A)`` is the CP morphism ``A -> I`` whose Kraus
morphism is ``id_A`` with all of ``A`` ancillary.  Checkers that need a
biconditional evaluate both sides by genuinely different routes (direct
doubled forms versus composition with the discard in the CP layer) and
report whether the verdicts agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (COMPLEX, DEFAULT_TOL, Mor, Obj, Semiring, UNIT, as_obj,
                   compose, contract, identity, max_abs_diff, mor_equal,
                   random_mor, tensor)
from .cp import (KrausMor, cp_compose, cp_deviation, cp_form, cp_identity,
                 cp_tensor, discard, pure)
from .cpm import CpmMor, cpm_form
from .channels import choi_of_kraus, kraus_from_choi
from .errors import DimensionMismatch, DomainNotUnit, InvalidArgument
from .instances import random_unitary


@dataclass(frozen=True)
class EnvStructure:
    """A choice of discard morphisms over one category instance."""

    semiring: Semiring
    top: Callable[[Obj], KrausMor]

    @classmethod
    def standard(cls, semiring: Semiring) -> "EnvStructure":
        return cls(semiring, lambda a: discard(a, semiring))


@dataclass
class AxiomReport:
    """Outcome of one axiom check over explicit or sampled inputs.

    ``samples`` counts the random inputs drawn; it is 0 when the inputs
    were enumerated rather than sampled, as in :func:`check_env_a`.
    """

    axiom: str
    holds: bool
    checked: int
    max_deviation: float = 0.0
    witness: Optional[dict] = None
    notes: tuple = field(default_factory=tuple)
    samples: int = 0

    @property
    def status(self) -> str:
        if self.holds:
            return "holds"
        return "counterexample" if self.witness is not None else "fails"

    def observe(self, ok: bool, dev: float, witness: Optional[dict] = None,
                checked: int = 1) -> None:
        """Fold in ``checked`` clauses with verdict ``ok``, deviation ``dev``.

        A clause that fails makes the report fail; the first failure's
        ``witness`` is kept and later ones never replace it.  A
        sub-report folds in as its ``holds``, ``max_deviation``,
        ``witness`` and ``checked``.
        """
        self.checked += checked
        self.max_deviation = max(self.max_deviation, dev)
        if not ok:
            self.holds = False
            if self.witness is None:
                self.witness = witness


def _two_sided(axiom: str, sem: Semiring, tol: float, operands: dict,
               first: tuple, second: tuple, implies: bool = False,
               max_deviation: float = 0.0) -> AxiomReport:
    """One clause relating two equalities by iff, or by implication.

    ``first`` and ``second`` are ``(key, label, deviation)``; each
    deviation's verdict comes from :meth:`Semiring.within`.  A failing
    clause's witness holds ``operands`` and ``<key>_deviation`` of both
    sides; the note reads ``<label>=<verdict>`` for both.
    """
    (key1, label1, dev1), (key2, label2, dev2) = first, second
    one, two = sem.within(dev1, tol), sem.within(dev2, tol)
    holds = (not one or two) if implies else one == two
    witness = None if holds else {
        **operands, f"{key1}_deviation": dev1, f"{key2}_deviation": dev2}
    return AxiomReport(axiom, holds, 1, max_deviation, witness,
                       (f"{label1}={one} {label2}={two}",))


def check_env_a(env: EnvStructure, objects, tol: float = DEFAULT_TOL) -> AxiomReport:
    """Discard of the unit is the identity and discards multiply.

    Checks ``top(I) = cp_identity(I)`` once and
    ``cp_tensor(top(A), top(B)) = top(A ⊗ B)`` for every ordered pair
    of supplied objects.  The first failing clause becomes the witness.
    """
    sem = env.semiring
    objects = [as_obj(a) for a in objects]
    clauses = [("unit", env.top(UNIT), cp_identity(UNIT, sem))]
    clauses += [(f"pair {a!r} {b!r}", cp_tensor(env.top(a), env.top(b)),
                 env.top(a.tensor(b))) for a in objects for b in objects]
    report = AxiomReport("env-a", True, 0)
    for label, lhs, rhs in clauses:
        dev = cp_deviation(lhs, rhs)
        ok = sem.within(dev, tol)
        report.observe(ok, dev, None if ok else {
            "clause": label, "deviation": dev,
            "lhs_form": cp_form(lhs).array, "rhs_form": cp_form(rhs).array})
    return report


def check_env_b_pair(env: EnvStructure, f: Mor, g: Mor,
                     tol: float = DEFAULT_TOL) -> AxiomReport:
    """Doubled equality in the base category iff equality after discard.

    ``f`` and ``g`` must share the type ``A -> C ⊗ B`` with the ancilla
    the leading factor.  The left side compares doubled forms directly
    (after one swap into the output-first layout); the right side stays
    inside the CP layer, composing the lifted morphisms with
    ``top(C) ⊗ id_B``.  Both verdicts must agree; the reported deviation
    is the gap between the two sides' numeric residuals, which is tiny
    precisely because the two routes compute the same canonical matrix.
    """
    sem = env.semiring
    if f.dom.dim != g.dom.dim or f.cod.dim != g.cod.dim:
        raise DimensionMismatch(f"env-b pair {f!r} vs {g!r}")
    if len(f.cod.factors) != 2 or f.cod.factors != g.cod.factors:
        raise DimensionMismatch(
            "env-b needs a shared two-factor codomain (ancilla, output)")
    c, b = (Obj(d) for d in f.cod.factors)

    def doubled(m: Mor) -> KrausMor:
        front = m.array.reshape(c.dim, b.dim, m.dom.dim)
        return KrausMor._of(Mor._of(m.dom, b.tensor(c),
                                    contract("cba->bca", front,
                                             rows=m.cod.dim),
                                    sem),
                            b, c)

    lift = cp_tensor(env.top(c), cp_identity(b, sem))
    left_dev = cp_deviation(doubled(f), doubled(g))
    right_dev = cp_deviation(cp_compose(lift, pure(f)),
                             cp_compose(lift, pure(g)))
    return _two_sided("env-b", sem, tol, {"f": f.array, "g": g.array},
                      ("left", "left", left_dev),
                      ("right", "right", right_dev),
                      max_deviation=abs(left_dev - right_dev))


def check_env_c(env: EnvStructure, k: KrausMor,
                tol: float = DEFAULT_TOL) -> AxiomReport:
    """Every CP morphism has a Kraus witness: extract one and compare.

    Goes out through the Choi matrix and back through its Kraus factor
    (:func:`cpcat.channels.kraus_from_choi`), then certifies
    ``cp_equal`` between the extracted dilation and the original.
    Complex instance only.
    """
    if env.semiring is not COMPLEX or k.semiring is not COMPLEX:
        raise InvalidArgument("env-c needs the complex instance")
    extracted = kraus_from_choi(choi_of_kraus(k))
    dev = cp_deviation(extracted.mor, k)
    holds = env.semiring.within(dev, tol)
    witness = None if holds else {
        "kraus": k.mor.array, "extracted": extracted.mor.mor.array,
        "deviation": dev}
    return AxiomReport("env-c", holds, 1, dev, witness,
                       (f"ancilla_dim={extracted.ancilla_dim}",))


def check_doubling_pair(k1: KrausMor, k2: KrausMor,
                        tol: float = DEFAULT_TOL) -> AxiomReport:
    """Tensor squares equal iff the morphisms are equal (CP layer)."""
    if (k1.dom.dim, k1.out.dim) != (k2.dom.dim, k2.out.dim):
        raise DimensionMismatch(f"doubling pair {k1!r} vs {k2!r}")
    squares = cp_deviation(cp_tensor(k1, k1), cp_tensor(k2, k2))
    return _two_sided(
        "doubling", k1.semiring, tol, {"k1": k1.mor.array, "k2": k2.mor.array},
        ("square", "squares", squares),
        ("single", "singles", cp_deviation(k1, k2)))


def check_doubling_base(f: Mor, g: Mor, tol: float = DEFAULT_TOL) -> AxiomReport:
    """The same biconditional on raw base-category morphisms.

    The complex instance genuinely fails this: ``[1]`` and ``[-1]`` have
    equal tensor squares but are distinct, and that sign pair is the
    expected counterexample.
    """
    if (f.dom.dim, f.cod.dim) != (g.dom.dim, g.cod.dim):
        raise DimensionMismatch(f"doubling pair {f!r} vs {g!r}")
    return _two_sided(
        "doubling-base", f.semiring, tol, {"f": f.array, "g": g.array},
        ("square", "squares", max_abs_diff(tensor(f, f), tensor(g, g))),
        ("single", "singles", max_abs_diff(f, g)))


def check_prep_state_pair(phi: CpmMor, psi: CpmMor,
                          tol: float = DEFAULT_TOL) -> AxiomReport:
    """States with equal preparations are equal (doubled layer).

    Evaluates ``R R† = S S†  implies  R = S`` on the realized matrices
    of two states; the antecedent composes each state with its own
    adjoint, which is exactly the preparation it induces.
    """
    r, s = phi.realized, psi.realized
    return _prep_state("prep-state", r, s, {"phi": r.array, "psi": s.array},
                       tol)


def check_prep_state_base(f: Mor, g: Mor, tol: float = DEFAULT_TOL) -> AxiomReport:
    """The raw-category version, which the sign pair ``[1]/[-1]`` breaks."""
    return _prep_state("prep-state-base", f, g, {"f": f.array, "g": g.array},
                       tol)


def _prep_state(axiom: str, r: Mor, s: Mor, operands: dict,
                tol: float) -> AxiomReport:
    """``r r† = s s†  implies  r = s`` for two states ``r`` and ``s``.

    A doubled state is realized as a state ``I -> B ⊗ B``, so one check
    of its type covers both layers.
    """
    if r.dom.dim != 1 or s.dom.dim != 1:
        raise DomainNotUnit("preparation-state check needs states from I")
    if r.cod.dim != s.cod.dim:
        raise DimensionMismatch(f"prep-state pair {r!r} vs {s!r}")
    prep_dev = max_abs_diff(compose(r, r.dagger()), compose(s, s.dagger()))
    return _two_sided(axiom, r.semiring, tol, operands,
                      ("preparation", "preparations", prep_dev),
                      ("state", "states", max_abs_diff(r, s)), implies=True)


def _as_state(m: Mor) -> tuple:
    """Bend ``m : A -> D`` into a Kraus state and its realized double.

    The name ``I -> A ⊗ D`` of ``m``, swapped to ``D ⊗ A``, keeps the
    whole input as ancilla; bending is invertible, so identities checked
    on the state carry the full content of the corresponding identities
    for ``m``.  Its entries are those of ``m`` read as one column.
    """
    out, anc = Obj(m.cod.dim), Obj(m.dom.dim)
    state = Mor._of(UNIT, out.tensor(anc), m.array.reshape(-1, 1),
                    m.semiring)
    k = KrausMor._of(state, out, anc)
    return k, cpm_form(k)


def replay_proposition_steps(f: Mor, g: Mor,
                             tol: float = DEFAULT_TOL) -> AxiomReport:
    """Re-run the displayed rewrite steps as concrete matrix identities.

    For each of ``f`` and ``g`` (any pair with a common domain):

    * ``four_fold``: the doubled form of ``m ∘ m†``, rewired by the
      fixed bending permutation, equals the product of the realized
      state of ``m`` with its own adjoint (the four-box picture).
    * ``cup_bend``: the realized state of ``m`` is exactly ``m ∘ m†``
      with its wires bent straight, i.e. a pure reindexing.

    Both are equalities, not implications, so the pair-level consequence
    (equal preparations iff equal realized states) follows and is
    reported as an agreement check between the two sides.
    """
    if f.dom.dim != g.dom.dim:
        raise DimensionMismatch("replay needs a common domain")
    if f.semiring is not g.semiring:
        raise DimensionMismatch("replay needs a common semiring")
    sem = f.semiring
    report = AxiomReport("replay", True, 0)
    sides = {}
    for label, m in (("f", f), ("g", g)):
        d = m.cod.dim
        _, phi = _as_state(m)
        prep = compose(m, m.dagger())
        doubled = cpm_form(pure(prep))
        # four-box picture: rewire the doubled preparation so indices
        # line up with phi ∘ phi†
        p4 = doubled.array.reshape(d, d, d, d)
        rewired = p4.transpose(3, 1, 2, 0).reshape(d * d, d * d)
        outer = compose(phi, phi.dagger())
        # bending: phi is prep with both wires bent up
        bent = phi.array.reshape(d, d).T
        for step, dev in (
                (f"four_fold[{label}]", sem.deviation(outer.array, rewired)),
                (f"cup_bend[{label}]", sem.deviation(bent, prep.array))):
            report.observe(sem.within(dev, tol), dev,
                           {"step": step, "deviation": dev})
        sides[label] = (prep, phi)

    # pair-level agreement: preparations equal iff realized states equal;
    # only meaningful when the two sides are comparable at all
    if f.cod.dim == g.cod.dim:
        prep_eq = mor_equal(sides["f"][0], sides["g"][0], tol)
        state_eq = mor_equal(sides["f"][1], sides["g"][1], tol)
        report.observe(prep_eq == state_eq, 0.0, {
            "step": "pair_agreement", "preparations_equal": prep_eq,
            "states_equal": state_eq, "f": f.array, "g": g.array})
        report.notes = (f"preparations_equal={prep_eq}",
                        f"states_equal={state_eq}")
    else:
        report.notes = ("pair_agreement skipped: different codomains",)
    return report


def xi_lift(k: KrausMor) -> KrausMor:
    """The isomorphism's action: lift the Kraus morphism, discard its ancilla.

    ``xi(k) = (id_B ⊗ top_C) ∘ pure(kraus)`` lands back at an ``A -> B``
    CP morphism presented with ancilla ``C ⊗ I``; it is ``cp_equal`` to
    ``k`` itself, which is what makes the map well defined on doubled
    forms.
    """
    sem = k.semiring
    lift = cp_tensor(cp_identity(k.out, sem), discard(k.ancilla, sem))
    return cp_compose(lift, pure(k.mor))


def _fold(axiom: str, samples: int, seed: int,
          sample: Callable) -> AxiomReport:
    """Fold ``sample(rng, n)``'s report for each ``n < samples`` into one.

    Every sampled run draws from one generator seeded with ``seed``, in
    sample order, so a run replays exactly.
    """
    if samples < 1:
        raise InvalidArgument(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    total = AxiomReport(axiom, True, 0, samples=samples)
    for n in range(samples):
        one = sample(rng, n)
        total.observe(one.holds, one.max_deviation, one.witness, one.checked)
    return total


def _random_kraus(rng, a: int, b: int, c: int,
                  semiring: Semiring) -> KrausMor:
    """A random Kraus morphism ``a -> b ⊗ c`` drawn by :func:`random_mor`."""
    out, anc = Obj(b), Obj(c)
    return KrausMor._of(random_mor(rng, Obj(a), out.tensor(anc), semiring),
                        out, anc)


def _partner(rng, m: Mor, n: int) -> Mor:
    """The morphism sample ``n`` pairs with ``m``.

    Even complex samples take a global phase of ``m`` (a twelfth root
    of unity), which doubling must not tell apart from ``m``; otherwise
    every third sample takes ``m`` itself and the rest a fresh draw.
    """
    if np.iscomplexobj(m.array) and n % 2 == 0:
        theta = 2 * np.pi * (n % 12) / 12
        return Mor._of(m.dom, m.cod, np.exp(1j * theta) * m.array,
                       m.semiring)
    if n % 3 == 0:
        return m
    return random_mor(rng, m.dom, m.cod, m.semiring)


def run_env_a(semiring: Semiring, samples: int = 0, seed: int = 0,
              tol: float = DEFAULT_TOL, max_dim: int = 4) -> AxiomReport:
    """Axiom (a) over all objects of dimension up to ``max_dim``.

    The objects are enumerated, not sampled, so ``samples`` and ``seed``
    are ignored and the report's ``samples`` is 0.
    """
    env = EnvStructure.standard(semiring)
    objects = [UNIT] + [Obj(d) for d in range(1, max_dim + 1)]
    return check_env_a(env, objects, tol)


def run_env_b(semiring: Semiring, samples: int = 100, seed: int = 0,
              tol: float = DEFAULT_TOL, max_dim: int = 3) -> AxiomReport:
    """Axiom (b) on random pairs plus the ancilla-rotation family."""
    env = EnvStructure.standard(semiring)

    def sample(rng, n):
        a, b, c = (int(d) for d in rng.integers(1, max_dim + 1, size=3))
        f = random_mor(rng, a, Obj(c, b), semiring)
        if n % 3 == 0:
            g = f
        elif n % 3 == 1:
            # equal after discarding: rotate the ancilla only
            if semiring.dtype is np.bool_:
                u = np.eye(c, dtype=np.bool_)[rng.permutation(c)]
            else:
                u = random_unitary(rng, c)
            rot = Mor._of(Obj(c), Obj(c), u, semiring)
            g = compose(tensor(rot, identity(b, semiring)), f)
        else:
            g = random_mor(rng, a, Obj(c, b), semiring)
        return check_env_b_pair(env, f, g, tol)
    return _fold("env-b", samples, seed, sample)


def run_env_c(semiring: Semiring = COMPLEX, samples: int = 100, seed: int = 0,
              tol: float = 1e-8, max_dim: int = 3) -> AxiomReport:
    """Axiom (c): Kraus witnesses for random CP morphisms (complex only)."""
    env = EnvStructure.standard(semiring)

    def sample(rng, n):
        a, b, c = (int(d) for d in rng.integers(1, max_dim + 1, size=3))
        return check_env_c(env, _random_kraus(rng, a, b, c, semiring), tol)
    return _fold("env-c", samples, seed, sample)


def run_doubling(semiring: Semiring, samples: int = 100, seed: int = 0,
                 tol: float = DEFAULT_TOL, max_dim: int = 3) -> AxiomReport:
    """Doubling on the doubled image: pure pairs, phases included."""
    def sample(rng, n):
        a, b = (int(d) for d in rng.integers(1, max_dim + 1, size=2))
        m1 = random_mor(rng, a, b, semiring)
        return check_doubling_pair(pure(m1), pure(_partner(rng, m1, n)), tol)
    return _fold("doubling", samples, seed, sample)


def run_prep_state(semiring: Semiring, samples: int = 100, seed: int = 0,
                   tol: float = DEFAULT_TOL, max_dim: int = 3) -> AxiomReport:
    """Preparation-state agreement on doubled states, phases included."""
    def sample(rng, n):
        b, c = (int(d) for d in rng.integers(1, max_dim + 1, size=2))
        out, anc = Obj(b), Obj(c)
        s1 = random_mor(rng, UNIT, out.tensor(anc), semiring)
        phi = CpmMor.of(KrausMor._of(s1, out, anc))
        psi = CpmMor.of(KrausMor._of(_partner(rng, s1, n), out, anc))
        return check_prep_state_pair(phi, psi, tol)
    return _fold("prep-state", samples, seed, sample)


def run_replay(semiring: Semiring, samples: int = 50, seed: int = 0,
               tol: float = DEFAULT_TOL, max_dim: int = 3) -> AxiomReport:
    """Proof-step replay on random pairs with a common domain."""
    def sample(rng, n):
        a, b = (int(d) for d in rng.integers(1, max_dim + 1, size=2))
        f = random_mor(rng, a, b, semiring)
        g = f if n % 5 == 0 else random_mor(rng, a, b, semiring)
        return replay_proposition_steps(f, g, tol)
    return _fold("replay", samples, seed, sample)


def run_xi(semiring: Semiring = COMPLEX, samples: int = 100, seed: int = 0,
           tol: float = DEFAULT_TOL, max_dim: int = 3) -> AxiomReport:
    """Functor laws of the isomorphism plus doubling on the pure image.

    Per sample: xi respects composition and tensor (compared through
    ``cp_equal``), xi is the identity on doubled forms, and doubling
    holds as a biconditional on pairs of lifted pure morphisms,
    including phase-related pairs where both sides must come out true.
    """
    def sample(rng, n):
        a, b, c, b2, c2, a3, b3 = (
            int(d) for d in rng.integers(1, max_dim + 1, size=7))
        k = _random_kraus(rng, a, b, c, semiring)
        k2 = _random_kraus(rng, b, b2, c2, semiring)
        k3 = _random_kraus(rng, a3, b3, c, semiring)
        # xi_lift is a pure function, so one lift of k serves all three laws
        xk = xi_lift(k)
        laws = (
            ("identity_on_forms", cp_deviation(xk, k)),
            ("compose", cp_deviation(xi_lift(cp_compose(k2, k)),
                                     cp_compose(xi_lift(k2), xk))),
            ("tensor", cp_deviation(xi_lift(cp_tensor(k, k3)),
                                    cp_tensor(xk, xi_lift(k3)))))
        one = AxiomReport("xi", True, 0)
        for law, dev in laws:
            one.observe(semiring.within(dev, tol), dev,
                        {"law": law, "deviation": dev})

        # doubling on the pure image, with an adversarial phase pair
        m1 = random_mor(rng, a, b, semiring)
        sub = check_doubling_pair(pure(m1), pure(_partner(rng, m1, n)), tol)
        one.observe(sub.holds, sub.max_deviation, sub.witness, sub.checked)
        return one
    return _fold("xi", samples, seed, sample)


xi_iso_check = run_xi


AXIOM_RUNNERS = {
    "env-a": run_env_a,
    "env-b": run_env_b,
    "env-c": run_env_c,
    "doubling": run_doubling,
    "prep-state": run_prep_state,
    "xi": run_xi,
}
