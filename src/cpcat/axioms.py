"""Checkers for the environment-structure, doubling and
preparation-state axioms, plus numerical replays of the proof steps
that connect them.

Universally quantified statements are checked on seeded samples plus
adversarial families (global phases, ancilla rotations, sign flips), so
a passing report means "holds on N samples", never "proved".  Failing
reports carry the offending morphisms entrywise so a counterexample can
be re-verified without rerunning any sampler.

The checkers and :func:`xi_lift` take the environment structure under
test, an :class:`EnvStructure`, and discard through its ``top``.  The
runners test the standard one, where discarding is tracing out:
``top(A)`` is the CP morphism ``A -> I`` whose Kraus morphism is
``id_A`` with all of ``A`` ancillary.  A runner that discards makes one
structure per call, and that structure holds the run's lifts.  Checkers
that need a biconditional evaluate both sides by genuinely different
routes (direct doubled forms versus composition with the discard in the
CP layer) and report whether the verdicts agree.

Every sampled dim is drawn from one object table
(:func:`cpcat.core.draw_objects`), dims ``1..SAMPLE_MAX_DIM``, so
samples of one shape share their objects.  The sampling runners other
than :func:`run_env_c` draw the samples of each chunk of consecutive
ones (:func:`cpcat.core.chunks`) first, from one generator in sample
order, then check each group of the chunk's samples of equal types
once, as one batch through the kernels (see :mod:`cpcat.core` and
:func:`cpcat.core.by_type`), and fold the per-sample reports in sample
order.  :func:`run_xi` groups each law by the types that law spans: its
lifts by Kraus type, its doubling pairs by shape; only its compose and
tensor laws, whose operands span up to seven dims, run per sample, on
slices of the batched lifts.  So the pair checkers also take a batch of
pairs, as morphisms over leading axes, and then give a list of reports,
one per pair in batch order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (DEFAULT_TOL, Mor, Obj, Semiring, UNIT, as_obj, by_type,
                   chunks, compose, contract, draw_objects, fold_max,
                   identity, kraus_gram, max_abs_diff, mor_equal, random_mor,
                   tensor)
from .cp import (KrausMor, cp_compose, cp_deviation, cp_form, cp_identity,
                 cp_tensor, discard, pure)
from .cpm import CpmMor, cpm_form
from .channels import choi_of_kraus, kraus_from_choi
from .errors import DimensionMismatch, DomainNotUnit, InvalidArgument


# the sampled runners draw dims 1..SAMPLE_MAX_DIM; run_env_a enumerates
# the objects of dims up to ENV_A_MAX_DIM, as the benchmark's clause
# count for env-a assumes
SAMPLE_MAX_DIM = 3
ENV_A_MAX_DIM = 4


@dataclass(frozen=True)
class EnvStructure:
    """A choice of discard morphisms over one category instance.

    The structure also holds the lifts built from its discards, such as
    :func:`xi_lift`'s ``id_B ⊗ top(C)``: each is built once per key for
    the life of the structure.  A runner makes its own structure per
    call, so a run builds each lift once per type.
    """

    semiring: Semiring
    top: Callable[[Obj], KrausMor]
    _lifts: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    @classmethod
    def standard(cls, semiring: Semiring) -> "EnvStructure":
        return cls(semiring, lambda a: discard(a, semiring))

    def _lift(self, key: tuple, build: Callable) -> KrausMor:
        """``build()``, built once per ``key`` for this structure."""
        lift = self._lifts.get(key)
        if lift is None:
            lift = self._lifts[key] = build()
        return lift


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
        ``witness`` is kept and later ones never replace it.  A NaN
        deviation stays NaN whatever comes before or after it
        (:func:`cpcat.core.fold_max`).  A sub-report folds in as its
        ``holds``, ``max_deviation``, ``witness`` and ``checked``.
        """
        self.checked += checked
        self.max_deviation = fold_max(self.max_deviation, dev)
        if not ok:
            self.holds = False
            if self.witness is None:
                self.witness = witness


def _each(x) -> list:
    """The per-pair values of a result as Python scalars, in batch order.

    A result over one pair is a batch of one.
    """
    return np.asarray(x).reshape(-1).tolist()


def _slices(arr: np.ndarray) -> np.ndarray:
    """Morphism entries as a stack of matrices, one per pair."""
    return arr.reshape((-1,) + arr.shape[-2:])


def _two_sided(axiom: str, sem: Semiring, tol: float, operands: dict,
               first: tuple, second: tuple, implies: bool = False,
               max_deviation=None) -> AxiomReport | list:
    """One clause relating two equalities by iff, or by implication.

    ``first`` and ``second`` are ``(key, label, deviation)``, with one
    deviation per pair (a float for one pair), and so is
    ``max_deviation`` (0.0 when not given); each deviation's verdict
    comes from :meth:`Semiring.within`.  Gives the report of one pair,
    or a list of them, in batch order.  A failing clause's witness holds
    the pair's entries of each of ``operands`` and ``<key>_deviation``
    of both sides; the note reads ``<label>=<verdict>`` for both.
    """
    (key1, label1, dev1), (key2, label2, dev2) = first, second
    devs1, devs2 = _each(dev1), _each(dev2)
    gaps = ([0.0] * len(devs1) if max_deviation is None
            else _each(max_deviation))
    reports = []
    for i, (d1, d2, one, two, gap) in enumerate(zip(
            devs1, devs2, _each(sem.within(dev1, tol)),
            _each(sem.within(dev2, tol)), gaps)):
        holds = (not one or two) if implies else one == two
        witness = None if holds else {
            **{key: _slices(arr)[i] for key, arr in operands.items()},
            f"{key1}_deviation": d1, f"{key2}_deviation": d2}
        reports.append(AxiomReport(axiom, holds, 1, gap, witness,
                                   (f"{label1}={one} {label2}={two}",)))
    return reports if np.ndim(dev1) else reports[0]


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
                     tol: float = DEFAULT_TOL) -> AxiomReport | list:
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
        front = m.array.reshape(m.array.shape[:-2] + (c.dim, b.dim, -1))
        return KrausMor._of(Mor._of(m.dom, b.tensor(c),
                                    contract("...cba->...bca", front,
                                             rows=m.cod.dim),
                                    sem),
                            b, c)

    lift = env._lift(("env-b", c, b),
                     lambda: cp_tensor(env.top(c), cp_identity(b, sem)))
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
    ``cp_equal`` between the extracted dilation and the original.  Only
    an instance that supports channels has this check.
    """
    if not (env.semiring.supports_channels and k.semiring.supports_channels):
        raise InvalidArgument("env-c needs an instance with "
                              "supports_channels, such as complex")
    extracted = kraus_from_choi(choi_of_kraus(k))
    # the extracted map is built in COMPLEX; its Gram tensor, kept from
    # its certificate, is compared with k's in k's own instance, as
    # cp_deviation would compare them
    dev = k.semiring.deviation(kraus_gram(extracted.mor), kraus_gram(k), 4)
    holds = env.semiring.within(dev, tol)
    witness = None if holds else {
        "kraus": k.mor.array, "extracted": extracted.mor.mor.array,
        "deviation": dev}
    return AxiomReport("env-c", holds, 1, dev, witness,
                       (f"ancilla_dim={extracted.ancilla_dim}",))


def check_doubling_pair(k1: KrausMor, k2: KrausMor,
                        tol: float = DEFAULT_TOL) -> AxiomReport | list:
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
                          tol: float = DEFAULT_TOL) -> AxiomReport | list:
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
                tol: float) -> AxiomReport | list:
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
    state = Mor._of(UNIT, out.tensor(anc),
                    m.array.reshape(m.array.shape[:-2] + (-1, 1)), m.semiring)
    k = KrausMor._of(state, out, anc)
    return k, cpm_form(k)


def replay_proposition_steps(f: Mor, g: Mor,
                             tol: float = DEFAULT_TOL) -> AxiomReport | list:
    """Re-run the displayed rewrite steps as concrete matrix identities.

    For each of ``f`` and ``g`` (any pair with a common domain):

    * ``four_fold``: the doubled form of ``m ∘ m†``, rewired by the
      fixed bending permutation, equals the product of the realized
      state of ``m`` with its own adjoint (the four-box picture).
    * ``cup_bend``: the realized state of ``m`` is exactly ``m ∘ m†``
      with its wires bent straight, i.e. a pure reindexing.

    Both are equalities, not implications, so the pair-level consequence
    (equal preparations iff equal realized states) follows and is
    reported as an agreement check between the two sides.  A batch of
    pairs gives a list of reports, one per pair.
    """
    if f.dom.dim != g.dom.dim:
        raise DimensionMismatch("replay needs a common domain")
    if f.semiring is not g.semiring:
        raise DimensionMismatch("replay needs a common semiring")
    sem = f.semiring
    steps = []
    sides = {}
    for label, m in (("f", f), ("g", g)):
        d, batch = m.cod.dim, m.array.shape[:-2]
        _, phi = _as_state(m)
        prep = compose(m, m.dagger())
        doubled = cpm_form(pure(prep))
        # four-box picture: rewire the doubled preparation so indices
        # line up with phi ∘ phi†
        p4 = doubled.array.reshape(batch + (d, d, d, d))
        rewired = p4.swapaxes(-4, -1).reshape(batch + (d * d, d * d))
        outer = compose(phi, phi.dagger())
        # bending: phi is prep with both wires bent up
        bent = phi.array.reshape(batch + (d, d)).swapaxes(-1, -2)
        for step, dev in (
                (f"four_fold[{label}]",
                 sem.deviation(outer.array, rewired, 2)),
                (f"cup_bend[{label}]", sem.deviation(bent, prep.array, 2))):
            steps.append((step, _each(dev), _each(sem.within(dev, tol))))
        sides[label] = (prep, phi)

    # pair-level agreement: preparations equal iff realized states equal;
    # only meaningful when the two sides are comparable at all
    comparable = f.cod.dim == g.cod.dim
    if comparable:
        preps = _each(mor_equal(sides["f"][0], sides["g"][0], tol))
        states = _each(mor_equal(sides["f"][1], sides["g"][1], tol))
    reports = []
    for i in range(len(steps[0][1])):
        report = AxiomReport("replay", True, 0)
        for step, devs, oks in steps:
            report.observe(oks[i], devs[i], None if oks[i] else {
                "step": step, "deviation": devs[i]})
        if comparable:
            prep_eq, state_eq = preps[i], states[i]
            report.observe(prep_eq == state_eq, 0.0, None
                           if prep_eq == state_eq else {
                "step": "pair_agreement", "preparations_equal": prep_eq,
                "states_equal": state_eq, "f": _slices(f.array)[i],
                "g": _slices(g.array)[i]})
            report.notes = (f"preparations_equal={prep_eq}",
                            f"states_equal={state_eq}")
        else:
            report.notes = ("pair_agreement skipped: different codomains",)
        reports.append(report)
    return reports if f.array.ndim > 2 else reports[0]


def xi_lift(env: EnvStructure, k: KrausMor) -> KrausMor:
    """The isomorphism's action: lift the Kraus morphism, discard its ancilla.

    ``xi(k) = (id_B ⊗ top_C) ∘ pure(kraus)``, with ``top`` the discard
    of ``env``, lands back at an ``A -> B`` CP morphism presented with
    ancilla ``C ⊗ I``.  Under the standard structure it is ``cp_equal``
    to ``k`` itself, which is what makes the map well defined on doubled
    forms.  ``env`` builds each lift ``id_B ⊗ top_C`` once per
    ``(B, C)``.
    """
    lift = env._lift(("xi", k.out, k.ancilla), lambda: cp_tensor(
        cp_identity(k.out, env.semiring), env.top(k.ancilla)))
    return cp_compose(lift, pure(k.mor))


def _fold(axiom: str, samples: int, seed: int, run: Callable) -> AxiomReport:
    """Fold the reports of ``run(rng, indices)``, one per sample, into one.

    ``run`` draws and checks each of the :func:`cpcat.core.chunks` of
    ``samples`` in turn, from one generator seeded with ``seed``, so a
    run replays exactly; the reports are folded in sample order, so the
    witness is the first failing sample's.
    """
    if samples < 1:
        raise InvalidArgument(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    total = AxiomReport(axiom, True, 0, samples=samples)
    rng = np.random.default_rng(seed)
    for indices in chunks(samples):
        for one in run(rng, indices):
            total.observe(one.holds, one.max_deviation, one.witness,
                          one.checked)
    return total


def _by_shape(draw: Callable, check: Callable) -> Callable:
    """A run that draws its samples first, then checks each shape once.

    ``draw(rng, n)`` returns the morphisms of sample ``n``.  Samples whose
    morphisms have the same types form a group; the entries at each
    position are stacked into one batch, and ``check`` on those batches
    returns one report per sample of the group, in order.  The run
    returns the reports in sample order.
    """
    def run(rng, indices: range) -> list:
        reports = [None] * len(indices)
        for members, batch in by_type([draw(rng, n) for n in indices]):
            for n, report in zip(members, check(*batch)):
                reports[n] = report
        return reports
    return run


def _random_kraus(rng, a: Obj, b: Obj, c: Obj,
                  semiring: Semiring) -> KrausMor:
    """A random Kraus morphism ``a -> b ⊗ c`` drawn by :func:`random_mor`."""
    return KrausMor._of(random_mor(rng, a, b.tensor(c), semiring), b, c)


def _partner(rng, m: Mor, n: int) -> Mor:
    """The morphism sample ``n`` pairs with ``m``.

    Even samples of an instance with phases take a global phase of
    ``m`` (a twelfth root of unity), which doubling must not tell apart
    from ``m``; otherwise every third sample takes ``m`` itself and the
    rest a fresh draw.
    """
    if m.semiring.phases and n % 2 == 0:
        theta = 2 * np.pi * (n % 12) / 12
        return Mor._of(m.dom, m.cod, np.exp(1j * theta) * m.array,
                       m.semiring)
    if n % 3 == 0:
        return m
    return random_mor(rng, m.dom, m.cod, m.semiring)


# every sampled runner draws its dims from this one object table
_objects = draw_objects(SAMPLE_MAX_DIM)


def run_env_a(semiring: Semiring, samples: int = 0, seed: int = 0,
              tol: float = DEFAULT_TOL) -> AxiomReport:
    """Axiom (a) over all objects of dimension up to :data:`ENV_A_MAX_DIM`.

    The objects are enumerated, not sampled, so ``samples`` and ``seed``
    are ignored, though refused when negative; the report's ``samples``
    is 0.
    """
    if samples < 0:
        raise InvalidArgument(f"samples must be >= 0, got {samples}")
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")
    env = EnvStructure.standard(semiring)
    objects = [UNIT] + [Obj(d) for d in range(1, ENV_A_MAX_DIM + 1)]
    return check_env_a(env, objects, tol)


def run_env_b(semiring: Semiring, samples: int = 100, seed: int = 0,
              tol: float = DEFAULT_TOL) -> AxiomReport:
    """Axiom (b) on random pairs plus the ancilla-rotation family."""
    env = EnvStructure.standard(semiring)

    def draw(rng, n):
        a, b, c = _objects(rng, 3)
        f = random_mor(rng, a, c.tensor(b), semiring)
        if n % 3 == 0:
            g = f
        elif n % 3 == 1:
            # equal after discarding: rotate the ancilla only
            rot = Mor._of(c, c, semiring.random_unitary(rng, c.dim), semiring)
            g = compose(tensor(rot, identity(b, semiring)), f)
        else:
            g = random_mor(rng, a, f.cod, semiring)
        return f, g
    return _fold("env-b", samples, seed, _by_shape(
        draw, lambda f, g: check_env_b_pair(env, f, g, tol)))


def run_env_c(semiring: Semiring, samples: int = 100, seed: int = 0,
              tol: float = DEFAULT_TOL) -> AxiomReport:
    """Axiom (c): Kraus witnesses for random CP morphisms (complex only)."""
    env = EnvStructure.standard(semiring)

    def run(rng, indices: range):
        # one sample at a time: the extracted ancilla dims depend on the
        # data, so samples of one shape need not share a shape of result
        for _ in indices:
            a, b, c = _objects(rng, 3)
            yield check_env_c(env, _random_kraus(rng, a, b, c, semiring), tol)
    return _fold("env-c", samples, seed, run)


def run_doubling(semiring: Semiring, samples: int = 100, seed: int = 0,
                 tol: float = DEFAULT_TOL) -> AxiomReport:
    """Doubling on the doubled image: pure pairs, phases included."""
    def draw(rng, n):
        m1 = random_mor(rng, *_objects(rng, 2), semiring)
        return m1, _partner(rng, m1, n)
    return _fold("doubling", samples, seed, _by_shape(
        draw, lambda m1, m2: check_doubling_pair(pure(m1), pure(m2), tol)))


def run_prep_state(semiring: Semiring, samples: int = 100, seed: int = 0,
                   tol: float = DEFAULT_TOL) -> AxiomReport:
    """Preparation-state agreement on doubled states, phases included."""
    def draw(rng, n):
        out, anc = _objects(rng, 2)
        s1 = random_mor(rng, UNIT, out.tensor(anc), semiring)
        return s1, _partner(rng, s1, n)

    def check(s1, s2):
        out, anc = (Obj(d) for d in s1.cod.factors)
        return check_prep_state_pair(CpmMor.of(KrausMor._of(s1, out, anc)),
                                     CpmMor.of(KrausMor._of(s2, out, anc)),
                                     tol)
    return _fold("prep-state", samples, seed, _by_shape(draw, check))


def run_replay(semiring: Semiring, samples: int = 50, seed: int = 0,
               tol: float = DEFAULT_TOL) -> AxiomReport:
    """Proof-step replay on random pairs with a common domain."""
    def draw(rng, n):
        a, b = _objects(rng, 2)
        f = random_mor(rng, a, b, semiring)
        return f, f if n % 5 == 0 else random_mor(rng, a, b, semiring)
    return _fold("replay", samples, seed, _by_shape(
        draw, lambda f, g: replay_proposition_steps(f, g, tol)))


def run_xi(semiring: Semiring, samples: int = 100, seed: int = 0,
           tol: float = DEFAULT_TOL) -> AxiomReport:
    """Functor laws of the isomorphism plus doubling on the pure image.

    Per sample: xi respects composition and tensor (compared through
    ``cp_equal``), xi is the identity on doubled forms, and doubling
    holds as a biconditional on pairs ``pure(m1)``, ``pure(m2)`` of
    drawn base morphisms, not lifted by xi, including phase-related
    pairs where both sides must come out true.
    Each chunk's samples are drawn first.  Then each law runs on groups
    of the types it spans: the samples' Kraus morphisms ``k``, ``k2``
    and ``k3`` are lifted by :func:`xi_lift` once per Kraus type, as one
    batch, and the identity on forms is one deviation per such group;
    the doubling pairs are checked in shape groups.  The compose and
    tensor laws, which span up to seven dims, run per sample on slices
    of the batched lifts.  Each sample's report folds its laws, then its
    doubling pair, and the reports fold in sample order.  The run's one
    standard structure builds each lift ``id_B ⊗ top_C`` once.
    """
    env = EnvStructure.standard(semiring)

    def run(rng, indices: range) -> list:
        kraus = []

        def draw(rng, n):
            a, b, c, b2, c2, a3, b3 = _objects(rng, 7)
            kraus.extend((_random_kraus(rng, a, b, c, semiring),
                          _random_kraus(rng, b, b2, c2, semiring),
                          _random_kraus(rng, a3, b3, c, semiring)))
            # doubling on the pure image, with an adversarial phase pair
            m1 = random_mor(rng, a, b, semiring)
            return m1, _partner(rng, m1, n)
        doubling = _by_shape(draw, lambda m1, m2: check_doubling_pair(
            pure(m1), pure(m2), tol))(rng, indices)
        # kraus[3n:3n + 3] are the chunk's n-th sample's k, k2 and k3
        lifts, on_forms = [None] * len(kraus), [None] * len(indices)
        for members, (mor,) in by_type([(k.mor,) for k in kraus]):
            first = kraus[members[0]]
            batch = KrausMor._of(mor, first.out, first.ancilla)
            lifted = xi_lift(env, batch)
            m = lifted.mor
            for i, dev, arr in zip(members, _each(cp_deviation(lifted, batch)),
                                   m.array):
                lifts[i] = KrausMor._of(Mor._of(m.dom, m.cod, arr, semiring),
                                        lifted.out, lifted.ancilla)
                if i % 3 == 0:
                    on_forms[i // 3] = dev
        reports = []
        for n, sub in enumerate(doubling):
            k, k2, k3 = kraus[3 * n:3 * n + 3]
            xk, xk2, xk3 = lifts[3 * n:3 * n + 3]
            laws = (
                ("identity_on_forms", on_forms[n]),
                ("compose", cp_deviation(xi_lift(env, cp_compose(k2, k)),
                                         cp_compose(xk2, xk))),
                ("tensor", cp_deviation(xi_lift(env, cp_tensor(k, k3)),
                                        cp_tensor(xk, xk3))))
            one = AxiomReport("xi", True, 0)
            for law, dev in laws:
                one.observe(semiring.within(dev, tol), dev,
                            {"law": law, "deviation": dev})
            one.observe(sub.holds, sub.max_deviation, sub.witness,
                        sub.checked)
            reports.append(one)
        return reports
    return _fold("xi", samples, seed, run)


AXIOM_RUNNERS = {
    "env-a": run_env_a,
    "env-b": run_env_b,
    "env-c": run_env_c,
    "doubling": run_doubling,
    "prep-state": run_prep_state,
    "xi": run_xi,
}
