"""Environment-structure axioms and the associated sampling runners."""

import numpy as np
import pytest

from cpcat import (AXIOM_RUNNERS, BOOLEAN, COMPLEX, SEMIRINGS, AxiomReport,
                   CpmMor, EnvStructure, KrausMor, Mor, Obj, UNIT, check_laws,
                   check_doubling_base, check_doubling_pair, check_env_a,
                   check_env_b_pair, check_env_c, check_prep_state_base,
                   check_prep_state_pair, cp_equal, cp_identity, discard,
                   mor_equal, pure, random_mor, replay_proposition_steps,
                   xi_lift)
from cpcat import axioms, cli
from cpcat.axioms import (run_doubling, run_env_a, run_env_b, run_env_c,
                          run_prep_state, run_replay, run_xi)
from cpcat.errors import (DimensionMismatch, DomainNotUnit, InvalidArgument,
                          NotCompact)


def random_kraus(rng, na, nb, nc, semiring=COMPLEX):
    m = random_mor(rng, Obj(na), Obj(nb, nc), semiring)
    return KrausMor(m, Obj(nb), Obj(nc))


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
def test_env_a_holds_for_the_standard_discards(semiring):
    env = EnvStructure.standard(semiring)
    report = check_env_a(env, [UNIT, Obj(2), Obj(3), Obj(2, 2)])
    assert report.holds
    assert report.status == "holds"
    assert report.checked == 17  # unit clause plus 4 * 4 ordered pairs
    assert report.max_deviation == 0.0


def test_env_a_catches_a_scaled_discard():
    # doubling the discard vector breaks the unit clause with weight 4
    def crooked(a):
        return KrausMor(Mor(a, a, 2.0 * np.eye(a.dim)), UNIT, a)

    env = EnvStructure(COMPLEX, crooked)
    report = check_env_a(env, [Obj(2)])
    assert not report.holds
    assert report.status == "counterexample"
    assert report.witness["clause"] == "unit"
    assert report.witness["deviation"] == 3.0
    assert np.array_equal(report.witness["lhs_form"], np.array([[4.0]]))
    assert np.array_equal(report.witness["rhs_form"], np.array([[1.0]]))


@pytest.mark.parametrize("tol", [1.0, 10.0, -1.0])
def test_boolean_equality_stays_exact_at_any_tol(tol):
    # a boolean deviation is 0 or 1, so ``dev <= tol`` would call every
    # pair equal here; the semiring's policy keeps equality exact
    yes = Mor(UNIT, UNIT, np.array([[True]]), BOOLEAN)
    no = Mor(UNIT, UNIT, np.array([[False]]), BOOLEAN)
    assert not mor_equal(yes, no, tol)
    assert not cp_equal(pure(yes), pure(no), tol)

    def empty(a):
        return KrausMor(Mor(a, a, np.zeros((a.dim, a.dim), bool), BOOLEAN),
                        UNIT, a)

    report = check_env_a(EnvStructure(BOOLEAN, empty), [Obj(2)], tol)
    assert not report.holds
    assert report.witness["clause"] == "unit"
    assert report.witness["deviation"] == 1.0
    report = check_doubling_base(yes, no, tol)
    assert report.holds
    assert report.notes == ("squares=False singles=False",)
    assert check_laws(BOOLEAN, trials=5, tol=tol).ok


def test_axiom_report_observe_accumulates():
    report = AxiomReport("demo", True, 0)
    report.observe(True, 0.5, {"first": "unused"})
    assert report.holds and report.witness is None
    report.observe(False, 0.25, None, checked=3)
    assert (report.holds, report.status) == (False, "fails")
    report.observe(False, 2.0, {"n": 1})
    report.observe(False, 1.0, {"n": 2}, checked=2)
    assert report.checked == 7
    assert report.max_deviation == 2.0
    assert report.witness == {"n": 1}
    assert report.status == "counterexample"


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
def test_env_b_pair_on_equal_inputs(semiring):
    rng = np.random.default_rng(51)
    f = random_mor(rng, Obj(2), Obj(2, 3), semiring)
    env = EnvStructure.standard(semiring)
    report = check_env_b_pair(env, f, f)
    assert report.holds
    assert report.max_deviation == 0.0
    assert any(note.startswith("left=") for note in report.notes)


def test_env_b_pair_requires_matching_codomains():
    rng = np.random.default_rng(52)
    f = random_mor(rng, Obj(2), Obj(2, 3))
    g = random_mor(rng, Obj(2), Obj(3, 2))
    env = EnvStructure.standard(COMPLEX)
    with pytest.raises(DimensionMismatch):
        check_env_b_pair(env, f, g)


def test_env_b_detects_ancilla_freedom():
    # same channel through two different ancilla bases: both routes agree
    rng = np.random.default_rng(53)
    f = random_mor(rng, Obj(2), Obj(2, 2))
    u = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    g = Mor(Obj(2), Obj(2, 2), u @ f.array)
    env = EnvStructure.standard(COMPLEX)
    report = check_env_b_pair(env, f, g)
    assert report.holds


def test_env_c_dilation_round_trip():
    rng = np.random.default_rng(54)
    env = EnvStructure.standard(COMPLEX)
    report = check_env_c(env, random_kraus(rng, 2, 3, 2), tol=1e-8)
    assert report.holds
    assert any("ancilla_dim" in note for note in report.notes)


def test_env_c_rejects_boolean_input():
    rng = np.random.default_rng(55)
    env = EnvStructure.standard(BOOLEAN)
    with pytest.raises(InvalidArgument):
        check_env_c(env, random_kraus(rng, 2, 2, 2, BOOLEAN))


@pytest.mark.parametrize("semiring", [
    BOOLEAN, type("NoChannels", (type(COMPLEX),),
                  {"supports_channels": False})("complex-no-channels")],
    ids=["bool", "complex-no-channels"])
def test_env_c_names_the_capability_it_refuses_for(semiring):
    # a complex instance without channels is refused too: the message
    # names the capability missing, not the instance
    rng = np.random.default_rng(55)
    env = EnvStructure.standard(semiring)
    with pytest.raises(InvalidArgument) as caught:
        check_env_c(env, random_kraus(rng, 2, 2, 2, semiring))
    assert str(caught.value) == (
        "env-c needs an instance with supports_channels, such as complex")


def test_doubling_pair_holds_for_phase_related_kraus():
    rng = np.random.default_rng(56)
    k = random_kraus(rng, 2, 2, 2)
    twisted = KrausMor(
        Mor(k.dom, Obj(2, 2), np.exp(1.2j) * k.mor.array), Obj(2), Obj(2))
    report = check_doubling_pair(k, twisted)
    assert report.holds


def test_doubling_fails_in_the_base_category():
    # [1] and [-1] double to the same CP map yet differ as morphisms
    f = Mor(UNIT, UNIT, np.array([[1.0]]))
    g = Mor(UNIT, UNIT, np.array([[-1.0]]))
    report = check_doubling_base(f, g)
    assert not report.holds
    assert report.status == "counterexample"
    assert report.witness["square_deviation"] == 0.0
    assert report.witness["single_deviation"] == 2.0


@pytest.mark.parametrize("check,axiom,notes,devs", [
    (check_doubling_base, "doubling-base", "squares=True singles=False",
     {"square_deviation": 0.0, "single_deviation": 2.0}),
    (check_prep_state_base, "prep-state-base",
     "preparations=True states=False",
     {"preparation_deviation": 0.0, "state_deviation": 2.0}),
])
def test_sign_pair_counterexample_report(check, axiom, notes, devs):
    f = Mor(UNIT, UNIT, np.array([[1.0]]))
    g = Mor(UNIT, UNIT, np.array([[-1.0]]))
    report = check(f, g)
    assert (report.axiom, report.holds, report.checked) == (axiom, False, 1)
    assert report.max_deviation == 0.0
    assert report.notes == (notes,)
    assert sorted(report.witness) == sorted(["f", "g", *devs])
    assert {k: report.witness[k] for k in devs} == devs
    assert np.array_equal(report.witness["f"], f.array)
    assert np.array_equal(report.witness["g"], g.array)


def test_prep_state_pair_requires_state_domain():
    rng = np.random.default_rng(57)
    k = CpmMor.of(random_kraus(rng, 2, 2, 2))
    with pytest.raises(DomainNotUnit):
        check_prep_state_pair(k, k)


def test_prep_state_pair_holds_on_states():
    rng = np.random.default_rng(58)
    m = random_mor(rng, UNIT, Obj(2, 2))
    # a global phase changes every entry but not the state
    turned = Mor(UNIT, Obj(2, 2), np.exp(0.7j) * m.array)
    assert not np.any(np.isclose(turned.array, m.array))
    phi = CpmMor.of(KrausMor(m, Obj(2), Obj(2)))
    psi = CpmMor.of(KrausMor(turned, Obj(2), Obj(2)))
    report = check_prep_state_pair(phi, psi)
    assert report.holds
    assert report.notes == ("preparations=True states=True",)


def test_prep_state_fails_in_the_base_category():
    f = Mor(UNIT, UNIT, np.array([[1.0]]))
    g = Mor(UNIT, UNIT, np.array([[-1.0]]))
    report = check_prep_state_base(f, g)
    assert not report.holds
    assert "preparations=True states=False" in report.notes


def test_replay_steps_for_the_identity():
    wire = Mor(Obj(2), Obj(2), np.eye(2))
    report = replay_proposition_steps(wire, wire, tol=1e-12)
    assert report.holds
    assert report.checked == 5
    assert report.max_deviation == 0.0
    assert "preparations_equal=True" in report.notes
    assert "states_equal=True" in report.notes


def test_replay_skips_incomparable_pairs():
    rng = np.random.default_rng(59)
    f = random_mor(rng, Obj(2), Obj(2))
    g = random_mor(rng, Obj(2), Obj(3))
    report = replay_proposition_steps(f, g)
    assert report.holds
    assert any("skipped" in note for note in report.notes)


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
def test_xi_lift_reproduces_its_input(semiring):
    rng = np.random.default_rng(60)
    k = random_kraus(rng, 2, 2, 2, semiring)
    assert cp_equal(xi_lift(EnvStructure.standard(semiring), k), k)


def test_xi_lift_of_pure_keeps_the_form():
    rng = np.random.default_rng(61)
    f = random_mor(rng, Obj(2), Obj(3))
    assert cp_equal(xi_lift(EnvStructure.standard(COMPLEX), pure(f)),
                    pure(f))


def test_xi_lift_discards_through_its_structure():
    # the weighted discard traces against diag(1, ..., d) on every
    # factor: it keeps axiom (a), but a lift through it no longer gives
    # back the Kraus map it lifts
    def weighted(a):
        w = np.ones(1)
        for d in a.factors:
            w = np.kron(w, np.sqrt(np.arange(1, d + 1)))
        return KrausMor(Mor(a, a, np.diag(w)), UNIT, a)

    env = EnvStructure(COMPLEX, weighted)
    assert check_env_a(env, [Obj(2), Obj(3), Obj(2, 3)]).holds
    k = random_kraus(np.random.default_rng(63), 2, 2, 3)
    assert not cp_equal(xi_lift(env, k), k)
    assert cp_equal(xi_lift(EnvStructure.standard(COMPLEX), k), k)


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
def test_xi_iso_check_samples_cleanly(semiring):
    report = run_xi(semiring, samples=30, seed=2)
    assert report.holds
    assert report.checked >= 30


RUNNERS = [run_env_a, run_env_b, run_doubling, run_prep_state, run_replay,
           run_xi]


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("semiring", SEMIRINGS.values())
def test_runners_hold_on_fresh_seeds(runner, semiring):
    report = runner(semiring, samples=15, seed=9)
    assert report.holds
    assert report.checked >= 15


def without_cups(original):
    """An instance of a subclass of ``original``'s class with no cups."""
    rigid = type("Rigid", (type(original),), {"compact": False})
    return rigid(f"{original.name}-rigid")


@pytest.mark.parametrize(
    "runner", [run_env_a, run_env_b, run_doubling, run_prep_state, run_replay,
               run_xi, run_env_c])
def test_runners_keep_a_third_semiring_instance(runner):
    # a copy of either class is another instance that must report as the
    # original does: the phase partners of doubling, prep-state and xi
    # and env-b's rotations stay in the instance they were drawn from,
    # and env-c asks the instance, not its identity, for channels.
    # A subclass without cups reports as the original too wherever the
    # runner needs none, as the CP construction needs no compact
    # structure; prep-state and replay realize states by cpm_form, which
    # needs cups, so they refuse it.
    # env-c runs on the one instance with channels
    for original in (COMPLEX,) if runner is run_env_c else SEMIRINGS.values():
        copy = type(original)(f"{original.name}-copy")
        got, want = runner(copy, seed=0), runner(original, seed=0)
        assert (got.holds, got.checked, got.samples, got.max_deviation) == (
            want.holds, want.checked, want.samples, want.max_deviation)
        rigid = without_cups(original)
        if runner in (run_prep_state, run_replay):
            with pytest.raises(NotCompact) as caught:
                runner(rigid, seed=0)
            assert str(caught.value) == (
                f"{rigid.name} has no compact structure")
        else:
            assert runner(rigid, seed=0) == want


@pytest.mark.parametrize("original", SEMIRINGS.values(),
                         ids=list(SEMIRINGS))
def test_laws_keep_an_instance_without_cups(original):
    got, want = check_laws(without_cups(original)), check_laws(original)
    assert (got.ok, got.trials, got.tol, got.deviations) == (
        want.ok, want.trials, want.tol, want.deviations)


def test_env_c_runner_complex_only():
    report = run_env_c(COMPLEX, samples=10, seed=9)
    assert report.holds


def test_runner_names_cover_the_cli_choices():
    assert sorted(AXIOM_RUNNERS) == [
        "doubling", "env-a", "env-b", "env-c", "prep-state", "xi"]
    # the CLI lists them itself, so that its parser imports no checker
    assert cli.AXIOM_NAMES == tuple(sorted(AXIOM_RUNNERS))


def test_reports_carry_the_sampled_sizes():
    report = run_doubling(COMPLEX, samples=12, seed=1)
    assert report.axiom == "doubling"
    assert report.checked == 12


@pytest.mark.parametrize("semiring,samples", [(COMPLEX, 7), (BOOLEAN, 5)])
def test_run_xi_lifts_five_times_per_sample(semiring, samples, monkeypatch):
    # a batch of Kraus maps is one call that lifts one map per slice
    lifts = []
    lift = axioms.xi_lift

    def counted(env, k):
        lifts.append(np.prod(k.mor.array.shape[:-2], dtype=int))
        return lift(env, k)
    monkeypatch.setattr(axioms, "xi_lift", counted)
    report = axioms.run_xi(semiring, samples=samples)
    assert report.holds
    assert sum(lifts) == 5 * samples


@pytest.mark.parametrize("order", [(np.nan, 0.5, 0.25), (0.5, np.nan, 0.25),
                                   (0.25, 0.5, np.nan)])
def test_axiom_report_observe_keeps_a_nan_deviation(order):
    # the builtin max(0.0, nan) is 0.0, which would hide a NaN residual
    report = AxiomReport("demo", True, 0)
    for dev in order:
        report.observe(dev == dev, dev, {"dev": dev})
    assert np.isnan(report.max_deviation)
    assert report.checked == 3 and not report.holds
    assert np.isnan(report.witness["dev"])


@pytest.mark.parametrize("nan_at", [0, 1, 4])
def test_a_nan_deviation_survives_the_grouped_fold(nan_at, monkeypatch):
    # env-b reports |left - right| per sample; a NaN on one sample of a
    # shape group must reach the total whichever sample carries it, as
    # it does when each sample is checked alone
    deviation = axioms.cp_deviation
    poisoned_once = []

    def poisoned(k1, k2):
        dev = np.array(deviation(k1, k2), dtype=float)
        if not poisoned_once and dev.size > nan_at:
            poisoned_once.append(1)
            dev.reshape(-1)[nan_at] = np.nan
        return dev if dev.ndim else float(dev)
    monkeypatch.setattr(axioms, "cp_deviation", poisoned)
    report = run_env_b(COMPLEX, samples=100, seed=4)
    assert poisoned_once
    assert np.isnan(report.max_deviation)
    assert not report.holds
    assert report.witness["left_deviation"] != report.witness[
        "left_deviation"]


@pytest.mark.parametrize("semiring", SEMIRINGS.values())
def test_run_xi_builds_each_lift_once_per_call(semiring, monkeypatch):
    keys, envs, discards = [], [], []
    lift, discard_ = axioms.xi_lift, axioms.discard

    def lifted(env, k):
        # one key per map lifted, a batch lifting one map per slice
        envs.append(env)
        keys.extend([(k.out, k.ancilla)]
                    * np.prod(k.mor.array.shape[:-2], dtype=int))
        return lift(env, k)

    def counted(a, sem):
        discards.append(a)
        return discard_(a, sem)
    monkeypatch.setattr(axioms, "xi_lift", lifted)
    monkeypatch.setattr(axioms, "discard", counted)
    runs = []
    for _ in range(2):
        keys.clear()
        envs.clear()
        discards.clear()
        assert axioms.run_xi(semiring, samples=40, seed=3).holds
        assert len(keys) == 200
        # one structure per call holds every lift of the call
        env = envs[0]
        assert all(e is env for e in envs)
        assert set(env._lifts) == {("xi",) + key for key in keys}
        assert len(discards) == len(env._lifts) == len(set(keys)) < 100
        runs.append(env)
    assert runs[0] is not runs[1]
    # a structure builds each lift once; a fresh one builds it afresh
    k = random_kraus(np.random.default_rng(62), 2, 2, 2, semiring)
    env = EnvStructure.standard(semiring)
    discards.clear()
    axioms.xi_lift(env, k)
    axioms.xi_lift(env, k)
    assert len(discards) == 1
    axioms.xi_lift(EnvStructure.standard(semiring), k)
    assert len(discards) == 2


def refusal(call) -> str:
    with pytest.raises(DimensionMismatch) as caught:
        call()
    return str(caught.value)


def test_the_pair_checkers_refuse_pairs_of_different_types():
    rng = np.random.default_rng(71)
    f = random_mor(rng, Obj(2), Obj(2, 3))
    g = random_mor(rng, Obj(3), Obj(2, 3))
    env = EnvStructure.standard(COMPLEX)
    assert refusal(lambda: check_env_b_pair(env, f, g)) == (
        "env-b pair Mor(Obj(2) -> Obj(2, 3), complex) "
        "vs Mor(Obj(3) -> Obj(2, 3), complex)")
    assert refusal(lambda: check_doubling_pair(pure(f), pure(g))) == (
        "doubling pair KrausMor(Obj(2) -> Obj(2, 3), ancilla=Obj(), complex) "
        "vs KrausMor(Obj(3) -> Obj(2, 3), ancilla=Obj(), complex)")
    assert refusal(lambda: check_doubling_base(f, g)) == (
        "doubling pair Mor(Obj(2) -> Obj(2, 3), complex) "
        "vs Mor(Obj(3) -> Obj(2, 3), complex)")
    phi, psi = (CpmMor.of(KrausMor(random_mor(rng, UNIT, Obj(n, 1)),
                                   Obj(n), Obj(1))) for n in (2, 3))
    assert refusal(lambda: check_prep_state_pair(phi, psi)) == (
        "prep-state pair Mor(Obj() -> Obj(2, 2), complex) "
        "vs Mor(Obj() -> Obj(3, 3), complex)")
    assert refusal(lambda: replay_proposition_steps(f, g)) == (
        "replay needs a common domain")
    b = random_mor(rng, Obj(2), Obj(2, 3), BOOLEAN)
    assert refusal(lambda: replay_proposition_steps(f, b)) == (
        "replay needs a common semiring")
