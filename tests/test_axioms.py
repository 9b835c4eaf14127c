"""Environment-structure axioms and the associated sampling runners."""

import numpy as np
import pytest

from cpcat import (AXIOM_RUNNERS, BOOLEAN, COMPLEX, AxiomReport, CpmMor,
                   EnvStructure, KrausMor, Mor, Obj, UNIT, check_laws,
                   check_doubling_base,
                   check_doubling_pair, check_env_a, check_env_b_pair,
                   check_env_c, check_prep_state_base, check_prep_state_pair,
                   cp_equal, cp_identity, discard, mor_equal, pure,
                   random_mor, replay_proposition_steps, xi_iso_check,
                   xi_lift)
from cpcat.axioms import (run_doubling, run_env_a, run_env_b, run_env_c,
                          run_prep_state, run_replay, run_xi)
from cpcat.errors import (DimensionMismatch, DomainNotUnit, InvalidArgument)


def random_kraus(rng, na, nb, nc, semiring=COMPLEX):
    m = random_mor(rng, Obj(na), Obj(nb, nc), semiring)
    return KrausMor(m, Obj(nb), Obj(nc))


@pytest.mark.parametrize("semiring", [COMPLEX, BOOLEAN])
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


@pytest.mark.parametrize("semiring", [COMPLEX, BOOLEAN])
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
    phi = CpmMor.of(KrausMor(m, Obj(2), Obj(2)))
    report = check_prep_state_pair(phi, phi)
    assert report.holds


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


@pytest.mark.parametrize("semiring", [COMPLEX, BOOLEAN])
def test_xi_lift_reproduces_its_input(semiring):
    rng = np.random.default_rng(60)
    k = random_kraus(rng, 2, 2, 2, semiring)
    assert cp_equal(xi_lift(k), k)


def test_xi_lift_of_pure_keeps_the_form():
    rng = np.random.default_rng(61)
    f = random_mor(rng, Obj(2), Obj(3))
    assert cp_equal(xi_lift(pure(f)), pure(f))


def test_xi_iso_check_is_the_xi_runner():
    assert xi_iso_check is run_xi is AXIOM_RUNNERS["xi"]


@pytest.mark.parametrize("semiring", [COMPLEX, BOOLEAN])
def test_xi_iso_check_samples_cleanly(semiring):
    report = xi_iso_check(semiring, samples=30, seed=2)
    assert report.holds
    assert report.checked >= 30


RUNNERS = [run_env_a, run_env_b, run_doubling, run_prep_state, run_replay,
           run_xi]


@pytest.mark.parametrize("runner", RUNNERS)
@pytest.mark.parametrize("semiring", [COMPLEX, BOOLEAN])
def test_runners_hold_on_fresh_seeds(runner, semiring):
    report = runner(semiring, samples=15, seed=9)
    assert report.holds
    assert report.checked >= 15


def test_env_c_runner_complex_only():
    report = run_env_c(COMPLEX, samples=10, seed=9)
    assert report.holds


def test_runner_names_cover_the_cli_choices():
    assert sorted(AXIOM_RUNNERS) == [
        "doubling", "env-a", "env-b", "env-c", "prep-state", "xi"]


def test_reports_carry_the_sampled_sizes():
    report = run_doubling(COMPLEX, samples=12, seed=1)
    assert report.axiom == "doubling"
    assert report.checked == 12
