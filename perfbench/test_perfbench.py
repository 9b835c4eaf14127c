"""Tests of the benchmark itself: its oracles fail on wrong results, and
the traced run's accounting holds.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import numpy as np
import pytest

import cpcat
from cpcat import channels, core, cp
import child
import hostspeed
import oracles
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def shifted(m: core.Mor, delta) -> core.Mor:
    arr = m.array.copy()
    if arr.dtype == np.bool_:
        arr[0, 0] = not arr[0, 0]
    else:
        arr[0, 0] += delta
    return core.Mor(m.dom, m.cod, arr, m.semiring)


def shifted_kraus(k: cp.KrausMor, delta) -> cp.KrausMor:
    return cp.KrausMor(shifted(k.mor, delta), k.out, k.ancilla)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


@pytest.mark.parametrize("key", ["form", "realized", "composite", "choi",
                                 "adjoint", "product", "deviation",
                                 "min_eig", "is_cp"])
def test_kraus_oracles_count_a_perturbed_result(rng, key):
    unit = workloads.kraus_case(rng, 3, with_tensor=True)
    assert unit.check(unit.call())
    result = unit.call()  # the check releases big arrays it has compared
    value = result[key]
    if isinstance(value, core.Mor):
        result[key] = shifted(value, 1e-6)
    elif isinstance(value, cp.KrausMor):
        result[key] = shifted_kraus(value, 1e-6)
    elif isinstance(value, channels.ChoiMatrix):
        m = value.matrix.copy()
        m[0, 0] += 1e-6
        result[key] = channels.ChoiMatrix(value.in_dim, value.out_dim, m)
    elif isinstance(value, bool):
        result[key] = not value
    else:
        result[key] = value + 1e-6
    assert not unit.check(result)


def test_boolean_form_oracles_count_a_flipped_entry(rng):
    unit = workloads.relation_form_case(rng, 3)
    form, realized = unit.call()
    assert unit.check((form, realized))
    assert not unit.check((shifted(form, None), realized))
    assert not unit.check((form, shifted(realized, None)))


@pytest.mark.parametrize("make", [
    lambda rng: workloads.relation_compose_case(rng, 16),
    lambda rng: workloads.relation_tensor_case(rng, 2, 4),
])
def test_relation_oracles_count_a_flipped_entry(rng, make):
    unit = make(rng)
    result = unit.call()
    assert unit.check(result)
    assert not unit.check(shifted(result, None))


def test_golden_oracle_needs_every_byte_and_the_exit_code():
    unit = workloads.golden_units(ROOT / "tests" / "golden")[0]
    code, out, err = unit.call()
    assert unit.check((code, out, err))
    assert not unit.check((code, out + " ", err))
    assert not unit.check((code, out[:-1] + "\r\n", err))
    assert not unit.check((1, out, err))


def test_generated_script_oracle_counts_a_changed_entry(rng, tmp_path):
    unit = workloads.chain_script_unit(rng, tmp_path, 0, terms=20)
    code, out, err = unit.call()
    assert unit.check((code, out, err))
    lines = out.splitlines()
    k = next(i for i, line in enumerate(lines) if ".entry[" in line)
    key, value = lines[k].split("=")
    re, im = map(float, value.split())
    lines[k] = f"{key}={re + 1e-6:.17g} {im:.17g}"
    assert not unit.check((code, "\n".join(lines) + "\n", err))


def test_axiom_oracle_needs_the_expected_count():
    unit = workloads._runner_unit("env-b", core.COMPLEX, 3)
    report = unit.call()
    assert unit.check(report)
    report.checked -= 1
    assert not unit.check(report)
    report.checked += 1
    report.holds = False
    assert not unit.check(report)


def test_a_raising_unit_counts_as_failed():
    def boom():
        raise ValueError("boom")
    tally = child.Tally()
    child.run_round([workloads.Unit("boom", boom, lambda r: True),
                     workloads.Unit("wrong", lambda: 1, lambda r: r == 2),
                     workloads.Unit("right", lambda: 2, lambda r: r == 2)],
                    tally)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert set(tally.errors) == {"boom", "wrong"}


def test_wrappers_reach_every_namespace_and_come_off():
    original = cpcat.core.compose
    spans = tracer.Tracer()
    restore = tracer.install(spans)
    try:
        wrapped = cpcat.core.compose
        assert wrapped is not original
        assert cpcat.cp.compose is wrapped
        assert cpcat.compose is wrapped
        assert all(f.__wrapped__ is getattr(cpcat.axioms, f.__name__)
                   .__wrapped__ for f in cpcat.AXIOM_RUNNERS.values())
    finally:
        restore()
    assert cpcat.core.compose is original
    assert cpcat.cp.compose is original
    assert not hasattr(cpcat.AXIOM_RUNNERS["xi"], "__wrapped__")


def test_traced_self_times_sum_to_no_more_than_the_wall_time(rng, tmp_path):
    units = [workloads.kraus_case(rng, 3, with_tensor=True),
             workloads._runner_unit("xi", core.BOOLEAN, 5),
             workloads.relation_form_case(rng, 3),
             workloads.matrix_script_unit(rng, tmp_path, 4)]
    spans = tracer.Tracer()
    tally = child.Tally()
    restore = tracer.install(spans)
    try:
        result = child.run_round(units, tally, spans)
    finally:
        restore()
    assert tally.failed == 0
    totals = spans.totals()
    self_sum = sum(s for _, s, _ in totals.values())
    assert self_sum <= sum(result["wall_s"]) + 1e-9
    assert all(s >= -1e-9 for _, s, _ in totals.values())
    # calls made inside cp, through its own binding of compose, are seen
    assert totals["core.compose"][0] > totals["cp.cp_compose"][0] > 0
    assert totals["cli.main"][0] == 1
    metrics = tracer.layer_metrics(spans, 1, 1.0)
    assert set(metrics) == set(tracer.metric_units())


def test_cold_cli_oracle_matches_the_program():
    code, out, _ = workloads.invoke(list(run.COLD_CLI_ARGS))
    assert code == 0
    assert out == run.expected_swap_output(2, 3)


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == tracer.metric_units())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_work_list_seconds_takes_out_the_host_speed():
    # one unit above the calibration gap, one below it
    fast = {"wall_s": [0.2, 0.01], "cpu_s": [0.2, 0.01],
            "cal_s": [hostspeed.REFERENCE_S] * 2, "correct": 2}
    slow = {k: v if k == "correct" else [1.5 * x for x in v]
            for k, v in fast.items()}
    for key in ("wall_s", "cpu_s"):
        for rounds in ([fast], [slow, slow, slow], [slow, fast, slow]):
            assert child.work_list_seconds(rounds, key) == pytest.approx(0.21)
        # an exponent below 1 leaves part of a slow spell in the result
        assert child.work_list_seconds([slow], key, 0.5) == \
            pytest.approx(0.21 * 1.5 ** 0.5)
