"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, covered_time, layer_metrics, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNTERS = {"normalize_repeats": 0, "max_num_terms": 0, "max_den_terms": 0,
            "rk4_steps": 0, "artifact_bytes": 0}


def test_self_time_of_nested_span_tree():
    #  A [0,10] -> B [1,4] -> C [2,3];  A -> D [5,9];  E [11,12] at top level
    spans = [
        ("expr.normalize", 0.0, 10.0, -1),
        ("linsys.gauge", 1.0, 4.0, 0),
        ("expr.normalize", 2.0, 3.0, 1),
        ("expr.differentiate", 5.0, 9.0, 0),
        ("cli.main", 11.0, 12.0, -1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert covered_time(spans) == 11.0
    metrics = layer_metrics(spans, 13.0, COUNTERS, ())
    assert metrics["expr.normalize.self_s"] == 4.0
    assert metrics["expr.normalize.calls"] == 2
    assert metrics["expr.module_self_s"] == 8.0
    assert metrics["trace.unwrapped_s"] == 2.0
    assert metrics["cli.main.s"] == 1.0
    module_total = sum(v for k, v in metrics.items() if k.endswith(".module_self_s"))
    assert module_total + metrics["trace.unwrapped_s"] == 13.0


def test_self_times_that_do_not_reconcile_are_rejected():
    # the child claims a parent whose interval does not contain it
    spans = [("expr.normalize", 0.0, 1.0, -1), ("expr.normalize", 2.0, 4.0, 0)]
    with pytest.raises(ValueError):
        layer_metrics(spans, 5.0, COUNTERS, ())


def test_tracer_rebinds_imported_names_and_restores_them():
    from darbouxkit import expr, golden

    originals = (expr.normalize, golden.normalize, golden.CHECKS["darboux-covariance"])
    tracer = Tracer()
    tracer.install()
    try:
        assert golden.normalize is expr.normalize is not originals[0]
        golden.run_checks(["darboux-covariance"])
    finally:
        tracer.uninstall()
    assert (expr.normalize, golden.normalize,
            golden.CHECKS["darboux-covariance"]) == originals
    names = {span[0] for span in tracer.spans}
    assert {"golden.run_checks", "golden.darboux-covariance", "expr.normalize"} <= names
    assert "expr.evaluate" not in names


def _susy_states_artifact() -> str:
    from darbouxkit import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(workloads.CHAIN_COMMANDS["susy-states"]) == 0
    return buf.getvalue()


def test_chain_gate_trips_on_one_perturbed_reference_value():
    text = _susy_states_artifact()
    reference = workloads.load_reference()
    positions = workloads.sample_points(7)
    assert workloads.artifact_failures("susy-states", text, reference, positions) == []

    perturbed = copy.deepcopy(reference)
    path = sorted(perturbed["artifacts"]["susy-states"])[-1]
    value = perturbed["artifacts"]["susy-states"][path][positions[0]]
    value[0] = value[0] * (1 + 1e-7) + 1e-7
    failures = workloads.artifact_failures("susy-states", text, perturbed, positions)
    assert len(failures) == 1 and path in failures[0]


def test_chain_gate_accepts_a_different_representation_of_the_same_values():
    document = json.loads(_susy_states_artifact())
    # (a*b) written as (a*b*c)/c keeps every value
    document["states"][0][0] = f"(/ (* {document['states'][0][0]} (+ x 3)) (+ 3 x))"
    failures = workloads.artifact_failures(
        "susy-states", json.dumps(document), workloads.load_reference(),
        workloads.sample_points(1))
    assert failures == []


def test_report_gate_uses_pinned_bounds():
    ok = {"check": "applications", "max_residual": 1e-13, "tolerance": 1e-8, "pass": True}
    assert workloads.report_failure(ok) is None
    assert workloads.report_failure({**ok, "pass": False})
    # a report that loosened its own tolerance still fails the gate
    assert workloads.report_failure({**ok, "max_residual": 1e-5, "tolerance": 1e-3})
    weak = {"check": "orientation-mutation", "max_residual": 1e-3, "pass": True}
    assert workloads.report_failure(weak)
    assert workloads.report_failure({**ok, "max_residual": float("nan")})


def test_failing_verdict_counts_in_fail_ratio():
    record = {
        "cold": {"failures": [None, "applications: verdict false (measured 1.0)"]},
        "warm": [{"failures": [None, None]}],
    }
    attempted, failed, reasons = run._count([record], items=2, passes=2)
    assert (attempted, failed) == (4, 1)
    assert reasons == ["applications: verdict false (measured 1.0)"]
    # a child that crashed fails every item it would have run
    assert run._count([record, None], items=2, passes=2)[:2] == (8, 5)


def test_tail_has_ten_samples_above_it():
    assert run.tail([1.0] * 10) is None
    percentile, value = run.tail([float(i) for i in range(20, 0, -1)])
    assert (percentile, value) == (50.0, 10.0)


def test_names_match_the_contract_and_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in [*workload_names, *e2e, *layers]:
        assert NAME.fullmatch(name), name
    assert workload_names == list(workloads.WORKLOADS)
    assert e2e == run.END_TO_END
    assert layers == run.per_layer_units()
    for name in [*workloads.CHAIN_COMMANDS, *workloads.ALL_CHECKS]:
        assert NAME.fullmatch(name), name


def test_speed_factor_rescales_to_the_reference_speed():
    at_reference = {"wall": speed.REFERENCE_ITERATION_S, "cpu": 1.0}
    twice_as_slow = {"wall": 2 * at_reference["wall"], "cpu": 1.0}
    assert speed.factor([at_reference], "wall") == pytest.approx(1.0)
    assert speed.factor([twice_as_slow], "wall") == pytest.approx(0.5)
    # the mean of the speeds, not of the loop times
    assert speed.factor([at_reference, twice_as_slow], "wall") == pytest.approx(0.75)


def _busy(seconds: float):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return None, 0


def test_sampler_time_is_taken_out_of_the_pass_and_the_timer_restored():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    result = child.run_pass([("busy", lambda: _busy(0.35))], sampler)
    assert result["speed_samples"] >= 2
    assert result["speed_spent_s"] > 0
    # the item waited 0.35 s of wall time, of which the handler took a part
    assert result["seconds"][0] + result["speed_spent_s"] == pytest.approx(0.35, abs=5e-3)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.take()) == result["speed_samples"] and sampler.samples == []
    unsampled = child.run_pass([("busy", lambda: _busy(0.05))], sampler, sample=False)
    assert unsampled["speed_samples"] == 0 and unsampled["speed_spent_s"] == 0
