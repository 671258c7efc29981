"""Tests of the benchmark's own helpers.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import statistics
import sys
import threading
import time
from pathlib import Path

import pytest

from checks import MAX_PROB_ERR, Checker, digest_report, mc_standard_error, mc_z, summarize
from run import END_TO_END, HERE, ROOT, WORKLOADS, load_reference
from tracing import LAYER_METRICS, Tracer, layer_metrics, self_times, union_length


# ---------------------------------------------------------------------------
# summary statistics


def test_summarize_matches_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert summarize(values) == {"median": med, "q1": q1, "q3": q3, "n": 10}


def test_summarize_single_value_and_empty():
    assert summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    with pytest.raises(ValueError):
        summarize([])


# ---------------------------------------------------------------------------
# interval union and self time


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 4), (3, 6), (8, 9)], 0, 10) == 6
    assert union_length([(1, 4), (3, 6)], 2, 5) == 3
    assert union_length([(0, 1), (1, 2)], 0, 10) == 2
    assert union_length([], 0, 10) == 0
    assert union_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_union_of_children_from_two_threads():
    # (id, name, thread, start, end, parent, cell, work)
    spans = [
        (1, "consistency_lab.run_experiment", 0, 0.0, 10.0, None, None, {"threads": 2}),
        (2, "posterior_engine.exact", 1, 1.0, 4.0, 1, None, None),
        (3, "posterior_engine.exact", 2, 3.0, 6.0, 1, None, None),
        (4, "model_core.simulate_stats", 1, 8.0, 9.0, 1, None, None),
        (5, "numerics.normal_logcdf", 1, 2.0, 3.0, 2, None, None),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(4.0)  # 10 - |[1,6] u [8,9]|, not 10 - 7
    assert own[2] == pytest.approx(2.0)
    assert own[5] == pytest.approx(1.0)
    metrics, shares = layer_metrics(spans, rounds=1)
    assert metrics["consistency_lab.self_s"] == pytest.approx(4.0)
    assert metrics["consistency_lab.pool_utilisation"] == pytest.approx(7.0 / 20.0)
    assert metrics["posterior_engine.exact.calls"] == 2
    assert shares["posterior_engine.exact"] == pytest.approx(6.0 / 7.0)


def test_tracer_parents_worker_spans_to_the_blocked_caller():
    tracer = Tracer()

    class Module:
        @staticmethod
        def work(delay):
            time.sleep(delay)

    assert tracer.patch(Module, "work", "model_core.simulate_stats")
    assert not tracer.patch(Module, "missing", "x")
    try:
        with tracer.span("consistency_lab.run_experiment") as work:
            work["threads"] = 2
            threads = [threading.Thread(target=Module.work, args=(0.2,)) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
    finally:
        tracer.restore()
    assert not hasattr(Module.work, "__wrapped__")
    run = next(s for s in tracer.spans if s[1] == "consistency_lab.run_experiment")
    children = [s for s in tracer.spans if s[1] == "model_core.simulate_stats"]
    assert len(children) == 2 and all(s[5] == run[0] for s in children)
    assert len({s[2] for s in children}) == 2
    duration = run[4] - run[3]
    # the children overlap, so subtracting their plain sum would go negative
    assert sum(s[4] - s[3] for s in children) > duration
    own = self_times(tracer.spans)[run[0]]
    assert 0.0 <= own < duration - 0.15


def test_layer_metrics_cli_write_time_and_per_round_scaling():
    spans = [
        (1, "cli.experiment", 0, 0.0, 5.0, None, None, {"report_bytes": 1000}),
        (2, "consistency_lab.run_experiment", 0, 1.0, 4.0, 1, None, {"threads": 1}),
        (3, "cli.plot", 0, 5.0, 5.5, None, None, None),
    ]
    metrics, _ = layer_metrics(spans, rounds=2)
    assert metrics["cli.write_s"] == pytest.approx(1.0)
    assert metrics["cli.report_bytes"] == 500
    assert metrics["cli.plot.busy_s"] == pytest.approx(0.25)
    assert metrics["consistency_lab.pool_utilisation"] == 0.0


# ---------------------------------------------------------------------------
# the reference comparator


def _doc(probs, method="exact", se=None, trend="vanishing"):
    cells = [
        {"n": 100, "rep": 0, "eps": eps, "prob": p, "se": se, "method": method}
        for eps, p in probs
    ]
    return {
        "cells": cells,
        "aggregates": [{"eps": eps, "trend": trend} for eps, _ in probs],
        "verdict": {"display": "Inconsistent (Theorem 2)"},
        "agreement": True,
        "lemmas": [{"name": "resid_ratio_concentrates", "passed": True}],
    }


def test_mc_standard_error_is_floored_at_zero_and_one():
    draws = 20_000
    for p in (0.0, 1.0):
        se = mc_standard_error(p, 0.0, draws)
        assert se > 0.0
        assert se == pytest.approx(((0.5 / draws) * (1 - 0.5 / draws) / draws) ** 0.5)
    # away from the edges the reported standard error wins
    assert mc_standard_error(0.5, 0.004, draws) == 0.004
    assert mc_z(0.0, 0.0, 0.0, 0.0, draws) == 0.0
    # one draw's difference at the edge is a finite, small z
    assert 0.0 < mc_z(1.0 / draws, 0.0, 0.0, 0.0, draws) < 2.0
    assert mc_z(0.2, 0.0028, 0.0, 0.0, draws) > 50.0


def test_checker_accepts_its_own_reference():
    doc = _doc([(0.1, 0.9), (0.5, 0.1)])
    checker = Checker(mc_draws=20_000)
    checker.check("s", doc, cells=1, reference=digest_report(doc))
    assert checker.correct and checker.summary()["max_prob_err"] == 0.0


def test_checker_flags_probability_drift_and_counts_the_cell():
    ref = digest_report(_doc([(0.1, 0.9), (0.5, 0.1)]))
    checker = Checker(mc_draws=20_000)
    checker.check("s", _doc([(0.1, 0.9 + 10 * MAX_PROB_ERR), (0.5, 0.1)]), cells=1, reference=ref)
    assert checker.failed == 1 and not checker.correct
    assert checker.max_prob_err == pytest.approx(10 * MAX_PROB_ERR)


def test_checker_counts_trend_verdict_and_lemma_mismatches():
    ref = digest_report(_doc([(0.1, 0.9), (0.5, 0.1)]))
    doc = _doc([(0.1, 0.9), (0.5, 0.1)], trend="bounded_away")
    doc["agreement"] = False
    doc["lemmas"][0]["passed"] = False
    checker = Checker(mc_draws=20_000)
    checker.check("s", doc, cells=1, reference=ref)
    assert checker.trend_mismatches == 4 and not checker.correct
    sliced = Checker(mc_draws=20_000)
    sliced.check("s", doc, cells=1, reference=ref, full=False)
    assert sliced.trend_mismatches == 0 and sliced.correct


def test_checker_mc_route_uses_the_floored_error():
    ref = digest_report(_doc([(0.1, 0.0)], method="mc", se=0.0))
    close = Checker(mc_draws=20_000)
    close.check("s", _doc([(0.1, 1.0 / 20_000)], method="mc", se=0.0), cells=1, reference=ref)
    assert close.correct and 0.0 < close.mc_max_z < 2.0
    far = Checker(mc_draws=20_000)
    far.check("s", _doc([(0.1, 0.01)], method="mc", se=0.0007), cells=1, reference=ref)
    assert far.failed == 1 and far.mc_max_z > 4.0


def test_reference_free_checks():
    checker = Checker(mc_draws=20_000)
    checker.check("s", _doc([(0.1, 0.2), (0.5, 0.3)]), cells=1)  # increases with eps
    checker.check("s", _doc([(0.1, 1.5)]), cells=1)
    checker.check("s", _doc([(0.1, float("nan"))]), cells=1)
    checker.check("s", _doc([(0.1, 0.2), (0.5, 0.3)], method="mc", se=0.001), cells=1)
    assert (checker.attempted, checker.failed) == (4, 3)


def test_raised_units_and_repeats_count_against_correctness():
    checker = Checker(mc_draws=20_000)
    checker.raised("s", cells=3, error="ValueError()")
    assert checker.failed_cell_ratio == 1.0 and not checker.correct
    again = Checker(mc_draws=20_000)
    again.check("s", _doc([(0.1, 0.5)]), cells=1)
    again.same_bytes("s", "{}", "{}")
    assert again.correct
    again.same_bytes("s", "{}", "{ }")
    assert again.nondeterministic == 1 and not again.correct


# ---------------------------------------------------------------------------
# the benchmark's declared shape


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS


def test_references_match_the_workload_grids():
    for wl in WORKLOADS.values():
        ref = load_reference(wl)
        assert len(ref) == len(wl.scenarios)


def test_rotated_scenario_loads_and_has_a_verdict():
    sys.path.insert(0, str(ROOT / "src"))
    from gprior_lab.consistency_lab import predict_verdict
    from gprior_lab.model_core import load_scenario

    wl = WORKLOADS["rotated_mc"]
    scenario = load_scenario(ROOT / wl.scenarios[0])
    assert scenario.design.kind == "diagonal"
    assert predict_verdict(scenario, wl.n_grid).display() == "Inconsistent (Theorem 2)"
    assert Path(HERE / "scenarios" / f"{scenario.name}.json").exists()
