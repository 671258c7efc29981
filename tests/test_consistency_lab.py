"""Tests for trend/limit classification, theorem verdicts, the experiment
runner, and the simulation-backed concentration checks."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as st

import gprior_lab.cli as cli
import gprior_lab.model_core as model_core
from gprior_lab.model_core import (
    ConstantRule,
    DecayingRule,
    DesignSpec,
    EmpiricalBayesG,
    FirstMRule,
    FixedDimension,
    FixedG,
    HyperG,
    PriorConstants,
    ScaledNormRule,
    SqrtDimension,
    ZellnerSiowG,
    ZerosRule,
    diagnostics,
    load_scenario,
)
from gprior_lab.g_regimes import build_g_posterior
from gprior_lab.numerics import RngStream
from gprior_lab.posterior_engine import BallOptions
import gprior_lab.consistency_lab as consistency_lab
from gprior_lab.consistency_lab import (
    FLOOR_THRESHOLD,
    OFFSET_BLOCK,
    REPORT_SCHEMA_VERSION,
    VANISH_THRESHOLD,
    _agreement,
    _classify_profile,
    _extended_grid,
    _offset_norms,
    check_radii,
    classify_trend,
    evaluate_theorem1,
    evaluate_theorem_subsequence_condition,
    predict_verdict,
    run_experiment,
    verify_lemmas,
)

from conftest import axis_stats, make_scenario, simulate_scenario_stats
from oracles import offset_norms, shrinkage_spread_stat

PRIOR = PriorConstants()
GRID = (200, 800, 3200)
SHIPPED = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))
# capped quadrature keeps the larger experiment smokes fast; accuracy is
# covered against the full grid in test_posterior_engine
CAPPED = BallOptions(method="exact", g_quad=64, sigma_grid=65)


class TestTrendClassification:
    def test_thresholds(self):
        assert VANISH_THRESHOLD == 0.05
        assert FLOOR_THRESHOLD == 0.1
        assert REPORT_SCHEMA_VERSION == 1

    def test_decreasing_to_small_is_vanishing(self):
        assert classify_trend([1.0, 0.5, 0.01]) == "vanishing"

    def test_plateau_above_floor_is_bounded_away(self):
        assert classify_trend([0.5, 0.6, 0.5, 0.5]) == "bounded_away"

    def test_dip_and_rebound_is_indeterminate(self):
        assert classify_trend([0.2, 0.05, 0.2]) == "indeterminate"

    def test_single_point_is_indeterminate(self):
        assert classify_trend([0.3]) == "indeterminate"

    def test_identically_zero_is_vanishing(self):
        assert classify_trend([0.0, 0.0, 0.0]) == "vanishing"


def classify_limit(fn, n_grid) -> str:
    """The limit class of a deterministic sequence, evaluated on the
    extended grid as the verdicts evaluate their offset traces."""
    return _classify_profile([float(fn(n)) for n in _extended_grid(n_grid)])


class TestLimitClassification:
    def test_square_root_diverges(self):
        assert classify_limit(lambda n: math.sqrt(n), GRID) == "diverging"

    def test_constant_is_positive(self):
        assert classify_limit(lambda n: 3.0, GRID) == "positive"

    def test_zero_sequence_is_zero(self):
        assert classify_limit(lambda n: 0.0, GRID) == "zero"

    def test_reciprocal_is_zero(self):
        assert classify_limit(lambda n: 1.0 / n, GRID) == "zero"

    def test_oscillation_is_unknown(self):
        def osc(n):
            return 2.0 if int(round(math.log(n / 100, 4))) % 2 else 0.5

        assert classify_limit(osc, (100,)) == "unknown"

    def test_profile_extends_geometrically_to_eight_points(self):
        assert _extended_grid(GRID) == [200, 800, 3200, 12800, 51200, 204800, 819200, 3276800]

    def test_profile_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty n grid"):
            _extended_grid(())


class _CountingRule:
    """A coefficient rule that records (n, start, stop) of every evaluation.
    With ``whole`` it says its nonzero prefix is its whole vector, so the
    offset walk covers every coordinate."""

    def __init__(self, rule, whole=False):
        self.rule = rule
        self.whole = whole
        self.calls = []

    def values(self, n, p, start=0, stop=None):
        self.calls.append((n, start, p if stop is None else stop))
        return self.rule.values(n, p, start, stop)

    def nonzero_end(self, n, p):
        return p if self.whole else self.rule.nonzero_end(n, p)


class TestVerdicts:
    @pytest.mark.parametrize("regime", [FixedG(rule="n"), EmpiricalBayesG(), ZellnerSiowG()])
    def test_offset_built_once_per_n(self, regime):
        # every coordinate of each n's offset is built at most once, in
        # blocks that tile [0, p) in order up to the one holding the last
        # coordinate of either rule's nonzero prefix
        for end, beta0 in [(3, FirstMRule(1.0, 3)), (None, ConstantRule(0.5))]:
            beta0, gamma = _CountingRule(beta0), _CountingRule(ZerosRule())
            sc = make_scenario(regime=regime, beta0_rule=beta0, gamma_rule=gamma)
            predict_verdict(sc, GRID)
            expected = []
            for n in _extended_grid(GRID):
                p = sc.p_at(n)
                expected += [(n, lo, min(lo + OFFSET_BLOCK, p)) for lo in range(0, end or p, OFFSET_BLOCK)]
            assert beta0.calls == expected
            assert gamma.calls == expected

    def test_fixed_growing_g_is_consistent(self):
        v = predict_verdict(make_scenario(regime=FixedG(rule="n")), GRID)
        assert v.display() == "Consistent (Theorem 1)"
        assert (v.theorem, v.predicted, v.sufficient_only) == ("T1", "consistent", False)
        assert v.evidence["center_condition"]["class"] == "zero"
        assert v.evidence["spread_condition"]["class"] == "zero"

    def test_fixed_unit_g_with_constant_offset_is_inconsistent(self):
        sc = make_scenario(
            regime=FixedG(rule=1.0),
            alpha=0.0,
            p_rule=FixedDimension(3),
            gamma_rule=ConstantRule(2.0),
        )
        v = predict_verdict(sc, GRID)
        assert v.display() == "Inconsistent (Theorem 1)"
        assert v.evidence["center_condition"]["class"] == "positive"

    def test_fixed_g_with_matching_location_is_consistent(self):
        sc = make_scenario(regime=FixedG(rule="n"), gamma_rule=FirstMRule(1.0, 3))
        assert predict_verdict(sc, GRID).display() == "Consistent (Theorem 1)"

    def test_eb_with_settling_offset_is_inconsistent(self):
        v = predict_verdict(make_scenario(), GRID)
        assert v.display() == "Inconsistent (Theorem 2)"
        assert v.evidence["alpha"] == 0.5
        assert v.evidence["offset_sq"]["class"] == "positive"
        assert v.evidence["offset_sup"]["class"] == "positive"

    def test_hyper_g_with_settling_offset_is_inconsistent(self):
        v = predict_verdict(make_scenario(regime=HyperG(c=3.0)), GRID)
        assert v.display() == "Inconsistent (Theorem 3)"

    def test_eb_with_diverging_offset_norm_is_consistent(self):
        sc = make_scenario(beta0_rule=ScaledNormRule("sqrt_n"))
        v = predict_verdict(sc, GRID)
        assert v.display() == "Consistent (Theorem 2)"
        assert v.evidence["offset_sq"]["class"] == "diverging"

    def test_eb_with_vanishing_dimension_ratio_is_consistent(self):
        sc = make_scenario(alpha=0.0, p_rule=SqrtDimension())
        assert predict_verdict(sc, GRID).display() == "Consistent (Theorem 2)"

    def test_zs_failing_condition_is_unknown(self):
        v = predict_verdict(make_scenario(regime=ZellnerSiowG()), GRID)
        assert v.display() == "Unknown (Theorem 4 sufficient only)"
        assert (v.predicted, v.sufficient_only) == ("unknown", True)

    def test_zs_holding_condition_is_consistent_but_flagged_sufficient(self):
        sc = make_scenario(regime=ZellnerSiowG(), alpha=0.0, p_rule=SqrtDimension())
        v = predict_verdict(sc, GRID)
        assert v.display() == "Consistent (Theorem 4)"
        assert (v.predicted, v.sufficient_only) == ("consistent", True)

    def test_theorem1_evaluator_rejects_other_regimes(self):
        with pytest.raises(ValueError, match="fixed-g regime"):
            evaluate_theorem1(make_scenario(), GRID)

    def test_subsequence_condition_zero_alpha_short_circuits(self):
        holds, ev = evaluate_theorem_subsequence_condition(
            make_scenario(alpha=0.0, p_rule=SqrtDimension()), GRID
        )
        assert holds is True
        assert ev["alpha"] == 0.0


# offsets (beta0 rule, gamma rule) beside the shipped scenarios' own
OFFSETS = {
    "decaying_0.25": (DecayingRule(1.0, 0.25), ZerosRule()),
    "decaying_0.5": (DecayingRule(1.0, 0.5), ZerosRule()),
    "decaying_1.0": (DecayingRule(1.0, 1.0), ZerosRule()),
    "constant": (FirstMRule(1.0, 3), ConstantRule(0.2)),
    "scaled_norm_constant": (ScaledNormRule(2.0), ZerosRule()),
    "scaled_norm_sqrt_n": (ScaledNormRule("sqrt_n"), ZerosRule()),
    "first_m": (FirstMRule(1.0, 3), FirstMRule(0.5, 60)),
}


def _offset_scenario(key):
    if key in OFFSETS:
        beta0, gamma = OFFSETS[key]
        return make_scenario(name=key, beta0_rule=beta0, gamma_rule=gamma)
    return load_scenario(key)


def _assert_norms_match_oracle(sc, n_grid):
    """The streamed norms against the whole-vector oracle; returns the
    oracle's profile."""
    ns, sup, sq = _offset_norms(sc, n_grid)
    assert ns == _extended_grid(n_grid)
    ref_sup, ref_sq = zip(*(offset_norms(sc, n) for n in ns))
    assert sup == list(ref_sup)
    assert np.allclose(sq, ref_sq, rtol=1e-12, atol=0.0)
    return ns, list(ref_sup), list(ref_sq)


class TestOffsetNorms:
    @pytest.mark.parametrize(
        "key", [str(p) for p in SHIPPED] + sorted(OFFSETS), ids=[p.stem for p in SHIPPED] + sorted(OFFSETS)
    )
    def test_blocks_match_the_whole_vector_oracle(self, key):
        sc = _offset_scenario(key)
        ref = _assert_norms_match_oracle(sc, GRID)
        for regime in [sc.regime, FixedG(rule="n"), EmpiricalBayesG(), ZellnerSiowG()]:
            scr = dataclasses.replace(sc, regime=regime)
            streamed, oracle = predict_verdict(scr, GRID), predict_verdict(scr, GRID, ref)
            assert (streamed.predicted, streamed.display()) == (oracle.predicted, oracle.display())
            assert streamed.evidence.keys() == oracle.evidence.keys()
            for name, trace in streamed.evidence.items():
                if isinstance(trace, dict):
                    assert trace["class"] == oracle.evidence[name]["class"], name
                    assert np.allclose(trace["values"], oracle.evidence[name]["values"], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "beta0, gamma",
        [(FirstMRule(1.0, 20), DecayingRule(0.5, 0.6)), (ScaledNormRule("sqrt_n"), ConstantRule(-0.1))],
    )
    def test_ragged_small_blocks(self, monkeypatch, beta0, gamma):
        # blocks of 7 over p = 50: a first_m run and the last block both
        # end inside a block
        monkeypatch.setattr(consistency_lab, "OFFSET_BLOCK", 7)
        sc = make_scenario(beta0_rule=beta0, gamma_rule=gamma, alpha=0.0, p_rule=FixedDimension(50))
        _assert_norms_match_oracle(sc, (100, 400))

    @pytest.mark.parametrize(
        "beta0, gamma",
        [
            (ZerosRule(), ZerosRule()),
            (FirstMRule(1.0, 3), ZerosRule()),
            (ZerosRule(), FirstMRule(-0.5, 20)),
            (FirstMRule(1.0, 3), FirstMRule(0.5, 20)),
            (FirstMRule(2.0, 0), ConstantRule(0.2)),
            (ScaledNormRule("sqrt_n"), FirstMRule(1.0, 9)),
            (DecayingRule(1.0, 0.5), ZerosRule()),
        ],
    )
    def test_walk_stops_at_the_last_nonzero_block(self, monkeypatch, beta0, gamma):
        # against the whole walk, bit for bit, in blocks of 7 over p = 50:
        # a first_m run of 20 spans three blocks, and mixed rules walk to
        # the larger of their ends
        monkeypatch.setattr(consistency_lab, "OFFSET_BLOCK", 7)
        kw = dict(alpha=0.0, p_rule=FixedDimension(50))

        def walk(whole):
            # the profile and the number of blocks walked per n
            rule = _CountingRule(beta0, whole)
            norms = _offset_norms(make_scenario(beta0_rule=rule, gamma_rule=_CountingRule(gamma, whole), **kw), (100, 400))
            return norms, len(rule.calls) // len(norms[0])

        (short, walked), (full, every) = walk(False), walk(True)
        assert short == full
        end = max(beta0.nonzero_end(100, 50), gamma.nonzero_end(100, 50))
        assert (walked, every) == (-(-end // 7), 8)
        # first_m still refuses m > p
        with pytest.raises(model_core.ScenarioError, match="needs p >= 51"):
            _offset_norms(make_scenario(beta0_rule=FirstMRule(1.0, 51), gamma_rule=gamma, **kw), (100, 400))

    def test_verdict_working_set_stays_small(self):
        # the extended grid reaches p = 1,638,400: whole offset vectors
        # would hold tens of megabytes
        sc = load_scenario(next(p for p in SHIPPED if p.stem == "zs_fixed_offset_alpha05"))
        tracemalloc.start()
        try:
            predict_verdict(sc, GRID)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestShrinkageSpread:
    def test_point_mass_closed_form(self):
        stats = axis_stats(50, [2.0, 1.0, 0.0], 30.0)
        quad_form = float(np.sum(stats.gram.eigenvalues * stats.beta_hat**2))
        post = build_g_posterior(FixedG(rule=3.0), stats, quad_form, PRIOR)
        expected = quad_form**2 * (3.0 / 16.0) ** 2 / 50.0**3
        assert shrinkage_spread_stat(post, 50) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_and_bounded_by_envelope(self):
        # g^2 (g+1)^{-4} <= 1/16 pointwise, so the stat is capped
        stats = axis_stats(50, [2.0, 1.0, 0.0], 30.0)
        quad_form = float(np.sum(stats.gram.eigenvalues * stats.beta_hat**2))
        post = build_g_posterior(HyperG(c=3.0), stats, quad_form, PRIOR)
        val = shrinkage_spread_stat(post, 50)
        assert 0.0 <= val <= quad_form**2 / 16.0 / 50.0**3


@pytest.fixture(scope="module")
def report_pair():
    sc = make_scenario(name="smoke")
    kw = dict(reps=3, master_seed=7)
    r1 = run_experiment(sc, (50, 100), (0.25, 0.5), threads=1, **kw)
    r8 = run_experiment(sc, (50, 100), (0.25, 0.5), threads=8, **kw)
    return r1, r8


# sha256 of each shipped scenario's canonical_json() in
# TestRunExperiment::test_shipped_reports_keep_their_bytes
SHIPPED_DIGESTS = {
    "eb_diverging_norm_alpha05": "6c1c2b23df1955f82d092bb1efdfcccbd67cb15b102a9cd2d091a55f1ec098b2",
    "eb_fixed_offset_alpha05": "0571e9aa0332c137ff8749094e89b9faae3c91815d2fcc231cb7e724686d2ff2",
    "eb_fixed_offset_alpha0_sqrtp": "45f28d0955c0025af432516c9d9e4d74d8c5753a64e0e4c79babd66d9b0f0d5a",
    "fixed_gn_unit_info_alpha05": "395c84ca0fa7bffc8ad94169b1b81425586224509a50e54ddb6db58ee78fd9bb",
    "hyperg_fixed_offset_alpha05": "96fa8245fbb297aa452272856a7b420858845f9a372df4f062ceed418acd9d82",
    "zs_fixed_offset_alpha05": "cc0735b68d09f3ed5d5a1389ec9b1f4746611cf591db23458970cd3ef98b157c",
}


class TestRunExperiment:

    def test_thread_count_does_not_change_payload(self, report_pair):
        r1, r8 = report_pair
        assert r1.canonical_json() == r8.canonical_json()

    def test_thread_count_does_not_change_payload_at_cli_defaults(self):
        # the 512-node hyper-g grid and default BallOptions: the exact
        # route's g-node blocks run on both threads at once
        sc = load_scenario(next(p for p in SHIPPED if p.stem == "hyperg_fixed_offset_alpha05"))
        kw = dict(reps=2, master_seed=20260815, ball_options=BallOptions())
        r1 = run_experiment(sc, (100, 200), (0.05, 0.1, 0.2, 0.5), threads=1, **kw)
        r2 = run_experiment(sc, (100, 200), (0.05, 0.1, 0.2, 0.5), threads=2, **kw)
        assert r1.canonical_json() == r2.canonical_json()
        assert any(0.0 < c["prob"] < 1.0 for c in r1.cells)

    def test_rotated_runs_are_byte_identical_across_threads(self):
        # a rotated design runs the MC route through its Haar basis; the
        # threads share each n's basis and rerunning redraws it
        sc = make_scenario(name="rotated", design=DesignSpec("diagonal", (0.5, 1.0, 2.0), 0.5, 2.0))
        kw = dict(reps=2, master_seed=20260815, ball_options=BallOptions(mc_draws=2000))
        runs = [
            run_experiment(sc, (100, 200), (0.1, 0.2, 0.5), threads=threads, **kw).canonical_json()
            for threads in (1, 2, 8, 1)
        ]
        assert len(set(runs)) == 1
        cells = json.loads(runs[0])["cells"]
        assert {c["method"] for c in cells} == {"mc"}
        assert any(0.0 < c["prob"] < 1.0 for c in cells)

    def test_rotated_cells_share_their_design_float32_basis(self, monkeypatch):
        # one float32 basis per n, built with its design, read by every
        # rep on every thread
        seen = []
        ball = consistency_lab.sup_ball_probability

        def spy(post, stats, *args, **kwargs):
            seen.append((stats.n, stats.gram.qt32))
            return ball(post, stats, *args, **kwargs)

        monkeypatch.setattr(consistency_lab, "sup_ball_probability", spy)
        sc = make_scenario(name="rotated", design=DesignSpec("diagonal", (0.5, 1.0, 2.0), 0.5, 2.0))
        run_experiment(sc, (100, 200), (0.1, 0.5), reps=3, threads=2, ball_options=BallOptions(mc_draws=200))
        assert sorted(n for n, _ in seen) == [100] * 3 + [200] * 3
        first = {}
        for n, basis in seen:
            assert basis is first.setdefault(n, basis) and basis is not None
        assert first[100] is not first[200]

    @pytest.mark.parametrize("path", SHIPPED, ids=[p.stem for p in SHIPPED])
    def test_shipped_reports_keep_their_bytes(self, path):
        # the sha256 of canonical_json() on a small exact-route grid, with
        # lemmas, at threads 1 and 8.  A change that moves a bit on purpose
        # updates the digest and says why; rotated (Monte Carlo) runs are
        # left out, since their last bits depend on the BLAS build
        runs = [
            run_experiment(
                load_scenario(path), (50, 100, 200), (0.1, 0.5), reps=2, master_seed=20260815,
                threads=threads, ball_options=BallOptions(method="exact"), include_lemmas=True,
            ).canonical_json()
            for threads in (1, 8)
        ]
        assert {hashlib.sha256(run.encode()).hexdigest() for run in runs} == {SHIPPED_DIGESTS[path.stem]}

    def test_cells_are_handed_out_largest_n_first(self, monkeypatch):
        # the costliest cells start first, so no thread is left with one
        # long cell at the end of the pool
        order = []
        run_cell = consistency_lab._run_cell

        def recording(scenario, n, rep, *rest):
            order.append((n, rep))
            return run_cell(scenario, n, rep, *rest)

        monkeypatch.setattr(consistency_lab, "_run_cell", recording)
        report = run_experiment(make_scenario(name="order"), (50, 100, 200), (0.5,), reps=2, threads=1)
        assert order == [(200, 0), (200, 1), (100, 0), (100, 1), (50, 0), (50, 1)]
        assert [(c["n"], c["rep"]) for c in report.cells] == sorted(order)

    def test_canonical_json_excludes_wall_time(self, report_pair):
        r1, _ = report_pair
        assert "wall_time_s" not in r1.canonical_json()
        assert r1.to_dict()["wall_time_s"] > 0
        assert r1.to_dict()["schema_version"] == 1

    def test_cells_are_sorted_and_traceable(self, report_pair):
        r1, _ = report_pair
        assert len(r1.cells) == 2 * 3 * 2
        keys = [(c["n"], c["rep"], c["eps"]) for c in r1.cells]
        assert keys == sorted(keys)
        for c in r1.cells:
            assert c["seed"] == 7
            assert c["path"] == ["smoke", c["n"], c["rep"]]
            assert c["method"] == "exact" and c["se"] is None
            assert 0.0 <= c["prob"] <= 1.0

    def test_probability_nonincreasing_in_eps_within_cell(self, report_pair):
        r1, _ = report_pair
        by_cell = {}
        for c in r1.cells:
            by_cell.setdefault((c["n"], c["rep"]), {})[c["eps"]] = c["prob"]
        for probs in by_cell.values():
            assert probs[0.5] <= probs[0.25] + 1e-12

    def test_aggregates_shape(self, report_pair):
        r1, _ = report_pair
        assert [a["eps"] for a in r1.aggregates] == [0.25, 0.5]
        for agg in r1.aggregates:
            assert agg["n_grid"] == [50, 100]
            assert len(agg["prob_median"]) == 2
            assert all(
                q25 <= med <= q75
                for q25, med, q75 in zip(
                    agg["prob_q25"], agg["prob_median"], agg["prob_q75"]
                )
            )
            assert agg["trend"] in ("vanishing", "bounded_away", "indeterminate")

    def test_csv_layout(self, report_pair):
        r1, _ = report_pair
        lines = r1.to_csv().strip().split("\n")
        assert lines[0] == "scenario,regime,n,p,rep,eps,prob,se,seed"
        assert len(lines) == 1 + len(r1.cells)
        first = lines[1].split(",")
        assert first[0] == "smoke" and first[1] == "eb"
        assert int(first[2]) == 50 and first[7] == "" and int(first[8]) == 7

    def test_csv_quotes_a_name_with_a_comma(self):
        sc = make_scenario(name="eb,comma")
        report = run_experiment(sc, (50, 100), (0.5,), reps=1, master_seed=2)
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert [len(row) for row in rows] == [9, 9, 9]
        assert [row[0] for row in rows[1:]] == ["eb,comma", "eb,comma"]

    def test_single_point_grid_is_indeterminate(self):
        sc = make_scenario(name="one")
        rep = run_experiment(sc, (60,), (0.5,), reps=1, master_seed=1)
        assert rep.aggregates[0]["trend"] == "indeterminate"
        # predicted inconsistent + indeterminate observation: no call either way
        assert rep.verdict.predicted == "inconsistent"
        assert rep.agreement is None

    def test_lemmas_embedded_on_request(self):
        sc = make_scenario(name="withlem")
        rep = run_experiment(
            sc, (50, 100), (0.5,), reps=2, master_seed=3, include_lemmas=True
        )
        doc = rep.to_dict()
        assert len(doc["lemmas"]) == 8
        for entry in doc["lemmas"]:
            assert set(entry) == {"name", "passed", "skipped", "reason", "details"}
        json.dumps(doc)  # report with lemmas stays serializable

    def test_lemmas_draw_each_dataset_once(self, monkeypatch):
        draws = []
        simulate = consistency_lab.simulate_stats

        def counting(scenario, n, rng, *rest):
            draws.append(rng.path)
            return simulate(scenario, n, rng, *rest)

        monkeypatch.setattr(consistency_lab, "simulate_stats", counting)
        run_experiment(make_scenario(name="once"), (50, 100), (0.5,), reps=3, include_lemmas=True)
        assert sorted(draws) == sorted(("once", n, rep, "sim") for n in (50, 100) for rep in range(3))

    @pytest.mark.parametrize("entry", ["run_experiment", "verify_lemmas", "simulate"])
    def test_one_design_per_n(self, monkeypatch, tmp_path, entry):
        # every rep at n shares the design drawn once from its keyed
        # stream, and its stats are those of a simulate_stats call on a
        # design drawn afresh
        built, drawn = [], []
        build, simulate = model_core.build_design, consistency_lab.simulate_stats

        def counting_build(spec, n, p, rng):
            built.append(rng.path)
            return build(spec, n, p, rng)

        def recording_simulate(scenario, n, rng, *rest, **kwargs):
            stats = simulate(scenario, n, rng, *rest, **kwargs)
            drawn.append((rng.path, stats))
            return stats

        monkeypatch.setattr(model_core, "build_design", counting_build)
        monkeypatch.setattr(consistency_lab, "simulate_stats", recording_simulate)
        sc = make_scenario(name="onedesign", design=DesignSpec("diagonal", (0.5, 1.0), 1.0, 2.0))
        grid = (40, 80)
        if entry == "run_experiment":
            run_experiment(sc, grid, (0.5,), reps=3, master_seed=4, threads=2,
                           ball_options=BallOptions(mc_draws=200))
        elif entry == "verify_lemmas":
            verify_lemmas(sc, grid, reps=3, master_seed=4)
        else:
            path = tmp_path / "onedesign.json"
            path.write_text(json.dumps(model_core.scenario_to_dict(sc)))
            assert cli.main(["simulate", "--scenario", str(path), "--n-grid", "40,80",
                             "--reps", "3", "--seed", "4"]) == 0
        assert sorted(built) == [("onedesign", "design", n) for n in grid]
        assert len(drawn) == 6
        monkeypatch.undo()
        for stream_path, stats in drawn:
            n = stream_path[1]
            own = simulate(sc, n, RngStream(4, stream_path), model_core.design_at(sc, n, 4))
            assert own.beta_hat.tobytes() == stats.beta_hat.tobytes()
            assert own.resid_ss == stats.resid_ss
            assert np.array_equal(own.gram.q, stats.gram.q)

    def test_simulate_rows_are_the_lemma_datasets(self, tmp_path, capsys):
        # `gprior-lab simulate` reports dataset (n, rep) exactly as
        # _dataset draws it and _lemma_record summarises it
        sc = make_scenario(name="onedata", design=DesignSpec("diagonal", (0.5, 1.0), 1.0, 2.0),
                           gamma_rule=ConstantRule(0.2))
        path = tmp_path / "onedata.json"
        path.write_text(json.dumps(model_core.scenario_to_dict(sc)))
        assert cli.main(["simulate", "--scenario", str(path), "--n-grid", "40,80", "--reps", "2",
                         "--seed", "6"]) == 0
        rows = json.loads(capsys.readouterr().out)["draws"]
        assert [(r["n"], r["rep"]) for r in rows] == [(40, 0), (40, 1), (80, 0), (80, 1)]
        for row in rows:
            n = row["n"]
            _, stats, diag = consistency_lab._dataset(sc, n, row["rep"], model_core.design_at(sc, n, 6), 6)
            record = consistency_lab._lemma_record(sc, n, stats, diag)
            own = model_core.simulate_stats(
                sc, n, RngStream(6, ("onedata", n, row["rep"], "sim")), model_core.design_at(sc, n, 6)
            )
            assert (own.beta_hat.tobytes(), own.resid_ss) == (stats.beta_hat.tobytes(), stats.resid_ss)
            assert row == {
                "n": n,
                "p": stats.p,
                "rep": row["rep"],
                "resid_ss": stats.resid_ss,
                "quad_form": diag.quad_form,
                "u_floor": record["u_floor"],
                "mle_sup_error": record["mle_err"],
                "eb_ghat": record["eb_ghat"],
            }
            assert row["eb_ghat"] is not None

    @pytest.mark.parametrize("regime", [FixedG(rule="n"), EmpiricalBayesG()], ids=["fixed", "eb"])
    def test_embedded_lemmas_equal_verify_lemmas(self, regime):
        sc = make_scenario(name="samelem", regime=regime, gamma_rule=ConstantRule(0.2))
        grid, reps, seed = (50, 100, 200), 4, 11
        report = run_experiment(sc, grid, (0.5,), reps=reps, master_seed=seed, threads=2,
                                include_lemmas=True)
        assert report.lemma_outcomes == verify_lemmas(sc, grid, reps, master_seed=seed)
        assert any(o.skipped for o in report.lemma_outcomes)
        assert any(not o.skipped for o in report.lemma_outcomes)

    @pytest.mark.parametrize(
        "text, message",
        [
            (",", "empty eps grid"),
            ("nan,0.5", "eps values must be finite"),
            ("inf,0.5", "eps values must be finite"),
            ("0,0.5", "eps values must be > 0"),
            ("0.5,0.5", "duplicate eps values"),
        ],
        ids=["empty", "nan", "inf", "not_positive", "duplicate"],
    )
    def test_one_radius_rule(self, tmp_path, capsys, text, message):
        # check_radii's message, whether run_experiment or --eps-grid meets the grid
        radii = [float(tok) for tok in text.split(",") if tok]
        with pytest.raises(ValueError) as direct:
            check_radii(radii)
        with pytest.raises(ValueError) as run:
            run_experiment(make_scenario(name="bad"), (50,), radii, reps=1)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(model_core.scenario_to_dict(make_scenario(name="bad"))))
        with pytest.raises(SystemExit) as exc:
            cli.main(["experiment", "--scenario", str(path), "--n-grid", "50", "--eps-grid", text,
                      "--out", str(tmp_path / "out")])
        assert str(direct.value) == str(run.value) == message
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"argument --eps-grid: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_radii_come_back_sorted(self):
        assert check_radii([0.5, 0.1, 2]) == (0.1, 0.5, 2.0)

    def test_grid_validation(self):
        sc = make_scenario(name="bad")
        with pytest.raises(ValueError, match="reps must be >= 1"):
            run_experiment(sc, (50,), (0.5,), reps=0)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_experiment(sc, (50,), (0.5,), reps=1, threads=0)

    def test_mc_cell_does_not_depend_on_the_other_radii(self):
        # one sample per cell is scored at every radius, so adding radii to
        # the grid leaves an existing radius's estimate as it was
        sc = make_scenario(
            name="rot_grid",
            design=DesignSpec("diagonal", (0.5, 1.0), 1.0, 2.0),
            gamma_rule=FirstMRule(1.0, 3),
        )
        opts = BallOptions(mc_draws=2000)
        alone, among = (
            run_experiment(sc, (100,), grid, reps=2, master_seed=5, ball_options=opts)
            for grid in ((0.2,), (0.1, 0.2, 0.5))
        )

        def at_02(rep):
            return [(c["rep"], c["prob"], c["se"]) for c in rep.cells if c["eps"] == 0.2]

        assert at_02(alone) == at_02(among)
        # both estimates lie strictly inside (0, 1), where a different
        # sample would show
        assert all(0.0 < prob < 1.0 for _, prob, _ in at_02(among))
        assert {c["method"] for c in among.cells} == {"mc"}

    def test_matching_prior_location_vanishes(self):
        # prior located exactly at the truth with g = 1: the posterior sits
        # on top of beta0 and the exceedance dies along the grid
        sc = make_scenario(
            name="match_center",
            regime=FixedG(rule=1.0),
            gamma_rule=FirstMRule(1.0, 3),
        )
        rep = run_experiment(
            sc, GRID, (0.5,), reps=10, master_seed=20260815,
            threads=2, ball_options=CAPPED,
        )
        assert rep.verdict.display() == "Consistent (Theorem 1)"
        assert rep.aggregates[0]["trend"] == "vanishing"
        assert rep.agreement is True
        small_n = [c["prob"] for c in rep.cells if c["n"] == 200]
        assert small_n and all(p < 0.5 for p in small_n)


# trend lists -> agreement under a consistent, an inconsistent and an
# unknown verdict
AGREEMENT = {
    "all_vanishing": (("vanishing", "vanishing"), (True, False, None)),
    "some_bounded_away": (("vanishing", "bounded_away"), (False, True, None)),
    "all_indeterminate": (("indeterminate", "indeterminate"), (None, None, None)),
    "vanishing_and_indeterminate": (("vanishing", "indeterminate"), (None, None, None)),
}


@pytest.mark.parametrize("predicted", ["consistent", "inconsistent", "unknown"])
@pytest.mark.parametrize("case", sorted(AGREEMENT))
def test_agreement_rule(case, predicted):
    trends, outcomes = AGREEMENT[case]
    expected = outcomes[("consistent", "inconsistent", "unknown").index(predicted)]
    assert _agreement(predicted, list(trends)) is expected


LEMMA_NAMES = {
    "mle_sup_error_vanishes",
    "resid_ratio_concentrates",
    "quad_form_ratio_concentrates",
    "scale_total_ratio_concentrates",
    "sigma2_interval_mass",
    "eb_ghat_stays_positive",
    "u_floor_bounded",
    "u_floor_and_cutoff_vanish",
}


class TestVerifyLemmas:
    def test_every_check_reports_once(self):
        sc = make_scenario(name="lemstruct")
        outs = verify_lemmas(sc, (100, 200), reps=3, master_seed=5)
        assert {o.name for o in outs} == LEMMA_NAMES
        for o in outs:
            if o.skipped:
                assert o.passed is None and o.reason
            else:
                assert isinstance(o.passed, bool) and o.details

    def test_fixed_regime_checks_pass_at_modest_scale(self):
        sc = make_scenario(name="lemfix", regime=FixedG(rule="n"))
        outs = verify_lemmas(sc, (250, 1000), reps=20, master_seed=20260815)
        by_name = {o.name: o for o in outs}
        for name in (
            "mle_sup_error_vanishes",
            "resid_ratio_concentrates",
            "quad_form_ratio_concentrates",
            "scale_total_ratio_concentrates",
            "sigma2_interval_mass",
            "eb_ghat_stays_positive",
            "u_floor_bounded",
        ):
            assert by_name[name].passed is True, (name, by_name[name].details)
        assert by_name["u_floor_and_cutoff_vanish"].skipped

    def test_non_fixed_regime_skips_scale_checks(self):
        sc = make_scenario(name="lemeb")
        outs = verify_lemmas(sc, (100, 200), reps=3, master_seed=5)
        by_name = {o.name: o for o in outs}
        for name in ("scale_total_ratio_concentrates", "sigma2_interval_mass"):
            assert by_name[name].skipped
            assert "fixed-g" in by_name[name].reason

    def test_matching_location_at_zero_alpha_gates_offset_checks(self):
        sc = make_scenario(
            name="lemmatch",
            alpha=0.0,
            p_rule=FixedDimension(3),
            regime=FixedG(rule=1.0),
            gamma_rule=FirstMRule(1.0, 3),
        )
        outs = verify_lemmas(sc, (50, 100), reps=3, master_seed=5)
        by_name = {o.name: o for o in outs}
        gated = by_name["quad_form_ratio_concentrates"]
        assert gated.skipped and "alpha > 0" in gated.reason
        assert by_name["eb_ghat_stays_positive"].skipped
        assert by_name["u_floor_bounded"].skipped
        assert by_name["u_floor_and_cutoff_vanish"].skipped
        assert not by_name["scale_total_ratio_concentrates"].skipped

    def test_sigma2_interval_mass_matches_scipy_invgamma(self):
        # the lemma's gammaincc difference against scipy's InverseGamma law
        # of sigma^2 | g, at a size where the mass is visibly below 1
        sc = make_scenario(name="lemsig", regime=FixedG(rule="n"))
        outs = verify_lemmas(sc, (12, 16), reps=5, master_seed=5)
        cover = {o.name: o for o in outs}["sigma2_interval_mass"].details["final_median"]
        masses = []
        p, d = sc.p_at(16), sc.gamma_at(16) - sc.beta0_at(16)
        for rep in range(5):
            stats = simulate_scenario_stats(sc, 16, 5, rep)
            diag = diagnostics(stats, sc.gamma_at(16), sc.prior)
            # the scale total S + b + Q / (g + 1) at g = 16 and its mean
            # under the truth, on the orthogonal design X'X = 16 I
            total = diag.resid_plus_b + diag.quad_form / 17.0
            expected = (16 - p) + sc.prior.b + (p + 16.0 * float(d @ d)) / 17.0
            law = st.invgamma(0.5 * (16 + sc.prior.a - 2.0), scale=0.5 * total)
            masses.append(law.cdf(2.0 * expected / 16) - law.cdf(expected / (2.0 * 16)))
        assert cover == pytest.approx(float(np.median(masses)), rel=1e-12)
        assert 0.5 < cover < 0.999

    def test_reps_validation(self):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            verify_lemmas(make_scenario(), (100,), reps=0)

    @pytest.mark.parametrize(
        "design, gamma_rule",
        [
            (DesignSpec(), ConstantRule(0.2)),
            (DesignSpec("diagonal", (0.5, 1.0), 1.0, 2.0), DecayingRule(0.5, 0.5)),
            (DesignSpec(), FirstMRule(1.0, 3)),
        ],
        ids=["orthogonal", "rotated", "no_offset"],
    )
    def test_lemma_record_matches_its_formulas(self, design, gamma_rule):
        # the truth-side statistics against the formulas written out on an
        # explicit X'X = Q diag(e) Q'
        sc = make_scenario(name="record", design=design, gamma_rule=gamma_rule,
                           sigma0_sq=1.5, prior=PriorConstants(a=1.0, b=0.5), regime=FixedG(rule="n"))
        n = 60
        _, stats, diag = consistency_lab._dataset(sc, n, 1, model_core.design_at(sc, n, 9), 9)
        record = consistency_lab._lemma_record(sc, n, stats, diag)
        gram = stats.gram
        q = np.eye(stats.p) if gram.q is None else gram.q
        xtx = q @ np.diag(gram.eigenvalues) @ q.T
        beta0, d = sc.beta0_at(n), sc.gamma_at(n) - sc.beta0_at(n)
        expected_q = stats.p * 1.5 + float(d @ xtx @ d)
        rb, qf, g = stats.resid_ss + 0.5, diag.quad_form, float(n)
        r = float(np.max(np.abs(d))) / 0.1
        assert record["n"] == n
        assert record["mle_err"] == float(np.max(np.abs(stats.beta_hat - beta0)))
        assert record["resid_ratio"] == pytest.approx(stats.resid_ss / ((n - stats.p) * 1.5), rel=1e-14)
        assert record["quad_ratio"] == pytest.approx(qf / expected_q, rel=1e-12)
        assert record["u_floor"] == diag.u_floor
        assert record["u_cutoff"] == pytest.approx(max(rb / (rb + qf), r * rb / (r * rb + qf)), rel=1e-14)
        if r == 0:
            assert record["u_cutoff"] == diag.u_floor
        else:
            assert record["u_cutoff"] > diag.u_floor
        expected_total = (n - stats.p) * 1.5 + 0.5 + expected_q / (g + 1.0)
        assert record["scale_ratio"] == pytest.approx((rb + qf / (g + 1.0)) / expected_total, rel=1e-12)
        law = st.invgamma(0.5 * (n + 1.0 - 2.0), scale=0.5 * (rb + qf / (g + 1.0)))
        cover = law.cdf(2.0 * expected_total / n) - law.cdf(expected_total / (2.0 * n))
        assert record["sigma2_cover"] == pytest.approx(cover, rel=1e-10)
        assert record["eb_ghat"] is not None
