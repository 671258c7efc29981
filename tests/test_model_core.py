"""Designs, scenario rules, simulation, diagnostics, and JSON round trips."""

import dataclasses
import inspect
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given
from hypothesis import strategies as hst

from gprior_lab.model_core import (
    ConstantRule,
    DecayingRule,
    DesignSpec,
    Diagnostics,
    FirstMRule,
    FixedDimension,
    LinearDimension,
    PriorConstants,
    Scenario,
    ScenarioError,
    ScaledNormRule,
    SqrtDimension,
    ZerosRule,
    build_design,
    design_at,
    diagnostics,
    load_scenario,
    mle_sup_error,
    scenario_from_dict,
    scenario_to_dict,
    simulate_stats,
)
from gprior_lab.consistency_lab import _dataset, _lemma_record
from gprior_lab.model_core import EmpiricalBayesG, FixedG, HyperG, ZellnerSiowG, _haar_orthonormal
from gprior_lab.numerics import RngStream

from conftest import axis_stats, make_scenario, simulate_scenario_stats
from oracles import simulate_full_stats

PRIOR = PriorConstants()
REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# prior constants and design specs


class TestPriorConstants:
    def test_defaults_allowed(self):
        pr = PriorConstants()
        assert pr.a == 0.0 and pr.b == 0.0

    def test_a_floor(self):
        PriorConstants(a=-2.0)  # boundary allowed
        with pytest.raises(ScenarioError):
            PriorConstants(a=-2.1)

    def test_b_nonnegative(self):
        with pytest.raises(ScenarioError):
            PriorConstants(b=-0.5)


class TestDesignSpec:
    def test_orthogonal_eigenvalues(self):
        gram = build_design(DesignSpec(), 10, 3, RngStream(0, ("d",)))
        assert gram.q is None
        assert np.array_equal(gram.eigenvalues, np.full(3, 10.0))

    def test_diagonal_eigenvalues_tile(self):
        spec = DesignSpec("diagonal", (0.5, 1.0), lambda_min=0.5, lambda_max=2.0)
        gram = build_design(spec, 4, 2, RngStream(0, ("d",)))
        assert np.allclose(sorted(gram.eigenvalues), [2.0, 4.0])
        assert gram.q is not None and gram.q.shape == (2, 2)

    def test_diagonal_spectrum_outside_band(self):
        with pytest.raises(ScenarioError):
            DesignSpec("diagonal", (2.0,), lambda_min=1.0, lambda_max=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ScenarioError):
            DesignSpec(kind="sparse")

    def test_band_ordering(self):
        with pytest.raises(ScenarioError):
            DesignSpec("diagonal", (1.0,), lambda_min=2.0, lambda_max=1.0)

    def test_p_must_be_below_n(self):
        with pytest.raises(ScenarioError, match="p < n"):
            build_design(DesignSpec(), 5, 5, RngStream(0, ("d",)))

    def test_rotation_is_orthonormal(self):
        spec = DesignSpec("diagonal", (0.5, 0.8, 1.0), lambda_min=0.5, lambda_max=2.0)
        gram = build_design(spec, 30, 6, RngStream(3, ("d",)))
        assert np.allclose(gram.q @ gram.q.T, np.eye(6), atol=1e-12)

    def test_rotation_deterministic_in_stream(self):
        spec = DesignSpec("diagonal", (0.5, 1.0), lambda_min=0.5, lambda_max=2.0)
        g1 = build_design(spec, 8, 4, RngStream(9, ("d",)))
        g2 = build_design(spec, 8, 4, RngStream(9, ("d",)))
        assert np.array_equal(g1.q, g2.q)

    @pytest.mark.parametrize("p", [1, 6, 300])
    def test_float32_basis_is_a_read_only_copy_of_q_transposed(self, p):
        # the MC route rotates its draws through it; every rep and thread
        # at one n reads the one copy built with the design
        spec = DesignSpec("diagonal", (0.5, 0.8, 1.0), lambda_min=0.5, lambda_max=2.0)
        gram = build_design(spec, 2 * p + 1, p, RngStream(3, ("d",)))
        assert gram.qt32.dtype == np.float32 and gram.qt32.flags.c_contiguous
        assert np.array_equal(gram.qt32, gram.q.T.astype(np.float32))
        assert not gram.qt32.flags.writeable
        with pytest.raises(ValueError):
            gram.qt32[0, 0] = 0.0
        assert build_design(DesignSpec(), 10, 3, RngStream(0, ("d",))).qt32 is None


class TestHaarBasis:
    """_haar_orthonormal factorizes its draw in place: the same basis as the
    sign-fixed np.linalg.qr of one (p, p) draw, at about one basis of memory."""

    @staticmethod
    def _reference(p):
        rng = RngStream(11, ("haar", p))
        q, r = np.linalg.qr(rng.generator.standard_normal((p, p)))
        return q * np.sign(np.diag(r)), rng.generator.standard_normal()

    # 300 and 1000 end in a partial chunk of rows
    @pytest.mark.parametrize("p", [1, 3, 300, 1000])
    def test_matches_the_sign_fixed_qr_of_one_draw(self, p):
        rng = RngStream(11, ("haar", p))
        q = _haar_orthonormal(p, rng)
        expected, next_normal = self._reference(p)
        assert q.shape == (p, p)
        assert np.max(np.abs(q - expected)) <= 1e-12
        assert np.max(np.abs(q.T @ q - np.eye(p))) <= 1e-12
        # the stream is left where one (p, p) draw leaves it
        assert rng.generator.standard_normal() == next_normal

    @pytest.mark.parametrize("p", [400, 800])
    def test_peak_is_about_one_basis(self, p):
        _haar_orthonormal(2, RngStream(0, ("warm",)))  # the lazy import is not part of a draw
        rng = RngStream(11, ("haar", p))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _haar_orthonormal(p, rng)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # np.linalg.qr peaked at 4.1 bases
        assert peak <= 1.5 * 8 * p * p, f"peak {peak / (8 * p * p):.2f} bases"


# ---------------------------------------------------------------------------
# coefficient and dimension rules


class TestRules:
    def test_first_m(self):
        vals = FirstMRule(2.0, 2).values(10, 5)
        assert np.array_equal(vals, [2.0, 2.0, 0.0, 0.0, 0.0])

    def test_first_m_exceeding_p(self):
        with pytest.raises(ScenarioError):
            FirstMRule(1.0, 5).values(10, 3)

    def test_scaled_norm_fixed_target(self):
        vals = ScaledNormRule(9.0).values(100, 4)
        assert float(vals @ vals) == pytest.approx(9.0, rel=1e-12)

    def test_scaled_norm_sqrt_n(self):
        vals = ScaledNormRule("sqrt_n").values(400, 10)
        assert float(vals @ vals) == pytest.approx(20.0, rel=1e-12)

    def test_decaying_rule(self):
        vals = DecayingRule(2.0, 0.5).values(50, 3)
        assert np.allclose(vals, [2.0, 2.0 / math.sqrt(2.0), 2.0 / math.sqrt(3.0)])

    def test_zeros_and_constant(self):
        assert np.array_equal(ZerosRule().values(10, 3), np.zeros(3))
        assert np.array_equal(ConstantRule(1.5).values(10, 3), np.full(3, 1.5))

    @given(
        rule=hst.sampled_from([
            ZerosRule(), ConstantRule(-0.7), FirstMRule(1.5, 3), FirstMRule(2.0, 0),
            ScaledNormRule(4.0), ScaledNormRule("sqrt_n"), DecayingRule(1.0, 0.25),
            DecayingRule(0.5, 0.6), DecayingRule(2.0, 1.0),
        ]),
        p=hst.integers(3, 3000),
        data=hst.data(),
    )
    def test_block_is_the_slice_of_the_whole_vector(self, rule, p, data):
        # empty, one-coordinate and ragged blocks alike, bit for bit
        # starts near 0 put a block across first_m's edge
        start = data.draw(hst.integers(0, min(p, 8)) | hst.integers(0, p), label="start")
        width = data.draw(hst.sampled_from([0, 1, 7, 4096]), label="width")
        stop = data.draw(hst.integers(start, min(p, start + width)), label="stop")
        whole = rule.values(1000, p)
        assert np.array_equal(whole, rule.values(1000, p, 0, p))
        block = rule.values(1000, p, start, stop)
        assert block.dtype == whole.dtype and block.tobytes() == whole[start:stop].tobytes()
        # every coordinate past the nonzero prefix is 0: zeros has none,
        # first_m ends at m, the others at p
        end = rule.nonzero_end(1000, p)
        kind = type(rule)
        assert end == (0 if kind is ZerosRule else min(rule.m, p) if kind is FirstMRule else p)
        assert not np.any(whole[end:])

    @pytest.mark.parametrize("start, stop", [(0, None), (0, 2), (2, 3), (3, 3)])
    def test_first_m_exceeding_p_raises_for_any_block(self, start, stop):
        with pytest.raises(ScenarioError, match="needs p >= 5"):
            FirstMRule(1.0, 5).values(10, 3, start, stop)

    def test_linear_dimension(self):
        rule = LinearDimension()
        assert rule.p_at(200, 0.5) == 100
        assert rule.p_at(200, 0.0) == 1  # floor, at least one covariate
        assert rule.p_at(3, 0.9) == 2  # capped at n - 1

    def test_sqrt_dimension(self):
        assert SqrtDimension().p_at(400, 0.0) == 20
        assert SqrtDimension().p_at(401, 0.0) == 21

    def test_fixed_dimension(self):
        assert FixedDimension(7).p_at(1000, 0.0) == 7
        with pytest.raises(ScenarioError):
            FixedDimension(0)


# ---------------------------------------------------------------------------
# scenario validation


class TestScenario:
    def test_alpha_domain_message(self):
        with pytest.raises(ScenarioError, match=r"\(A2\)"):
            make_scenario(alpha=1.0)

    @pytest.mark.parametrize("p_rule", [SqrtDimension(), FixedDimension(20)], ids=["sqrt", "fixed"])
    def test_positive_alpha_needs_the_linear_rule(self, p_rule):
        # under these rules p/n -> 0, but the verdict would read alpha > 0
        with pytest.raises(ScenarioError, match="linear dimension rule"):
            make_scenario(alpha=0.5, p_rule=p_rule)
        assert make_scenario(alpha=0.0, p_rule=p_rule).p_at(400) == 20

    def test_sigma0_positive(self):
        with pytest.raises(ScenarioError):
            make_scenario(sigma0_sq=0.0)

    def test_name_nonempty(self):
        with pytest.raises(ScenarioError):
            make_scenario(name="")

    @pytest.mark.parametrize("name", ["a\u0001b", "a\x7fb", "tab\there", "a\ufffeb"])
    def test_name_printable(self, name):
        # an SVG title or a report carries the name as text
        with pytest.raises(ScenarioError, match="printable"):
            make_scenario(name=name)

    def test_p_at_small_n(self):
        sc = make_scenario()
        with pytest.raises(ScenarioError):
            sc.p_at(1)

    def test_validate_grid_ordering(self):
        sc = make_scenario()
        with pytest.raises(ScenarioError):
            sc.validate_grid((400, 200))

    def test_validate_grid_rejects_repeated_n(self):
        # a repeated n would compute the same cells twice and blur the trend
        sc = make_scenario()
        with pytest.raises(ScenarioError, match="increasing"):
            sc.validate_grid((100, 100))
        with pytest.raises(ScenarioError, match="increasing"):
            sc.validate_grid((100, 200, 200))

    def test_validate_grid_empty(self):
        sc = make_scenario()
        with pytest.raises(ScenarioError):
            sc.validate_grid(())

    def test_validate_grid_eb_needs_spare_df(self):
        # n - p + a - 2 <= 0 at n = 2, p = 1, a = 0
        sc = make_scenario(regime=EmpiricalBayesG(), alpha=0.0, p_rule=FixedDimension(1))
        with pytest.raises(ScenarioError):
            sc.validate_grid((2,))

    def test_fixed_negative_g_rejected_at_construction(self):
        with pytest.raises(ValueError):
            FixedG(rule=-1.0)

    def test_hyper_g_needs_c_above_2(self):
        with pytest.raises(ValueError, match="proper"):
            HyperG(c=2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: FixedG(rule=x),
            lambda x: PriorConstants(a=x),
            lambda x: PriorConstants(b=x),
            lambda x: make_scenario(sigma0_sq=x),
            lambda x: ConstantRule(x),
            lambda x: FirstMRule(x, 2),
            lambda x: ScaledNormRule(x),
            lambda x: DecayingRule(x, 1.0),
            lambda x: DecayingRule(1.0, x),
            lambda x: HyperG(c=x),
            lambda x: DesignSpec(lambda_min=x),
            lambda x: DesignSpec(lambda_max=x),
        ],
        ids=["fixed_g", "prior_a", "prior_b", "sigma0_sq", "constant_v", "first_m_v", "scaled_norm_target",
             "decaying_c", "decaying_rate", "hyper_g_c", "lambda_min", "lambda_max"],
    )
    def test_constructors_reject_non_finite(self, build, value):
        # the JSON reader refuses these values itself; taken from the
        # library, they gave plausible exceedances instead of an error
        with pytest.raises(ValueError, match="finite"):
            build(value)


# ---------------------------------------------------------------------------
# simulation


class TestSimulateStats:
    def test_shapes_and_dimension(self):
        sc = make_scenario()
        stats = simulate_scenario_stats(sc, 200, 5)
        assert stats.n == 200 and stats.p == 100
        assert stats.beta_hat.shape == (100,)
        assert stats.gram.eigenvalues.shape == (100,)
        assert stats.resid_ss >= 0.0

    def test_deterministic_given_stream(self):
        sc = make_scenario()
        s1 = simulate_scenario_stats(sc, 100, 7)
        s2 = simulate_scenario_stats(sc, 100, 7)
        assert np.array_equal(s1.beta_hat, s2.beta_hat)
        assert s1.resid_ss == s2.resid_ss

    def test_one_simulation_path(self):
        # the explicit-design reduction is a test oracle, not a mode
        assert list(inspect.signature(simulate_stats).parameters) == ["scenario", "n", "rng", "gram"]

    def test_resid_scale(self):
        # S / ((n - p) sigma0^2) concentrates at 1
        sc = make_scenario(sigma0_sq=2.0)
        n, p = 2000, 1000
        ratios = [
            simulate_scenario_stats(sc, n, 11, rep=r).resid_ss / ((n - p) * 2.0)
            for r in range(200)
        ]
        assert 0.9 < float(np.mean(ratios)) < 1.1

    def test_beta_hat_distribution(self):
        # orthogonal design: beta_hat_i ~ N(beta0_i, sigma0^2 / n)
        sc = make_scenario(sigma0_sq=1.5)
        n = 400
        draws = np.array([simulate_scenario_stats(sc, n, 13, rep=r).beta_hat[0] for r in range(2000)])
        ks = st.kstest(draws, st.norm(loc=1.0, scale=math.sqrt(1.5 / n)).cdf).statistic
        assert ks < 0.05

    def test_direct_and_full_modes_agree_in_law(self):
        sc = make_scenario(alpha=0.25, sigma0_sq=1.5)
        b1d, b1f, sd, sf = [], [], [], []
        for r in range(2000):
            std = simulate_stats(sc, 40, RngStream(31, (sc.name, 40, r)).child("sim"), design_at(sc, 40, 31))
            stf = simulate_full_stats(sc, 40, RngStream(32, (sc.name, 40, r)).child("sim"))
            b1d.append(std.beta_hat[0])
            b1f.append(stf.beta_hat[0])
            sd.append(std.resid_ss)
            sf.append(stf.resid_ss)
        assert st.ks_2samp(b1d, b1f).statistic < 0.05
        assert st.ks_2samp(sd, sf).statistic < 0.05

    def test_full_mode_rotated_design(self):
        spec = DesignSpec("diagonal", (0.5, 1.0), lambda_min=0.5, lambda_max=2.0)
        sc = make_scenario(design=spec, alpha=0.25)
        stats = simulate_full_stats(sc, 16, RngStream(3, (sc.name, 16, 0)).child("sim"))
        assert stats.gram.q is not None
        assert stats.resid_ss >= 0.0

    @pytest.mark.parametrize("simulate", [simulate_stats, simulate_full_stats], ids=["direct", "full"])
    def test_given_design_gives_the_bits_of_a_drawn_one(self, simulate):
        # a run draws each n's design once and hands it to every rep; a
        # design drawn afresh for the rep gives the same bits
        spec = DesignSpec("diagonal", (0.5, 1.0), lambda_min=0.5, lambda_max=2.0)
        sc = make_scenario(design=spec, alpha=0.25)
        gram = design_at(sc, 40, 5)
        for rep in range(3):
            def stream():
                return RngStream(5, (sc.name, 40, rep)).child("sim")

            own = simulate(sc, 40, stream(), design_at(sc, 40, 5))
            given_design = simulate(sc, 40, stream(), gram)
            assert given_design.gram is gram
            assert np.array_equal(own.gram.q, gram.q)
            assert given_design.beta_hat.tobytes() == own.beta_hat.tobytes()
            assert given_design.resid_ss == own.resid_ss


# ---------------------------------------------------------------------------
# mle sup error


class TestMleSupError:
    def test_literal(self):
        stats = axis_stats(10, [0.1, -0.3], 1.0)
        assert mle_sup_error(stats, np.zeros(2)) == pytest.approx(0.3)

    def test_zero_at_truth(self):
        stats = axis_stats(10, [0.4, -0.2], 1.0)
        assert mle_sup_error(stats, np.array([0.4, -0.2])) == 0.0

    def test_median_shrinks_at_scale(self):
        sc = make_scenario()
        n = 4000
        beta0 = sc.beta0_at(n)
        errs = [
            mle_sup_error(simulate_scenario_stats(sc, n, 17, rep=r), beta0)
            for r in range(100)
        ]
        assert float(np.median(errs)) < 0.12


# ---------------------------------------------------------------------------
# diagnostics


class TestDiagnostics:
    def test_u_floor_literal(self):
        # resid_plus_b = 3 and quad_form = 1 gives u_floor = 0.75
        stats = axis_stats(4, [1.0], 3.0, eigenvalues=[1.0])
        diag = diagnostics(stats, np.zeros(1), PRIOR)
        assert diag.quad_form == pytest.approx(1.0)
        assert diag.u_floor == pytest.approx(0.75)

    def test_scale_total_at_zero(self):
        # S + b + quad_form / (g + 1) at g = 0, the scale total's largest value
        stats = axis_stats(4, [1.0], 3.0, eigenvalues=[1.0])
        diag = diagnostics(stats, np.zeros(1), PriorConstants(b=0.5))
        assert diag.resid_plus_b == 3.5
        assert diag.resid_plus_b + diag.quad_form / (0.0 + 1.0) == pytest.approx(4.5)

    def test_gamma_match_pins_u_floor(self):
        stats = axis_stats(10, [0.5, -0.5], 2.0)
        diag = diagnostics(stats, np.array([0.5, -0.5]), PRIOR)
        assert diag.quad_form == 0.0
        assert diag.u_floor == 1.0

    def test_gamma_shape_checked(self):
        stats = axis_stats(10, [0.5, -0.5], 2.0)
        with pytest.raises(ScenarioError):
            diagnostics(stats, np.zeros(3), PRIOR)

    def test_orthogonal_quad_form_identity(self):
        # with all eigenvalues n: quad_form = n ||beta_hat - gamma||^2
        sc = make_scenario()
        stats = simulate_scenario_stats(sc, 200, 23)
        gamma = sc.gamma_at(200)
        diag = diagnostics(stats, gamma, PRIOR)
        d = stats.beta_hat - gamma
        assert diag.quad_form == pytest.approx(200.0 * float(d @ d), rel=1e-10)

    def test_diagnostics_hold_no_truth_fields(self):
        # statistics under the truth belong to the lemma record, not here
        assert [f.name for f in dataclasses.fields(Diagnostics)] == ["quad_form", "resid_plus_b", "u_floor"]
        assert "truth" not in inspect.signature(diagnostics).parameters

    def test_quad_form_mean_matches_expectation(self):
        # the lemma record's quad_ratio = quad_form / E0(quad_form) averages
        # to 1 under the noncentral chi-square law of quad_form / sigma0^2
        sc = make_scenario(sigma0_sq=2.0)
        n, p = 500, sc.p_at(500)
        gram = design_at(sc, n, 29)
        ratios = [
            _lemma_record(sc, n, *_dataset(sc, n, r, gram, 29)[1:])["quad_ratio"]
            for r in range(500)
        ]
        d = sc.gamma_at(n) - sc.beta0_at(n)
        expected = p * 2.0 + n * float(d @ d)
        nc = expected / 2.0 - p  # noncentrality in the mean = p + 2 nc convention
        sd = 2.0 * math.sqrt(2.0 * p + 8.0 * nc)
        assert abs(float(np.mean(ratios)) - 1.0) <= 4.0 * sd / math.sqrt(500) / expected

    @given(hst.integers(min_value=0, max_value=2**31 - 1))
    def test_invariants_on_random_draws(self, seed):
        sc = make_scenario(sigma0_sq=2.0)
        _, stats, diag = _dataset(sc, 50, 0, design_at(sc, 50, seed), seed)
        record = _lemma_record(sc, 50, stats, diag)
        assert diag.quad_form >= 0.0
        assert 0.0 < diag.u_floor <= 1.0
        assert diag.u_floor == record["u_floor"] <= record["u_cutoff"] <= 1.0


# ---------------------------------------------------------------------------
# scenario (de)serialization


_DIAGONAL = {"kind": "diagonal", "spectrum": [0.5, 1.0], "lambda_min": 0.5, "lambda_max": 2.0}
# (id, path into the scenario document, value): each is a malformed
# document that must be refused as a scenario problem, not run
MALFORMED = [
    ("sigma0_sq_infinity", ("sigma0_sq",), math.inf),
    ("sigma0_sq_nan", ("sigma0_sq",), math.nan),
    ("sigma0_sq_true", ("sigma0_sq",), True),
    ("sigma0_sq_string", ("sigma0_sq",), "x"),
    ("gamma_v_infinity", ("gamma_rule",), {"kind": "constant", "v": math.inf}),
    ("p_rule_m_fraction", ("p_rule",), {"kind": "fixed", "m": 3.7}),
    ("p_rule_m_string", ("p_rule",), {"kind": "fixed", "m": "3"}),
    ("name_number", ("name",), 5),
    ("hyper_g_c_1", ("regime",), {"kind": "hyper_g", "c": 1}),
    ("hyper_g_c_string", ("regime",), {"kind": "hyper_g", "c": "abc"}),
    ("hyper_g_c_true", ("regime",), {"kind": "hyper_g", "c": True}),
    ("hyper_g_c_infinity", ("regime",), {"kind": "hyper_g", "c": math.inf}),
    ("fixed_rule_negative", ("regime",), {"kind": "fixed", "rule": -1}),
    ("fixed_rule_infinity", ("regime",), {"kind": "fixed", "rule": math.inf}),
    ("prior_a_string", ("prior", "a"), "x"),
    ("prior_b_string", ("prior", "b"), "x"),
    ("prior_a_infinity", ("prior", "a"), math.inf),
    ("lambda_min_string", ("design",), dict(_DIAGONAL, lambda_min="x")),
    ("spectrum_entry_string", ("design",), dict(_DIAGONAL, spectrum=["a"])),
    ("spectrum_number", ("design",), dict(_DIAGONAL, spectrum=5)),
    ("first_m_v_string", ("beta0_rule", "v"), "x"),
    ("first_m_m_fraction", ("beta0_rule", "m"), 2.5),
    ("first_m_m_true", ("beta0_rule", "m"), True),
    ("decaying_rate_string", ("beta0_rule",), {"kind": "decaying", "c": 1.0, "rate": "x"}),
    ("kind_list", ("beta0_rule", "kind"), [1]),
    ("schema_version_true", ("schema_version",), True),
]


class TestScenarioJson:
    def test_round_trip(self, tmp_path):
        sc = make_scenario(
            name="roundtrip",
            regime=HyperG(c=3.0),
            beta0_rule=ScaledNormRule("sqrt_n"),
            p_rule=SqrtDimension(),
            alpha=0.0,
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_to_dict(sc)))
        back = load_scenario(path)
        assert back == sc

    def test_round_trip_all_regimes(self, tmp_path):
        for k, regime in enumerate((FixedG(rule="n"), FixedG(rule=2.5), EmpiricalBayesG(), HyperG(c=4.0), ZellnerSiowG())):
            sc = make_scenario(name=f"r{k}", regime=regime)
            path = tmp_path / f"r{k}.json"
            path.write_text(json.dumps(scenario_to_dict(sc)))
            assert load_scenario(path) == sc

    def test_unknown_key_rejected(self):
        doc = scenario_to_dict(make_scenario())
        doc["extra_knob"] = 1
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("key, value", [("spectrum", [0.5, 1.0]), ("lambda_max", 5)])
    def test_orthogonal_design_rejects_diagonal_keys(self, key, value):
        # an orthogonal design has X'X = n I; a spectrum or eigenvalue bound
        # would be dropped silently, so it is refused
        doc = scenario_to_dict(make_scenario())
        doc["design"] = {"kind": "orthogonal", key: value}
        with pytest.raises(ScenarioError, match=key):
            scenario_from_dict(doc)

    def test_wrong_schema_version(self):
        doc = scenario_to_dict(make_scenario())
        doc["schema_version"] = 2
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_missing_required_key(self):
        doc = scenario_to_dict(make_scenario())
        del doc["regime"]
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  "alpha": }')
        with pytest.raises(ScenarioError, match=r"line \d+, column \d+"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_unknown_rule_kind_rejected(self):
        doc = scenario_to_dict(make_scenario())
        doc["beta0_rule"] = {"kind": "mystery"}
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("path, value", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
    def test_malformed_value_is_a_scenario_error(self, path, value):
        doc = scenario_to_dict(make_scenario())
        *parents, key = path
        target = doc
        for k in parents:
            target = target[k]
        target[key] = value
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_fixed_regime_needs_a_rule(self):
        doc = scenario_to_dict(make_scenario(regime=FixedG(rule="n")))
        doc["regime"] = {"kind": "fixed"}
        with pytest.raises(ScenarioError, match="rule"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "path", sorted(REPO_ROOT.glob("scenarios/*.json")) + sorted(REPO_ROOT.glob("perfbench/scenarios/*.json")),
        ids=lambda path: path.name,
    )
    def test_shipped_file_round_trips(self, path):
        assert scenario_to_dict(load_scenario(path)) == json.loads(path.read_text())

    def test_dict_is_json_serializable(self):
        doc = scenario_to_dict(make_scenario(regime=ZellnerSiowG()))
        json.dumps(doc)  # must not raise
        assert doc["schema_version"] == 1
