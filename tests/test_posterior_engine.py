"""Tests for the conditional posteriors and the two ball-probability routes.

The exact route is checked against three independent oracles: a closed-form
normal tail in a p = 1 instance whose variance posterior is pinned to a
point, the Monte Carlo route at 3 standard errors, and a triangle-inequality
sandwich that needs no distributional knowledge at all.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.special as sp
import scipy.stats as st
from hypothesis import given, strategies as hst

import gprior_lab.posterior_engine as posterior_engine
from gprior_lab.model_core import (
    DesignSpec,
    FixedG,
    GramSpectrum,
    HyperG,
    PriorConstants,
    SufficientStats,
    diagnostics,
)
from gprior_lab.g_regimes import build_g_posterior
from gprior_lab.numerics import RngStream
from gprior_lab.posterior_engine import (
    BallOptions,
    BallProbability,
    Sigma2Posterior,
    _log_interval_prob,
    _wilson_std_error,
    sup_ball_probability,
)

from conftest import axis_stats, make_scenario, simulate_scenario_stats

PRIOR = PriorConstants()


# Oracles: the conditional laws of the module docstring, written out on
# their own.  Both routes inline these formulas over their node arrays.


def beta_posterior_mean(stats: SufficientStats, gamma: np.ndarray, g: float) -> np.ndarray:
    """m(g) = (g/(g+1)) beta_hat + (1/(g+1)) gamma."""
    if g < 0:
        raise ValueError("g must be >= 0")
    w = g / (g + 1.0)
    return w * stats.beta_hat + (1.0 - w) * gamma


def sigma2_posterior(
    stats: SufficientStats, gamma: np.ndarray, prior: PriorConstants, g: float
) -> Sigma2Posterior:
    """The variance posterior at a given g."""
    if g < 0:
        raise ValueError("g must be >= 0")
    diff = stats.beta_hat - gamma
    w = diff if stats.gram.q is None else stats.gram.q.T @ diff
    quad_form = float(np.sum(stats.gram.eigenvalues * w * w))
    scale_total = stats.resid_ss + prior.b + quad_form / (g + 1.0)
    shape = 0.5 * (stats.n + prior.a - 2.0)
    if shape <= 0:
        raise ValueError("variance posterior needs n + a - 2 > 0")
    return Sigma2Posterior(shape=shape, scale=0.5 * scale_total)


def _hyper_g_instance():
    """Frozen p = 6 axis-aligned instance with distinct eigenvalues."""
    rng = np.random.default_rng(3)
    p = 6
    eigs = np.array([4.0, 9.0, 16.0, 25.0, 36.0, 49.0])
    beta_hat = rng.normal(size=p)
    gamma = rng.normal(size=p)
    stats = SufficientStats(
        n=60, p=p, beta_hat=beta_hat, resid_ss=40.0,
        gram=GramSpectrum(q=None, eigenvalues=eigs),
    )
    quad_form = float((beta_hat - gamma) @ (eigs * (beta_hat - gamma)))
    post = build_g_posterior(HyperG(c=3.0), stats, quad_form, PRIOR)
    return stats, gamma, post


class TestBetaPosteriorMean:
    def test_halfway_at_unit_g(self):
        stats = axis_stats(10, [2.0, 2.0], 4.0)
        m = beta_posterior_mean(stats, np.zeros(2), 1.0)
        assert np.allclose(m, [1.0, 1.0])

    def test_zero_g_returns_prior_location(self):
        stats = axis_stats(10, [2.0, -1.0], 4.0)
        gamma = np.array([0.3, 0.7])
        assert np.allclose(beta_posterior_mean(stats, gamma, 0.0), gamma)

    def test_matching_location_is_fixed_point(self):
        stats = axis_stats(10, [1.5, -0.5], 4.0)
        for g in (0.0, 1.0, 50.0):
            m = beta_posterior_mean(stats, stats.beta_hat, g)
            assert np.allclose(m, stats.beta_hat)

    def test_large_g_approaches_mle(self):
        stats = axis_stats(10, [1.5, -0.5], 4.0)
        m = beta_posterior_mean(stats, np.zeros(2), 1e12)
        assert np.max(np.abs(m - stats.beta_hat)) < 1e-11

    def test_negative_g_rejected(self):
        stats = axis_stats(10, [1.0], 4.0)
        with pytest.raises(ValueError, match="g must be >= 0"):
            beta_posterior_mean(stats, np.zeros(1), -0.5)

    @given(hst.floats(min_value=0.0, max_value=1e6))
    def test_mean_between_prior_location_and_mle(self, g):
        stats = axis_stats(10, [2.0, -3.0], 4.0)
        gamma = np.array([-1.0, 1.0])
        m = beta_posterior_mean(stats, gamma, g)
        lo = np.minimum(stats.beta_hat, gamma) - 1e-12
        hi = np.maximum(stats.beta_hat, gamma) + 1e-12
        assert np.all((lo <= m) & (m <= hi))


class TestSigma2Posterior:
    def test_shape_and_scale_formula(self):
        # n=10, a=b=0, S=4; T = 2*2^2 + 2*0 = 8; g=1 -> scale_total = 4 + 4
        stats = axis_stats(10, [2.0, 0.0], 4.0, eigenvalues=[2.0, 2.0])
        post = sigma2_posterior(stats, np.zeros(2), PRIOR, 1.0)
        assert post.shape == pytest.approx(4.0)
        assert post.scale == pytest.approx(4.0)
        assert post.mean() == pytest.approx(4.0 / 3.0)

    def test_rotated_gram_uses_rotated_coordinates(self):
        theta = 0.3
        q = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        eigs = np.array([3.0, 7.0])
        beta_hat = np.array([1.0, -2.0])
        stats = SufficientStats(n=20, p=2, beta_hat=beta_hat, resid_ss=5.0,
                                gram=GramSpectrum(q=q, eigenvalues=eigs))
        post = sigma2_posterior(stats, np.zeros(2), PRIOR, 3.0)
        w = q.T @ beta_hat
        quad_form = float(np.sum(eigs * w * w))
        assert post.scale == pytest.approx(0.5 * (5.0 + quad_form / 4.0), rel=1e-12)

    def test_mean_needs_shape_above_one(self):
        with pytest.raises(ValueError, match="shape > 1"):
            Sigma2Posterior(shape=1.0, scale=3.0).mean()

    def test_shape_must_be_positive(self):
        stats = axis_stats(2, [0.5], 1.0)
        with pytest.raises(ValueError, match=r"n \+ a - 2 > 0"):
            sigma2_posterior(stats, np.zeros(1), PRIOR, 1.0)

    def test_negative_g_rejected(self):
        stats = axis_stats(10, [1.0], 4.0)
        with pytest.raises(ValueError, match="g must be >= 0"):
            sigma2_posterior(stats, np.zeros(1), PRIOR, -1.0)

    def test_interval_probability_domain(self):
        post = Sigma2Posterior(shape=4.0, scale=4.0)
        with pytest.raises(ValueError, match="0 <= lo <= hi"):
            post.interval_probability(2.0, 1.0)
        with pytest.raises(ValueError, match="0 <= lo <= hi"):
            post.interval_probability(-1.0, 1.0)

    def test_concentration_and_sampler_at_large_n(self):
        # fixed g = n at n = 2000: the variance posterior concentrates hard
        sc = make_scenario(name="sig9", regime=FixedG(rule="n"))
        stats = simulate_scenario_stats(sc, 2000, 21)
        gamma = sc.gamma_at(2000)
        diag = diagnostics(stats, gamma, PRIOR, truth=sc.truth_at(2000))
        post = sigma2_posterior(stats, gamma, PRIOR, 2000.0)
        target = diag.expected_scale_total(2000.0)
        assert post.interval_probability(target / (2 * 2000), 2 * target / 2000) > 0.99
        draws = post.sample(RngStream(9, ("mc",)), 100_000)
        assert abs(float(draws.mean()) - post.mean()) / post.mean() < 0.01
        # g -> inf: the quadratic-form contribution to the scale vanishes
        limit = sigma2_posterior(stats, gamma, PRIOR, 1e12)
        assert limit.scale == pytest.approx((stats.resid_ss + PRIOR.b) / 2, rel=1e-9)


class TestIntervalKernel:
    def test_reflection_symmetry(self):
        # [lo, hi] and [-hi, -lo] carry the same normal mass
        x = np.linspace(-30.0, 30.0, 241)
        hi, lo = np.meshgrid(x, x)
        keep = hi >= lo
        a = _log_interval_prob(hi[keep], lo[keep])
        b = _log_interval_prob(-lo[keep], -hi[keep])
        assert not np.any(np.isnan(a))
        nonempty = ~(np.isneginf(a) & np.isneginf(b))
        assert np.max(np.abs(a[nonempty] - b[nonempty])) <= 1e-15

    def test_matches_both_branch_form(self):
        # oracle: both branches evaluated on every element and chosen by
        # np.where; the kernel evaluates the tail branch on its subset only
        def both_branches(hi, lo):
            below, above = sp.ndtr(lo), sp.ndtr(-hi)
            miss = below + above
            upper = lo > -hi
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(
                    miss < 0.5,
                    np.log1p(-miss),
                    np.log(sp.ndtr(np.where(upper, -lo, hi)) - np.where(upper, above, below)),
                )

        x = np.linspace(-12.0, 12.0, 96)
        hi, lo = np.meshgrid(x, x)
        keep = hi >= lo
        far = np.array([[10.0, 11.0], [-11.0, -10.0], [40.0, 41.0], [-41.0, -40.0]])
        lo = np.concatenate([lo[keep], far[:, 0]]).reshape(-1, 2)
        hi = np.concatenate([hi[keep], far[:, 1]]).reshape(-1, 2)
        miss = sp.ndtr(lo) + sp.ndtr(-hi)
        assert np.any(miss < 0.5) and np.any((miss >= 0.5) & (miss < 1.0)) and np.any(miss == 1.0)
        want = both_branches(hi, lo)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _log_interval_prob(hi, lo)
            scratch = np.full((3,) + hi.shape, np.nan)
            in_scratch = _log_interval_prob(hi, lo, scratch)
        assert np.array_equal(got, want)
        assert np.array_equal(in_scratch, want) and np.shares_memory(in_scratch, scratch)
        assert np.isneginf(got[-1]).all() and np.isfinite(got[-2]).all()

    def test_upper_tail_matches_reflected_log_ndtr(self):
        # oracle: log(Phi(-lo) - Phi(-hi)) from lower-tail log cdfs
        for lo, hi, want in ((10.0, 11.0, -53.2313), (8.3, 8.6, -37.574)):
            log_a, log_b = sp.log_ndtr(-lo), sp.log_ndtr(-hi)
            ref = log_a + math.log1p(-math.exp(log_b - log_a))
            got = float(_log_interval_prob(np.array(hi), np.array(lo)))
            assert got == pytest.approx(ref, rel=1e-12)
            assert got == pytest.approx(want, abs=1e-3)


class TestExactRouteOracles:
    def test_pinned_variance_matches_normal_tail(self):
        # a huge prior shape pins sigma^2 at 2.0, so the p = 1 exceedance
        # must match a closed-form normal two-tail probability
        n, g = 10, 4.0
        beta_hat, gamma, center = np.array([1.3]), np.array([0.2]), np.array([0.0])
        eigs = np.array([float(n)])
        resid_ss = 5.0
        quad_form = float((beta_hat - gamma) ** 2 @ eigs)
        a_big = 2e6
        b_big = 2.0 * (n + a_big - 4.0) - resid_ss - quad_form / (g + 1.0)
        prior = PriorConstants(a=a_big, b=b_big)
        stats = SufficientStats(n=n, p=1, beta_hat=beta_hat, resid_ss=resid_ss,
                                gram=GramSpectrum(q=None, eigenvalues=eigs))
        post = build_g_posterior(FixedG(rule=g), stats, quad_form, prior)
        m = beta_posterior_mean(stats, gamma, g)[0]
        tau = math.sqrt(g / (g + 1.0) * 2.0 / eigs[0])
        for eps in (0.5, 1.0, 1.5):
            got = sup_ball_probability(
                post, stats, gamma, center, eps, BallOptions(method="exact")
            ).value
            oracle = st.norm.sf((eps - m) / tau) + st.norm.cdf((-eps - m) / tau)
            assert got == pytest.approx(oracle, abs=1e-4)

    def test_permutation_invariance(self):
        stats, gamma, post = _hyper_g_instance()
        rng = np.random.default_rng(8)
        center = rng.normal(size=stats.p)
        base = sup_ball_probability(
            post, stats, gamma, center, 0.7, BallOptions(method="exact")
        ).value
        eigs = stats.gram.eigenvalues
        for _ in range(5):
            perm = rng.permutation(stats.p)
            stats_p = SufficientStats(
                n=stats.n, p=stats.p, beta_hat=stats.beta_hat[perm],
                resid_ss=stats.resid_ss,
                gram=GramSpectrum(q=None, eigenvalues=eigs[perm]),
            )
            post_p = build_g_posterior(HyperG(c=3.0), stats_p, post.quad_form, PRIOR)
            val = sup_ball_probability(
                post_p, stats_p, gamma[perm], center[perm], 0.7,
                BallOptions(method="exact"),
            ).value
            assert abs(val - base) <= 1e-12

    def test_triangle_inequality_sandwich(self):
        # ||beta - beta0|| > eps implies ||beta - beta_hat|| > eps/2 unless
        # the MLE itself is farther than eps/2 from beta0
        worst = -1.0
        for k in range(5):
            sc = make_scenario(name=f"sand{k}", alpha=0.25,
                               regime=HyperG(c=3.0), sigma0_sq=2.0)
            stats = simulate_scenario_stats(sc, 200, 100 + k)
            gamma = sc.gamma_at(200)
            diag = diagnostics(stats, gamma, PRIOR)
            post = build_g_posterior(sc.regime, stats, diag.quad_form, PRIOR)
            beta0 = sc.beta0_at(200)
            for eps in (0.2, 0.5, 1.0):
                lhs = sup_ball_probability(
                    post, stats, gamma, beta0, eps, BallOptions(method="exact")
                ).value
                rhs = sup_ball_probability(
                    post, stats, gamma, stats.beta_hat, eps / 2,
                    BallOptions(method="exact"),
                ).value
                if float(np.max(np.abs(stats.beta_hat - beta0))) > eps / 2:
                    rhs += 1.0
                worst = max(worst, lhs - rhs)
        assert worst <= 1e-9

    def test_exact_matches_mc_within_three_se(self):
        stats, gamma, post = _hyper_g_instance()
        center = beta_posterior_mean(stats, gamma, 3.0)
        for k, eps in enumerate((0.3, 0.5, 0.8, 1.2)):
            exact = sup_ball_probability(
                post, stats, gamma, center, eps, BallOptions(method="exact")
            ).value
            mc = sup_ball_probability(
                post, stats, gamma, center, eps,
                BallOptions(method="mc", mc_draws=50_000),
                RngStream(123, ("mcx", k)),
            )
            assert mc.std_error is not None and mc.std_error > 0
            assert abs(mc.value - exact) <= 3.0 * mc.std_error

    def test_quadrature_caps_track_full_grid(self):
        # the capped quadrature used for large experiments stays within
        # a few 1e-4 of the full 512-node/129-node evaluation
        stats, gamma, post = _hyper_g_instance()
        center = beta_posterior_mean(stats, gamma, 3.0)
        capped = BallOptions(method="exact", g_quad=64, sigma_grid=65)
        for eps in (0.5, 0.8, 1.2):
            full_val = sup_ball_probability(
                post, stats, gamma, center, eps, BallOptions(method="exact")
            ).value
            cap_val = sup_ball_probability(post, stats, gamma, center, eps, capped).value
            assert cap_val == pytest.approx(full_val, abs=5e-4)


class TestBallProbabilityBehavior:
    def test_monotone_in_epsilon_with_saturated_ends(self):
        stats, gamma, post = _hyper_g_instance()
        center = beta_posterior_mean(stats, gamma, 3.0)
        grid = [0.05, 0.1, 0.3, 0.5, 0.8, 1.2, 2.0]
        vals = [
            sup_ball_probability(post, stats, gamma, center, e,
                                 BallOptions(method="exact")).value
            for e in grid
        ]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
        assert vals[0] > 0.999
        assert vals[-1] < 0.02

    def test_zero_radius_is_certain_exceedance(self):
        stats, gamma, post = _hyper_g_instance()
        res = sup_ball_probability(post, stats, gamma, np.zeros(stats.p), 0.0,
                                   BallOptions(method="exact"))
        assert res.value == 1.0

    def test_huge_radius_is_negligible_exceedance(self):
        stats, gamma, post = _hyper_g_instance()
        res = sup_ball_probability(post, stats, gamma, np.zeros(stats.p), 1e9,
                                   BallOptions(method="exact"))
        assert res.value < 1e-12

    def test_negative_radius_rejected(self):
        stats, gamma, post = _hyper_g_instance()
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            sup_ball_probability(post, stats, gamma, np.zeros(stats.p), -0.1)
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            sup_ball_probability(post, stats, gamma, np.zeros(stats.p), np.array([0.5, -0.1]))
        with pytest.raises(ValueError, match="1-D array"):
            sup_ball_probability(post, stats, gamma, np.zeros(stats.p), np.ones((2, 2)))

    def test_point_mass_at_zero_g_is_an_indicator(self):
        # g = 0 collapses beta onto gamma, so exceedance is a 0/1 indicator
        stats = axis_stats(10, [2.0, -1.0], 4.0)
        gamma = np.array([0.3, -0.4])
        quad_form = float(np.sum(stats.gram.eigenvalues
                                 * (stats.beta_hat - gamma) ** 2))
        post = build_g_posterior(FixedG(rule=0.0), stats, quad_form, PRIOR)
        opts = BallOptions(method="exact")
        assert sup_ball_probability(post, stats, gamma, gamma, 0.1, opts).value == 0.0
        far = gamma + np.array([1.0, 0.0])
        assert sup_ball_probability(post, stats, gamma, far, 0.5, opts).value == 1.0


def _rotated_instance():
    sc = make_scenario(name="rot", design=DesignSpec.diagonal((0.5, 1.0), 1.0, 2.0))
    stats = simulate_scenario_stats(sc, 40, 5, mode="full")
    gamma = sc.gamma_at(40)
    diag = diagnostics(stats, gamma, PRIOR)
    post = build_g_posterior(sc.regime, stats, diag.quad_form, PRIOR)
    return stats, gamma, post, sc.beta0_at(40)


class TestRadiusGrid:
    GRID = np.array([0.05, 0.3, 0.5, 0.8, 1.2])

    def test_exact_grid_equals_scalar_calls_bitwise(self):
        stats, gamma, post = _hyper_g_instance()
        center = beta_posterior_mean(stats, gamma, 3.0)
        opts = BallOptions(method="exact")
        # 0.01 lies below |m(g) - center| in every coordinate at every g-node;
        # at 8.0 no coordinate is active at any node, so the exceedance is 0
        radii = np.concatenate([[0.01], self.GRID, [8.0]])
        grid = sup_ball_probability(post, stats, gamma, center, radii, opts)
        assert grid.method == "exact" and grid.std_error is None
        assert grid.epsilon.tolist() == radii.tolist()
        for k, eps in enumerate(radii):
            one = sup_ball_probability(post, stats, gamma, center, float(eps), opts)
            assert isinstance(one.value, float)
            assert grid.value[k] == one.value
        assert grid.value[0] > 0.99 and grid.value[-1] == 0.0

    @pytest.mark.parametrize("batch_draws", [None, 7])
    def test_mc_grid_equals_fresh_scalar_calls(self, monkeypatch, batch_draws):
        # the rotated design takes the mc route; a 7-draw batch budget
        # splits 500 draws into 72 batches with a short last one
        stats, gamma, post, center = _rotated_instance()
        if batch_draws is not None:
            monkeypatch.setattr(posterior_engine, "_MC_BATCH_ELEMENTS", batch_draws * stats.p)
        opts = BallOptions(mc_draws=500)
        grid = sup_ball_probability(
            post, stats, gamma, center, self.GRID, opts, RngStream(4, ("grid",))
        )
        assert grid.method == "mc"
        for k, eps in enumerate(self.GRID):
            one = sup_ball_probability(
                post, stats, gamma, center, float(eps), opts, RngStream(4, ("grid",))
            )
            assert isinstance(one.value, float) and isinstance(one.std_error, float)
            assert (grid.value[k], grid.std_error[k]) == (one.value, one.std_error)

    def test_mc_exceedance_nonincreasing_in_eps(self):
        stats, gamma, post, center = _rotated_instance()
        radii = np.linspace(0.0, 2.0, 81)
        res = sup_ball_probability(
            post, stats, gamma, center, radii, BallOptions(mc_draws=2000),
            RngStream(6, ("mono",)),
        )
        assert np.all(np.diff(res.value) <= 0.0)
        assert res.value[0] == 1.0 and res.value[-1] < res.value[0]

    def test_mc_std_error_positive_at_zero_and_one(self):
        stats, gamma, post = _hyper_g_instance()
        res = sup_ball_probability(
            post, stats, gamma, np.zeros(stats.p), np.array([0.0, 1e9]),
            BallOptions(method="mc", mc_draws=1000), RngStream(2, ("ends",)),
        )
        assert res.value.tolist() == [1.0, 0.0]
        assert np.all(res.std_error > 0.0)
        assert res.std_error == pytest.approx([1.0 / (2.0 * 1001)] * 2, rel=1e-12)

    def test_wilson_error_tracks_binomial_in_the_bulk(self):
        draws = 20_000
        p = np.linspace(0.05, 0.95, 91)
        binomial = np.sqrt(p * (1.0 - p) / draws)
        assert np.max(np.abs(_wilson_std_error(p, draws) / binomial - 1.0)) < 0.01


class TestDispatchAndValidation:
    def test_auto_picks_exact_for_axis_aligned(self):
        stats, gamma, post = _hyper_g_instance()
        res = sup_ball_probability(post, stats, gamma, np.zeros(stats.p), 0.7)
        assert res.method == "exact"
        assert res.std_error is None

    def test_auto_falls_back_to_mc_for_rotated_gram(self):
        stats, gamma, post, beta0 = _rotated_instance()
        assert stats.gram.q is not None
        res = sup_ball_probability(post, stats, gamma, beta0, 0.5,
                                   rng=RngStream(4, ("auto",)))
        assert res.method == "mc"
        assert 0.0 <= res.value <= 1.0 and res.std_error is not None
        again = sup_ball_probability(post, stats, gamma, beta0, 0.5,
                                     rng=RngStream(4, ("auto",)))
        assert again.value == res.value

    def test_exact_route_rejects_rotated_gram(self):
        stats, gamma, post, beta0 = _rotated_instance()
        with pytest.raises(ValueError, match="axis-aligned"):
            sup_ball_probability(post, stats, gamma, beta0, 0.5,
                                 BallOptions(method="exact"))

    def test_mc_route_requires_rng(self):
        stats, gamma, post = _hyper_g_instance()
        with pytest.raises(ValueError, match="requires an rng"):
            sup_ball_probability(post, stats, gamma, np.zeros(stats.p), 0.5,
                                 BallOptions(method="mc"))

    def test_shape_mismatch_rejected(self):
        stats, gamma, post = _hyper_g_instance()
        with pytest.raises(ValueError, match=r"shape \(p,\)"):
            sup_ball_probability(post, stats, gamma[:3], np.zeros(stats.p), 0.5)
        with pytest.raises(ValueError, match=r"shape \(p,\)"):
            sup_ball_probability(post, stats, gamma, np.zeros(stats.p + 1), 0.5)

    def test_options_validation(self):
        with pytest.raises(ValueError, match="unknown method"):
            BallOptions(method="quadrature")
        with pytest.raises(ValueError, match="mc_draws"):
            BallOptions(mc_draws=0)
        with pytest.raises(ValueError, match="sigma_grid"):
            BallOptions(sigma_grid=2)
        with pytest.raises(ValueError, match="g_quad"):
            BallOptions(g_quad=0)

    def test_result_is_frozen_record(self):
        res = BallProbability(epsilon=0.5, value=0.25, method="exact")
        with pytest.raises(AttributeError):
            res.value = 0.3
