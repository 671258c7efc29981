"""Tests for the conditional posteriors and the two ball-probability routes.

The exact route is checked against three independent oracles: a closed-form
normal tail in a p = 1 instance whose variance posterior is pinned to a
point, the Monte Carlo route at 3 standard errors, and a triangle-inequality
sandwich that needs no distributional knowledge at all.
"""

import dataclasses
import functools
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sp
import scipy.stats as st
from hypothesis import given, strategies as hst

import gprior_lab.posterior_engine as posterior_engine
from gprior_lab.model_core import (
    DesignSpec,
    EmpiricalBayesG,
    FirstMRule,
    FixedDimension,
    FixedG,
    GramSpectrum,
    HyperG,
    PriorConstants,
    SufficientStats,
    diagnostics,
    load_scenario,
)
from gprior_lab.g_regimes import build_g_posterior
from gprior_lab.numerics import RngStream
from gprior_lab.posterior_engine import (
    BallOptions,
    BallProbability,
    _log_interval_prob,
    _wilson_std_error,
    sup_ball_probability,
)

from conftest import axis_stats, make_scenario, simulate_scenario_stats
from oracles import mc_blocks_float64, simulate_full_stats, u_from_g

PRIOR = PriorConstants()


# Oracles: the conditional laws of the module docstring, written out on
# their own.  Both routes inline these formulas over their node arrays.


def beta_posterior_mean(stats: SufficientStats, gamma: np.ndarray, g: float) -> np.ndarray:
    """m(g) = (g/(g+1)) beta_hat + (1/(g+1)) gamma."""
    if g < 0:
        raise ValueError("g must be >= 0")
    w = g / (g + 1.0)
    return w * stats.beta_hat + (1.0 - w) * gamma


def sigma2_posterior(stats: SufficientStats, gamma: np.ndarray, prior: PriorConstants, g: float):
    """The variance posterior at a given g, as a frozen scipy InverseGamma."""
    if g < 0:
        raise ValueError("g must be >= 0")
    diff = stats.beta_hat - gamma
    w = diff if stats.gram.q is None else stats.gram.q.T @ diff
    quad_form = float(np.sum(stats.gram.eigenvalues * w * w))
    scale_total = stats.resid_ss + prior.b + quad_form / (g + 1.0)
    shape = 0.5 * (stats.n + prior.a - 2.0)
    if shape <= 0:
        raise ValueError("variance posterior needs n + a - 2 > 0")
    return st.invgamma(shape, scale=0.5 * scale_total)


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
        assert post.args[0] == pytest.approx(4.0)
        assert post.kwds["scale"] == pytest.approx(4.0)
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
        assert post.kwds["scale"] == pytest.approx(0.5 * (5.0 + quad_form / 4.0), rel=1e-12)

    def test_shape_must_be_positive(self):
        stats = axis_stats(2, [0.5], 1.0)
        with pytest.raises(ValueError, match=r"n \+ a - 2 > 0"):
            sigma2_posterior(stats, np.zeros(1), PRIOR, 1.0)

    def test_negative_g_rejected(self):
        stats = axis_stats(10, [1.0], 4.0)
        with pytest.raises(ValueError, match="g must be >= 0"):
            sigma2_posterior(stats, np.zeros(1), PRIOR, -1.0)

    def test_concentration_and_sampler_at_large_n(self):
        # fixed g = n at n = 2000: the variance posterior concentrates hard
        sc = make_scenario(name="sig9", regime=FixedG(rule="n"))
        stats = simulate_scenario_stats(sc, 2000, 21)
        gamma = sc.gamma_at(2000)
        post = sigma2_posterior(stats, gamma, PRIOR, 2000.0)
        # E0(S + b + quad_form / (g + 1)) on the orthogonal design X'X = n I
        p, d = stats.p, gamma - sc.beta0_at(2000)
        target = (2000 - p) * sc.sigma0_sq + PRIOR.b + (p * sc.sigma0_sq + 2000.0 * float(d @ d)) / 2001.0
        assert post.cdf(2 * target / 2000) - post.cdf(target / (2 * 2000)) > 0.99
        # the MC route's sigma^2 draws, scale / Gamma(shape, 1), follow
        # scipy's InverseGamma(shape, scale)
        draws = post.kwds["scale"] / RngStream(9, ("mc",)).generator.standard_gamma(post.args[0], 100_000)
        assert abs(float(draws.mean()) - post.mean()) / post.mean() < 0.01
        assert st.kstest(draws, post.cdf).statistic < 0.01
        # g -> inf: the quadratic-form contribution to the scale vanishes
        limit = sigma2_posterior(stats, gamma, PRIOR, 1e12)
        assert limit.kwds["scale"] == pytest.approx((stats.resid_ss + PRIOR.b) / 2, rel=1e-9)


class TestIntervalKernel:
    def test_reflection_symmetry(self):
        # [lo, hi] and [-hi, -lo] carry the same normal mass
        x = np.linspace(-30.0, 30.0, 241)
        hi, lo = np.meshgrid(x, x)
        keep = hi >= lo
        scratch = np.empty((3, np.count_nonzero(keep)))
        a = _log_interval_prob(hi[keep], lo[keep], scratch).copy()
        b = _log_interval_prob(-lo[keep], -hi[keep], scratch)
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
            scratch = np.full((3,) + hi.shape, np.nan)
            got = _log_interval_prob(hi, lo, scratch)
        assert np.array_equal(got, want) and np.shares_memory(got, scratch)
        assert np.isneginf(got[-1]).all() and np.isfinite(got[-2]).all()

    def test_upper_tail_matches_reflected_log_ndtr(self):
        # oracle: log(Phi(-lo) - Phi(-hi)) from lower-tail log cdfs
        for lo, hi, want in ((10.0, 11.0, -53.2313), (8.3, 8.6, -37.574)):
            log_a, log_b = sp.log_ndtr(-lo), sp.log_ndtr(-hi)
            ref = log_a + math.log1p(-math.exp(log_b - log_a))
            got = float(_log_interval_prob(np.array(hi), np.array(lo), np.empty(3)))
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
                post, stats, gamma, center, [eps], BallOptions(method="exact")
            ).value[0]
            oracle = st.norm.sf((eps - m) / tau) + st.norm.cdf((-eps - m) / tau)
            assert got == pytest.approx(oracle, abs=1e-4)

    def test_permutation_invariance(self):
        stats, gamma, post = _hyper_g_instance()
        rng = np.random.default_rng(8)
        center = rng.normal(size=stats.p)
        base = sup_ball_probability(
            post, stats, gamma, center, [0.7], BallOptions(method="exact")
        ).value[0]
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
                post_p, stats_p, gamma[perm], center[perm], [0.7],
                BallOptions(method="exact"),
            ).value[0]
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
                    post, stats, gamma, beta0, [eps], BallOptions(method="exact")
                ).value[0]
                rhs = sup_ball_probability(
                    post, stats, gamma, stats.beta_hat, [eps / 2],
                    BallOptions(method="exact"),
                ).value[0]
                if float(np.max(np.abs(stats.beta_hat - beta0))) > eps / 2:
                    rhs += 1.0
                worst = max(worst, lhs - rhs)
        assert worst <= 1e-9

    def test_exact_matches_mc_within_three_se(self):
        stats, gamma, post = _hyper_g_instance()
        center = beta_posterior_mean(stats, gamma, 3.0)
        for k, eps in enumerate((0.3, 0.5, 0.8, 1.2)):
            exact = sup_ball_probability(
                post, stats, gamma, center, [eps], BallOptions(method="exact")
            ).value[0]
            mc = sup_ball_probability(
                post, stats, gamma, center, [eps],
                BallOptions(method="mc", mc_draws=50_000),
                RngStream(123, ("mcx", k)),
            )
            (value,), (se,) = mc.value, mc.std_error
            assert se > 0
            assert abs(value - exact) <= 3.0 * se

    def test_quadrature_caps_track_full_grid(self):
        # the capped quadrature used for large experiments stays within
        # a few 1e-4 of the full 512-node/129-node evaluation
        stats, gamma, post = _hyper_g_instance()
        center = beta_posterior_mean(stats, gamma, 3.0)
        capped = BallOptions(method="exact", g_quad=64, sigma_grid=65)
        for eps in (0.5, 0.8, 1.2):
            full_val = sup_ball_probability(
                post, stats, gamma, center, [eps], BallOptions(method="exact")
            ).value[0]
            cap_val = sup_ball_probability(post, stats, gamma, center, [eps], capped).value[0]
            assert cap_val == pytest.approx(full_val, abs=5e-4)


class TestBallProbabilityBehavior:
    def test_monotone_in_epsilon_with_saturated_ends(self):
        stats, gamma, post = _hyper_g_instance()
        center = beta_posterior_mean(stats, gamma, 3.0)
        grid = [0.05, 0.1, 0.3, 0.5, 0.8, 1.2, 2.0]
        vals = [
            sup_ball_probability(post, stats, gamma, center, [e],
                                 BallOptions(method="exact")).value[0]
            for e in grid
        ]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
        assert vals[0] > 0.999
        assert vals[-1] < 0.02

    def test_zero_radius_is_certain_exceedance(self):
        stats, gamma, post = _hyper_g_instance()
        res = sup_ball_probability(post, stats, gamma, np.zeros(stats.p), [0.0],
                                   BallOptions(method="exact"))
        assert res.value.tolist() == [1.0]

    def test_huge_radius_is_negligible_exceedance(self):
        stats, gamma, post = _hyper_g_instance()
        res = sup_ball_probability(post, stats, gamma, np.zeros(stats.p), [1e9],
                                   BallOptions(method="exact"))
        assert res.value[0] < 1e-12
        # no live g-node can miss a radius of 1e6, so the exceedance is 0
        # exactly, although these Zellner-Siow weights sum to 1 - 1.1e-16
        cell = _cli_default_cell("zs_fixed_offset_alpha05", 10, seed=1)
        assert np.sum(cell[0].quadrature()[1]) < 1.0
        assert sup_ball_probability(*cell, [1e6], BallOptions(method="exact")).value.tolist() == [0.0]

    def test_negative_radius_rejected(self):
        stats, gamma, post = _hyper_g_instance()
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            sup_ball_probability(post, stats, gamma, np.zeros(stats.p), [-0.1])
        with pytest.raises(ValueError, match="epsilon must be >= 0"):
            sup_ball_probability(post, stats, gamma, np.zeros(stats.p), np.array([0.5, -0.1]))
        with pytest.raises(ValueError, match="1-D array"):
            sup_ball_probability(post, stats, gamma, np.zeros(stats.p), np.ones((2, 2)))
        with pytest.raises(ValueError, match="1-D array"):
            sup_ball_probability(post, stats, gamma, np.zeros(stats.p), 0.5)

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_non_finite_radius_rejected(self, method):
        stats, gamma, post = _hyper_g_instance()
        opts = BallOptions(method=method, mc_draws=10)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="epsilon must be finite"):
                sup_ball_probability(
                    post, stats, gamma, np.zeros(stats.p), np.array([0.1, bad]), opts, RngStream(1, ("bad",))
                )

    def test_point_mass_at_zero_g_is_an_indicator(self):
        # g = 0 collapses beta onto gamma, so exceedance is a 0/1 indicator
        stats = axis_stats(10, [2.0, -1.0], 4.0)
        gamma = np.array([0.3, -0.4])
        quad_form = float(np.sum(stats.gram.eigenvalues
                                 * (stats.beta_hat - gamma) ** 2))
        post = build_g_posterior(FixedG(rule=0.0), stats, quad_form, PRIOR)
        opts = BallOptions(method="exact")
        assert sup_ball_probability(post, stats, gamma, gamma, [0.1], opts).value.tolist() == [0.0]
        far = gamma + np.array([1.0, 0.0])
        assert sup_ball_probability(post, stats, gamma, far, [0.5], opts).value.tolist() == [1.0]


def _rotated_instance():
    sc = make_scenario(name="rot", design=DesignSpec("diagonal", (0.5, 1.0), 1.0, 2.0))
    stats = simulate_full_stats(sc, 40, RngStream(5, (sc.name, 40, 0)).child("sim"))
    gamma = sc.gamma_at(40)
    diag = diagnostics(stats, gamma, PRIOR)
    post = build_g_posterior(sc.regime, stats, diag.quad_form, PRIOR)
    return stats, gamma, post, sc.beta0_at(40)


class TestRadiusGrid:
    GRID = np.array([0.05, 0.3, 0.5, 0.8, 1.2])

    def test_exact_grid_equals_single_radius_calls_bitwise(self):
        stats, gamma, post = _hyper_g_instance()
        center = beta_posterior_mean(stats, gamma, 3.0)
        opts = BallOptions(method="exact")
        # 0.01 lies below |m(g) - center| in every coordinate at every g-node;
        # at 8.0 no coordinate is active at any node, so the exceedance is 0
        radii = np.concatenate([[0.01], self.GRID, [8.0]])
        grid = sup_ball_probability(post, stats, gamma, center, radii, opts)
        assert grid.method == "exact" and grid.std_error is None
        assert grid.value.shape == radii.shape
        for k in range(radii.size):
            one = sup_ball_probability(post, stats, gamma, center, radii[k : k + 1], opts)
            assert one.value.tolist() == [grid.value[k]]
        assert grid.value[0] > 0.99 and grid.value[-1] == 0.0

    @pytest.mark.parametrize("block_draws", [None, 7])
    def test_mc_grid_equals_fresh_single_radius_calls(self, monkeypatch, block_draws):
        # the rotated design takes the mc route; 7-draw blocks split 500
        # draws into 72 blocks with a short last one
        stats, gamma, post, center = _rotated_instance()
        if block_draws is not None:
            monkeypatch.setattr(posterior_engine, "_MC_BLOCK_ELEMENTS", block_draws * stats.p)
        opts = BallOptions(mc_draws=500)
        grid = sup_ball_probability(
            post, stats, gamma, center, self.GRID, opts, RngStream(4, ("grid",))
        )
        assert grid.method == "mc"
        for k in range(self.GRID.size):
            one = sup_ball_probability(
                post, stats, gamma, center, self.GRID[k : k + 1], opts, RngStream(4, ("grid",))
            )
            assert (one.value.tolist(), one.std_error.tolist()) == ([grid.value[k]], [grid.std_error[k]])

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


def _mc_call(instance, radii, mc_draws):
    stats, gamma, post, center = instance
    return sup_ball_probability(
        post, stats, gamma, center, radii, BallOptions(method="mc", mc_draws=mc_draws),
        RngStream(8, ("blocks",)),
    )


def _float64_distances(instance, draws):
    """_mc_call's sup distances from the stream-layout oracle, in blocks of
    the route's size, and that size."""
    stats, gamma, post, center = instance
    rows = min(draws, posterior_engine._MC_BLOCK_ELEMENTS // stats.p)
    blocks = mc_blocks_float64(post, stats, gamma, center, draws, RngStream(8, ("blocks",)), rows)
    return np.concatenate([dist for *_, dist in blocks]), rows


def _forced_mc_instance():
    stats, gamma, post = _hyper_g_instance()
    return stats, gamma, post, beta_posterior_mean(stats, gamma, 3.0)


class TestMcBlocks:
    """The MC route reads a cell's stream in blocks of draws, each block's
    g, then its sigma^2, then its normals; the block size is part of the
    sample's definition."""

    GRID = np.array([0.05, 0.3, 0.5, 0.8, 1.2])

    @pytest.mark.parametrize("block_draws", [None, 7])
    @pytest.mark.parametrize("make", [_rotated_instance, _forced_mc_instance], ids=["rotated", "orthogonal"])
    def test_counts_match_the_stream_layout_oracle(self, monkeypatch, make, block_draws):
        # 500 draws are one block at the default size (p <= 20); 7-draw
        # blocks end in a ragged 3-draw block
        instance = make()
        if block_draws is not None:
            monkeypatch.setattr(posterior_engine, "_MC_BLOCK_ELEMENTS", block_draws * instance[0].p)
        res = _mc_call(instance, self.GRID, 500)
        dist, rows = _float64_distances(instance, 500)
        assert rows == (block_draws or 500)
        counts = np.count_nonzero(dist[:, None] > self.GRID, axis=0)
        assert 0.0 < res.value[0] and res.value[-1] < 1.0
        assert res.value.tolist() == (counts / 500).tolist()

    @staticmethod
    def _large_rotated_instance(n):
        sc = make_scenario(name="rot", design=DesignSpec("diagonal", (0.5, 1.0, 2.0), 0.5, 2.0))
        stats = simulate_scenario_stats(sc, n, 5)
        gamma = sc.gamma_at(n)
        post = build_g_posterior(sc.regime, stats, diagnostics(stats, gamma, PRIOR).quad_form, PRIOR)
        return stats, gamma, post, sc.beta0_at(n)

    def test_rotated_working_set_stays_small(self):
        # p = 400 and 800 with 2,000 draws: blocks of 655 and 327 draws.
        # The two 2 MB block buffers are the whole working set, whatever p
        # is: the basis is read through a view (a scaled p x p copy of it
        # per call peaked at 5.4 and 9.0 MiB)
        radii = np.array([0.1, 0.2, 0.5])
        for n in (800, 1600):
            instance = self._large_rotated_instance(n)
            assert instance[0].p == n // 2
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                blocked = _mc_call(instance, radii, 2_000)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak < 4.5 * 2**20, f"p = {n // 2}: peak {peak / 2**20:.2f} MiB"
            assert 0.0 < blocked.value[1] < 1.0


def _rotated_instance_at(p, regime):
    """A rotated design at dimension p (n = max(20, 2p)), with the truth
    (beta0 = e_1) as the centre, so the offset gamma - center is nonzero."""
    n = max(20, 2 * p)
    sc = make_scenario(
        name="rot32", alpha=0.0, p_rule=FixedDimension(p), regime=regime, beta0_rule=FirstMRule(1.0, 1),
        design=DesignSpec("diagonal", (0.5, 1.0, 2.0), 0.5, 2.0),
    )
    stats = simulate_scenario_stats(sc, n, 11)
    gamma = sc.gamma_at(n)
    post = build_g_posterior(sc.regime, stats, diagnostics(stats, gamma, PRIOR).quad_form, PRIOR)
    return stats, gamma, post, sc.beta0_at(n)


class TestFloat32Rotation:
    """A rotated block is rotated and reduced in float32; a draw whose
    float32 sup distance lies within its error bound of a radius is
    decided by its own float64 row, so each count is the one float64
    rows give."""

    @pytest.mark.parametrize("p", [1, 3, 100, 400, 800])
    @pytest.mark.parametrize("regime", [EmpiricalBayesG(), HyperG()], ids=["eb", "hyper_g"])
    def test_bound_dominates_the_float32_error(self, p, regime):
        # every draw of three blocks of at most 1,000 draws
        stats, gamma, post, center = _rotated_instance_at(p, regime)
        rows = min(1000, posterior_engine._MC_BLOCK_ELEMENTS // p)
        offset, shift = gamma - center, stats.beta_hat - gamma
        worst = 0.0
        for w, s, gg, dist64 in mc_blocks_float64(post, stats, gamma, center, 3 * rows, RngStream(3, ("f32",)), rows):
            work = np.empty((2,) + w.shape, dtype=np.float32)
            dist32, guard = posterior_engine._rotated_distances_f32(w, stats.gram.qt32, s, gg, shift, offset, work)
            assert np.all(np.abs(dist32 - dist64) <= guard)
            worst = max(worst, np.max(guard) / np.median(dist64))
        # a float32 bound, a few p float32 ulps of the distances' scale
        assert worst < 1e-3

    @pytest.mark.parametrize("p", [3, 400])
    @pytest.mark.parametrize(
        "move",
        [
            # a tie, or a radius within the last bits of a distance
            lambda d: np.concatenate([d, np.nextafter(d, 0.0), np.nextafter(d, np.inf)]),
            # well clear of float64 rounding, within the float32 bound
            lambda d: np.concatenate([d * (1.0 - 1e-9), d * (1.0 + 1e-9)]),
        ],
        ids=["ties", "near"],
    )
    def test_near_radius_draws_are_decided_in_float64(self, monkeypatch, p, move):
        instance = _rotated_instance_at(p, HyperG())
        draws = 1500
        dist, _ = _float64_distances(instance, draws)
        radii = np.sort(move(dist[[0, 1, draws // 2, draws - 1]]))
        float64_rows = []
        reduce = posterior_engine._sup_distances

        def spy(dev, *args):
            if dev.dtype == np.float64:
                float64_rows.append(dev.shape[0])
            return reduce(dev, *args)

        monkeypatch.setattr(posterior_engine, "_sup_distances", spy)
        res = _mc_call(instance, radii, draws)
        counts = np.count_nonzero(dist[:, None] > radii, axis=0)
        assert res.value.tolist() == (counts / draws).tolist()
        # at least the four draws the radii were placed at, each on its own
        assert len(float64_rows) >= 4 and set(float64_rows) == {1}

    @pytest.mark.parametrize("p", [3, 400])
    @pytest.mark.parametrize("regime", [EmpiricalBayesG(), HyperG()], ids=["eb", "hyper_g"])
    def test_every_draw_decided_in_float64_gives_the_oracle_counts(self, monkeypatch, p, regime):
        # with every draw near a radius, every count is the float64 rows':
        # each draw's distance is a radius, so a draw whose last bit moved
        # would move a count.  1,500 draws end in a ragged block: 700 + 700
        # + 100 at p = 3, 655 + 655 + 190 at p = 400
        instance = _rotated_instance_at(p, regime)
        draws = 1500
        if p == 3:
            monkeypatch.setattr(posterior_engine, "_MC_BLOCK_ELEMENTS", 3 * 700)
        dist, rows = _float64_distances(instance, draws)
        assert draws % rows
        radii = np.sort(dist)
        monkeypatch.setattr(posterior_engine, "_clear_of", lambda dist, eps, bound: np.zeros(dist.shape, dtype=bool))
        res = _mc_call(instance, radii, draws)
        counts = np.count_nonzero(dist[:, None] > radii, axis=0)
        assert res.value.tolist() == (counts / draws).tolist()


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
CLI_RADII = np.array([0.05, 0.1, 0.2, 0.5])
MIXTURES = ("hyperg_fixed_offset_alpha05", "zs_fixed_offset_alpha05")
# as _G_LEVELS there is no level to try, so the route evaluates every
# g-node: the oracle for its interpolation in log g; as _SIGMA_LEVELS it
# evaluates every sigma^2 grid node, the oracle for its interpolation in
# log sigma^2
EVERY_G_NODE = WHOLE_GRID = ()


def _first_sigma_points(opts: BallOptions) -> int:
    """The sigma^2 points of a g value's first kernel run: the first
    level's, or the grid's where no level has fewer points than it."""
    return min(posterior_engine._SIGMA_LEVELS[0], opts.sigma_grid)


@functools.cache
def _cli_default_cell(name: str, n: int = 100, seed: int = 20260815):
    """A shipped scenario's cell as `gprior-lab experiment` builds it at
    its defaults (512-node g-grid, sigma_grid 129), rep 0."""
    scenario = load_scenario(SCENARIOS / f"{name}.json")
    stats = simulate_scenario_stats(scenario, n, seed)
    gamma, beta0 = scenario.gamma_at(n), scenario.beta0_at(n)
    quad_form = diagnostics(stats, gamma, scenario.prior).quad_form
    post = build_g_posterior(scenario.regime, stats, quad_form, scenario.prior)
    return post, stats, gamma, beta0


def _cli_exceedance(name: str, skip_mass=None, n: int = 100, radii=CLI_RADII, levels=None) -> np.ndarray:
    with pytest.MonkeyPatch.context() as mp:
        if skip_mass is not None:
            mp.setattr(posterior_engine, "_SKIP_MASS", skip_mass)
        if levels is not None:
            mp.setattr(posterior_engine, "_G_LEVELS", levels)
        return sup_ball_probability(*_cli_default_cell(name, n), radii, BallOptions(method="exact")).value


@functools.cache
def _cli_unskipped(name: str, n: int = 100) -> np.ndarray:
    # 1e-300 leaves out only weights far below double resolution, and the
    # route evaluates every g-node, so this is the value of evaluating every
    # (g-node, radius) pair
    return _cli_exceedance(name, 1e-300, n, levels=EVERY_G_NODE)


def _count_kernel_pairs(monkeypatch) -> tuple:
    """Record every run of the exact kernel at the first sigma^2 level, a
    _log_interval_prob call on one (g values, 9 sigma^2 points, active p)
    block, which every (g value, radius) pair reaching the kernel takes
    once, as its number of such pairs, where a g value is a g-node or a
    Chebyshev point of log g; a pair's runs at the second level's
    midpoints or on the whole grid are not counted.  Also record the level
    (number of Chebyshev points) of every set of log g values whose error
    the route estimates.  Returns the two lists (pairs, levels)."""
    pairs, levels = [], []
    kernel, tail = posterior_engine._log_interval_prob, posterior_engine._chebyshev_tail
    rows = _first_sigma_points(BallOptions())

    def counting(hi, lo, scratch):
        if hi.ndim == 3 and hi.shape[1] == rows:
            pairs.append(hi.shape[0])
        return kernel(hi, lo, scratch)

    def estimating(values):
        # a 2-D array holds sigma^2 rows
        if values.ndim == 1:
            levels.append(values.size)
        return tail(values)

    monkeypatch.setattr(posterior_engine, "_log_interval_prob", counting)
    monkeypatch.setattr(posterior_engine, "_chebyshev_tail", estimating)
    return pairs, levels


class TestSkipRule:
    """g-nodes whose weight is below _SKIP_MASS / nodes are left out."""

    @pytest.mark.parametrize(
        "name, n",
        [
            pytest.param(name, n, id=name if n == 100 else f"{name}-{n}")
            for name in ("hyperg_fixed_offset_alpha05", "zs_fixed_offset_alpha05")
            for n in (100, 200, 400)
        ],
    )
    def test_skipped_pairs_do_not_change_a_bit(self, name, n):
        # on the every-node route: the default route interpolates over the
        # log g span of the live nodes, which moves with _SKIP_MASS, so
        # there the skip rule is held to 1e-12
        value = _cli_exceedance(name, n=n, levels=EVERY_G_NODE)
        assert value.tobytes() == _cli_unskipped(name, n).tobytes()
        assert np.max(np.abs(_cli_exceedance(name, n=n) - value)) <= 1e-12
        # at n = 400 the Zellner-Siow exceedance at 0.5 is 0.0, so the check
        # that the cell is not all 0s and 1s moves in one radius there
        last = -2 if n == 400 else -1
        assert np.all(np.diff(value) <= 0.0) and 0.0 < value[last] < value[0]

    def test_kernel_skips_light_nodes_on_zellner_siow(self, monkeypatch):
        # on the every-node route each radius runs the kernel on exactly the
        # nodes whose weight reaches _SKIP_MASS / nodes: zero-weight nodes
        # and the nonzero ones below the threshold never reach it
        pairs, _ = _count_kernel_pairs(monkeypatch)
        name = "zs_fixed_offset_alpha05"
        _cli_exceedance(name, levels=EVERY_G_NODE)
        weights = _cli_default_cell(name)[0].quadrature()[1]
        with np.errstate(divide="ignore"):
            live = np.count_nonzero(np.log(weights) >= math.log(posterior_engine._SKIP_MASS / weights.size))
        assert 0 < live < np.count_nonzero(weights) < weights.size
        assert sum(pairs) == live * CLI_RADII.size

    def test_one_radius_calls_skip_what_a_grid_call_skips(self, monkeypatch):
        pairs, _ = _count_kernel_pairs(monkeypatch)
        name = "hyperg_fixed_offset_alpha05"
        grid = _cli_exceedance(name)
        in_grid = sum(pairs)
        assert in_grid > 0
        singles = [_cli_exceedance(name, radii=CLI_RADII[j : j + 1])[0] for j in range(CLI_RADII.size)]
        assert singles == grid.tolist()
        assert sum(pairs) - in_grid == in_grid

    def test_a_loose_threshold_is_caught(self):
        # the bitwise check above has teeth: leaving out up to 1e-6 of
        # P(inside) moves the Zellner-Siow exceedance
        name = "zs_fixed_offset_alpha05"
        assert _cli_exceedance(name, 1e-6, levels=EVERY_G_NODE).tobytes() != _cli_unskipped(name).tobytes()


# the capped options of perfbench's suite_mixture workload
CAPPED = BallOptions(method="exact", g_quad=64, sigma_grid=65)


def _exact_with_rows(cell, radii, opts, whole_grid=False, levels=None):
    """The exact route's exceedances, and the first and last sigma^2 point
    of every (g value, radius) pair that reaches the kernel, over the
    columns of its first kernel run.  With ``whole_grid`` the route
    evaluates every sigma^2 grid node, the oracle for the rest, with the
    block elements scaled so that the blocks hold the same g values.
    ``levels`` overrides _G_LEVELS."""
    rows = []
    kernel = posterior_engine._log_interval_prob
    first = _first_sigma_points(opts)
    evaluated = opts.sigma_grid if whole_grid else first

    def recording(hi, lo, scratch):
        out = kernel(hi, lo, scratch)
        if hi.ndim == 3 and hi.shape[1] == evaluated:
            rows.extend(pair[[0, -1]].tobytes() for pair in out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        if levels is not None:
            mp.setattr(posterior_engine, "_G_LEVELS", levels)
        if whole_grid:
            mp.setattr(posterior_engine, "_SIGMA_LEVELS", WHOLE_GRID)
            block = posterior_engine._EXACT_BLOCK_ELEMENTS * evaluated // first
            mp.setattr(posterior_engine, "_EXACT_BLOCK_ELEMENTS", block)
        mp.setattr(posterior_engine, "_log_interval_prob", recording)
        value = sup_ball_probability(*cell, radii, opts).value
    return value, rows


# the bits of the whole-grid rule on sigma^2 grids of 3 and 16 nodes when
# every g-node is evaluated too (rep 0, n = 100, CLI radii); they predate
# both interpolations.  A grid of 3 nodes is evaluated itself; on one of
# 16 each row keeps the 9-point level or is evaluated on the grid, which
# here moves no bit
SMALL_GRID_BITS = {
    ("hyperg_fixed_offset_alpha05", 3): ["0x1.fffffffffd5c2p-1", "0x1.fde31ad3f0ebcp-1", "0x1.1bc422a514321p-8"],
    ("hyperg_fixed_offset_alpha05", 16): ["0x1.fffffffffd58dp-1", "0x1.fde2909564cefp-1", "0x1.298f703fcda3dp-8"],
    ("zs_fixed_offset_alpha05", 3): ["0x1.ffffffffffcd5p-1", "0x1.febdd608c13dfp-1", "0x1.8c8731494b620p-10"],
    ("zs_fixed_offset_alpha05", 16): ["0x1.ffffffffffc8ap-1", "0x1.feab8db30d40bp-1", "0x1.c53446c49742ep-10"],
}


def _sigma_grid(shape: float, size: int) -> np.ndarray:
    """The exact route's sigma^2 quantile grid of ``size`` nodes at IG shape ``shape``."""
    return 1.0 / sp.gammainccinv(shape, (np.arange(size) + 0.5) / size)


def _g_grid(name: str, n: int, opts: BallOptions) -> np.ndarray:
    """The g-nodes the exact route reads for a shipped scenario's cell."""
    return posterior_engine._g_nodes_and_weights(_cli_default_cell(name, n)[0], opts.g_quad)[0]


class TestChebyshevLevels:
    """_levels builds the nested Chebyshev levels of both axes of the exact
    route: of log sigma^2 over the quantile grid, of log g over g-nodes."""

    @pytest.mark.parametrize(
        "axis, make",
        [
            pytest.param("sigma2", functools.partial(_sigma_grid, shape, size), id=f"sigma2-{shape}-{size}")
            for shape in (0.5, 1.0, 49.0, 1600.0)
            for size in (17, 65, 129)
        ]
        + [
            pytest.param("g", functools.partial(_g_grid, name, n, opts), id=f"g-{name}-{n}")
            for name, n, opts in (
                ("hyperg_fixed_offset_alpha05", 100, BallOptions(method="exact")),
                ("zs_fixed_offset_alpha05", 400, BallOptions(method="exact")),
                ("hyperg_fixed_offset_alpha05", 3200, CAPPED),
            )
        ],
    )
    def test_interpolation_matrix(self, axis, make):
        nodes = make()
        counts = posterior_engine._SIGMA_LEVELS if axis == "sigma2" else posterior_engine._G_LEVELS
        levels = list(posterior_engine._levels(nodes, counts))
        # a level is built only while it has fewer points than the nodes
        assert [points.size for points, _ in levels] == [m for m in counts if m < nodes.size]
        x = np.log(nodes)
        for points, interp in levels:
            m = points.size
            assert interp.shape == (nodes.size, m)
            assert points[0] == nodes[0] and points[-1] == nodes[-1]
            assert np.all(np.diff(points) > 0.0)
            # the end nodes take the end points' values, bit for bit
            assert interp[0].tolist() == [1.0] + [0.0] * (m - 1)
            assert interp[-1].tolist() == [0.0] * (m - 1) + [1.0]
            assert np.max(np.abs(np.sum(interp, axis=1) - 1.0)) <= 1e-15
            # every polynomial of degree < m in the log, as Chebyshev
            # polynomials on the nodes' span (so each is bounded by 1 there)
            t = np.log(points)
            for degree in range(m):
                poly = np.polynomial.Chebyshev.basis(degree, domain=[x[0], x[-1]])
                assert np.max(np.abs(interp @ poly(t) - poly(x))) <= 1e-12, (m, degree)

    @given(lo=hst.floats(-50.0, 50.0), width=hst.floats(1e-6, 100.0))
    def test_levels_are_nested(self, lo, width):
        # each level's points are the next level's even-index points, bit
        # for bit, so a walk evaluates only the new ones, and every level
        # runs from the nodes' own end nodes
        nodes = np.exp(np.linspace(lo, lo + width, 129))
        for counts in (posterior_engine._G_LEVELS, posterior_engine._SIGMA_LEVELS):
            assert all(finer == 2 * m - 1 for m, finer in zip(counts, counts[1:]))
            levels = [points for points, _ in posterior_engine._levels(nodes, counts)]
            assert [points.size for points in levels] == list(counts)
            for coarse, fine in zip(levels, levels[1:]):
                assert coarse.tobytes() == fine[::2].tobytes()
            for points in levels:
                assert (points[0], points[-1]) == (nodes[0], nodes[-1])


class TestSigmaInterpolation:
    """The exact route evaluates each pair's integrand at nested levels of
    Chebyshev points of log sigma^2 (_SIGMA_LEVELS) and interpolates the
    first level its estimate keeps onto the quantile grid; the oracle is
    the same route evaluating every grid node."""

    @pytest.mark.parametrize(
        "opts, ns, radii",
        [(BallOptions(method="exact"), (100, 200, 400), CLI_RADII), (CAPPED, (200, 800, 3200), np.array([0.1, 0.5]))],
        ids=["cli_defaults", "suite_options"],
    )
    def test_matches_the_whole_grid_on_shipped_scenarios(self, opts, ns, radii):
        # the end nodes are the grid's own, so every kernel run's first and
        # last rows, and with them the active sets, keep the whole grid's
        # bits
        for path in sorted(SCENARIOS.glob("*.json")):
            for n in ns:
                cell = _cli_default_cell(path.stem, n)
                value, rows = _exact_with_rows(cell, radii, opts)
                grid, grid_rows = _exact_with_rows(cell, radii, opts, whole_grid=True)
                assert np.max(np.abs(value - grid)) <= 1e-12, (path.stem, n)
                assert rows and rows == grid_rows, (path.stem, n)

    @pytest.mark.parametrize("n", [10, 16, 30])
    def test_matches_the_whole_grid_at_small_n(self, n):
        # at small n the sigma^2 posterior is wide and the integrand least
        # polynomial, and most rows take 17 points or the whole grid: the
        # worst seen was 2.2e-14 at n = 16
        radii = np.array([0.05, 0.1, 0.2, 0.5, 1.0, 2.0])
        opts = BallOptions(method="exact")
        for path in sorted(SCENARIOS.glob("*.json")):
            cell = _cli_default_cell(path.stem, n)
            value, _ = _exact_with_rows(cell, radii, opts)
            grid, _ = _exact_with_rows(cell, radii, opts, whole_grid=True)
            assert np.max(np.abs(value - grid)) <= 1e-9, path.stem

    def test_levels_are_built_once_per_call(self, monkeypatch):
        # one g value per block: each radius's walk spans many blocks, yet
        # each sigma^2 level's matrix is built at most once per call
        post, stats, _, _ = cell = _cli_default_cell("hyperg_fixed_offset_alpha05")
        opts = BallOptions(method="exact")
        grid = np.log(_sigma_grid(0.5 * (stats.n + post.a - 2.0), opts.sigma_grid))
        built = []
        barycentric = posterior_engine._barycentric_matrix

        def recording(x, t):
            if x.tobytes() == grid.tobytes():
                built.append(t.size)
            return barycentric(x, t)

        pairs, _ = _count_kernel_pairs(monkeypatch)
        monkeypatch.setattr(posterior_engine, "_barycentric_matrix", recording)
        monkeypatch.setattr(posterior_engine, "_EXACT_BLOCK_ELEMENTS", _first_sigma_points(opts) * stats.p)
        sup_ball_probability(*cell, CLI_RADII, opts)
        assert max(pairs) == 1 and len(pairs) > CLI_RADII.size * posterior_engine._G_LEVELS[0]
        assert built and len(set(built)) == len(built)
        assert set(built) <= set(posterior_engine._SIGMA_LEVELS)

    @pytest.mark.parametrize("name, sigma_grid", sorted(SMALL_GRID_BITS))
    def test_small_grids_keep_their_bits(self, monkeypatch, name, sigma_grid):
        opts = BallOptions(method="exact", sigma_grid=sigma_grid)
        cell = _cli_default_cell(name)
        default = sup_ball_probability(*cell, CLI_RADII, opts).value
        monkeypatch.setattr(posterior_engine, "_G_LEVELS", EVERY_G_NODE)
        value = sup_ball_probability(*cell, CLI_RADII, opts).value
        assert [v.hex() for v in value] == ["0x1.0000000000000p+0"] + SMALL_GRID_BITS[name, sigma_grid]
        assert np.max(np.abs(default - value)) <= 1e-12

    def test_non_finite_rows_fall_back_to_the_grid(self, monkeypatch):
        # n = 4: the sigma^2 nodes span 0.09 to 128, so the first
        # coordinate's interval, 14.5 to 15.5 from the mean, underflows to
        # mass 0 at the smallest sd (0.3) but not at the largest (11.3)
        stats = axis_stats(4, [0.0, 0.0], 1.0, eigenvalues=[1.0, 1.0])
        post = build_g_posterior(FixedG(rule=1e6), stats, 0.0, PRIOR)
        center, radii = np.array([15.0, 0.0]), np.array([0.5])
        cell = (post, stats, stats.beta_hat, center)
        opts = BallOptions(method="exact")
        shapes = []
        kernel = posterior_engine._log_interval_prob

        def recording(hi, lo, scratch):
            shapes.append(hi.shape)
            return kernel(hi, lo, scratch)

        monkeypatch.setattr(posterior_engine, "_log_interval_prob", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, rows = _exact_with_rows(cell, radii, opts)
        (first, last), = [np.frombuffer(r).reshape(2, 2) for r in rows]
        assert first[0] == -np.inf and np.isfinite(last[0])
        # the -inf row leaves the walk at once: no kernel run on the second
        # level's midpoints, which share the bad point, then the grid
        assert [shape[:2] for shape in shapes] == [(1, _first_sigma_points(opts)), (1, opts.sigma_grid)]
        grid, _ = _exact_with_rows(cell, radii, opts, whole_grid=True)
        assert np.isfinite(value[0]) and 0.0 < value[0] < 1.0
        assert value.tobytes() == grid.tobytes()


def _equal_weight_posterior(stats, quad_form, g):
    """A continuous g-posterior with equal weights on the nodes ``g``."""
    point = build_g_posterior(FixedG(rule=1.0), stats, quad_form, PRIOR)
    return dataclasses.replace(
        point, kind="hyper_g", g_star=None, u_floor=0.5,
        u_nodes=u_from_g(g, 0.5), node_weights=np.full(g.size, 1.0 / g.size),
    )


def _underflow_block_cell():
    """n = 4 with twelve g-nodes from 0.01 to 1e6 in one kernel block.  As
    in the one-node instance above, the first coordinate's interval lies
    14.5 to 15.5 from the mean; the prior location's offset in the second
    coordinate makes sigma^2 depend on g, so the interval underflows at the
    smallest sigma^2 node for some g-nodes (whole-grid fallback) and not
    for others (interpolated)."""
    stats = axis_stats(4, [0.0, 0.0], 1.0, eigenvalues=[1.0, 1.0])
    post = _equal_weight_posterior(stats, 100.0, np.geomspace(0.01, 1e6, 12))
    return post, stats, np.array([0.0, 10.0]), np.array([15.0, 0.0])


def _wide_union_cell():
    """Two g-nodes whose active sets differ by 2,000 coordinates.  At
    g = 1e6 every coordinate is active; at g = 0.45 only the first is, and
    the other 2,000 (offset 0) lie just beyond the reach, about 8.6
    conditional sds inside the radius.  Summed into the g = 0.45 node,
    their terms (about -1e-18 each) would move the exceedance's bits when
    the two nodes share a block."""
    p = 2001
    gamma = np.zeros(p)
    gamma[0] = 0.54
    stats = SufficientStats(
        n=4000, p=p, beta_hat=np.zeros(p), resid_ss=3998.0,
        gram=GramSpectrum(q=None, eigenvalues=np.full(p, 100.0)),
    )
    post = _equal_weight_posterior(stats, 100.0 * 0.54**2, np.array([0.45, 1e6]))
    return post, stats, gamma, np.zeros(p)


class TestExactBlocks:
    """The exact route runs its kernel over blocks of g-nodes; the block
    size must change no bit of any exceedance."""

    CELLS = {
        "hyperg-100": lambda: (_cli_default_cell("hyperg_fixed_offset_alpha05", 100), BallOptions(method="exact"), CLI_RADII),
        "hyperg-400": lambda: (_cli_default_cell("hyperg_fixed_offset_alpha05", 400), BallOptions(method="exact"), CLI_RADII),
        "zs-100": lambda: (_cli_default_cell("zs_fixed_offset_alpha05", 100), BallOptions(method="exact"), CLI_RADII),
        "zs-400": lambda: (_cli_default_cell("zs_fixed_offset_alpha05", 400), BallOptions(method="exact"), CLI_RADII),
        "suite-hyperg-3200": lambda: (_cli_default_cell("hyperg_fixed_offset_alpha05", 3200), CAPPED, np.array([0.1, 0.5])),
        "underflow-4": lambda: (_underflow_block_cell(), BallOptions(method="exact"), np.array([0.5])),
        "wide-union": lambda: (_wide_union_cell(), BallOptions(method="exact"), np.array([0.5])),
    }

    @pytest.mark.parametrize("key", sorted(CELLS))
    def test_block_size_changes_no_bit(self, monkeypatch, key):
        # one g-node per block, 7 (a ragged last block) and the whole cell
        cell, opts, radii = self.CELLS[key]()
        post, stats = cell[0], cell[1]
        nodes = opts.g_quad or post.quadrature()[0].size
        rows = _first_sigma_points(opts) * stats.p
        default = sup_ball_probability(*cell, radii, opts).value
        assert np.any((0.0 < default) & (default < 1.0))
        for per_block in (1, 7, nodes):
            monkeypatch.setattr(posterior_engine, "_EXACT_BLOCK_ELEMENTS", per_block * rows)
            value = sup_ball_probability(*cell, radii, opts).value
            assert value.tobytes() == default.tobytes(), per_block

    def test_fallback_pairs_share_a_block_with_finite_ones(self, monkeypatch):
        kernel = posterior_engine._log_interval_prob
        first_rows = []

        def recording(hi, lo, scratch):
            out = kernel(hi, lo, scratch)
            if hi.ndim == 3 and hi.shape[1] == _first_sigma_points(BallOptions()):
                first_rows.append(np.isfinite(out[:, 0]).all(axis=1).tolist())
            return out

        monkeypatch.setattr(posterior_engine, "_log_interval_prob", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sup_ball_probability(*_underflow_block_cell(), np.array([0.5]), BallOptions(method="exact"))
        # the first level's points, whose estimate fails, then the twelve
        # nodes: each block mixes whole-grid fallbacks with finite rows
        assert [len(finite) for finite in first_rows] == [posterior_engine._G_LEVELS[0], 12]
        assert all(0 < sum(finite) < len(finite) for finite in first_rows)

    @pytest.mark.parametrize(
        "name, n, opts, radii",
        [
            ("hyperg_fixed_offset_alpha05", 100, BallOptions(method="exact"), CLI_RADII),
            ("hyperg_fixed_offset_alpha05", 400, BallOptions(method="exact"), CLI_RADII),
            ("hyperg_fixed_offset_alpha05", 3200, CAPPED, np.array([0.1, 0.5])),
        ],
    )
    def test_working_set_stays_small(self, name, n, opts, radii):
        # five block buffers of 2**15 doubles (1.25 MiB) and the bound's
        # temporaries; a call allocates no cell-sized array
        cell = _cli_default_cell(name, n)
        sup_ball_probability(*cell, radii, opts)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sup_ball_probability(*cell, radii, opts)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


SMALL_N_RADII = np.array([0.05, 0.1, 0.2, 0.5, 1.0, 2.0])
LEVELS = posterior_engine._G_LEVELS
SUITE_RADII = np.array([0.1, 0.5])


def _record_tails(monkeypatch) -> list:
    """Record (values, tail) of every level the route estimates: the
    Chebyshev values of one level of log g (1-D, one tail), or the rows of
    one level of log sigma^2 (2-D, one tail per row)."""
    tails = []
    tail = posterior_engine._chebyshev_tail

    def recording(values):
        tails.append((values, tail(values)))
        return tails[-1][1]

    monkeypatch.setattr(posterior_engine, "_chebyshev_tail", recording)
    return tails


def _narrow_cell():
    """Forty equal-weight g-nodes and one coordinate whose posterior mean
    lies 1e-3 from the centre: at radius 1e-300 the interval's two edges
    are one double, so log P(inside | g) is -inf at every g, while the
    coordinate is active at every node."""
    stats = axis_stats(100, [0.0], 100.0)
    post = _equal_weight_posterior(stats, 0.0, np.geomspace(0.1, 1e3, 40))
    return post, stats, np.zeros(1), np.array([1e-3])


# the estimate checks keep every level whatever its estimate, on one axis
# at a time: the other axis is held at one level, kept wherever its values
# are finite, so that both runs compared evaluate the same function there
HELD_SIGMA_LEVELS, HELD_G_LEVELS = (17,), (9,)


@functools.cache
def _every_node(name: str, n: int, opts: BallOptions, radii: tuple) -> np.ndarray:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posterior_engine, "_G_LEVELS", EVERY_G_NODE)
        mp.setattr(posterior_engine, "_SIGMA_LEVELS", HELD_SIGMA_LEVELS)
        mp.setattr(posterior_engine, "_LEVEL_TOLERANCE", math.inf)
        return sup_ball_probability(*_cli_default_cell(name, n), np.array(radii), opts).value


def _grid_rows(monkeypatch, sigma_grid: int) -> list:
    """Record the sigma^2 rows on the grid, with their log weights added,
    that the route sums into log P(inside | g), one array per block."""
    rows = []
    log_sum_exp = posterior_engine.log_sum_exp

    def recording(values, axis=None):
        if axis == 1 and values.shape[1] == sigma_grid:
            rows.append(values)
        return log_sum_exp(values, axis)

    monkeypatch.setattr(posterior_engine, "log_sum_exp", recording)
    return rows


def _finite_level_rows(monkeypatch, sigma_levels: tuple) -> list:
    """Record, for every kernel run at the first level of ``sigma_levels``,
    whether each of its (g value, radius) rows has only finite values
    there: the rows of the blocks' sigma^2 walks, in their order.  A
    coordinate outside a row's active set lies 8.5 sds inside the radius,
    so the row's own sum is finite where all its kernel values are."""
    finite = []
    kernel = posterior_engine._log_interval_prob
    points = sigma_levels[0] if sigma_levels else None

    def recording(hi, lo, scratch):
        out = kernel(hi, lo, scratch)
        if hi.ndim == 3 and hi.shape[1] == points:
            finite.append(np.all(np.isfinite(out), axis=(1, 2)))
        return out

    monkeypatch.setattr(posterior_engine, "_log_interval_prob", recording)
    return finite


class TestGInterpolation:
    """Where more g-nodes than a level's points reach the kernel at a radius,
    the exact route evaluates log P(inside | g) at the Chebyshev points of
    their log g span, level by level (_G_LEVELS), and interpolates the
    first level its coefficient estimate accepts onto them; a non-finite
    value, or no accepted level, sends it back to every node.  The oracle
    is the same route evaluating every g-node."""

    @pytest.mark.parametrize(
        "opts, ns, radii",
        [(BallOptions(method="exact"), (100, 200, 400), CLI_RADII), (CAPPED, (200, 800, 3200), SUITE_RADII)],
        ids=["cli_defaults", "suite_options"],
    )
    def test_matches_every_node_on_shipped_scenarios(self, opts, ns, radii):
        for path in sorted(SCENARIOS.glob("*.json")):
            for n in ns:
                cell = _cli_default_cell(path.stem, n)
                value, rows = _exact_with_rows(cell, radii, opts)
                every, every_rows = _exact_with_rows(cell, radii, opts, levels=EVERY_G_NODE)
                assert np.max(np.abs(value - every)) <= 1e-12, (path.stem, n)
                # the mixtures' continuous g-posteriors take the interpolation
                assert (len(rows) < len(every_rows)) == (path.stem in MIXTURES), (path.stem, n)

    @staticmethod
    def _outcomes(monkeypatch, cell, radii):
        """Each radius's outcome on the default route, from one-radius
        calls: ('kept', m) when level m is kept, ('fallback', m) when every
        node is evaluated after level m, ('direct', None) when no level has
        fewer points than the nodes.  Asserts the kernel pairs each implies,
        and that the exceedance is within 1e-12 of the every-node route."""
        pairs, levels = _count_kernel_pairs(monkeypatch)
        out = []
        for eps in radii:
            runs = []
            for g_levels in (LEVELS, EVERY_G_NODE):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(posterior_engine, "_G_LEVELS", g_levels)
                    pairs.clear()
                    levels.clear()
                    value = sup_ball_probability(*cell, np.array([eps]), BallOptions(method="exact")).value[0]
                    runs.append((value, sum(pairs), list(levels)))
            (value, used, tried), (every, every_pairs, _) = runs
            assert abs(value - every) <= 1e-12, eps
            # the levels are estimated in order, each at most once
            assert tried == list(LEVELS[: len(tried)]), eps
            if every_pairs <= LEVELS[0]:
                assert used == every_pairs and not tried, eps
                out.append(("direct", None))
            elif used < every_pairs:
                # the kept level's m points, each evaluated once
                assert used == tried[-1] and every_pairs > used, eps
                out.append(("kept", used))
            else:
                # the last level tried (whose estimate or finiteness failed),
                # then every node
                assert used - every_pairs in LEVELS[max(len(tried) - 1, 0) : len(tried) + 1], eps
                out.append(("fallback", used - every_pairs))
        return out

    @pytest.mark.parametrize("n", [10, 16, 30])
    def test_small_n_falls_back_to_every_node(self, monkeypatch, n):
        # at small n log P(inside | g) is least polynomial in log g, and
        # where the span reaches g-nodes whose P(inside | g) underflows the
        # points take -inf: those radii go back to every node
        outcomes = []
        for name in MIXTURES:
            outcomes += self._outcomes(monkeypatch, _cli_default_cell(name, n), SMALL_N_RADII)
        assert any(kind == "fallback" for kind, _ in outcomes)
        assert any(kind == "kept" for kind, _ in outcomes)

    @pytest.mark.parametrize("n", [100, 200, 400])
    def test_kernel_pairs_at_cli_defaults(self, monkeypatch, n):
        # every CLI radius of the hyper-g cells keeps a level, and not the
        # same one: at most the largest level's 65 pairs per radius
        outcomes = self._outcomes(monkeypatch, _cli_default_cell("hyperg_fixed_offset_alpha05", n), CLI_RADII)
        assert all(kind == "kept" for kind, _ in outcomes), outcomes
        assert len({m for _, m in outcomes}) > 1

    @pytest.mark.parametrize(
        "n, opts, radii",
        [(n, BallOptions(method="exact"), SMALL_N_RADII) for n in (10, 16, 30, 100, 200, 400)]
        + [(n, CAPPED, SUITE_RADII) for n in (200, 800, 3200)],
        ids=[f"cli-{n}" for n in (10, 16, 30, 100, 200, 400)] + [f"suite-{n}" for n in (200, 800, 3200)],
    )
    def test_estimate_bounds_the_error(self, monkeypatch, n, opts, radii):
        # each level kept whatever its estimate: the estimate is at least
        # its true error, but where that error is at rounding level.  For
        # log g the estimate is the last three coefficients' magnitudes
        # times P(inside), against the exceedance's error; for log sigma^2
        # it is theirs times the row's largest P(inside | sigma^2), against
        # the error of the row's P(inside | g)
        tails = _record_tails(monkeypatch)
        monkeypatch.setattr(posterior_engine, "_LEVEL_TOLERANCE", math.inf)
        estimated, checked = {"g": 0, "sigma2": 0}, {"g": 0, "sigma2": 0}
        for name in MIXTURES:
            cell = _cli_default_cell(name, n)
            every = _every_node(name, n, opts, tuple(radii))
            for m in LEVELS:
                for j, eps in enumerate(radii):
                    tails.clear()
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(posterior_engine, "_G_LEVELS", (m,))
                        mp.setattr(posterior_engine, "_SIGMA_LEVELS", HELD_SIGMA_LEVELS)
                        kept = sup_ball_probability(*cell, np.array([eps]), opts).value[0]
                    for estimate in (t * (1.0 - every[j]) for values, t in tails if values.ndim == 1):
                        error = abs(kept - every[j])
                        assert estimate >= error or error <= 1e-15, (name, m, eps, estimate, error)
                        estimated["g"] += 1
                        checked["g"] += error > 1e-12
            monkeypatch.setattr(posterior_engine, "_G_LEVELS", HELD_G_LEVELS)
            runs = {}
            for sigma_levels in [(m,) for m in posterior_engine._SIGMA_LEVELS if m < opts.sigma_grid] + [WHOLE_GRID]:
                tails.clear()
                with pytest.MonkeyPatch.context() as mp:
                    rows = _grid_rows(mp, opts.sigma_grid)
                    finite = _finite_level_rows(mp, sigma_levels)
                    mp.setattr(posterior_engine, "_SIGMA_LEVELS", sigma_levels)
                    sup_ball_probability(*cell, radii, opts)
                estimates = [t * np.exp(np.max(v, axis=1)) for v, t in tails if v.ndim == 2]
                runs[sigma_levels] = (
                    np.sum(np.exp(np.concatenate(rows)), axis=1),
                    np.concatenate(estimates or [[]]),
                    np.concatenate(finite or [[]]).astype(bool),
                )
            every_row = runs.pop(WHOLE_GRID)[0]
            for (m,), (p_inside, estimates, finite) in runs.items():
                # the same (g value, radius) rows in the same order; a row
                # with a non-finite value at the level has no estimate and
                # takes the whole grid's bits
                assert p_inside.shape == every_row.shape == finite.shape
                assert estimates.shape == (np.count_nonzero(finite),)
                assert p_inside[~finite].tobytes() == every_row[~finite].tobytes()
                error = np.abs(p_inside - every_row)[finite]
                bad = (estimates < error) & (error > 1e-15)
                assert not np.any(bad), (name, m, estimates[bad], error[bad])
                estimated["sigma2"] += estimates.size
                checked["sigma2"] += np.count_nonzero(error > 1e-12)
        assert min(estimated.values()) > 0
        # errors above rounding level, where the bound has teeth, occur for
        # log g at every CLI n, and at the capped options n >= 800 no level
        # errs by 1e-12; for log sigma^2 the 9-point rows err by more than
        # 1e-12 at CLI n <= 200, and the smallest ratio of estimate to
        # error was about 40, at n = 10
        assert checked["g"] > 0 or (opts == CAPPED and n >= 800)
        assert checked["sigma2"] > 0 or n >= 400 or opts == CAPPED

    def test_non_finite_point_falls_back(self, monkeypatch):
        pairs, _ = _count_kernel_pairs(monkeypatch)
        cell = _narrow_cell()
        radii = np.array([1e-300])
        value = sup_ball_probability(*cell, radii, BallOptions(method="exact")).value
        # the first level's -inf values send the radius to every node at once
        assert value.tolist() == [1.0] and sum(pairs) == LEVELS[0] + 40
        pairs.clear()
        monkeypatch.setattr(posterior_engine, "_G_LEVELS", EVERY_G_NODE)
        assert sup_ball_probability(*cell, radii, BallOptions(method="exact")).value.tobytes() == value.tobytes()
        assert sum(pairs) == 40

    def test_walks_that_keep_no_level_give_the_node_bits(self):
        # with no level ever kept, each radius walks every level of log g,
        # writing each one's interpolant, and each sigma^2 row every level
        # of log sigma^2, before both leave for their nodes
        cells = [(n, BallOptions(method="exact")) for n in (16, 100, 400)] + [(3200, CAPPED)]
        for name in MIXTURES + ("eb_fixed_offset_alpha05",):
            for n, opts in cells:
                cell = _cli_default_cell(name, n)
                with pytest.MonkeyPatch.context() as mp:
                    tails = _record_tails(mp)
                    mp.setattr(posterior_engine, "_LEVEL_TOLERANCE", -1.0)
                    walked = sup_ball_probability(*cell, SMALL_N_RADII, opts).value
                    sizes = {(v.ndim, v.shape[-1]) for v, _ in tails}
                    assert (2, posterior_engine._SIGMA_LEVELS[-1]) in sizes, (name, n)
                    if name in MIXTURES:
                        assert (1, max(m for m in LEVELS if m < _g_grid(name, n, opts).size)) in sizes, (name, n)
                    mp.setattr(posterior_engine, "_G_LEVELS", EVERY_G_NODE)
                    mp.setattr(posterior_engine, "_SIGMA_LEVELS", WHOLE_GRID)
                    nodes = sup_ball_probability(*cell, SMALL_N_RADII, opts).value
                assert nodes.tobytes() == walked.tobytes(), (name, n)

    @pytest.mark.parametrize("name", MIXTURES)
    @pytest.mark.parametrize("n", [30, 400])
    def test_one_radius_calls_give_the_grid_bits(self, name, n):
        # n = 30 mixes kept levels and fallbacks across the radii
        grid = _cli_exceedance(name, n=n, radii=SMALL_N_RADII)
        singles = [_cli_exceedance(name, n=n, radii=SMALL_N_RADII[j : j + 1])[0] for j in range(SMALL_N_RADII.size)]
        assert singles == grid.tolist()

    @pytest.mark.parametrize("name, n", [("hyperg_fixed_offset_alpha05", 400), ("hyperg_fixed_offset_alpha05", 10), ("zs_fixed_offset_alpha05", 16)])
    def test_block_layouts_change_no_bit(self, monkeypatch, name, n):
        # one g value per block, 7 (a ragged last block), a level's new
        # points in one block, and the whole cell.  Each sigma^2 row is
        # decided on its own too: in these cells some rows keep 9 points,
        # some 17, and at n <= 16 some are evaluated on the whole grid
        cell = _cli_default_cell(name, n)
        tails = _record_tails(monkeypatch)
        grid_rows = []
        kernel = posterior_engine._log_interval_prob

        def recording(hi, lo, scratch):
            if hi.shape[1] == BallOptions().sigma_grid:
                grid_rows.append(hi.shape[0])
            return kernel(hi, lo, scratch)

        monkeypatch.setattr(posterior_engine, "_log_interval_prob", recording)
        default = sup_ball_probability(*cell, SMALL_N_RADII, BallOptions(method="exact")).value
        reached = {m: sum(v.shape[0] for v, _ in tails if v.ndim == 2 and v.shape[1] == m) for m in (9, 17)}
        # every row reaches 9 points; those that keep them do not reach 17
        assert reached[9] > reached[17] > sum(grid_rows)
        assert (sum(grid_rows) > 0) == (n <= 16)
        rows = _first_sigma_points(BallOptions()) * cell[1].p
        for per_block in (1, 7, LEVELS[0], LEVELS[-1] // 2, cell[0].quadrature()[0].size):
            monkeypatch.setattr(posterior_engine, "_EXACT_BLOCK_ELEMENTS", per_block * rows)
            value = sup_ball_probability(*cell, SMALL_N_RADII, BallOptions(method="exact")).value
            assert value.tobytes() == default.tobytes(), per_block


class TestDispatchAndValidation:
    def test_auto_picks_exact_for_axis_aligned(self):
        stats, gamma, post = _hyper_g_instance()
        res = sup_ball_probability(post, stats, gamma, np.zeros(stats.p), [0.7])
        assert res.method == "exact"
        assert res.std_error is None

    def test_auto_falls_back_to_mc_for_rotated_gram(self):
        stats, gamma, post, beta0 = _rotated_instance()
        assert stats.gram.q is not None
        res = sup_ball_probability(post, stats, gamma, beta0, [0.5],
                                   rng=RngStream(4, ("auto",)))
        assert res.method == "mc"
        assert 0.0 <= res.value[0] <= 1.0 and res.std_error is not None
        again = sup_ball_probability(post, stats, gamma, beta0, [0.5],
                                     rng=RngStream(4, ("auto",)))
        assert again.value.tolist() == res.value.tolist()

    def test_exact_route_rejects_rotated_gram(self):
        stats, gamma, post, beta0 = _rotated_instance()
        with pytest.raises(ValueError, match="axis-aligned"):
            sup_ball_probability(post, stats, gamma, beta0, [0.5],
                                 BallOptions(method="exact"))

    def test_mc_route_requires_rng(self):
        stats, gamma, post = _hyper_g_instance()
        with pytest.raises(ValueError, match="requires an rng"):
            sup_ball_probability(post, stats, gamma, np.zeros(stats.p), [0.5],
                                 BallOptions(method="mc"))

    def test_shape_mismatch_rejected(self):
        stats, gamma, post = _hyper_g_instance()
        with pytest.raises(ValueError, match=r"shape \(p,\)"):
            sup_ball_probability(post, stats, gamma[:3], np.zeros(stats.p), [0.5])
        with pytest.raises(ValueError, match=r"shape \(p,\)"):
            sup_ball_probability(post, stats, gamma, np.zeros(stats.p + 1), [0.5])

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
        res = BallProbability(value=np.array([0.25]), method="exact")
        with pytest.raises(AttributeError):
            res.value = np.array([0.3])
