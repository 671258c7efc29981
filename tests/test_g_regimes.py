"""The four g regimes: marginal likelihood, densities, and u-grid posteriors."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as hst

import gprior_lab.g_regimes as g_regimes
from gprior_lab.g_regimes import (
    EmpiricalBayesG,
    FixedG,
    GPosterior,
    HyperG,
    ZellnerSiowG,
    build_g_posterior,
    eb_ghat,
    g_from_u,
    zs_log_density_u,
)
from gprior_lab.model_core import FixedDimension, PriorConstants, ScenarioError, ZerosRule, diagnostics
from gprior_lab.numerics import RngStream

from conftest import axis_stats, make_scenario, simulate_scenario_stats
from oracles import log_marginal_likelihood_g, u_from_g

PRIOR = PriorConstants()


def _instance(n=400, alpha=0.25, seed=11, regime=None, sigma0_sq=1.0):
    sc = make_scenario(
        name="reg", alpha=alpha, sigma0_sq=sigma0_sq, regime=regime or HyperG(c=3.0)
    )
    stats = simulate_scenario_stats(sc, n, seed)
    diag = diagnostics(stats, sc.gamma_at(n), PRIOR)
    return sc, stats, diag


# ---------------------------------------------------------------------------
# u <-> g transform


class TestUTransform:
    def test_round_trip(self):
        for w in (0.05, 0.3, 0.75, 0.99):
            us = np.linspace(w + 1e-6, 1.0 - 1e-6, 200)
            back = u_from_g(g_from_u(us, w), w)
            assert np.max(np.abs(back - us)) <= 1e-10

    def test_floor_maps_to_zero_exactly(self):
        for w in (0.1, 0.5, 0.9):
            assert g_from_u(w, w) == 0.0
            assert u_from_g(0.0, w) == pytest.approx(w, rel=1e-15)

    def test_monotone_increasing(self):
        w = 0.4
        us = np.linspace(w + 1e-5, 1.0 - 1e-5, 50)
        gs = g_from_u(us, w)
        assert np.all(np.diff(gs) > 0)

    @given(hst.floats(min_value=0.01, max_value=0.99), hst.floats(min_value=0.0, max_value=1e6))
    def test_range(self, w, g):
        u = u_from_g(g, w)
        assert w <= u < 1.0


# ---------------------------------------------------------------------------
# propriety: one rule per regime, read by every caller


def _old_refusal(regime, n, p, a):
    """The refusal conditions written out on their own, hyper-g's
    p + c - 2 <= 0 half included although p >= 1 and c > 2 never meet it."""
    if isinstance(regime, EmpiricalBayesG):
        return n - p + a - 2 <= 0
    if isinstance(regime, HyperG):
        return p + regime.c - 2 <= 0 or n - p + a - regime.c <= 0
    return False


PROPRIETY_CASES = [
    (regime, n, p, a)
    for regime in (EmpiricalBayesG(), HyperG(c=2.5), HyperG(c=3.0), HyperG(c=4.0), FixedG(rule=1.0), ZellnerSiowG())
    for p in (1, 4, 10)
    for n in range(p + 1, p + 7)
    for a in (-2.0, -1.0, 0.0, 0.5, 2.0)
    if n + a - 2 > 0
]


@pytest.mark.parametrize("regime", [FixedG(rule=1.0), ZellnerSiowG()], ids=["fixed", "zs"])
def test_variance_posterior_needs_spare_df(regime):
    # n + a - 2 = 0: sigma^2 | g, data ~ InverseGamma(0, .) is improper for every g
    stats = axis_stats(2, np.array([0.5]), 1.0)
    with pytest.raises(ScenarioError, match=r"n \+ a - 2 > 0"):
        make_scenario(regime=regime, alpha=0.0, p_rule=FixedDimension(1)).validate_grid((2,))
    with pytest.raises(ValueError, match=r"n \+ a - 2 > 0"):
        build_g_posterior(regime, stats, 0.5, PriorConstants())


def test_every_caller_refuses_the_old_grids():
    refusals = 0
    for regime, n, p, a in PROPRIETY_CASES:
        refused = _old_refusal(regime, n, p, a)
        refusals += refused
        assert (g_regimes.improper_reason(regime, n, p, a) is not None) == refused, (regime, n, p, a)
        sc = make_scenario(
            regime=regime, alpha=0.0, p_rule=FixedDimension(p), beta0_rule=ZerosRule(), prior=PriorConstants(a=a)
        )
        stats = axis_stats(n, np.zeros(p), 1.0)
        # validate_grid's ScenarioError makes the CLI exit 2
        callers = [
            (ScenarioError, lambda: sc.validate_grid((n,))),
            (ValueError, lambda: build_g_posterior(regime, stats, 1.0, PriorConstants(a=a))),
        ]
        if isinstance(regime, EmpiricalBayesG):
            callers.append((ValueError, lambda: eb_ghat(n, p, a, 1.0, 1.0)))
        for error, call in callers:
            if refused:
                with pytest.raises(error, match=r"n - p \+ a - (2|c) > 0"):
                    call()
            else:
                call()
    assert 0 < refusals < len(PROPRIETY_CASES)


# ---------------------------------------------------------------------------
# marginal likelihood and the empirical-Bayes maximizer


class TestEbGhat:
    def test_literal_value(self):
        assert eb_ghat(100, 10, 0.0, 90.0, 30.0) == pytest.approx(29.0 / 15.0, rel=1e-15)

    def test_truncation_at_zero(self):
        assert eb_ghat(100, 10, 0.0, 1000.0, 1.0) == 0.0

    def test_precondition_error(self):
        with pytest.raises(ValueError, match=r"n - p \+ a - 2 > 0"):
            eb_ghat(5, 4, 0.0, 3.0, 2.0)

    def test_at_zero(self):
        # log L(0) = -((n + a - 2)/2) log(S + b + T)
        n, p, a, S, T = 60, 10, 0.0, 50.0, 20.0
        expected = -0.5 * (n + a - 2) * math.log(S + T)
        assert log_marginal_likelihood_g(0.0, n, p, a, S, T) == pytest.approx(expected, rel=1e-14)

    def test_grid_oracle(self):
        rng = np.random.default_rng(42)
        grid = np.linspace(0.0, 1000.0, 10_000)
        step = grid[1] - grid[0]
        for _ in range(5):
            n = int(rng.integers(50, 2000))
            p = int(rng.integers(1, max(2, n // 2)))
            a = float(rng.choice([0.0, -1.0, 2.0]))
            S = float(rng.uniform(0.5, 2.0) * (n - p))
            T = float(rng.uniform(0.2, 40.0) * p)
            gh = eb_ghat(n, p, a, S, T)
            vals = log_marginal_likelihood_g(grid, n, p, a, S, T)
            assert abs(grid[int(np.argmax(vals))] - gh) <= step + 1e-12
            assert log_marginal_likelihood_g(gh, n, p, a, S, T) >= float(np.max(vals)) - 1e-9

    def test_stationarity_one_sided(self):
        n, p, a, S, T = 500, 100, 0.0, 420.0, 800.0
        gh = eb_ghat(n, p, a, S, T)
        assert gh > 0
        h = 1e-5 * (1.0 + gh)
        at = log_marginal_likelihood_g(gh, n, p, a, S, T)
        assert at >= log_marginal_likelihood_g(gh - h, n, p, a, S, T)
        assert at >= log_marginal_likelihood_g(gh + h, n, p, a, S, T)

    def test_unimodal_profile(self):
        n, p, a, S, T = 300, 60, 0.0, 250.0, 420.0
        grid = np.linspace(0.0, 200.0, 5000)
        vals = log_marginal_likelihood_g(grid, n, p, a, S, T)
        signs = np.sign(np.diff(vals))
        changes = int(np.count_nonzero(np.diff(signs[signs != 0.0]) != 0.0))
        assert changes <= 1

    def test_vectorized_matches_scalar(self):
        n, p, a, S, T = 120, 30, 1.0, 100.0, 60.0
        gs = np.array([0.0, 0.5, 2.0, 10.0])
        vec = log_marginal_likelihood_g(gs, n, p, a, S, T)
        sca = [log_marginal_likelihood_g(float(g), n, p, a, S, T) for g in gs]
        assert np.allclose(vec, sca, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# hyper-g density in u


def _hyperg_posterior(n, p, c, u_floor):
    """Hyper-g posterior (a = 0) for statistics with S + b = 1 and the
    quad_form that puts the truncation point at u_floor."""
    stats = axis_stats(n, np.zeros(p), 1.0)
    prior = PriorConstants(a=0.0, b=0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(g_regimes, "_GRID_SIZE", 64)
        return build_g_posterior(HyperG(c=c), stats, 1.0 / u_floor - 1.0, prior)


class TestHyperGDensity:
    def test_is_beta_kernel_up_to_constant(self):
        # the u-posterior is u^(s1-1) (1-u)^(s2-1) on (u_floor, 1): its cdf
        # at each node matches adaptive quadrature of that kernel
        n, p, c, w = 60, 10, 3.0, 0.2
        s1 = 0.5 * (n - p - c)
        s2 = 0.5 * (p + c - 2.0)
        post = _hyperg_posterior(n, p, c, w)

        def kernel(u):
            return u ** (s1 - 1.0) * (1.0 - u) ** (s2 - 1.0)

        u0, u_last = post.u_nodes[0], post.u_nodes[-1]
        total = scipy.integrate.quad(kernel, u0, u_last, epsabs=0, epsrel=1e-13, limit=200)[0]
        for k in range(0, post.u_nodes.size, 7):
            part = scipy.integrate.quad(kernel, u0, post.u_nodes[k], epsabs=0, epsrel=1e-13, limit=200)[0]
            assert post.cdf[k] == pytest.approx(part / total, abs=1e-10)

    def test_support_enforced(self):
        w = 0.3
        post = _hyperg_posterior(100, 20, 3.0, w)
        assert np.all((post.u_nodes > w) & (post.u_nodes < 1.0))
        draws = u_from_g(post.sample_g(RngStream(12, ("hg-support",)).generator, 10_000), w)
        assert np.all((draws > w) & (draws < 1.0))

    def test_flat_case(self):
        # n - p + a - c = 2 and p + c = 4 make both exponents vanish, so the
        # u-posterior is uniform on (u_floor, 1) and its cdf is linear
        post = _hyperg_posterior(6, 1, 3.0, 0.25)
        u = post.u_nodes
        linear = (u - u[0]) / (u[-1] - u[0])
        assert np.max(np.abs(post.cdf - linear)) <= 1e-12


# ---------------------------------------------------------------------------
# Zellner-Siow density in u


class TestZsDensity:
    def test_support_enforced(self):
        w = 0.5
        assert zs_log_density_u(w - 1e-9, 50, 10, 0.0, w) == -np.inf
        assert zs_log_density_u(1.0, 50, 10, 0.0, w) == -np.inf

    def test_collapses_near_floor(self):
        # g -> 0 as u -> u_floor and the exp(-n/(2g)) factor crushes the density
        w = 0.5
        assert zs_log_density_u(w + 1e-12 * w, 50, 10, 0.0, w) < -1e6

    def test_finite_at_interior_point(self):
        v = zs_log_density_u(0.9, 2, 1, 2.0, 0.5)
        assert math.isfinite(v)

    def test_change_of_variables_against_g_space(self):
        _, stats, diag = _instance(regime=ZellnerSiowG(), seed=13)
        S, T = diag.resid_plus_b, diag.quad_form
        n, p, a = stats.n, stats.p, PRIOR.a
        w = diag.u_floor
        const = 0.5 * (n - p + a) * math.log(S) + 0.5 * (p - 2) * math.log(T)
        rng = np.random.default_rng(5)
        for g in rng.uniform(0.05, 200.0, 10):
            u = u_from_g(float(g), w)
            jac = math.log((S / T) * (1.0 - u) ** 2)
            lhs = zs_log_density_u(u, n, p, a, w) + jac
            rhs = (
                0.5 * (n - p + a - 2) * math.log1p(g)
                - 0.5 * (n + a - 2) * math.log((g + 1.0) * S + T)
                - 1.5 * math.log(g)
                - 0.5 * n / g
            )
            assert lhs - rhs == pytest.approx(const, abs=1e-8)


# ---------------------------------------------------------------------------
# posterior construction


class TestBuildPosterior:
    def test_fixed_point_mass(self):
        _, stats, diag = _instance()
        post = build_g_posterior(FixedG(rule=5.0), stats, diag.quad_form, PRIOR)
        assert post.is_point and post.g_star == 5.0
        g, wts = post.quadrature()
        assert np.array_equal(g, [5.0]) and np.array_equal(wts, [1.0])

    def test_fixed_rule_n(self):
        _, stats, diag = _instance()
        post = build_g_posterior(FixedG(rule="n"), stats, diag.quad_form, PRIOR)
        assert post.g_star == float(stats.n)

    def test_eb_point_mass(self):
        _, stats, diag = _instance()
        post = build_g_posterior(EmpiricalBayesG(), stats, diag.quad_form, PRIOR)
        expected = eb_ghat(stats.n, stats.p, PRIOR.a, diag.resid_plus_b, diag.quad_form)
        assert post.is_point and post.g_star == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "regime", [FixedG(rule=2.0), FixedG(rule=1 / 3), EmpiricalBayesG()], ids=["fixed_2", "fixed_third", "eb"]
    )
    def test_point_sampling_is_g_star_bit_for_bit(self, regime):
        # the MC route draws the g the exact route uses, and no stream draw
        _, stats, diag = _instance()
        post = build_g_posterior(regime, stats, diag.quad_form, PRIOR)
        rng = RngStream(0, ("s",)).generator
        state = rng.bit_generator.state
        draws = post.sample_g(rng, 5)
        assert draws.tobytes() == np.full(5, post.g_star).tobytes()
        assert rng.bit_generator.state == state

    def test_negative_quad_form_rejected(self):
        _, stats, _ = _instance()
        with pytest.raises(ValueError):
            build_g_posterior(HyperG(c=3.0), stats, -1.0, PRIOR)

    def test_weights_and_cdf_structure(self):
        for regime in (HyperG(c=3.0), ZellnerSiowG()):
            _, stats, diag = _instance(regime=regime)
            post = build_g_posterior(regime, stats, diag.quad_form, PRIOR)
            assert not post.is_point
            assert np.all(post.u_nodes > post.u_floor)
            assert np.all(post.u_nodes < 1.0)
            assert np.all(np.diff(post.u_nodes) > 0)
            assert np.all(post.node_weights >= 0.0)
            assert post.node_weights.sum() == pytest.approx(1.0, abs=1e-8)
            assert post.cdf[0] == 0.0 and post.cdf[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(post.cdf) >= 0.0)

    @pytest.mark.parametrize("regime", [HyperG(c=3.0), ZellnerSiowG()], ids=["hyper_g", "zs"])
    def test_degenerate_truncation_raises(self, regime):
        # quad_form so small that essentially no beta mass lies above
        # u_floor; for Zellner-Siow it is its Beta envelope's mass
        stats = axis_stats(400, np.full(100, 1e-8), 300.0, eigenvalues=np.full(100, 400.0))
        tiny_t = 3e-5  # u_floor = S / (S + T) = 1 - 1e-7
        with pytest.raises(ValueError, match="underflowed.*u_floor"):
            build_g_posterior(regime, stats, tiny_t, PRIOR)

    def test_empty_u_grid_mass_raises(self):
        # every node's Zellner-Siow log density is -inf: its trapezoid cdf
        # is NaN, which the one mass check refuses
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(g_regimes, "zs_log_density_u", lambda u, *args: np.full(u.shape, -np.inf))
            _, stats, diag = _instance(regime=ZellnerSiowG())
            with pytest.raises(ValueError, match="underflowed.*u_floor"):
                build_g_posterior(ZellnerSiowG(), stats, diag.quad_form, PRIOR)


class TestHyperGPosterior:
    def test_mean_u_against_truncated_beta_identity(self):
        # E[U | U > W] = (s1/(s1+s2)) (1 - I_W(s1+1, s2)) / (1 - I_W(s1, s2))
        _, stats, diag = _instance()
        post = build_g_posterior(HyperG(c=3.0), stats, diag.quad_form, PRIOR)
        s1 = 0.5 * (stats.n - stats.p + PRIOR.a - 3.0)
        s2 = 0.5 * (stats.p + 3.0 - 2.0)
        w = post.u_floor
        ref = (s1 / (s1 + s2)) * (1.0 - sp.betainc(s1 + 1.0, s2, w)) / (1.0 - sp.betainc(s1, s2, w))
        assert post.node_weights @ post.u_nodes == pytest.approx(ref, rel=1e-6)

    def test_mean_u_stable_in_grid_size(self, monkeypatch):
        _, stats, diag = _instance()
        p512 = build_g_posterior(HyperG(c=3.0), stats, diag.quad_form, PRIOR)
        monkeypatch.setattr(g_regimes, "_GRID_SIZE", 1024)
        p1024 = build_g_posterior(HyperG(c=3.0), stats, diag.quad_form, PRIOR)
        m512 = p512.node_weights @ p512.u_nodes
        m1024 = p1024.node_weights @ p1024.u_nodes
        assert abs(m512 - m1024) <= 1e-6 * abs(m1024)

    def test_quantiles_invert_cdf(self):
        _, stats, diag = _instance()
        post = build_g_posterior(HyperG(c=3.0), stats, diag.quad_form, PRIOR)
        qs = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
        us = u_from_g(post.quantile_g(qs), post.u_floor)
        s1 = 0.5 * (stats.n - stats.p + PRIOR.a - 3.0)
        s2 = 0.5 * (stats.p + 3.0 - 2.0)
        w = post.u_floor
        cw = float(sp.betainc(s1, s2, w))
        back = (sp.betainc(s1, s2, us) - cw) / (1.0 - cw)
        assert np.max(np.abs(back - qs)) <= 1e-4

    def test_sampling_mean_consistent(self):
        _, stats, diag = _instance()
        post = build_g_posterior(HyperG(c=3.0), stats, diag.quad_form, PRIOR)
        rng = RngStream(21, ("samp",)).generator
        u = u_from_g(post.sample_g(rng, 100_000), post.u_floor)
        sd = float(np.std(u))
        assert abs(float(np.mean(u)) - post.node_weights @ post.u_nodes) <= 4 * sd / math.sqrt(100_000)

    def test_quantile_domain(self):
        _, stats, diag = _instance()
        post = build_g_posterior(HyperG(c=3.0), stats, diag.quad_form, PRIOR)
        with pytest.raises(ValueError):
            post.quantile_g(1.5)

    def test_sampling_is_quantile_g_at_uniform_draws(self):
        _, stats, diag = _instance()
        post = build_g_posterior(HyperG(c=3.0), stats, diag.quad_form, PRIOR)
        draws = post.sample_g(RngStream(5, ("q",)).generator, 1000)
        assert draws.tolist() == post.quantile_g(RngStream(5, ("q",)).generator.random(1000)).tolist()


class TestZsPosterior:
    def test_mean_u_against_adaptive_integration(self):
        _, stats, diag = _instance(regime=ZellnerSiowG(), seed=13)
        post = build_g_posterior(ZellnerSiowG(), stats, diag.quad_form, PRIOR)
        w = post.u_floor
        n, p, a = stats.n, stats.p, PRIOR.a
        peak = float(
            max(zs_log_density_u(float(u), n, p, a, w) for u in post.u_nodes)
        )

        def f(u, moment):
            return math.exp(zs_log_density_u(u, n, p, a, w) - peak) * u**moment

        z0, _ = scipy.integrate.quad(f, w, 1.0, args=(0,), limit=400, points=[w + 1e-9 * (1 - w)])
        z1, _ = scipy.integrate.quad(f, w, 1.0, args=(1,), limit=400, points=[w + 1e-9 * (1 - w)])
        assert post.node_weights @ post.u_nodes == pytest.approx(z1 / z0, rel=1e-5)

    def test_expectation_helpers(self):
        _, stats, diag = _instance(regime=ZellnerSiowG(), seed=13)
        post = build_g_posterior(ZellnerSiowG(), stats, diag.quad_form, PRIOR)
        g_nodes, weights = post.quadrature()
        assert weights @ np.ones_like(g_nodes) == pytest.approx(1.0, abs=1e-8)
        val = weights @ ((g_nodes / (g_nodes + 1.0) ** 2) ** 2)
        assert 0.0 < val <= 1.0 / 16.0 + 1e-12


class TestPosteriorExpectation:
    def test_point_mass_is_plain_evaluation(self):
        _, stats, diag = _instance()
        post = build_g_posterior(FixedG(rule=3.0), stats, diag.quad_form, PRIOR)
        g_nodes, weights = post.quadrature()
        assert weights @ (g_nodes / (g_nodes + 1.0)) == pytest.approx(0.75)

    def test_mc_cross_check(self):
        _, stats, diag = _instance()
        post = build_g_posterior(HyperG(c=3.0), stats, diag.quad_form, PRIOR)
        g_nodes, weights = post.quadrature()
        quad = weights @ (g_nodes / (g_nodes + 1.0))
        rng = RngStream(33, ("mc",)).generator
        draws = post.sample_g(rng, 100_000)
        vals = draws / (draws + 1.0)
        se = float(np.std(vals)) / math.sqrt(100_000)
        assert abs(float(np.mean(vals)) - quad) <= 4 * se
