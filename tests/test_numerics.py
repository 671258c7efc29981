"""Numeric kernels (keyed streams, log_sum_exp) and the Beta
lower-tail oracles in oracles.py."""


import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given
from hypothesis import strategies as hst

from gprior_lab.g_regimes import _conditional_mass_grid, _quantile_spaced_nodes
from gprior_lab.numerics import RngStream, log_sum_exp

from oracles import beta_tail_bound_check, log_beta_cdf


# ---------------------------------------------------------------------------
# log_sum_exp


class TestLogSumExp:
    def test_singleton_is_identity(self):
        assert log_sum_exp([-3.7]) == -3.7

    def test_two_equal_terms(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_shift_invariance_deep_negative(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-10.0, 0.0, 10_000)
        shifted = xs - 1e6
        ref = log_sum_exp(xs)
        assert log_sum_exp(shifted) + 1e6 == pytest.approx(ref, abs=1e-9 * abs(ref) + 1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    def test_all_neg_inf(self):
        assert log_sum_exp([-np.inf, -np.inf]) == -np.inf

    def test_nan_and_pos_inf_rejected(self):
        with pytest.raises(ValueError):
            log_sum_exp([0.0, np.nan])
        with pytest.raises(ValueError):
            log_sum_exp([0.0, np.inf])

    @given(hst.lists(hst.floats(min_value=-50, max_value=50), min_size=1, max_size=20))
    def test_exceeds_max_and_matches_direct_sum(self, xs):
        v = log_sum_exp(xs)
        assert v >= max(xs)
        direct = math.log(sum(math.exp(x) for x in xs))
        assert v == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("width", [1, 7, 16, 129, 300])
    def test_rows_match_scalar_calls_bitwise(self, width):
        # rows with -inf entries, an all-(-inf) row, and widths on both
        # sides of the pairwise-summation block (8) and its base case (128)
        rng = np.random.default_rng(width)
        values = rng.normal(-40.0, 30.0, (9, width))
        values[rng.random(values.shape) < 0.2] = -np.inf
        values[3] = -np.inf
        rows = log_sum_exp(values, axis=1)
        assert rows.shape == (9,) and rows[3] == -np.inf
        assert [r.hex() for r in rows] == [log_sum_exp(row).hex() for row in values]

    def test_rows_reject_nan_pos_inf_and_empty_rows(self):
        for bad in (np.nan, np.inf):
            values = np.zeros((3, 4))
            values[1, 2] = bad
            with pytest.raises(ValueError, match=r"\+inf or nan"):
                log_sum_exp(values, axis=1)
        with pytest.raises(ValueError, match="empty"):
            log_sum_exp(np.zeros((3, 0)), axis=1)
        assert log_sum_exp(np.zeros((0, 3)), axis=1).shape == (0,)


# ---------------------------------------------------------------------------
# beta cdf / quantile


def _log_tail_series(x: float, a: float, b: float, terms: int = 60) -> float:
    """Independent small-x oracle: I_x(a,b) = x^a (1-x)^(b-1) / (a B(a,b))
    * sum_k prod_{j<=k} [(b-j) x / ((a+j)(1-x))], convergent for small x."""
    log_lead = (
        a * math.log(x)
        + (b - 1.0) * math.log1p(-x)
        - math.log(a)
        - (sp.gammaln(a) + sp.gammaln(b) - sp.gammaln(a + b))
    )
    total, term = 1.0, 1.0
    for k in range(1, terms + 1):
        term *= (b - k) * x / ((a + k) * (1.0 - x))
        total += term
        if abs(term) < 1e-17 * total:
            break
    return log_lead + math.log(total)


def _beta_cdf(x: float, a: float, b: float) -> float:
    return math.exp(log_beta_cdf(x, a, b))


class TestBetaCdf:
    def test_uniform_case(self):
        assert _beta_cdf(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_edges(self):
        assert log_beta_cdf(0.0, 2.0, 3.0) == -np.inf
        assert log_beta_cdf(1.0, 2.0, 3.0) == 0.0

    def test_reflection_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = float(rng.uniform(0.2, 50.0))
            b = float(rng.uniform(0.2, 50.0))
            x = float(rng.uniform(0.01, 0.99))
            assert _beta_cdf(x, a, b) + _beta_cdf(1.0 - x, b, a) == pytest.approx(1.0, abs=1e-12)

    def test_trapezoid_oracle(self):
        # direct density integration of Beta(2, 5) up to 0.3
        x = np.linspace(0.0, 0.3, 1_000_001)
        pdf = x * (1.0 - x) ** 4 / math.exp(sp.betaln(2.0, 5.0))
        ref = float(np.trapezoid(pdf, x))
        assert _beta_cdf(0.3, 2.0, 5.0) == pytest.approx(ref, abs=1e-8)

    def test_against_scipy_sweep(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for a in (0.5, 1.0, 2.0, 10.0, 100.0, 1e3, 1e4):
            for b in (0.5, 1.0, 2.0, 10.0, 100.0, 1e3, 1e4):
                xs = rng.uniform(0.001, 0.999, 40)
                ours = np.array([_beta_cdf(float(t), a, b) for t in xs])
                worst = max(worst, float(np.max(np.abs(ours - sp.betainc(a, b, xs)))))
        assert worst <= 1e-10

    def test_log_cdf_deep_tail_series_oracle(self):
        for x, a, b in ((0.001, 200.0, 100.0), (0.01, 150.0, 30.0), (0.01, 25.0, 25.0)):
            ref = _log_tail_series(x, a, b)
            got = log_beta_cdf(x, a, b)
            assert got == pytest.approx(ref, rel=1e-9)

    def test_log_cdf_matches_cdf_in_bulk(self):
        for x in (0.2, 0.5, 0.8):
            assert _beta_cdf(x, 3.0, 4.0) == pytest.approx(sp.betainc(3.0, 4.0, x), rel=1e-12)

    def test_log_cdf_at_continued_fraction_switch_points(self):
        # x = (a + 1) / (a + b + 2) is the first point evaluated through the
        # reflected continued fraction; it must agree with scipy there
        worst = 0.0
        for a in (0.5, 1.0, 2.0, 3.0, 7.0, 12.5):
            for b in (0.5, 1.0, 2.0, 3.0, 7.0, 12.5):
                x = (a + 1.0) / (a + b + 2.0)
                worst = max(worst, abs(_beta_cdf(x, a, b) - sp.betainc(a, b, x)))
        assert worst <= 1e-13
        r = beta_tail_bound_check(25.0, 25.0, 0.5, 0.5, n=50)
        assert r.log_exact == pytest.approx(math.log(0.5), abs=1e-13)

    def test_quantile_round_trip(self):
        # the hyper-g u-nodes sit at Beta quantiles of their conditional
        # levels above the truncation point
        u_floor = 0.05
        for a, b in ((0.7, 3.0), (5.0, 5.0), (40.0, 160.0)):
            xs = _quantile_spaced_nodes(u_floor, a, b)
            fw = sp.betainc(a, b, u_floor)
            qs = fw + (1.0 - fw) * _conditional_mass_grid()
            back = sp.betainc(a, b, xs)
            assert np.max(np.abs(back - qs)) <= 1e-10

    @given(
        hst.floats(min_value=0.05, max_value=0.95),
        hst.floats(min_value=0.05, max_value=0.95),
    )
    def test_monotone_in_x(self, x1, x2):
        lo, hi = min(x1, x2), max(x1, x2)
        assert _beta_cdf(lo, 2.5, 7.5) <= _beta_cdf(hi, 2.5, 7.5) + 1e-15

# ---------------------------------------------------------------------------
# keyed streams and samplers


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(5, ("scen", 100, 2)).generator.random(8)
        b = RngStream(5, ("scen", 100, 2)).generator.random(8)
        assert np.array_equal(a, b)

    def test_child_paths_reproducible(self):
        a = RngStream(5, ("scen",)).child("sim").generator.standard_normal(4)
        b = RngStream(5, ("scen",)).child("sim").generator.standard_normal(4)
        assert np.array_equal(a, b)

    def test_distinct_paths_decorrelated(self):
        n = 100_000
        base = RngStream(11, ("root",))
        u0 = base.child("a").generator.random(n)
        for other in ("b", "sim", 3):
            u1 = base.child(other).generator.random(n)
            r = np.corrcoef(u0, u1)[0, 1]
            assert abs(r) < 0.01

    def test_seed_changes_stream(self):
        a = RngStream(1, ("x",)).generator.random(4)
        b = RngStream(2, ("x",)).generator.random(4)
        assert not np.array_equal(a, b)

    def test_bad_path_component_type(self):
        with pytest.raises(TypeError):
            RngStream(1, (3.5,))


# ---------------------------------------------------------------------------
# beta tail bound


class TestBetaTailBound:
    def test_xi_zero_trivially_holds(self):
        r = beta_tail_bound_check(25.0, 25.0, 0.0, 0.5, n=50)
        assert r.holds and r.log_exact == -np.inf and r.log_bound == -np.inf

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_tail_bound_check(10.0, 10.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            beta_tail_bound_check(10.0, 10.0, -0.1, 0.5)

    def test_bound_formula_positive_alpha(self):
        n, alpha, xi = 80.0, 0.5, 0.01
        r = beta_tail_bound_check(40.0, 40.0, xi, alpha, n=n)
        assert r.log_bound == pytest.approx(n * math.log(4.0) + n * (1 - alpha) * math.log(xi), rel=1e-14)

    def test_bound_formula_alpha_zero(self):
        n, xi = 120.0, 0.05
        r = beta_tail_bound_check(120.0, 2.0, xi, 0.0, n=n)
        assert r.log_bound == pytest.approx(0.5 * n * math.log(xi), rel=1e-14)

    def test_holds_on_proportional_shape_grid(self):
        # shapes growing proportionally with n: a_n = n (1 - alpha) and
        # b_n = n alpha (alpha > 0) or a constant (alpha = 0)
        for n in (50, 100, 200):
            for alpha in (0.0, 0.5):
                xis = [0.001, 0.01] + ([0.1] if alpha == 0.0 else [])
                a_n = n * (1.0 - alpha)
                b_n = n * alpha if alpha > 0 else 2.0
                for xi in xis:
                    r = beta_tail_bound_check(a_n, b_n, xi, alpha, n=n)
                    assert r.holds, (n, alpha, xi, r.log_exact, r.log_bound)

    def test_small_shape_instances_fail_honestly(self):
        # with shapes far below the proportional regime the crude bound is
        # smaller than the exact tail mass and the check must say so
        r1 = beta_tail_bound_check(12.5, 12.5, 0.01, 0.5, n=50)
        assert not r1.holds
        assert r1.log_exact == pytest.approx(-42.881270, abs=1e-4)
        assert r1.log_bound == pytest.approx(-45.814537, abs=1e-4)
        r2 = beta_tail_bound_check(100.0, 2.0, 0.3, 0.0, n=200)
        assert not r2.holds
        assert r2.log_exact == pytest.approx(-116.134601, abs=1e-4)
        assert r2.log_bound == pytest.approx(-120.397280, abs=1e-4)

    def test_exact_property_underflow_guard(self):
        r = beta_tail_bound_check(200.0, 200.0, 0.001, 0.5, n=400)
        assert r.exact == 0.0 and r.log_exact < -700.0

    def test_n_defaults_to_shape_ratio(self):
        # omitting n must reproduce n = a_n / (1 - alpha)
        r_explicit = beta_tail_bound_check(30.0, 30.0, 0.01, 0.5, n=60)
        r_default = beta_tail_bound_check(30.0, 30.0, 0.01, 0.5)
        assert r_default.log_bound == pytest.approx(r_explicit.log_bound, rel=1e-14)
