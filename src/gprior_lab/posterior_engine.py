"""Conditional posteriors and sup-norm ball probabilities.

Given the sufficient statistics, a prior location gamma, and a value of g:

  * sigma^2 | g, data ~ InverseGamma((n + a - 2)/2, scale_total(g)/2)
    with scale_total(g) = S + b + quad_form / (g + 1);
  * beta | g, sigma^2, data ~ N(m(g), (g/(g+1)) sigma^2 (X'X)^{-1})
    with m(g) = (g/(g+1)) beta_hat + (1/(g+1)) gamma.

The headline functional is the posterior probability that beta falls
OUTSIDE the closed sup-norm ball of radius eps around a reference point,
i.e. P(max_i |beta_i - center_i| > eps | data), integrated over sigma^2
and over the posterior of g.  Two independent routes compute it: a
deterministic 'exact' route (axis-aligned designs only) that multiplies
per-coordinate normal interval probabilities in log space on a sigma^2
quantile grid and complements the result, and an 'mc' route that samples
(g, sigma^2, beta) and counts exceedances.  The routes share no code path
beyond the conditional laws above, so each validates the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from scipy.special import gammainccinv, ndtr

from .numerics import RngStream, inverse_gamma_cdf, inverse_gamma_quantile, log_sum_exp
from .g_regimes import GPosterior
from .model_core import SufficientStats, PriorConstants

__all__ = [
    "beta_posterior_mean",
    "Sigma2Posterior",
    "sigma2_posterior",
    "BallOptions",
    "BallProbability",
    "sup_ball_probability",
]

# coordinates whose worst-case interval miss is below ~2*Phi(-8.5) < 2e-17
# contribute nothing at double precision and are skipped in the exact route
_ACTIVE_SET_SIGMAS = 8.5


def beta_posterior_mean(stats: SufficientStats, gamma: np.ndarray, g: float) -> np.ndarray:
    """m(g) = (g/(g+1)) beta_hat + (1/(g+1)) gamma."""
    if g < 0:
        raise ValueError("g must be >= 0")
    w = g / (g + 1.0)
    return w * stats.beta_hat + (1.0 - w) * gamma


@dataclass(frozen=True)
class Sigma2Posterior:
    """InverseGamma law of sigma^2 given g and the data."""

    shape: float
    scale: float

    def mean(self) -> float:
        if self.shape <= 1.0:
            raise ValueError("mean requires shape > 1, i.e. n + a - 4 > 0")
        return self.scale / (self.shape - 1.0)

    def cdf(self, x):
        return inverse_gamma_cdf(x, self.shape, self.scale)

    def quantile(self, q):
        return inverse_gamma_quantile(q, self.shape, self.scale)

    def interval_probability(self, lo: float, hi: float) -> float:
        if not (0 <= lo <= hi):
            raise ValueError("need 0 <= lo <= hi")
        return float(self.cdf(hi) - self.cdf(lo))

    def sample(self, rng: RngStream, size=None):
        return rng.inverse_gamma(self.shape, self.scale, size)


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


# ---------------------------------------------------------------------------
# sup-norm ball probabilities


@dataclass(frozen=True)
class BallOptions:
    """Knobs for sup_ball_probability.

    method: 'auto' (exact when the design is axis-aligned, else mc),
    'exact', or 'mc'.  mc_draws is the Monte Carlo sample size; sigma_grid
    the number of sigma^2 quantile nodes in the exact route; g_quad, if
    set, subsamples the g-posterior to that many equal-weight quantile
    nodes instead of using its full grid.
    """

    method: str = "auto"
    mc_draws: int = 20_000
    sigma_grid: int = 129
    g_quad: Optional[int] = None

    def __post_init__(self):
        if self.method not in ("auto", "exact", "mc"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.mc_draws < 1:
            raise ValueError("mc_draws must be >= 1")
        if self.sigma_grid < 3:
            raise ValueError("sigma_grid must be >= 3")
        if self.g_quad is not None and self.g_quad < 1:
            raise ValueError("g_quad must be >= 1 when set")


@dataclass(frozen=True)
class BallProbability:
    """One evaluated ball-exceedance probability P(sup distance > eps);
    std_error is None for the exact route and the binomial standard error
    for the mc route."""

    epsilon: float
    value: float
    method: str
    std_error: Optional[float] = None


def _g_nodes_and_weights(post: GPosterior, g_quad: Optional[int]):
    if post.is_point or g_quad is None:
        return post.quadrature()
    q = (np.arange(g_quad) + 0.5) / g_quad
    u = np.asarray(post.quantile_u(q))
    g = np.asarray((u - post.u_floor) / (post.u_floor * (1.0 - u)))
    return g, np.full(g_quad, 1.0 / g_quad)


def _sigma_grid_weights(m: int):
    # equal-mass quantile midpoints: evaluating each probability bin at its
    # edge instead of its midpoint biases small exceedances upward, because
    # the top bin would be represented by a near-extreme sigma^2 quantile
    probs = (np.arange(m) + 0.5) / m
    return probs, np.full(m, 1.0 / m)


def _log_interval_prob(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """log(Phi(hi) - Phi(lo)) elementwise, stable in both tails."""
    below, above = ndtr(lo), ndtr(-hi)
    miss = below + above
    # small masses are differences of lower tails, where ndtr is relatively
    # accurate; reflecting intervals centred above 0 gives [lo, hi] and
    # [-hi, -lo] the same expression
    upper = lo > -hi
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            miss < 0.5,
            np.log1p(-miss),  # exact when the two-tail miss is small
            np.log(ndtr(np.where(upper, -lo, hi)) - np.where(upper, above, below)),
        )


def _exact_ball_probability(
    post: GPosterior,
    stats: SufficientStats,
    gamma: np.ndarray,
    center: np.ndarray,
    epsilon: float,
    opts: BallOptions,
) -> float:
    if stats.gram.q is not None:
        raise ValueError("exact route requires an axis-aligned gram spectrum (q is None)")
    shape = 0.5 * (stats.n + post.a - 2.0)
    probs, sig_w = _sigma_grid_weights(opts.sigma_grid)
    base_nodes = 1.0 / gammainccinv(shape, probs)  # IG(shape, 1) quantiles
    log_sig_w = np.log(sig_w)
    inv_e = 1.0 / stats.gram.eigenvalues
    g_nodes, g_weights = _g_nodes_and_weights(post, opts.g_quad)
    log_total = np.full(g_nodes.shape, -np.inf)
    for k, g in enumerate(g_nodes):
        gg = g / (g + 1.0)
        mean = gg * stats.beta_hat + (1.0 - gg) * gamma
        delta = mean - center
        if gg == 0.0:
            log_total[k] = 0.0 if np.max(np.abs(delta)) <= epsilon else -np.inf
            continue
        scale = 0.5 * (post.resid_plus_b + post.quad_form / (g + 1.0))
        sigma2 = scale * base_nodes
        tau_sq_max = gg * sigma2[-1] * inv_e
        active = (epsilon - np.abs(delta)) < _ACTIVE_SET_SIGMAS * np.sqrt(tau_sq_max)
        if not np.any(active):
            log_total[k] = 0.0
            continue
        d = delta[active]
        tau = np.sqrt(gg * np.outer(sigma2, inv_e[active]))
        hi = (epsilon - d) / tau
        lo = (-epsilon - d) / tau
        log_rows = np.sum(_log_interval_prob(hi, lo), axis=1)
        log_total[k] = log_sum_exp(log_sig_w + log_rows)
    with np.errstate(divide="ignore"):
        log_inside = log_sum_exp(np.log(g_weights) + log_total)
    # exceedance = 1 - P(inside); expm1 keeps precision when P(inside) ~ 1
    return max(0.0, -math.expm1(min(log_inside, 0.0)))


def _mc_ball_probability(
    post: GPosterior,
    stats: SufficientStats,
    gamma: np.ndarray,
    center: np.ndarray,
    epsilon: float,
    opts: BallOptions,
    rng: RngStream,
):
    shape = 0.5 * (stats.n + post.a - 2.0)
    root_e = np.sqrt(stats.gram.eigenvalues)
    exceed = 0
    total = opts.mc_draws
    batch = max(1, min(total, int(2e7 / max(stats.p, 1))))
    done = 0
    while done < total:
        m = min(batch, total - done)
        g = np.asarray(post.sample_g(rng, m))
        gg = g / (g + 1.0)
        scale = 0.5 * (post.resid_plus_b + post.quad_form / (g + 1.0))
        sigma2 = rng.inverse_gamma(shape, scale, m)
        z = rng.standard_normal((m, stats.p)) / root_e
        if stats.gram.q is not None:
            z = z @ stats.gram.q.T
        beta = (
            gg[:, None] * stats.beta_hat
            + (1.0 - gg)[:, None] * gamma
            + np.sqrt(gg * sigma2)[:, None] * z
        )
        exceed += int(np.count_nonzero(np.max(np.abs(beta - center), axis=1) > epsilon))
        done += m
    value = exceed / total
    se = math.sqrt(value * (1.0 - value) / total)
    return value, se


def sup_ball_probability(
    post: GPosterior,
    stats: SufficientStats,
    gamma: np.ndarray,
    center: np.ndarray,
    epsilon: float,
    options: Optional[BallOptions] = None,
    rng: Optional[RngStream] = None,
) -> BallProbability:
    """Posterior probability that max_i |beta_i - center_i| > epsilon.

    This is the complement of the closed sup-norm ball of radius epsilon
    around ``center``: nonincreasing in epsilon, equal to 1 at epsilon = 0
    whenever the posterior of beta is continuous.  Marginalizes beta over
    sigma^2 and over the g-posterior ``post``.  The 'exact' route needs an
    axis-aligned design; the 'mc' route needs an ``rng``.  'auto' picks
    exact when available.
    """
    opts = options or BallOptions()
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    gamma = np.asarray(gamma, dtype=float)
    center = np.asarray(center, dtype=float)
    if gamma.shape != (stats.p,) or center.shape != (stats.p,):
        raise ValueError("gamma and center must have shape (p,)")
    method = opts.method
    if method == "auto":
        method = "exact" if stats.gram.q is None else "mc"
    if method == "exact":
        value = _exact_ball_probability(post, stats, gamma, center, epsilon, opts)
        return BallProbability(epsilon=epsilon, value=value, method="exact", std_error=None)
    if rng is None:
        raise ValueError("the mc route requires an rng")
    value, se = _mc_ball_probability(post, stats, gamma, center, epsilon, opts, rng)
    return BallProbability(epsilon=epsilon, value=value, method="mc", std_error=se)
