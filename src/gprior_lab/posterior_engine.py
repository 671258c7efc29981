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
(g, sigma^2, beta) once and counts, for every radius, the draws whose sup
distance exceeds it.  The routes share no code path beyond the
conditional laws above, so each validates the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from scipy.special import gammainccinv, ndtr

from .numerics import RngStream, inverse_gamma_cdf, inverse_gamma_quantile, log_sum_exp
from .g_regimes import GPosterior
from .model_core import SufficientStats

__all__ = [
    "Sigma2Posterior",
    "BallOptions",
    "BallProbability",
    "sup_ball_probability",
]

# coordinates whose worst-case interval miss is below ~2*Phi(-8.5) < 2e-17
# contribute nothing at double precision and are skipped in the exact route
_ACTIVE_SET_SIGMAS = 8.5

# elements of one (draws x p) Monte Carlo batch array: 2**22 float64s is
# 32 MB whatever p is, and the batch size depends on p alone, so the draws
# (and the estimates) do not depend on the thread count or the eps grid
_MC_BATCH_ELEMENTS = 2**22


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
    """Evaluated ball-exceedance probabilities P(sup distance > eps).

    epsilon, value and std_error are floats for a scalar radius and 1-D
    arrays of one length for a grid of radii.  std_error is None for the
    exact route and the Wilson-score standard error for the mc route."""

    epsilon: Union[float, np.ndarray]
    value: Union[float, np.ndarray]
    method: str
    std_error: Union[float, np.ndarray, None] = None


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


def _log_interval_prob(hi: np.ndarray, lo: np.ndarray, scratch=None) -> np.ndarray:
    """log(Phi(hi) - Phi(lo)) elementwise, stable in both tails.

    ``scratch``, if given, is an array of shape (3,) + hi.shape that takes
    the two tail masses and the result, so a caller looping over blocks of
    one shape allocates nothing; the result is a view of it."""
    if scratch is None:
        scratch = np.empty((3,) + np.shape(hi))
    below, above, out = scratch[0, ...], scratch[1, ...], scratch[2, ...]
    ndtr(lo, out=below)
    ndtr(np.negative(hi, out=above), out=above)
    miss = np.add(below, above, out=out)
    # small masses are differences of lower tails, where ndtr is relatively
    # accurate; reflecting intervals centred above 0 gives [lo, hi] and
    # [-hi, -lo] the same expression.  Only narrow intervals (miss >= 0.5)
    # take this branch, so it is evaluated on that subset alone.
    far = miss >= 0.5
    lo_far, hi_far = lo[far], hi[far]
    upper = lo_far > -hi_far
    near = np.where(upper, above[far], below[far])
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.log(ndtr(np.where(upper, -lo_far, hi_far)) - near)
        np.log1p(np.negative(miss, out=out), out=out)  # exact when the two-tail miss is small
    out[far] = tail
    return out


def _exact_ball_probabilities(
    post: GPosterior,
    stats: SufficientStats,
    gamma: np.ndarray,
    center: np.ndarray,
    eps: np.ndarray,
    opts: BallOptions,
) -> np.ndarray:
    """Exceedance at every radius eps[j] in one pass over the g-nodes."""
    if stats.gram.q is not None:
        raise ValueError("exact route requires an axis-aligned gram spectrum (q is None)")
    shape = 0.5 * (stats.n + post.a - 2.0)
    probs, sig_w = _sigma_grid_weights(opts.sigma_grid)
    base_nodes = 1.0 / gammainccinv(shape, probs)  # IG(shape, 1) quantiles
    log_sig_w = np.log(sig_w)
    inv_e = 1.0 / stats.gram.eigenvalues
    g_nodes, g_weights = _g_nodes_and_weights(post, opts.g_quad)
    # log P(inside | g-node) per radius; a node with no active coordinate is 0
    log_total = np.zeros((eps.size, g_nodes.size))
    # hi, lo and the kernel's scratch (two tails, result), reused throughout;
    # the result slot holds tau until the kernel overwrites it
    buffers = np.empty((5, opts.sigma_grid * stats.p))
    for k, g in enumerate(g_nodes):
        gg = g / (g + 1.0)
        mean = gg * stats.beta_hat + (1.0 - gg) * gamma
        delta = mean - center
        abs_delta = np.abs(delta)
        if gg == 0.0:
            log_total[np.max(abs_delta) > eps, k] = -np.inf
            continue
        scale = 0.5 * (post.resid_plus_b + post.quad_form / (g + 1.0))
        sigma2 = scale * base_nodes
        reach = _ACTIVE_SET_SIGMAS * np.sqrt(gg * sigma2[-1] * inv_e)
        for j, epsilon in enumerate(eps):
            active = (epsilon - abs_delta) < reach
            m = np.count_nonzero(active)
            if m == 0:
                continue
            d = delta[active]
            work = buffers[:, : opts.sigma_grid * m].reshape(5, opts.sigma_grid, m)
            hi, lo, tau = work[0], work[1], work[4]
            np.multiply.outer(sigma2, inv_e[active], out=tau)
            np.sqrt(np.multiply(gg, tau, out=tau), out=tau)
            np.divide(epsilon - d, tau, out=hi)
            np.divide(-epsilon - d, tau, out=lo)
            log_rows = np.sum(_log_interval_prob(hi, lo, work[2:]), axis=1)
            log_total[j, k] = log_sum_exp(log_sig_w + log_rows)
    with np.errstate(divide="ignore"):
        log_g_w = np.log(g_weights)
    # exceedance = 1 - P(inside); expm1 keeps precision when P(inside) ~ 1
    log_inside = [min(log_sum_exp(log_g_w + row), 0.0) for row in log_total]
    return np.array([max(0.0, -math.expm1(x)) for x in log_inside])


def _mc_exceedances(
    post: GPosterior,
    stats: SufficientStats,
    gamma: np.ndarray,
    center: np.ndarray,
    eps: np.ndarray,
    opts: BallOptions,
    rng: RngStream,
) -> np.ndarray:
    """Draw opts.mc_draws (g, sigma^2, beta) samples and count, for each
    radius eps[k], the draws with max_i |beta_i - center_i| > eps[k]."""
    shape = 0.5 * (stats.n + post.a - 2.0)
    total, p = opts.mc_draws, stats.p
    batch = max(1, min(total, _MC_BATCH_ELEMENTS // max(p, 1)))
    # z / sqrt(eigenvalues), rotated back by q, has covariance (X'X)^{-1}
    inv_root_e = 1.0 / np.sqrt(stats.gram.eigenvalues)
    mix = None if stats.gram.q is None else stats.gram.q.T * inv_root_e[:, None]
    # beta - center = (gamma - center) + gg (beta_hat - gamma) + sqrt(gg sigma^2) noise
    offset = gamma - center
    shift = stats.beta_hat - gamma
    buffers = np.empty((2, batch, p))
    exceed = np.zeros(eps.shape, dtype=np.int64)
    for done in range(0, total, batch):
        m = min(batch, total - done)
        g = np.asarray(post.sample_g(rng, m))
        gg = g / (g + 1.0)
        scale = 0.5 * (post.resid_plus_b + post.quad_form / (g + 1.0))
        sigma2 = rng.inverse_gamma(shape, scale, m)
        dev, scratch = buffers[0, :m], buffers[1, :m]
        rng.generator.standard_normal(out=dev)
        if mix is None:
            dev *= inv_root_e
        else:
            dev, scratch = np.matmul(dev, mix, out=scratch), dev
        dev *= np.sqrt(gg * sigma2)[:, None]
        dev += np.multiply(gg[:, None], shift, out=scratch)
        dev += offset
        dist = np.max(np.abs(dev, out=dev), axis=1)
        exceed += np.count_nonzero(dist[:, None] > eps, axis=0)
    return exceed


def _wilson_std_error(value: np.ndarray, draws: int) -> np.ndarray:
    """Half-width of the one-sigma (z = 1) Wilson score interval:
    sqrt(p(1-p)/N + 1/(4N^2)) / (1 + 1/N).  Unlike the binomial
    sqrt(p(1-p)/N) it stays positive at p = 0 and p = 1, where it is
    1/(2(N+1))."""
    return np.sqrt(value * (1.0 - value) / draws + 0.25 / draws**2) / (1.0 + 1.0 / draws)


def sup_ball_probability(
    post: GPosterior,
    stats: SufficientStats,
    gamma: np.ndarray,
    center: np.ndarray,
    epsilon,
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

    ``epsilon`` is a float or a 1-D array of radii; for an array the
    result holds arrays of the same length.  The mc route draws one
    sample per call and scores every radius on it, so its estimates are
    nonincreasing in epsilon and each one is the same whatever other
    radii the call holds.
    """
    opts = options or BallOptions()
    scalar = np.ndim(epsilon) == 0
    eps = np.array(epsilon, dtype=float, ndmin=1)
    if eps.ndim != 1:
        raise ValueError("epsilon must be a float or a 1-D array")
    if np.any(eps < 0):
        raise ValueError("epsilon must be >= 0")
    gamma = np.asarray(gamma, dtype=float)
    center = np.asarray(center, dtype=float)
    if gamma.shape != (stats.p,) or center.shape != (stats.p,):
        raise ValueError("gamma and center must have shape (p,)")
    method = opts.method
    if method == "auto":
        method = "exact" if stats.gram.q is None else "mc"
    if method == "exact":
        value = _exact_ball_probabilities(post, stats, gamma, center, eps, opts)
        se = None
    else:
        if rng is None:
            raise ValueError("the mc route requires an rng")
        value = _mc_exceedances(post, stats, gamma, center, eps, opts, rng) / opts.mc_draws
        se = _wilson_std_error(value, opts.mc_draws)
    if scalar:
        return BallProbability(
            epsilon=float(eps[0]),
            value=float(value[0]),
            method=method,
            std_error=None if se is None else float(se[0]),
        )
    return BallProbability(epsilon=eps, value=value, method=method, std_error=se)
