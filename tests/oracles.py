"""Test oracles: independent references the suite checks the lab against.

  * log_beta_cdf (a continued-fraction incomplete beta in log space) and
    beta_tail_bound_check, the Beta lower-tail envelope AC5 verifies.  The
    tails lie far below the smallest double, so they exist only in log
    space, which scipy does not offer for the incomplete beta.
  * log_marginal_likelihood_g, the profile that the empirical-Bayes ghat
    maximizes in closed form.
  * shrinkage_spread_stat, the spread control AC9 tracks.
  * offset_norms, the verdict's offset norms from the whole offset vector
    with a correctly rounded sum of squares.
  * simulate_full_stats, sufficient statistics reduced from an explicit
    n x p design and response, a cross-check at moderate n of the lab's
    draws straight from their laws.
  * u_from_g, the map from g to the u-domain the lab's g-posteriors live
    on; the lab itself only maps u back to g.
  * mc_blocks_float64, the MC route's draws reduced to sup distances
    wholly in float64: as the route reduces them on an axis-aligned
    design, and on a rotated one as it reduces a draw near a radius, each
    row rotated on its own.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from gprior_lab.model_core import SufficientStats, design_at
from gprior_lab.numerics import RngStream


# ---------------------------------------------------------------------------
# Beta lower tail


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz).

    Converges for x < (a + 1) / (a + b + 2); the callers switch to the
    reflected parameters on the other side.
    """
    tiny = 1e-300
    eps = 3e-16
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 800):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise RuntimeError(f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}")


def log_beta_cdf(x: float, a: float, b: float) -> float:
    """log P(Beta(a, b) <= x), accurate deep in the lower tail."""
    if a <= 0 or b <= 0:
        raise ValueError("beta parameters must be positive")
    if x <= 0.0:
        return -np.inf
    if x >= 1.0:
        return 0.0
    log_bt = a * math.log(x) + b * math.log1p(-x) - float(_sp.betaln(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return log_bt + math.log(_beta_cf(a, b, x) / a)
    # upper side: 1 - I_{1-x}(b, a), where the complement is not tiny
    return math.log1p(-math.exp(log_bt) * _beta_cf(b, a, 1.0 - x) / b)


@dataclass(frozen=True)
class BetaTailBound:
    log_exact: float
    log_bound: float
    holds: bool

    @property
    def exact(self) -> float:
        return math.exp(self.log_exact) if self.log_exact > -700 else 0.0

    @property
    def bound(self) -> float:
        return math.exp(self.log_bound) if self.log_bound < 700 else math.inf


def beta_tail_bound_check(
    a_n: float, b_n: float, xi: float, alpha: float, n: float | None = None
) -> BetaTailBound:
    """Check the lower-tail envelope P(Z <= xi) <= 4^n * xi^(n(1-alpha)) for
    Z ~ Beta(a_n, b_n) with a_n ~ n(1-alpha), or <= xi^(n/2) when alpha = 0.

    The comparison is done in log space so that astronomically small tails
    are still compared honestly.  ``n`` defaults to the value recovered from
    the a_n / n -> 1 - alpha convention.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must lie in [0, 1)")
    if xi < 0.0:
        raise ValueError("xi must be >= 0")
    if n is None:
        n = a_n / (1.0 - alpha)
    if n <= 0:
        raise ValueError("n must be positive")
    if xi == 0.0:
        return BetaTailBound(log_exact=-np.inf, log_bound=-np.inf, holds=True)
    log_exact = log_beta_cdf(min(xi, 1.0), a_n, b_n)
    if alpha > 0.0:
        log_bound = n * math.log(4.0) + n * (1.0 - alpha) * math.log(xi)
    else:
        log_bound = (n / 2.0) * math.log(xi)
    return BetaTailBound(log_exact=log_exact, log_bound=log_bound, holds=log_exact <= log_bound)


# ---------------------------------------------------------------------------
# marginal likelihood in g


def log_marginal_likelihood_g(g, n: int, p: int, a: float, resid_plus_b: float, quad_form: float):
    """log marginal likelihood of g (up to a g-free constant):

        (n - p + a - 2)/2 * log(g + 1) - (n + a - 2)/2 * log((g + 1)(S + b) + T)
    """
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise ValueError("g must be >= 0")
    out = 0.5 * (n - p + a - 2.0) * np.log1p(g) - 0.5 * (n + a - 2.0) * np.log(
        (g + 1.0) * resid_plus_b + quad_form
    )
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# posterior spread of g


def shrinkage_spread_stat(post, n: int) -> float:
    """n^{-3} quad_form^2 E[g^2 (g+1)^{-4} | data]: the spread control that
    licenses reading consistency off the posterior of g alone."""
    g_nodes, weights = post.quadrature()
    val = float(weights @ ((g_nodes / (g_nodes + 1.0) ** 2) ** 2))
    return post.quad_form**2 * val / float(n) ** 3


# ---------------------------------------------------------------------------
# offset norms


def offset_norms(scenario, n: int) -> tuple:
    """(max|d|, fsum(d*d)) for the whole offset d = gamma - beta0 at n."""
    d = scenario.gamma_at(n) - scenario.beta0_at(n)
    return float(np.max(np.abs(d))), math.fsum(d * d)


# ---------------------------------------------------------------------------
# sufficient statistics from an explicit design


def simulate_full_stats(scenario, n: int, rng: RngStream, gram=None) -> SufficientStats:
    """simulate_stats through an explicit n x p design: an orthonormal
    basis U from the stream keyed (seed, scenario, "design", n, "basis"),
    X = U diag(sqrt(e)) Q', y = X beta0 + sigma0 z, then the least-squares
    reduction of (X, y)."""
    p = scenario.p_at(n)
    if gram is None:
        gram = design_at(scenario, n, rng.master_seed)
    beta0 = scenario.beta0_at(n)
    sigma0 = math.sqrt(scenario.sigma0_sq)
    basis_rng = RngStream(rng.master_seed, (scenario.name, "design", n, "basis"))
    u, r = np.linalg.qr(basis_rng.generator.standard_normal((n, p)))
    u = u * np.sign(np.diag(r))
    root = np.sqrt(gram.eigenvalues)
    x = u * root if gram.q is None else (u * root) @ gram.q.T
    y = x @ beta0 + sigma0 * rng.generator.standard_normal(n)
    uty = u.T @ y
    coef = uty / root
    beta_hat = coef if gram.q is None else gram.q @ coef
    resid = float(y @ y - uty @ uty)
    return SufficientStats(n=n, p=p, beta_hat=beta_hat, resid_ss=max(resid, 0.0), gram=gram)


# ---------------------------------------------------------------------------
# Monte Carlo sup distances in float64


def mc_blocks_float64(post, stats: SufficientStats, gamma, center, mc_draws: int, rng: RngStream, rows: int):
    """Yield (w, s, gg, dist) for each block of ``rows`` MC draws, read
    from ``rng`` as the MC route reads it (the block's g, then its
    sigma^2, then its normals): the rows w = z / sqrt(e) (scaled by
    1/sqrt(e)), s = sqrt(gg sigma^2), gg = g / (g + 1) and the sup
    distances |offset + gg shift + s q w| in float64, with offset = gamma
    - center and shift = beta_hat - gamma: one matrix-vector product q @ w
    per row (none on an axis-aligned design, where q w is w), then the
    scaling, the shift and the offset, in that order."""
    shape = 0.5 * (stats.n + post.a - 2.0)
    inv_root_e = 1.0 / np.sqrt(stats.gram.eigenvalues)
    offset, shift = gamma - center, stats.beta_hat - gamma
    for done in range(0, mc_draws, rows):
        m = min(rows, mc_draws - done)
        g = post.sample_g(rng.generator, m)
        gg = g / (g + 1.0)
        sigma2 = 0.5 * (post.resid_plus_b + post.quad_form / (g + 1.0)) / rng.generator.standard_gamma(shape, m)
        w = rng.generator.standard_normal((m, stats.p)) * inv_root_e
        s = np.sqrt(gg * sigma2)
        noise = w.copy() if stats.gram.q is None else np.array([stats.gram.q @ row for row in w])
        noise *= s[:, None]
        noise += gg[:, None] * shift
        noise += offset
        yield w, s, gg, np.max(np.abs(noise), axis=1)


# ---------------------------------------------------------------------------
# the u <-> g reparameterization


def u_from_g(g, u_floor: float):
    """Map g >= 0 to u = (g + 1) w / ((g + 1) w + 1 - w) in [w, 1), w =
    u_floor: the inverse of g_regimes.g_from_u."""
    g = np.asarray(g, dtype=float)
    w = u_floor
    out = (g + 1.0) * w / ((g + 1.0) * w + (1.0 - w))
    return out if out.ndim else float(out)
