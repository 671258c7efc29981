"""Conditional posteriors and sup-norm ball probabilities.

Given the sufficient statistics, a prior location gamma, and a value of g:

  * sigma^2 | g, data ~ InverseGamma((n + a - 2)/2, scale_total(g)/2)
    with scale_total(g) = S + b + quad_form / (g + 1);
  * beta | g, sigma^2, data ~ N(m(g), (g/(g+1)) sigma^2 (X'X)^{-1})
    with m(g) = (g/(g+1)) beta_hat + (1/(g+1)) gamma.

The headline functional is the posterior probability that beta falls
OUTSIDE the closed sup-norm ball of radius eps around a reference point,
i.e. P(max_i |beta_i - center_i| > eps | data), integrated over sigma^2
and over the posterior of g.  Two routes compute it: a deterministic
'exact' route (axis-aligned designs only) that multiplies per-coordinate
normal interval probabilities in log space, integrates them over a
sigma^2 quantile grid and the g-nodes through nested Chebyshev levels of
log sigma^2 and log g (_exact_ball_probabilities), and complements the
result, and an 'mc' route that samples (g, sigma^2, beta) once and
counts, for every radius, the draws whose sup distance exceeds it.  Given
g the routes share nothing but the conditional laws above, so each checks
the other's sigma^2 and beta integration.  Both read the same GPosterior,
though: exact takes its nodes and weights, mc samples its piecewise-linear
cdf.  A wrong law of g moves both routes alike and their agreement cannot
reveal it.

On a rotated design the mc route rotates its draws in float32 and bounds
each sup distance's rounding error; a draw whose float32 distance lies
within that bound of a radius is decided by its own float64 row, one
matrix-vector product, so each draw's count depends on that draw alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from scipy.special import gammainccinv, ndtr

from .numerics import RngStream, log_sum_exp
from .g_regimes import GPosterior
from .model_core import SufficientStats

__all__ = [
    "BallOptions",
    "BallProbability",
    "sup_ball_probability",
]

# coordinates whose worst-case interval miss is below ~2*Phi(-8.5) < 2e-17
# contribute nothing at double precision and are skipped in the exact route
_ACTIVE_SET_SIGMAS = 8.5

# g-nodes whose weight is below _SKIP_MASS / nodes are left out of the exact
# route: at any radius they hold less than 2**-60 ~ 8.7e-19 of P(inside)
# together, far below the ~1e-16 rounding of the log-space sum
_SKIP_MASS = 2.0**-60

# Chebyshev-Lobatto levels of log sigma^2 for a (g value, radius) row, the
# sum over coordinates of the log interval mass.  The row is analytic in
# log sigma^2 and every g value's sigma^2 nodes are one grid scaled by a
# constant, so one span serves every row; the levels give exceedances
# within 8.9e-16 of the whole grid's on the shipped scenarios (README
# "Performance notes").  A row's estimate is its last three Chebyshev
# coefficients' magnitudes times its largest P(inside | sigma^2): the row
# enters P(inside | g) through exp, with weights summing to 1, so that
# bounds how far its error moves P(inside | g).  P(inside) itself is not
# known until every row is decided
_SIGMA_LEVELS = (9, 17)

# Chebyshev-Lobatto levels of log g for log P(inside | g) at a radius, over
# the g-nodes with an active coordinate.  It is analytic in log g; the
# levels give exceedances within 2.4e-13 of every node's on the shipped
# scenarios (README "Performance notes").  A radius's estimate is the last
# three Chebyshev coefficients' magnitudes times P(inside): the nodes enter
# P(inside) through exp, weighted, so that scales the interpolant's error
# to the exceedance's
_G_LEVELS = (9, 17, 33, 65)

# the error estimate at which both axes keep a level
_LEVEL_TOLERANCE = 1e-11

# elements of one (draws x p) block of Monte Carlo normals.  A cell's
# stream is read block by block, each block's g, then its sigma^2, then
# its normals, so the block of max(1, min(mc_draws, this // p)) draws
# defines the draws; it depends on p and mc_draws alone, so the estimates
# do not depend on the thread count or the eps grid.  Two 2 MB block
# buffers are the route's whole working set at any p: the first holds the
# float64 normals, the second a rotated block's float32 rows and their
# rotation through the design's float32 basis, shared by every cell at
# that n and never copied per cell (a traced call peaks at 4.2 MiB at p =
# 400, 800 and 1600).
# 2**18 keeps at least 64 rows per GEMM up to p = 4096.  On one thread at
# p = 800 (EB, rotated, 20,000 draws) a call took a median 0.60 s, against
# 0.63-0.66 s at 2**17, 0.61-0.64 s at 2**16, 0.71 s at 2**15 and 0.54-0.58
# s at 2**19 (0.81 s at 2**18 with the rotation in float64); the size
# defines the draws, so it is not changed for a few percent
_MC_BLOCK_ELEMENTS = 2**18

# elements of one (g values x first level's sigma^2 points x p) block of
# the exact route: a block of max(1, this // (points x p)) g values shares
# one kernel call per radius and level, and five block-sized buffers (hi,
# lo and the kernel's three scratch slots) are its working set.  The block
# size changes no bit.  On perfbench's cli_defaults (two threads, eight
# alternating pairs of 20 s runs on a 2-vCPU VM) 2**15 ran a median 79.7
# cells/s (quartiles 76.3-83.5) at 66.6 MB peak RSS, against 82.2
# (79.5-85.0) at 66.7 MB at 2**16, whose buffers take 2.5 MiB; 2**16 was
# faster in 5 of the 8 pairs, within the noise
_EXACT_BLOCK_ELEMENTS = 2**15


# ---------------------------------------------------------------------------
# sup-norm ball probabilities


@dataclass(frozen=True)
class BallOptions:
    """Knobs for sup_ball_probability.

    method: 'auto' (exact when the design is axis-aligned, else mc),
    'exact', or 'mc'.  mc_draws is the Monte Carlo sample size; sigma_grid
    the number of sigma^2 quantile nodes of the exact route's rule (its
    integrand is evaluated at 9 or 17 Chebyshev points of log sigma^2 and
    interpolated onto them, or on the nodes themselves); g_quad, if set,
    subsamples the g-posterior to that many equal-weight quantile nodes
    instead of using its full grid.
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
    """Evaluated ball-exceedance probabilities P(sup distance > eps), one
    per radius of the call.  std_error is None for the exact route and the
    Wilson-score standard error for the mc route."""

    value: np.ndarray
    method: str
    std_error: Optional[np.ndarray] = None


def _g_nodes_and_weights(post: GPosterior, g_quad: Optional[int]):
    if post.is_point or g_quad is None:
        return post.quadrature()
    return post.quantile_g((np.arange(g_quad) + 0.5) / g_quad), np.full(g_quad, 1.0 / g_quad)


def _barycentric_matrix(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The (x.size x t.size) matrix that maps values at the Chebyshev-Lobatto
    points ``t`` to the polynomial through them at ``x``; a row whose x is
    one of the points picks that point's value."""
    w = (-1.0) ** np.arange(t.size)
    w[[0, -1]] *= 0.5
    interp = np.subtract.outer(x, t)
    hit = interp == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(w, interp, out=interp)
        interp /= np.sum(interp, axis=1, keepdims=True)
    on_node = np.any(hit, axis=1)
    interp[on_node] = hit[on_node]
    return interp


@functools.cache
def _tail_weights(m: int) -> np.ndarray:
    """The (3 x m) matrix that maps values at m Chebyshev-Lobatto points to
    the last three Chebyshev coefficients of the polynomial through them
    (a discrete cosine transform of type I), shared read-only by every
    caller."""
    c = np.cos(np.pi * np.outer(np.arange(m - 3, m), np.arange(m)) / (m - 1))
    c[:, [0, -1]] *= 0.5
    c *= 2.0 / (m - 1)
    c[-1] *= 0.5
    c.flags.writeable = False
    return c


def _chebyshev_tail(values: np.ndarray) -> np.ndarray:
    """|c_{m-3}| + |c_{m-2}| + |c_{m-1}| for each row of ``values`` (m
    values at m Chebyshev-Lobatto points).  Each row's products are summed
    on their own, so its tail does not depend on the other rows."""
    return np.sum(np.abs(np.sum(values[..., None, :] * _tail_weights(values.shape[-1]), axis=-1)), axis=-1)


def _levels(nodes: np.ndarray, counts: tuple):
    """Yield (points, matrix) for each level m of ``counts`` with fewer
    points than the ascending positive ``nodes``, as the walk asks for it:
    the m Chebyshev-Lobatto points of the nodes' log span, whose first and
    last are the end nodes bit for bit, and the (nodes x m) barycentric
    matrix that interpolates a polynomial of the log through them onto the
    nodes.  Where each count is twice the previous one less one, a level's
    points are the next level's even-index points bit for bit."""
    x = np.log(nodes)
    for m in counts:
        if m >= nodes.size:
            return
        t = 0.5 * (x[0] + x[-1]) - 0.5 * (x[-1] - x[0]) * np.cos(np.pi * np.arange(m) / (m - 1))
        t[0], t[-1] = x[0], x[-1]
        points = np.exp(t)
        points[[0, -1]] = nodes[[0, -1]]
        yield points, _barycentric_matrix(x, t)


def _refine(values, points: np.ndarray, evaluate) -> np.ndarray:
    """Values along the last axis at a level's ``points``: ``evaluate``'s at
    every point on the first level (``values`` None), else the previous
    level's ``values`` at the even-index points and ``evaluate``'s at the
    odd-index ones."""
    if values is None:
        return evaluate(points)
    finer = np.empty(values.shape[:-1] + points.shape)
    finer[..., ::2] = values
    finer[..., 1::2] = evaluate(points[1::2])
    return finer


def _block_log_values(epsilon: np.ndarray, d: np.ndarray, sd: np.ndarray, work: np.ndarray) -> np.ndarray:
    """log P(|d_i + sd_i Z| <= eps) for a block of (g-node, radius) rows:
    epsilon has shape (rows,), d (rows, m), sd (rows, sigma^2 nodes, m);
    ``work`` has shape (5,) + sd.shape and sd may be its last slot, which
    the kernel overwrites."""
    hi, lo = work[0], work[1]
    np.divide((epsilon[:, None] - d)[:, None, :], sd, out=hi)
    np.divide((-epsilon[:, None] - d)[:, None, :], sd, out=lo)
    return _log_interval_prob(hi, lo, work[2:])


def _log_interval_prob(hi: np.ndarray, lo: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """log(Phi(hi) - Phi(lo)) elementwise, stable in both tails.

    ``scratch`` is an array of shape (3,) + hi.shape that takes the two
    tail masses and the result, so a caller looping over blocks of one
    shape allocates nothing; the result is a view of it."""
    below, above, out = scratch[0, ...], scratch[1, ...], scratch[2, ...]
    ndtr(lo, out=below)
    ndtr(np.negative(hi, out=above), out=above)
    miss = np.add(below, above, out=out)
    # small masses are differences of lower tails, where ndtr is relatively
    # accurate; reflecting intervals centred above 0 gives [lo, hi] and
    # [-hi, -lo] the same expression.  Only narrow intervals (miss >= 0.5)
    # take this branch, so it is evaluated on that subset alone, if any.
    far = np.flatnonzero(miss >= 0.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        if far.size:
            lo_far, hi_far = np.take(lo, far), np.take(hi, far)
            upper = lo_far > -hi_far
            near = np.where(upper, np.take(above, far), np.take(below, far))
            tail = np.log(ndtr(np.where(upper, -lo_far, hi_far)) - near)
        np.log1p(np.negative(miss, out=out), out=out)  # exact when the two-tail miss is small
    if far.size:
        np.put(out, far, tail)
    return out


def _exact_ball_probabilities(
    post: GPosterior,
    stats: SufficientStats,
    gamma: np.ndarray,
    center: np.ndarray,
    eps: np.ndarray,
    opts: BallOptions,
) -> np.ndarray:
    """Exceedance at every radius eps[j] from log P(inside | g) at the g-nodes.

    Nodes whose weight is below _SKIP_MASS / nodes are left out (log
    P(inside | g_k) = -inf); a node with no active coordinate at a radius
    has log P(inside | g_k) = 0 there, and a radius at which every node
    left in has it gives exceedance 0 exactly.

    Both integrals walk nested Chebyshev levels the same way: log g at each
    radius over the span of the nodes with an active coordinate
    (_G_LEVELS), log sigma^2 for each (g value, radius) row over the grid
    (_SIGMA_LEVELS).  _levels builds each level with fewer points than the
    nodes; a level evaluates only the midpoints the previous one lacks,
    and its values are interpolated onto the nodes.  A walk keeps the
    first level whose values are finite and whose error estimate (the
    constants say which) is at most _LEVEL_TOLERANCE, and stops at a
    non-finite value, since no polynomial passes through it and every
    finer level shares the point.  A walk that keeps no level, for either
    reason, has one exit, to the nodes themselves: a sigma^2 row that no
    level marks done is evaluated on the whole grid, and a radius's nodes
    stay missed, and every missed (radius, g-node) pair takes one call of
    log_p_inside, which gives log P(inside | g) for (g value, radius) rows
    (a one-node posterior's radii all take that call).  Each radius is
    decided on its own, so a one-radius call gives the bits of a grid
    call.

    log_p_inside takes its rows in blocks of max(1,
    _EXACT_BLOCK_ELEMENTS // (first level's sigma^2 points x p)) and walks
    a block's rows together, one kernel run per level for the rows still
    walking.  Every kernel run covers the union of its rows' active
    coordinates, with the conditional sds of just those rows and
    coordinates, but each row's sum runs over its own active coordinates
    in their order and each row is decided from its own values, as in a
    one-row block, so no bit depends on the block a row falls in.
    """
    if stats.gram.q is not None:
        raise ValueError("exact route requires an axis-aligned gram spectrum (q is None)")
    shape = 0.5 * (stats.n + post.a - 2.0)
    # equal-mass quantile midpoints: evaluating each probability bin at its
    # edge instead of its midpoint biases small exceedances upward, because
    # the top bin would be represented by a near-extreme sigma^2 quantile
    m = opts.sigma_grid
    base_nodes = 1.0 / gammainccinv(shape, (np.arange(m) + 0.5) / m)  # IG(shape, 1) quantiles, ascending
    levels = list(_levels(base_nodes, _SIGMA_LEVELS))
    log_sig_w = np.log(np.full(m, 1.0 / m))
    inv_e = 1.0 / stats.gram.eigenvalues
    g_nodes, g_weights = _g_nodes_and_weights(post, opts.g_quad)
    with np.errstate(divide="ignore"):
        log_g_w = np.log(g_weights)
    skip_below = math.log(_SKIP_MASS / g_nodes.size)
    # a block's first kernel run evaluates the first level's points, or the
    # grid where no level is tried
    s, p = (levels[0][0] if levels else base_nodes).size, stats.p
    block = max(1, _EXACT_BLOCK_ELEMENTS // (s * p))
    # reused by every kernel run that fits them: hi, lo and the kernel's
    # scratch (two tails, result), where the result slot holds the
    # conditional sds until the kernel overwrites it
    buffers = np.empty(5 * s * block * p)

    def geometry(g, radii):
        # the active mask: coordinate i is active at a radius when beta_i's
        # mean lies outside the ball or within _ACTIVE_SET_SIGMAS
        # conditional sds, at the largest sigma^2 node, of its edge
        gg = g / (g + 1.0)
        delta = gg[:, None] * stats.beta_hat + (1.0 - gg)[:, None] * gamma - center
        scale = 0.5 * (post.resid_plus_b + post.quad_form / (g + 1.0))
        reach = _ACTIVE_SET_SIGMAS * np.sqrt(gg[:, None] * (scale * base_nodes[-1])[:, None] * inv_e)
        return gg, delta, scale, (radii[..., None] - np.abs(delta)) < reach

    def rows_at(epsilon, gg, delta, scale, act, nodes):
        # (rows x nodes): each (g value, radius) row's sum over its own
        # active coordinates (its row of act) of the log interval mass at
        # the sigma^2 nodes, one kernel run per chunk of rows that fits the
        # buffers (a lone row too large for them gets its own), over the
        # union of the chunk's active coordinates
        rows = np.empty((gg.size, nodes.size))
        per = max(1, buffers.size // (5 * nodes.size * p))
        for start in range(0, gg.size, per):
            chunk = slice(start, start + per)
            own = np.count_nonzero(act[chunk], axis=1)
            cols = slice(None) if np.max(own) == p else np.flatnonzero(np.any(act[chunk], axis=0))
            inv_e_cols = inv_e[cols]
            dims = (5, own.size, nodes.size, inv_e_cols.size)
            size = math.prod(dims)
            work = (buffers[:size] if size <= buffers.size else np.empty(size)).reshape(dims)
            sd = np.multiply(np.multiply.outer(scale[chunk], nodes)[:, :, None], inv_e_cols, out=work[4])
            np.sqrt(np.multiply(gg[chunk, None, None], sd, out=sd), out=sd)
            values = _block_log_values(epsilon[chunk], delta[chunk][:, cols], sd, work)
            rows[chunk] = np.sum(values, axis=2)
            for i in np.flatnonzero(own < inv_e_cols.size):
                rows[start + i] = np.sum(np.take(values[i], np.flatnonzero(act[start + i][cols]), axis=1), axis=1)
        return rows

    def grid_rows(*row):
        # each (g value, radius) row on the grid, from the first level that
        # keeps it: the rows still walking carry their row arrays, and a
        # row no level marks done is evaluated on the grid itself
        rows = np.empty((row[0].size, base_nodes.size))
        done = np.zeros(row[0].size, dtype=bool)
        todo, walking, values = np.arange(row[0].size), row, None
        for points, interp in levels:
            values = _refine(values, points, functools.partial(rows_at, *walking))
            finite = np.all(np.isfinite(values), axis=1)
            keep, checked = finite.copy(), values[finite]
            keep[finite] = _chebyshev_tail(checked) * np.exp(np.max(checked, axis=1)) <= _LEVEL_TOLERANCE
            # one matrix-vector product per row, as for a one-row block
            rows[todo[keep]] = np.matmul(interp, values[keep][:, :, None])[:, :, 0]
            done[todo[keep]] = True
            stay = finite & ~keep
            if not stay.any():
                break
            todo, values, walking = todo[stay], values[stay], [a[stay] for a in walking]
        grid = np.flatnonzero(~done)
        if grid.size:
            rows[grid] = rows_at(*(a[grid] for a in row), base_nodes)
        return rows

    def log_p_inside(g_values, epsilon):
        # log P(inside | g) for each g > 0 of g_values at its radius, one
        # of epsilon (a radius for all, or one per g value)
        epsilon = np.broadcast_to(epsilon, g_values.shape)
        out = np.zeros(g_values.size)
        for start in range(0, g_values.size, block):
            radii = epsilon[start : start + block]
            gg, delta, scale, active = geometry(g_values[start : start + block], radii)
            run = np.flatnonzero(np.any(active, axis=1))
            if run.size == 0:
                continue
            # views, not copies, where every g value takes part
            sel = slice(None) if run.size == gg.size else run
            rows = grid_rows(radii[sel], gg[sel], delta[sel], scale[sel], active[sel])
            out[start : start + block][sel] = log_sum_exp(log_sig_w + rows, axis=1)
        return out

    # log P(inside | g-node) per radius; at g = 0 beta sits at gamma
    log_total = np.zeros((eps.size, g_nodes.size))
    log_total[:, log_g_w < skip_below] = -np.inf
    live = np.flatnonzero(log_g_w >= skip_below)
    log_total[np.ix_(np.max(np.abs(gamma - center)) > eps, live[g_nodes[live] == 0.0])] = -np.inf
    positive = live[g_nodes[live] > 0.0]
    some = np.empty((eps.size, positive.size), dtype=bool)
    for start in range(0, positive.size, block):
        active = geometry(g_nodes[positive[start : start + block]], eps[:, None])[3]
        some[:, start : start + block] = np.any(active, axis=2)

    # each radius walks the log g levels over its nodes with an active
    # coordinate; its nodes stay missed unless a level is kept, and every
    # missed (radius, node) pair, a point-mass posterior's among them,
    # takes one call
    missed = some.copy()
    for j in range(eps.size):
        run, values = positive[some[j]], None
        for points, interp in _levels(g_nodes[run], _G_LEVELS):
            values = _refine(values, points, functools.partial(log_p_inside, epsilon=eps[j]))
            if not np.all(np.isfinite(values)):
                break
            log_total[j, run] = interp @ values
            if _chebyshev_tail(values) * math.exp(log_sum_exp(log_g_w + log_total[j])) <= _LEVEL_TOLERANCE:
                missed[j] = False
                break
    radius_of, node_of = np.nonzero(missed)
    log_total[radius_of, positive[node_of]] = log_p_inside(g_nodes[positive[node_of]], eps[radius_of])
    # exceedance = 1 - P(inside); expm1 keeps precision when P(inside) ~ 1,
    # and a radius that no live node can miss is inside whatever the
    # rounding of the weights' sum
    log_inside = np.minimum(log_sum_exp(log_g_w + log_total, axis=1), 0.0)
    log_inside[np.all(log_total[:, live] == 0.0, axis=1)] = 0.0
    return np.array([max(0.0, -math.expm1(x)) for x in log_inside])


def _sup_distances(dev, scratch, s, gg, shift, offset) -> np.ndarray:
    """Row maxima of |offset + gg shift + s dev| for a block of rows dev
    of beta's noise: dev is scaled by s in place, then takes gg shift
    (formed in ``scratch``) and offset, each step rounded to dev's dtype.
    Overwrites dev and scratch."""
    dtype = dev.dtype
    dev *= s.astype(dtype, copy=False)[:, None]
    dev += np.multiply(gg.astype(dtype, copy=False)[:, None], shift.astype(dtype, copy=False), out=scratch)
    dev += offset.astype(dtype, copy=False)
    return np.max(np.abs(dev, out=dev), axis=1)


def _rotated_distances_f32(dev, qt32, s, gg, shift, offset, work):
    """The sup distances _sup_distances gives for dev @ q.T, computed in
    float32 through qt32 (q.T in float32), and for each row w of dev a
    bound on its distance from the exact one.  ``work`` is a float32 array
    of shape (2,) + dev.shape; dev is left as it is.

    With u = 2**-24, rounding q and w (to float32) and their product
    (Higham 2002, section 3.1, in any summation order) moves row i of q w
    by at most (p + 2) u ||w||_2, since ||q_i||_2 = 1; scaling by s adds 2
    u s ||w||_2, the shift 3 u gg |shift_i| for its product and u (s
    ||w||_2 + gg |shift_i|) for the sum, and the offset u |offset_i| for
    its rounding and u times the distance for the sum.  Each coefficient
    below is one more than that and the sum is divided by 1 - (p + 8) u:
    that covers the higher-order terms, a float64 row's own rounding
    (the same form with 2**-53), the norm, the bound's own arithmetic and
    its comparison with a radius.  The last term covers products that
    underflow, even where they are flushed to zero."""
    w, qw = work
    np.copyto(w, dev, casting="same_kind")
    dist = _sup_distances(np.matmul(w, qt32, out=qw), w, s, gg, shift, offset).astype(float)
    p, unit = dev.shape[1], 2.0**-24
    norm = np.sqrt(np.einsum("ij,ij->i", dev, dev))
    shift_max, offset_max = np.max(np.abs(shift)), np.max(np.abs(offset))
    bound = unit * ((p + 6) * s * norm + 5 * gg * shift_max + 2 * offset_max + 2 * dist) / (1.0 - (p + 8) * unit)
    return dist, bound + 2.0**-120 * (1.0 + p * s + norm + shift_max)


def _clear_of(dist, eps, bound) -> np.ndarray:
    """Whether each distance lies more than its bound from every radius (a
    NaN does not)."""
    return np.all(np.abs(eps[:, None] - dist) > bound, axis=0)


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
    radius eps[k], the draws with max_i |beta_i - center_i| > eps[k].

    The draws come in blocks of max(1, min(mc_draws, _MC_BLOCK_ELEMENTS //
    p)): each block draws its g, then its sigma^2, then its normals, and is
    reduced to its counts before the next block is drawn.  A rotated
    block is rotated and reduced in float32.  A draw whose float32
    distance lies within its error bound of a radius is reduced again from
    its own float64 row q @ w, so its count depends on that draw alone and
    is the one a float64 product of that row gives."""
    shape = 0.5 * (stats.n + post.a - 2.0)
    total, p = opts.mc_draws, stats.p
    rows = max(1, min(total, _MC_BLOCK_ELEMENTS // p))
    # z / sqrt(eigenvalues), rotated back by q, has covariance (X'X)^{-1}
    inv_root_e = 1.0 / np.sqrt(stats.gram.eigenvalues)
    q = stats.gram.q
    # beta - center = (gamma - center) + gg (beta_hat - gamma) + sqrt(gg sigma^2) noise
    offset = gamma - center
    shift = stats.beta_hat - gamma
    buffers = np.empty((2, rows, p))
    # the float32 rows and their rotation share the second buffer
    halves = buffers[1].view(np.float32).reshape(2, rows, p)
    exceed = np.zeros(eps.shape, dtype=np.int64)
    for done in range(0, total, rows):
        m = min(rows, total - done)
        g = post.sample_g(rng.generator, m)
        gg = g / (g + 1.0)
        scale = 0.5 * (post.resid_plus_b + post.quad_form / (g + 1.0))
        sigma2 = scale / rng.generator.standard_gamma(shape, m)  # InverseGamma(shape, scale)
        s = np.sqrt(gg * sigma2)
        dev, scratch = buffers[0, :m], buffers[1, :m]
        rng.generator.standard_normal(out=dev)
        dev *= inv_root_e
        if q is None:
            dist = _sup_distances(dev, scratch, s, gg, shift, offset)
        else:
            dist, guard = _rotated_distances_f32(dev, stats.gram.qt32, s, gg, shift, offset, halves[:, :m])
            for i in np.flatnonzero(~_clear_of(dist, eps, guard)):
                # a draw near a radius, decided by its own float64 row q z /
                # sqrt(e), one matrix-vector product whatever the block holds
                row = (q @ dev[i])[None]
                dist[i] = _sup_distances(row, np.empty_like(row), s[i : i + 1], gg[i : i + 1], shift, offset)[0]
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
    epsilon: np.ndarray,
    options: Optional[BallOptions] = None,
    rng: Optional[RngStream] = None,
) -> BallProbability:
    """Posterior probability that max_i |beta_i - center_i| > eps, at
    every radius eps of the 1-D array ``epsilon``.

    This is the complement of the closed sup-norm ball of radius eps
    around ``center``: nonincreasing in eps, equal to 1 at eps = 0
    whenever the posterior of beta is continuous.  Marginalizes beta over
    sigma^2 and over the g-posterior ``post``.  The 'exact' route needs an
    axis-aligned design; the 'mc' route needs an ``rng``.  'auto' picks
    exact when available.

    The result holds arrays of the length of ``epsilon``.  The mc route
    draws one sample per call and scores every radius on it, so its
    estimates are nonincreasing in eps and each one is the same whatever
    other radii the call holds.
    """
    opts = options or BallOptions()
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim != 1:
        raise ValueError("epsilon must be a 1-D array of radii")
    if not np.all(np.isfinite(eps)):
        raise ValueError("epsilon must be finite")
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
    return BallProbability(value=value, method=method, std_error=se)
