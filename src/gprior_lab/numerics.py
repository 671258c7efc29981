"""Numerical primitives: keyed RNG streams, log-space helpers, special
functions, and the Beta lower-tail bound check.

Everything here is deliberately boring and well tested; the statistical
modules sit on top of it.  Special functions are scipy.special routines.
The one exception is log_beta_cdf, a continued-fraction incomplete beta
kept for beta_tail_bound_check alone: the tails it compares lie far below
the smallest double, so they exist only in log space, which scipy does
not offer for the incomplete beta.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

__all__ = [
    "RngStream",
    "log_sum_exp",
    "log_beta_cdf",
    "beta_quantile",
    "inverse_gamma_cdf",
    "inverse_gamma_quantile",
    "BetaTailBound",
    "beta_tail_bound_check",
]


# ---------------------------------------------------------------------------
# keyed RNG streams


def _key_words(part) -> list[int]:
    """Stable uint32 words for one path component (int or str)."""
    if isinstance(part, (int, np.integer)):
        v = int(part) & 0xFFFFFFFFFFFFFFFF
        return [v & 0xFFFFFFFF, (v >> 32) & 0xFFFFFFFF]
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return [int.from_bytes(digest[4 * i : 4 * i + 4], "little") for i in range(4)]
    raise TypeError(f"rng path components must be int or str, got {type(part)!r}")


class RngStream:
    """A reproducible random stream derived from a 64-bit master seed and a
    key path such as (experiment, n, replication, purpose).

    Streams with distinct paths are statistically independent; the same
    (seed, path) always reproduces the same draws within one build, which is
    what makes threaded experiment runs order-independent.
    """

    def __init__(self, master_seed: int, path: tuple = ()):
        self.master_seed = int(master_seed)
        self.path = tuple(path)
        words: list[int] = []
        for part in self.path:
            words.extend(_key_words(part))
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=tuple(words))
        self.generator = np.random.default_rng(seq)

    def child(self, *parts) -> "RngStream":
        """A fresh stream for a sub-task; does not advance this stream."""
        return RngStream(self.master_seed, self.path + tuple(parts))

    def __repr__(self):
        return f"RngStream(seed={self.master_seed}, path={self.path!r})"

    # -- samplers ----------------------------------------------------------

    def uniform(self, size=None):
        return self.generator.random(size)

    def standard_normal(self, size=None):
        return self.generator.standard_normal(size)

    def chi_square(self, df: float, size=None):
        """Chi-square via gamma: 2 * Gamma(df/2, 1)."""
        if df < 0:
            raise ValueError("df must be >= 0")
        if df == 0:
            return np.zeros(size) if size is not None else 0.0
        return 2.0 * self.generator.standard_gamma(df / 2.0, size)

    def inverse_gamma(self, shape: float, scale, size=None):
        """InverseGamma(shape, scale): reciprocal of Gamma(shape, 1/scale).
        ``scale`` may be an array, broadcast against the draw shape."""
        scale = np.asarray(scale, dtype=float)
        if shape <= 0 or np.any(scale <= 0):
            raise ValueError("shape and scale must be positive")
        return scale / self.generator.standard_gamma(shape, size)


# ---------------------------------------------------------------------------
# log-space helpers


def log_sum_exp(values) -> float:
    """log(sum(exp(values))) without overflow; -inf for an all-(-inf) input."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("log_sum_exp of an empty collection")
    hi = np.max(arr)
    if not np.isfinite(hi):
        if hi == -np.inf:
            return -np.inf
        raise ValueError("log_sum_exp input contains +inf or nan")
    return float(hi + np.log(np.sum(np.exp(arr - hi))))


# ---------------------------------------------------------------------------
# scalar special functions


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


def beta_quantile(q, a: float, b: float):
    if a <= 0 or b <= 0:
        raise ValueError("beta parameters must be positive")
    out = _sp.betaincinv(a, b, np.asarray(q, dtype=float))
    return float(out) if out.ndim == 0 else out


def inverse_gamma_cdf(x, shape: float, scale: float):
    """P(X <= x) for X ~ InverseGamma(shape, scale)."""
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        out = np.where(x > 0, _sp.gammaincc(shape, scale / np.maximum(x, 1e-300)), 0.0)
    return float(out) if out.ndim == 0 else out


def inverse_gamma_quantile(q, shape: float, scale: float):
    """Quantile function of InverseGamma(shape, scale) on (0, 1)."""
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    q = np.asarray(q, dtype=float)
    if np.any((q <= 0) | (q >= 1)):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    out = scale / _sp.gammainccinv(shape, q)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Beta lower-tail bound


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
