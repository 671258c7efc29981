"""The four ways of choosing the shrinkage factor g, and the induced
posterior over g.

Everything conditions on the sufficient statistics through three scalars:
the misfit quad_form = (beta_hat - gamma)' X'X (beta_hat - gamma), the
residual total resid_plus_b = S + b, and their dimensionless combination

    u = (g + 1)(S + b) / ((g + 1)(S + b) + quad_form),

which maps g in [0, inf) monotonically onto [u_floor, 1) with
u_floor = (S + b) / (S + b + quad_form).  Working in u keeps every density
bounded on a finite interval, so the data-dependent regimes (hyper-g,
Zellner-Siow) are integrated on deterministic u-grids in log space.

Regimes:
  * FixedG: deterministic g_n (a number, or the unit-information rule g = n).
  * EmpiricalBayesG: g maximizes the marginal likelihood; the argmax has a
    closed form and the posterior over g is a point mass there.
  * HyperG(c): prior (g + 1)^(-c/2); the u-posterior is a Beta law
    truncated to (u_floor, 1).
  * ZellnerSiowG: inverse-gamma prior g ~ IG(1/2, n/2); the u-posterior has
    an extra essential decay at u_floor and is handled on a hybrid grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.special import betainc, betaincc, betaincinv

from .numerics import log_sum_exp

__all__ = [
    "FixedG",
    "EmpiricalBayesG",
    "HyperG",
    "ZellnerSiowG",
    "improper_reason",
    "g_from_u",
    "eb_ghat",
    "zs_log_density_u",
    "GPosterior",
    "build_g_posterior",
]


# ---------------------------------------------------------------------------
# regime declarations


@dataclass(frozen=True)
class FixedG:
    """Deterministic g sequence: rule 'n' (unit information) or a constant."""

    rule: Union[float, str]

    def __post_init__(self):
        if self.rule != "n":
            if not isinstance(self.rule, (int, float)) or isinstance(self.rule, bool):
                raise ValueError(f"fixed g rule must be 'n' or a number, got {self.rule!r}")
            if not 0.0 <= float(self.rule) < math.inf:
                raise ValueError(f"fixed g must be finite and >= 0, got {self.rule}")
            object.__setattr__(self, "rule", float(self.rule))

    def g_at(self, n: int) -> float:
        return float(n) if self.rule == "n" else float(self.rule)


@dataclass(frozen=True)
class EmpiricalBayesG:
    """g set to the marginal-likelihood maximizer."""


@dataclass(frozen=True)
class HyperG:
    """Prior density proportional to (g + 1)^(-c/2) on g > 0."""

    c: float = 3.0

    def __post_init__(self):
        if not 2.0 < self.c < math.inf:
            raise ValueError(f"hyper-g prior is proper only for finite c > 2, got c={self.c}")


@dataclass(frozen=True)
class ZellnerSiowG:
    """Prior g ~ InverseGamma(1/2, n/2), i.e. density proportional to
    g^(-3/2) exp(-n / (2 g))."""


def improper_reason(regime, n: int, p: int, a: float) -> Optional[str]:
    """Why the posterior under ``regime`` is improper at (n, p, a), or None.

    Every regime needs n + a - 2 > 0, twice the shape of sigma^2's
    InverseGamma law; empirical Bayes n - p + a - 2 > 0 for its maximizer,
    and hyper-g n - p + a - c > 0 for its Beta(shape1, shape2) u-posterior
    (shape2 = (p + c - 2)/2 > 0 holds for every p >= 1 and c > 2)."""
    if n + a - 2.0 <= 0:
        return f"variance posterior needs n + a - 2 > 0; fails at n={n}"
    if isinstance(regime, EmpiricalBayesG) and n - p + a - 2.0 <= 0:
        return f"empirical Bayes needs n - p + a - 2 > 0, got n={n}, p={p}, a={a}"
    if isinstance(regime, HyperG) and n - p + a - regime.c <= 0:
        return f"hyper-g posterior is improper: needs n - p + a - c > 0, got n={n}, p={p}, a={a}, c={regime.c}"
    return None


# ---------------------------------------------------------------------------
# the u <-> g reparameterization


def g_from_u(u, u_floor: float):
    """Map u in [u_floor, 1) to g >= 0, the inverse of
    u = (g + 1) u_floor / ((g + 1) u_floor + 1 - u_floor)."""
    u = np.asarray(u, dtype=float)
    w = u_floor
    out = (u - w) / (w * (1.0 - u))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the empirical-Bayes maximizer of the marginal likelihood in g


def eb_ghat(n: int, p: int, a: float, resid_plus_b: float, quad_form: float) -> float:
    """Closed-form marginal-likelihood maximizer over g >= 0:

        max(0, (n - p + a - 2) / (S + b) * (T / p) - 1).
    """
    reason = improper_reason(EmpiricalBayesG(), n, p, a)
    if reason:
        raise ValueError(reason)
    if resid_plus_b <= 0:
        raise ValueError("resid_plus_b must be > 0")
    return max(0.0, (n - p + a - 2.0) / resid_plus_b * (quad_form / p) - 1.0)


# ---------------------------------------------------------------------------
# unnormalized Zellner-Siow posterior log density in the u domain


def zs_log_density_u(
    u, n: int, p: int, a: float, u_floor: float
) -> np.ndarray:
    """Unnormalized log posterior density of u under the Zellner-Siow prior:

        (n - p + a - 2)/2 * log u + (p - 4)/2 * log(1 - u)
        - 3/2 * log g(u) - n / (2 g(u)),

    with g(u) = (u - u_floor) / (u_floor (1 - u)); -inf outside
    (u_floor, 1)."""
    u = np.asarray(u, dtype=float)
    w = u_floor
    inside = (u > w) & (u < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = u - w
        log_g = np.log(s) - np.log(w) - np.log1p(-u)
        out = (
            0.5 * (n - p + a - 2.0) * np.log(u)
            + 0.5 * (p - 4.0) * np.log1p(-u)
            - 1.5 * log_g
            - 0.5 * n * w * (1.0 - u) / s
        )
    out = np.where(inside, out, -np.inf)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# posterior over g, represented on a u-grid


@dataclass(frozen=True)
class GPosterior:
    """Posterior distribution of g given the data, parameterized in u.

    kind 'point' (fixed or empirical-Bayes g) stores g_star; the continuous
    kinds ('hyper_g', 'zellner_siow') store u_nodes with normalized node
    weights (for expectations) and a normalized piecewise-linear cdf (for
    quantiles and inverse-cdf sampling).
    """

    kind: str
    a: float
    u_floor: float
    resid_plus_b: float
    quad_form: float
    g_star: Optional[float] = None
    u_nodes: Optional[np.ndarray] = None
    node_weights: Optional[np.ndarray] = None
    cdf: Optional[np.ndarray] = None

    @property
    def is_point(self) -> bool:
        return self.kind == "point"

    def quadrature(self):
        """(g_nodes, weights) for posterior averages over g."""
        if self.is_point:
            return np.array([self.g_star]), np.array([1.0])
        g = g_from_u(self.u_nodes, self.u_floor)
        return g, self.node_weights

    def quantile_g(self, q):
        """g-quantiles of a continuous posterior at levels q in [0, 1]: the
        piecewise-linear u-cdf inverted, mapped to g."""
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantile levels must lie in [0, 1]")
        return g_from_u(np.interp(q, self.cdf, self.u_nodes), self.u_floor)

    def sample_g(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws of g: g_star itself for a point mass, as the exact
        route uses it (the round trip through u moves its last bits), else
        quantile_g at uniform draws."""
        if self.is_point:
            return np.full(size, self.g_star)
        return self.quantile_g(rng.random(size))


def _require_mass(mass: float, u_floor: float) -> None:
    """Refuse a posterior whose mass above u_floor, or that of its Beta
    envelope, is not positive (NaN included)."""
    if not mass > 0.0:
        raise ValueError(
            "posterior mass above the truncation point underflowed; the "
            f"distribution is numerically degenerate at u_floor={u_floor!r}"
        )


def _trapezoid_masses(u_nodes, f):
    """Node weights and cdf, each up to a positive factor, of the density
    whose unnormalized log values at ``u_nodes`` are ``f``: trapezoid
    masses per segment (cdf) and density times half-cell width (weights),
    both in log space.  An all-(-inf) ``f`` gives a NaN cdf."""
    du = np.diff(u_nodes)
    seg = np.logaddexp(f[:-1], f[1:]) + np.log(du / 2.0)
    cell = np.empty_like(u_nodes)
    cell[0] = du[0] / 2.0
    cell[-1] = du[-1] / 2.0
    cell[1:-1] = (du[:-1] + du[1:]) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = f + np.log(cell)
        weights = np.exp(logw - log_sum_exp(logw))
        cdf = np.concatenate([[0.0], np.cumsum(np.exp(seg - log_sum_exp(seg)))])
    return weights, cdf


def _beta_masses(u_nodes, shape1, shape2):
    """Node weights and cdf, each up to a positive factor, of a
    Beta(shape1, shape2) law truncated to the span of ``u_nodes``: segment
    masses from the incomplete-beta CDF (differenced in whichever tail is
    numerically stable), so they carry no quadrature error beyond node
    placement, and each node weighs half its two segments."""
    lower = betainc(shape1, shape2, u_nodes)
    upper = betaincc(shape1, shape2, u_nodes)
    mass = np.where(lower[1:] < 0.5, lower[1:] - lower[:-1], upper[:-1] - upper[1:])
    mass = np.clip(mass, 0.0, None)
    weights = np.concatenate([mass[:1], mass[:-1] + mass[1:], mass[-1:]]) / 2.0
    return weights, np.concatenate([[0.0], np.cumsum(mass)])


# quantile-spaced u-nodes of a hyper-g or Zellner-Siow posterior (the
# Zellner-Siow ladder adds its own)
_GRID_SIZE = 512


def _conditional_mass_grid() -> np.ndarray:
    """Conditional-probability levels in (0, 1): uniform in the bulk with
    geometric refinement toward both endpoints.  The refinement keeps the
    trapezoid/endpoint rules second-order accurate where the quantile map
    steepens (1/density grows without bound at the support edges)."""
    edge = max(8, _GRID_SIZE // 4)
    depth = 0.05
    lo = np.geomspace(1e-7, depth, edge)
    mid = np.linspace(depth, 1.0 - depth, _GRID_SIZE - 2 * edge + 2)
    hi = 1.0 - np.geomspace(1e-7, depth, edge)[::-1]
    return np.unique(np.concatenate([lo, mid, hi]))


def _quantile_spaced_nodes(u_floor, shape1, shape2):
    """Nodes at Beta(shape1, shape2) quantiles of conditional probability
    levels above u_floor (edge-refined, see _conditional_mass_grid)."""
    fw = float(betainc(shape1, shape2, u_floor))
    _require_mass(1.0 - fw, u_floor)
    q = fw + (1.0 - fw) * _conditional_mass_grid()
    u = betaincinv(shape1, shape2, q)
    lo = u_floor + (1.0 - u_floor) * 1e-13
    return np.clip(u, lo, 1.0 - 1e-12)


def build_g_posterior(regime, stats, quad_form: float, prior) -> GPosterior:
    """Posterior over g for one dataset.

    ``stats`` needs fields n, p, resid_ss; ``prior`` needs a, b.  For the
    continuous regimes the density is tabulated on _GRID_SIZE u-nodes placed
    at quantiles of a matched Beta envelope (plus, for Zellner-Siow, a
    geometric ladder resolving the essential singularity at u_floor).
    """
    n, p, a, b = stats.n, stats.p, prior.a, prior.b
    if quad_form < 0:
        raise ValueError("quad_form must be >= 0")
    resid_plus_b = stats.resid_ss + b
    if resid_plus_b <= 0:
        raise ValueError("S + b must be > 0")
    reason = improper_reason(regime, n, p, a)
    if reason:
        raise ValueError(reason)
    u_floor = resid_plus_b / (resid_plus_b + quad_form)
    common = dict(a=a, u_floor=u_floor, resid_plus_b=resid_plus_b, quad_form=quad_form)

    def continuous(kind, u_nodes, weights, cdf) -> GPosterior:
        # weights and cdf at u_nodes, each known up to a positive factor
        _require_mass(cdf[-1], u_floor)
        return GPosterior(
            kind=kind, u_nodes=u_nodes, node_weights=weights / weights.sum(), cdf=cdf / cdf[-1], **common
        )

    if isinstance(regime, FixedG):
        return GPosterior(kind="point", g_star=regime.g_at(n), **common)
    if isinstance(regime, EmpiricalBayesG):
        return GPosterior(kind="point", g_star=eb_ghat(n, p, a, resid_plus_b, quad_form), **common)
    if isinstance(regime, HyperG):
        # the truncated density IS a Beta(shape1, shape2) kernel, so segment
        # masses from the incomplete-beta CDF are exact
        shape1 = 0.5 * (n - p + a - regime.c)
        shape2 = 0.5 * (p + regime.c - 2.0)
        u = np.unique(_quantile_spaced_nodes(u_floor, shape1, shape2))
        return continuous("hyper_g", u, *_beta_masses(u, shape1, shape2))
    if isinstance(regime, ZellnerSiowG):
        shape1 = 0.5 * (n - p + a)
        shape2 = 0.5 * (p - 2.0)
        if shape1 > 0 and shape2 > 0:
            base = _quantile_spaced_nodes(u_floor, shape1, shape2)
        else:
            # tiny p: no usable Beta envelope, fall back to uniform nodes
            base = u_floor + (1.0 - u_floor - 1e-12) * np.linspace(1e-7, 1.0, _GRID_SIZE)
        # geometric ladder from just above u_floor up to the first envelope
        # node, resolving exp(-n u_floor (1 - u) / (2 (u - u_floor)))
        first = float(np.min(base))
        s0 = u_floor * 1e-12
        s1 = first - u_floor
        if s1 > s0 > 0:
            k = max(_GRID_SIZE // 8, 32)
            ladder = u_floor + np.geomspace(s0, s1, k)[:-1]
        else:
            ladder = np.empty(0)
        u = np.unique(np.concatenate([ladder, base]))
        return continuous("zellner_siow", u, *_trapezoid_masses(u, zs_log_density_u(u, n, p, a, u_floor)))
    raise ValueError(f"unknown regime {regime!r}")
