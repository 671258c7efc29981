"""Model configuration and sufficient statistics.

The sampling model is y = X beta + e with e ~ N(0, sigma^2 I_n), reduced to
its sufficient statistics: the least-squares estimate beta_hat ~
N(beta, sigma^2 (X'X)^{-1}) and the residual sum of squares
S ~ sigma^2 * chisq(n - p), independent.  The conjugate prior is
beta | sigma^2 ~ N(gamma, g sigma^2 (X'X)^{-1}) together with
sigma^2 ~ InverseGamma(a/2, b/2).  ``diagnostics`` reduces a dataset to
the three scalars every posterior formula reads (quad_form, resid_plus_b,
u_floor); its statistics under the truth, which only the lemma checks
read, are computed in consistency_lab.

Designs are synthesized directly through the spectrum of X'X: an
orthonormal eigenbasis Q and eigenvalues e_i = n * d_i, so experiments
scale to thousands of regressors without forming X.  Scenarios (dimension
rule, coefficient rules, prior, design, g regime) are dataclasses loadable
from a small fail-closed JSON schema, documented in the README.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .numerics import RngStream
from .g_regimes import FixedG, EmpiricalBayesG, HyperG, ZellnerSiowG, improper_reason

SCHEMA_VERSION = 1

__all__ = [
    "ScenarioError",
    "PriorConstants",
    "DesignSpec",
    "GramSpectrum",
    "build_design",
    "design_at",
    "ZerosRule",
    "ConstantRule",
    "FirstMRule",
    "ScaledNormRule",
    "DecayingRule",
    "LinearDimension",
    "SqrtDimension",
    "FixedDimension",
    "Scenario",
    "SufficientStats",
    "Diagnostics",
    "simulate_stats",
    "diagnostics",
    "mle_sup_error",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
]


class ScenarioError(ValueError):
    """Invalid scenario configuration or JSON document."""


# ---------------------------------------------------------------------------
# prior and design


@dataclass(frozen=True)
class PriorConstants:
    """Variance prior constants: sigma^2 ~ InverseGamma(a/2, b/2)."""

    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not -2.0 <= self.a < math.inf:
            raise ScenarioError(f"prior constant a must be finite and >= -2, got {self.a}")
        if not 0.0 <= self.b < math.inf:
            raise ScenarioError(f"prior constant b must be finite and >= 0, got {self.b}")


@dataclass(frozen=True)
class DesignSpec:
    """How X'X is synthesized: 'orthogonal' gives X'X = n I; 'diagonal'
    gives eigenvalues n * d_i with d_i from ``spectrum`` (tiled to length p)
    and a seeded random orthonormal eigenbasis.

    lambda_min/lambda_max, finite with 0 < lambda_min <= lambda_max, bound
    the eigenvalues of n (X'X)^{-1}, i.e. d_i must lie in [1/lambda_max,
    1/lambda_min] up to a relative 1e-12.
    """

    kind: str = "orthogonal"
    spectrum: Optional[tuple] = None
    lambda_min: float = 1.0
    lambda_max: float = 1.0

    def __post_init__(self):
        if self.kind not in ("orthogonal", "diagonal"):
            raise ScenarioError(f"unknown design kind {self.kind!r}")
        if not 0 < self.lambda_min <= self.lambda_max < math.inf:
            raise ScenarioError(f"need finite 0 < lambda_min <= lambda_max, got {self.lambda_min}, {self.lambda_max}")
        if self.kind == "diagonal":
            if not self.spectrum:
                raise ScenarioError("diagonal design requires a spectrum")
            object.__setattr__(self, "spectrum", tuple(float(d) for d in self.spectrum))
            lo, hi = 1.0 / self.lambda_max, 1.0 / self.lambda_min
            for d in self.spectrum:
                if not lo * (1.0 - 1e-12) <= d <= hi * (1.0 + 1e-12):
                    raise ScenarioError(
                        f"spectrum entry {d} outside [1/lambda_max, 1/lambda_min] = [{lo}, {hi}]"
                    )
        elif self.spectrum is not None:
            raise ScenarioError("orthogonal design takes no spectrum")


@dataclass(frozen=True)
class GramSpectrum:
    """Eigendecomposition of X'X: eigenvalues, and eigenbasis q (None means
    the identity, the axis-aligned case).  qt32 is q.T in float32,
    C-ordered and read-only (None where q is), made once with the spectrum:
    the MC route rotates its draws through it, so every rep and thread at
    one n shares it."""

    q: Optional[np.ndarray]
    eigenvalues: np.ndarray
    qt32: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        qt32 = None
        if self.q is not None:
            qt32 = np.ascontiguousarray(self.q.T, dtype=np.float32)
            qt32.flags.writeable = False
        object.__setattr__(self, "qt32", qt32)


def build_design(spec: DesignSpec, n: int, p: int, rng: RngStream) -> GramSpectrum:
    """Synthesize the gram spectrum of an n x p design. Deterministic given
    the rng stream; the random part is only the eigenbasis of 'diagonal'
    designs."""
    if p >= n:
        raise ScenarioError(f"need p < n, got p={p}, n={n}")
    if p < 1:
        raise ScenarioError(f"need p >= 1, got p={p}")
    if spec.kind == "orthogonal":
        return GramSpectrum(q=None, eigenvalues=np.full(p, float(n)))
    base = np.array(spec.spectrum, dtype=float)
    reps = int(np.ceil(p / base.size))
    d = np.tile(base, reps)[:p]
    q = _haar_orthonormal(p, rng)
    return GramSpectrum(q=q, eigenvalues=n * d)


def _haar_orthonormal(p: int, rng: RngStream) -> np.ndarray:
    """A Haar-distributed p x p orthogonal matrix: the Q of z = QR with R's
    diagonal made positive (Mezzadri 2007), z the C-order (p, p) standard
    normal draw of rng.  It is returned in Fortran order, and the
    factorization runs in place in that one array, so the draw peaks at
    1.4 times the basis at p = 400 and 1.1 at p = 800."""
    # imported here: scipy.linalg loads scipy's own BLAS, which adds start-up
    # time and about 5 MB RSS to every process, while only rotated designs
    # need it
    from scipy.linalg.lapack import dgeqrf, dorgqr

    a = np.empty((p, p), order="F")
    # row chunks of 2**16 normals read the stream as one (p, p) draw does
    rows = max(1, 2**16 // p)
    for start in range(0, p, rows):
        a[start : start + rows] = rng.generator.standard_normal((min(rows, p - start), p))
    lwork = int(dgeqrf(a, lwork=-1, overwrite_a=1)[2][0])
    qr, tau, _, info = dgeqrf(a, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgeqrf failed, info={info}")
    # fix signs so the factorization (hence the basis) is unique; a zero
    # diagonal entry counts as positive
    signs = np.where(np.diag(qr) < 0.0, -1.0, 1.0)
    lwork = int(dorgqr(qr, tau, lwork=-1, overwrite_a=1)[1][0])
    q, _, info = dorgqr(qr, tau, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dorgqr failed, info={info}")
    q *= signs
    return q


# ---------------------------------------------------------------------------
# coefficient rules (closed vocabulary, shared by beta0 and gamma)
#
# Each rule's values(n, p, start, stop) gives coordinates [start, stop) of
# its length-p vector at n (stop defaults to p), bit for bit the slice of
# the whole vector, so long vectors can be walked in blocks, and
# nonzero_end(n, p) the end of its nonzero prefix: every coordinate from
# there on is 0.  Its numeric fields must be finite.


def _check_finite(rule, *names) -> None:
    for name in names:
        if not math.isfinite(getattr(rule, name)):
            raise ScenarioError(f"{type(rule).__name__}.{name} must be finite, got {getattr(rule, name)!r}")


@dataclass(frozen=True)
class ZerosRule:
    def values(self, n: int, p: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        stop = p if stop is None else stop
        return np.zeros(stop - start)

    def nonzero_end(self, n: int, p: int) -> int:
        return 0


@dataclass(frozen=True)
class ConstantRule:
    v: float

    def __post_init__(self):
        _check_finite(self, "v")

    def values(self, n: int, p: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        stop = p if stop is None else stop
        return np.full(stop - start, float(self.v))

    def nonzero_end(self, n: int, p: int) -> int:
        return p


@dataclass(frozen=True)
class FirstMRule:
    """First m coordinates set to v, the rest zero."""

    v: float
    m: int

    def __post_init__(self):
        _check_finite(self, "v")
        if self.m < 0:
            raise ScenarioError("first_m count must be >= 0")

    def values(self, n: int, p: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        if self.m > p:
            raise ScenarioError(f"first_m rule needs p >= {self.m}, got p={p}")
        stop = p if stop is None else stop
        out = np.zeros(stop - start)
        out[: max(0, self.m - start)] = float(self.v)
        return out

    def nonzero_end(self, n: int, p: int) -> int:
        return min(self.m, p)


@dataclass(frozen=True)
class ScaledNormRule:
    """Equal coordinates scaled so the squared 2-norm hits a target, either
    a constant or 'sqrt_n' (target grows like sqrt(n))."""

    target_sq_norm: Union[float, str]

    def __post_init__(self):
        if isinstance(self.target_sq_norm, str):
            if self.target_sq_norm != "sqrt_n":
                raise ScenarioError(
                    f"scaled_norm target must be a number or 'sqrt_n', got {self.target_sq_norm!r}"
                )
        elif not 0 <= self.target_sq_norm < math.inf:
            raise ScenarioError(f"scaled_norm target must be finite and >= 0, got {self.target_sq_norm!r}")

    def _target(self, n: int) -> float:
        if self.target_sq_norm == "sqrt_n":
            return math.sqrt(n)
        return float(self.target_sq_norm)

    def values(self, n: int, p: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        stop = p if stop is None else stop
        return np.full(stop - start, math.sqrt(self._target(n) / p))

    def nonzero_end(self, n: int, p: int) -> int:
        return p


@dataclass(frozen=True)
class DecayingRule:
    """Coordinate i gets c * (i + 1)^(-rate)."""

    c: float
    rate: float

    def __post_init__(self):
        _check_finite(self, "c", "rate")

    def values(self, n: int, p: int, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        stop = p if stop is None else stop
        return float(self.c) * np.arange(start + 1, stop + 1, dtype=float) ** (-float(self.rate))

    def nonzero_end(self, n: int, p: int) -> int:
        return p


# ---------------------------------------------------------------------------
# dimension rules


@dataclass(frozen=True)
class LinearDimension:
    """p_n = max(1, floor(alpha * n)), capped at n - 1."""

    def p_at(self, n: int, alpha: float) -> int:
        return min(n - 1, max(1, int(math.floor(alpha * n))))


@dataclass(frozen=True)
class SqrtDimension:
    """p_n = ceil(sqrt(n)), capped at n - 1 (an alpha = 0 rule)."""

    def p_at(self, n: int, alpha: float) -> int:
        return min(n - 1, max(1, int(math.ceil(math.sqrt(n)))))


@dataclass(frozen=True)
class FixedDimension:
    """Constant p_n = m (a fixed-dimension embedding; alpha = 0)."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ScenarioError("fixed dimension must be >= 1")

    def p_at(self, n: int, alpha: float) -> int:
        if self.m >= n:
            raise ScenarioError(f"fixed dimension m={self.m} needs n > m, got n={n}")
        return self.m


# ---------------------------------------------------------------------------
# scenario


@dataclass(frozen=True)
class Scenario:
    """A full experiment configuration; every quantity that varies with n is
    a rule so one scenario spans the whole n-grid."""

    name: str
    alpha: float
    design: DesignSpec
    beta0_rule: object
    gamma_rule: object
    sigma0_sq: float
    prior: PriorConstants
    regime: object
    p_rule: object = field(default_factory=LinearDimension)

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise ScenarioError(
                f"alpha={self.alpha} is invalid: the dimension fraction must satisfy "
                "0 <= alpha < 1 so that p_n < n for large n (A2)"
            )
        if self.alpha > 0 and not isinstance(self.p_rule, LinearDimension):
            raise ScenarioError(
                f"alpha={self.alpha} needs the linear dimension rule: under {type(self.p_rule).__name__} "
                "p/n -> 0, so alpha must be 0"
            )
        if not 0.0 < self.sigma0_sq < math.inf:
            raise ScenarioError(f"sigma0_sq must be finite and > 0, got {self.sigma0_sq}")
        if not self.name or not self.name.isprintable():
            raise ScenarioError(f"name must be a nonempty printable string, got {self.name!r}")

    def p_at(self, n: int) -> int:
        if n < 2:
            raise ScenarioError(f"need n >= 2, got n={n}")
        p = self.p_rule.p_at(n, self.alpha)
        if not (1 <= p < n):
            raise ScenarioError(f"dimension rule produced p={p} outside [1, n) at n={n}")
        return p

    def beta0_at(self, n: int) -> np.ndarray:
        return self.beta0_rule.values(n, self.p_at(n))

    def gamma_at(self, n: int) -> np.ndarray:
        return self.gamma_rule.values(n, self.p_at(n))

    def validate_grid(self, n_grid) -> None:
        """Grid-wide checks: n strictly increasing, p nondecreasing, p < n,
        and regime propriety constraints at every evaluated n."""
        if len(n_grid) == 0:
            raise ScenarioError("empty n grid")
        if any(m >= n for m, n in zip(n_grid, n_grid[1:])):
            raise ScenarioError(f"n grid must be increasing, got {list(n_grid)}")
        prev_p = 0
        a = self.prior.a
        for n in n_grid:
            p = self.p_at(n)
            if p < prev_p:
                raise ScenarioError(f"dimension rule is not nondecreasing at n={n}")
            prev_p = p
            reason = improper_reason(self.regime, n, p, a)
            if reason:
                raise ScenarioError(reason)
            self.beta0_at(n)
            self.gamma_at(n)


# ---------------------------------------------------------------------------
# sufficient statistics


@dataclass(frozen=True)
class SufficientStats:
    """(beta_hat, S) plus the gram spectrum they were computed under.
    Arrays are treated as immutable."""

    n: int
    p: int
    beta_hat: np.ndarray
    resid_ss: float
    gram: GramSpectrum

    def __post_init__(self):
        if not (1 <= self.p < self.n):
            raise ScenarioError(f"need 1 <= p < n, got p={self.p}, n={self.n}")
        if self.beta_hat.shape != (self.p,):
            raise ScenarioError("beta_hat must have shape (p,)")
        if self.gram.eigenvalues.shape != (self.p,):
            raise ScenarioError("gram eigenvalues must have shape (p,)")
        if self.resid_ss < 0:
            raise ScenarioError("residual sum of squares must be >= 0")


def design_at(scenario: Scenario, n: int, master_seed: int) -> GramSpectrum:
    """The gram spectrum of the design at n, drawn from the stream keyed
    (master seed, scenario, "design", n): one design for every replication
    at n."""
    design_rng = RngStream(master_seed, (scenario.name, "design", n))
    return build_design(scenario.design, n, scenario.p_at(n), design_rng)


def simulate_stats(scenario: Scenario, n: int, rng: RngStream, gram: GramSpectrum) -> SufficientStats:
    """Draw sufficient statistics under the truth (beta0, sigma0_sq):
    beta_hat ~ N(beta0, sigma0^2 (X'X)^{-1}) and S ~ sigma0^2 chisq(n - p),
    straight from their laws.  ``gram`` is the design at n, as
    design_at(scenario, n, rng.master_seed) gives it.
    """
    p = scenario.p_at(n)
    beta0 = scenario.beta0_at(n)
    sigma0 = math.sqrt(scenario.sigma0_sq)
    z = rng.generator.standard_normal(p)
    scaled = z / np.sqrt(gram.eigenvalues)
    beta_hat = beta0 + sigma0 * (scaled if gram.q is None else gram.q @ scaled)
    resid = scenario.sigma0_sq * rng.generator.chisquare(n - p)
    return SufficientStats(n=n, p=p, beta_hat=beta_hat, resid_ss=float(resid), gram=gram)


def mle_sup_error(stats: SufficientStats, beta0: np.ndarray) -> float:
    """Sup-norm error of the least-squares estimate."""
    return float(np.max(np.abs(stats.beta_hat - beta0)))


# ---------------------------------------------------------------------------
# diagnostics


def _gram_quadform(gram: GramSpectrum, v: np.ndarray) -> float:
    """v' X'X v through the spectrum."""
    w = v if gram.q is None else gram.q.T @ v
    return float(np.sum(gram.eigenvalues * w * w))


@dataclass(frozen=True)
class Diagnostics:
    """Scalar functionals of (stats, gamma) driving every posterior formula.

    quad_form is the misfit (beta_hat - gamma)' X'X (beta_hat - gamma);
    u_floor is (S + b) / (S + b + quad_form), the left endpoint of the
    u-domain onto which g >= 0 maps.
    """

    quad_form: float
    resid_plus_b: float
    u_floor: float


def diagnostics(stats: SufficientStats, gamma: np.ndarray, prior: PriorConstants) -> Diagnostics:
    """Compute the scalar diagnostics of one simulated dataset."""
    if gamma.shape != (stats.p,):
        raise ScenarioError("gamma must have shape (p,)")
    quad_form = _gram_quadform(stats.gram, stats.beta_hat - gamma)
    resid_plus_b = stats.resid_ss + prior.b
    u_floor = resid_plus_b / (resid_plus_b + quad_form) if resid_plus_b + quad_form > 0 else 0.0
    return Diagnostics(quad_form=quad_form, resid_plus_b=resid_plus_b, u_floor=u_floor)


# ---------------------------------------------------------------------------
# JSON schema (versioned, fail-closed): one kind table, one reader, one writer

_COEFFICIENT_RULES = {
    "zeros": ZerosRule,
    "constant": ConstantRule,
    "first_m": FirstMRule,
    "scaled_norm": ScaledNormRule,
    "decaying": DecayingRule,
}
# slot -> kind -> class; the prior slot has no kinds, only its class
_KINDS = {
    "beta0_rule": _COEFFICIENT_RULES,
    "gamma_rule": _COEFFICIENT_RULES,
    "p_rule": {"linear": LinearDimension, "sqrt": SqrtDimension, "fixed": FixedDimension},
    "regime": {"fixed": FixedG, "eb": EmpiricalBayesG, "hyper_g": HyperG, "zs": ZellnerSiowG},
    "design": {"orthogonal": DesignSpec, "diagonal": DesignSpec},
    "prior": PriorConstants,
}
# class -> kind for the writer; DesignSpec carries its kind as a field
_KIND_NAMES = {
    cls: kind for slot in ("beta0_rule", "p_rule", "regime") for kind, cls in _KINDS[slot].items()
}


def _finite(value) -> bool:
    """A number that is no boolean, NaN or infinity, and no integer too
    large for a float."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


# declared field type -> (the JSON value it takes, its check)
_JSON_TYPES = {
    "float": ("a finite number", _finite),
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "Union[float, str]": ("a string or a finite number", lambda v: isinstance(v, str) or _finite(v)),
    "Optional[tuple]": ("a list of finite numbers", lambda v: isinstance(v, list) and all(map(_finite, v))),
}


def _checked(value, ftype: str, where: str):
    """``value`` if it is a JSON value of a field declared ``ftype`` (as a
    float for float fields), else a ScenarioError naming ``where``."""
    expected, check = _JSON_TYPES[ftype]
    if not check(value):
        raise ScenarioError(f"{where} must be {expected}, got {value!r}")
    return float(value) if ftype == "float" else value


def _from_json(doc, slot: str):
    """The object in scenario slot ``slot`` read from its JSON form: an
    object with a known 'kind' (a bare "linear"/"sqrt" for p_rule) whose
    other keys are init fields of the kind's class, each of its declared
    type."""
    if slot == "p_rule" and doc in ("linear", "sqrt"):
        doc = {"kind": doc}
    if not isinstance(doc, dict):
        raise ScenarioError(f"{slot}: expected a JSON object, got {doc!r}")
    args, cls = dict(doc), _KINDS[slot]
    if isinstance(cls, dict):
        kind = args.pop("kind", None)
        if not isinstance(kind, str) or kind not in cls:
            raise ScenarioError(f"{slot}: 'kind' must be one of {sorted(cls)}, got {kind!r}")
        cls = cls[kind]
    types = {f.name: f.type for f in fields(cls) if f.init}
    if "kind" in types:
        args["kind"] = kind
    unknown = sorted(set(args) - set(types))
    if unknown:
        raise ScenarioError(f"{slot}: unknown keys {unknown}")
    args = {k: _checked(v, types[k], f"{slot}.{k}") for k, v in args.items()}
    try:
        return cls(**args)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{slot}: {exc}") from None


def _to_json(obj):
    """The JSON form of a scenario part: {"kind": kind, **init fields}, a
    bare "linear"/"sqrt" for those dimension rules, and {"kind":
    "orthogonal"} for the orthogonal design."""
    if not is_dataclass(obj):
        return list(obj) if isinstance(obj, tuple) else obj
    kind = _KIND_NAMES.get(type(obj))
    if kind in ("linear", "sqrt"):
        return kind
    if isinstance(obj, DesignSpec) and obj.kind == "orthogonal":
        return {"kind": "orthogonal"}
    body = {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj) if f.init}
    return body if kind is None else {"kind": kind, **body}


def scenario_from_dict(doc: dict, default_name: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    types = {f.name: f.type for f in fields(Scenario)}
    extra = set(doc) - set(types) - {"schema_version"}
    if extra:
        raise ScenarioError(f"unknown scenario keys {sorted(extra)}")
    missing = {"schema_version", "alpha", "design", "beta0_rule", "gamma_rule", "sigma0_sq", "prior", "regime"} - set(doc)
    if missing:
        raise ScenarioError(f"missing scenario keys {sorted(missing)}")
    if _checked(doc["schema_version"], "int", "schema_version") != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema_version {doc['schema_version']!r}; this build reads version {SCHEMA_VERSION}"
        )
    design = doc["design"]
    if isinstance(design, dict) and design.get("kind") == "orthogonal" and len(design) > 1:
        raise ScenarioError(f"design: an orthogonal design takes no {sorted(set(design) - {'kind'})}")
    args = {"name": default_name, **doc}
    del args["schema_version"]
    return Scenario(
        **{k: _from_json(v, k) if k in _KINDS else _checked(v, types[k], k) for k, v in args.items()}
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_to_json(scenario)}


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return scenario_from_dict(doc, default_name=path.stem)
