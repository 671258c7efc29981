"""Experiment orchestration: simulate scenarios across an n-grid, classify
how posterior ball probabilities trend, predict consistency from the
scenario's deterministic structure, and verify the supporting
concentration results by simulation.

Verdict logic (the tool's own numbering, see README):
  * Theorem 1 (deterministic g_n): consistency holds iff both
    ||gamma - beta0||_inf / (g_n + 1) -> 0 and
    g_n (g_n + 1)^{-2} (log p_n) n^{-1} ||gamma - beta0||_2^2 -> 0.
  * Theorems 2 (empirical Bayes) and 3 (hyper-g): consistency holds iff
    alpha = 0, or no subsequence keeps ||gamma - beta0||_2^2 near a finite
    positive constant while ||gamma - beta0||_inf stays away from zero.
  * Theorem 4 (Zellner-Siow): the same condition is sufficient; when it
    fails the verdict is 'unknown', never 'inconsistent'.

Every random quantity is drawn from a stream keyed by
(scenario name, n, replication, purpose) under one master seed, so
reports are bitwise reproducible regardless of thread count.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from scipy.special import gammaincc

from .numerics import RngStream
from .model_core import (
    Scenario,
    _gram_quadform,
    design_at,
    diagnostics,
    mle_sup_error,
    scenario_to_dict,
    simulate_stats,
)
from .g_regimes import (
    EmpiricalBayesG,
    FixedG,
    HyperG,
    ZellnerSiowG,
    build_g_posterior,
    eb_ghat,
    improper_reason,
)
from .posterior_engine import BallOptions, sup_ball_probability

__all__ = [
    "VANISH_THRESHOLD",
    "FLOOR_THRESHOLD",
    "classify_trend",
    "TheoremVerdict",
    "evaluate_theorem1",
    "evaluate_theorem_subsequence_condition",
    "predict_verdict",
    "ExperimentReport",
    "check_radii",
    "run_experiment",
    "LemmaOutcome",
    "verify_lemmas",
]

# coordinates per block when the verdict walks an offset vector: the
# extended grid reaches p in the millions, and a block keeps each pass to
# a few hundred kilobytes whatever p is
OFFSET_BLOCK = 2**15

# a trend of medians counts as vanishing when it ends below this...
VANISH_THRESHOLD = 0.05
# ...and as bounded away from zero when its tail stays above this
FLOOR_THRESHOLD = 0.1

REPORT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# trend classification


def classify_trend(values) -> str:
    """Classify a sequence of simulated medians (exceedance probabilities
    or errors) as 'vanishing', 'bounded_away', or 'indeterminate'.

    Vanishing: nonincreasing (tiny slack for ties) with final value below
    VANISH_THRESHOLD.  Bounded away: the last half of the sequence,
    including the final value, stays above FLOOR_THRESHOLD.
    """
    v = [float(x) for x in values]
    if len(v) < 2:
        return "indeterminate"
    slack = 1e-12 * (1.0 + abs(v[0]))
    nonincreasing = all(v[i + 1] <= v[i] + slack for i in range(len(v) - 1))
    if nonincreasing and v[-1] < VANISH_THRESHOLD:
        return "vanishing"
    tail = v[len(v) // 2 :]
    if v[-1] > FLOOR_THRESHOLD and min(tail) >= FLOOR_THRESHOLD:
        return "bounded_away"
    return "indeterminate"


def _extended_grid(n_grid) -> list:
    """The grid geometrically extended (factor 4) to at least 8 points so
    limits are visible."""
    ns = [int(n) for n in n_grid]
    if not ns:
        raise ValueError("empty n grid")
    while len(ns) < 8:
        ns.append(ns[-1] * 4)
    return ns


def _classify_profile(v: list) -> str:
    """Classify the limit of a deterministic nonnegative sequence, given
    its values on the extended grid, as 'zero', 'positive', 'diverging',
    or 'unknown'."""
    ref = 1.0 + abs(v[0])
    tail_nonincreasing = v[-2] <= v[-3] + 1e-12 and v[-1] <= v[-2] + 1e-12
    if v[-1] < 1e-3 * ref and tail_nonincreasing:
        return "zero"
    if v[-1] > 10.0 * ref and v[-3] < v[-2] < v[-1]:
        return "diverging"
    tail = v[len(v) // 2 :]
    lo, hi = min(tail), max(tail)
    if lo > 1e-3 * ref and hi > 0 and (hi - lo) / hi < 0.02:
        return "positive"
    return "unknown"


# ---------------------------------------------------------------------------
# theorem-based verdicts


@dataclass(frozen=True)
class TheoremVerdict:
    """Predicted asymptotic behavior of a scenario with its evidence traces."""

    theorem: str  # "T1".."T4"
    predicted: str  # "consistent" | "inconsistent" | "unknown"
    sufficient_only: bool = False
    evidence: dict = field(default_factory=dict)

    def display(self) -> str:
        num = self.theorem[1:]
        if self.predicted == "consistent":
            return f"Consistent (Theorem {num})"
        if self.predicted == "inconsistent":
            return f"Inconsistent (Theorem {num})"
        if self.sufficient_only:
            return f"Unknown (Theorem {num} sufficient only)"
        return f"Unknown (Theorem {num})"

    def to_dict(self) -> dict:
        """The verdict block of report.json and of `gprior-lab theorem --json`."""
        return {
            "theorem": self.theorem,
            "predicted": self.predicted,
            "sufficient_only": self.sufficient_only,
            "display": self.display(),
            "evidence": self.evidence,
        }


def _offset_norms(scenario: Scenario, n_grid) -> tuple:
    """(ns, sup, sq): the extended grid with ||gamma - beta0||_inf and
    ||gamma - beta0||_2^2 at each n, building each coordinate of each
    offset at most once, OFFSET_BLOCK coordinates at a time.  The walk
    stops after the block that holds the end of the longer of the two
    rules' nonzero prefixes: the blocks after it would add only 0.0, and
    the blocks walked are the whole walk's, so every bit is the whole
    walk's."""
    ns = _extended_grid(n_grid)
    gamma, beta0 = scenario.gamma_rule, scenario.beta0_rule
    sup, sq = [], []
    for n in ns:
        p = scenario.p_at(n)
        top = total = 0.0
        for start in range(0, max(gamma.nonzero_end(n, p), beta0.nonzero_end(n, p)), OFFSET_BLOCK):
            stop = min(start + OFFSET_BLOCK, p)
            d = gamma.values(n, p, start, stop) - beta0.values(n, p, start, stop)
            top = max(top, float(np.max(np.abs(d))))
            total += float(d @ d)
        sup.append(top)
        sq.append(total)
    return ns, sup, sq


def _trace(ns, values) -> dict:
    return {"ns": ns, "values": values, "class": _classify_profile(values)}


def evaluate_theorem1(scenario: Scenario, n_grid, norms=None) -> TheoremVerdict:
    """Verdict for a deterministic-g scenario: consistent iff the posterior
    center offset ||gamma - beta0||_inf / (g_n + 1) and the spread proxy
    g_n (g_n + 1)^{-2} (log p_n) ||gamma - beta0||_2^2 / n both vanish.
    ``norms`` is the scenario's _offset_norms profile, computed here when
    omitted."""
    if not isinstance(scenario.regime, FixedG):
        raise ValueError("evaluate_theorem1 applies only to the fixed-g regime")
    ns, sup, sq = norms or _offset_norms(scenario, n_grid)
    gs = [scenario.regime.g_at(n) for n in ns]
    center = [s / (g + 1.0) for s, g in zip(sup, gs)]
    spread = [
        g / (g + 1.0) ** 2 * math.log(scenario.p_at(n)) / n * d2 for n, g, d2 in zip(ns, gs, sq)
    ]
    ev = {"center_condition": _trace(ns, center), "spread_condition": _trace(ns, spread)}
    classes = (ev["center_condition"]["class"], ev["spread_condition"]["class"])
    if all(c == "zero" for c in classes):
        predicted = "consistent"
    elif any(c in ("positive", "diverging") for c in classes):
        predicted = "inconsistent"
    else:
        predicted = "unknown"
    return TheoremVerdict(theorem="T1", predicted=predicted, evidence=ev)


def evaluate_theorem_subsequence_condition(scenario: Scenario, n_grid, norms=None):
    """The shared condition of the data-dependent regimes: holds when
    alpha = 0, or when the squared offset does not settle at a finite
    positive constant while the sup offset stays away from zero.

    Returns (holds, evidence) with holds None when a limit cannot be
    classified.  The scenario rule vocabulary only produces monotone-type
    sequences, so full-sequence limits settle subsequence behavior.
    ``norms`` is as for evaluate_theorem1.
    """
    ns, sup, sq = norms or _offset_norms(scenario, n_grid)
    ev = {"alpha": scenario.alpha, "offset_sq": _trace(ns, sq), "offset_sup": _trace(ns, sup)}
    if scenario.alpha == 0.0:
        return True, ev
    sq_class = ev["offset_sq"]["class"]
    sup_class = ev["offset_sup"]["class"]
    if sq_class in ("zero", "diverging"):
        return True, ev
    if sq_class == "positive":
        if sup_class in ("positive", "diverging"):
            return False, ev
        if sup_class == "zero":
            return True, ev
    return None, ev


def predict_verdict(scenario: Scenario, n_grid, norms=None) -> TheoremVerdict:
    """Dispatch to the regime's consistency result; ``norms`` is as for
    evaluate_theorem1."""
    regime = scenario.regime
    if isinstance(regime, FixedG):
        return evaluate_theorem1(scenario, n_grid, norms)
    if isinstance(regime, EmpiricalBayesG):
        theorem = "T2"
    elif isinstance(regime, HyperG):
        theorem = "T3"
    elif isinstance(regime, ZellnerSiowG):
        theorem = "T4"
    else:
        raise ValueError(f"unknown regime {regime!r}")
    holds, ev = evaluate_theorem_subsequence_condition(scenario, n_grid, norms)
    # Theorem 4's condition is sufficient only: its failure proves nothing
    sufficient_only = theorem == "T4" and holds is not None
    if holds:
        predicted = "consistent"
    elif holds is None or sufficient_only:
        predicted = "unknown"
    else:
        predicted = "inconsistent"
    return TheoremVerdict(theorem=theorem, predicted=predicted, sufficient_only=sufficient_only, evidence=ev)


# ---------------------------------------------------------------------------
# experiments


@dataclass
class ExperimentReport:
    """Everything one experiment produced.  canonical_json() is bitwise
    deterministic for a given (scenario, grids, reps, master_seed) and
    excludes wall_time_s, the only nondeterministic field."""

    scenario_doc: dict
    n_grid: tuple
    eps_grid: tuple
    reps: int
    master_seed: int
    cells: list
    aggregates: list
    verdict: TheoremVerdict
    agreement: Optional[bool]
    wall_time_s: float
    lemma_outcomes: list = field(default_factory=list)

    @property
    def scenario_name(self) -> str:
        return self.scenario_doc["name"]

    @property
    def regime_name(self) -> str:
        return self.scenario_doc["regime"]["kind"]

    def to_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "scenario": self.scenario_doc,
            "n_grid": list(self.n_grid),
            "eps_grid": list(self.eps_grid),
            "reps": self.reps,
            "master_seed": self.master_seed,
            "cells": self.cells,
            "aggregates": self.aggregates,
            "verdict": self.verdict.to_dict(),
            "agreement": self.agreement,
            "lemmas": [asdict(o) for o in self.lemma_outcomes],
        }
        if include_timing:
            doc["wall_time_s"] = self.wall_time_s
        return doc

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(include_timing=False), sort_keys=True, separators=(",", ":"))

    def to_json(self) -> str:
        """The text of report.json."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["scenario", "regime", "n", "p", "rep", "eps", "prob", "se", "seed"])
        name, regime = self.scenario_name, self.regime_name
        for c in self.cells:
            writer.writerow(
                [name, regime, c["n"], c["p"], c["rep"], c["eps"], c["prob"], c["se"], c["seed"]]
            )
        return out.getvalue()


def check_radii(eps_grid) -> tuple:
    """The radii of an eps grid, ascending; a ValueError unless they are
    distinct finite numbers > 0, at least one."""
    radii = tuple(sorted(float(e) for e in eps_grid))
    if not radii:
        raise ValueError("empty eps grid")
    if not all(math.isfinite(e) for e in radii):
        raise ValueError("eps values must be finite")
    if any(e <= 0 for e in radii):
        raise ValueError("eps values must be > 0")
    if len(set(radii)) != len(radii):
        raise ValueError("duplicate eps values")
    return radii


def _checked_grid(scenario: Scenario, n_grid, reps: int) -> tuple:
    """The n grid as a tuple of ints, once reps >= 1 and the scenario's
    grid checks hold."""
    n_grid = tuple(int(n) for n in n_grid)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    scenario.validate_grid(n_grid)
    return n_grid


def _agreement(predicted: str, trends) -> Optional[bool]:
    """Whether the per-radius trends bear out the predicted verdict; None
    when the verdict is unknown or the trends decide nothing."""
    if predicted == "unknown":
        return None
    if all(t == "vanishing" for t in trends):
        return predicted == "consistent"
    if any(t == "bounded_away" for t in trends):
        return predicted == "inconsistent"
    return None


def _dataset(scenario, n, rep, gram, master_seed):
    """Dataset (n, rep) on the design ``gram`` at n, drawn from its keyed
    stream: the stream, the sufficient statistics and their diagnostics.
    Every entry point draws its datasets here."""
    cell = RngStream(master_seed, (scenario.name, n, rep))
    stats = simulate_stats(scenario, n, cell.child("sim"), gram)
    return cell, stats, diagnostics(stats, scenario.gamma_at(n), scenario.prior)


def _datasets(scenario, n_grid, reps, master_seed):
    """(n, rep, stats, diagnostics) of every dataset of a serial run, grid
    then rep order; each n's design is drawn once and shared by its reps."""
    for n in n_grid:
        gram = design_at(scenario, n, master_seed)
        for rep in range(reps):
            yield (n, rep, *_dataset(scenario, n, rep, gram, master_seed)[1:])


def _run_cell(scenario, n, rep, gram, master_seed, eps_grid, opts, lemmas):
    """The cell's rows, one per radius, and with ``lemmas`` its lemma
    record (else None), both from one draw of the dataset."""
    cell, stats, diag = _dataset(scenario, n, rep, gram, master_seed)
    post = build_g_posterior(scenario.regime, stats, diag.quad_form, scenario.prior)
    bp = sup_ball_probability(
        post, stats, scenario.gamma_at(n), scenario.beta0_at(n), eps_grid, opts, cell.child("ball")
    )
    rows = [
        {
            "n": int(n),
            "p": int(stats.p),
            "rep": int(rep),
            "eps": float(eps),
            "prob": float(bp.value[k]),
            "se": None if bp.std_error is None else float(bp.std_error[k]),
            "method": bp.method,
            "seed": int(master_seed),
            "path": [scenario.name, int(n), int(rep)],
        }
        for k, eps in enumerate(eps_grid)
    ]
    return rows, _lemma_record(scenario, n, stats, diag) if lemmas else None


def run_experiment(
    scenario: Scenario,
    n_grid,
    eps_grid,
    reps: int,
    master_seed: int = 0,
    threads: int = 1,
    ball_options: Optional[BallOptions] = None,
    include_lemmas: bool = False,
) -> ExperimentReport:
    """Simulate ``reps`` datasets at each n, evaluate the posterior
    probability of leaving each eps-ball around the truth, and assemble
    the report with trend classes, the theorem verdict, and their
    agreement.  With include_lemmas the concentration checks judge the
    same datasets and are embedded in the report."""
    t0 = time.perf_counter()
    eps_grid = check_radii(eps_grid)
    if threads < 1:
        raise ValueError("threads must be >= 1")
    n_grid = _checked_grid(scenario, n_grid, reps)
    opts = ball_options or BallOptions()

    # largest n (the costliest cells) first, so no thread is left with one
    # long cell at the end; each cell has its own stream, so order is moot
    tasks = [(n, rep) for n in reversed(n_grid) for rep in range(reps)]
    # one design per n, shared by all its reps; drawn one at a time, so at
    # most one basis factorisation is in memory.  A rotated design keeps
    # its basis and the float32 copy of its transpose that every rep's MC
    # route rotates its draws through: 1.5 times the basis per n
    designs = {n: design_at(scenario, n, master_seed) for n in n_grid}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(
            pool.map(
                lambda t: _run_cell(
                    scenario, t[0], t[1], designs[t[0]], master_seed, eps_grid, opts, include_lemmas
                ),
                tasks,
            )
        )
    cells = [row for rows, _ in results for row in rows]
    cells.sort(key=lambda c: (c["n"], c["rep"], c["eps"]))

    # (quartile, n, eps) from the cells in (n, rep, eps) order
    probs = np.array([c["prob"] for c in cells]).reshape(len(n_grid), reps, len(eps_grid))
    q25, med, q75 = np.quantile(probs, [0.25, 0.5, 0.75], axis=1).transpose(0, 2, 1).tolist()
    aggregates = [
        {
            "eps": eps,
            "n_grid": list(n_grid),
            "prob_median": med[j],
            "prob_q25": q25[j],
            "prob_q75": q75[j],
            "trend": classify_trend(med[j]),
        }
        for j, eps in enumerate(eps_grid)
    ]

    norms = _offset_norms(scenario, n_grid)
    verdict = predict_verdict(scenario, n_grid, norms)

    lemma_outcomes = (
        _judge_lemmas(scenario, n_grid, norms[2], [record for _, record in results])
        if include_lemmas
        else []
    )

    return ExperimentReport(
        scenario_doc=scenario_to_dict(scenario),
        n_grid=n_grid,
        eps_grid=eps_grid,
        reps=reps,
        master_seed=master_seed,
        cells=cells,
        aggregates=aggregates,
        verdict=verdict,
        agreement=_agreement(verdict.predicted, [a["trend"] for a in aggregates]),
        wall_time_s=time.perf_counter() - t0,
        lemma_outcomes=lemma_outcomes,
    )


# ---------------------------------------------------------------------------
# lemma verification


@dataclass(frozen=True)
class LemmaOutcome:
    """Result of one simulation-checkable concentration property."""

    name: str
    passed: Optional[bool]
    skipped: bool = False
    reason: str = ""
    details: dict = field(default_factory=dict)


def _lemma_record(scenario: Scenario, n: int, stats, diag) -> dict:
    """The statistics of one dataset, under the truth (beta0, sigma0_sq),
    that the lemma checks summarise; entries a check cannot use for this
    scenario or n are None."""
    prior, sigma0_sq, beta0 = scenario.prior, scenario.sigma0_sq, scenario.beta0_at(n)
    rb, q = diag.resid_plus_b, diag.quad_form
    d = scenario.gamma_at(n) - beta0
    # E0(quad_form) = p sigma0^2 + d' X'X d
    expected_q = stats.p * sigma0_sq + _gram_quadform(stats.gram, d)
    # u at g + 1 = ||d||_inf / eps (eps = 0.1), below which prior shrinkage
    # alone moves some coordinate by more than eps
    r = float(np.max(np.abs(d))) / 0.1
    cutoff = r * rb / (r * rb + q) if r * rb + q > 0.0 else 0.0
    record = {
        "n": n,
        "mle_err": mle_sup_error(stats, beta0),
        "resid_ratio": stats.resid_ss / ((n - stats.p) * sigma0_sq),
        "quad_ratio": q / expected_q,
        "u_floor": diag.u_floor,
        "u_cutoff": max(diag.u_floor, cutoff),
        "eb_ghat": None,
        "scale_ratio": None,
        "sigma2_cover": None,
    }
    if improper_reason(EmpiricalBayesG(), n, stats.p, prior.a) is None:
        record["eb_ghat"] = eb_ghat(n, stats.p, prior.a, rb, q)
    if isinstance(scenario.regime, FixedG):
        g = scenario.regime.g_at(n)
        # S + b + quad_form / (g + 1), twice the variance-posterior scale,
        # and its expectation under the truth
        total = rb + q / (g + 1.0)
        expected = (n - stats.p) * sigma0_sq + prior.b + expected_q / (g + 1.0)
        record["scale_ratio"] = total / expected
        # P(lo <= sigma^2 <= hi) under sigma^2 | g ~ InverseGamma(shape, scale),
        # whose cdf at x is gammaincc(shape, scale / x)
        shape, scale = 0.5 * (n + prior.a - 2.0), 0.5 * total
        lo, hi = expected / (2.0 * n), 2.0 * expected / n
        record["sigma2_cover"] = float(gammaincc(shape, scale / hi) - gammaincc(shape, scale / lo))
    return record


def _skipped(name: str, reason: str) -> LemmaOutcome:
    return LemmaOutcome(name=name, passed=None, skipped=True, reason=reason)


def _near_one(name: str, ratio: float) -> LemmaOutcome:
    """A ratio check: the final median lies within 0.1 of 1."""
    return LemmaOutcome(
        name=name,
        passed=bool(abs(ratio - 1.0) < 0.1),
        details={"final_median": ratio, "tolerance": 0.1},
    )


def _judge_lemmas(scenario: Scenario, n_grid: tuple, sq: list, records: list) -> list:
    """The LemmaOutcome of each check, judged on the squared-offset profile
    ``sq`` of _offset_norms and the lemma records of the datasets at every
    n of the grid."""
    sq_class = _classify_profile(sq)
    final = n_grid[-1]

    def values(key, n):
        return [r[key] for r in records if r["n"] == n and r[key] is not None]

    def med(key, n):
        return float(np.median(values(key, n)))

    # sup-norm error of the least-squares estimate vanishes
    meds = [med("mle_err", n) for n in n_grid]
    slack = 0.01 * (1.0 + meds[0])
    ok = all(meds[i + 1] <= meds[i] + slack for i in range(len(meds) - 1)) and meds[-1] < 0.15
    outcomes = [
        LemmaOutcome(
            name="mle_sup_error_vanishes",
            passed=bool(ok),
            details={"medians": meds, "final_threshold": 0.15},
        ),
        # S / ((n - p) sigma0^2) concentrates at 1
        _near_one("resid_ratio_concentrates", med("resid_ratio", final)),
    ]

    # quad_form / E0(quad_form) concentrates at 1 (needs alpha > 0 or a
    # nonvanishing offset so the expectation grows)
    name = "quad_form_ratio_concentrates"
    if scenario.alpha > 0 or sq_class in ("positive", "diverging"):
        outcomes.append(_near_one(name, med("quad_ratio", final)))
    else:
        outcomes.append(_skipped(name, "needs alpha > 0 or a nonvanishing squared offset"))

    # scale_total(g_n) / E0(scale_total(g_n)) concentrates at 1, and the
    # variance posterior covers [E/(2n), 2E/n] (fixed g)
    if isinstance(scenario.regime, FixedG):
        outcomes.append(_near_one("scale_total_ratio_concentrates", med("scale_ratio", final)))
        cover = med("sigma2_cover", final)
        outcomes.append(
            LemmaOutcome(
                name="sigma2_interval_mass",
                passed=bool(cover > 0.99),
                details={"final_median": cover, "threshold": 0.99},
            )
        )
    else:
        for name in ("scale_total_ratio_concentrates", "sigma2_interval_mass"):
            outcomes.append(_skipped(name, "defined for the fixed-g regime"))

    # the marginal-likelihood maximizer stays away from zero when the
    # squared offset has a positive liminf
    name = "eb_ghat_stays_positive"
    ghats = values("eb_ghat", final)
    if sq_class in ("positive", "diverging") and ghats:
        low = float(np.min(ghats))
        outcomes.append(LemmaOutcome(name=name, passed=bool(low > 0.0), details={"final_min": low}))
    else:
        outcomes.append(_skipped(name, "needs a positive liminf of the squared offset"))

    # u_floor is asymptotically below (1 - alpha) lambda_max sigma0^2 /
    # (delta + lambda_max sigma0^2) when the squared offset settles at
    # delta > 0
    name = "u_floor_bounded"
    if sq_class == "positive":
        delta = sq[-1]
        lam = scenario.design.lambda_max
        bound = (1.0 - scenario.alpha) * lam * scenario.sigma0_sq / (delta + lam * scenario.sigma0_sq)
        worst = float(np.max(values("u_floor", final)))
        outcomes.append(
            LemmaOutcome(
                name=name,
                passed=bool(worst <= bound + 0.05),
                details={"final_max": worst, "bound": bound, "slack": 0.05, "delta": delta},
            )
        )
    else:
        outcomes.append(_skipped(name, "needs the squared offset to settle at a finite positive limit"))

    # u_floor and the eps-cutoff both vanish when the squared offset diverges
    name = "u_floor_and_cutoff_vanish"
    if sq_class == "diverging":
        w_med = med("u_floor", final)
        l_med = med("u_cutoff", final)
        outcomes.append(
            LemmaOutcome(
                name=name,
                passed=bool(w_med < VANISH_THRESHOLD and l_med < VANISH_THRESHOLD),
                details={"u_floor_median": w_med, "u_cutoff_median": l_med, "eps": 0.1},
            )
        )
    else:
        outcomes.append(_skipped(name, "needs a diverging squared offset"))
    return outcomes


def verify_lemmas(
    scenario: Scenario,
    n_grid,
    reps: int,
    master_seed: int = 0,
) -> list:
    """Check the concentration properties underpinning the verdict logic.

    Each check states its hypothesis; when the scenario does not satisfy
    it, the check is skipped with the reason recorded.  The datasets are
    those of run_experiment, drawn from the same per-(scenario, n, rep)
    streams, and judged exactly as its include_lemmas judges them.
    """
    n_grid = _checked_grid(scenario, n_grid, reps)
    records = [
        _lemma_record(scenario, n, stats, diag)
        for n, _, stats, diag in _datasets(scenario, n_grid, reps, master_seed)
    ]
    return _judge_lemmas(scenario, n_grid, _offset_norms(scenario, n_grid)[2], records)
