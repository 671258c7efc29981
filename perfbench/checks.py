"""Correctness checks and summary statistics for the benchmark.

A report document is the dict that ``ExperimentReport.to_dict`` (or the
``report.json`` written by ``gprior-lab experiment``) produces.  The
reference for a workload holds, per scenario, the digest that
``digest_report`` extracts from the report made at the reference seed.
"""

from __future__ import annotations

import math
import statistics

# exact-route probabilities may move by at most this much from the reference
MAX_PROB_ERR = 1e-6
# Monte Carlo probabilities may differ from the reference by at most this
# many combined standard errors
MAX_MC_Z = 4.0
# slack for exceedance being nonincreasing in eps on the exact route
MONOTONE_SLACK = 1e-12


def summarize(values) -> dict:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives
    them (one value: all three equal), plus the sample count."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("summarize needs at least one value")
    if len(vals) == 1:
        q1 = med = q3 = vals[0]
    else:
        q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


def digest_report(doc: dict) -> dict:
    """The parts of a report the reference pins: per-cell probabilities,
    trend classes, the verdict, agreement and lemma outcomes."""
    return {
        "cells": [
            [c["n"], c["rep"], c["eps"], c["prob"], c["se"], c["method"]] for c in doc["cells"]
        ],
        "trends": {repr(float(a["eps"])): a["trend"] for a in doc["aggregates"]},
        "verdict": doc["verdict"]["display"],
        "agreement": doc["agreement"],
        "lemmas": {lem["name"]: lem["passed"] for lem in doc.get("lemmas", [])},
    }


def mc_standard_error(prob: float, se, draws: int) -> float:
    """The reported binomial standard error, floored at half a draw: at an
    estimate of 0 or 1 the binomial formula gives 0, which would make any
    difference infinitely significant."""
    floor_p = min(max(prob, 0.5 / draws), 1.0 - 0.5 / draws)
    floor = math.sqrt(floor_p * (1.0 - floor_p) / draws)
    return max(floor, se or 0.0)


def mc_z(prob, se, ref_prob, ref_se, draws: int) -> float:
    """|p - p_ref| in units of the combined (floored) standard error."""
    combined = math.hypot(
        mc_standard_error(prob, se, draws), mc_standard_error(ref_prob, ref_se, draws)
    )
    return abs(prob - ref_prob) / combined


class Checker:
    """Accumulates correctness over every unit of a run.

    A cell is one (n, rep) pair of one report; it fails when its unit
    raised, when any of its probabilities breaks a reference-free check,
    or when it breaks a reference bound.
    """

    def __init__(self, mc_draws: int):
        self.mc_draws = mc_draws
        self.attempted = 0
        self.failed = 0
        self.max_prob_err = 0.0
        self.mc_max_z = 0.0
        self.trend_mismatches = 0
        self.nondeterministic = 0
        self.problems = []

    def raised(self, label: str, cells: int, error: str) -> None:
        self.attempted += cells
        self.failed += cells
        self.problems.append(f"{label}: raised {error}")

    def check(self, label: str, doc: dict, cells: int, reference=None, full=True) -> None:
        """Check one report of ``cells`` cells.  With a reference digest,
        compare the cells it shares with the report, and with ``full`` also
        its trend classes, verdict, agreement and lemmas."""
        self.attempted += cells
        bad = set()
        exact = {}
        for c in doc["cells"]:
            key = (c["n"], c["rep"])
            prob = c["prob"]
            if not (isinstance(prob, float) and 0.0 <= prob <= 1.0):
                bad.add(key)
                self.problems.append(f"{label}: probability {prob!r} outside [0, 1] at {key}")
            if c["method"] == "exact":
                exact.setdefault(key, []).append((c["eps"], prob))
        for key, rows in exact.items():
            probs = [p for _, p in sorted(rows)]
            if any(b > a + MONOTONE_SLACK for a, b in zip(probs, probs[1:])):
                bad.add(key)
                self.problems.append(f"{label}: exceedance increases with eps at {key}")
        if reference is not None:
            bad |= self._compare(label, doc, reference, full)
        self.failed += len(bad)

    def _compare(self, label, doc, reference, full) -> set:
        bad = set()
        ref_cells = {(n, rep, eps): (p, se, m) for n, rep, eps, p, se, m in reference["cells"]}
        for c in doc["cells"]:
            ref = ref_cells.get((c["n"], c["rep"], c["eps"]))
            if ref is None:
                continue
            ref_prob, ref_se, ref_method = ref
            key = (c["n"], c["rep"])
            if c["method"] != ref_method:
                bad.add(key)
                self.problems.append(f"{label}: method {c['method']} != reference {ref_method} at {key}")
            elif c["method"] == "exact":
                err = abs(c["prob"] - ref_prob)
                self.max_prob_err = max(self.max_prob_err, err)
                if err > MAX_PROB_ERR:
                    bad.add(key)
                    self.problems.append(f"{label}: |p - p_ref| = {err:.3g} at {key}, eps={c['eps']}")
            else:
                z = mc_z(c["prob"], c["se"], ref_prob, ref_se, self.mc_draws)
                self.mc_max_z = max(self.mc_max_z, z)
                if z > MAX_MC_Z:
                    bad.add(key)
                    self.problems.append(f"{label}: mc z = {z:.3g} at {key}, eps={c['eps']}")
        if full:
            got = digest_report(doc)
            diffs = [eps for eps, t in reference["trends"].items() if got["trends"].get(eps) != t]
            diffs += [k for k in ("verdict", "agreement") if got[k] != reference[k]]
            diffs += [
                f"lemma {name}"
                for name, passed in reference["lemmas"].items()
                if got["lemmas"].get(name) != passed
            ]
            self.trend_mismatches += len(diffs)
            if diffs:
                self.problems.append(f"{label}: differs from the reference in {diffs}")
        return bad

    def same_bytes(self, label: str, first: str, again: str) -> None:
        """Record a determinism check: two canonical_json texts of the same
        inputs must be byte-identical."""
        if first != again:
            self.nondeterministic += 1
            self.problems.append(f"{label}: canonical_json differs between repeats")

    @property
    def failed_cell_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return (
            self.attempted > 0
            and self.failed == 0
            and self.trend_mismatches == 0
            and self.nondeterministic == 0
            and self.max_prob_err <= MAX_PROB_ERR
            and self.mc_max_z <= MAX_MC_Z
        )

    def summary(self) -> dict:
        return {
            "max_prob_err": self.max_prob_err,
            "mc_max_z": self.mc_max_z,
            "failed_cell_ratio": self.failed_cell_ratio,
            "trend_mismatches": self.trend_mismatches,
            "nondeterministic_units": self.nondeterministic,
        }
