#!/usr/bin/env python3
"""Run every shipped scenario through the consistency lab and collect reports.

For each scenario JSON under scenarios/ this simulates the posterior
exceedance trends on a modest grid, prints the predicted verdict next to
the observed trend at every radius, and writes report.json + cells.csv
under --out/<scenario-name>/.  Defaults finish in a few minutes on a
laptop; raise --reps or widen --n-grid for sharper medians.

Typical use:

    python3 scripts/run_regime_suite.py
    python3 scripts/run_regime_suite.py --reps 50 --threads 8 --out /tmp/suite
    python3 scripts/run_regime_suite.py --scenario scenarios/zs_fixed_offset_alpha05.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from gprior_lab.model_core import load_scenario
from gprior_lab.posterior_engine import BallOptions
from gprior_lab.consistency_lab import run_experiment

REPO_ROOT = Path(__file__).resolve().parent.parent

# exact route with capped quadrature: on the two mixture scenarios its
# probabilities stay within 4e-4 of the full defaults and cells run 10-13x
# faster (README "Performance notes")
SUITE_OPTIONS = BallOptions(method="exact", g_quad=64, sigma_grid=65)


def parse_int_grid(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def parse_float_grid(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def run_one(path: Path, args: argparse.Namespace) -> dict:
    scenario = load_scenario(path)
    t0 = time.perf_counter()
    report = run_experiment(
        scenario,
        n_grid=args.n_grid,
        eps_grid=args.eps,
        reps=args.reps,
        master_seed=args.seed,
        threads=args.threads,
        ball_options=SUITE_OPTIONS,
        include_lemmas=args.lemmas,
    )
    elapsed = time.perf_counter() - t0

    out_dir = args.out / scenario.name
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    (out_dir / "cells.csv").write_text(report.to_csv())

    print(f"== {scenario.name} ({report.regime_name}, alpha={scenario.alpha})")
    print(f"   verdict:   {report.verdict.display()}")
    for agg in report.aggregates:
        meds = ", ".join(f"{m:.3g}" for m in agg["prob_median"])
        print(f"   eps={agg['eps']:<5g} medians [{meds}] -> {agg['trend']}")
    print(f"   agreement: {report.agreement}   [{elapsed:.1f} s]")
    if args.lemmas:
        for o in report.lemma_outcomes:
            status = "SKIP" if o.skipped else ("PASS" if o.passed else "FAIL")
            print(f"   lemma {status:<4} {o.name}")
    return {
        "scenario": scenario.name,
        "regime": report.regime_name,
        "verdict": report.verdict.display(),
        "trends": {str(a["eps"]): a["trend"] for a in report.aggregates},
        "agreement": report.agreement,
        "seconds": round(elapsed, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        type=Path,
        action="append",
        help="scenario JSON to run (repeatable; default: every file in scenarios/)",
    )
    parser.add_argument("--out", type=Path, default=Path("suite_out"))
    parser.add_argument("--n-grid", type=parse_int_grid, default=(200, 800, 3200))
    parser.add_argument("--eps", type=parse_float_grid, default=(0.1, 0.5))
    parser.add_argument("--reps", type=int, default=30)
    parser.add_argument("--seed", type=int, default=20260815)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument(
        "--lemmas",
        action="store_true",
        help="also run the concentration checks and embed them in each report",
    )
    args = parser.parse_args(argv)

    paths = args.scenario or sorted((REPO_ROOT / "scenarios").glob("*.json"))
    if not paths:
        print("no scenario files found", file=sys.stderr)
        return 2

    summary = [run_one(Path(p), args) for p in paths]
    (args.out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nwrote {len(summary)} reports under {args.out}/ (+ summary.json)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
