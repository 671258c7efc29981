"""Command-line interface.

Subcommands:
  simulate    draw sufficient statistics and print per-dataset diagnostics
  experiment  run a ball-probability experiment on each of one or more
              scenarios, write report + csv
  theorem     print the predicted verdict for a scenario
  lemmas      verify the supporting concentration properties by simulation
  plot        render deterministic SVG trend plots from a report.json

Exit codes: 0 success; 2 usage or configuration errors (bad flags,
negative seeds, malformed scenario JSON, model assumption violations,
--method exact on a rotated design, two experiment scenarios of one
name); 3 runtime failures (numerically degenerate posteriors, failed
lemma checks, empty or malformed reports, unreadable or unwritable
files).

The master seed of simulate, experiment and lemmas, an integer >= 0,
comes from --seed, falling back to the GPRIOR_LAB_SEED environment
variable, then 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from .model_core import ScenarioError, _finite, load_scenario
from .posterior_engine import BallOptions
from .consistency_lab import (
    REPORT_SCHEMA_VERSION,
    _datasets,
    _lemma_record,
    check_radii,
    predict_verdict,
    run_experiment,
    verify_lemmas,
)

__all__ = ["main"]


def _int_list(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _int_at_least(low: int):
    """An argparse type: an integer >= low, so bad counts exit 2 as usage errors."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    return parse


def _eps_grid(text: str) -> tuple:
    """An argparse type: comma-separated radii, each grid error a usage error (exit 2)."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    try:
        return check_radii(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GPRIOR_LAB_SEED")
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise ScenarioError(f"GPRIOR_LAB_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ScenarioError(f"GPRIOR_LAB_SEED must be an integer >= 0, got {seed}")
    return seed


def _add_common(sub, reps=None):
    """--n-grid; with ``reps``, the --seed and --reps of a command that draws datasets."""
    sub.add_argument("--n-grid", type=_int_list, required=True, help="comma-separated sample sizes")
    if reps is not None:
        sub.add_argument("--seed", type=_int_at_least(0), default=None, help="master seed (default: $GPRIOR_LAB_SEED or 0)")
        sub.add_argument("--reps", type=_int_at_least(1), default=reps, help=f"replications per n (default {reps})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each parse_args call
    returns a new namespace and leaves the parser as it was."""
    parser = argparse.ArgumentParser(prog="gprior-lab", description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="draw datasets and print diagnostics")
    sim.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    _add_common(sim, reps=1)
    sim.add_argument("--out", default=None, help="write JSON here instead of stdout")
    sim.set_defaults(func=_cmd_simulate)

    exp = subs.add_parser("experiment", help="run a ball-probability experiment")
    exp.add_argument(
        "--scenario", nargs="+", action="extend", required=True,
        help="scenario JSON files, the flag repeatable; with several, each writes to --out/<name>/",
    )
    _add_common(exp, reps=20)
    exp.add_argument("--eps-grid", type=_eps_grid, required=True, help="comma-separated radii")
    exp.add_argument("--threads", type=_int_at_least(1), default=1)
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--format", choices=("json", "csv", "both"), default="both")
    exp.add_argument("--method", choices=("auto", "exact", "mc"), default="auto")
    exp.add_argument("--mc-draws", type=_int_at_least(1), default=20_000)
    exp.add_argument("--with-lemmas", action="store_true", help="also run the concentration checks and embed them in the report")
    exp.set_defaults(func=_cmd_experiment)

    thm = subs.add_parser("theorem", help="print the predicted verdict")
    thm.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    _add_common(thm)
    thm.add_argument("--json", action="store_true", help="emit the full verdict with evidence as JSON")
    thm.add_argument("--out", default=None, help="directory to write verdict.json into")
    thm.set_defaults(func=_cmd_theorem)

    lem = subs.add_parser("lemmas", help="verify concentration properties by simulation")
    lem.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    _add_common(lem, reps=100)
    lem.set_defaults(func=_cmd_lemmas)

    plot = subs.add_parser("plot", help="render SVG trend plots from a report")
    plot.add_argument("--report", required=True, help="path to a report.json written by 'experiment'")
    plot.add_argument("--out", required=True, help="output directory for SVG files")
    plot.set_defaults(func=_cmd_plot)
    return parser


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = _resolve_seed(args)
    scenario.validate_grid(args.n_grid)
    # an unwritable --out fails here, before any dataset is drawn
    with nullcontext(sys.stdout) if args.out is None else open(args.out, "w") as out:
        draws = []
        for n, rep, stats, diag in _datasets(scenario, args.n_grid, args.reps, seed):
            record = _lemma_record(scenario, n, stats, diag)
            draws.append(
                {
                    "n": n,
                    "p": stats.p,
                    "rep": rep,
                    "resid_ss": stats.resid_ss,
                    "quad_form": diag.quad_form,
                    "u_floor": diag.u_floor,
                    "mle_sup_error": record["mle_err"],
                    "eb_ghat": record["eb_ghat"],
                }
            )
        doc = {"scenario": scenario.name, "master_seed": seed, "draws": draws}
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    # every scenario is loaded and checked, then --out created, before any
    # cell runs: a bad scenario exits 2 and an unwritable --out 3 with no
    # work lost
    scenarios = [load_scenario(path) for path in args.scenario]
    for scenario in scenarios:
        scenario.validate_grid(args.n_grid)
        if args.method == "exact" and scenario.design.kind != "orthogonal":
            raise ScenarioError(
                f"--method exact needs an axis-aligned design, but scenario {scenario.name!r} "
                f"has a {scenario.design.kind!r} design; use --method auto or mc"
            )
    out = Path(args.out)
    if len(scenarios) == 1:
        outs = [out]
    else:
        names = [scenario.name for scenario in scenarios]
        for name in names:
            if names.count(name) > 1:
                raise ScenarioError(f"two scenarios are named {name!r}, but each writes to --out/<name>/")
            if name in (".", "..") or "/" in name or os.sep in name:
                raise ScenarioError(f"scenario name {name!r} is not a directory name, but each writes to --out/<name>/")
        outs = [out / name for name in names]
    seed = _resolve_seed(args)
    opts = BallOptions(method=args.method, mc_draws=args.mc_draws)
    for path in outs:
        path.mkdir(parents=True, exist_ok=True)
    for scenario, out_dir in zip(scenarios, outs):
        report = run_experiment(
            scenario,
            args.n_grid,
            args.eps_grid,
            reps=args.reps,
            master_seed=seed,
            threads=args.threads,
            ball_options=opts,
            include_lemmas=args.with_lemmas,
        )
        if args.format in ("json", "both"):
            path = out_dir / "report.json"
            path.write_text(report.to_json())
            print(f"wrote {path}")
        if args.format in ("csv", "both"):
            path = out_dir / "cells.csv"
            path.write_text(report.to_csv())
            print(f"wrote {path}")
        print(f"Verdict: {report.verdict.display()}")
        for agg in report.aggregates:
            print(f"eps={agg['eps']!r}: exceedance trend {agg['trend']}")
        print(f"Agreement: {report.agreement}")
    return 0


def _cmd_theorem(args) -> int:
    scenario = load_scenario(args.scenario)
    scenario.validate_grid(args.n_grid)
    verdict = predict_verdict(scenario, args.n_grid)
    doc = verdict.to_dict()
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(verdict.display())
        for key, trace in sorted(verdict.evidence.items()):
            if isinstance(trace, dict) and "values" in trace:
                vals = trace["values"]
                print(f"  {key}: {trace['class']} [{vals[0]:.6g} .. {vals[-1]:.6g}]")
            else:
                print(f"  {key}: {trace!r}")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "verdict.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_lemmas(args) -> int:
    scenario = load_scenario(args.scenario)
    seed = _resolve_seed(args)
    outcomes = verify_lemmas(scenario, args.n_grid, reps=args.reps, master_seed=seed)
    for oc in outcomes:
        if oc.skipped:
            print(f"SKIP {oc.name}: {oc.reason}")
        else:
            print(f"{'PASS' if oc.passed else 'FAIL'} {oc.name} {json.dumps(oc.details, sort_keys=True)}")
    return 3 if any(oc.passed is False for oc in outcomes) else 0


def _cmd_plot(args) -> int:
    # a missing or corrupt report is a runtime failure (exit 3), not a
    # scenario-validation failure
    try:
        doc = json.loads(Path(args.report).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read report {args.report}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {args.report} at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict) or doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ValueError(f"unsupported or missing report schema_version; expected {REPORT_SCHEMA_VERSION}")
    aggregates = doc.get("aggregates") or []
    cells = doc.get("cells") or []
    if not cells or not aggregates:
        raise ValueError("report contains no cells to plot")
    scenario, verdict = doc.get("scenario", {}), doc.get("verdict", {})
    name = scenario.get("name", "scenario") if isinstance(scenario, dict) else None
    display = verdict.get("display", "") if isinstance(verdict, dict) else None
    labels_ok = all(isinstance(t, str) and t.isprintable() for t in (name, display))
    if not (labels_ok and all(map(_plottable, aggregates))):
        raise ValueError(
            "malformed report: 'scenario' and 'verdict' must be objects whose name and display "
            "are printable strings, and each aggregate needs a numeric eps and an n_grid with "
            "prob_median, prob_q25 and prob_q75 of its length"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for agg in aggregates:
        svg = _render_svg(name, display, agg)
        path = out / f"ball_prob_eps_{agg['eps']}.svg"
        path.write_text(svg)
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# deterministic SVG rendering (median line with interquartile band, log-x)


def _plottable(agg) -> bool:
    """Whether an aggregate holds all _render_svg reads: a numeric eps and a
    nonempty n_grid of positive numbers with the three prob_* lists of
    numbers at its length."""
    if not isinstance(agg, dict) or not _finite(agg.get("eps")):
        return False
    cols = [agg.get(k) for k in ("n_grid", "prob_median", "prob_q25", "prob_q75")]
    if not all(isinstance(c, list) and len(c) == len(cols[0]) > 0 for c in cols):
        return False
    return all(_finite(x) for c in cols for x in c) and min(cols[0]) > 0


_W, _H = 640, 420
_L, _R, _T, _B = 70, 620, 40, 370


def _xmap(n_values):
    logs = [math.log(n) for n in n_values]
    lo, hi = min(logs), max(logs)
    span = (hi - lo) or 1.0
    return [(_L + (_R - _L) * (x - lo) / span) for x in logs]


def _ymap(p: float) -> float:
    return _B - (_B - _T) * min(max(p, 0.0), 1.0)


def _pts(xs, ys) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def _render_svg(scenario_name: str, verdict_display: str, agg: dict) -> str:
    # imported here: `cli` import time is part of every command's start-up
    from html import escape

    ns = agg["n_grid"]
    xs = _xmap(ns)
    med = [_ymap(v) for v in agg["prob_median"]]
    q25 = [_ymap(v) for v in agg["prob_q25"]]
    q75 = [_ymap(v) for v in agg["prob_q75"]]
    band = _pts(xs + xs[::-1], q25 + q75[::-1])
    line = _pts(xs, med)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_L}" y="22" font-family="monospace" font-size="13">'
        f"{escape(scenario_name, False)} eps={agg['eps']!r} [{escape(verdict_display, False)}]</text>",
        f'<line x1="{_L}" y1="{_B}" x2="{_R}" y2="{_B}" stroke="black" stroke-width="1"/>',
        f'<line x1="{_L}" y1="{_T}" x2="{_L}" y2="{_B}" stroke="black" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _ymap(frac)
        parts.append(f'<line x1="{_L - 4}" y1="{y:.2f}" x2="{_L}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{_L - 8}" y="{y + 4:.2f}" font-family="monospace" font-size="11" '
            f'text-anchor="end">{frac:.2f}</text>'
        )
    for n, x in zip(ns, xs):
        parts.append(f'<line x1="{x:.2f}" y1="{_B}" x2="{x:.2f}" y2="{_B + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{_B + 18}" font-family="monospace" font-size="11" '
            f'text-anchor="middle">{n}</text>'
        )
    parts.append(
        f'<text x="{(_L + _R) // 2}" y="{_H - 8}" font-family="monospace" font-size="12" '
        'text-anchor="middle">n (log scale)</text>'
    )
    parts.append(
        f'<text x="16" y="{(_T + _B) // 2}" font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {(_T + _B) // 2})" text-anchor="middle">P(sup deviation &gt; eps)</text>'
    )
    parts.append(f'<polygon points="{band}" fill="#9ecae1" fill-opacity="0.45" stroke="none"/>')
    parts.append(
        f'<polyline points="{line}" fill="none" stroke="#08519c" stroke-width="2"/>'
    )
    for x, y in zip(xs, med):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#08519c"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ScenarioError) else 3


if __name__ == "__main__":
    sys.exit(main())
