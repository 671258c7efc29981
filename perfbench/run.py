#!/usr/bin/env python3
"""Benchmark of gprior-lab, run from the root of a checkout:

    python3 perfbench/run.py --workload suite_mixture [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all        # every workload, reference seed
    python3 perfbench/run.py --workload W --write-reference

A run repeats whole rounds (one pass over the workload's scenarios at the
run's seed) until --seconds have passed and reports, with --trace 0, the
end-to-end metrics setup_s, cells_per_s and peak_rss_mb; with --trace 1 it
runs the same number of rounds untraced and then traced, and reports the
per-layer metrics of perfbench/tracing.py.  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.

Correctness: every report passes the reference-free checks (probabilities
in [0, 1], exact-route exceedance nonincreasing in eps) and repeats its
canonical_json byte for byte in every round; at the reference seed every
report matches perfbench/reference/<workload>.json.  After the timed
rounds, a slice (first n, two replications) is run at the reference seed
and compared with the reference cells, at each of the workload's slice
thread counts, whose canonical_json must agree.  A broken check prints
the result with "correct": false and exits 1.  Configuration errors (the
lab's sources missing, too few cores) exit 2 without a result.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from checks import MAX_MC_Z, MAX_PROB_ERR, Checker, digest_report, summarize
from tracing import LAYER_METRICS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFERENCE_SEED = 20260815
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple  # paths relative to the checkout root
    n_grid: tuple
    eps_grid: tuple
    reps: int
    threads: int
    slice_threads: tuple  # thread counts the reference slice runs at
    via_cli: bool = False
    ball_options: dict = field(default_factory=dict)  # BallOptions fields; unused by the CLI path


WORKLOADS = {
    w.name: w
    for w in (
        # the shipped suite's cost: the two mixtures at suite options, one
        # thread, bound by the exact normal-CDF kernel at p up to 1600
        Workload(
            name="suite_mixture",
            scenarios=(
                "scenarios/hyperg_fixed_offset_alpha05.json",
                "scenarios/zs_fixed_offset_alpha05.json",
            ),
            n_grid=(200, 800, 3200),
            eps_grid=(0.1, 0.5),
            reps=1,
            threads=1,
            slice_threads=(1, 2),
            ball_options={"method": "exact", "g_quad": 64, "sigma_grid": 65},
        ),
        # the user-facing path: `gprior-lab experiment` at its defaults
        # (auto method, 512-node g-grid, sigma_grid 129) with lemmas and
        # both report formats, then `gprior-lab plot`, on every shipped scenario
        Workload(
            name="cli_defaults",
            scenarios=tuple(
                f"scenarios/{s}.json"
                for s in (
                    "eb_diverging_norm_alpha05",
                    "eb_fixed_offset_alpha05",
                    "eb_fixed_offset_alpha0_sqrtp",
                    "fixed_gn_unit_info_alpha05",
                    "hyperg_fixed_offset_alpha05",
                    "zs_fixed_offset_alpha05",
                )
            ),
            n_grid=(100, 200, 400),
            eps_grid=(0.05, 0.1, 0.2, 0.5),
            reps=1,
            threads=2,
            slice_threads=(2,),
            via_cli=True,
        ),
        # the only path through the Monte Carlo route and the Haar-basis QR
        # of model_core.build_design: no shipped scenario has a rotated design
        Workload(
            name="rotated_mc",
            scenarios=("perfbench/scenarios/eb_rotated_offset_alpha05.json",),
            n_grid=(200, 800, 1600),
            eps_grid=(0.1, 0.2, 0.5),
            reps=2,
            threads=2,
            slice_threads=(2,),
        ),
    )
}


class ConfigError(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


# ---------------------------------------------------------------------------
# the lab, set up as a user would


class Lab:
    """The lab's modules imported from this checkout's src/, plus the
    workload's scenarios loaded and validated."""

    def __init__(self, wl: Workload):
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        names = ["model_core", "g_regimes", "posterior_engine", "numerics", "consistency_lab"]
        if wl.via_cli:
            names.append("cli")
        try:
            mods = {n: importlib.import_module(f"gprior_lab.{n}") for n in names}
        except ImportError as exc:
            raise ConfigError(f"cannot import gprior_lab from {src}: {exc}") from None
        origin = Path(mods["model_core"].__file__).resolve()
        if src.resolve() not in origin.parents:
            raise ConfigError(f"gprior_lab was imported from {origin}, not from {src}")
        self.__dict__.update(mods)
        self.cli = mods.get("cli")
        self.ball_options = self.posterior_engine.BallOptions(**wl.ball_options)
        self.units = []
        for rel in wl.scenarios:
            scenario = self.model_core.load_scenario(ROOT / rel)
            scenario.validate_grid(wl.n_grid)
            self.units.append((ROOT / rel, scenario))


def pin_blas_threads() -> None:
    # must run before numpy is imported: each workload's parallelism is
    # exactly its pool's thread count
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def environment(wl: Workload, nproc: int) -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload_threads": wl.threads,
    }


def measure_setup(wl: Workload) -> list:
    """Seconds from starting a fresh interpreter until it is ready for its
    first experiment call (imports, scenario load and validation), once
    per probe process."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name, "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise ConfigError(f"setup probe failed (exit {code})")
        samples.append(elapsed)
    return samples


# ---------------------------------------------------------------------------
# one unit: one scenario through the workload's entry point


def run_unit(lab: Lab, wl: Workload, path, scenario, seed, n_grid, reps, threads, out_dir, tracer=None):
    """Returns (report document without timing, its canonical JSON text,
    seconds spent in the lab's calls)."""
    if not wl.via_cli:
        t0 = time.perf_counter()
        report = lab.consistency_lab.run_experiment(
            scenario,
            n_grid,
            wl.eps_grid,
            reps=reps,
            master_seed=seed,
            threads=threads,
            ball_options=lab.ball_options,
        )
        elapsed = time.perf_counter() - t0
        return report.to_dict(include_timing=False), report.canonical_json(), elapsed
    out = Path(out_dir) / scenario.name
    argv = [
        "experiment",
        "--scenario", str(path),
        "--n-grid", ",".join(str(n) for n in n_grid),
        "--eps-grid", ",".join(repr(e) for e in wl.eps_grid),
        "--reps", str(reps),
        "--seed", str(seed),
        "--threads", str(threads),
        "--with-lemmas",
        "--format", "both",
        "--out", str(out),
    ]
    plot_argv = ["plot", "--report", str(out / "report.json"), "--out", str(out)]
    with redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        with tracer.span("cli.experiment") if tracer else nullcontext({}) as work:
            code = lab.cli.main(argv)
            work["report_bytes"] = sum(
                (out / f).stat().st_size for f in ("report.json", "cells.csv") if (out / f).exists()
            )
        if code != 0:
            raise RuntimeError(f"gprior-lab experiment exited {code}")
        with tracer.span("cli.plot") if tracer else nullcontext({}):
            code = lab.cli.main(plot_argv)
        elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"gprior-lab plot exited {code}")
    doc = json.loads((out / "report.json").read_text())
    doc.pop("wall_time_s", None)
    return doc, json.dumps(doc, sort_keys=True, separators=(",", ":")), elapsed


def install_tracing(tracer: Tracer, lab: Lab) -> list:
    """Trace each layer's public functions where their callers look them
    up.  Returns the names that could not be traced."""
    cl, pe = lab.consistency_lab, lab.posterior_engine
    default_opts = pe.BallOptions()
    signatures = {
        attr: inspect.signature(getattr(cl, attr))
        for attr in ("run_experiment", "simulate_stats", "sup_ball_probability")
        if hasattr(cl, attr)
    }

    def arguments(attr, args, kwargs):
        return signatures[attr].bind(*args, **kwargs).arguments

    def run_work(args, kwargs, result):
        threads = arguments("run_experiment", args, kwargs).get("threads", 1)
        return "consistency_lab.run_experiment", {"threads": threads}, None

    def sim_cell(args, kwargs, result):
        rng = arguments("simulate_stats", args, kwargs)["rng"]
        # cell streams are keyed (scenario name, n, rep, purpose)
        return "model_core.simulate_stats", None, tuple(rng.path[:3])

    def posterior_work(args, kwargs, result):
        u_nodes = 0 if result.is_point else len(result.u_nodes)
        return "g_regimes.build_g_posterior", {"u_nodes": u_nodes}, None

    def ball_work(args, kwargs, result):
        bound = arguments("sup_ball_probability", args, kwargs)
        post, stats = bound["post"], bound["stats"]
        opts = bound.get("options") or default_opts
        if result.method == "mc":
            return "posterior_engine.mc", {"normal_draws": opts.mc_draws * stats.p}, None
        u_nodes = 0 if post.is_point else len(post.u_nodes)
        g_nodes = (opts.g_quad or u_nodes) if u_nodes else 1
        work = {
            "cdf_evals": g_nodes * opts.sigma_grid * stats.p,
            "g_nodes_continuous": g_nodes if u_nodes else 0,
            "u_nodes": u_nodes,
        }
        return "posterior_engine.exact", work, None

    patches = [
        (cl, "run_experiment", "consistency_lab.run_experiment", run_work),
        (cl, "predict_verdict", "consistency_lab.predict_verdict", None),
        (cl, "verify_lemmas", "consistency_lab.verify_lemmas", None),
        (cl, "simulate_stats", "model_core.simulate_stats", sim_cell),
        (cl, "diagnostics", "model_core.diagnostics", None),
        (lab.model_core, "build_design", "model_core.build_design", None),
        (cl, "build_g_posterior", "g_regimes.build_g_posterior", posterior_work),
        (cl, "sup_ball_probability", "posterior_engine.sup_ball_probability", ball_work),
        (pe, "normal_logcdf", "numerics.normal_logcdf", None),
        (lab.g_regimes, "log_beta_cdf", "numerics.log_beta_cdf", None),
    ]
    if lab.cli is not None:
        patches.append((lab.cli, "run_experiment", "consistency_lab.run_experiment", run_work))
    return [
        f"{mod.__name__}.{attr}"
        for mod, attr, name, describe in patches
        if not tracer.patch(mod, attr, name, describe)
    ]


# ---------------------------------------------------------------------------
# rounds, checks and the result


def load_reference(wl: Workload) -> dict:
    path = HERE / "reference" / f"{wl.name}.json"
    ref = json.loads(path.read_text())
    pinned = (ref["n_grid"], ref["eps_grid"], ref["reps"], ref["master_seed"])
    if pinned != (list(wl.n_grid), list(wl.eps_grid), wl.reps, REFERENCE_SEED):
        raise ConfigError(f"{path} was made for other grids; regenerate it with --write-reference")
    return ref["scenarios"]


class Runner:
    """Runs rounds of one workload and checks every report."""

    def __init__(self, lab: Lab, wl: Workload, seed: int, reference: dict, out_dir):
        self.lab, self.wl, self.seed, self.reference, self.out_dir = lab, wl, seed, reference, out_dir
        self.checker = Checker(mc_draws=lab.posterior_engine.BallOptions().mc_draws)
        self.first_text = {}

    def round(self, tracer=None) -> float:
        """One pass over the scenarios; returns seconds spent in the lab."""
        wl, wall, done = self.wl, 0.0, []
        for path, scenario in self.lab.units:
            try:
                doc, text, elapsed = run_unit(
                    self.lab, wl, path, scenario, self.seed, wl.n_grid, wl.reps, wl.threads,
                    self.out_dir, tracer,
                )
            except Exception as exc:
                traceback.print_exc(file=sys.stderr)
                self.checker.raised(scenario.name, len(wl.n_grid) * wl.reps, repr(exc))
                continue
            wall += elapsed
            done.append((scenario.name, doc, text))
        for name, doc, text in done:
            ref = self.reference[name] if self.seed == REFERENCE_SEED else None
            self.checker.check(name, doc, len(wl.n_grid) * wl.reps, reference=ref)
            self.checker.same_bytes(name, self.first_text.setdefault(name, text), text)
        return wall

    def rounds(self, seconds=0.0, count=None, tracer=None) -> list:
        """Whole rounds until ``seconds`` of lab time have passed (at least
        one), or exactly ``count`` rounds; returns each round's seconds."""
        walls = [self.round(tracer)]
        while len(walls) < count if count else sum(walls) < seconds:
            walls.append(self.round(tracer))
        return walls

    def reference_slice(self) -> None:
        """The first n with two replications at the reference seed, compared
        with the reference cells at every slice thread count."""
        wl = self.wl
        for path, scenario in self.lab.units:
            texts = []
            for threads in wl.slice_threads:
                label = f"slice {scenario.name} threads={threads}"
                try:
                    doc, text, _ = run_unit(
                        self.lab, wl, path, scenario, REFERENCE_SEED, wl.n_grid[:1], 2, threads,
                        self.out_dir,
                    )
                except Exception as exc:
                    traceback.print_exc(file=sys.stderr)
                    self.checker.raised(label, 2, repr(exc))
                    continue
                self.checker.check(label, doc, 2, reference=self.reference[scenario.name], full=False)
                texts.append(text)
            for text in texts[1:]:
                self.checker.same_bytes(f"slice {scenario.name} across threads", texts[0], text)


def write_reference(lab: Lab, wl: Workload, out_dir) -> int:
    scenarios = {}
    for path, scenario in lab.units:
        doc, _, _ = run_unit(lab, wl, path, scenario, REFERENCE_SEED, wl.n_grid, wl.reps, wl.threads, out_dir)
        scenarios[scenario.name] = digest_report(doc)
    ref = {
        "workload": wl.name,
        "master_seed": REFERENCE_SEED,
        "n_grid": list(wl.n_grid),
        "eps_grid": list(wl.eps_grid),
        "reps": wl.reps,
        "scenarios": scenarios,
    }
    text = json.dumps(ref, indent=1, sort_keys=True)
    # one cell per line keeps the reference short and its diffs readable
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    path = HERE / "reference" / f"{wl.name}.json"
    path.write_text(text + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


# every end-to-end metric: (unit, which direction is better)
END_TO_END = {"setup_s": ("s", "lower"), "cells_per_s": ("1/s", "higher"), "peak_rss_mb": ("MB", "lower")}


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    needed = max(wl.threads, *wl.slice_threads)
    if needed > nproc:
        raise ConfigError(f"{wl.name} needs {needed} threads but only {nproc} cores are available")
    pin_blas_threads()
    setup_samples = [] if args.trace or args.setup_probe or args.write_reference else measure_setup(wl)
    lab = Lab(wl)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT)
    try:
        if args.write_reference:
            return write_reference(lab, wl, out_dir)
        runner = Runner(lab, wl, args.seed, load_reference(wl), out_dir)
        detail = {"workload": wl.name, "seed": args.seed, "env": environment(wl, nproc)}
        cells = len(wl.scenarios) * len(wl.n_grid) * wl.reps
        if not args.trace:
            walls = runner.rounds(seconds=args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rates = summarize(cells / w for w in walls)
            metrics = {
                "setup_s": summarize(setup_samples)["median"],
                "cells_per_s": rates["median"],
                "peak_rss_mb": peak_rss_mb,
            }
            detail.update(setup_s=setup_samples, round_walls=walls, cells_per_s=rates)
        else:
            walls = runner.rounds(seconds=args.seconds / 2)
            tracer = Tracer()
            not_traced = install_tracing(tracer, lab)
            try:
                traced_walls = runner.rounds(count=len(walls), tracer=tracer)
            finally:
                tracer.restore()
            metrics, shares = layer_metrics(tracer.spans, len(traced_walls))
            metrics["trace.overhead_s"] = (
                summarize(traced_walls)["median"] - summarize(walls)["median"]
            )
            detail.update(round_walls=walls, traced_round_walls=traced_walls, stage_shares=shares, not_traced=not_traced)
            spans_path = OUT / f"{wl.name}-seed{args.seed}-spans.json"
            fields = ["id", "name", "thread", "start", "end", "parent", "cell", "work"]
            spans_path.write_text(json.dumps({"fields": fields, "spans": tracer.spans}))
        runner.reference_slice()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    checker = runner.checker
    detail.update(checks=checker.summary(), problems=checker.problems, metrics=metrics)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))

    print(f"workload {wl.name}: seed {args.seed}, {len(walls)} rounds of {cells} cells, "
          f"threads {wl.threads}, nproc {nproc}")
    print("env " + json.dumps(detail["env"], sort_keys=True))
    units = {name: unit for name, (unit, _) in {**END_TO_END, **LAYER_METRICS}.items()}
    for name, value in metrics.items():
        print(f"  {name:42s} {value:.6g} {units[name]}")
    if args.trace:
        for name in detail["not_traced"]:
            print(f"  not traced (no such function): {name}")
        dominant = max(shares, key=shares.get) if shares else "none"
        print(f"  dominant cell stage: {dominant} ({shares.get(dominant, 0.0):.1%} of cell-stage busy time)")
    summary = checker.summary()
    print(f"  {'max_prob_err':42s} {summary['max_prob_err']:.3g} (bound {MAX_PROB_ERR:g})")
    print(f"  {'mc_max_z':42s} {summary['mc_max_z']:.3g} (bound {MAX_MC_Z:g})")
    print(f"  {'failed_cell_ratio':42s} {summary['failed_cell_ratio']:.3g} ({checker.failed} of {checker.attempted} cells)")
    print(f"  {'trend_mismatches':42s} {summary['trend_mismatches']} "
          f"(full reference compared: {args.seed == REFERENCE_SEED})")
    for problem in checker.problems[:20]:
        print(f"  problem: {problem}", file=sys.stderr)
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if checker.correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite perfbench/reference/<workload>.json at the reference seed")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
