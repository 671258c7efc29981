"""Spans around calls into the lab's modules, recorded from outside.

``Tracer.patch`` replaces a function in the namespace its caller looks it
up in (``consistency_lab.simulate_stats``, ``posterior_engine.normal_logcdf``
and so on) with a wrapper that records one span per call.  Spans are kept
in memory as tuples

    (span_id, name, thread_id, start, end, parent_id, cell, work)

and analysed after the run.  A span's parent is the innermost open span
of its own thread or, for a worker thread with no open span, the
innermost open span of the thread that created the tracer (the one
blocked in ``run_experiment`` while its pool works).  ``cell`` is the
(scenario, n, rep) a cell-stage span belongs to; ``work`` holds nominal
work counts computed from the call's arguments.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager

# the per-cell stages run_experiment calls; their busy time is cell time
CELL_STAGES = (
    "model_core.simulate_stats",
    "model_core.diagnostics",
    "g_regimes.build_g_posterior",
    "posterior_engine.exact",
    "posterior_engine.mc",
)


# every per-layer metric: (unit, which direction is better); counts and
# times are per round, work counts marked "nominal" come from call arguments
LAYER_METRICS = {
    "model_core.simulate_stats.calls": ("count", "lower"),
    "model_core.simulate_stats.busy_s": ("s", "lower"),
    "model_core.build_design.calls": ("count", "lower"),
    "model_core.build_design.busy_s": ("s", "lower"),
    "model_core.diagnostics.busy_s": ("s", "lower"),
    "g_regimes.build_g_posterior.calls": ("count", "lower"),
    "g_regimes.build_g_posterior.busy_s": ("s", "lower"),
    "g_regimes.u_nodes": ("count", "lower"),
    "g_regimes.node_use_ratio": ("ratio", "lower"),
    "posterior_engine.exact.calls": ("count", "lower"),
    "posterior_engine.exact.busy_s": ("s", "lower"),
    "posterior_engine.exact.cdf_evals": ("nominal_count", "lower"),
    "posterior_engine.mc.calls": ("count", "lower"),
    "posterior_engine.mc.busy_s": ("s", "lower"),
    "posterior_engine.mc.normal_draws": ("nominal_count", "lower"),
    "numerics.normal_logcdf.calls": ("count", "lower"),
    "numerics.normal_logcdf.busy_s": ("s", "lower"),
    "numerics.log_beta_cdf.calls": ("count", "lower"),
    "numerics.log_beta_cdf.busy_s": ("s", "lower"),
    "consistency_lab.run_experiment.busy_s": ("s", "lower"),
    "consistency_lab.self_s": ("s", "lower"),
    "consistency_lab.predict_verdict.busy_s": ("s", "lower"),
    "consistency_lab.verify_lemmas.busy_s": ("s", "lower"),
    "consistency_lab.pool_utilisation": ("ratio", "higher"),
    "cli.experiment.busy_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "cli.plot.busy_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def union_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Records spans from any thread; analyse ``spans`` once the traced
    work has finished."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack = []
        self._patches = []

    def _stack(self):
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._home_stack[-1] if self._home_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack

    def _cell(self, name):
        return getattr(self._local, "cell", None) if name in CELL_STAGES else None

    @contextmanager
    def span(self, name: str):
        """Record a span around a block; the yielded dict becomes its work."""
        span_id, parent, stack = self._open()
        work = {}
        start = time.perf_counter()
        try:
            yield work
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, threading.get_ident(), start, end, parent, self._cell(name), work or None)
            )

    def patch(self, module, attr: str, name: str, describe=None) -> bool:
        """Trace ``module.attr`` under ``name``.  ``describe(args, kwargs,
        result)`` may return (name, work, cell) to refine the span; a cell
        it returns becomes the thread's current cell.  Returns False, and
        traces nothing, when the module has no such attribute."""
        fn = getattr(module, attr, None)
        if fn is None:
            return False
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, stack = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span_name, work = name, None
            if describe is not None:
                span_name, work, cell = describe(args, kwargs, result)
                if cell is not None:
                    tracer._local.cell = cell
            tracer.spans.append(
                (span_id, span_name, threading.get_ident(), start, end, parent, tracer._cell(span_name), work)
            )
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))
        return True

    def restore(self) -> None:
        """Put every patched function back."""
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)


def self_times(spans) -> dict:
    """span_id -> the span's duration minus the union of its children's
    intervals (children may overlap when they run on different threads)."""
    children = {}
    for s in spans:
        children.setdefault(s[5], []).append((s[3], s[4]))
    return {
        s[0]: (s[4] - s[3]) - union_length(children.get(s[0], ()), s[3], s[4]) for s in spans
    }


def layer_metrics(spans, rounds: int):
    """(metrics, shares): the per-layer metrics of one traced run, counts
    and times per round (one pass over the workload's scenarios), and each
    cell stage's share of their summed inclusive busy time."""
    calls, busy, work = {}, {}, {}
    for s in spans:
        name = s[1]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (s[4] - s[3])
        for key, value in (s[7] or {}).items():
            work[(name, key)] = work.get((name, key), 0) + value
    own = self_times(spans)

    runs = [s for s in spans if s[1] == "consistency_lab.run_experiment"]
    run_ids = {s[0] for s in runs}
    cell_busy = sum(
        s[4] - s[3] for s in spans if s[5] in run_ids and s[1] in CELL_STAGES
    )
    capacity = sum((s[4] - s[3]) * s[7]["threads"] for s in runs)
    nested_runs = {}
    for s in runs:
        if s[5] is not None:
            nested_runs[s[5]] = nested_runs.get(s[5], 0.0) + (s[4] - s[3])
    write_s = sum(
        (s[4] - s[3]) - nested_runs.get(s[0], 0.0) for s in spans if s[1] == "cli.experiment"
    )
    g_used = work.get(("posterior_engine.exact", "g_nodes_continuous"), 0)
    u_seen = work.get(("posterior_engine.exact", "u_nodes"), 0)

    def b(name):
        return busy.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    raw = {
        "model_core.simulate_stats.calls": c("model_core.simulate_stats"),
        "model_core.simulate_stats.busy_s": b("model_core.simulate_stats"),
        "model_core.build_design.calls": c("model_core.build_design"),
        "model_core.build_design.busy_s": b("model_core.build_design"),
        "model_core.diagnostics.busy_s": b("model_core.diagnostics"),
        "g_regimes.build_g_posterior.calls": c("g_regimes.build_g_posterior"),
        "g_regimes.build_g_posterior.busy_s": b("g_regimes.build_g_posterior"),
        "g_regimes.u_nodes": work.get(("g_regimes.build_g_posterior", "u_nodes"), 0),
        "posterior_engine.exact.calls": c("posterior_engine.exact"),
        "posterior_engine.exact.busy_s": b("posterior_engine.exact"),
        "posterior_engine.exact.cdf_evals": work.get(("posterior_engine.exact", "cdf_evals"), 0),
        "posterior_engine.mc.calls": c("posterior_engine.mc"),
        "posterior_engine.mc.busy_s": b("posterior_engine.mc"),
        "posterior_engine.mc.normal_draws": work.get(("posterior_engine.mc", "normal_draws"), 0),
        "numerics.normal_logcdf.calls": c("numerics.normal_logcdf"),
        "numerics.normal_logcdf.busy_s": b("numerics.normal_logcdf"),
        "numerics.log_beta_cdf.calls": c("numerics.log_beta_cdf"),
        "numerics.log_beta_cdf.busy_s": b("numerics.log_beta_cdf"),
        "consistency_lab.run_experiment.busy_s": b("consistency_lab.run_experiment"),
        "consistency_lab.self_s": sum(own[i] for i in run_ids),
        "consistency_lab.predict_verdict.busy_s": b("consistency_lab.predict_verdict"),
        "consistency_lab.verify_lemmas.busy_s": b("consistency_lab.verify_lemmas"),
        "cli.experiment.busy_s": b("cli.experiment"),
        "cli.write_s": write_s,
        "cli.report_bytes": work.get(("cli.experiment", "report_bytes"), 0),
        "cli.plot.busy_s": b("cli.plot"),
    }
    out = {k: v / rounds for k, v in raw.items()}
    # ratios are not divided by the round count
    out["g_regimes.node_use_ratio"] = g_used / u_seen if u_seen else 0.0
    out["consistency_lab.pool_utilisation"] = cell_busy / capacity if capacity else 0.0
    # where the time went: inclusive busy time of each cell stage
    stage_busy = {name: b(name) for name in CELL_STAGES}
    total = sum(stage_busy.values())
    shares = {k: v / total for k, v in stage_busy.items()} if total else {}
    return out, shares
