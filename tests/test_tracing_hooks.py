"""The names perfbench's tracer wraps (perfbench/run.py, install_tracing).

The tracer replaces each function in the namespace its caller looks it up
in and reads a few parameters and result fields by name.  A hook that is
renamed, moved, or called past reads 0 in the per-layer metrics instead of
failing, so these tests pin each hook: that it exists, that the parameters
the tracer binds keep their names, and that the experiment path calls
through it.
"""

import dataclasses
import inspect
import json

import pytest

import gprior_lab.cli as cli
import gprior_lab.consistency_lab as consistency_lab
import gprior_lab.g_regimes as g_regimes
import gprior_lab.model_core as model_core
from gprior_lab.g_regimes import GPosterior, HyperG
from gprior_lab.model_core import DesignSpec
from gprior_lab.numerics import RngStream
from gprior_lab.posterior_engine import BallOptions, BallProbability

from conftest import make_scenario

# (module, attribute) pairs the tracer wraps
HOOKS = [
    (consistency_lab, "run_experiment"),
    (consistency_lab, "predict_verdict"),
    (consistency_lab, "verify_lemmas"),
    (consistency_lab, "simulate_stats"),
    (consistency_lab, "diagnostics"),
    (consistency_lab, "build_g_posterior"),
    (consistency_lab, "sup_ball_probability"),
    (model_core, "build_design"),
    (cli, "run_experiment"),
]

# parameters the tracer binds by name
BOUND = {
    "run_experiment": ("threads",),
    "simulate_stats": ("rng",),
    "sup_ball_probability": ("post", "stats", "options"),
}


@pytest.mark.parametrize("module, attr", HOOKS, ids=[f"{m.__name__}.{a}" for m, a in HOOKS])
def test_hook_exists(module, attr):
    assert callable(getattr(module, attr, None))


@pytest.mark.parametrize("attr", sorted(BOUND))
def test_bound_parameters_keep_their_names(attr):
    params = inspect.signature(getattr(consistency_lab, attr)).parameters
    assert set(BOUND[attr]) <= set(params)


def test_result_fields_the_tracer_reads():
    assert isinstance(inspect.getattr_static(GPosterior, "is_point"), property)
    assert "u_nodes" in {f.name for f in dataclasses.fields(GPosterior)}
    assert {"mc_draws", "sigma_grid", "g_quad"} <= {f.name for f in dataclasses.fields(BallOptions)}
    assert "method" in {f.name for f in dataclasses.fields(BallProbability)}


def _counting(monkeypatch):
    """Wrap every hook of the experiment path; returns name -> list of the
    bound arguments of each call."""
    calls = {}
    for module, attr in HOOKS:
        fn = getattr(module, attr)
        sig = inspect.signature(fn)

        def wrapper(*args, _fn=fn, _sig=sig, _name=f"{module.__name__}.{attr}", **kwargs):
            calls.setdefault(_name, []).append(_sig.bind(*args, **kwargs).arguments)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)
    return calls


@pytest.mark.parametrize(
    "design, method",
    [(DesignSpec(), "exact"), (DesignSpec("diagonal", (0.5, 1.0), 1.0, 2.0), "mc")],
    ids=["exact", "mc"],
)
def test_experiment_calls_through_every_cell_hook(monkeypatch, design, method):
    calls = _counting(monkeypatch)
    monkeypatch.setattr(g_regimes, "_GRID_SIZE", 64)
    sc = make_scenario(name="hooks", design=design, regime=HyperG(c=3.0))
    report = consistency_lab.run_experiment(
        sc, (40, 80), (0.5,), reps=2, threads=2, ball_options=BallOptions(mc_draws=200), include_lemmas=True,
    )
    assert {c["method"] for c in report.cells} == {method}
    lab = "gprior_lab.consistency_lab"
    cells = [(40, 0), (40, 1), (80, 0), (80, 1)]
    sims = calls[f"{lab}.simulate_stats"]
    assert all(isinstance(c["rng"], RngStream) for c in sims)
    assert sorted(c["rng"].path[:3] for c in sims) == [("hooks", n, rep) for n, rep in cells]
    for name in ("diagnostics", "build_g_posterior", "sup_ball_probability"):
        assert len(calls[f"{lab}.{name}"]) == len(cells), name
    assert all(isinstance(c["post"], GPosterior) for c in calls[f"{lab}.sup_ball_probability"])
    assert len(calls[f"{lab}.predict_verdict"]) == 1
    # one design per n, shared by its reps
    assert len(calls["gprior_lab.model_core.build_design"]) == len({n for n, _ in cells})


def test_cli_experiment_calls_through_its_run_experiment(monkeypatch, tmp_path, capsys):
    calls = _counting(monkeypatch)
    path = tmp_path / "hooks.json"
    path.write_text(json.dumps(model_core.scenario_to_dict(make_scenario(name="hooks"))))
    rc = cli.main(["experiment", "--scenario", str(path), "--n-grid", "40,80", "--eps-grid", "0.5",
                   "--reps", "1", "--threads", "2", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert [c["threads"] for c in calls["gprior_lab.cli.run_experiment"]] == [2]
    assert len(calls["gprior_lab.consistency_lab.simulate_stats"]) == 2
