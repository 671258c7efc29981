"""Shared fixtures and helpers for the test suite."""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gprior_lab.model_core import (
    DesignSpec,
    FirstMRule,
    GramSpectrum,
    PriorConstants,
    Scenario,
    SufficientStats,
    ZerosRule,
    design_at,
)
from gprior_lab.model_core import EmpiricalBayesG
from gprior_lab.consistency_lab import _dataset

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def make_scenario(**overrides) -> Scenario:
    """An orthogonal-design scenario with sensible defaults; keyword
    overrides replace any field."""
    base = dict(
        name="unit",
        alpha=0.5,
        design=DesignSpec(),
        beta0_rule=FirstMRule(1.0, 3),
        gamma_rule=ZerosRule(),
        sigma0_sq=1.0,
        prior=PriorConstants(),
        regime=EmpiricalBayesG(),
    )
    base.update(overrides)
    return Scenario(**base)


def axis_stats(n, beta_hat, resid_ss, eigenvalues=None) -> SufficientStats:
    """Directly assembled axis-aligned sufficient statistics."""
    beta_hat = np.asarray(beta_hat, dtype=float)
    p = beta_hat.shape[0]
    if eigenvalues is None:
        eigenvalues = np.full(p, float(n))
    return SufficientStats(
        n=n,
        p=p,
        beta_hat=beta_hat,
        resid_ss=float(resid_ss),
        gram=GramSpectrum(q=None, eigenvalues=np.asarray(eigenvalues, dtype=float)),
    )


def simulate_scenario_stats(scenario: Scenario, n: int, seed: int, rep: int = 0):
    """Dataset (n, rep) as run_experiment draws it."""
    return _dataset(scenario, n, rep, design_at(scenario, n, seed), seed)[1]


@pytest.fixture
def unit_scenario():
    return make_scenario()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance verdict lines after capture ends."""
    for name in ("test_acceptance", "tests.test_acceptance"):
        mod = sys.modules.get(name)
        lines = getattr(mod, "ACCEPTANCE_LINES", None)
        if lines:
            terminalreporter.section("acceptance criteria")
            for line in lines:
                terminalreporter.write_line(line)
            break
