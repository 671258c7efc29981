"""Posterior-consistency laboratory for Gaussian linear regression under
Zellner g-priors.

The package simulates sufficient statistics for growing designs, builds the
posterior over the prior scale g in four regimes (fixed sequence, empirical
Bayes, hyper-g, Zellner-Siow), computes sup-norm ball posterior
probabilities exactly or by Monte Carlo, and classifies their trend along n
against the predictions of the four consistency conditions T1-T4.

The package root exports the library entry points; the modules
(model_core, g_regimes, posterior_engine, consistency_lab) hold the rest.
"""

from .model_core import load_scenario
from .posterior_engine import BallOptions
from .consistency_lab import predict_verdict, run_experiment

__version__ = "0.1.0"

__all__ = ["load_scenario", "BallOptions", "run_experiment", "predict_verdict", "__version__"]
