"""Online tracking of drifting time-series parameters.

A stochastic-approximation toolkit: a recursive tracking engine with a
catalog of gain functions, step-size schedules for three drift regimes,
closed-form non-asymptotic error bounds with empirical condition
verifiers, the scalar Kalman reduction, and a Monte-Carlo experiment
harness with a CLI.
"""

import importlib

from . import bounds, core, gains, kalman, linalg, models, schedules

__all__ = [
    "bounds",
    "core",
    "experiments",
    "gains",
    "kalman",
    "linalg",
    "models",
    "schedules",
]

__version__ = "0.1.0"


def __getattr__(name):
    # experiments loads on first use, so `python -m drifttrack.experiments`
    # does not find it imported already (runpy warns when it is)
    if name == "experiments":
        return importlib.import_module(".experiments", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
