"""Predictable targets, the paper's headline case, as plain loops.

The paper lets the drifting parameter be predictable with respect to the
time series: theta_k is a function of the observations before step k.
No subcommand builds such a path, so the package realises every path
before a run; the two models here run the case for the tests.  Each
reads its rules on a window of the last window_depth observations, zero
before the first, rolled forward one step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from drifttrack.models import NoiseSpec, SimulatedPath


def _rule_value(rule, k, window):
    return np.atleast_1d(np.asarray(rule(k, window), dtype=float))


def _roll(window, value):
    """window with its oldest row dropped and value appended."""
    window = np.roll(window, -1, axis=0)
    window[-1] = value
    return window


@dataclass(frozen=True)
class PredictableSignalNoise:
    """X_k = theta_k + xi_k with theta_k = rule(k, window)."""

    rule: Callable  # (k, window) -> vector
    noise: NoiseSpec = NoiseSpec()
    dim: int = 1
    window_depth: int = 1

    def simulate(self, n: int, rng: np.random.Generator) -> SimulatedPath:
        d = self.dim
        xi = self.noise.draw(rng, (n, d))
        thetas = np.empty((n + 1, d))
        obs = np.empty((n, d))
        window = np.zeros((self.window_depth, d))
        for k in range(n):
            thetas[k] = _rule_value(self.rule, k, window)
            obs[k] = thetas[k] + xi[k]
            window = _roll(window, obs[k])
        thetas[n] = _rule_value(self.rule, n, window)
        return SimulatedPath(observations=obs, targets=thetas)


@dataclass(frozen=True)
class CondGaussianModel:
    """X_k ~ N(theta_k(past), Sigma_k(past)) via a symmetric square root.

    Covariance eigenvalues must stay inside the declared band; the band
    is what the persistence-of-excitation verification relies on.
    """

    mean_rule: Callable  # (k, window) -> vector
    cov_rule: Callable   # (k, window) -> SPD matrix
    dim: int
    eig_band: tuple[float, float]
    window_depth: int = 1

    def simulate(self, n: int, rng: np.random.Generator) -> SimulatedPath:
        lo, hi = self.eig_band
        d = self.dim
        thetas = np.empty((n + 1, d))
        obs = np.empty((n, d))
        window = np.zeros((self.window_depth, d))
        z = rng.normal(size=(n, d))
        for k in range(n):
            thetas[k] = _rule_value(self.mean_rule, k, window)
            cov = np.atleast_2d(np.asarray(self.cov_rule(k, window),
                                           dtype=float))
            vals, vecs = np.linalg.eigh(cov)
            if vals[0] < lo - 1e-12 or vals[-1] > hi + 1e-12:
                raise ValueError(
                    f"covariance eigenvalue outside declared band at step "
                    f"{k}: [{vals[0]:.3e}, {vals[-1]:.3e}] vs [{lo}, {hi}]")
            root = (vecs * np.sqrt(vals)) @ vecs.T
            obs[k] = thetas[k] + root @ z[k]
            window = _roll(window, obs[k])
        thetas[n] = _rule_value(self.mean_rule, n, window)
        return SimulatedPath(observations=obs, targets=thetas)
