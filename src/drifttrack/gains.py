"""Gain functions driving the tracking recursion.

Each catalog entry implements an update direction G(current estimate,
new observation).  Where the conditional mean of the gain has the
contraction form -M (estimate - target), the known eigenvalue and
second-moment constants are attached so the bound evaluators and the
condition verifiers can use them.

Evaluators attached to a GainSpec accept either a single observation
row or a stack of rows (leading axis = sample index); the tracking loop
feeds single rows, the Monte-Carlo condition verifiers feed stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import linalg

__all__ = [
    "GainConstants",
    "GainSpec",
    "gain_signal_noise",
    "gain_robbins_monro",
    "gain_kw_finite_difference",
    "gain_spsa",
    "gain_quantile",
    "gain_poisson",
    "gain_gaussian_known_cov",
    "gain_arch1",
    "gain_ar1_normalized",
    "gain_ar1_truncated",
    "gain_ard_score",
    "average_gain_ard",
    "modifier_soft_normalize",
    "modifier_norm_truncate",
    "modifier_predictable_rescale",
    "signal_noise_spec",
    "quantile_spec",
    "poisson_spec",
    "gaussian_known_cov_spec",
    "arch1_spec",
    "ar1_normalized_spec",
    "ar1_truncated_spec",
    "ard_score_spec",
    "ar_normalized_vector_gain",
]


@dataclass(frozen=True)
class GainConstants:
    """Optional declared constants of a gain's conditional-mean form."""

    lambda1: Optional[float] = None   # lower eigenvalue of M
    lambda2: Optional[float] = None   # upper eigenvalue of M
    c_g: Optional[float] = None       # centered second-moment bound


@dataclass(frozen=True)
class GainSpec:
    """A gain evaluator with its declared constants.

    evaluator(estimate, observation_row) -> direction.
    """

    evaluator: Callable
    dim: int
    constants: Optional[GainConstants] = None


# =====================================================================
# Catalog: direct observation gains
# =====================================================================

def gain_signal_noise(theta_hat, x):
    """Gain x - estimate; the mean-tracking workhorse (M = I)."""
    return np.asarray(x, dtype=float) - np.asarray(theta_hat, dtype=float)


def gain_robbins_monro(x, alpha):
    """Root finding: -(x - alpha) pushes F(estimate) toward level alpha."""
    return -(np.asarray(x, dtype=float) - np.asarray(alpha, dtype=float))


def gain_quantile(theta_hat, x, alpha: float):
    """alpha - 1{x <= estimate}; ties count as below (<=)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    below = np.asarray(x, dtype=float) <= theta_hat
    return alpha - below.astype(float) if isinstance(below, np.ndarray) \
        else alpha - float(below)


def gain_poisson(theta_hat, x_k, x_km1):
    """Count increment minus the current intensity estimate."""
    inc = np.asarray(x_k, dtype=float) - np.asarray(x_km1, dtype=float)
    if np.any(inc < 0):
        raise ValueError("counts must be nondecreasing")
    return inc - theta_hat


def gain_gaussian_known_cov(theta_hat, x, sigma):
    """Sigma^{-1}(x - estimate) via a linear solve, Sigma SPD."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    eigs = linalg.sym_eigenvalues(sigma)
    if eigs[0] <= 1e-12:
        raise ValueError(f"covariance not positive definite "
                         f"(smallest eigenvalue {eigs[0]:.3e})")
    resid = np.asarray(x, dtype=float) - np.asarray(theta_hat, dtype=float)
    return np.linalg.solve(sigma, np.atleast_1d(resid).T).T


def _truncation_factor(s, cap: float):
    """min(s, cap)/s with the s = 0 limit set to 0 (no information)."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    nz = s > 0
    out[nz] = np.minimum(s[nz], cap) / s[nz]
    return out if out.ndim else float(out)


def gain_arch1(theta_hat, x_k, x_km1, trunc: float):
    """Truncated ARCH(1) volatility gain.

    (min(x_{k-1}^2, T)/x_{k-1}^2) (x_k^2 - 1 - theta_hat x_{k-1}^2);
    zero at x_{k-1} = 0.
    """
    if trunc <= 0:
        raise ValueError("truncation level must be positive")
    x_k = np.asarray(x_k, dtype=float)
    s = np.asarray(x_km1, dtype=float) ** 2
    return _truncation_factor(s, trunc) * (x_k ** 2 - 1.0 - theta_hat * s)


def gain_ar1_normalized(theta_hat, x_k, x_km1, mu: float):
    """AR(1) residual gain rescaled by 1/(1 + mu x_{k-1}^2)."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    x_k = np.asarray(x_k, dtype=float)
    x_km1 = np.asarray(x_km1, dtype=float)
    return x_km1 * (x_k - theta_hat * x_km1) / (1.0 + mu * x_km1 ** 2)


def gain_ar1_truncated(theta_hat, x_k, x_km1, trunc: float):
    """Truncated AR(1) gain: factor min(x^2,T)/x^2 times the score term."""
    if trunc <= 0:
        raise ValueError("truncation level must be positive")
    x_k = np.asarray(x_k, dtype=float)
    x_km1 = np.asarray(x_km1, dtype=float)
    s = x_km1 ** 2
    return _truncation_factor(s, trunc) * (x_k * x_km1 - theta_hat * s)


# =====================================================================
# Catalog: derivative-free gains
# =====================================================================

def gain_kw_finite_difference(theta_hat, c: float, oracle, rng):
    """Coordinate central differences from 2d noisy oracle queries."""
    if c <= 0:
        raise ValueError("difference step c must be positive")
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    d = theta_hat.size
    out = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = c
        try:
            up = oracle(theta_hat + e, rng)
            down = oracle(theta_hat - e, rng)
        except Exception as exc:
            raise RuntimeError(
                f"oracle failed near query point {theta_hat + e}") from exc
        out[i] = (up - down) / (2.0 * c)
    return out


def gain_spsa(theta_hat, c: float, oracle, direction_sampler, rng,
              max_resamples: int = 16):
    """Random-direction two-query gradient estimate D (X+ - X-)/(2c)."""
    if c <= 0:
        raise ValueError("difference step c must be positive")
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    direction = None
    for _ in range(max_resamples):
        cand = np.atleast_1d(np.asarray(direction_sampler(rng), dtype=float))
        if np.linalg.norm(cand) > 1e-12:
            direction = cand
            break
    if direction is None:
        raise RuntimeError("direction sampler kept returning zero vectors")
    up = oracle(theta_hat + c * direction, rng)
    down = oracle(theta_hat - c * direction, rng)
    return direction * (up - down) / (2.0 * c)


# =====================================================================
# Catalog: batched AR(d) score and its average
# =====================================================================

def _score_jacobian(d: int, x_batch: np.ndarray, y_batch: np.ndarray) -> np.ndarray:
    """Closed-form Jacobian of the residual A(v)x - B(v)y in v.

    Column i is -S^i x - (S^{d-i})^T y (S^0 = I, S^d = 0).
    """
    jac = np.empty((d, d))
    for i in range(1, d + 1):
        jac[:, i - 1] = (-linalg.shift_matrix(d, i) @ x_batch
                         - linalg.shift_matrix(d, d - i).T @ y_batch)
    return jac


def gain_ard_score(theta_hat, x_batch, y_batch, sigma: float):
    """Gradient of the log conditional Gaussian density of an AR(d) batch.

    With residual r(v) = A(v) x - B(v) y the gradient is
    -sigma^{-2} J(v)^T r(v), J assembled from the shift expansion.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    x_batch = np.atleast_1d(np.asarray(x_batch, dtype=float))
    y_batch = np.atleast_1d(np.asarray(y_batch, dtype=float))
    d = theta_hat.size
    if x_batch.size != d or y_batch.size != d:
        raise ValueError("batch dimension mismatch")
    resid = linalg.ar_matrix_a(theta_hat) @ x_batch \
        - linalg.ar_matrix_b(theta_hat) @ y_batch
    jac = _score_jacobian(d, x_batch, y_batch)
    return -(jac.T @ resid) / sigma ** 2


def ard_log_density(theta_hat, x_batch, y_batch, sigma: float) -> float:
    """Log conditional density (up to a v-free constant) for testing."""
    resid = linalg.ar_matrix_a(theta_hat) @ np.atleast_1d(x_batch) \
        - linalg.ar_matrix_b(theta_hat) @ np.atleast_1d(y_batch)
    return -0.5 * float(resid @ resid) / sigma ** 2


def average_gain_ard(theta_hat, theta, y_batch, sigma: float):
    """Conditional mean of the batched score: -M(theta, y)(estimate-theta)."""
    form = linalg.ard_quadratic_matrix(theta, y_batch, sigma)
    delta = np.atleast_1d(np.asarray(theta_hat, dtype=float)) - form.theta
    return -form.matrix @ delta


# =====================================================================
# Modifiers (all direction preserving)
# =====================================================================

def modifier_soft_normalize(g):
    """G / (1 + ||G||); output norm strictly below 1."""
    g = np.asarray(g, dtype=float)
    return g / (1.0 + np.linalg.norm(g))


def modifier_norm_truncate(g, kappa: float):
    """Rescale G onto the ball of radius kappa when it sticks out."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    g = np.asarray(g, dtype=float)
    norm = np.linalg.norm(g)
    return g if norm <= kappa else g * (kappa / norm)


def modifier_predictable_rescale(g, s: float, kappa: float):
    """G * min(s, kappa)/s for a predictable scale s > 0."""
    if s <= 0:
        raise ValueError("s must be positive")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return np.asarray(g, dtype=float) * (min(s, kappa) / s)


# =====================================================================
# GainSpec factories for the tracking engine
#
# Observation-row layouts (matching the simulators in models.py):
#   signal/noise, Gaussian:   row = X_k (d entries)
#   quantile:                 row = X_k (scalar)
#   Poisson:                  row = (N_k, N_{k-1})
#   ARCH(1), AR(1):           row = (X_k, X_{k-1})
#   AR(d) batch:              row = (X_batch, Y_batch) concatenated (2d)
# =====================================================================

def signal_noise_spec(d: int = 1, noise_var: float | None = None) -> GainSpec:
    consts = GainConstants(lambda1=1.0, lambda2=1.0,
                           c_g=noise_var * d if noise_var is not None else None)
    return GainSpec(evaluator=lambda est, row: row - est, dim=d,
                    constants=consts)


def quantile_spec(alpha: float, density_floor: float | None = None,
                  density_cap: float | None = None) -> GainSpec:
    """Quantile gain; declared constants come from density bounds."""
    consts = GainConstants(lambda1=density_floor, lambda2=density_cap,
                           c_g=1.0)

    def evaluator(est, row):
        x = row[..., 0] if getattr(row, "ndim", 0) else row
        return gain_quantile(est, x, alpha)

    return GainSpec(evaluator=evaluator, dim=1, constants=consts)


def poisson_spec(intensity_bound: float | None = None) -> GainSpec:
    consts = GainConstants(lambda1=1.0, lambda2=1.0, c_g=intensity_bound)

    def evaluator(est, row):
        return gain_poisson(est, row[..., 0], row[..., 1])

    return GainSpec(evaluator=evaluator, dim=1, constants=consts)


def gaussian_known_cov_spec(sigma, noise_trace: float | None = None) -> GainSpec:
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    d = sigma.shape[0]
    eigs = linalg.sym_eigenvalues(sigma)
    if eigs[0] <= 1e-12:
        raise ValueError("covariance not positive definite")
    chol = cho_factor(sigma)
    consts = GainConstants(lambda1=1.0 / float(eigs[-1]),
                           lambda2=1.0 / float(eigs[0]), c_g=noise_trace)

    def evaluator(est, row):
        return cho_solve(chol, np.atleast_1d(row - est).T).T

    return GainSpec(evaluator=evaluator, dim=d, constants=consts)


def arch1_spec(trunc: float, lambda1: float | None = None,
               c_g: float | None = None) -> GainSpec:
    consts = GainConstants(lambda1=lambda1, lambda2=trunc, c_g=c_g)

    def evaluator(est, row):
        return gain_arch1(est, row[..., 0], row[..., 1], trunc)

    return GainSpec(evaluator=evaluator, dim=1, constants=consts)


def ar1_normalized_spec(mu: float) -> GainSpec:
    consts = GainConstants(lambda2=1.0 / mu)

    def evaluator(est, row):
        return gain_ar1_normalized(est, row[..., 0], row[..., 1], mu)

    return GainSpec(evaluator=evaluator, dim=1, constants=consts)


def ar1_truncated_spec(trunc: float, lambda1: float | None = None,
                       c_g: float | None = None) -> GainSpec:
    consts = GainConstants(lambda1=lambda1, lambda2=trunc, c_g=c_g)

    def evaluator(est, row):
        return gain_ar1_truncated(est, row[..., 0], row[..., 1], trunc)

    return GainSpec(evaluator=evaluator, dim=1, constants=consts)


def ard_score_spec(d: int, sigma: float) -> GainSpec:
    def evaluator(est, row):
        return gain_ard_score(est, row[:d], row[d:], sigma)

    return GainSpec(evaluator=evaluator, dim=d)


def ar_normalized_vector_gain(theta_hat, x_k, x_lags, mu: float):
    """Vector form of the normalized AR gain on the last d lags.

    With M proportional to the rank-one matrix x x^T its smallest
    eigenvalue is identically zero for d >= 2, so the persistence of
    excitation lower bound fails there; kept for the required-failure
    verifier fixture (use gain_ar1_normalized for actual d=1 tracking).
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    x_lags = np.asarray(x_lags, dtype=float)
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    resid = np.asarray(x_k, dtype=float) - x_lags @ theta_hat
    scale = 1.0 + mu * np.sum(x_lags * x_lags, axis=-1)
    return x_lags * (resid / scale)[..., None]
