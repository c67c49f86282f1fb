"""Gain functions driving the tracking recursion.

Each catalog entry implements an update direction G(current estimate,
new observation).  A gain the tracking engine runs is defined once, by
its *_spec factory: the factory takes the formula's parameters alone and
checks them, and its evaluator is the formula.  Where the conditional
mean of the gain has the contraction form -M (estimate - target), the
constants those parameters give are attached for the bound evaluators
and the condition verifiers; bounds.* and schedule.* set the others.

Evaluators attached to a GainSpec map a (B, d) estimate stack and a
(B, w) row stack to (B, d) directions, row by row: the tracking kernel
steps B replications at once.  They also take a single (d,) estimate
with a single row, and the Monte-Carlo condition verifiers feed one
estimate with a stack of rows (leading axis = sample index).

The Robbins-Monro, Kiefer-Wolfowitz and SPSA gains, which no subcommand
runs, are in tests/paper_checks.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg

__all__ = [
    "GainConstants",
    "GainSpec",
    "gain_ard_score",
    "signal_noise_spec",
    "quantile_spec",
    "poisson_spec",
    "gaussian_known_cov_spec",
    "arch1_spec",
    "ar1_normalized_spec",
    "ar1_truncated_spec",
    "ard_score_spec",
    "ar_normalized_vector_gain",
    "at_pinned_past",
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

    evaluator(estimates (B, d), rows (B, w)) -> directions (B, d).
    """

    evaluator: Callable
    dim: int
    constants: GainConstants = GainConstants()


# =====================================================================
# Catalog: batched AR(d) score
# =====================================================================

def gain_ard_score(theta_hat, x_batch, y_batch, sigma: float):
    """Gradient of the log conditional Gaussian density of an AR(d) batch.

    With residual r(v) = A(v) x - B(v) y the gradient is
    -sigma^{-2} J^T r(v).  The Jacobian J does not depend on v: column i
    of the shift expansion, -S^{i+1} x - (S^{d-i-1})^T y, reads
    J[j, i] = -(x, y)[j + i + 1] off the concatenated batch pair.
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
    idx = np.arange(d)
    jac = -np.concatenate((x_batch, y_batch))[idx[:, None] + idx + 1]
    return -(jac.T @ resid) / sigma ** 2


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
    """Gain x - estimate; the mean-tracking workhorse (M = I)."""
    consts = GainConstants(lambda1=1.0, lambda2=1.0,
                           c_g=noise_var * d if noise_var is not None else None)
    return GainSpec(evaluator=lambda est, row: row - est, dim=d,
                    constants=consts)


def quantile_spec(alpha: float, density_floor: float | None = None,
                  density_cap: float | None = None) -> GainSpec:
    """Quantile gain alpha - 1{x <= estimate}, ties counting as below;
    declared constants come from density bounds, each positive when
    given."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    for name, bound in (("density_floor", density_floor),
                        ("density_cap", density_cap)):
        if bound is not None and not bound > 0:
            raise ValueError(f"{name} must be positive")
    consts = GainConstants(lambda1=density_floor, lambda2=density_cap,
                           c_g=1.0)

    def evaluator(est, row):
        x = row[..., :1] if getattr(row, "ndim", 0) else row
        below = np.asarray(x, dtype=float) <= est
        return alpha - below.astype(float) if isinstance(below, np.ndarray) \
            else alpha - float(below)

    return GainSpec(evaluator=evaluator, dim=1, constants=consts)


def poisson_spec() -> GainSpec:
    """Count increment minus the current intensity estimate."""
    consts = GainConstants(lambda1=1.0, lambda2=1.0)

    def evaluator(est, row):
        inc = row[..., :1] - row[..., 1:]
        if np.any(inc < 0):
            raise ValueError("counts must be nondecreasing")
        return inc - est

    return GainSpec(evaluator=evaluator, dim=1, constants=consts)


def gaussian_known_cov_spec(sigma_diag) -> GainSpec:
    """Sigma^{-1}(x - estimate), Sigma = diag(sigma_diag): column i of
    x - estimate times 1/sqrt(Sigma_ii) twice, in place, the bits of
    SciPy's cho_solve (tests pin it); no row mixes with another.  A
    non-finite row gives a non-finite direction, which the tracking guard
    stops.  Against one estimate, a stack of rows (the verifiers' leaves)
    is centred column by column (linalg.by_column); (B, d) rows against
    (B, d) estimates take one subtraction."""
    diag = np.asarray(sigma_diag, dtype=float)
    if diag.ndim != 1 or not diag.size or not np.all(
            np.isfinite(diag) & (diag > 1e-12)):
        raise ValueError("sigma_diag must be a 1-D array of finite "
                         "variances above 1e-12")
    recip = 1.0 / np.sqrt(diag)
    consts = GainConstants(1.0 / float(diag.max()), 1.0 / float(diag.min()))

    def evaluator(est, row):
        if np.ndim(row) > np.ndim(est) == 1:  # a stack against one estimate
            b = linalg.by_column(np.subtract, row, est)
        else:
            b = np.atleast_1d(np.asarray(row - est, dtype=float))
        for i, r in enumerate(recip):
            col = b[..., i]
            col *= r
            col *= r
        return b

    return GainSpec(evaluator=evaluator, dim=len(diag), constants=consts)


def _truncation_factor(s: np.ndarray, cap: float) -> np.ndarray:
    """min(s, cap)/s with the s = 0 limit set to 0 (no information)."""
    return np.divide(np.minimum(s, cap), s, out=np.zeros_like(s),
                     where=s > 0)


def arch1_spec(trunc: float) -> GainSpec:
    """Truncated ARCH(1) volatility gain
    (min(x_{k-1}^2, T)/x_{k-1}^2) (x_k^2 - 1 - estimate x_{k-1}^2),
    zero at x_{k-1} = 0."""
    if trunc <= 0:
        raise ValueError("truncation level must be positive")
    consts = GainConstants(lambda2=trunc)

    def evaluator(est, row):
        x_k, s = row[..., :1], row[..., 1:] ** 2
        return _truncation_factor(s, trunc) * (x_k ** 2 - 1.0 - est * s)

    return GainSpec(evaluator=evaluator, dim=1, constants=consts)


def ar1_normalized_spec(mu: float) -> GainSpec:
    """AR(1) residual gain rescaled by 1/(1 + mu x_{k-1}^2)."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    consts = GainConstants(lambda2=1.0 / mu)

    def evaluator(est, row):
        x_k, x_km1 = row[..., :1], row[..., 1:]
        return x_km1 * (x_k - est * x_km1) / (1.0 + mu * x_km1 ** 2)

    return GainSpec(evaluator=evaluator, dim=1, constants=consts)


def ar1_truncated_spec(trunc: float) -> GainSpec:
    """Truncated AR(1) gain: factor min(x^2,T)/x^2 times the score term."""
    if trunc <= 0:
        raise ValueError("truncation level must be positive")
    consts = GainConstants(lambda2=trunc)

    def evaluator(est, row):
        x_k, x_km1 = row[..., :1], row[..., 1:]
        s = x_km1 ** 2
        return _truncation_factor(s, trunc) * (x_k * x_km1 - est * s)

    return GainSpec(evaluator=evaluator, dim=1, constants=consts)


def ard_score_spec(d: int, sigma: float) -> GainSpec:
    def evaluator(est, row):
        if np.ndim(row) == 1:
            return gain_ard_score(est, row[:d], row[d:], sigma)
        ests = np.broadcast_to(est, (len(row), d))
        return np.array([gain_ard_score(e, r[:d], r[d:], sigma)
                         for e, r in zip(ests, row)])

    return GainSpec(evaluator=evaluator, dim=d)


def ar_normalized_vector_gain(theta_hat, x_k, x_lags, mu: float):
    """Vector form of the normalized AR gain on the last d lags.

    With M proportional to the rank-one matrix x x^T its smallest
    eigenvalue is identically zero for d >= 2, so the persistence of
    excitation lower bound fails there; kept for the required-failure
    verifier fixture (use ar1_normalized_spec for actual d=1 tracking).
    The scale 1 + mu ||x||^2 is formed in place and the product with the
    lags taken one column at a time (linalg.by_column), with the bits of
    the broadcast x_lags * resid[..., None].
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    x_lags = np.asarray(x_lags, dtype=float)
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    resid = np.asarray(x_lags @ theta_hat)
    np.subtract(np.asarray(x_k, dtype=float), resid, out=resid)
    scale = linalg.row_sq_norms(x_lags)
    scale *= mu
    scale += 1.0
    resid /= scale
    return linalg.by_column(np.multiply, x_lags, [resid] * x_lags.shape[-1])


def at_pinned_past(evaluator: Callable, past) -> Callable:
    """evaluator on rows (X_k, past), called with rows whose column 0 is
    X_k: the conditions hold at a pinned past, so a row stack need hold
    only X_k.  Each call copies that column into a row buffer whose other
    columns hold past, written when the buffer grows, and evaluates on
    it.  The buffer grows to the longest call, which for the condition
    verifiers is a leaf of at most bounds._LEAF rows.  The result may
    be a view on the buffer, valid until the next call."""
    buf = np.empty((0, 1 + len(past)))

    def gain_eval(est, rows):
        nonlocal buf
        if len(rows) > len(buf):
            buf = np.empty((len(rows), buf.shape[1]))
            buf[:, 1:] = past
        part = buf[:len(rows)]
        part[:, 0] = rows[:, 0]
        return evaluator(est, part)

    return gain_eval
