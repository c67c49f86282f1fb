"""Non-asymptotic tracking-error bounds and empirical condition checks.

The first half evaluates the closed-form upper bounds on E||delta|| (L1
version, Lp version, and the bias-extended variants).  The second half
contains Monte-Carlo verifiers for the contraction condition on the
average gain, the centered second-moment bound on the gain noise, and
the truncated-moment inequality used by the rescaled AR(1) gain.

All statistical acceptance margins are 4 MC standard errors (false
failure below 1e-4 per check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .linalg import kp_constant

__all__ = [
    "BoundInputs",
    "theorem1_bound",
    "theorem2_bound",
    "biased_bound",
    "bias_from_parameter_gap",
    "estimate_oscillation",
    "bp_constant",
    "A1Report",
    "A1ProbeResult",
    "verify_A1_empirical",
    "A2Report",
    "verify_A2_empirical",
    "TruncatedMomentReport",
    "lemma_truncated_moment_check",
]

SE_MARGIN = 4.0


@dataclass(frozen=True)
class BoundInputs:
    """Constants feeding the error-bound evaluators.

    gammas is the realized step slice over the window [k0, k]; c_theta
    bounds the squared target norm, c_theta_bar the squared estimate
    second moment (measured when not derivable).
    """

    lambda1: float
    lambda2: float
    c_g: float
    c_theta: float
    c_theta_bar: float
    gammas: np.ndarray
    p: float = 1.0
    g_bar: Optional[float] = None
    dim: int = 1
    b1: float = 2.0  # martingale moment constant at p=1; a free knob

    def __post_init__(self):
        if not 0 < self.lambda1 <= self.lambda2:
            raise ValueError("need 0 < lambda1 <= lambda2")
        if self.c_g < 0 or self.c_theta <= 0 or self.c_theta_bar <= 0:
            raise ValueError("invalid moment constants")
        gammas = np.atleast_1d(np.asarray(self.gammas, dtype=float))
        object.__setattr__(self, "gammas", gammas)

    def check_contraction(self) -> None:
        bad = np.nonzero(self.gammas * self.lambda2 > 1.0 + 1e-12)[0]
        if bad.size:
            raise ValueError(
                f"step precondition gamma*lambda2 <= 1 violated at "
                f"window index {int(bad[0])}")


def theorem1_bound(inputs: BoundInputs, max_oscillation: float) -> float:
    """First-moment error bound.

    C1 exp(-(lambda1/2) sum gamma) + C2 sqrt(sum gamma^2) + C3 * osc
    with C1 = sqrt(2 (c_theta_bar + c_theta)), C2 = sqrt(c_g) (1 +
    lambda2/lambda1), C3 = 1 + lambda2/lambda1.
    """
    inputs.check_contraction()
    if max_oscillation < 0:
        raise ValueError("oscillation must be nonnegative")
    ratio = 1.0 + inputs.lambda2 / inputs.lambda1
    c1 = math.sqrt(2.0) * math.sqrt(inputs.c_theta_bar + inputs.c_theta)
    c2 = math.sqrt(inputs.c_g) * ratio
    gsum = float(np.sum(inputs.gammas))
    gsq = float(np.sum(inputs.gammas ** 2))
    return (c1 * math.exp(-0.5 * inputs.lambda1 * gsum)
            + c2 * math.sqrt(gsq) + ratio * max_oscillation)


def bp_constant(p: float, b1: float = 2.0) -> float:
    """Moment constant of the martingale inequality used at order p."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if p == 1.0:
        return b1
    return ((18.0 * p ** 2.5) / (p - 1.0) ** 1.5) ** p


def _theorem2_constants(inputs: BoundInputs) -> tuple[float, float, float]:
    p, d = inputs.p, inputs.dim
    kp = kp_constant(p, d)
    ratio = 1.0 + kp ** 2 * inputs.lambda2 / inputs.lambda1
    three = 3.0 ** (p - 1.0)
    c1p = three * kp ** p
    if inputs.g_bar is None:
        raise ValueError("g_bar (hard gain bound) required for the Lp bound")
    c2p = (three * 2.0 ** p * d * bp_constant(p, inputs.b1)
           * inputs.g_bar ** p * ratio ** p)
    c3p = three * ratio ** p
    return c1p, c2p, c3p


def theorem2_bound(inputs: BoundInputs, initial_moment_p: float,
                   max_oscillation_p: float) -> float:
    """p-th moment error bound.

    C1' E||delta_{k0}||_p^p exp(-p lambda1 sum gamma)
    + C2' (sum gamma^2)^{p/2} + C3' * max_oscillation_p, where
    max_oscillation_p is already the p-th power max E||theta_{i+1} -
    theta_{k0}||_p^p over the window.
    """
    inputs.check_contraction()
    if initial_moment_p < 0 or max_oscillation_p < 0:
        raise ValueError("moments must be nonnegative")
    c1p, c2p, c3p = _theorem2_constants(inputs)
    p = inputs.p
    gsum = float(np.sum(inputs.gammas))
    gsq = float(np.sum(inputs.gammas ** 2))
    return (c1p * initial_moment_p * math.exp(-p * inputs.lambda1 * gsum)
            + c2p * gsq ** (p / 2.0) + c3p * max_oscillation_p)


def biased_bound(inputs: BoundInputs, bias_norms, mode: str,
                 max_oscillation: float = 0.0,
                 initial_moment_p: float = 0.0) -> float:
    """Error bound when the average gain carries a bias eta_k.

    mode "L1": adds C3 * sum gamma_i ||eta_i|| to the first-moment bound.
    mode "Lp": folds sum gamma_i ||eta_i||_p into the oscillation before
    raising to p, so max_oscillation is interpreted as the un-raised
    max E||theta_{i+1} - theta_{k0}||_p here.  Zero bias reduces to the
    unbiased bounds exactly.
    """
    bias_norms = np.atleast_1d(np.asarray(bias_norms, dtype=float))
    if bias_norms.size != inputs.gammas.size:
        raise ValueError("bias sequence length must match the step window")
    if np.any(bias_norms < 0):
        raise ValueError("bias norms must be nonnegative")
    weighted = float(np.sum(inputs.gammas * bias_norms))
    if mode == "L1":
        ratio = 1.0 + inputs.lambda2 / inputs.lambda1
        return theorem1_bound(inputs, max_oscillation) + ratio * weighted
    if mode == "Lp":
        inputs.check_contraction()
        c1p, c2p, c3p = _theorem2_constants(inputs)
        p = inputs.p
        gsum = float(np.sum(inputs.gammas))
        gsq = float(np.sum(inputs.gammas ** 2))
        return (c1p * initial_moment_p * math.exp(-p * inputs.lambda1 * gsum)
                + c2p * gsq ** (p / 2.0)
                + c3p * (max_oscillation + weighted) ** p)
    raise ValueError("mode must be 'L1' or 'Lp'")


def bias_from_parameter_gap(eps_norms, lambda2: float,
                            p: float = 1.0, dim: int = 1) -> np.ndarray:
    """Bias bound when tracking a nearby parameter at distance eps_k:
    ||eta_k||_p <= lambda2 K_p ||eps_k||_p (K_1 taken as 1)."""
    eps_norms = np.atleast_1d(np.asarray(eps_norms, dtype=float))
    kp = 1.0 if p == 1.0 else kp_constant(p, dim)
    return lambda2 * kp * eps_norms


def estimate_oscillation(theta_path, p: float = 2.0, k0: int = 0) -> float:
    """max over i >= k0 of ||theta_{i+1} - theta_{k0}||_p for one path,
    or the mean of that max across a (replications, steps, d) stack."""
    theta_path = np.asarray(theta_path, dtype=float)
    if theta_path.ndim == 3:
        return float(np.mean([estimate_oscillation(path, p, k0)
                              for path in theta_path]))
    if theta_path.ndim == 1:
        theta_path = theta_path[:, None]
    diffs = theta_path[k0 + 1:] - theta_path[k0]
    if diffs.shape[0] == 0:
        return 0.0
    if p == math.inf:
        norms = np.max(np.abs(diffs), axis=1)
    else:
        norms = np.sum(np.abs(diffs) ** p, axis=1) ** (1.0 / p)
    return float(np.max(norms))


# =====================================================================
# Empirical condition verifiers
# =====================================================================

@dataclass(frozen=True)
class A1ProbeResult:
    probe: np.ndarray
    r_hat: float          # -(v-theta)^T g_hat / ||v-theta||^2
    r_se: float
    g_norm_ratio: float   # ||g_hat|| / ||v-theta||
    ratio_se: float
    passed: bool


@dataclass(frozen=True)
class A1Report:
    probes: list
    lambda1: Optional[float]
    lipschitz: Optional[float]
    passed: bool


def _eval_gain_stack(gain_eval, probe: np.ndarray, rows: np.ndarray,
                     dim: int) -> np.ndarray:
    """Evaluate the gain on a stack of observation rows -> (N, d)."""
    est = probe if dim > 1 else float(probe[0])
    out = np.asarray(gain_eval(est, rows), dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    return out


def verify_A1_empirical(gain_eval, sampler: Callable, theta, probes,
                        n_samples: int, rng: np.random.Generator,
                        lambda1: Optional[float] = None,
                        lipschitz: Optional[float] = None) -> A1Report:
    """Probe the contraction property of the average gain.

    For each probe v != theta, draws n_samples fresh observations at the
    pinned past via sampler(rng, n_samples) -> row stack, estimates the
    mean gain g_hat, and reports the contraction coefficient r(v) =
    -(v-theta)^T g_hat / ||v-theta||^2 and the magnitude ratio
    ||g_hat||/||v-theta||.  A probe passes when r >= lambda1 - 4 SE and
    (if a Lipschitz constant is declared) the ratio <= L + 4 SE.
    """
    if n_samples < 10_000:
        raise ValueError("need at least 1e4 MC samples")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    probes = [np.atleast_1d(np.asarray(v, dtype=float)) for v in probes]
    if not probes:
        raise ValueError("empty probe set")
    results = []
    for probe in probes:
        delta = probe - theta
        dist_sq = float(delta @ delta)
        if dist_sq < 1e-20:
            raise ValueError("probes must differ from the true parameter")
        rows = np.asarray(sampler(rng, n_samples), dtype=float)
        if rows.ndim == 1:
            rows = rows[:, None]
        gains = _eval_gain_stack(gain_eval, probe, rows, theta.size)
        g_hat = gains.mean(axis=0)
        # projection of each sampled gain onto the error direction
        proj = -(gains @ delta) / dist_sq
        r_hat = float(proj.mean())
        r_se = float(proj.std(ddof=1)) / math.sqrt(n_samples)
        dist = math.sqrt(dist_sq)
        ratio = float(np.linalg.norm(g_hat)) / dist
        comp_se = gains.std(axis=0, ddof=1) / math.sqrt(n_samples)
        ratio_se = float(np.linalg.norm(comp_se)) / dist
        ok = True
        if lambda1 is not None:
            ok = ok and r_hat >= lambda1 - SE_MARGIN * r_se
        if lipschitz is not None:
            ok = ok and ratio <= lipschitz + SE_MARGIN * ratio_se
        results.append(A1ProbeResult(probe=probe, r_hat=r_hat, r_se=r_se,
                                     g_norm_ratio=ratio, ratio_se=ratio_se,
                                     passed=ok))
    return A1Report(probes=results, lambda1=lambda1, lipschitz=lipschitz,
                    passed=all(r.passed for r in results))


@dataclass(frozen=True)
class A2Report:
    second_moment: float
    se: float
    c_g: Optional[float]
    passed: bool


def verify_A2_empirical(gain_eval, sampler: Callable, probe,
                        n_samples: int, rng: np.random.Generator,
                        c_g: Optional[float] = None) -> A2Report:
    """MC estimate of E||G - g_hat||^2 at a pinned past, vs declared C_g."""
    probe = np.atleast_1d(np.asarray(probe, dtype=float))
    rows = np.asarray(sampler(rng, n_samples), dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    gains = _eval_gain_stack(gain_eval, probe, rows, probe.size)
    centered = gains - gains.mean(axis=0)
    sq = np.sum(centered * centered, axis=1)
    moment = float(sq.mean())
    se = float(sq.std(ddof=1)) / math.sqrt(n_samples)
    passed = True if c_g is None else moment <= c_g + SE_MARGIN * se
    return A2Report(second_moment=moment, se=se, c_g=c_g, passed=passed)


@dataclass(frozen=True)
class TruncatedMomentReport:
    mc_mean: float
    se: float
    threshold: float
    passed: bool


def lemma_truncated_moment_check(theta: float, x_prev: float, sigma: float,
                                 c4: float, trunc: float, n_samples: int,
                                 rng: np.random.Generator) -> TruncatedMomentReport:
    """Truncated conditional second moment of an AR(1) step.

    With X = theta x_prev + xi, E xi^2 = sigma^2, E xi^4 = c4 sigma^4,
    0 < c4 < 5, and any truncation level T >= (9 - c4) sigma^2 / 4, the
    conditional mean of min(X^2, T) is at least (5 - c4) sigma^2 / 4.
    PASS when the MC mean clears the threshold minus 4 SE.
    """
    if not 0.0 < c4 < 5.0:
        raise ValueError("fourth-moment ratio must lie in (0, 5)")
    floor = (9.0 - c4) * sigma ** 2 / 4.0
    if trunc < floor - 1e-12:
        raise ValueError(f"truncation level below the admissible floor {floor}")
    x = theta * x_prev + rng.normal(0.0, sigma, size=n_samples)
    clipped = np.minimum(x * x, trunc)
    mean = float(clipped.mean())
    se = float(clipped.std(ddof=1)) / math.sqrt(n_samples)
    threshold = (5.0 - c4) * sigma ** 2 / 4.0
    return TruncatedMomentReport(mc_mean=mean, se=se, threshold=threshold,
                                 passed=mean >= threshold - SE_MARGIN * se)
