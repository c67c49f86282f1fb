"""Step-size sequences for the tracking recursion.

Four regimes: near-constant parameter (log k / k steps), stabilizing
drift, Lipschitz-in-rescaled-time drift (constant step tuned to the
horizon), and plain constant steps.  Every emitted step honours the cap
Gamma and, when a lambda2 guard is declared, the contraction requirement
gamma * lambda2 <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StepSchedule",
    "schedule_static",
    "schedule_stabilizing",
    "schedule_lipschitz",
    "schedule_constant",
    "default_c_gamma",
]


def default_c_gamma(lambda1: float | None) -> float:
    """Default step constant: 4/lambda1 when the gain declares lambda1."""
    return 4.0 / lambda1 if lambda1 else 1.0


def schedule_static(c_gamma: float, k) -> float:
    """c_gamma * ln(k)/k; indices below 2 reuse the k=2 value."""
    if c_gamma <= 0:
        raise ValueError("c_gamma must be positive")
    k = max(float(k), 2.0)
    return c_gamma * math.log(k) / k


def schedule_stabilizing(c_gamma: float, beta: float, k) -> float:
    """c_gamma * (ln k)^{1/3} k^{-2 beta/3} for 0 < beta < 3/2.

    Beyond beta = 3/2 the drift is summable and the parameter behaves as
    constant, so the static schedule takes over.
    """
    if c_gamma <= 0:
        raise ValueError("c_gamma must be positive")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if beta >= 1.5:
        return schedule_static(c_gamma, k)
    k = max(float(k), 2.0)
    return c_gamma * math.log(k) ** (1.0 / 3.0) * k ** (-2.0 * beta / 3.0)


def schedule_lipschitz(c_gamma: float, beta: float, n) -> float:
    """Constant step c_gamma (ln n)^{(2b-1)/(2b+1)} n^{-2b/(2b+1)}."""
    if c_gamma <= 0:
        raise ValueError("c_gamma must be positive")
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    n = max(float(n), 2.0)
    return (c_gamma * math.log(n) ** ((2 * beta - 1) / (2 * beta + 1))
            * n ** (-2 * beta / (2 * beta + 1)))


def schedule_constant(gamma: float) -> float:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return gamma


# kind -> (schedule, k) -> the uncapped step gamma_k; a lipschitz or
# constant step is one value for all k < n, and is given n for k
_TERMS = {
    "static": lambda s, k: schedule_static(s.c_gamma, k),
    "stabilizing": lambda s, k: schedule_stabilizing(s.c_gamma, s.beta, k),
    "lipschitz": lambda s, n: schedule_lipschitz(s.c_gamma, s.beta, n),
    "constant": lambda s, n: schedule_constant(s.gamma),
}


@dataclass(frozen=True)
class StepSchedule:
    """A step sequence gamma_k with cap and contraction guard.

    kind: "static" | "stabilizing" | "lipschitz" | "constant".  A
    lipschitz step is tuned to the n given to values_upto.
    """

    kind: str
    c_gamma: float = 1.0
    beta: float | None = None
    gamma: float | None = None
    cap: float = math.inf
    lambda2_guard: float | None = None

    def __post_init__(self):
        if self.kind not in _TERMS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind in ("stabilizing", "lipschitz") and self.beta is None:
            raise ValueError("beta required for this kind")
        if self.kind == "constant" and self.gamma is None:
            raise ValueError("gamma required for the constant kind")
        if self.cap <= 0:
            raise ValueError("cap must be positive")
        _TERMS[self.kind](self, 2)  # the term checks its own arguments

    def values_upto(self, n: int) -> np.ndarray:
        """gamma_0 .. gamma_{n-1} as an array; the term is chosen once,
        and a lipschitz or constant schedule is one value repeated."""
        term, ceiling = _TERMS[self.kind], self.cap
        if self.lambda2_guard:
            ceiling = min(ceiling, 1.0 / self.lambda2_guard)
        if self.kind in ("lipschitz", "constant"):
            return np.full(n, min(term(self, n), ceiling))
        return np.fromiter((min(term(self, k), ceiling) for k in range(n)),
                           float, count=n)
