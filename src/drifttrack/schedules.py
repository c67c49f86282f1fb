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


@dataclass(frozen=True)
class StepSchedule:
    """A step sequence gamma_k with cap and contraction guard.

    kind: "static" | "stabilizing" | "lipschitz" | "constant" |
    "tabulated".  The tabulated kind replays an explicit sequence (used
    for the Kalman cross-check).  horizon is required for "lipschitz".
    """

    kind: str
    c_gamma: float = 1.0
    beta: float | None = None
    horizon: int | None = None
    gamma: float | None = None
    values: tuple[float, ...] | None = None
    cap: float = math.inf
    lambda2_guard: float | None = None

    def __post_init__(self):
        if self.kind not in ("static", "stabilizing", "lipschitz",
                             "constant", "tabulated"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind in ("stabilizing", "lipschitz") and self.beta is None:
            raise ValueError("beta required for this kind")
        if self.kind == "lipschitz" and self.horizon is None:
            raise ValueError("horizon required for the lipschitz kind")
        if self.kind == "constant" and self.gamma is None:
            raise ValueError("gamma required for the constant kind")
        if self.kind == "tabulated" and self.values is None:
            raise ValueError("values required for the tabulated kind")
        if self.cap <= 0:
            raise ValueError("cap must be positive")

    def _raw(self, k) -> float:
        if self.kind == "static":
            return schedule_static(self.c_gamma, k)
        if self.kind == "stabilizing":
            return schedule_stabilizing(self.c_gamma, self.beta, k)
        if self.kind == "lipschitz":
            return schedule_lipschitz(self.c_gamma, self.beta, self.horizon)
        if self.kind == "constant":
            return schedule_constant(self.gamma)
        return float(self.values[k])

    def _ceiling(self) -> float:
        ceiling = self.cap
        if self.lambda2_guard:
            ceiling = min(ceiling, 1.0 / self.lambda2_guard)
        return ceiling

    def value(self, k) -> float:
        return min(self._raw(k), self._ceiling())

    def values_upto(self, n: int) -> np.ndarray:
        """gamma_0 .. gamma_{n-1} as an array."""
        return np.array([self.value(k) for k in range(n)])
