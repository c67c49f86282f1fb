"""Step-size sequences for the tracking recursion: one StepSchedule kind
per regime (near-constant parameter, stabilizing drift, Lipschitz drift
in rescaled time, constant steps).  Every step honours the cap Gamma
and, when a lambda2 guard is declared, gamma * lambda2 <= 1."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["StepSchedule", "default_c_gamma"]


def default_c_gamma(lambda1: float | None) -> float:
    """Default step constant: 4/lambda1 when the gain declares lambda1."""
    return 4.0 / lambda1 if lambda1 else 1.0


@dataclass(frozen=True)
class StepSchedule:
    """A step sequence gamma_k with cap and contraction guard; each kind
    checks only the parameters it reads, and k < 2 reuses k = 2.

    static       c_gamma ln(k) / k
    stabilizing  c_gamma (ln k)^{1/3} k^{-2 beta/3}, beta > 0; from
                 beta = 3/2 on the drift is summable, so the static term
    lipschitz    c_gamma (ln n)^{(2b-1)/(2b+1)} n^{-2b/(2b+1)} for every
                 k < n, 0 < beta <= 1, with n the horizon of values_upto
    constant     gamma
    """

    KINDS = ("static", "stabilizing", "lipschitz", "constant")

    kind: str
    c_gamma: float = 1.0
    beta: float | None = None
    gamma: float | None = None
    cap: float = math.inf
    lambda2_guard: float | None = None

    def __post_init__(self):
        kind, beta, gamma = self.kind, self.beta, self.gamma
        if kind not in self.KINDS:
            raise ValueError(f"unknown schedule kind {kind!r}")
        if not self.cap > 0:  # each check fails on NaN, beta and gamma on None
            raise ValueError("cap must be positive")
        if kind == "constant" and not (gamma is not None and gamma > 0):
            raise ValueError("gamma must be positive")
        if kind != "constant" and not self.c_gamma > 0:
            raise ValueError("c_gamma must be positive")
        if kind == "stabilizing" and not (beta is not None and beta > 0):
            raise ValueError("beta must be positive")
        if kind == "lipschitz" and not (beta is not None and 0 < beta <= 1):
            raise ValueError("beta must lie in (0, 1]")
        if self.lambda2_guard is not None and not self.lambda2_guard > 0:
            raise ValueError("lambda2_guard must be positive")

    @property
    def _drifting(self) -> bool:
        """Whether the stabilizing term applies (beta < 3/2)."""
        return self.kind == "stabilizing" and self.beta < 1.5

    @property
    def slope(self) -> float | None:
        """The theoretical log n slope of the error, None for constant
        steps; stabilizing at beta >= 3/2 has the static slope."""
        if self.kind == "constant":
            return None
        if self.kind == "lipschitz":
            return -self.beta / (2.0 * self.beta + 1.0)
        return -self.beta / 3.0 if self._drifting else -0.5

    def values_upto(self, n: int) -> np.ndarray:
        """gamma_0 .. gamma_{n-1} (n >= 0), each capped by min(cap,
        1/lambda2_guard).  Each step takes a math.log and a float power,
        whose bits numpy's vector log and power need not give."""
        ceiling, c, log = self.cap, self.c_gamma, math.log
        if self.lambda2_guard:
            ceiling = min(ceiling, 1.0 / self.lambda2_guard)
        if self.kind == "constant":
            return np.full(n, min(self.gamma, ceiling))
        if self.kind == "lipschitz":
            b, m = self.beta, max(float(n), 2.0)
            step = (c * log(m) ** ((2 * b - 1) / (2 * b + 1))
                    * m ** (-2 * b / (2 * b + 1)))
            return np.full(n, min(step, ceiling))
        ks = itertools.chain((2.0, 2.0), map(float, range(2, n)))
        if self._drifting:
            e = -2.0 * self.beta / 3.0
            steps = (c * log(k) ** (1.0 / 3.0) * k ** e for k in ks)
        else:
            steps = (c * log(k) / k for k in ks)
        out = np.fromiter(steps, float, count=n)
        return np.minimum(out, ceiling, out=out)
