"""Observation-model simulators and drifting-parameter paths.

Every simulator exposes simulate(n, rng) returning a SimulatedPath with
an (n, width) observation-row array and an (n+1, d) target array; row k
is the observation consumed at tracking step k and targets[k] the
parameter it carries.  Observations never depend on the running
estimate, so a whole trajectory can be drawn up front.

Observation-row layouts match the GainSpec factories in gains.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular

from . import linalg

__all__ = [
    "NoiseSpec",
    "ParameterPath",
    "make_parameter_path",
    "SimulatedPath",
    "SignalNoiseModel",
    "PoissonCountModel",
    "CondGaussianModel",
    "Arch1Model",
    "ArdBatchModel",
    "simulate_signal_noise",
    "simulate_poisson_counts",
    "simulate_cond_gaussian",
    "simulate_arch1",
    "simulate_ard",
    "adaptive_simpson",
    "make_rng",
]

_SEED_MASK = (1 << 64) - 1


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox 4x64) keyed by a 64-bit seed.

    Philox is part of the reproducibility contract: its constants are
    published and identical streams are reproducible in any language
    with a conforming implementation.
    """
    return np.random.Generator(np.random.Philox(key=seed & _SEED_MASK))


@dataclass(frozen=True)
class NoiseSpec:
    """Centered innovation distribution: normal, uniform, or zero."""

    kind: str = "normal"
    scale: float = 1.0  # std dev for normal, half-width for uniform

    def __post_init__(self):
        if self.kind not in ("normal", "uniform", "zero"):
            raise ValueError(f"unsupported noise kind {self.kind!r}")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")

    @property
    def variance(self) -> float:
        if self.kind == "normal":
            return self.scale ** 2
        if self.kind == "uniform":
            return self.scale ** 2 / 3.0
        return 0.0

    @property
    def fourth_moment_ratio(self) -> float:
        """c with E xi^4 = c sigma^4 (3 for normal, 1.8 for uniform)."""
        if self.kind == "normal":
            return 3.0
        if self.kind == "uniform":
            return 1.8
        return 0.0

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "normal":
            return rng.normal(0.0, self.scale, size=size) if self.scale \
                else np.zeros(size)
        if self.kind == "uniform":
            return rng.uniform(-self.scale, self.scale, size=size)
        return np.zeros(size)


# =====================================================================
# Parameter paths
# =====================================================================

@dataclass
class ParameterPath:
    """Generator of the drifting target sequence.

    kinds: "static" (constant vector), "stabilizing" (random walk with
    increment budget c_rho * i^{-beta}), "lipschitz" (grid samples of a
    smooth-in-rescaled-time function), "predictable" (user rule reading
    a bounded window of past observations).  Every emitted value keeps
    ||theta||^2 <= c_theta.
    """

    kind: str
    dim: int = 1
    c_theta: float = 1.0
    value: Optional[np.ndarray] = None          # static
    c_rho: float = 1.0                          # stabilizing
    beta: float = 1.0                           # stabilizing / lipschitz
    start: Optional[np.ndarray] = None          # stabilizing
    func: Optional[Callable] = None             # lipschitz: t in [0,1] -> vec
    frequency: Optional[int] = None             # lipschitz sampling n
    rule: Optional[Callable] = None             # predictable: (k, window) -> vec
    window_depth: int = 1                       # predictable

    def _check(self, theta: np.ndarray) -> np.ndarray:
        if float(theta @ theta) > self.c_theta * (1.0 + 1e-12):
            raise ValueError("parameter path left the compact set "
                             f"(||theta||^2 > {self.c_theta})")
        return theta

    def sample(self, n: int, rng: np.random.Generator) -> Optional[np.ndarray]:
        """Realize theta_0..theta_n up front; None for predictable paths."""
        if self.kind == "static":
            theta = self._check(np.atleast_1d(np.asarray(self.value, dtype=float)))
            return np.tile(theta, (n + 1, 1))
        if self.kind == "stabilizing":
            return self._sample_stabilizing(n, rng)
        if self.kind == "lipschitz":
            grid_n = self.frequency if self.frequency is not None else n
            out = np.empty((n + 1, self.dim))
            for k in range(n + 1):
                out[k] = self._check(
                    np.atleast_1d(np.asarray(self.func(min(k, grid_n) / grid_n),
                                             dtype=float)))
            return out
        if self.kind == "predictable":
            return None
        raise ValueError(f"unknown path kind {self.kind!r}")

    def _sample_stabilizing(self, n: int, rng: np.random.Generator) -> np.ndarray:
        radius = math.sqrt(self.c_theta)
        theta = np.zeros(self.dim) if self.start is None \
            else np.atleast_1d(np.asarray(self.start, dtype=float)).copy()
        self._check(theta)
        out = np.empty((n + 1, self.dim))
        out[0] = theta
        # draws batched up front; degenerate (near-zero) draws fall back
        # to the first coordinate axis
        draws = rng.standard_normal((n, self.dim))
        steps = np.arange(n, dtype=float)
        steps[0] = 1.0
        budgets = self.c_rho * steps ** (-self.beta)
        if self.dim == 1:
            # scalar fast path: direction is just the sign of the draw
            t = float(theta[0])
            col = out[:, 0]
            signs = np.where(draws[:, 0] >= 0.0, 1.0, -1.0).tolist()
            for i, (b, s) in enumerate(zip(budgets.tolist(), signs)):
                if abs(t + b * s) > radius:
                    s = -s  # reflect back toward the interior
                if abs(t + b * s) <= radius:
                    t = t + b * s
                # else trapped near the boundary; stay put this round
                col[i + 1] = t
            if abs(t) > radius * (1.0 + 1e-12):
                raise ValueError("parameter path left the compact set")
            return out
        norms = np.linalg.norm(draws, axis=1)
        tiny = norms < 1e-12
        if np.any(tiny):
            draws[tiny] = 0.0
            draws[tiny, 0] = 1.0
            norms[tiny] = 1.0
        units = draws / norms[:, None]
        for i in range(n):
            move = budgets[i] * units[i]
            cand = theta + move
            if float(cand @ cand) > self.c_theta:
                cand = theta - move  # reflect back toward the interior
                if float(cand @ cand) > self.c_theta:
                    cand = theta  # trapped near the boundary; stay put
            theta = cand
            out[i + 1] = theta
        return self._check_all(out)

    def _check_all(self, values: np.ndarray) -> np.ndarray:
        if float(np.max(np.sum(values * values, axis=1))) \
                > self.c_theta * (1.0 + 1e-12):
            raise ValueError("parameter path left the compact set "
                             f"(||theta||^2 > {self.c_theta})")
        return values

    def predictable_value(self, k: int, window: np.ndarray) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(self.rule(k, window), dtype=float))
        return self._check(theta)


def make_parameter_path(kind: str, **params) -> ParameterPath:
    """Validated ParameterPath constructor."""
    if kind == "static":
        value = np.atleast_1d(np.asarray(params["value"], dtype=float))
        c_theta = params.get("c_theta")
        if c_theta is None:
            c_theta = float(value @ value) + 1e-12
        return ParameterPath(kind="static", dim=value.size,
                             c_theta=c_theta, value=value)
    if kind == "stabilizing":
        c_rho = params.get("c_rho", 1.0)
        beta = params.get("beta", 1.0)
        if c_rho <= 0:
            raise ValueError("c_rho must be positive")
        if beta < 0:
            raise ValueError("beta must be nonnegative")
        return ParameterPath(kind="stabilizing", dim=params.get("dim", 1),
                             c_theta=params.get("c_theta", 1.0),
                             c_rho=c_rho, beta=beta,
                             start=params.get("start"))
    if kind == "lipschitz":
        beta = params.get("beta", 1.0)
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        return ParameterPath(kind="lipschitz", dim=params.get("dim", 1),
                             c_theta=params.get("c_theta", 1.0),
                             func=params["func"], beta=beta,
                             frequency=params.get("frequency"))
    if kind == "predictable":
        return ParameterPath(kind="predictable", dim=params.get("dim", 1),
                             c_theta=params.get("c_theta", 1.0),
                             rule=params["rule"],
                             window_depth=params.get("window_depth", 1))
    raise ValueError(f"unknown path kind {kind!r}")


# =====================================================================
# Simulators
# =====================================================================

@dataclass(frozen=True)
class SimulatedPath:
    """One realized trajectory: observation rows plus the target path."""

    observations: np.ndarray  # (n, width)
    targets: np.ndarray       # (n+1, d)


@dataclass(frozen=True)
class SignalNoiseModel:
    """X_k = theta_k + xi_k with centered independent noise."""

    path: ParameterPath
    noise: NoiseSpec = NoiseSpec()

    @property
    def dim(self) -> int:
        return self.path.dim

    def simulate(self, n: int, rng: np.random.Generator) -> SimulatedPath:
        d = self.dim
        xi = self.noise.draw(rng, (n, d))
        thetas = self.path.sample(n, rng)
        if thetas is None:  # predictable rule fed by the realized past
            thetas = np.empty((n + 1, d))
            obs = np.empty((n, d))
            depth = self.path.window_depth
            window = np.zeros((depth, d))
            for k in range(n):
                thetas[k] = self.path.predictable_value(k, window)
                obs[k] = thetas[k] + xi[k]
                window = np.roll(window, -1, axis=0)
                window[-1] = obs[k]
            thetas[n] = self.path.predictable_value(n, window)
            return SimulatedPath(observations=obs, targets=thetas)
        obs = thetas[:n] + xi
        return SimulatedPath(observations=obs, targets=thetas)


def adaptive_simpson(func, a: float, b: float, tol: float = 1e-10,
                     max_depth: int = 40) -> float:
    """Adaptive Simpson quadrature with absolute tolerance."""
    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        fl, fr = func(lmid), func(rmid)
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, fl, fmid, left, eps / 2.0, depth - 1)
                + recurse(mid, hi, fmid, fr, fhi, right, eps / 2.0, depth - 1))

    fa, fb = func(a), func(b)
    fm = func(0.5 * (a + b))
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


@dataclass(frozen=True)
class PoissonCountModel:
    """Counting process on [0,1] observed on an n-point grid.

    Increment k is Poisson with mean n * integral of the intensity over
    the k-th grid cell; observation rows are (N_k, N_{k-1}) count pairs.
    The intensity is extended constantly beyond t = 1 so the target at
    the final slot is defined.
    """

    intensity: Callable[[float], float]

    dim = 1

    def cell_mean(self, k: int, n: int) -> float:
        lo = min(k / n, 1.0)
        hi = min((k + 1) / n, 1.0)
        if hi <= lo:  # past the end of the unit interval
            return self.intensity(1.0)
        val = n * adaptive_simpson(self.intensity, lo, hi, tol=1e-10)
        # n * integral over a cell of width 1/n past t=1 is just lambda(1)
        if (k + 1) / n > 1.0:
            val = self.intensity(1.0)
        return val

    def simulate(self, n: int, rng: np.random.Generator) -> SimulatedPath:
        thetas = np.array([self.cell_mean(k, n) for k in range(n + 1)])
        if np.any(thetas < 0):
            raise ValueError("intensity must be nonnegative")
        increments = rng.poisson(thetas[:n])
        counts = np.concatenate(([0], np.cumsum(increments)))
        obs = np.column_stack([counts[1:], counts[:-1]]).astype(float)
        return SimulatedPath(observations=obs,
                             targets=thetas.reshape(-1, 1))


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
        d = self.dim
        lo, hi = self.eig_band
        thetas = np.empty((n + 1, d))
        obs = np.empty((n, d))
        window = np.zeros((self.window_depth, d))
        z = rng.normal(size=(n, d))
        for k in range(n):
            thetas[k] = np.atleast_1d(np.asarray(self.mean_rule(k, window),
                                                 dtype=float))
            cov = np.atleast_2d(np.asarray(self.cov_rule(k, window), dtype=float))
            vals, vecs = np.linalg.eigh(cov)
            if vals[0] < lo - 1e-12 or vals[-1] > hi + 1e-12:
                raise ValueError(
                    f"covariance eigenvalue outside declared band at step {k}: "
                    f"[{vals[0]:.3e}, {vals[-1]:.3e}] vs [{lo}, {hi}]")
            root = (vecs * np.sqrt(vals)) @ vecs.T
            obs[k] = thetas[k] + root @ z[k]
            window = np.roll(window, -1, axis=0)
            window[-1] = obs[k]
        thetas[n] = np.atleast_1d(np.asarray(self.mean_rule(n, window),
                                             dtype=float))
        return SimulatedPath(observations=obs, targets=thetas)


@dataclass(frozen=True)
class Arch1Model:
    """X_k = sqrt(1 + theta_k X_{k-1}^2) eps_k with unit-variance eps.

    Rows are (X_k, X_{k-1}); the path must emit nonnegative theta.
    """

    path: ParameterPath
    noise: NoiseSpec = NoiseSpec()
    x0: float = 0.0

    dim = 1

    def __post_init__(self):
        if abs(self.x0) > 1.0:
            raise ValueError("|x0| must be at most 1")

    def simulate(self, n: int, rng: np.random.Generator) -> SimulatedPath:
        thetas = self.path.sample(n, rng)
        eps = self.noise.draw(rng, n)
        obs = np.empty((n, 2))
        x_prev = self.x0
        use_rule = thetas is None
        if use_rule:
            thetas = np.empty((n + 1, 1))
            window = np.zeros((self.path.window_depth, 1))
        for k in range(n):
            if use_rule:
                thetas[k] = self.path.predictable_value(k, window)
            theta = float(thetas[k, 0])
            if theta < 0:
                raise ValueError("volatility parameter must be nonnegative")
            x = math.sqrt(1.0 + theta * x_prev * x_prev) * eps[k]
            obs[k, 0] = x
            obs[k, 1] = x_prev
            x_prev = x
            if use_rule:
                window = np.roll(window, -1, axis=0)
                window[-1, 0] = x
        if use_rule:
            thetas[n] = self.path.predictable_value(n, window)
        if np.any(thetas[:, 0] < 0):
            raise ValueError("volatility parameter must be nonnegative")
        return SimulatedPath(observations=obs, targets=thetas)


@dataclass(frozen=True)
class ArdBatchModel:
    """AR(d) observed in non-overlapping d-batches, coefficients constant
    per batch; each batch solves the unit-triangular system
    A(theta) X = B(theta) Y + xi."""

    path: ParameterPath
    d: int
    sigma: float = 1.0
    rho: float = 0.9

    @property
    def dim(self) -> int:
        return self.d

    def simulate(self, n: int, rng: np.random.Generator) -> SimulatedPath:
        thetas = self.path.sample(n, rng)
        if thetas is None:
            raise ValueError("batched AR model needs a realizable path")
        obs = np.empty((n, 2 * self.d))
        y = rng.normal(0.0, self.sigma, size=self.d)
        eye = np.eye(self.d)
        for k in range(n):
            theta = thetas[k]
            member, radius = linalg.ar_stability_check(theta, self.rho)
            if not member:
                raise ValueError(
                    f"coefficients outside the stability region at step {k} "
                    f"(spectral radius {radius:.4f} > {self.rho})")
            a = linalg.ar_matrix_a(theta)
            b = linalg.ar_matrix_b(theta)
            xi = rng.normal(0.0, self.sigma, size=self.d)
            x = solve_triangular(a, b @ y + xi, lower=False,
                                 unit_diagonal=True)
            obs[k, : self.d] = x
            obs[k, self.d:] = y
            y = x
        return SimulatedPath(observations=obs, targets=thetas)


# =====================================================================
# Functional wrappers
# =====================================================================

def simulate_signal_noise(path: ParameterPath, noise: NoiseSpec, n: int,
                          seed: int) -> SimulatedPath:
    return SignalNoiseModel(path=path, noise=noise).simulate(n, make_rng(seed))


def simulate_poisson_counts(intensity, n: int, seed: int) -> SimulatedPath:
    return PoissonCountModel(intensity=intensity).simulate(n, make_rng(seed))


def simulate_cond_gaussian(mean_rule, cov_rule, n: int, d: int, seed: int,
                           eig_band=(1e-8, np.inf)) -> SimulatedPath:
    model = CondGaussianModel(mean_rule=mean_rule, cov_rule=cov_rule,
                              dim=d, eig_band=eig_band)
    return model.simulate(n, make_rng(seed))


def simulate_arch1(path: ParameterPath, noise: NoiseSpec, n: int,
                   seed: int, x0: float = 0.0) -> SimulatedPath:
    return Arch1Model(path=path, noise=noise, x0=x0).simulate(n, make_rng(seed))


def simulate_ard(path: ParameterPath, sigma: float, n_batches: int, d: int,
                 seed: int, rho: float = 0.9) -> SimulatedPath:
    model = ArdBatchModel(path=path, d=d, sigma=sigma, rho=rho)
    return model.simulate(n_batches, make_rng(seed))
