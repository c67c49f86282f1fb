"""The recursive tracking engine.

Projection regions plus one kernel, track, that runs the recursion
theta_hat_{k+1} = theta_hat_k + gamma_k * G_k on a block of
replications at once; the value stored at slot k+1 is compared against
the target at the same slot.  run_replications simulates and tracks
as many seeds as BLOCK_SLOTS holds at the horizon; run_tracking is it
with one seed, and replay_updates re-runs track on stored observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .gains import GainSpec
from .models import SimulatedPath, make_rng
from .schedules import StepSchedule

__all__ = [
    "Box",
    "Ball",
    "ProjectionRegion",
    "TrackingConfig",
    "TrackingRun",
    "TrackingDiverged",
    "GUARD_FACTOR",
    "BLOCK_SLOTS",
    "track",
    "run_replications",
    "run_tracking",
    "replay_updates",
]

GUARD_FACTOR = 1e6  # divergence guard: abort when ||est|| > 1e6 (1 + ||est_0||)
# Replication-slots per block: run_replications steps max(1, BLOCK_SLOTS //
# (n+1)) replications together, so its buffers hold at most about
# BLOCK_SLOTS * (w + 2d) * 8 bytes (150 MB at d = w = 1) unless a single
# replication needs more.
BLOCK_SLOTS = 64 * (100_000 + 1)
_DIVERGED = "estimate left the guard region or gain went non-finite"


class TrackingDiverged(RuntimeError):
    """The estimate left the guard region or the gain went non-finite.

    run_replications sets horizon and replication, an index into seeds.
    """

    def __init__(self, step: int, horizon: Optional[int] = None,
                 replication: Optional[int] = None):
        super().__init__(f"step {step}: {_DIVERGED}")
        self.step = step
        self.horizon = horizon
        self.replication = replication


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; nearest point is the componentwise clamp."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if np.any(lower > upper):
            raise ValueError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def contains(self, point, tol: float = 1e-12) -> bool:
        point = np.atleast_1d(np.asarray(point, dtype=float))
        return bool(np.all(point >= self.lower - tol)
                    and np.all(point <= self.upper + tol))

    def project(self, point) -> np.ndarray:
        point = np.atleast_1d(np.asarray(point, dtype=float))
        return np.clip(point, self.lower, self.upper)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball; nearest point is radial rescaling."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        object.__setattr__(self, "center", center)

    def contains(self, point, tol: float = 1e-12) -> bool:
        point = np.atleast_1d(np.asarray(point, dtype=float))
        return float(np.linalg.norm(point - self.center)) <= self.radius + tol

    def project(self, point) -> np.ndarray:
        """Nearest point of a (d,) point or of each row of a (B, d) stack."""
        point = np.atleast_1d(np.asarray(point, dtype=float))
        offset = point - self.center
        # np.linalg.norm of each row: a BLAS dot, whose bits a vectorized
        # sum of squares does not always reproduce
        rows = offset.reshape(-1, offset.shape[-1])
        norm = np.array([np.linalg.norm(row) for row in rows]).reshape(
            offset.shape[:-1] + (1,))
        scale = self.radius / np.maximum(norm, self.radius)
        return np.where(norm <= self.radius, point, self.center + offset * scale)


ProjectionRegion = Union[Box, Ball]


@dataclass(frozen=True)
class TrackingConfig:
    dimension: int
    horizon: int
    initial_estimate: np.ndarray
    schedule: StepSchedule
    projection: Optional[ProjectionRegion] = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        init = np.atleast_1d(np.asarray(self.initial_estimate, dtype=float))
        if init.size != self.dimension:
            raise ValueError("initial estimate dimension mismatch")
        if not np.all(np.isfinite(init)):
            raise ValueError("initial estimate must be finite")
        if self.projection is not None and not self.projection.contains(init):
            raise ValueError("initial estimate must lie inside the projection region")
        object.__setattr__(self, "initial_estimate", init)


@dataclass(frozen=True)
class TrackingRun:
    """One trajectory: estimates and targets (n+1 slots) and the realized
    steps (n slots)."""

    estimates: np.ndarray
    targets: np.ndarray
    steps: np.ndarray


def track(initial, observations, gammas, evaluator,
          projection: Optional[ProjectionRegion] = None) -> np.ndarray:
    """The recursion on a block of B replications stepped together.

    initial is (B, d), observations (n, B, w) and gammas (n,); the gain
    evaluator maps (B, d) estimates and (B, w) rows to (B, d) directions.
    Returns the (B, n+1, d) estimates.  Rows never mix, so every
    replication's path equals the one a block of one gives, bit for bit.
    """
    est = np.array(initial, dtype=float)
    shape = est.shape
    n = observations.shape[0]
    estimates = np.empty((shape[0], n + 1, shape[1]))
    estimates[:, 0] = est
    guard_sq = (GUARD_FACTOR * (1.0 + np.sqrt(np.sum(est * est, axis=1)))) ** 2
    # the block's squared norm under half the smallest row guard clears
    # every row at once, rounding included; otherwise check row by row
    block_sq_limit = 0.5 * float(np.min(guard_sq, initial=math.inf))
    for k, gamma in enumerate(np.asarray(gammas, dtype=float).tolist()):
        est = est + gamma * evaluator(est, observations[k])
        if projection is not None:
            est = projection.project(est)
        if est.shape != shape:
            raise ValueError(f"gain gave shape {est.shape}, expected {shape}")
        if not np.vdot(est, est) <= block_sq_limit and \
                not np.all(np.sum(est * est, axis=1) <= guard_sq):  # NaN too
            raise TrackingDiverged(k)
        estimates[:, k + 1] = est
    return estimates


def _simulate(model, n: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Observations (n, B, w) and targets (B, n+1, d), one run per seed."""
    obs = targets = None
    for i, seed in enumerate(seeds):
        sim: SimulatedPath = model.simulate(n, make_rng(seed))
        if obs is None:
            obs = np.empty((n, len(seeds), sim.observations.shape[1]))
            targets = np.empty((len(seeds),) + sim.targets.shape)
        obs[:, i] = sim.observations
        targets[i] = sim.targets
    return obs, targets


def run_replications(config: TrackingConfig, model, gain: GainSpec, seeds,
                     gammas: Optional[np.ndarray] = None):
    """Yield (estimates, targets) of one run per seed, in seed order.

    Blocks of max(1, BLOCK_SLOTS // (n+1)) replications are simulated
    and stepped together; each equals a block of one with its seed bit
    for bit.  gammas defaults to the config's schedule.  A divergence
    raises TrackingDiverged for the lowest-index replication that
    diverges, at its own step, as a one-at-a-time loop would;
    .replication is its index into seeds and .horizon the config's.
    """
    if getattr(model, "dim", config.dimension) != config.dimension:
        raise ValueError("model dimension does not match config")
    if gain.dim != config.dimension:
        raise ValueError("gain dimension does not match config")
    if gammas is None:
        gammas = config.schedule.values_upto(config.horizon)
    seeds = list(seeds)
    size = max(1, BLOCK_SLOTS // (config.horizon + 1))
    for start in range(0, len(seeds), size):
        block = seeds[start:start + size]
        obs, targets = _simulate(model, config.horizon, block)
        init = np.tile(config.initial_estimate, (len(block), 1))
        try:
            estimates = track(init, obs, gammas, gain.evaluator,
                              config.projection)
        except TrackingDiverged:
            for i in range(len(block)):  # the block trips at its earliest step
                try:
                    track(init[i:i + 1], obs[:, i:i + 1], gammas,
                          gain.evaluator, config.projection)
                except TrackingDiverged as exc:
                    raise TrackingDiverged(exc.step, config.horizon,
                                           start + i) from None
            raise
        for i in range(len(block)):
            yield estimates[i], targets[i]


def run_tracking(config: TrackingConfig, model, gain: GainSpec,
                 rng_seed: int) -> TrackingRun:
    """Execute the online loop for one seed: run_replications with one.

    The simulator draws the whole observation sequence (targets are
    predictable from the past only, never from the estimates), then the
    recursion consumes one row per step.  Deterministic given the seed.
    """
    gammas = config.schedule.values_upto(config.horizon)
    [(estimates, targets)] = run_replications(config, model, gain,
                                              [rng_seed], gammas)
    return TrackingRun(estimates, targets, gammas)


def replay_updates(initial_estimate, observations, gammas, gain: GainSpec,
                   projection: Optional[ProjectionRegion] = None) -> np.ndarray:
    """Re-run the pure recursion on stored observations (no randomness).

    Used to certify that estimates depend on nothing beyond the stored
    inputs: the replay must reproduce a run's estimate path exactly.
    """
    observations = np.asarray(observations, dtype=float)
    init = np.atleast_1d(np.asarray(initial_estimate, dtype=float))
    return track(init[None], observations[:, None], gammas, gain.evaluator,
                 projection)[0]
