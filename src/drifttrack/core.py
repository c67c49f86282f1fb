"""The recursive tracking engine.

Projection regions plus one kernel, track, that runs the recursion
theta_hat_{k+1} = theta_hat_k + gamma_k * G_k on a block of
replications at once; the value stored at slot k+1 is compared against
the target at the same slot.  run_replications simulates and tracks
as many seeds as BLOCK_BYTES holds at the horizon; run_tracking is it
with one seed, and replay_updates re-runs track on stored observations.

A block holds one time-major (n+1, B, max(w, d)) stack: it carries
observation row k of every replication in slot k+1, and track writes
estimate k+1 over that slot once step k has consumed the row.  Targets
that draw nothing (a static or grid path) are one read-only (n+1, d)
table the seeds share, seen as a (B, n+1, d) broadcast; targets drawn
per seed take a second, rep-major (B, n+1, d) stack.  The sweeps reduce
each block in place, so no further (B, n+1, d) array is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Optional, Union

import numpy as np

from .gains import GainSpec
from .models import make_rng
from .schedules import StepSchedule

__all__ = [
    "Box",
    "Ball",
    "ProjectionRegion",
    "TrackingConfig",
    "TrackingRun",
    "TrackingDiverged",
    "GUARD_FACTOR",
    "BLOCK_BYTES",
    "track",
    "run_replications",
    "run_tracking",
    "replay_updates",
]

GUARD_FACTOR = 1e6  # divergence guard: abort when ||est|| > 1e6 (1 + ||est_0||)
# Bytes of stack per block: a replication costs (n+1) * (max(w, d) + d) * 8
# bytes, or (n+1) * max(w, d) * 8 when its targets are a shared table, and
# run_replications steps as many together as fit, at least one.  That is
# 160 MB: 200 replications at n = 1e5 and d = w = 1 with shared targets.
BLOCK_BYTES = 200 * (100_000 + 1) * 8
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
          projection: Optional[ProjectionRegion] = None,
          out: Optional[np.ndarray] = None) -> np.ndarray:
    """The recursion on a block of B replications stepped together.

    initial is (B, d), observations (n, B, w) and gammas (n,); the gain
    evaluator maps (B, d) estimates and (B, w) rows to (B, d) directions.
    Estimate k+1 goes to out[k+1] of the time-major (n+1, B, d) out, a
    new array when None; out[k+1] may share memory with observations[k],
    since the direction is taken out of the row before the slot is
    written.  Returns out as the (B, n+1, d) estimates.  Rows never mix,
    so every replication's path equals the one a block of one gives, bit
    for bit.
    """
    est = np.array(initial, dtype=float)
    shape = est.shape
    n = observations.shape[0]
    if out is None:
        out = np.empty((n + 1,) + shape)
    out[0] = est
    step = np.empty(shape)
    guard_sq = (GUARD_FACTOR * (1.0 + np.sqrt(np.sum(est * est, axis=1)))) ** 2
    # the block's squared norm under half the smallest row guard clears
    # every row at once, rounding included; otherwise check row by row
    block_sq_limit = 0.5 * float(np.min(guard_sq, initial=math.inf))
    for k, gamma in enumerate(np.asarray(gammas, dtype=float)):
        # a direction that would broadcast the block raises ValueError
        np.multiply(gamma, evaluator(est, observations[k]), out=step)
        est = np.add(est, step, out=out[k + 1])
        if projection is not None:
            est[...] = projection.project(est)
        if not np.vdot(est, est) <= block_sq_limit and \
                not np.all(np.sum(est * est, axis=1) <= guard_sq):  # NaN too
            raise TrackingDiverged(k)
    return out.transpose(1, 0, 2)


def _simulate(sims, n: int, size: int, table=None):
    """The next size runs of sims, drawn into a time-major
    (n+1, B, max(w, d)) stack: observation row k of run i goes to
    [k+1, i, :w].  Returns the (n, B, w) observations and (n+1, B, d)
    estimate slots, both views of the stack, and the (B, n+1, d)
    targets: a read-only broadcast of table when given, else a stack of
    each run's own."""
    stack = targets = None
    for i, sim in enumerate(islice(sims, size)):
        w = sim.observations.shape[1]
        if stack is None:
            d = sim.targets.shape[1]
            stack = np.empty((n + 1, size, max(w, d)))
            targets = np.empty((size, n + 1, d)) if table is None \
                else np.broadcast_to(table, (size, n + 1, d))
        stack[1:, i, :w] = sim.observations
        if table is None:
            targets[i] = sim.targets
        del sim  # before the next run is drawn
    return stack[1:, :, :w], stack[:, :, :d], targets


def run_replications(config: TrackingConfig, model, gain: GainSpec, seeds,
                     gammas: Optional[np.ndarray] = None,
                     table: Optional[np.ndarray] = None):
    """Yield (start, estimates, targets) per block of seeds, in seed order.

    Blocks of as many replications as BLOCK_BYTES holds are simulated
    and stepped together; start is the block's first index into seeds,
    and estimates and targets are (B, n+1, d), each row equal to a block
    of one with its seed bit for bit.  estimates is a view of the spent
    observation stack, which the caller may overwrite; it should drop
    both before asking for the next block, as the generator does.
    table, the (n+1, d) targets every seed shares when the model's path
    draws nothing (its table_for(n)), makes targets a read-only
    broadcast of it.  gammas defaults to the config's schedule.  A
    divergence raises TrackingDiverged for the lowest-index replication
    that diverges, at its own step, as a one-at-a-time loop would;
    .replication is its index into seeds and .horizon the config's.
    """
    if model.dim != config.dimension:
        raise ValueError("model dimension does not match config")
    if gain.dim != config.dimension:
        raise ValueError("gain dimension does not match config")
    n, d = config.horizon, config.dimension
    if gammas is None:
        gammas = config.schedule.values_upto(n)
    seeds = list(seeds)
    sims = (model.simulate(n, make_rng(seed)) for seed in seeds)
    start = 0
    for first in sims:  # one pass a block; the first run gives its width
        width = max(first.observations.shape[1], d) \
            + (d if table is None else 0)
        size = max(1, BLOCK_BYTES // ((n + 1) * width * 8))
        block = seeds[start:start + size]
        obs, slots, targets = _simulate(chain([first], sims), n, len(block),
                                        table)
        init = np.tile(config.initial_estimate, (len(block), 1))
        try:
            estimates = track(init, obs, gammas, gain.evaluator,
                              config.projection, out=slots)
        except TrackingDiverged:
            # the block trips at its earliest step, over rows it has
            # overwritten: redraw each seed alone, lowest index first
            del obs, slots, targets
            for i, seed in enumerate(block):
                sim = model.simulate(n, make_rng(seed))
                try:
                    track(config.initial_estimate[None],
                          sim.observations[:, None], gammas,
                          gain.evaluator, config.projection)
                except TrackingDiverged as exc:
                    raise TrackingDiverged(exc.step, n, start + i) from None
            raise
        yield start, estimates, targets
        del obs, slots, targets, estimates
        start += len(block)


def run_tracking(config: TrackingConfig, model, gain: GainSpec,
                 rng_seed: int) -> TrackingRun:
    """Execute the online loop for one seed: run_replications with one.

    The simulator draws the whole observation sequence (targets are
    predictable from the past only, never from the estimates), then the
    recursion consumes one row per step.  Deterministic given the seed.
    """
    gammas = config.schedule.values_upto(config.horizon)
    [(_, estimates, targets)] = run_replications(config, model, gain,
                                                 [rng_seed], gammas)
    return TrackingRun(estimates[0], targets[0], gammas)


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
