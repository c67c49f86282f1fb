"""The recursive tracking engine.

Projection regions plus one kernel, track, that runs the recursion
theta_hat_{k+1} = theta_hat_k + gamma_k * G_k on a block of
replications at once; the value stored at slot k+1 is compared against
the target at the same slot.  run_replications draws and tracks as many
seeds as BLOCK_BYTES holds; run_tracking is it with one seed, and
replay_updates re-runs track on stored observations.

A block steps through the horizon WINDOW steps at a time, carrying each
replication's last estimate, generator and model state into the next
window.  It holds one time-major (m+1, B, max(w, d)) stack for a window
of m steps: it carries observation row k of every replication in slot
k+1, and track writes estimate k+1 over that slot once step k has
consumed the row.  track checks the divergence guard once per window,
after the window's last step, and names the first step that left it;
the window's steps after that one are discarded, with no warning.  The
rows come from the model's RowSource for the block's generators, which
writes each window straight into the stack: the signal+noise model
fills each seed's window with one generator call and scales, shifts and
adds its noise a group of seeds at a time, the other models loop over
their seeds.  When the targets draw nothing (a static or grid path),
they are one read-only (n+1, d) table the seeds share, seen as a
broadcast; a stabilizing walk writes each seed's window of targets to a
rep-major (B, m+1, d) buffer.  The sweeps reduce each window in place,
so no further stack-sized array is allocated; WindowMeans is the
reduction that makes rates' window means of a streamed run equal those
of the whole run, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .bounds import _tree
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
    "WINDOW",
    "track",
    "run_replications",
    "run_tracking",
    "replay_updates",
    "WindowMeans",
]

GUARD_FACTOR = 1e6  # divergence guard: abort when ||est|| > 1e6 (1 + ||est_0||)
# Bytes of observation stack per block.  A run costs (WINDOW+1) * max(w, d)
# * 8 bytes of it, its rows with the estimates written over them (a walk
# as much again at w = d for its targets), and run_replications steps as
# many together as fit, at least one.  So it only caps the replications
# per block: about 19,500 at w = d = 1.
BLOCK_BYTES = 200 * (100_000 + 1) * 8
# Steps of a run drawn and tracked at once: a block of 200 at w = 1 holds
# 1.6 MB of rows.
WINDOW = 1024
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


def _guard_sq(initial: np.ndarray) -> np.ndarray:
    """Each replication's squared guard radius, from its initial estimate."""
    return (GUARD_FACTOR * (1.0 + np.sqrt(np.sum(initial * initial,
                                                 axis=1)))) ** 2


def _check_guard(slab: np.ndarray, guard_sq: np.ndarray) -> None:
    """Raise TrackingDiverged at the first slot k of the (m, B, d) slab
    whose estimate of some replication is non-finite or has a squared
    norm above that replication's guard_sq."""
    # the slab's squared norm under half the smallest guard clears every
    # slot at once, rounding included; einsum reads a strided slab in
    # place, where vdot would copy it
    if np.einsum("kbi,kbi->", slab, slab) \
            <= 0.5 * float(np.min(guard_sq, initial=math.inf)):
        return
    for k, est in enumerate(slab):
        if not np.all(np.sum(est * est, axis=-1) <= guard_sq):  # NaN too
            raise TrackingDiverged(k)


def track(initial, observations, gammas, evaluator,
          projection: Optional[ProjectionRegion] = None,
          out: Optional[np.ndarray] = None,
          guard_sq: Optional[np.ndarray] = None) -> np.ndarray:
    """The recursion on a block of B replications stepped together.

    initial is (B, d), observations (n, B, w) and gammas (n,); the gain
    evaluator maps (B, d) estimates and (B, w) rows to (B, d) directions.
    Estimate k+1 goes to out[k+1] of the time-major (n+1, B, d) out, a
    new array when None; out[k+1] may share memory with observations[k],
    since the direction is taken out of the row before the slot is
    written.  Returns out as the (B, n+1, d) estimates.  Rows never mix,
    so every replication's path equals the one a block of one gives, bit
    for bit.  guard_sq, the (B,) squared guard radii, defaults to the
    ones of initial; a caller that steps a run window by window passes
    those of the run's first estimate, so the guard does not move.

    The guard is checked once, over out[1:] after the last step, and
    TrackingDiverged names the first step whose estimate left it, the
    step a check after every step would name.  The steps after it are
    discarded, and they run with overflow and invalid-value warnings
    off, so a divergence prints none.  An evaluator that raises is
    re-raised only when no earlier step left the guard.
    """
    est = np.array(initial, dtype=float)
    n = observations.shape[0]
    gammas = np.asarray(gammas, dtype=float).tolist()
    if len(gammas) != n:
        raise ValueError("one step size per observation row")
    if out is None:
        out = np.empty((n + 1,) + est.shape)
    out[0] = est
    slots = out[1:]
    step = np.empty(est.shape)
    if guard_sq is None:
        guard_sq = _guard_sq(est)
    add, multiply = np.add, np.multiply
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k, (gamma, row, slot) in enumerate(zip(gammas, observations,
                                                       slots)):
                # a direction that would broadcast the block raises
                # ValueError
                est = add(est, multiply(gamma, evaluator(est, row), step),
                          slot)
                if projection is not None:
                    est[...] = projection.project(est)
        except Exception:
            # a check after every step would have stopped at a step
            # before this one that left the guard
            _check_guard(slots[:k], guard_sq)
            raise
        _check_guard(slots, guard_sq)
    return out.transpose(1, 0, 2)


def run_replications(config: TrackingConfig, model, gain: GainSpec, seeds,
                     gammas: Optional[np.ndarray] = None):
    """Yield (start, first, estimates, targets) per window of each block
    of seeds, in seed order and then in time order.

    A block is as many replications as BLOCK_BYTES holds at the model's
    row width, stepped together; start is its first index into seeds.
    estimates and targets are (B, m, d) and hold slots first..first+m-1,
    each row equal to a block of one with its seed bit for bit; a
    block's windows cover slots 0..n once each, WINDOW steps at a time,
    its first window starting at slot 0.  targets is a read-only view of
    the path's table when it draws nothing (RowSource.table), else a
    view of the block's walk buffer.  estimates and a walk's targets are
    views the next window reuses, and the caller may overwrite
    estimates; the caller should drop both before asking for the next
    window, as the generator does.
    gammas defaults to the config's schedule.  A divergence raises
    TrackingDiverged for the lowest-index replication that diverges, at
    its own step, as a one-at-a-time loop would; .replication is its
    index into seeds and .horizon the config's.
    """
    if model.dim != config.dimension:
        raise ValueError("model dimension does not match config")
    if gain.dim != config.dimension:
        raise ValueError("gain dimension does not match config")
    n, d = config.horizon, config.dimension
    if gammas is None:
        gammas = config.schedule.values_upto(n)
    seeds = list(seeds)
    m = min(WINDOW, n)
    w = model.width
    most = max(1, BLOCK_BYTES // ((m + 1) * max(w, d) * 8))
    for start in range(0, len(seeds), most):  # one pass a block
        size = min(most, len(seeds) - start)
        source = model.rows(n, [make_rng(seed)
                                for seed in seeds[start:start + size]])
        table = source.table  # the seeds share it
        # observation row k of replication i goes to [k+1-lo, i, :w] in
        # the window from step lo, and track writes its estimate k+1 over
        # that slot
        stack = np.empty((m + 1, size, max(w, d)))
        walked = np.empty((size, m + 1, d)) if table is None else None
        est = np.tile(config.initial_estimate, (size, 1))
        guard_sq = _guard_sq(est)
        for lo in range(0, n, m):  # steps lo..hi-1 give slots lo+1..hi
            hi = min(lo + m, n)
            source.take(hi - lo, stack[1:hi - lo + 1, :, :w],
                        None if walked is None else walked[:, :hi - lo + 1])
            try:
                estimates = track(est, stack[1:hi - lo + 1, :, :w],
                                  gammas[lo:hi], gain.evaluator,
                                  config.projection,
                                  stack[:hi - lo + 1, :, :d], guard_sq)
            except TrackingDiverged as exc:
                if size == 1:
                    raise TrackingDiverged(lo + exc.step, n, start) from None
                # the block trips at its earliest step, over rows it has
                # overwritten: rerun each seed alone, lowest index first
                del stack, walked, source
                for i, seed in enumerate(seeds[start:start + size]):
                    try:
                        for _ in run_replications(config, model, gain,
                                                  [seed], gammas):
                            pass
                    except TrackingDiverged as alone:
                        raise TrackingDiverged(alone.step, n,
                                               start + i) from None
                raise
            est = estimates[:, -1].copy()  # the next window's first estimate
            first = lo + 1 if lo else 0
            targets = walked[:, first - lo:hi - lo + 1] if table is None \
                else np.broadcast_to(table[first:hi + 1],
                                     (size, hi + 1 - first, d))
            yield start, first, estimates[:, first - lo:], targets
            del estimates, targets
        del stack, walked, source


def run_tracking(config: TrackingConfig, model, gain: GainSpec,
                 rng_seed: int) -> TrackingRun:
    """Execute the online loop for one seed: run_replications with one.

    Targets are predictable from the past only, never from the
    estimates, so the rows can be drawn ahead of the recursion, which
    consumes one per step.  Deterministic given the seed.
    """
    gammas = config.schedule.values_upto(config.horizon)
    # a walk's targets, like the estimates, are a buffer the next window
    # reuses
    windows = [(estimates[0].copy(), targets[0].copy())
               for _, _, estimates, targets
               in run_replications(config, model, gain, [rng_seed], gammas)]
    return TrackingRun(np.concatenate([e for e, _ in windows]),
                       np.concatenate([t for _, t in windows]), gammas)


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


class WindowMeans:
    """Each replication's per-step l2 error norm averaged over slots
    k0..n, fed one block's (B, m, d) error windows from run_replications
    in slot order; the windows are squared in place.

    The norms of each _tree leaf, at most LEAF slots, go to a (B, LEAF)
    buffer, whose rows np.add.reduce sums as numpy's pairwise sum does
    one replication's 1-D norms; _tree then adds the leaves' sums as that
    sum's tree does, so the mean has the bits of np.mean over the
    replication's norms.
    """

    LEAF = 1024

    def __init__(self, size: int, k0: int, n: int):
        self.k0, self.count = k0, n - k0 + 1
        self.ends = []  # the leaves' ends, in order
        _tree(0, self.count, lambda a, b: self.ends.append(b) or (),
              self.LEAF)
        self.sums = []  # the (B,) sums of the leaves done
        self.norms = np.empty((size, self.LEAF))
        # the next position, slot k0 + pos, and the start of its leaf
        self.pos = self.leaf = 0

    def add(self, errors: np.ndarray, first: int) -> None:
        """errors holds slots first, first + 1, ..."""
        errors = errors[:, max(self.k0 - first, 0):]
        while errors.shape[1]:
            end = self.ends[len(self.sums)]
            m = min(end - self.pos, errors.shape[1])
            part, errors = errors[:, :m], errors[:, m:]
            np.multiply(part, part, out=part)
            out = self.norms[:, self.pos - self.leaf:self.pos - self.leaf + m]
            np.sqrt(np.sum(part, axis=2, out=out), out=out)
            self.pos += m
            if self.pos == end:
                self.sums.append(np.add.reduce(self.norms[:, :end - self.leaf],
                                               axis=1))
                self.leaf = end

    def means(self) -> np.ndarray:
        sums = iter(self.sums)  # _tree takes its leaves in order
        total, = _tree(0, self.count, lambda a, b: (next(sums),), self.LEAF)
        return total / self.count
