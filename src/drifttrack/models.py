"""Observation-model simulators and drifting-parameter paths.

Every simulator exposes simulate(n, rng) returning a SimulatedPath with
an (n, width) observation-row array and an (n+1, d) target array; row k
is the observation consumed at tracking step k and targets[k] the
parameter it carries.  Observations never depend on the running
estimate, so a whole trajectory can be drawn up front.  Each also
exposes rows(n, rngs), a RowSource that hands the rows and targets of a
block of runs, one generator each, out a window at a time, drawing each
window as it is taken and carrying each run's model state and walk
across windows; simulate is a block of one taken in one go.  The
signal+noise model draws a window's noise as a block: one generator call
per run into a reused buffer, then one scale, shift and add per group of
runs.  The other models loop over their runs.

Observation-row layouts match the GainSpec factories in gains.py.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg

__all__ = [
    "NoiseSpec",
    "ParameterPath",
    "make_parameter_path",
    "SimulatedPath",
    "RowSource",
    "SignalNoiseModel",
    "PoissonCountModel",
    "poisson_targets",
    "Arch1Model",
    "ArdBatchModel",
    "adaptive_simpson",
    "make_rng",
]

_SEED_MASK = (1 << 64) - 1
_SKIP_ROWS = 4096  # rows drawn and dropped at once to move a generator on
_GROUP = 32  # runs whose signal+noise rows are scaled and shifted together


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

    KINDS = ("normal", "uniform", "zero")

    kind: str = "normal"
    scale: float = 1.0  # std dev for normal, half-width for uniform

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unsupported noise kind {self.kind!r}")
        if not self.scale >= 0:
            raise ValueError("scale must be nonnegative")
        if not self.scale * self.scale < math.inf:
            raise ValueError("scale must have a finite square")

    @property
    def variance(self) -> float:
        if self.kind == "normal":
            return self.scale ** 2
        if self.kind == "uniform":
            return self.scale ** 2 / 3.0
        return 0.0

    def fill(self, rngs, out: np.ndarray) -> np.ndarray:
        """out, a 2-D array of C-contiguous rows, with row i the noise
        rngs[i] draws: one generator call a row, then one scale and shift
        of the block, with the operations numpy's uniform(-scale, scale)
        (low + (high - low) u) and normal(0, scale) (0 + scale z) apply,
        so each row has their bits.  Zero noise, and normal noise at
        scale 0, draw nothing."""
        if self.kind == "uniform":
            low, high = -self.scale, self.scale
            for rng, row in zip(rngs, out):
                rng.random(out=row)
            out *= high - low
            out += low
        elif self.kind == "normal" and self.scale:
            for rng, row in zip(rngs, out):
                rng.standard_normal(out=row)
            out *= self.scale
            out += 0.0  # a -0.0 product comes out +0.0, as numpy's does
        else:
            out[...] = 0.0
        return out

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """A new array of the given size: fill with one generator."""
        out = np.empty(size)
        self.fill([rng], out.reshape(1, -1))
        return out


# =====================================================================
# Parameter paths
# =====================================================================

@dataclass
class ParameterPath:
    """Generator of the drifting target sequence.

    kinds: "static" (constant vector), "stabilizing" (random walk with
    increment budget c_rho * i^{-beta}), "grid" (an (n+1, d) table of
    theta_0..theta_n for horizon n, built by the caller for that
    horizon).  Every emitted value keeps ||theta||^2 <= c_theta; a
    static value and a grid table are checked when the path is built.
    """

    kind: str
    dim: int = 1
    c_theta: float = 1.0
    value: Optional[np.ndarray] = None          # static
    c_rho: float = 1.0                          # stabilizing
    beta: float = 1.0                           # stabilizing
    start: Optional[np.ndarray] = None          # stabilizing
    table: Optional[np.ndarray] = None          # grid: (n+1, d)

    def __post_init__(self):
        if self.kind not in ("static", "stabilizing", "grid"):
            raise ValueError(f"unknown path kind {self.kind!r}")
        if not self.c_theta >= 0:  # 0 for a zero-intensity Poisson grid
            raise ValueError("c_theta must be nonnegative")
        if self.kind == "stabilizing" and not self.c_rho > 0:
            raise ValueError("c_rho must be positive")
        if self.kind == "stabilizing" and not self.beta >= 0:
            raise ValueError("beta must be nonnegative")
        if self.kind == "static":
            self.value = self._check(
                np.atleast_1d(np.asarray(self.value, dtype=float)))
        if self.kind == "grid":
            self.table = self._check(np.asarray(self.table, dtype=float))
        if self.kind == "stabilizing" and self.start is not None:
            start = self._check(np.atleast_1d(np.asarray(self.start, dtype=float)))
            if start.size != self.dim:
                raise ValueError(f"start has {start.size} entries, not {self.dim}")

    def _check(self, theta: np.ndarray) -> np.ndarray:
        """theta, a (d,) value or an (m, d) stack, if each row keeps
        ||theta||^2 <= c_theta."""
        if float(np.max(np.sum(theta * theta, axis=-1))) \
                > self.c_theta * (1.0 + 1e-12):
            raise ValueError("parameter path left the compact set "
                             f"(||theta||^2 > {self.c_theta})")
        return theta

    def table_for(self, n: int) -> Optional[np.ndarray]:
        """theta_0..theta_n as one read-only (n+1, d) table when the path
        draws nothing (static, grid), else None.  A grid path's horizon
        must be n."""
        if self.kind == "static":
            return np.broadcast_to(self.value, (n + 1, self.value.size))
        if self.kind != "grid":
            return None
        if n != len(self.table) - 1:
            raise ValueError(f"grid path built for horizon "
                             f"{len(self.table) - 1}, not {n}")
        table = self.table.view()
        table.flags.writeable = False
        return table

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Realize theta_0..theta_n up front: a copy of table_for(n) when
        the path draws nothing, else the walk in one window of n steps."""
        table = self.table_for(n)
        return table.copy() if table is not None else self.walk(rng)(n)

    def windows(self, n: int, rngs, before: Optional[Callable] = None):
        """(table_for(n), None, rngs) for runs of horizon n, one generator
        each, when the path draws nothing; else (None, walks, rngs), run
        i's walk drawing first and rngs[i], for the run's other draws, a
        copy moved past its n steps.  With before, each run draws n rows of
        before(rng, (m, d)) first and its walk from a copy moved past them.
        The copy draws the rows _SKIP_ROWS at a time and drops them: a
        normal draw takes a varying number of raw words, so Philox's
        advance cannot do this."""
        table = self.table_for(n)
        if table is not None:
            return table, None, list(rngs)
        draw = before or np.random.Generator.standard_normal  # the walk's
        walks, others = [], []
        for rng in rngs:
            moved = copy.deepcopy(rng)
            for lo in range(0, n, _SKIP_ROWS):
                draw(moved, (min(_SKIP_ROWS, n - lo), self.dim))
            walker, other = (moved, rng) if before is not None \
                else (rng, moved)
            walks.append(self.walk(walker))
            others.append(other)
        return None, walks, others

    def walk(self, rng: np.random.Generator) -> Callable[..., np.ndarray]:
        """The stabilizing walk a window at a time: step(m, out) writes
        theta_k..theta_{k+m} to out (an (m+1, d) array, a new one when
        None) and returns it checked, k the steps walked so far and theta_k
        carried over from the last call (theta_0 the start)."""
        radius = math.sqrt(self.c_theta)
        theta = np.zeros(self.dim) if self.start is None \
            else np.atleast_1d(np.asarray(self.start, dtype=float)).copy()
        k = 0

        def step(m: int, out: Optional[np.ndarray] = None) -> np.ndarray:
            nonlocal theta, k
            out = np.empty((m + 1, self.dim)) if out is None else out
            out[0] = theta
            # draws batched per window; degenerate (near-zero) draws fall
            # back to the first coordinate axis
            draws = rng.standard_normal((m, self.dim))
            steps = np.arange(k, k + m, dtype=float)
            steps[0] = max(k, 1)  # step 0 has budget c_rho
            budgets = self.c_rho * steps ** (-self.beta)
            k += m
            if self.dim == 1:
                # scalar fast path: direction is just the sign of the draw,
                # read as Python floats
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
            else:
                norms = np.linalg.norm(draws, axis=1)
                tiny = norms < 1e-12
                if np.any(tiny):
                    draws[tiny] = 0.0
                    draws[tiny, 0] = 1.0
                    norms[tiny] = 1.0
                units = draws / norms[:, None]
                for i in range(m):
                    move = budgets[i] * units[i]
                    cand = theta + move
                    if float(cand @ cand) > self.c_theta:
                        cand = theta - move  # reflect back toward the interior
                        if float(cand @ cand) > self.c_theta:
                            cand = theta  # trapped near the boundary; stay put
                    theta = cand
                    out[i + 1] = theta
            theta = out[m].copy()
            return self._check(out)

        return step


def make_parameter_path(kind: str, **params) -> ParameterPath:
    """ParameterPath(kind, **params); a static value or a grid table also
    sets dim and, when c_theta is not given, c_theta: ||value||^2 (plus
    1e-12) for a value, the largest ||theta_k||^2 for a table."""
    if kind == "static":
        value = np.atleast_1d(np.asarray(params["value"], dtype=float))
        if params.get("c_theta") is None:
            params["c_theta"] = float(value @ value) + 1e-12
        params.update(value=value, dim=value.size)
    if kind == "grid":
        table = np.asarray(params["table"], dtype=float)
        if params.get("c_theta") is None:
            params["c_theta"] = float(np.max(np.sum(table * table, axis=1)))
        params.update(table=table, dim=table.shape[1])
    return ParameterPath(kind=kind, **params)


# =====================================================================
# Simulators
# =====================================================================

@dataclass(frozen=True)
class SimulatedPath:
    """One realized trajectory: observation rows plus the target path."""

    observations: np.ndarray  # (n, width)
    targets: np.ndarray       # (n+1, d)


@dataclass
class RowSource:
    """The observation rows of a block of size runs, handed out in order
    m steps at a time.

    take(m, out, walked) writes each run's next m rows, k..k+m-1 for k
    the steps taken so far, to out, a time-major (m, size, width) array,
    run i's in out[:, i].  fill(k, m, thetas, out) draws them from the
    runs' generators with the model's state carried across calls, thetas
    being the targets they carry, theta_k..theta_{k+m}, as a read-only
    time-major (m+1, size, dim) view.  The targets are table, the path's
    read-only (n+1, d) table shared by every run, when the path draws
    nothing, else each run's walk[i](m, walked[i]) in the rep-major
    (size, m+1, dim) walked.  Chunked draws give the bits of one whole
    draw, so neither rows nor targets depend on how the horizon is cut.
    """

    table: Optional[np.ndarray]
    walks: Optional[list]
    fill: Callable[[int, int, np.ndarray, np.ndarray], None]
    size: int
    width: int
    dim: int
    taken: int = field(default=0, init=False)

    @staticmethod
    def each(rows):
        """A fill that loops over the runs, rows[i](k, m, thetas) giving
        run i's (m, width) rows from its (m+1, dim) targets."""
        def fill(k, m, thetas, out):
            for i, run in enumerate(rows):
                out[:, i] = run(k, m, thetas[:, i])
        return fill

    def take(self, m: int, out: Optional[np.ndarray] = None,
             walked: Optional[np.ndarray] = None):
        """(rows, thetas) of the next m steps; out and walked, new arrays
        when None, are (m, size, width) and (size, m+1, dim)."""
        k = self.taken
        self.taken += m
        if self.table is None:
            if walked is None:
                walked = np.empty((self.size, m + 1, self.dim))
            for walk, theta in zip(self.walks, walked):
                walk(m, theta)
            thetas = walked.transpose(1, 0, 2)
        else:
            thetas = self.table[k:k + m + 1, None]
        if out is None:
            out = np.empty((m, self.size, self.width))
        thetas = np.broadcast_to(thetas, (m + 1, self.size, self.dim))
        self.fill(k, m, thetas, out)
        return out, thetas

    def simulate(self, n: int) -> SimulatedPath:
        """A block of one's n rows in one take, with targets the run's own
        array."""
        observations, thetas = self.take(n)
        return SimulatedPath(observations=observations[:, 0],
                             targets=thetas[:, 0].copy())


class _Streamed:
    """A simulator whose simulate is a block of one of its row source,
    which loops over the runs, _run(rng) giving one run's rows(k, m,
    thetas)."""

    def rows(self, n: int, rngs) -> RowSource:
        table, walks, rngs = self.path.windows(n, rngs)
        return RowSource(table, walks, RowSource.each(
            [self._run(rng) for rng in rngs]), len(rngs), self.width,
            self.dim)

    def simulate(self, n: int, rng: np.random.Generator) -> SimulatedPath:
        return self.rows(n, [rng]).simulate(n)


@dataclass(frozen=True)
class SignalNoiseModel(_Streamed):
    """X_k = theta_k + xi_k with centered independent noise."""

    path: ParameterPath
    noise: NoiseSpec = NoiseSpec()

    @property
    def dim(self) -> int:
        return self.path.dim

    width = dim

    def rows(self, n: int, rngs) -> RowSource:
        # each run's n noise rows come first, then its walk
        table, walks, rngs = self.path.windows(n, rngs, self.noise.draw)
        d = self.dim
        buffer = np.empty((min(_GROUP, len(rngs)), 0))  # a group's noise

        def fill(k, m, thetas, out):
            nonlocal buffer
            if buffer.shape[1] < m * d:
                buffer = np.empty((len(buffer), m * d))
            for g0 in range(0, len(rngs), _GROUP):
                group = rngs[g0:g0 + _GROUP]
                noise = self.noise.fill(group, buffer[:len(group), :m * d])
                g1 = g0 + len(group)
                np.add(thetas[:m, g0:g1],
                       noise.reshape(len(group), m, d).transpose(1, 0, 2),
                       out=out[:, g0:g1])

        return RowSource(table, walks, fill, len(rngs), d, d)


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


def poisson_targets(intensity: Callable[[float], float], n: int) -> np.ndarray:
    """The (n+1, 1) Poisson targets of horizon n: n times the integral of
    the intensity over grid cell k for k < n, and intensity(1.0) at slot
    n, the intensity being extended constantly beyond t = 1."""
    means = [n * adaptive_simpson(intensity, k / n, (k + 1) / n, tol=1e-10)
             for k in range(n)]
    table = np.array(means + [intensity(1.0)], dtype=float).reshape(-1, 1)
    if np.any(table < 0):
        raise ValueError("intensity must be nonnegative")
    return table


@dataclass(frozen=True)
class PoissonCountModel(_Streamed):
    """Counting process on [0,1] observed on an n-point grid.

    Increment k is Poisson with mean theta_k, read from the path (a grid
    of poisson_targets for the horizon); observation rows are
    (N_k, N_{k-1}) count pairs.
    """

    path: ParameterPath

    dim = 1
    width = 2

    def _run(self, rng: np.random.Generator):
        """One run's rows(k, m, thetas)."""
        count = 0  # N_{k-1} of the next row

        def rows(k: int, m: int, thetas: np.ndarray) -> np.ndarray:
            nonlocal count
            increments = rng.poisson(thetas[:m, 0])
            counts = np.concatenate(([count], count + np.cumsum(increments)))
            count = counts[-1]
            return np.column_stack([counts[1:], counts[:-1]]).astype(float)

        return rows


@dataclass(frozen=True)
class Arch1Model(_Streamed):
    """X_k = sqrt(1 + theta_k X_{k-1}^2) eps_k with unit-variance eps.

    Rows are (X_k, X_{k-1}); the path must emit nonnegative theta.
    """

    path: ParameterPath
    noise: NoiseSpec = NoiseSpec()
    x0: float = 0.0

    dim = 1
    width = 2

    def __post_init__(self):
        if abs(self.x0) > 1.0:
            raise ValueError("|x0| must be at most 1")

    def _run(self, rng: np.random.Generator):
        """One run's rows(k, m, thetas)."""
        x_prev = self.x0  # X_{k-1} of the next row

        def rows(k: int, m: int, thetas: np.ndarray) -> np.ndarray:
            nonlocal x_prev
            eps = self.noise.draw(rng, m).tolist()
            # slots k..k+m: the window's targets and the one after its end
            if np.any(thetas[:, 0] < 0):
                raise ValueError("volatility parameter must be nonnegative")
            xs = [x_prev]
            for i, theta in enumerate(thetas[:m, 0].tolist()):
                prev = xs[-1]
                xs.append(math.sqrt(1.0 + theta * prev * prev) * eps[i])
            x_prev = xs[-1]
            return np.column_stack([xs[1:], xs[:-1]])

        return rows


@dataclass(frozen=True)
class ArdBatchModel(_Streamed):
    """AR(d) observed in non-overlapping d-batches, coefficients constant
    per batch; each batch solves the unit-triangular system
    A(theta) X = B(theta) Y + xi."""

    path: ParameterPath
    d: int
    sigma: float = 1.0
    rho: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if self.d < 1:
            raise ValueError("d must be positive")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.path.kind == "static":
            self._check_stable(self.path.value, "of the static path")

    @property
    def dim(self) -> int:
        return self.d

    @property
    def width(self) -> int:
        return 2 * self.d

    def _check_stable(self, theta, where: str) -> None:
        member, radius = linalg.ar_stability_check(theta, self.rho)
        if not member:
            raise ValueError(
                f"coefficients outside the stability region {where} "
                f"(spectral radius {radius:.4f} > {self.rho})")

    def _run(self, rng: np.random.Generator):
        """One run's rows(k, m, thetas)."""
        d = self.d
        y = rng.normal(0.0, self.sigma, size=d)  # the batch before the next
        a = b = last = None  # A and B, and the theta they were made for

        def rows(k: int, m: int, thetas: np.ndarray) -> np.ndarray:
            nonlocal y, a, b, last
            obs = np.empty((m, 2 * d))
            for i in range(m):
                theta = thetas[i]
                # the check, A and B depend on theta alone: redo them when
                # it moves
                if last is None or not np.array_equal(theta, last):
                    self._check_stable(theta, f"at step {k + i}")
                    a = linalg.ar_matrix_a(theta)
                    b = linalg.ar_matrix_b(theta)
                    last = theta.copy()  # a walk reuses its window
                xi = rng.normal(0.0, self.sigma, size=d)
                x = linalg.solve_unit_upper(a, b @ y + xi)
                obs[i, :d] = x
                obs[i, d:] = y
                y = x
            return obs

        return rows
