"""Non-asymptotic tracking-error bound and empirical condition checks.

The first part evaluates the closed-form first-moment upper bound on
E||delta|| that bound-check compares against.  The second contains
Monte-Carlo verifiers for the contraction condition on the average gain
and the centered second-moment bound on the gain noise.  The p-th
moment and biased bounds, the oscillation estimator and the
truncated-moment lemma, which no subcommand runs, are in
tests/paper_checks.py.

All statistical acceptance margins are 4 MC standard errors (false
failure below 1e-4 per check).

Memory of the A1/A2 verifiers: a probe's (N, w) row stack is the only
stack of its size they hold.  They evaluate the gain on the leaves of
numpy's pairwise-summation tree, in row order, and write each leaf's
gains over rows already read, so the (N, d) gain stack is a view on
the front of the row stack; a later pass re-reads the stored gains.
A2's second pass writes each row's centred squared norm over the front
of the gains, where every gain has been read, and its third pass reads
those values back.  The verifiers thus consume the stack their sampler
hands them (the verify sweep keeps two such row-stack slots, one being
drawn while the other is read).  Every statistic has the bits of
numpy's own reductions over the full stacks.

On a leaf, numpy's per-row loops over a few columns cost several times
their arithmetic, so the column sums and the centring go column by
column (_ColumnSums, linalg.by_column), and at d = 1 the projection
onto the error direction is one product per row (_project), each with
the bits of the numpy call it replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import by_column, row_sq_norms

__all__ = [
    "BoundInputs",
    "theorem1_bound",
    "MIN_SAMPLES",
    "A1Report",
    "A1ProbeResult",
    "verify_A1_empirical",
    "A2Report",
    "verify_A2_empirical",
]

SE_MARGIN = 4.0
MIN_SAMPLES = 10_000  # fewest Monte-Carlo draws a verifier accepts


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

    def __post_init__(self):
        if not 0 < self.lambda1 <= self.lambda2:
            raise ValueError("need 0 < lambda1 <= lambda2")
        if not (self.c_g >= 0 and self.c_theta > 0 and self.c_theta_bar > 0):
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
    passed: bool


def _check_sample_count(n_samples: int) -> None:
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} MC samples")


# Rows per leaf of _tree.  Any leaf of at least 128 rows gives numpy's
# bits, since numpy halves a pairwise sum down to 128 terms; a
# (16384, d) leaf and its temporaries stay in cache.
_LEAF = 16384


def _tree(a: int, b: int, leaf: Callable, size: int = _LEAF) -> tuple:
    """leaf(i, j) on the leaves of numpy's pairwise-summation tree over
    rows [a, b), in row order; leaf returns a tuple of sums, and each
    node adds its halves' tuples entry by entry.  A leaf holds at most
    size rows, at least 128.

    numpy splits a sum of more than 128 terms at n//2 - (n//2) % 8, so
    an entry that leaf takes as np.add.reduce of a 1-D array over its
    rows has the bits of np.sum over rows [a, b).
    """
    if b - a <= size:
        return leaf(a, b)
    half = (b - a) // 2
    half -= half % 8
    left = _tree(a, a + half, leaf, size)
    right = _tree(a + half, b, leaf, size)
    return tuple(x + y for x, y in zip(left, right))


class _ColumnSums:
    """x.sum(axis=0), bit for bit, of an (N, d) C-ordered stack handed to
    add() one _tree leaf at a time, in row order.

    add returns a length-d entry for _tree to combine, and total(entry)
    takes the combined entry.  numpy sums a single column pairwise, so at
    d = 1 the entry is the leaf's sum and total returns the combined one.
    It adds the rows of several columns one at a time, in order, so at
    d > 1 add copies the leaf below a first row that holds the total so
    far and runs a sum down each column in place (np.add.accumulate on a
    column is that same sequence of additions, and far quicker than
    numpy's axis-0 reduce, whose inner loop is one d-wide row); the last
    row is the new total, carried to row 0.  The entry is then zero, and
    total returns the carry.
    """

    def __init__(self, d: int):
        self._buf = np.zeros((_LEAF + 1, d)) if d > 1 else None

    def add(self, x: np.ndarray) -> np.ndarray:
        if self._buf is None:
            return np.add.reduce(x[:, 0], keepdims=True)
        part = self._buf[:len(x) + 1]
        part[1:] = x
        for col in part.T:
            np.add.accumulate(col, out=col)
        part[0] = part[-1]
        return np.zeros(x.shape[1])

    def total(self, combined: np.ndarray) -> np.ndarray:
        return combined if self._buf is None else self._buf[0].copy()


def _project(g, delta):
    """g @ delta for an (m, d) stack g, bit for bit.  At d = 1 that is
    one product per row, several times quicker than OpenBLAS's gemv on an
    (m, 1) stack; adding +0.0 gives gemv's +0.0 for a -0.0 product.
    (Where both g and delta hold a NaN, which NaN comes out is the
    loop's choice; every other bit is gemv's.)  d >= 2 stays on gemv."""
    if delta.size > 1:
        return g @ delta
    proj = g[:, 0] * delta
    proj += 0.0
    return proj


def _consumed_stack(sampler: Callable, rng, n_samples: int, d: int):
    """sampler's (N, w) row stack and the (N, d) gain stack on its front.

    Gains written leaf by leaf in row order land on rows already read,
    since d <= w.  The row stack is the sampler's own unless np.require
    copies it (read-only or not C-contiguous).
    """
    rows = np.require(sampler(rng, n_samples), float, "CW")
    if rows.ndim == 1:
        rows = rows[:, None]
    if rows.shape[0] != n_samples or rows.shape[1] < d:
        raise ValueError(f"need {n_samples} rows at least {d} wide for the "
                         f"gains written over them, got {rows.shape}")
    return rows, rows.reshape(-1)[:n_samples * d].reshape(n_samples, d)


def _a1_probe(gain_eval, sampler: Callable, theta: np.ndarray,
              probe: np.ndarray, n: int,
              rng: Optional[np.random.Generator],
              lambda1: Optional[float],
              lipschitz: Optional[float]) -> A1ProbeResult:
    """One probe of verify_A1_empirical on n rows: a first pass stores
    the gains and sums them and their projections (_project), a second
    re-reads them for the squared deviations."""
    delta = probe - theta
    dist_sq = float(delta @ delta)
    if not dist_sq >= 1e-20:  # NaN fails too
        raise ValueError("probes must differ from the true parameter")
    rows, gains = _consumed_stack(sampler, rng, n, delta.size)
    cols = _ColumnSums(delta.size)

    def sums(a, b):
        g = gains[a:b]
        np.copyto(g, gain_eval(probe, rows[a:b]))
        proj = _project(g, delta)
        proj /= -dist_sq
        return cols.add(g), np.add.reduce(proj)

    col_sum, proj_sum = _tree(0, n, sums)
    g_hat = cols.total(col_sum) / n
    r_hat = float(proj_sum / n)
    cols = _ColumnSums(delta.size)  # frees the first pass's buffer

    def squares(a, b):
        g = gains[a:b]
        c = by_column(np.subtract, g, g_hat)
        c *= c
        proj = _project(g, delta)
        proj /= -dist_sq
        proj -= r_hat
        proj *= proj
        return cols.add(c), np.add.reduce(proj)

    col_sq, proj_sq = _tree(0, n, squares)
    comp_se = np.sqrt(cols.total(col_sq) / (n - 1)) / math.sqrt(n)
    r_se = float(np.sqrt(proj_sq / (n - 1))) / math.sqrt(n)
    dist = math.sqrt(dist_sq)
    ratio = float(np.linalg.norm(g_hat)) / dist
    ratio_se = float(np.linalg.norm(comp_se)) / dist
    ok = True
    if lambda1 is not None:
        ok = ok and r_hat >= lambda1 - SE_MARGIN * r_se
    if lipschitz is not None:
        ok = ok and ratio <= lipschitz + SE_MARGIN * ratio_se
    return A1ProbeResult(probe=probe, r_hat=r_hat, r_se=r_se,
                         g_norm_ratio=ratio, ratio_se=ratio_se, passed=ok)


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
    (if a Lipschitz constant is declared) the ratio <= L + 4 SE.  Each
    row stack is consumed: the gains are written over it.  A sampler
    that returns one stored array on every call has it overwritten, and
    each later probe reads the gains of the one before.
    """
    _check_sample_count(n_samples)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    probes = [np.atleast_1d(np.asarray(v, dtype=float)) for v in probes]
    if not probes:
        raise ValueError("empty probe set")
    results = [_a1_probe(gain_eval, sampler, theta, probe, n_samples, rng,
                         lambda1, lipschitz) for probe in probes]
    return A1Report(probes=results, passed=all(r.passed for r in results))


@dataclass(frozen=True)
class A2Report:
    second_moment: float
    se: float
    passed: bool


def verify_A2_empirical(gain_eval, sampler: Callable, probe,
                        n_samples: int, rng: np.random.Generator,
                        c_g: Optional[float] = None) -> A2Report:
    """MC estimate of E||G - g_hat||^2 at a pinned past, vs declared C_g.

    The row stack is consumed, as in verify_A1_empirical: a first pass
    writes the gains over it, a second writes each row's centred squared
    norm over gains it has read (the flat stack's first N floats), and a
    third reads those norms back for their spread."""
    _check_sample_count(n_samples)
    probe = np.atleast_1d(np.asarray(probe, dtype=float))
    n = n_samples
    rows, gains = _consumed_stack(sampler, rng, n, probe.size)
    cols = _ColumnSums(probe.size)

    def sums(a, b):
        np.copyto(gains[a:b], gain_eval(probe, rows[a:b]))
        return (cols.add(gains[a:b]),)

    mean = cols.total(_tree(0, n, sums)[0]) / n
    devs = gains.reshape(-1)[:n]

    def norms(a, b):
        devs[a:b] = row_sq_norms(by_column(np.subtract, gains[a:b], mean))
        return (np.add.reduce(devs[a:b]),)

    def spread(a, b):
        dev = devs[a:b]
        dev -= moment
        dev *= dev
        return (np.add.reduce(dev),)

    moment = float(_tree(0, n, norms)[0] / n)
    se = float(np.sqrt(_tree(0, n, spread)[0] / (n - 1))) / math.sqrt(n)
    passed = True if c_g is None else moment <= c_g + SE_MARGIN * se
    return A2Report(second_moment=moment, se=se, passed=passed)
