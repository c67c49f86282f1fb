"""Plain reference sweeps: one seed, one step and one 1-D reduction at a time.

reference_rates and reference_bound_check compute what run_rate_sweep
and run_bound_check compute, from the public pieces only:
build_components per horizon, one seed's rows, and a loop of
est + gamma_k * G(est, row) on a block of one.  A signal+noise model's
rows are drawn here with numpy's own uniform and normal calls, so the
block draw of models.py is checked; other models' rows come from
model.simulate.  Norms and window means are 1-D numpy reductions; means
over replications are math.fsum.  A d = 1 stabilizing path is re-walked
here from its own copy of the walk, so the sweep's targets are checked
too.

Each returns ("ok", csv_text, passed) or, when a replication leaves the
guard region, ("diverged", horizon, replication, step) for the first
one a one-at-a-time loop meets.
"""

from __future__ import annotations

import math

import numpy as np

from drifttrack import bounds, core, models
from drifttrack.experiments import (BOUND_HEADER, CONFIG_KEYS, RATE_HEADER,
                                    build_components, fit_rate, format_csv,
                                    theoretical_slope_for)


class Diverged(Exception):
    def __init__(self, step):
        super().__init__(step)
        self.step = step


def _value(raw: dict, key: str):
    parse, default = CONFIG_KEYS[key]
    return parse(raw[key]) if key in raw else default


def _walk(path, n: int, rng) -> np.ndarray:
    """The d = 1 stabilizing walk, one Python step per k."""
    radius = math.sqrt(path.c_theta)
    t = 0.0 if path.start is None else float(np.ravel(path.start)[0])
    draws = rng.standard_normal((n, 1))
    steps = np.arange(n, dtype=float)
    steps[0] = 1.0
    budgets = path.c_rho * steps ** (-path.beta)  # numpy's power, as walked
    out = [t]
    for i in range(n):
        b = float(budgets[i])
        s = 1.0 if draws[i, 0] >= 0.0 else -1.0
        if abs(t + b * s) > radius:
            s = -s  # reflect back toward the interior
        if abs(t + b * s) <= radius:
            t = t + b * s
        out.append(t)
    return np.array(out).reshape(-1, 1)


def _noise(noise, rng, n: int, d: int) -> np.ndarray:
    """A signal+noise run's n noise rows, drawn with numpy's own calls."""
    if noise.kind == "normal" and noise.scale:
        return rng.normal(0.0, noise.scale, (n, d))
    if noise.kind == "uniform":
        return rng.uniform(-noise.scale, noise.scale, (n, d))
    return np.zeros((n, d))


def _rows(model, n: int, seed: int):
    """(observations, targets) of one seed.  A signal+noise model's rows
    are its targets plus numpy's own noise draws, the n noise rows first
    and a walk continuing from the same generator; other models' come
    from model.simulate.  A d = 1 stabilizing walk is redrawn here."""
    path, rng = model.path, models.make_rng(seed)
    walked = path.kind == "stabilizing" and path.dim == 1
    if isinstance(model, models.SignalNoiseModel):
        xi = _noise(model.noise, rng, n, model.dim)
        targets = _walk(path, n, rng) if walked else path.sample(n, rng)
        return targets[:n] + xi, targets
    sim = model.simulate(n, rng)
    if walked:  # the walk draws before the model's rows
        return sim.observations, _walk(path, n, models.make_rng(seed))
    return sim.observations, sim.targets


def _replication(tracking, model, gain, gammas, seed):
    """(estimates, targets), both (n+1, d), of one seed."""
    assert tracking.projection is None  # no config key sets one
    n = tracking.horizon
    observations, targets = _rows(model, n, seed)
    est = tracking.initial_estimate.copy()
    guard_sq = (core.GUARD_FACTOR * (1.0 + math.sqrt(float(np.sum(est * est))))) ** 2
    estimates = [est]
    for k in range(n):
        step = gain.evaluator(est[None], observations[k][None])[0]
        est = est + float(gammas[k]) * step
        if not float(np.sum(est * est)) <= guard_sq:  # NaN too
            raise Diverged(k)
        estimates.append(est)
    return np.array(estimates), targets


def _burn_in(fraction: float, n: int) -> int:
    return max(1, math.ceil(fraction * n))


def _norm(vec: np.ndarray) -> float:
    return float(np.sqrt(np.sum(vec * vec)))


def reference_rates(config):
    raw, reps, p = config.raw, config.replications, config.p
    rows, means = [], []
    for h_idx, n in enumerate(config.horizons):
        tracking, model, gain, _path = build_components(raw, n)
        gammas = tracking.schedule.values_upto(n)
        k0 = _burn_in(config.burn_in_fraction, n)
        finals, windows = [], []
        for rep in range(reps):
            seed = config.seed ^ (h_idx * reps + rep)
            try:
                estimates, targets = _replication(tracking, model, gain,
                                                  gammas, seed)
            except Diverged as exc:
                return ("diverged", n, rep, exc.step)
            errors = estimates - targets
            ae = np.abs(errors[-1])
            lp = float(np.max(ae)) if p == math.inf \
                else float(np.sum(ae ** p)) ** (1.0 / p)
            finals.append((float(np.sum(ae)), _norm(ae), lp))
            per_step = np.array([_norm(e) for e in errors[k0:]])
            windows.append(float(np.mean(per_step)))
            rows.append((n, rep, *finals[-1], p, seed))
        stat = windows if _value(raw, "experiment.statistic") == "window" \
            else [f[1] for f in finals]
        means.append(math.fsum(stat) / reps)
    slope, _half = fit_rate(list(zip(config.horizons, means)))
    theo = theoretical_slope_for(raw)
    passed = theo is None or abs(slope - theo) <= _value(
        raw, "experiment.tolerance")
    return ("ok", format_csv(RATE_HEADER, rows), passed)


def reference_bound_check(config):
    raw, reps = config.raw, config.replications
    n = config.horizons[-1]
    k0 = _burn_in(config.burn_in_fraction, n)
    tracking, model, gain, path = build_components(raw, n)
    gammas = tracking.schedule.values_upto(n)
    n_checks = min(_value(raw, "bounds.checkpoints"), n - k0)
    slots = np.unique(np.linspace(k0 + 1, n, n_checks).astype(int))
    err_norms = []
    osc_sum = np.zeros(n - k0)
    est_sq_sum = np.zeros(n + 1)
    for rep in range(reps):
        try:
            estimates, targets = _replication(tracking, model, gain, gammas,
                                              config.seed ^ rep)
        except Diverged as exc:
            return ("diverged", n, rep, exc.step)
        err_norms.append([_norm(estimates[s] - targets[s]) for s in slots])
        osc_sum = osc_sum + np.array(
            [_norm(targets[i] - targets[k0]) for i in range(k0 + 1, n + 1)])
        est_sq_sum = est_sq_sum + np.array(
            [float(np.sum(e * e)) for e in estimates])
    c_theta_bar = max(float(np.max(est_sq_sum)) / reps, 1e-12)
    consts = gain.constants

    def pick(key, declared):
        value = _value(raw, key)
        return declared if value is None else value

    lam1 = pick("bounds.lambda1", consts.lambda1)
    lam2 = pick("bounds.lambda2", consts.lambda2)
    c_g = pick("bounds.c_g", consts.c_g)
    c_theta = max(pick("bounds.c_theta", path.c_theta), 1e-12)
    osc = np.maximum.accumulate(osc_sum / reps)
    rows, passed = [], True
    for j, slot in enumerate(slots):
        k = slot - 1
        inputs = bounds.BoundInputs(
            lambda1=lam1, lambda2=lam2, c_g=c_g, c_theta=c_theta,
            c_theta_bar=c_theta_bar, gammas=gammas[k0:k + 1])
        bound = bounds.theorem1_bound(inputs, float(osc[k - k0]))
        column = np.array([norms[j] for norms in err_norms])
        mean = math.fsum(column) / reps
        se = float(column.std(ddof=1)) / math.sqrt(reps)
        flag = mean <= bound + bounds.SE_MARGIN * se
        passed = passed and flag
        rows.append((int(slot), mean, se, bound, flag))
    return ("ok", format_csv(BOUND_HEADER, rows), passed)
