"""Experiment harness: config files, Monte-Carlo sweeps, CSV output, CLI.

Config files are flat ``key = value`` text with dotted key names (see
the README for the key list).  Replication seeds are ``seed XOR index``
with a counter-based generator, and aggregation uses exact summation,
so results do not depend on execution order and re-runs are
byte-identical.

CLI subcommands: run, rates, bound-check, verify, kalman-compare.
Exit codes: 0 all checks passed, 1 any check failed, 2 config error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import gains as gains_mod
from . import kalman as kalman_mod
from . import models as models_mod
from .core import (TrackingConfig, TrackingDiverged, WindowMeans,
                   replay_updates, run_replications, run_tracking)
from .schedules import StepSchedule, default_c_gamma

__all__ = [
    "ExperimentConfig",
    "RateReport",
    "BoundTable",
    "VerifyReport",
    "parse_config_text",
    "parse_config_file",
    "build_components",
    "run_rate_sweep",
    "run_bound_check",
    "run_condition_verify",
    "run_kalman_compare",
    "run_single",
    "fit_rate",
    "emit_csv",
    "format_csv",
    "main",
]


class ConfigError(ValueError):
    """Bad or missing configuration keys (CLI exit code 2)."""


# =====================================================================
# Config file handling
# =====================================================================

def parse_config_text(text: str) -> dict[str, str]:
    """Flat dotted key = value lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_config_file(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _list_of(parse: Callable) -> Callable:
    return lambda text: tuple(parse(tok) for tok in text.split(",")
                              if tok.strip())


def _at_least(parse: Callable, low: float, strict: bool = False) -> Callable:
    """parse, then reject a value (or an empty list, or a list with an
    entry) below low, or equal to it when strict.  NaN is rejected."""
    def parse_in_range(text):
        value = parse(text)
        items = value if isinstance(value, tuple) else (value,)
        if not items or not all(x > low if strict else x >= low
                                for x in items):
            raise ValueError(f"must be {'>' if strict else '>='} {low:g}")
        return value
    return parse_in_range


def _one_of(names) -> Callable:
    """The text, if names (a table's kinds or a kind list) holds it."""
    def parse_choice(text):
        if text not in names:
            raise ValueError(f"not one of {', '.join(names)}")
        return text
    return parse_choice


_INTS = _list_of(int)
_FLOATS = _list_of(float)
_NAMES = _list_of(str.strip)
_POSITIVE = _at_least(float, 0.0, strict=True)
_NONNEGATIVE = _at_least(float, 0.0)


def _or(value, default):
    """value, or default when the key was not set."""
    return default if value is None else value


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    raw: dict[str, str]
    horizons: tuple[int, ...]
    replications: int
    seed: int
    burn_in_fraction: float = 0.5
    p: float = 2.0
    out: Optional[str] = None

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if not 0.0 <= self.burn_in_fraction < 1.0:
            raise ConfigError("burn_in_fraction must lie in [0, 1)")
        if list(self.horizons) != sorted(set(self.horizons)):
            raise ConfigError("horizons must be strictly increasing")


def experiment_config(kind: str, raw: dict[str, str],
                      overrides: Optional[dict] = None) -> ExperimentConfig:
    overrides = overrides or {}
    v = _values(raw)
    return ExperimentConfig(
        kind=kind,
        raw=raw,
        horizons=v["experiment.horizons"],
        replications=_or(overrides.get("replications"),
                         v["experiment.replications"]),
        seed=_or(overrides.get("seed"), v["experiment.seed"]),
        burn_in_fraction=v["experiment.burn_in_fraction"],
        p=v["experiment.p"],
        out=overrides.get("out"),
    )


# =====================================================================
# Component tables: {kind: constructor} for each config section
# =====================================================================

# path.function -> amplitude -> (t in [0, 1] -> target)
_PATH_FUNCTIONS = {
    "sine": lambda amp: lambda t: amp * math.sin(2.0 * math.pi * t),
    "linear": lambda amp: lambda t: amp * t,
}


def _lipschitz_path(v: dict, n: int) -> models_mod.ParameterPath:
    """The path.function target on the grid k/n of horizon n."""
    if not 0.0 < v["path.beta"] <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    amp = v["path.amplitude"]
    func = _PATH_FUNCTIONS[v["path.function"]](amp)
    table = np.empty((n + 1, v["model.d"]))
    for k in range(n + 1):
        table[k] = func(k / n)
    return models_mod.make_parameter_path(
        "grid", table=table,
        c_theta=_or(v["path.c_theta"], max(amp * amp, 1.0)))


# path.kind -> (values, horizon) -> ParameterPath
_PATHS = {
    "static": lambda v, n: models_mod.make_parameter_path(
        "static", value=_or(v["path.value"], (0.0,) * v["model.d"]),
        c_theta=v["path.c_theta"]),
    "stabilizing": lambda v, n: models_mod.make_parameter_path(
        "stabilizing", dim=v["model.d"], c_rho=v["path.c_rho"],
        beta=v["path.beta"], c_theta=_or(v["path.c_theta"], 1.0),
        start=v["path.start"]),
    "lipschitz": _lipschitz_path,
}

# model.intensity -> (a, b) -> (t -> Poisson intensity)
_INTENSITIES = {
    "constant": lambda a, b: lambda t: a,
    "linear": lambda a, b: lambda t: a + b * t,
    "sine": lambda a, b: lambda t: a + b * math.sin(2.0 * math.pi * t),
}


def _poisson_model(v: dict, n: int, _path, _noise):
    """Poisson counts read from a grid of the intensity's cell means for
    horizon n, not from a path.* path; c_theta is their largest
    square."""
    intensity = _INTENSITIES[v["model.intensity"]](
        v["model.intensity.a"], v["model.intensity.b"])
    return models_mod.PoissonCountModel(path=models_mod.make_parameter_path(
        "grid", table=models_mod.poisson_targets(intensity, n)))


# model.kind -> (values, horizon, path, noise) -> simulator
_MODELS = {
    "signal_noise": lambda v, n, path, noise: models_mod.SignalNoiseModel(
        path=path, noise=noise),
    "arch1": lambda v, n, path, noise: models_mod.Arch1Model(
        path=path, noise=noise, x0=v["model.x0"]),
    "poisson": _poisson_model,
    "ar1": lambda v, n, path, noise: models_mod.ArdBatchModel(
        path, 1, v["model.sigma"], v["model.rho"]),
    "ard": lambda v, n, path, noise: models_mod.ArdBatchModel(
        path, v["model.d"], v["model.sigma"], v["model.rho"]),
}
# model kinds that build their own targets: they get path None, and a
# path.* key set beside them is an error
_OWN_TARGETS = frozenset({"poisson"})

# gain.kind -> (values, noise) -> GainSpec
_GAINS = {
    "signal_noise": lambda v, noise: gains_mod.signal_noise_spec(
        v["model.d"], noise_var=noise.variance or None),
    "quantile": lambda v, noise: gains_mod.quantile_spec(
        v["gain.alpha"], v["gain.density_floor"], v["gain.density_cap"]),
    "poisson": lambda v, noise: gains_mod.poisson_spec(
        intensity_bound=v["gain.intensity_bound"]),
    "gaussian": lambda v, noise: gains_mod.gaussian_known_cov_spec(
        np.diag(_or(v["gain.sigma_diag"], (1.0,) * v["model.d"]))),
    "arch1": lambda v, noise: gains_mod.arch1_spec(
        _or(v["gain.trunc"], 1.0), v["gain.lambda1"], v["gain.c_g"]),
    "ar1_truncated": lambda v, noise: gains_mod.ar1_truncated_spec(
        _or(v["gain.trunc"], 1.5), v["gain.lambda1"], v["gain.c_g"]),
    "ar1_normalized": lambda v, noise: gains_mod.ar1_normalized_spec(
        mu=v["gain.mu"]),
    "ard_score": lambda v, noise: gains_mod.ard_score_spec(
        v["model.d"], sigma=v["model.sigma"]),
}


# Every key the harness reads: key -> (parser, default).  Integer keys
# go through int(), never float, so 64-bit seeds stay exact.  A default
# of None means the component that reads the key derives the value.  A
# choice key is checked against the table or kind list that reads it.
CONFIG_KEYS: dict[str, tuple[Callable, object]] = {
    "experiment.horizons": (_at_least(_INTS, 1), (1000,)),
    "experiment.replications": (int, 1),
    "experiment.seed": (int, 1),
    "experiment.burn_in_fraction": (float, 0.5),
    "experiment.p": (_POSITIVE, 2.0),
    "experiment.statistic": (_one_of(("window", "final")), "window"),
    "experiment.tolerance": (float, 0.1),
    "experiment.theoretical_slope": (float, None),  # from schedule.kind
    "path.kind": (_one_of(_PATHS), "static"),
    "path.value": (_FLOATS, None),     # d zeros
    "path.c_theta": (float, None),     # per path kind
    "path.c_rho": (_POSITIVE, 1.0),
    "path.beta": (_NONNEGATIVE, 1.0),
    "path.start": (_FLOATS, None),     # the origin
    "path.function": (_one_of(_PATH_FUNCTIONS), "sine"),
    "path.amplitude": (float, 0.5),
    "model.kind": (_one_of(_MODELS), "signal_noise"),
    "model.d": (_at_least(int, 1), 1),
    "model.noise.kind": (_one_of(models_mod.NoiseSpec.KINDS), "normal"),
    "model.noise.scale": (_NONNEGATIVE, 1.0),
    "model.x0": (float, 0.0),
    "model.sigma": (float, 1.0),
    "model.rho": (float, 0.9),
    "model.intensity": (_one_of(_INTENSITIES), "constant"),
    "model.intensity.a": (float, 1.0),
    "model.intensity.b": (float, 0.0),
    "gain.kind": (_one_of(_GAINS), "signal_noise"),
    "gain.alpha": (float, 0.5),
    "gain.density_floor": (float, None),
    "gain.density_cap": (float, None),
    "gain.intensity_bound": (float, None),
    "gain.sigma_diag": (_FLOATS, None),  # d ones
    "gain.trunc": (float, None),         # per gain kind
    "gain.lambda1": (float, None),
    "gain.c_g": (float, None),
    "gain.mu": (float, 1.0),
    "schedule.kind": (_one_of(StepSchedule.KINDS), "static"),
    "schedule.c_gamma": (_POSITIVE, None),    # 4 / lambda1 of the gain
    "schedule.lambda2_guard": (float, None),  # lambda2 of the gain
    "schedule.cap": (_POSITIVE, math.inf),
    "schedule.beta": (_POSITIVE, 1.0),
    "schedule.gamma": (_POSITIVE, 0.1),
    "tracking.initial": (_FLOATS, None),  # d zeros
    "bounds.checkpoints": (_at_least(int, 1), 20),
    "bounds.lambda1": (_POSITIVE, None),  # bounds.* fall back on the gain's
    "bounds.lambda2": (_POSITIVE, None),
    "bounds.c_g": (float, None),
    "bounds.c_theta": (_POSITIVE, None),  # the model's path's
    "verify.fixtures": (_NAMES, None),  # all built-in fixtures
    "verify.samples": (_at_least(int, bounds_mod.MIN_SAMPLES), 20_000),
    "kalman.n": (_at_least(int, 1), None),  # the last horizon
    "kalman.m0": (float, 0.0),
    "kalman.var0": (_POSITIVE, 1.0),
    "kalman.var_noise": (_POSITIVE, 1.0),
    "kalman.deltas": (_FLOATS, ()),
    "kalman.theta": (float, 0.0),
    "kalman.tolerance": (float, 1e-12),
}


def _values(raw: dict[str, str]) -> dict[str, object]:
    """Every declared key, parsed from raw or set to its default.

    A key that CONFIG_KEYS does not declare is an error for every
    subcommand, so a misspelled key cannot fall back on a default.
    """
    values = {key: default for key, (_, default) in CONFIG_KEYS.items()}
    for key, text in raw.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key][0](text)
        except ValueError as exc:
            raise ConfigError(f"{key}: bad value {text!r} ({exc})") from exc
    return values


def _schedule(v: dict, c_gamma: float = 1.0,
              lambda2_guard: Optional[float] = None) -> StepSchedule:
    """The schedule.* step schedule; each kind reads the keys it needs."""
    return StepSchedule(kind=v["schedule.kind"], c_gamma=c_gamma,
                        beta=v["schedule.beta"], gamma=v["schedule.gamma"],
                        cap=v["schedule.cap"], lambda2_guard=lambda2_guard)


def _build(section: str, raw: dict, build: Callable, *args,
           dim: Optional[int] = None):
    """build(*args); a value it rejects, or a dimension other than dim,
    is a config error naming the section and the keys the config sets
    in it."""
    try:
        part = build(*args)
        if dim is not None and part.dim != dim:
            raise ValueError(f"dimension {part.dim}, not model.d = {dim}")
        return part
    except ValueError as exc:
        keys = ", ".join(key for key in raw if key.startswith(section + "."))
        raise ConfigError(f"{section} ({keys or 'defaults'}): {exc}") from exc


def build_components(raw: dict, n: int):
    """(tracking config, model, gain, model.path) for one horizon; the
    path, model and gain must have dimension model.d."""
    v = _values(raw)
    d = v["model.d"]
    noise = _build("model.noise", raw, models_mod.NoiseSpec,
                   v["model.noise.kind"], v["model.noise.scale"])
    if v["model.kind"] in _OWN_TARGETS:
        stray = [key for key in raw if key.startswith("path.")]
        if stray:
            raise ConfigError(f"{', '.join(stray)}: model.kind = "
                              f"{v['model.kind']} reads no path.* key")
        path = None
    else:
        path = _build("path", raw, _PATHS[v["path.kind"]], v, n, dim=d)
    model = _build("model", raw, _MODELS[v["model.kind"]], v, n, path, noise,
                   dim=d)
    gain = _build("gain", raw, _GAINS[v["gain.kind"]], v, noise, dim=d)
    consts = gain.constants
    c_gamma = _or(v["schedule.c_gamma"], default_c_gamma(consts.lambda1))
    schedule = _build("schedule", raw, _schedule, v, c_gamma,
                      _or(v["schedule.lambda2_guard"], consts.lambda2))
    config = _build("tracking", raw, lambda: TrackingConfig(
        dimension=d, horizon=n, schedule=schedule,
        initial_estimate=_or(v["tracking.initial"], (0.0,) * d)))
    return config, model, gain, model.path


# =====================================================================
# CSV
# =====================================================================

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def format_csv(header: Sequence[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def emit_csv(header: Sequence[str], rows, path: Optional[str],
             echo: bool = False) -> str:
    """Write CSV to path, or print it to stdout when there is no path and
    echo is set: UTF-8, LF endings, 17-digit floats."""
    text = format_csv(header, rows)
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    elif echo:
        sys.stdout.write(text)
    return text


# =====================================================================
# Rate sweeps
# =====================================================================

RATE_HEADER = ["horizon", "replication", "final_error_l1", "final_error_l2",
               "final_error_lp", "p", "seed"]


@dataclass(frozen=True)
class RateReport:
    horizons: tuple[int, ...]
    mean_l2: tuple[float, ...]
    final_mean_l2: tuple[float, ...]
    p: float
    statistic: str
    slope: float
    half_width: float
    theoretical_slope: Optional[float]
    tolerance: float
    passed: bool
    rows: list


def fit_rate(pairs) -> tuple[float, float]:
    """OLS of log error on (1, log n, log log n); the log n coefficient
    and its 95% half-width (0 when three points fit exactly, inf when
    the fit is inexact with no dof or fewer than three points leave the
    coefficient undetermined)."""
    ns = np.array([float(n) for n, _ in pairs])
    errs = np.array([float(e) for _, e in pairs])
    if np.any(errs <= 0):
        raise ValueError("errors must be positive for a log fit")
    design = np.column_stack([np.ones_like(ns), np.log(ns),
                              np.log(np.log(ns))])
    coef, *_ = np.linalg.lstsq(design, np.log(errs), rcond=None)
    resid = np.log(errs) - design @ coef
    dof = len(ns) - 3
    if dof > 0:
        s2 = float(resid @ resid) / dof
        cov = s2 * np.linalg.inv(design.T @ design)
        from scipy import stats  # 40 MB and 0.6 s to import; rarely needed
        half = float(stats.t.ppf(0.975, dof) * math.sqrt(cov[1, 1]))
    else:
        exact = dof == 0 and float(np.max(np.abs(resid))) < 1e-9
        half = 0.0 if exact else math.inf
    return float(coef[1]), half


def theoretical_slope_for(raw: dict) -> Optional[float]:
    v = _values(raw)
    return _or(v["experiment.theoretical_slope"],
               _build("schedule", raw, _schedule, v).slope)


def _norms(last: np.ndarray, p: float) -> np.ndarray:
    """The l1, l2 and lp norms of each row of the (B, d) errors, (B, 3).

    Each row sums on its own as a 1-D sum would; the lp root stays a
    scalar power, whose bits numpy's vector power need not give.
    """
    ae = np.abs(last)
    norms = np.empty((len(ae), 3))
    norms[:, 0] = np.sum(ae, axis=1)
    norms[:, 1] = np.sqrt(np.sum(ae * ae, axis=1))
    norms[:, 2] = np.max(ae, axis=1) if p == math.inf else \
        [s ** (1.0 / p) for s in np.sum(ae ** p, axis=1)]
    return norms


def _burn_in(fraction: float, n: int) -> int:
    """First step of the post-burn-in window: the least k >= 1 with
    k >= fraction * n."""
    return max(1, math.ceil(fraction * n))


def run_rate_sweep(config: ExperimentConfig) -> RateReport:
    """Monte-Carlo error-vs-horizon sweep with a log-corrected slope fit.

    The fitted statistic honors the burn-in contract: with the default
    statistic "window" each replication contributes the mean per-step
    error norm over k >= burn_in_fraction * n, which is far less noisy
    than the single final-step sample; "final" fits on the last step
    only.  The CSV rows always carry the per-replication final errors.
    """
    raw = config.raw
    v = _values(raw)
    reps = config.replications
    statistic = v["experiment.statistic"]
    if config.horizons[0] < 2:  # the fit's log log n needs n >= 2
        raise ConfigError("experiment.horizons: rates needs horizons of at "
                          f"least 2, got {config.horizons[0]}")
    rows, means, final_l2 = [], [], []
    for h_idx, n in enumerate(config.horizons):
        tracking, model, gain, path = build_components(raw, n)
        k0 = _burn_in(config.burn_in_fraction, n)
        finals = np.empty((reps, 3))
        windows = np.empty(reps)
        seeds = [config.seed ^ (h_idx * reps + rep) for rep in range(reps)]
        runs = run_replications(tracking, model, gain, seeds)
        for start, first, estimates, targets in runs:
            errors = np.subtract(estimates, targets, out=estimates)
            if first == 0:  # a new block
                block = slice(start, start + len(errors))
                window = WindowMeans(len(errors), k0, n)
            last = first + errors.shape[1] == n + 1
            if last:  # before the window is squared
                finals[block] = _norms(errors[:, -1], config.p)
            window.add(errors, first)
            if last:
                windows[block] = window.means()
            del estimates, targets, errors  # before the next window's draw
        rows.extend((n, rep, *finals[rep], config.p, seeds[rep])
                    for rep in range(reps))
        # exact sums: aggregate independent of replication order
        stat = windows if statistic == "window" else finals[:, 1]
        means.append(math.fsum(stat) / reps)
        final_l2.append(math.fsum(finals[:, 1]) / reps)
    slope, half = fit_rate(list(zip(config.horizons, means)))
    theo = theoretical_slope_for(raw)
    tol = v["experiment.tolerance"]
    passed = theo is None or abs(slope - theo) <= tol
    return RateReport(horizons=config.horizons, mean_l2=tuple(means),
                      final_mean_l2=tuple(final_l2),
                      p=config.p, statistic=statistic, slope=slope,
                      half_width=half, theoretical_slope=theo, tolerance=tol,
                      passed=passed, rows=rows)


# =====================================================================
# Bound checks
# =====================================================================

BOUND_HEADER = ["k", "empirical_mean", "empirical_se", "bound_rhs", "pass"]


@dataclass(frozen=True)
class BoundTable:
    ks: tuple[int, ...]
    empirical_mean: tuple[float, ...]
    empirical_se: tuple[float, ...]
    bound_rhs: tuple[float, ...]
    flags: tuple[bool, ...]
    passed: bool

    @property
    def rows(self):
        return list(zip(self.ks, self.empirical_mean, self.empirical_se,
                        self.bound_rhs, self.flags))


def run_bound_check(config: ExperimentConfig,
                    n: Optional[int] = None) -> BoundTable:
    """Compare the MC mean error against the first-moment bound at
    checkpoints in the post-burn-in window.

    The estimate second-moment constant is measured from the runs; the
    oscillation term uses the MC mean drift of the realized targets.
    """
    raw = config.raw
    v = _values(raw)
    if n is None:
        n = config.horizons[-1]
    reps = config.replications
    k0 = _burn_in(config.burn_in_fraction, n)
    if k0 >= n:
        raise ConfigError("experiment.burn_in_fraction: no step after the "
                          f"burn-in at horizon {n}")
    if reps < 2:  # the standard error needs two replications
        raise ConfigError("experiment.replications: bound-check needs at "
                          f"least 2, got {reps}")
    tracking, model, gain, path = build_components(raw, n)
    gammas = tracking.schedule.values_upto(n)
    consts = gain.constants
    lam1 = _or(v["bounds.lambda1"], consts.lambda1)
    lam2 = _or(v["bounds.lambda2"], consts.lambda2)
    c_g = _or(v["bounds.c_g"], consts.c_g)
    if lam1 is None or lam2 is None or c_g is None:
        raise ConfigError("bound check needs lambda1, lambda2 and c_g "
                          "(declared by the gain or set under bounds.*)")
    # checked before the runs; c_theta_bar is theirs to measure
    inputs = _build("bounds", raw, bounds_mod.BoundInputs, lam1, lam2, c_g,
                    max(_or(v["bounds.c_theta"], path.c_theta), 1e-12), 1.0,
                    gammas[k0:])
    n_checks = min(v["bounds.checkpoints"], n - k0)
    slots = np.unique(np.linspace(k0 + 1, n, n_checks).astype(int))
    err_norms = np.empty((reps, slots.size))
    osc_sum = np.zeros(n - k0)          # sum over reps of ||theta_{i+1} - theta_{k0}||
    est_sq_sum = np.zeros(n + 1)        # sum over reps of ||theta_hat_k||^2
    seeds = [config.seed ^ rep for rep in range(reps)]
    runs = run_replications(tracking, model, gain, seeds, gammas)
    for start, first, estimates, targets in runs:
        size, m = estimates.shape[:2]
        lo, hi = np.searchsorted(slots, (first, first + m))
        at = slots[lo:hi] - first
        err_norms[start:start + size, lo:hi] = np.linalg.norm(
            estimates[:, at] - targets[:, at], axis=2)
        if first <= k0 < first + m:
            origins = targets[:, k0 - first].copy()  # each theta_{k0}
        past = max(k0 + 1 - first, 0)  # the window's first slot after k0
        for i in range(size):  # in replication order
            est_sq_sum[first:first + m] += np.sum(estimates[i] ** 2, axis=1)
            if past < m:
                osc_sum[first + past - k0 - 1:first + m - k0 - 1] += \
                    np.linalg.norm(targets[i, past:] - origins[i], axis=1)
        del estimates, targets  # before the next window's draw
    c_theta_bar = max(float(np.max(est_sq_sum)) / reps, 1e-12)
    osc_mean_cummax = np.maximum.accumulate(osc_sum / reps)
    checks = []
    for j, slot in enumerate(slots):
        k = slot - 1  # the step that produced this slot
        osc = float(osc_mean_cummax[k - k0])
        bound = bounds_mod.theorem1_bound(replace(
            inputs, c_theta_bar=c_theta_bar, gammas=gammas[k0:k + 1]), osc)
        mean = math.fsum(err_norms[:, j]) / reps
        se = float(err_norms[:, j].std(ddof=1)) / math.sqrt(reps)
        checks.append((mean, se, bound,
                       mean <= bound + bounds_mod.SE_MARGIN * se))
    emp, ses, rhs, flags = zip(*checks)
    return BoundTable(ks=tuple(int(s) for s in slots),
                      empirical_mean=emp, empirical_se=ses,
                      bound_rhs=rhs, flags=flags,
                      passed=all(flags))


# =====================================================================
# Condition verification fixtures
# =====================================================================

VERIFY_HEADER = ["probe_index", "r_hat", "r_se", "g_norm_ratio", "c_g_hat",
                 "pass"]


# Rows a fixture's fill draws per call.  Every fill draws in place and
# makes no temporary; a block this size stays in cache for the passes a
# fill makes over it after the draw.
FILL_ROWS = 16384


@dataclass(frozen=True)
class StackSampler:
    """A verify fixture's observation rows, defined by one fill.

    fill(rng, rows) writes a C-ordered (m, width) row stack in place
    with a single draw from rng, straight into the stack.  A row holds
    only what the fill draws: a fixture at a pinned past gets the past
    from its gain_eval (gains.at_pinned_past).  fill_rows feeds fill
    FILL_ROWS rows at a time; with one draw per call, the generator's
    values land in the same rows as from one call on the whole stack.
    Called as sampler(rng, size) it returns a new stack, as a (size,)
    vector at width 1.
    """

    width: int
    fill: Callable

    def fill_rows(self, rng: np.random.Generator, rows: np.ndarray) -> None:
        for start in range(0, len(rows), FILL_ROWS):
            self.fill(rng, rows[start:start + FILL_ROWS])

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        rows = np.empty((size, self.width))
        self.fill_rows(rng, rows)
        return rows[:, 0] if self.width == 1 else rows


@dataclass(frozen=True)
class VerifyFixture:
    gain_eval: Callable
    sampler: StackSampler
    theta: np.ndarray
    probes: list
    lambda1: Optional[float]
    lipschitz: Optional[float]
    c_g: Optional[float]
    expect_pass: bool = True


def builtin_fixtures() -> dict[str, VerifyFixture]:
    """The standard probe-grid fixtures.

    moulines_d2 is a required failure: the normalized AR gain at d=2 has
    a rank-one conditional-mean matrix, so any positive lower eigenvalue
    claim breaks on a probe direction orthogonal to the pinned lags.
    """
    fx: dict[str, VerifyFixture] = {}

    theta = np.array([0.3])

    def signal_noise_fill(rng, rows):
        rng.standard_normal(out=rows[:, 0])
        rows += theta[0]

    fx["signal_noise"] = VerifyFixture(
        gain_eval=gains_mod.signal_noise_spec(1).evaluator,
        sampler=StackSampler(1, signal_noise_fill),
        theta=theta, probes=[[-0.7], [0.0], [0.8], [1.3]],
        lambda1=1.0, lipschitz=1.0, c_g=1.0)

    sigma_diag = np.array([2.0, 4.0])
    theta_g = np.array([0.5, -0.3])
    root = np.sqrt(sigma_diag)

    def gaussian_fill(rng, rows):
        rng.standard_normal(out=rows)
        for col, r, t in zip(rows.T, root, theta_g):  # quicker than broadcasts
            col *= r
            col += t

    fx["gaussian"] = VerifyFixture(
        gain_eval=gains_mod.gaussian_known_cov_spec(np.diag(sigma_diag)).evaluator,
        sampler=StackSampler(2, gaussian_fill), theta=theta_g,
        probes=[[1.0, -0.3], [0.5, 0.4], [0.0, 0.0], [1.2, -1.1]],
        lambda1=0.25, lipschitz=0.5, c_g=0.75)  # c_g = tr(Sigma^{-1})

    theta_q = np.array([0.5])

    def quantile_fill(rng, rows):
        rng.random(out=rows[:, 0])

    fx["quantile"] = VerifyFixture(
        gain_eval=gains_mod.quantile_spec(0.5).evaluator,
        sampler=StackSampler(1, quantile_fill),
        theta=theta_q, probes=[[0.2], [0.35], [0.65], [0.8]],
        lambda1=1.0, lipschitz=1.0, c_g=0.25)

    # ARCH(1): pinned X_{k-1} = 1, truncation 1 -> mean gain -(v - theta)
    theta_a = 0.5
    x_pin = 1.0

    def arch_fill(rng, rows):
        rng.standard_normal(out=rows[:, 0])
        rows *= math.sqrt(1.0 + theta_a * x_pin * x_pin)

    fx["arch1_truncated"] = VerifyFixture(
        gain_eval=gains_mod.at_pinned_past(
            gains_mod.arch1_spec(trunc=1.0).evaluator, [x_pin]),
        sampler=StackSampler(1, arch_fill), theta=np.array([theta_a]),
        probes=[[0.0], [0.2], [0.8], [1.0]],
        lambda1=1.0, lipschitz=1.0, c_g=5.0)

    # truncated AR(1): pinned X_{k-1} = 1.5, T = 1.5 -> mean gain -1.5 (v-theta)
    theta_r = 0.5
    xr_pin = 1.5

    def ar1_fill(rng, rows):
        rng.standard_normal(out=rows[:, 0])
        rows += theta_r * xr_pin

    fx["ar1_truncated"] = VerifyFixture(
        gain_eval=gains_mod.at_pinned_past(
            gains_mod.ar1_truncated_spec(trunc=1.5).evaluator, [xr_pin]),
        sampler=StackSampler(1, ar1_fill), theta=np.array([theta_r]),
        probes=[[-0.2], [0.1], [0.7], [0.9]],
        lambda1=1.5, lipschitz=1.5, c_g=1.0)

    theta_m = np.array([0.5, 0.2])
    lags = np.array([1.0, 0.5])
    ortho = np.array([-0.5, 1.0]) / np.linalg.norm([-0.5, 1.0])

    mean_m = float(theta_m @ lags)

    # the d = 2 gains are written over the rows, so rows stay 2 wide, as
    # (x_k, 0).  x_k is drawn into the block's first m floats, then moved
    # to the even ones top half first: no move overlaps what it reads, so
    # the fill makes no temporary.
    def moulines_fill(rng, rows):
        flat = rows.reshape(-1)
        hi = len(rows)
        rng.standard_normal(out=flat[:hi])
        while hi > 1:
            lo = (hi + 1) // 2
            np.add(flat[lo:hi], mean_m, out=flat[2 * lo:2 * hi:2])
            hi = lo
        flat[0] += mean_m
        rows[:, 1] = 0.0

    def moulines_eval(est, rows):
        return gains_mod.ar_normalized_vector_gain(
            est, rows[:, 0], rows[:, 1:], mu=1.0)

    fx["moulines_d2"] = VerifyFixture(
        gain_eval=gains_mod.at_pinned_past(moulines_eval, lags),
        sampler=StackSampler(2, moulines_fill),
        theta=theta_m,
        probes=[list(theta_m + 0.4 * ortho), list(theta_m - 0.3 * ortho)],
        lambda1=0.2, lipschitz=None, c_g=None, expect_pass=False)
    return fx


def _draw_ahead(pool, samplers: Sequence[StackSampler], n: int,
                rng: np.random.Generator) -> Callable:
    """The sampler(rng, size) the verifiers take, handing out the row
    stacks of a fixed list of samplers, drawn in that order from one
    generator on pool's one worker, one stack ahead of the caller.  It
    ignores rng, since only the worker draws.

    numpy's draws release the GIL, so the worker draws the next stack
    while the caller evaluates gains on this one.  The worker fills two
    slots allocated here, n rows of the widest sampler's width (2 for
    the built-in fixtures), and allocates no arrays itself, since every
    fill draws in place: glibc gives a second thread its own malloc
    arena, which would hold the memory it frees.  Asking for
    stack k submits the fills up to stack k + 1, which goes over stack
    k - 1, so a stack stays intact until the next is asked for.
    """
    width = max((s.width for s in samplers), default=1)
    slots = [np.empty(n * width) for _ in range(2)]
    stacks = [slots[k % 2][:n * s.width].reshape(n, s.width)
              for k, s in enumerate(samplers)]
    fills = []
    taken = 0

    def next_rows(_rng, size: int) -> np.ndarray:
        nonlocal taken
        k = taken
        if size != n or k == len(stacks):
            raise RuntimeError(f"draw {k} of {size} rows is not in the plan")
        for j in range(len(fills), min(k + 2, len(stacks))):
            fills.append(pool.submit(samplers[j].fill_rows, rng, stacks[j]))
        fills[k].result()  # raises a worker's error here
        taken += 1
        return stacks[k]

    return next_rows


@dataclass(frozen=True)
class VerifyReport:
    fixture_results: list  # (name, expected_pass, observed_pass, probe rows)
    passed: bool           # every fixture behaved as expected
    rows: list


def run_condition_verify(config: ExperimentConfig) -> VerifyReport:
    """A1 and A2 at every probe of the chosen fixtures.  Each probe draws
    verify.samples rows for A1, then again for A2, all from one
    make_rng(seed) generator; a worker thread makes those draws."""
    from concurrent.futures import ThreadPoolExecutor  # 9 ms, mostly logging
    v = _values(config.raw)
    registry = builtin_fixtures()
    n_samples = v["verify.samples"]
    names = _or(v["verify.fixtures"], tuple(registry))
    for name in names:
        if name not in registry:
            raise ConfigError(f"unknown verify fixture {name!r}")
    fixtures = [(name, registry[name]) for name in names]
    # the loop pops each fixture, so one that has run is freed, and with
    # it its gain's row buffer
    del registry
    plan = [fx.sampler for _, fx in fixtures
            for _ in range(2 * len(fx.probes))]
    rng = models_mod.make_rng(config.seed)
    rows = []
    results = []
    # leaving the block joins the worker, on an error too
    with ThreadPoolExecutor(max_workers=1,
                            thread_name_prefix="verify-draws") as pool:
        next_rows = _draw_ahead(pool, plan, n_samples, rng)
        while fixtures:
            name, fixture = fixtures.pop(0)
            report = bounds_mod.verify_A1_empirical(
                fixture.gain_eval, next_rows, fixture.theta,
                fixture.probes, n_samples, None,
                lambda1=fixture.lambda1, lipschitz=fixture.lipschitz)
            probe_rows = []
            for res in report.probes:
                a2 = bounds_mod.verify_A2_empirical(
                    fixture.gain_eval, next_rows, res.probe, n_samples,
                    None, c_g=fixture.c_g)
                probe_rows.append((len(rows) + len(probe_rows), res.r_hat,
                                   res.r_se, res.g_norm_ratio,
                                   a2.second_moment, res.passed and a2.passed))
            observed_pass = all(row[-1] for row in probe_rows)
            results.append((name, fixture.expect_pass, observed_pass,
                            probe_rows))
            rows.extend(probe_rows)
    passed = all(expect == observed for _, expect, observed, _ in results)
    return VerifyReport(fixture_results=results, passed=passed, rows=rows)


# =====================================================================
# Kalman comparison and single runs
# =====================================================================

KALMAN_HEADER = ["k", "kalman_estimate", "tracker_estimate", "running_mean",
                 "mse", "abs_diff"]


@dataclass(frozen=True)
class KalmanCompareResult:
    max_abs_diff: float
    max_mean_diff: float
    passed: bool
    rows: list


def run_kalman_compare(config: ExperimentConfig) -> KalmanCompareResult:
    """Drive the tracker with the filter's own gain sequence and compare.

    With no state drift and prior variance equal to the noise variance
    both coincide with the running mean that counts the prior mean as a
    zeroth observation.
    """
    v = _values(config.raw)
    n = _or(v["kalman.n"], config.horizons[-1])
    kconf = _build("kalman", config.raw, lambda: kalman_mod.KalmanConfig(
        m0=v["kalman.m0"], var0=v["kalman.var0"],
        var_noise=v["kalman.var_noise"], deltas=v["kalman.deltas"]))
    theta = v["kalman.theta"]
    rng = models_mod.make_rng(config.seed)
    obs = theta + rng.normal(0.0, math.sqrt(kconf.var_noise), size=n)
    kalman_est, mse = kalman_mod.kalman_filter_run(kconf, obs)
    gains = kalman_mod.kalman_gain_sequence(kconf, n)
    schedule_free_est = replay_updates(
        [kconf.m0], obs[:, None], gains, gains_mod.signal_noise_spec(1))
    tracker_est = schedule_free_est[:, 0]
    # running mean counting m0 as the zeroth observation
    cums = np.concatenate(([kconf.m0], kconf.m0 + np.cumsum(obs)))
    running = cums / np.arange(1, n + 2)
    diff = np.abs(kalman_est - tracker_est)
    static_case = (not any(kconf.deltas)) and \
        abs(kconf.var0 - kconf.var_noise) < 1e-15
    mean_diff = np.abs(kalman_est - running) if static_case \
        else np.zeros(n + 1)
    rows = [(k, kalman_est[k], tracker_est[k], running[k],
             mse[k - 1] if k >= 1 else kconf.var_noise * kconf.var0 / kconf.var_noise,
             diff[k]) for k in range(n + 1)]
    tol = v["kalman.tolerance"]
    passed = float(diff.max()) <= tol and float(mean_diff.max()) <= tol
    return KalmanCompareResult(max_abs_diff=float(diff.max()),
                               max_mean_diff=float(mean_diff.max()),
                               passed=passed, rows=rows)


def run_single(config: ExperimentConfig):
    """One trajectory; returns (header, rows)."""
    raw = config.raw
    n = config.horizons[-1]
    tracking, model, gain, _path = build_components(raw, n)
    run = run_tracking(tracking, model, gain, config.seed)
    d = tracking.dimension
    header = (["k"] + [f"estimate_{i}" for i in range(d)]
              + [f"target_{i}" for i in range(d)] + ["error_l2", "gamma"])
    errors = run.estimates - run.targets
    rows = []
    for k in range(n + 1):
        gamma = run.steps[k - 1] if k >= 1 else 0.0
        rows.append((k, *run.estimates[k], *run.targets[k],
                     float(np.linalg.norm(errors[k])), gamma))
    return header, rows


# =====================================================================
# CLI
# =====================================================================

def _verdict(passed) -> str:
    return "PASS" if passed else "FAIL"


def _rates(config: ExperimentConfig):
    r = run_rate_sweep(config)
    theo = "n/a" if r.theoretical_slope is None \
        else f"{r.theoretical_slope:+.4f}"
    return RATE_HEADER, r.rows, r.passed, [
        f"slope {r.slope:+.4f} (+-{r.half_width:.4f}), theoretical {theo}, "
        f"{_verdict(r.passed)}"]


def _bound_check(config: ExperimentConfig):
    t = run_bound_check(config)
    return BOUND_HEADER, t.rows, t.passed, [
        f"bound dominance at {len(t.ks)} checkpoints: {_verdict(t.passed)}"]


def _verify(config: ExperimentConfig):
    r = run_condition_verify(config)
    return VERIFY_HEADER, r.rows, r.passed, [
        f"{name}: observed {'pass' if observed else 'fail'}, expected "
        f"{'pass' if expected else 'fail'} -> {_verdict(observed == expected)}"
        for name, expected, observed, _rows in r.fixture_results]


def _kalman(config: ExperimentConfig):
    r = run_kalman_compare(config)
    return KALMAN_HEADER, r.rows, r.passed, [
        f"max |kalman - tracker| = {r.max_abs_diff:.3e}, "
        f"max |kalman - running mean| = {r.max_mean_diff:.3e}"
        f" -> {_verdict(r.passed)}"]


# subcommand -> config -> (CSV header, rows, passed, summary lines); run
# has no summary, so its CSV goes to stdout when there is no --out
_COMMANDS = {
    "run": lambda config: (*run_single(config), True, []),
    "rates": _rates,
    "bound-check": _bound_check,
    "verify": _verify,
    "kalman-compare": _kalman,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="drifttrack",
        description="Online parameter tracking experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=str, default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--out", type=str, default=None)
        cmd.add_argument("--replications", type=int, default=None)
        cmd.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        raw = parse_config_file(args.config) if args.config else {}
        config = experiment_config(args.command, raw, vars(args))
        header, rows, passed, lines = _COMMANDS[args.command](config)
        # with --quiet and no --out, the CSV is the whole of stdout
        emit_csv(header, rows, config.out, echo=args.quiet or not lines)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrackingDiverged as exc:
        print(f"diverged at step {exc.step}: horizon {exc.horizon}, "
              f"replication {exc.replication}", file=sys.stderr)
        return 1
    if not args.quiet:
        sys.stdout.writelines(line + "\n" for line in lines)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
