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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import stats as _scipy_stats

from . import bounds as bounds_mod
from . import gains as gains_mod
from . import kalman as kalman_mod
from . import models as models_mod
from .core import TrackingConfig, TrackingDiverged, replay_updates, run_tracking
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


_INTS = _list_of(int)
_FLOATS = _list_of(float)
_NAMES = _list_of(str.strip)

# Every key the harness reads: key -> (parser, default).  Integer keys
# go through int(), never float, so 64-bit seeds stay exact.  A default
# of None means the component that reads the key derives the value.
CONFIG_KEYS: dict[str, tuple[Callable, object]] = {
    "experiment.horizons": (_INTS, (1000,)),
    "experiment.replications": (int, 1),
    "experiment.seed": (int, 1),
    "experiment.burn_in_fraction": (float, 0.5),
    "experiment.p": (float, 2.0),
    "experiment.out": (str, None),
    "experiment.statistic": (str, "window"),
    "experiment.tolerance": (float, 0.1),
    "experiment.theoretical_slope": (float, None),  # from schedule.kind
    "path.kind": (str, "static"),
    "path.value": (_FLOATS, None),     # d zeros
    "path.c_theta": (float, None),     # per path kind
    "path.c_rho": (float, 1.0),
    "path.beta": (float, 1.0),
    "path.start": (_FLOATS, None),     # the origin
    "path.function": (str, "sine"),
    "path.amplitude": (float, 0.5),
    "model.kind": (str, "signal_noise"),
    "model.d": (int, 1),
    "model.noise.kind": (str, "normal"),
    "model.noise.scale": (float, 1.0),
    "model.x0": (float, 0.0),
    "model.sigma": (float, 1.0),
    "model.rho": (float, 0.9),
    "model.intensity": (str, "constant"),
    "model.intensity.a": (float, 1.0),
    "model.intensity.b": (float, 0.0),
    "gain.kind": (str, "signal_noise"),
    "gain.alpha": (float, 0.5),
    "gain.density_floor": (float, None),
    "gain.density_cap": (float, None),
    "gain.intensity_bound": (float, None),
    "gain.sigma_diag": (_FLOATS, None),  # d ones
    "gain.trunc": (float, None),         # per gain kind
    "gain.lambda1": (float, None),
    "gain.c_g": (float, None),
    "gain.mu": (float, 1.0),
    "schedule.kind": (str, "static"),
    "schedule.c_gamma": (float, None),        # 4 / lambda1 of the gain
    "schedule.lambda2_guard": (float, None),  # lambda2 of the gain
    "schedule.cap": (float, math.inf),
    "schedule.beta": (float, 1.0),
    "schedule.gamma": (float, 0.1),
    "tracking.initial": (_FLOATS, None),  # d zeros
    "bounds.checkpoints": (int, 20),
    "bounds.lambda1": (float, None),  # bounds.* fall back on the gain's
    "bounds.lambda2": (float, None),
    "bounds.c_g": (float, None),
    "bounds.c_theta": (float, None),  # the path's, else measured
    "verify.fixtures": (_NAMES, None),  # all built-in fixtures
    "verify.required_failures": (_NAMES, ()),
    "verify.samples": (int, 20_000),
    "kalman.n": (int, None),          # the last horizon
    "kalman.m0": (float, 0.0),
    "kalman.var0": (float, 1.0),
    "kalman.var_noise": (float, 1.0),
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


def _or(value, default):
    """value, or default when the key was not set."""
    return default if value is None else value


def _pick(table: dict, key: str, values: dict):
    """The table entry for the kind that key names."""
    try:
        return table[values[key]]
    except KeyError:
        raise ConfigError(f"unknown {key} {values[key]!r}") from None


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
    quiet: bool = False

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
        out=overrides.get("out") or v["experiment.out"],
        quiet=bool(overrides.get("quiet", False)),
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
    amp = v["path.amplitude"]
    return models_mod.make_parameter_path(
        "lipschitz", dim=v["model.d"],
        func=_pick(_PATH_FUNCTIONS, "path.function", v)(amp),
        beta=v["path.beta"],
        c_theta=_or(v["path.c_theta"], max(amp * amp, 1.0)), frequency=n)


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


# model.kind -> (values, path, noise) -> simulator
_MODELS = {
    "signal_noise": lambda v, path, noise: models_mod.SignalNoiseModel(
        path=path, noise=noise),
    "arch1": lambda v, path, noise: models_mod.Arch1Model(
        path=path, noise=noise, x0=v["model.x0"]),
    "poisson": lambda v, path, noise: models_mod.PoissonCountModel(
        intensity=_pick(_INTENSITIES, "model.intensity", v)(
            v["model.intensity.a"], v["model.intensity.b"])),
    "ar1": lambda v, path, noise: models_mod.ArdBatchModel(
        path, 1, v["model.sigma"], v["model.rho"]),
    "ard": lambda v, path, noise: models_mod.ArdBatchModel(
        path, v["model.d"], v["model.sigma"], v["model.rho"]),
}

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

# schedule.kind -> ((values, horizon) -> StepSchedule arguments beyond
# c_gamma, cap and guard;  beta -> theoretical log n slope, or None)
_SCHEDULES = {
    "static": (lambda v, n: {}, lambda beta: -0.5),
    "stabilizing": (lambda v, n: {"beta": v["schedule.beta"]},
                    lambda beta: -beta / 3.0),
    "lipschitz": (lambda v, n: {"beta": v["schedule.beta"], "horizon": n},
                  lambda beta: -beta / (2.0 * beta + 1.0)),
    "constant": (lambda v, n: {"gamma": v["schedule.gamma"]},
                 lambda beta: None),
}


def build_components(raw: dict, n: int):
    """(tracking config, model, gain, path) for one horizon."""
    v = _values(raw)
    d = v["model.d"]
    noise = models_mod.NoiseSpec(kind=v["model.noise.kind"],
                                 scale=v["model.noise.scale"])
    path = _pick(_PATHS, "path.kind", v)(v, n)
    model = _pick(_MODELS, "model.kind", v)(v, path, noise)
    gain = _pick(_GAINS, "gain.kind", v)(v, noise)
    schedule_args, _slope = _pick(_SCHEDULES, "schedule.kind", v)
    consts = gain.constants or gains_mod.GainConstants()
    schedule = StepSchedule(
        kind=v["schedule.kind"],
        c_gamma=_or(v["schedule.c_gamma"], default_c_gamma(consts.lambda1)),
        cap=v["schedule.cap"],
        lambda2_guard=_or(v["schedule.lambda2_guard"], consts.lambda2),
        **schedule_args(v, n))
    config = TrackingConfig(
        dimension=d, horizon=n, schedule=schedule,
        initial_estimate=_or(v["tracking.initial"], (0.0,) * d))
    return config, model, gain, path


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


def emit_csv(header: Sequence[str], rows, path: Optional[str]) -> str:
    """Write (or print) CSV: UTF-8, LF endings, 17-digit floats."""
    text = format_csv(header, rows)
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text


# =====================================================================
# Rate sweeps
# =====================================================================

RATE_HEADER = ["horizon", "replication", "final_error_l1", "final_error_l2",
               "final_error_lp", "p", "seed"]


@dataclass(frozen=True)
class RateReport:
    horizons: tuple[int, ...]
    mean_l1: tuple[float, ...]
    mean_l2: tuple[float, ...]
    mean_lp: tuple[float, ...]
    final_mean_l1: tuple[float, ...]
    final_mean_l2: tuple[float, ...]
    final_mean_lp: tuple[float, ...]
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
    and its 95% half-width (0 when the fit is exact with no dof)."""
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
        half = float(_scipy_stats.t.ppf(0.975, dof) * math.sqrt(cov[1, 1]))
    else:
        half = 0.0 if float(np.max(np.abs(resid), initial=0.0)) < 1e-9 \
            else math.inf
    return float(coef[1]), half


def theoretical_slope_for(raw: dict) -> Optional[float]:
    v = _values(raw)
    slope = _pick(_SCHEDULES, "schedule.kind", v)[1](v["schedule.beta"])
    return _or(v["experiment.theoretical_slope"], slope)


def _norms(err: np.ndarray, p: float) -> tuple[float, float, float]:
    ae = np.abs(err)
    l1 = float(np.sum(ae))
    l2 = float(np.sqrt(np.sum(ae * ae)))
    lp = float(np.max(ae)) if p == math.inf else float(np.sum(ae ** p) ** (1.0 / p))
    return l1, l2, lp


def _window_norms(errors: np.ndarray, p: float, k0: int) -> tuple[float, float, float]:
    """Per-step norms averaged over the post-burn-in slots k0..n."""
    window = errors[k0:]
    ae = np.abs(window)
    l1 = float(np.mean(np.sum(ae, axis=1)))
    l2 = float(np.mean(np.sqrt(np.sum(ae * ae, axis=1))))
    if p == math.inf:
        lp = float(np.mean(np.max(ae, axis=1)))
    else:
        lp = float(np.mean(np.sum(ae ** p, axis=1) ** (1.0 / p)))
    return l1, l2, lp


def _replication(tracking: TrackingConfig, model, gain, seed: int, rep: int):
    """run_tracking for one replication; a divergence names where it was."""
    try:
        return run_tracking(tracking, model, gain, seed)
    except TrackingDiverged as exc:
        raise TrackingDiverged(exc.step, f"horizon {tracking.horizon}, "
                                         f"replication {rep}") from exc


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
    if statistic not in ("window", "final"):
        raise ConfigError(f"unknown experiment.statistic: {statistic}")
    rows, means, final_means = [], [], []
    for h_idx, n in enumerate(config.horizons):
        tracking, model, gain, _path = build_components(raw, n)
        k0 = max(1, int(math.ceil(config.burn_in_fraction * n)))
        finals = np.empty((reps, 3))
        windows = np.empty((reps, 3))
        for rep in range(reps):
            rep_seed = config.seed ^ (h_idx * reps + rep)
            run = _replication(tracking, model, gain, rep_seed, rep)
            finals[rep] = _norms(run.final_error, config.p)
            windows[rep] = _window_norms(run.errors, config.p, k0)
            rows.append((n, rep, finals[rep, 0], finals[rep, 1],
                         finals[rep, 2], config.p, rep_seed))
        # exact sums: aggregate independent of replication order
        stat = windows if statistic == "window" else finals
        means.append([math.fsum(col) / reps for col in stat.T])
        final_means.append([math.fsum(col) / reps for col in finals.T])
    mean_l1, mean_l2, mean_lp = zip(*means)
    final_l1, final_l2, final_lp = zip(*final_means)
    slope, half = fit_rate(list(zip(config.horizons, mean_l2)))
    theo = theoretical_slope_for(raw)
    tol = v["experiment.tolerance"]
    passed = theo is None or abs(slope - theo) <= tol
    return RateReport(horizons=config.horizons, mean_l1=mean_l1,
                      mean_l2=mean_l2, mean_lp=mean_lp, final_mean_l1=final_l1,
                      final_mean_l2=final_l2, final_mean_lp=final_lp,
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
    c_theta_bar_hat: float

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
    tracking, model, gain, path = build_components(raw, n)
    k0 = int(config.burn_in_fraction * n)
    n_checks = min(v["bounds.checkpoints"], n - k0)
    slots = np.unique(np.linspace(k0 + 1, n, n_checks).astype(int))
    err_norms = np.empty((reps, slots.size))
    osc_sum = np.zeros(n - k0)          # sum over reps of ||theta_{i+1} - theta_{k0}||
    est_sq_sum = np.zeros(n + 1)        # sum over reps of ||theta_hat_k||^2
    theta_sq_max = 0.0
    for rep in range(reps):
        rep_seed = config.seed ^ rep
        run = _replication(tracking, model, gain, rep_seed, rep)
        err_norms[rep] = np.linalg.norm(run.errors[slots], axis=1)
        drift = run.targets[k0 + 1:] - run.targets[k0]
        osc_sum += np.linalg.norm(drift, axis=1)
        est_sq_sum += np.sum(run.estimates ** 2, axis=1)
        theta_sq_max = max(theta_sq_max,
                           float(np.max(np.sum(run.targets ** 2, axis=1))))
    c_theta_bar = max(float(np.max(est_sq_sum)) / reps, 1e-12)
    consts = gain.constants or gains_mod.GainConstants()
    lam1 = v["bounds.lambda1"] or consts.lambda1
    lam2 = v["bounds.lambda2"] or consts.lambda2
    c_g = _or(v["bounds.c_g"], consts.c_g)
    if lam1 is None or lam2 is None or c_g is None:
        raise ConfigError("bound check needs lambda1, lambda2 and c_g "
                          "(declared by the gain or set under bounds.*)")
    c_theta = max(_or(v["bounds.c_theta"], path.c_theta or theta_sq_max),
                  1e-12)
    gammas = tracking.schedule.values_upto(n)
    osc_mean_cummax = np.maximum.accumulate(osc_sum / reps)
    checks = []
    for j, slot in enumerate(slots):
        k = slot - 1  # the step that produced this slot
        inputs = bounds_mod.BoundInputs(
            lambda1=lam1, lambda2=lam2, c_g=c_g, c_theta=c_theta,
            c_theta_bar=c_theta_bar, gammas=gammas[k0:k + 1])
        osc = float(osc_mean_cummax[k - k0])
        bound = bounds_mod.theorem1_bound(inputs, osc)
        mean = math.fsum(err_norms[:, j]) / reps
        se = float(err_norms[:, j].std(ddof=1)) / math.sqrt(reps)
        checks.append((mean, se, bound,
                       mean <= bound + bounds_mod.SE_MARGIN * se))
    emp, ses, rhs, flags = zip(*checks)
    return BoundTable(ks=tuple(int(s) for s in slots),
                      empirical_mean=emp, empirical_se=ses,
                      bound_rhs=rhs, flags=flags,
                      passed=all(flags), c_theta_bar_hat=c_theta_bar)


# =====================================================================
# Condition verification fixtures
# =====================================================================

VERIFY_HEADER = ["probe_index", "r_hat", "r_se", "g_norm_ratio", "c_g_hat",
                 "pass"]


@dataclass(frozen=True)
class VerifyFixture:
    gain_eval: Callable
    sampler: Callable
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
    fx["signal_noise"] = VerifyFixture(
        gain_eval=gains_mod.signal_noise_spec(1).evaluator,
        sampler=lambda rng, size: theta[0] + rng.normal(0.0, 1.0, size),
        theta=theta, probes=[[-0.7], [0.0], [0.8], [1.3]],
        lambda1=1.0, lipschitz=1.0, c_g=1.0)

    sigma_diag = np.array([2.0, 4.0])
    theta_g = np.array([0.5, -0.3])
    root = np.sqrt(sigma_diag)
    fx["gaussian"] = VerifyFixture(
        gain_eval=gains_mod.gaussian_known_cov_spec(np.diag(sigma_diag)).evaluator,
        sampler=lambda rng, size: theta_g + rng.normal(size=(size, 2)) * root,
        theta=theta_g,
        probes=[[1.0, -0.3], [0.5, 0.4], [0.0, 0.0], [1.2, -1.1]],
        lambda1=0.25, lipschitz=0.5, c_g=0.75)  # c_g = tr(Sigma^{-1})

    theta_q = np.array([0.5])
    fx["quantile"] = VerifyFixture(
        gain_eval=gains_mod.quantile_spec(0.5).evaluator,
        sampler=lambda rng, size: rng.uniform(0.0, 1.0, size),
        theta=theta_q, probes=[[0.2], [0.35], [0.65], [0.8]],
        lambda1=1.0, lipschitz=1.0, c_g=0.25)

    # ARCH(1): pinned X_{k-1} = 1, truncation 1 -> mean gain -(v - theta)
    theta_a = 0.5
    x_pin = 1.0

    def arch_sampler(rng, size):
        eps = rng.normal(size=size)
        x_k = math.sqrt(1.0 + theta_a * x_pin * x_pin) * eps
        return np.column_stack([x_k, np.full(size, x_pin)])

    fx["arch1_truncated"] = VerifyFixture(
        gain_eval=gains_mod.arch1_spec(trunc=1.0).evaluator,
        sampler=arch_sampler, theta=np.array([theta_a]),
        probes=[[0.0], [0.2], [0.8], [1.0]],
        lambda1=1.0, lipschitz=1.0, c_g=5.0)

    # truncated AR(1): pinned X_{k-1} = 1.5, T = 1.5 -> mean gain -1.5 (v-theta)
    theta_r = 0.5
    xr_pin = 1.5

    def ar1_sampler(rng, size):
        x_k = theta_r * xr_pin + rng.normal(size=size)
        return np.column_stack([x_k, np.full(size, xr_pin)])

    fx["ar1_truncated"] = VerifyFixture(
        gain_eval=gains_mod.ar1_truncated_spec(trunc=1.5).evaluator,
        sampler=ar1_sampler, theta=np.array([theta_r]),
        probes=[[-0.2], [0.1], [0.7], [0.9]],
        lambda1=1.5, lipschitz=1.5, c_g=1.0)

    theta_m = np.array([0.5, 0.2])
    lags = np.array([1.0, 0.5])
    ortho = np.array([-0.5, 1.0]) / np.linalg.norm([-0.5, 1.0])

    def moulines_sampler(rng, size):
        x_k = float(theta_m @ lags) + rng.normal(size=size)
        return np.column_stack([x_k, np.tile(lags, (size, 1))])

    def moulines_eval(est, rows):
        rows = np.atleast_2d(rows)
        return gains_mod.ar_normalized_vector_gain(
            est, rows[..., 0], rows[..., 1:], mu=1.0)

    fx["moulines_d2"] = VerifyFixture(
        gain_eval=moulines_eval, sampler=moulines_sampler, theta=theta_m,
        probes=[list(theta_m + 0.4 * ortho), list(theta_m - 0.3 * ortho)],
        lambda1=0.2, lipschitz=None, c_g=None, expect_pass=False)
    return fx


@dataclass(frozen=True)
class VerifyReport:
    fixture_results: list  # (name, expected_pass, observed_pass, probe rows)
    passed: bool           # every fixture behaved as expected
    rows: list


def run_condition_verify(config: ExperimentConfig) -> VerifyReport:
    v = _values(config.raw)
    registry = builtin_fixtures()
    n_samples = v["verify.samples"]
    rng = models_mod.make_rng(config.seed)
    rows = []
    results = []
    for name in _or(v["verify.fixtures"], tuple(registry)):
        if name not in registry:
            raise ConfigError(f"unknown verify fixture {name!r}")
        fixture = registry[name]
        expect_pass = fixture.expect_pass \
            and name not in v["verify.required_failures"]
        report = bounds_mod.verify_A1_empirical(
            fixture.gain_eval, fixture.sampler, fixture.theta,
            fixture.probes, n_samples, rng,
            lambda1=fixture.lambda1, lipschitz=fixture.lipschitz)
        probe_rows = []
        for res in report.probes:
            a2 = bounds_mod.verify_A2_empirical(
                fixture.gain_eval, fixture.sampler, res.probe, n_samples,
                rng, c_g=fixture.c_g)
            probe_rows.append((len(rows) + len(probe_rows), res.r_hat,
                               res.r_se, res.g_norm_ratio, a2.second_moment,
                               res.passed and a2.passed))
        observed_pass = all(row[-1] for row in probe_rows)
        results.append((name, expect_pass, observed_pass, probe_rows))
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
    kconf = kalman_mod.KalmanConfig(
        m0=v["kalman.m0"], var0=v["kalman.var0"],
        var_noise=v["kalman.var_noise"], deltas=v["kalman.deltas"])
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
    """One trajectory; returns (header, rows, passed)."""
    raw = config.raw
    n = config.horizons[-1]
    tracking, model, gain, _path = build_components(raw, n)
    run = run_tracking(tracking, model, gain, config.seed)
    d = tracking.dimension
    header = (["k"] + [f"estimate_{i}" for i in range(d)]
              + [f"target_{i}" for i in range(d)] + ["error_l2", "gamma"])
    rows = []
    for k in range(n + 1):
        gamma = run.steps[k - 1] if k >= 1 else 0.0
        rows.append((k, *run.estimates[k], *run.targets[k],
                     float(np.linalg.norm(run.errors[k])), gamma))
    return header, rows, True


# =====================================================================
# CLI
# =====================================================================

def _print(config: ExperimentConfig, message: str) -> None:
    if not config.quiet:
        print(message)


def _cmd_rates(config: ExperimentConfig) -> int:
    report = run_rate_sweep(config)
    text = emit_csv(RATE_HEADER, report.rows, config.out)
    if config.out is None and config.quiet:
        sys.stdout.write(text)
    theo = "n/a" if report.theoretical_slope is None \
        else f"{report.theoretical_slope:+.4f}"
    _print(config, f"slope {report.slope:+.4f} (+-{report.half_width:.4f}), "
                   f"theoretical {theo}, "
                   f"{'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_bound_check(config: ExperimentConfig) -> int:
    table = run_bound_check(config)
    emit_csv(BOUND_HEADER, table.rows, config.out)
    _print(config, f"bound dominance at {len(table.ks)} checkpoints: "
                   f"{'PASS' if table.passed else 'FAIL'}")
    return 0 if table.passed else 1


def _cmd_verify(config: ExperimentConfig) -> int:
    report = run_condition_verify(config)
    emit_csv(VERIFY_HEADER, report.rows, config.out)
    for name, expected, observed, _rows in report.fixture_results:
        verdict = "PASS" if observed == expected else "FAIL"
        _print(config, f"{name}: observed "
                       f"{'pass' if observed else 'fail'}, expected "
                       f"{'pass' if expected else 'fail'} -> {verdict}")
    return 0 if report.passed else 1


def _cmd_kalman(config: ExperimentConfig) -> int:
    result = run_kalman_compare(config)
    emit_csv(KALMAN_HEADER, result.rows, config.out)
    _print(config, f"max |kalman - tracker| = {result.max_abs_diff:.3e}, "
                   f"max |kalman - running mean| = {result.max_mean_diff:.3e}"
                   f" -> {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def _cmd_run(config: ExperimentConfig) -> int:
    header, rows, passed = run_single(config)
    text = emit_csv(header, rows, config.out)
    if config.out is None:
        sys.stdout.write(text)
    return 0 if passed else 1


_COMMANDS = {
    "run": _cmd_run,
    "rates": _cmd_rates,
    "bound-check": _cmd_bound_check,
    "verify": _cmd_verify,
    "kalman-compare": _cmd_kalman,
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
        overrides = {"seed": args.seed, "out": args.out,
                     "replications": args.replications, "quiet": args.quiet}
        config = experiment_config(args.command, raw, overrides)
        return _COMMANDS[args.command](config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrackingDiverged as exc:
        print(f"diverged at {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
