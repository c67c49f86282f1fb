"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line.  The Monte-Carlo criteria run at a
fixed seed with 200 replications; determinism of the harness makes them
exactly reproducible.
"""

import math
import time

import numpy as np
import pytest

from drifttrack import experiments as ex
from drifttrack import gains, linalg
from drifttrack.experiments import experiment_config, main
from drifttrack.models import make_rng
from paper_checks import (abel_transform_check, ard_log_density,
                          ard_quadratic_matrix, kl_gaussians, lemma_eig_check,
                          lemma_truncated_moment_check, stability_inner_radius)
from reference_roots import reference_spectral_radius

SEED = 20260823
REPS = 200
HORIZONS = "1000,10000,100000"


def _report(num: int, label: str, ok: bool) -> None:
    print(f"[acceptance] criterion {num:>2} ({label}): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def _random_region_point(rng, d, rho=0.9):
    """Draw inside the L2 ball guaranteed to sit in the coefficient
    stability region."""
    inner = stability_inner_radius(rho, d)
    v = rng.normal(size=d)
    v /= np.linalg.norm(v) + 1e-300
    return v * inner * rng.uniform(0.0, 1.0) ** (1.0 / d)


def _ar_conditional(theta, y, sigma):
    a_inv = np.linalg.inv(linalg.ar_matrix_a(theta))
    return a_inv @ linalg.ar_matrix_b(theta) @ y, sigma ** 2 * a_inv @ a_inv.T


def test_criterion_1_quadratic_form_matches_gaussian_kl():
    rng = np.random.default_rng(SEED)
    start = time.monotonic()
    ok = True
    for _ in range(500):
        d = int(rng.integers(1, 5))
        theta = _random_region_point(rng, d)
        cand = _random_region_point(rng, d)
        y = rng.uniform(-10.0, 10.0, d)
        y *= min(1.0, 10.0 / (np.linalg.norm(y) + 1e-12))
        sigma = rng.uniform(0.5, 2.0)
        delta = cand - theta
        m = ard_quadratic_matrix(theta, y, sigma)
        quad = 0.5 * float(delta @ m @ delta)
        kl = kl_gaussians(*_ar_conditional(theta, y, sigma),
                          *_ar_conditional(cand, y, sigma))
        ok = ok and abs(quad - kl) <= 1e-8 * (1.0 + abs(kl))
    elapsed = time.monotonic() - start
    _report(1, "quadratic form = Gaussian KL", ok and elapsed < 5.0)


def test_criterion_2_score_gain_matches_finite_differences():
    rng = np.random.default_rng(SEED + 1)
    start = time.monotonic()
    ok = True
    h = 1e-6
    for _ in range(100):
        d = int(rng.integers(1, 5))
        theta = _random_region_point(rng, d)
        x = rng.normal(size=d)
        y = rng.normal(size=d)
        sigma = rng.uniform(0.5, 2.0)
        got = gains.gain_ard_score(theta, x, y, sigma)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd = (ard_log_density(theta + e, x, y, sigma)
                  - ard_log_density(theta - e, x, y, sigma)) / (2 * h)
            ok = ok and abs(got[i] - fd) <= 1e-6 * (1.0 + abs(fd))
    elapsed = time.monotonic() - start
    _report(2, "score gain = log-density gradient", ok and elapsed < 5.0)


def test_criterion_3_matrix_lemmas_exact():
    rng = np.random.default_rng(SEED + 2)
    start = time.monotonic()
    ok = True
    # contraction eigenvalue identities on random SPD matrices
    for _ in range(100):
        d = int(rng.integers(1, 6))
        a = rng.normal(size=(d, d))
        m = a @ a.T + 0.1 * np.eye(d)
        gamma = rng.uniform(0.0, 1.0) / np.linalg.eigvalsh(m)[-1]
        report = lemma_eig_check(m, gamma, tol=1e-10)
        ok = ok and report.ok
    # summation by parts on random matrix/vector sequences
    for _ in range(100):
        d = int(rng.integers(1, 5))
        length = int(rng.integers(2, 12))
        bs = [rng.uniform(-1, 1, (d, d)) for _ in range(length)]
        avs = [rng.uniform(-1, 1, d) for _ in range(length)]
        k0 = int(rng.integers(0, length - 1))
        ok = ok and abel_transform_check(bs, avs, k0=k0) < 1e-12
    # companion spectral radius vs the reference root finder's
    for _ in range(100):
        d = int(rng.integers(1, 6))
        theta = _random_region_point(rng, d)
        if not np.any(theta):
            continue
        _, radius = linalg.ar_stability_check(theta, 0.9)
        ok = ok and math.isclose(radius, reference_spectral_radius(theta),
                                 rel_tol=1e-8, abs_tol=1e-10)
    elapsed = time.monotonic() - start
    _report(3, "matrix lemma suite", ok and elapsed < 5.0)


def test_criterion_4_truncated_second_moment_floor():
    rng = make_rng(SEED + 3)
    start = time.monotonic()
    ok = True
    for theta in (0.0, 0.3, 0.9):
        for x_prev in (0.0, 1.0, 5.0):
            report = lemma_truncated_moment_check(
                theta, x_prev, sigma=1.0, c4=3.0, trunc=1.5,
                n_samples=100_000, rng=rng)
            ok = ok and report.threshold == 0.5 and report.passed
    elapsed = time.monotonic() - start
    _report(4, "clipped second-moment floor", ok and elapsed < 10.0)


def _sweep(raw, tolerance="0.1"):
    raw = dict(raw)
    raw.setdefault("experiment.horizons", HORIZONS)
    raw.setdefault("experiment.tolerance", tolerance)
    cfg = experiment_config("rates", raw,
                            {"seed": SEED, "replications": REPS})
    return ex.run_rate_sweep(cfg)


def test_criterion_5_static_rate():
    report = _sweep({
        "model.kind": "signal_noise",
        "gain.kind": "signal_noise",
        "schedule.kind": "static",
    }, tolerance="0.08")
    scaled = [math.sqrt(n) / math.log(n) * m
              for n, m in zip(report.horizons, report.final_mean_l2)]
    flat = max(scaled) / min(scaled) < 2.0
    _report(5, f"static rate (slope {report.slope:+.3f})",
            report.passed and flat)


def test_criterion_6_stabilizing_rate():
    ok = True
    slopes = []
    for beta in ("0.75", "1.0"):
        report = _sweep({
            "model.kind": "signal_noise", "gain.kind": "signal_noise",
            "path.kind": "stabilizing", "path.beta": beta,
            "schedule.kind": "stabilizing", "schedule.beta": beta,
        })
        ok = ok and report.passed
        slopes.append(report.slope)
    _report(6, f"stabilizing rate (slopes {slopes[0]:+.3f}, "
               f"{slopes[1]:+.3f})", ok)


def test_criterion_7_lipschitz_rate():
    report = _sweep({
        "model.kind": "signal_noise", "gain.kind": "signal_noise",
        "path.kind": "lipschitz", "path.function": "sine",
        "path.amplitude": "0.5", "path.beta": "1.0",
        "schedule.kind": "lipschitz", "schedule.beta": "1.0",
    })
    _report(7, f"time-varying rate (slope {report.slope:+.3f})",
            report.passed)


def test_criterion_8_first_moment_bound_dominates():
    regimes = {
        "static": {
            "model.kind": "signal_noise", "gain.kind": "signal_noise",
            "schedule.kind": "static",
        },
        "stabilizing_075": {
            "model.kind": "signal_noise", "gain.kind": "signal_noise",
            "path.kind": "stabilizing", "path.beta": "0.75",
            "schedule.kind": "stabilizing", "schedule.beta": "0.75",
        },
        "stabilizing_100": {
            "model.kind": "signal_noise", "gain.kind": "signal_noise",
            "path.kind": "stabilizing", "path.beta": "1.0",
            "schedule.kind": "stabilizing", "schedule.beta": "1.0",
        },
        "lipschitz": {
            "model.kind": "signal_noise", "gain.kind": "signal_noise",
            "path.kind": "lipschitz", "path.function": "sine",
            "path.amplitude": "0.5", "path.beta": "1.0",
            "schedule.kind": "lipschitz", "schedule.beta": "1.0",
        },
    }
    ok = True
    for name, raw in regimes.items():
        cfg = experiment_config("bound-check", raw,
                                {"seed": SEED, "replications": REPS})
        table = ex.run_bound_check(cfg, n=10_000)
        ok = ok and table.passed
    _report(8, "first-moment bound dominance", ok)


# Negative controls: mis-specified runs that the checks of criteria 5, 6,
# 7, 8 and 11 must reject, at 5 replications.  Each misses by a wide margin, so
# a sweep or a reduction that went wrong and passed everything would
# fail here.
_CONTROLS = {
    # gamma = 0.01 is stationary after some 100 steps: a flat error
    # (slope about -0.01 at this seed) against the static -0.5
    "constant-step": ("rates", """
schedule.kind = constant
schedule.gamma = 0.01
experiment.theoretical_slope = -0.5
experiment.tolerance = 0.08
"""),
    # the static schedule cannot follow a walk whose budget decays as
    # k^-0.25: the error grows (slope about +0.5 at this seed)
    "slow-walk": ("rates", """
path.kind = stabilizing
path.beta = 0.25
path.c_rho = 0.3
schedule.kind = static
experiment.tolerance = 0.08
"""),
    # with c_g = 0 the bound loses its noise term; what is left, a
    # transient that decays in sum gamma and a zero oscillation on a
    # static target, falls below the error
    "zero-c_g": ("bound-check", """
schedule.kind = static
bounds.c_g = 0
"""),
    # criterion 7's sine path under a constant step: the error does not
    # fall at the -1/3 rate (slope about +1.57 at this seed)
    "sine-constant-step": ("rates", """
path.kind = lipschitz
path.function = sine
path.amplitude = 0.5
path.beta = 1.0
schedule.kind = constant
schedule.gamma = 0.01
experiment.theoretical_slope = -0.3333333333333333
experiment.tolerance = 0.1
"""),
    # criterion 11's median tracker under a constant step of 0.1: the
    # error is stationary within some 10 steps, so flat (slope about
    # -0.02 at this seed) against -0.5
    "quantile-constant-step": ("rates", """
model.noise.kind = uniform
model.noise.scale = 0.5
path.value = 0.5
tracking.initial = 0.5
gain.kind = quantile
gain.alpha = 0.5
gain.density_floor = 1.0
gain.density_cap = 1.0
schedule.kind = constant
schedule.gamma = 0.1
experiment.theoretical_slope = -0.5
experiment.tolerance = 0.1
"""),
}


@pytest.mark.parametrize("name", sorted(_CONTROLS))
def test_negative_controls_fail(tmp_path, capsys, name):
    command, text = _CONTROLS[name]
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(f"{text}experiment.horizons = {HORIZONS}\n",
                   encoding="utf-8")
    assert main([command, "--config", str(cfg), "--seed", str(SEED),
                 "--replications", "5"]) == 1
    assert capsys.readouterr().out.rstrip().endswith("FAIL")


def test_criterion_9_kalman_equivalence():
    raw = {"kalman.n": "10000", "kalman.theta": "0.4",
           "kalman.tolerance": "1e-12"}
    result = ex.run_kalman_compare(
        experiment_config("kalman-compare", raw, {"seed": SEED}))
    _report(9, "Kalman filter equivalence",
            result.passed and result.max_abs_diff <= 1e-12
            and result.max_mean_diff <= 1e-12)


def test_criterion_10_condition_verifier_fixtures():
    report = ex.run_condition_verify(
        experiment_config("verify", {}, {"seed": SEED}))
    results = {name: (expect, observed)
               for name, expect, observed, _ in report.fixture_results}
    must_pass = ("signal_noise", "gaussian", "quantile", "arch1_truncated",
                 "ar1_truncated")
    ok = report.passed
    ok = ok and all(results[n] == (True, True) for n in must_pass)
    ok = ok and results["moulines_d2"] == (False, False)
    _report(10, "condition probes incl. required failure", ok)


def test_criterion_11_quantile_rate():
    report = _sweep({
        "model.kind": "signal_noise", "model.noise.kind": "uniform",
        "model.noise.scale": "0.5",
        "path.kind": "static", "path.value": "0.5",
        "tracking.initial": "0.5",
        "gain.kind": "quantile", "gain.alpha": "0.5",
        "gain.density_floor": "1.0", "gain.density_cap": "1.0",
        "schedule.kind": "static",
    })
    _report(11, f"median tracking rate (slope {report.slope:+.3f})",
            report.passed)


def test_criterion_12_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model.kind = signal_noise\n"
        "gain.kind = signal_noise\n"
        "schedule.kind = static\n"
        "path.value = 0.3\n"
        "experiment.horizons = 500,1000\n"
        "experiment.replications = 25\n"
        "experiment.seed = 99\n",
        encoding="utf-8")
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(["rates", "--config", str(cfg), "--out", str(out),
                     "--quiet"])
        assert code == 0
        outs.append(out.read_bytes())
    kout = []
    for name in ("ka.csv", "kb.csv"):
        out = tmp_path / name
        code = main(["kalman-compare", "--config", str(cfg),
                     "--out", str(out), "--seed", "7", "--quiet"])
        assert code == 0
        kout.append(out.read_bytes())
    _report(12, "byte-identical CSV re-runs",
            outs[0] == outs[1] and kout[0] == kout[1] and len(outs[0]) > 0)
