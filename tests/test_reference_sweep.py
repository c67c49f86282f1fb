"""run_rate_sweep and run_bound_check against the plain reference sweeps
of reference_sweep.py, over drawn configs of every component kind."""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st

from drifttrack import core, experiments as ex
from drifttrack.experiments import experiment_config, format_csv
from reference_sweep import reference_bound_check, reference_rates

# model.kind -> the gain kinds that read its rows
_MODEL_GAINS = {
    "signal_noise": ("signal_noise", "quantile", "gaussian"),
    "arch1": ("arch1",),
    "poisson": ("poisson",),
    "ar1": ("ar1_truncated", "ar1_normalized", "ard_score"),
    "ard": ("ard_score",),
}
# model.kind -> the path kinds drawn for it, and the largest |theta| entry
# that keeps its simulator valid (arch1 needs theta >= 0, AR a stable
# polynomial; arch1 takes the linear function, since a sine path goes
# negative on its second half)
_MODEL_PATHS = {
    "signal_noise": (("static", "stabilizing", "lipschitz"), 0.7),
    "arch1": (("static", "lipschitz"), 0.9),
    "ar1": (("static", "stabilizing", "lipschitz"), 0.3),
    "ard": (("static", "stabilizing", "lipschitz"), 0.3),
}


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


@st.composite
def _path_keys(draw, model, d):
    kinds, top = _MODEL_PATHS[model]
    low = 0.0 if model == "arch1" else -top
    kind = draw(st.sampled_from(kinds))
    keys = {"path.kind": kind}
    if kind == "static":
        keys["path.value"] = ",".join(draw(_floats(low, top))
                                      for _ in range(d))
    elif kind == "stabilizing":
        keys["path.c_theta"] = repr(top * top)
        keys["path.c_rho"] = draw(st.sampled_from(["0.05", "0.5", "2"]))
        keys["path.beta"] = draw(st.sampled_from(["0", "0.5", "1", "1.4"]))
        if draw(st.booleans()):  # near the boundary: reflect and trap
            keys["path.start"] = ",".join(
                draw(_floats(-top, top)) for _ in range(d)) if d == 1 \
                else ",".join(["0.0"] * d)
    else:
        keys["path.function"] = "linear" if model == "arch1" \
            else draw(st.sampled_from(["sine", "linear"]))
        keys["path.amplitude"] = draw(_floats(low, top))
    return keys


@st.composite
def sweep_configs(draw):
    model = draw(st.sampled_from(sorted(_MODEL_GAINS)))
    gain = draw(st.sampled_from(_MODEL_GAINS[model]))
    d = draw(st.integers(1, 2)) if model == "ard" or gain == "gaussian" else 1
    raw = {"model.kind": model, "gain.kind": gain, "model.d": str(d),
           "bounds.lambda1": "0.5", "bounds.lambda2": "1.0",
           "bounds.c_g": "4.0"}
    if model == "poisson":
        kind = draw(st.sampled_from(["constant", "linear", "sine"]))
        a = draw(st.floats(0.5, 3.0))
        raw.update({"model.intensity": kind, "model.intensity.a": repr(a),
                    "model.intensity.b": repr(a * draw(st.floats(-1, 1)))})
    else:
        raw.update(draw(_path_keys(model, d)))
    if model == "signal_noise":
        raw["model.noise.kind"] = draw(st.sampled_from(
            ["normal", "uniform", "zero"]))
    if gain == "quantile":
        raw["gain.alpha"] = draw(st.sampled_from(["0.3", "0.5"]))
    schedule = draw(st.sampled_from(
        ["constant", "lipschitz", "stabilizing", "static"]))
    raw["schedule.kind"] = schedule
    if schedule == "constant":  # 2.5 overshoots: signal_noise diverges
        raw["schedule.gamma"] = draw(st.sampled_from(["0.05", "0.5", "2.5"]))
        raw["schedule.lambda2_guard"] = "0.25"  # caps gamma at 4, not 1
    elif schedule != "static":
        raw["schedule.beta"] = draw(st.sampled_from(["0.5", "1.0"]))
    horizons = sorted(draw(st.sets(st.integers(2, 40), min_size=2,
                                   max_size=3)))
    raw.update({
        "experiment.horizons": ",".join(map(str, horizons)),
        "experiment.replications": str(draw(st.integers(2, 5))),
        "experiment.seed": str(draw(st.integers(0, 2**64 - 1))),
        "experiment.burn_in_fraction": draw(st.sampled_from(
            ["0", "0.25", "0.5"])),
        "experiment.p": draw(st.sampled_from(["1", "2", "2.5", "inf"])),
        "experiment.statistic": draw(st.sampled_from(["window", "final"])),
    })
    return raw


def _outcome(sweep, header, config):
    """The sweep's CSV text and verdict, or where it diverged."""
    try:
        report = sweep(config)
    except core.TrackingDiverged as exc:
        return ("diverged", exc.horizon, exc.replication, exc.step)
    except ValueError as exc:  # a fit over zero errors
        return ("error", str(exc))
    return ("ok", format_csv(header, report.rows), report.passed)


def _reference(reference, config):
    try:
        return reference(config)
    except ValueError as exc:
        return ("error", str(exc))


def test_cases_cover_every_component_kind():
    assert set(_MODEL_GAINS) == set(ex._MODELS)
    assert {g for gains in _MODEL_GAINS.values() for g in gains} \
        == set(ex._GAINS)
    assert {p for kinds, _ in _MODEL_PATHS.values() for p in kinds} \
        == set(ex._PATHS)


def _check_sweeps(raw):
    for command, sweep, header, reference in [
            ("rates", ex.run_rate_sweep, ex.RATE_HEADER, reference_rates),
            ("bound-check", ex.run_bound_check, ex.BOUND_HEADER,
             reference_bound_check)]:
        config = experiment_config(command, raw)
        assert _outcome(sweep, header, config) \
            == _reference(reference, config), command


@given(raw=sweep_configs(), slots=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_sweeps_match_the_reference(raw, slots):
    # a budget of slots values per step at the last horizon: blocks of
    # one replication up to all of them, as the stacks' width allows
    n = int(raw["experiment.horizons"].split(",")[-1])
    with mock.patch.object(core, "BLOCK_BYTES", slots * (n + 1) * 8):
        _check_sweeps(raw)


@given(raw=sweep_configs(), window=st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_streamed_sweeps_match_the_reference(raw, window):
    # targets that draw nothing stream through the horizon in windows of
    # 1 to 16 steps, so a run crosses up to 40 of them
    with mock.patch.object(core, "WINDOW", window):
        _check_sweeps(raw)


def test_reference_sees_a_divergence():
    # gamma = 2.5 on the signal-noise gain multiplies the error by -1.5
    # a step: every replication leaves the guard region near step 35
    raw = {"schedule.kind": "constant", "schedule.gamma": "2.5",
           "schedule.lambda2_guard": "0.25",
           "experiment.horizons": "20,60", "experiment.replications": "3"}
    config = experiment_config("rates", raw)
    got = _outcome(ex.run_rate_sweep, ex.RATE_HEADER, config)
    assert got[:3] == ("diverged", 60, 0)
    assert got == reference_rates(config)
    assert math.isfinite(got[3])
