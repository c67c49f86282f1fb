"""Experiment harness: config parsing, CSV, rate fitting, CLI."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drifttrack import core, experiments as ex, models
from drifttrack.experiments import (
    ConfigError,
    ExperimentConfig,
    build_components,
    emit_csv,
    experiment_config,
    fit_rate,
    format_csv,
    main,
    parse_config_text,
    run_kalman_compare,
    run_rate_sweep,
    theoretical_slope_for,
)
from drifttrack.models import make_rng


class TestConfigParsing:
    def test_basic_lines(self):
        text = """
        # a comment
        model.kind = signal_noise
        schedule.c_gamma = 2.0   # trailing comment
        experiment.horizons = 100, 200
        """
        raw = parse_config_text(text)
        assert raw["model.kind"] == "signal_noise"
        assert raw["schedule.c_gamma"] == "2.0"
        assert raw["experiment.horizons"] == "100, 200"

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\nbroken line\n")

    def test_bad_number(self):
        raw = {"experiment.horizons": "10,abc"}
        with pytest.raises(ConfigError):
            experiment_config("rates", raw)

    def test_horizons_must_increase(self):
        raw = {"experiment.horizons": "100,100"}
        with pytest.raises(ConfigError):
            experiment_config("rates", raw)

    def test_replications_floor(self):
        with pytest.raises(ConfigError):
            experiment_config("rates", {"experiment.replications": "0"})

    def test_burn_in_range(self):
        with pytest.raises(ConfigError):
            experiment_config("rates", {"experiment.burn_in_fraction": "1.0"})

    def test_overrides_win(self):
        raw = {"experiment.seed": "7", "experiment.replications": "3"}
        cfg = experiment_config("rates", raw,
                                {"seed": 11, "replications": 5})
        assert cfg.seed == 11 and cfg.replications == 5

    def test_defaults(self):
        cfg = experiment_config("rates", {})
        assert cfg.horizons == (1000,)
        assert cfg.burn_in_fraction == 0.5
        assert cfg.p == 2.0


class TestBuildComponents:
    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            build_components({"model.kind": "mystery"}, 10)

    def test_unknown_gain(self):
        with pytest.raises(ConfigError):
            build_components({"gain.kind": "mystery"}, 10)

    def test_unknown_schedule(self):
        with pytest.raises(ConfigError):
            build_components({"schedule.kind": "mystery"}, 10)
        with pytest.raises(ConfigError, match="schedule.kind"):
            theoretical_slope_for({"schedule.kind": "mystery"})

    def test_unknown_path(self):
        with pytest.raises(ConfigError):
            build_components({"path.kind": "mystery"}, 10)

    def test_signal_noise_defaults(self):
        config, model, gain, path = build_components({}, 50)
        assert config.dimension == 1
        assert config.horizon == 50


class TestCsv:
    def test_float_round_trip(self):
        vals = [0.1, 1.0 / 3.0, 1e-300, math.pi]
        text = format_csv(["v"], [[v] for v in vals])
        body = text.splitlines()[1:]
        assert [float(tok) for tok in body] == vals

    def test_bools_and_ints(self):
        text = format_csv(["a", "b", "c"], [[True, False, 7]])
        assert text == "a,b,c\n1,0,7\n"

    def test_header_only(self):
        assert format_csv(["x", "y"], []) == "x,y\n"

    def test_lf_endings_on_disk(self, tmp_path):
        out = tmp_path / "t.csv"
        emit_csv(["a"], [[1.5]], str(out))
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8") == "a\n1.5\n"


class TestFitRate:
    def test_sqrt_rate_exact(self):
        pairs = [(n, n ** -0.5) for n in (10**3, 10**4, 10**5)]
        slope, half = fit_rate(pairs)
        assert math.isclose(slope, -0.5, abs_tol=1e-9)
        assert half == 0.0

    def test_log_corrected_rate_exact(self):
        # the design carries a log log n column, so n^{-1/3} (log n)^{2/3}
        # is fit exactly and the log n coefficient is -1/3
        pairs = [(n, n ** (-1.0 / 3.0) * math.log(n) ** (2.0 / 3.0))
                 for n in (10**3, 10**4, 10**5)]
        slope, half = fit_rate(pairs)
        assert math.isclose(slope, -1.0 / 3.0, abs_tol=1e-9)
        assert half == 0.0

    def test_log_corrected_rate_many_points(self):
        pairs = [(n, n ** (-1.0 / 3.0) * math.log(n) ** (2.0 / 3.0))
                 for n in (10**3, 10**4, 10**5, 10**6)]
        slope, half = fit_rate(pairs)
        assert math.isclose(slope, -1.0 / 3.0, abs_tol=1e-6)
        assert half < 1e-6

    def test_constant_is_flat(self):
        slope, _ = fit_rate([(n, 2.5) for n in (10**3, 10**4, 10**5)])
        assert abs(slope) < 1e-9

    def test_noisy_fit_has_width(self):
        rng = np.random.default_rng(0)
        pairs = [(n, n ** -0.5 * math.exp(0.05 * rng.standard_normal()))
                 for n in (10**2, 10**3, 10**4, 10**5, 10**6)]
        slope, half = fit_rate(pairs)
        assert half > 0.0
        assert abs(slope + 0.5) < 3.0 * half + 0.05

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError, match="at horizon 100;"):
            fit_rate([(10, 1.0), (100, 0.0), (1000, 1.0)])

    def test_two_points_leave_slope_undetermined(self):
        _slope, half = fit_rate([(n, n ** -0.5) for n in (10**3, 10**4)])
        assert half == math.inf


class TestTheoreticalSlope:
    def test_builtin_kinds(self):
        assert theoretical_slope_for({"schedule.kind": "static"}) == -0.5
        assert theoretical_slope_for({"schedule.kind": "stabilizing",
                                      "schedule.beta": "0.75"}) == -0.25
        assert theoretical_slope_for({"schedule.kind": "lipschitz",
                                      "schedule.beta": "1.0"}) \
            == pytest.approx(-1.0 / 3.0)
        assert theoretical_slope_for({"schedule.kind": "constant"}) is None

    def test_override(self):
        raw = {"schedule.kind": "static",
               "experiment.theoretical_slope": "-0.4"}
        assert theoretical_slope_for(raw) == -0.4

    def test_fast_stabilizing_drift_has_the_static_slope(self):
        # from beta = 3/2 on the schedule runs the static term, so the
        # verdict is against the static slope, not -beta/3
        for beta in ("1.5", "2", "3"):
            assert theoretical_slope_for({"schedule.kind": "stabilizing",
                                          "schedule.beta": beta}) == -0.5


_SWEEP_RAW = {
    "model.kind": "signal_noise",
    "path.value": "0.3",
    "schedule.kind": "static",
    "schedule.c_gamma": "4.0",
    "experiment.horizons": "200,400,800",
    "experiment.replications": "20",
    "experiment.seed": "5",
    "experiment.tolerance": "0.25",
}


class TestRateSweep:
    def test_static_rate_recovered(self):
        report = run_rate_sweep(experiment_config("rates", _SWEEP_RAW))
        assert report.statistic == "window"
        assert abs(report.slope + 0.5) <= 0.25
        assert report.passed
        # window means shrink with the horizon
        assert report.mean_l2[0] > report.mean_l2[-1]
        assert len(report.rows) == 60

    def test_unknown_statistic(self):
        raw = dict(_SWEEP_RAW, **{"experiment.statistic": "median"})
        with pytest.raises(ConfigError):
            run_rate_sweep(experiment_config("rates", raw))

    def test_final_statistic_differs(self):
        raw = dict(_SWEEP_RAW, **{"experiment.statistic": "final"})
        final = run_rate_sweep(experiment_config("rates", raw))
        window = run_rate_sweep(experiment_config("rates", _SWEEP_RAW))
        assert final.mean_l2 == final.final_mean_l2
        assert window.final_mean_l2 == final.final_mean_l2
        assert window.mean_l2 != window.final_mean_l2

    def test_csv_rows_byte_identical_across_runs(self):
        cfg = experiment_config("rates", _SWEEP_RAW)
        a = format_csv(ex.RATE_HEADER, run_rate_sweep(cfg).rows)
        b = format_csv(ex.RATE_HEADER, run_rate_sweep(cfg).rows)
        assert a == b

    def test_seed_changes_rows(self):
        base = run_rate_sweep(experiment_config("rates", _SWEEP_RAW))
        other = run_rate_sweep(experiment_config("rates", _SWEEP_RAW,
                                                 {"seed": 6}))
        assert base.rows != other.rows


# =====================================================================
# Block reductions against the per-replication ones they replace
# =====================================================================

def _norms_one(err, p):
    """One replication's final-slot l1, l2 and lp norms, as rates
    computed them replication by replication."""
    ae = np.abs(err)
    l1 = float(np.sum(ae))
    l2 = float(np.sqrt(np.sum(ae * ae)))
    lp = float(np.max(ae)) if p == math.inf \
        else float(np.sum(ae ** p) ** (1.0 / p))
    return l1, l2, lp


def _window_l2_one(errors, k0):
    """One replication's per-step l2 norm averaged over slots k0..n."""
    window = errors[k0:]
    return float(np.mean(np.sqrt(np.sum(window * window, axis=1))))


def _spread_errors(seed, shape):
    """Errors over 200 decades, of both signs, with +0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    errors = rng.uniform(-10.0, 10.0, shape) \
        * 10.0 ** rng.integers(-100, 101, shape)
    zeros = rng.random(shape) < 0.1
    errors[zeros] = np.copysign(0.0, rng.standard_normal(shape))[zeros]
    return errors


@given(seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 5),
       d=st.integers(1, 9), n=st.integers(1, 2500),
       p=st.sampled_from([1.0, 2.0, 2.5, math.inf]),
       at_end=st.booleans(), spare_width=st.integers(0, 2),
       cuts=st.lists(st.integers(1, 2500), max_size=4))
@settings(max_examples=300, deadline=None)
def test_block_reductions_match_per_replication_bitwise(
        seed, blocks, d, n, p, at_end, spare_width, cuts):
    # d up to 9 crosses the 8-way unrolling of numpy's pairwise sum, n up
    # to 2500 its 128-element blocks and WindowMeans' 1,024-slot leaves,
    # and cuts split the slots into windows anywhere
    errors = _spread_errors(seed, (blocks, n + 1, d))
    k0 = n if at_end else 1
    want_norms = np.array([_norms_one(e[-1], p) for e in errors])
    want_windows = np.array([_window_l2_one(e, k0) for e in errors])
    # the errors as run_rate_sweep hands them: written over the estimates,
    # (B, m, d) views of a time-major stack up to spare_width wider
    stack = np.empty((n + 1, blocks, d + spare_width))
    stack[:, :, :d] = errors.transpose(1, 0, 2)
    errors = stack[:, :, :d].transpose(1, 0, 2)
    got_norms = ex._norms(errors[:, -1], p)
    assert got_norms.tobytes() == want_norms.tobytes()
    means = core.WindowMeans(blocks, k0, n)
    edges = [0, *sorted({c for c in cuts if c <= n}), n + 1]
    for lo, hi in zip(edges, edges[1:]):
        means.add(errors[:, lo:hi], lo)
    got_windows = means.means()
    assert got_windows.tobytes() == want_windows.tobytes()


_BLOCKS_RAW = {
    "path.kind": "stabilizing",
    "schedule.kind": "stabilizing",
    "experiment.horizons": "100,200,400",
    "experiment.replications": "7",
    "experiment.seed": "9",
}


@pytest.mark.parametrize("command", ["rates", "bound-check"])
def test_three_blocks_give_one_blocks_output(monkeypatch, command):
    # 7 replications at n = 400 in blocks of 3, 3 and 1, against one
    # block of all 7; the stabilizing walk draws each replication's
    # targets at random
    sweep = ex.run_rate_sweep if command == "rates" else ex.run_bound_check
    config = experiment_config(command, _BLOCKS_RAW)
    whole = sweep(config)
    # three replications of one stack at n = 400, d = w = 1
    monkeypatch.setattr(core, "BLOCK_BYTES", 3 * (400 + 1) * 8)
    calls = []
    track = core.track

    def counting_track(initial, *args, **kwargs):
        calls.append(initial.shape[0])
        return track(initial, *args, **kwargs)

    monkeypatch.setattr(core, "track", counting_track)
    split = sweep(config)
    assert calls[-3:] == [3, 3, 1]
    assert split == whole
    header = ex.RATE_HEADER if command == "rates" else ex.BOUND_HEADER
    assert format_csv(header, split.rows) == format_csv(header, whole.rows)


def _traced_peak(monkeypatch, command, raw, budget):
    """tracemalloc's peak over a sweep of 100 replications at horizons 2
    and 10,000 in blocks of budget bytes."""
    monkeypatch.setattr(core, "BLOCK_BYTES", budget)
    sweep = ex.run_rate_sweep if command == "rates" else ex.run_bound_check
    # a small sweep first, so what numpy imports lazily (np.unique loads
    # numpy.ma) is not traced as the sweep's
    sweep(experiment_config(command, {**raw, "experiment.horizons": "2,10",
                                      "experiment.replications": "2"}))
    config = experiment_config(command, {**raw,
                                         "experiment.horizons": "2,10000",
                                         "experiment.replications": "100"})
    tracemalloc.start()
    try:
        sweep(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["rates", "bound-check"])
def test_static_sweep_holds_one_block_of_one_stack(monkeypatch, command):
    # the same sweep on a static path: the seeds share one read-only
    # targets table, so a block of 50 is the observation stack alone
    n, size = 10000, 50
    stack = size * (n + 1) * 8
    peak = _traced_peak(monkeypatch, command, {}, stack)
    assert peak <= 1.5 * stack


_STABILIZING = {"path.kind": "stabilizing", "schedule.kind": "stabilizing"}


def _uniform_walk(path, rng):
    """A walk's window of uniform draws, without the walk's Python loop,
    which tracemalloc slows 25- to 50-fold."""
    def step(m, out=None):
        out = np.empty((m + 1, path.dim)) if out is None else out
        out[...] = rng.uniform(-0.5, 0.5, out.shape)
        return out
    return step


@pytest.mark.parametrize("command, raw", [
    ("rates", {}),
    ("rates", {"path.kind": "lipschitz", "schedule.kind": "lipschitz"}),
    ("rates", {"gain.kind": "quantile"}),
    ("rates", _STABILIZING),
    ("bound-check", {}),
    ("bound-check", _STABILIZING),
], ids=["static-rates", "lipschitz-rates", "quantile-rates",
        "stabilizing-rates", "static-bound-check", "stabilizing-bound-check"])
def test_streamed_sweep_peak_is_flat_in_the_horizon(monkeypatch, command,
                                                    raw):
    # every run streams through time, so from n = 1e4 to 4e4 the traced
    # peak of a sweep of 50 replications grows only by the few values per
    # step that do not depend on the replication count: the schedule, a
    # grid table, bound-check's sums per slot.  Four float64 values a
    # step is the bound; the one block of the horizon that 50
    # replications would take grows by 50
    monkeypatch.setattr(models.ParameterPath, "walk", _uniform_walk)
    sweep = ex.run_rate_sweep if command == "rates" else ex.run_bound_check
    sweep(experiment_config(command, {**raw, "experiment.horizons": "2,10",
                                      "experiment.replications": "2"}))
    peaks = []
    for n in (10_000, 40_000):
        config = experiment_config(command, {
            **raw, "experiment.horizons": f"2,{n}",
            "experiment.replications": "50"})
        tracemalloc.start()
        try:
            sweep(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 4 * 8 * 30_000


@pytest.mark.parametrize("fraction, n, k0", [
    (0.5, 1001, 501), (0.5, 1000, 500), (0.0, 50, 1)])
def test_bound_check_burn_in_rounds_up(fraction, n, k0):
    # the checked window starts at the first step k0 >= fraction * n (and
    # k0 >= 1), the rule rates uses; the first checkpoint is slot k0 + 1
    raw = {"experiment.horizons": str(n),
           "experiment.burn_in_fraction": str(fraction)}
    table = ex.run_bound_check(
        experiment_config("bound-check", raw, {"replications": 2}))
    assert table.ks[0] == k0 + 1
    assert table.ks[-1] == n


def test_poisson_bound_check_measures_c_theta():
    # a Poisson model reads its targets from its own grid path, whose
    # c_theta is the max ||theta_k||^2 over them (the cell means reach
    # lambda(t)^2 = 16), and bound-check takes that c_theta
    raw = {"model.kind": "poisson", "gain.kind": "poisson",
           "model.intensity": "sine", "model.intensity.a": "3",
           "model.intensity.b": "1", "bounds.c_g": "4",
           "experiment.horizons": "400"}
    _, model, _, path = build_components(raw, 400)
    assert path is model.path and path.kind == "grid"
    targets = model.simulate(400, make_rng(0)).targets
    measured = float(np.max(np.sum(targets ** 2, axis=1)))
    assert 15.9 < measured <= 16.0
    assert model.path.c_theta == measured
    overrides = {"replications": 20}
    table = ex.run_bound_check(experiment_config("bound-check", raw,
                                                 overrides))
    pinned = ex.run_bound_check(experiment_config(
        "bound-check", {**raw, "bounds.c_theta": repr(measured)}, overrides))
    assert table.bound_rhs == pinned.bound_rhs


def _lipschitz_grid_reference(func, n, dim):
    """The lazily cached Lipschitz grid the grid table replaced."""
    out = np.empty((n + 1, dim))
    for k in range(n + 1):
        out[k] = func(k / n)
    return out


def _cell_means_reference(intensity, n):
    """The per-model Poisson cell means the grid table replaced; slot n
    is intensity(1.0), not n times an integral."""
    def cell_mean(k):
        lo = min(k / n, 1.0)
        hi = min((k + 1) / n, 1.0)
        if hi <= lo:  # past the end of the unit interval
            return intensity(1.0)
        return n * models.adaptive_simpson(intensity, lo, hi, tol=1e-10)

    return np.array([cell_mean(k) for k in range(n + 1)]).reshape(-1, 1)


@given(n=st.integers(1, 300), d=st.integers(1, 3),
       function=st.sampled_from(["sine", "linear"]),
       amp=st.floats(-1.0, 1.0, allow_subnormal=False))
@settings(max_examples=60, deadline=None)
def test_lipschitz_table_matches_cached_grid(n, d, function, amp):
    raw = {"path.kind": "lipschitz", "path.function": function,
           "path.amplitude": repr(amp), "model.d": str(d),
           "path.c_theta": str(d)}  # amp in [-1, 1]: each square <= 1
    _, model, _, path = build_components(raw, n)
    want = _lipschitz_grid_reference(ex._PATH_FUNCTIONS[function](amp), n, d)
    assert path.table.tobytes() == want.tobytes()
    assert model.simulate(n, make_rng(0)).targets.tobytes() == want.tobytes()


@given(n=st.integers(1, 200), kind=st.sampled_from(["constant", "linear",
                                                    "sine"]),
       a=st.floats(0.0, 5.0), frac=st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_poisson_table_matches_cell_means(n, kind, a, frac):
    b = frac * a  # a + b * sin or a + b * t stays nonnegative
    raw = {"model.kind": "poisson", "gain.kind": "poisson",
           "model.intensity": kind, "model.intensity.a": repr(a),
           "model.intensity.b": repr(b)}
    _, model, _, path = build_components(raw, n)
    want = _cell_means_reference(ex._INTENSITIES[kind](a, b), n)
    assert path.table.tobytes() == want.tobytes()
    assert model.simulate(n, make_rng(0)).targets.tobytes() == want.tobytes()
    # the bound-check's c_theta, as the per-replication maximum measured it
    assert path.c_theta == float(np.max(np.sum(want ** 2, axis=1)))


class TestKalmanCompare:
    def test_static_case_passes(self):
        raw = {"kalman.n": "2000", "kalman.theta": "0.4"}
        result = run_kalman_compare(experiment_config("kalman-compare", raw))
        assert result.passed
        assert result.max_abs_diff <= 1e-12
        assert result.max_mean_diff <= 1e-12

    def test_drifting_case_tracker_still_matches(self):
        raw = {"kalman.n": "500", "kalman.deltas": "0.2",
               "kalman.var0": "2.0"}
        result = run_kalman_compare(experiment_config("kalman-compare", raw))
        assert result.max_abs_diff <= 1e-12
        assert result.passed


_SUBCOMMANDS = ("run", "rates", "bound-check", "verify", "kalman-compare")
# each choice key: a mistyped value, and the subcommands that rejected it
# already when choice keys were checked only where a component was built
# (TestBuildComponents and TestRateSweep cover those)
_TYPOS = {
    "path.kind": ("statik", ("run", "rates")),
    "path.function": ("sin", ()),
    "model.kind": ("signal_nois", ("run", "rates")),
    "model.intensity": ("constnt", ()),
    "gain.kind": ("quantil", ("run", "rates")),
    "experiment.statistic": ("windw", ("rates",)),
    "schedule.kind": ("statc", ("run", "rates")),
    "model.noise.kind": ("gauss", ("run", "rates")),
}


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_rates_exit_zero(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "\n".join(
            f"{k} = {v}" for k, v in _SWEEP_RAW.items()))
        out = tmp_path / "rates.csv"
        code = main(["rates", "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS" in captured.out
        assert out.read_text().startswith("horizon,replication,")

    def test_rates_exit_one_on_wrong_slope(self, tmp_path, capsys):
        raw = dict(_SWEEP_RAW, **{"experiment.theoretical_slope": "-2.0",
                                  "experiment.tolerance": "0.01"})
        cfg = self._write(tmp_path, "\n".join(
            f"{k} = {v}" for k, v in raw.items()))
        code = main(["rates", "--config", cfg, "--quiet"])
        capsys.readouterr()
        assert code == 1

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "not a key value line\n")
        code = main(["rates", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err

    def test_missing_file_exit_two(self, capsys):
        code = main(["rates", "--config", "/nonexistent/x.cfg"])
        capsys.readouterr()
        assert code == 2

    # runs that finish with nothing to report are config errors, found
    # after the runs so that a diverging config still exits 1: a mean
    # error of exactly 0 has no log to fit, and a step past 1/lambda2
    # has no bound
    @pytest.mark.parametrize("command, text, message", [
        ("rates", "model.noise.kind = zero\npath.value = 0.3\n"
         "experiment.horizons = 300,1500,2500\n",
         "experiment.horizons: mean error 0.0 at horizon 300; "),
        ("bound-check", "bounds.lambda2 = 100\nexperiment.horizons = 50\n",
         "step precondition gamma*lambda2 <= 1 violated at window index 0"),
    ], ids=["rates-zero-error", "bound-check-step-too-large"])
    def test_run_with_nothing_to_report_exits_two(self, tmp_path, capsys,
                                                  command, text, message):
        cfg = self._write(tmp_path, text)
        code = main([command, "--config", cfg, "--replications", "2",
                     "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: " + message)
        assert err.count("\n") == 1

    def test_kalman_compare_cli(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "kalman.n = 300\n")
        code = main(["kalman-compare", "--config", cfg,
                     "--out", str(tmp_path / "k.csv")])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS" in captured.out

    def test_run_emits_csv(self, tmp_path, capsys):
        cfg = self._write(tmp_path,
                          "experiment.horizons = 50\n"
                          "schedule.kind = static\nschedule.c_gamma = 2\n")
        code = main(["run", "--config", cfg, "--seed", "3"])
        captured = capsys.readouterr()
        assert code == 0
        header = captured.out.splitlines()[0]
        assert header.startswith("k,estimate_0,target_0")

    @pytest.mark.parametrize("command", ["rates", "bound-check", "verify",
                                         "kalman-compare"])
    def test_quiet_without_out_prints_the_csv(self, tmp_path, capsys,
                                              command):
        # --quiet drops the summary line; with no --out the CSV is then
        # the whole of stdout, as run prints it
        raw = {**_SWEEP_RAW, "verify.samples": "10000",
               "verify.fixtures": "quantile", "kalman.n": "300"}
        cfg = self._write(tmp_path, "\n".join(
            f"{k} = {v}" for k, v in raw.items()))
        config = experiment_config(command, raw)
        header, rows = {
            "rates": lambda: (ex.RATE_HEADER, run_rate_sweep(config).rows),
            "bound-check": lambda: (ex.BOUND_HEADER,
                                    ex.run_bound_check(config).rows),
            "verify": lambda: (ex.VERIFY_HEADER,
                               ex.run_condition_verify(config).rows),
            "kalman-compare": lambda: (ex.KALMAN_HEADER,
                                       run_kalman_compare(config).rows),
        }[command]()
        main([command, "--config", cfg, "--quiet"])
        captured = capsys.readouterr()
        assert captured.out == format_csv(header, rows)

    @pytest.mark.parametrize("command", _SUBCOMMANDS)
    def test_summary_is_built_from_the_report(self, tmp_path, capsys,
                                              command):
        # with --out, stdout is the summary alone, one line per verdict
        raw = {**_SWEEP_RAW, "verify.samples": "10000",
               "verify.fixtures": "quantile,moulines_d2", "kalman.n": "300"}
        cfg = self._write(tmp_path, "\n".join(
            f"{k} = {v}" for k, v in raw.items()))
        config = experiment_config(command, raw)

        def verdict(passed):
            return "PASS" if passed else "FAIL"

        def rates():
            r = run_rate_sweep(config)
            return r.passed, [f"slope {r.slope:+.4f} (+-{r.half_width:.4f}),"
                              f" theoretical {r.theoretical_slope:+.4f}, "
                              f"{verdict(r.passed)}"]

        def bound_check():
            t = ex.run_bound_check(config)
            return t.passed, [f"bound dominance at {len(t.ks)} checkpoints: "
                              f"{verdict(t.passed)}"]

        def verify():
            r = ex.run_condition_verify(config)
            word = {True: "pass", False: "fail"}
            return r.passed, [f"{name}: observed {word[seen]}, expected "
                              f"{word[want]} -> {verdict(seen == want)}"
                              for name, want, seen, _ in r.fixture_results]

        def kalman():
            r = run_kalman_compare(config)
            return r.passed, [f"max |kalman - tracker| = {r.max_abs_diff:.3e}"
                              ", max |kalman - running mean| = "
                              f"{r.max_mean_diff:.3e} -> {verdict(r.passed)}"]

        passed, lines = {"run": lambda: (True, []), "rates": rates,
                         "bound-check": bound_check, "verify": verify,
                         "kalman-compare": kalman}[command]()
        code = main([command, "--config", cfg, "--out",
                     str(tmp_path / "out.csv")])
        assert capsys.readouterr().out == "".join(f"{x}\n" for x in lines)
        assert code == (0 if passed else 1)
        if command == "verify":  # one fixture passes, one fails, as expected
            assert lines[0].endswith("observed pass, expected pass -> PASS")
            assert lines[1].endswith("observed fail, expected fail -> PASS")

    def test_out_files_byte_identical(self, tmp_path, capsys):
        cfg = self._write(tmp_path, "\n".join(
            f"{k} = {v}" for k, v in _SWEEP_RAW.items()))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["rates", "--config", cfg, "--out", str(a), "--quiet"])
        main(["rates", "--config", cfg, "--out", str(b), "--quiet"])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


@given(vals=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                               width=64), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_csv_float_round_trip_property(vals):
    text = format_csv(["v"], [[v] for v in vals])
    parsed = [float(line) for line in text.splitlines()[1:]]
    assert all(a == b or (math.isnan(a) and math.isnan(b))
               for a, b in zip(parsed, vals))
    assert len(parsed) == len(vals)


class TestStrictKeys:
    def test_seed_parses_exactly(self):
        # through a float this seed rounds to 2**64, i.e. Philox key 0
        seed = 18446744073709551557
        cfg = experiment_config("rates", {"experiment.seed": str(seed)})
        assert cfg.seed == seed

    def test_fractional_count_rejected(self):
        with pytest.raises(ConfigError, match="experiment.replications"):
            experiment_config("rates", {"experiment.replications": "2.9"})

    def test_zero_replications_override_rejected(self, capsys):
        with pytest.raises(ConfigError):
            experiment_config("rates", {}, {"replications": 0})
        assert main(["rates", "--replications", "0", "--quiet"]) == 2
        capsys.readouterr()

    def test_unknown_key_named(self, tmp_path, capsys):
        raw = {"schedule.kind": "stabilizing", "schedule.betta": "0.75"}
        with pytest.raises(ConfigError, match="schedule.betta"):
            theoretical_slope_for(raw)
        path = tmp_path / "typo.cfg"
        path.write_text("schedule.betta = 0.75\n", encoding="utf-8")
        assert main(["kalman-compare", "--config", str(path)]) == 2
        assert "schedule.betta" in capsys.readouterr().err

    # keys that only copied a number into a gain's declared constants;
    # bounds.lambda1, bounds.c_g and schedule.c_gamma set those values
    @pytest.mark.parametrize("key, kinds", [
        ("gain.intensity_bound", "model.kind = poisson\ngain.kind = poisson"),
        ("gain.lambda1", "model.kind = arch1\ngain.kind = arch1"),
        ("gain.c_g", "model.kind = ar1\ngain.kind = ar1_truncated"),
    ], ids=["gain.intensity_bound", "gain.lambda1", "gain.c_g"])
    def test_removed_gain_constant_key_exits_two(self, tmp_path, capsys,
                                                 key, kinds):
        path = tmp_path / "removed.cfg"
        path.write_text(f"{kinds}\n{key} = 2\nexperiment.horizons = 50\n",
                        encoding="utf-8")
        assert main(["run", "--config", str(path), "--quiet"]) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err


class TestRanges:
    # an out-of-range value is a config error naming the key, not a
    # traceback, and bounds.lambda* = 0 no longer falls back silently
    @pytest.mark.parametrize("key, value, command", [
        ("experiment.horizons", "0", "rates"),
        ("experiment.p", "0", "rates"),
        ("model.d", "0", "rates"),
        ("schedule.cap", "0", "rates"),
        ("bounds.checkpoints", "0", "bound-check"),
        ("bounds.lambda1", "0", "bound-check"),
        ("bounds.lambda2", "-1", "bound-check"),
        ("verify.samples", "100", "verify"),
        ("kalman.n", "0", "kalman-compare"),
        ("kalman.var0", "-1", "kalman-compare"),
        ("kalman.var_noise", "0", "kalman-compare"),
        ("schedule.c_gamma", "0", "rates"),
        ("schedule.gamma", "0", "rates"),
        ("schedule.beta", "0", "rates"),
        ("path.c_rho", "0", "rates"),
        ("path.beta", "-1", "rates"),
        ("model.noise.scale", "-1", "rates"),
        ("experiment.replications", "1", "bound-check"),
        ("experiment.burn_in_fraction", "0.99", "bound-check"),
        ("model.noise.kind", "cauchy", "rates"),
        ("tracking.initial", "0,0", "rates"),
        ("kalman.deltas", "-1", "kalman-compare"),
        ("experiment.horizons", "1,10,100", "rates"),
        ("schedule.lambda2_guard", "-1", "rates"),
        ("bounds.c_theta", "-5", "bound-check"),
        # a mistyped choice value is rejected when the file is parsed,
        # under every subcommand, whether it reads the key or not
        *[(key, value, command)
          for key, (value, before) in _TYPOS.items()
          for command in _SUBCOMMANDS if command not in before],
    ])
    def test_exit_two_names_key(self, tmp_path, capsys, key, value, command):
        raw = {"experiment.horizons": "50", key: value}
        path = tmp_path / "range.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()),
                        encoding="utf-8")
        assert main([command, "--config", str(path), "--quiet"]) == 2
        assert key in capsys.readouterr().err

    # a value a component constructor rejects for the kind another key
    # picks is a config error naming it too
    @pytest.mark.parametrize("key, value, others", [
        ("schedule.beta", "1.5", {"schedule.kind": "lipschitz",
                                  "path.kind": "lipschitz"}),
        ("path.beta", "0", {"schedule.kind": "lipschitz",
                            "path.kind": "lipschitz"}),
        ("model.x0", "2", {"model.kind": "arch1", "gain.kind": "arch1"}),
        ("gain.sigma_diag", "-1", {"gain.kind": "gaussian"}),
        ("gain.alpha", "1.5", {"gain.kind": "quantile"}),
        ("gain.trunc", "-1", {"model.kind": "arch1", "gain.kind": "arch1"}),
        ("gain.mu", "-1", {"model.kind": "ar1", "gain.kind": "ar1_normalized"}),
        ("path.start", "5", {"path.kind": "stabilizing"}),
        # the model rejects these, so the message names the model section
        ("model.kind", "ar1", {"gain.kind": "ar1_normalized",
                               "path.value": "1.2"}),
        ("model.rho", "1.5", {"model.kind": "ar1",
                              "gain.kind": "ar1_normalized"}),
        ("model.sigma", "-1", {"model.kind": "ar1",
                               "gain.kind": "ar1_normalized"}),
        # a list or a component whose dimension is not model.d
        ("path.value", "0.3,0.2", {}),
        ("path.start", "0.1,0.2", {"path.kind": "stabilizing"}),
        ("gain.sigma_diag", "1,2,3", {"model.d": "2", "gain.kind": "gaussian"}),
        ("model.kind", "ar1", {"model.d": "2", "gain.kind": "ar1_normalized"}),
        # a table or value checked against c_theta when it is built
        ("path.value", "2", {"path.c_theta": "1"}),
        ("path.amplitude", "2", {"path.kind": "lipschitz",
                                 "path.c_theta": "1"}),
        ("model.intensity.b", "-2", {"model.kind": "poisson",
                                     "gain.kind": "poisson",
                                     "model.intensity": "linear",
                                     "model.intensity.a": "1"}),
        # a Poisson model reads its own grid, so any path.* key is one
        # that does nothing, valid or not
        ("path.kind", "stabilizing", {"model.kind": "poisson",
                                      "gain.kind": "poisson"}),
        ("path.value", "0.5", {"model.kind": "poisson",
                               "gain.kind": "poisson"}),
        ("path.amplitude", "3", {"model.kind": "poisson",
                                 "gain.kind": "poisson",
                                 "path.kind": "lipschitz",
                                 "path.c_theta": "1"}),
        # each check fails on NaN too
        ("path.c_theta", "-1", {"path.kind": "stabilizing"}),
        ("path.c_theta", "nan", {"path.kind": "stabilizing"}),
        ("model.sigma", "nan", {"model.kind": "ar1",
                                "gain.kind": "ar1_normalized"}),
        # bound-check reads bounds.*, and checks them before its runs
        ("bounds.c_g", "-1", {"experiment.replications": "2"}),
        ("bounds.lambda1", "2", {"experiment.replications": "2",
                                 "bounds.lambda2": "1"}),
        # a noise scale whose square overflows
        ("model.noise.scale", "1e200", {}),
        ("model.noise.scale", "inf", {"model.noise.kind": "uniform"}),
        # the quantile gain's density bounds, 0 no longer read as unset
        ("gain.density_cap", "-1", {"gain.kind": "quantile"}),
        ("gain.density_floor", "-1", {"gain.kind": "quantile"}),
        ("gain.density_floor", "0", {"gain.kind": "quantile"}),
        # a variance that is not finite
        ("gain.sigma_diag", "inf,1", {"model.d": "2", "gain.kind": "gaussian"}),
    ])
    def test_component_rejection_exits_two(self, tmp_path, capsys, key,
                                           value, others):
        raw = {"experiment.horizons": "50", **others, key: value}
        path = tmp_path / "range.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()),
                        encoding="utf-8")
        command = "bound-check" if key.startswith("bounds.") else "rates"
        assert main([command, "--config", str(path), "--quiet"]) == 2
        assert key in capsys.readouterr().err


_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.linalg"])
def test_import_leaves_scipy_unloaded(module):
    # building the verify fixtures builds the Gaussian gain too
    proc = _python("-c", "import sys, drifttrack.experiments as ex; "
                         "ex.builtin_fixtures(); "
                         f"print({module!r} in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# (subcommand, shipped config or None, extra lines, exit code, CSV rows)
_NO_SCIPY_LINALG = {
    "quantile": ("rates", "quantile_rate.cfg", "", "0", 2 * 200),
    "ar1": ("rates", None, "model.kind = ar1\ngain.kind = ar1_truncated\n"
                           "path.value = 0.5\nexperiment.replications = 5\n",
            "1", 2 * 5),
    # AR(2) solves its unit upper-triangular system by back-substitution
    "ard": ("rates", None, "model.kind = ard\nmodel.d = 2\n"
                           "gain.kind = ard_score\npath.value = 0.3,0.2\n"
                           "experiment.replications = 5\n", "0", 2 * 5),
    # the Gaussian gain scales by its diagonal in numpy
    "gaussian": ("run", None, "model.d = 2\ngain.kind = gaussian\n"
                              "gain.sigma_diag = 2,4\n", "0", 10_001),
    "verify": ("verify", None, "", "0", 22),
}


@pytest.mark.parametrize("case", list(_NO_SCIPY_LINALG))
def test_quantile_rates_leave_scipy_linalg_unloaded(tmp_path, case):
    command, shipped, extra, code, rows = _NO_SCIPY_LINALG[case]
    text = ""
    if shipped:
        with open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "configs", shipped), encoding="utf-8") as fh:
            text = fh.read()
    config = tmp_path / "rates.cfg"  # the later horizons line wins
    config.write_text(text + extra + "experiment.horizons = 1000,10000\n",
                      encoding="utf-8")
    out = tmp_path / "rates.csv"
    proc = _python("-c", "import sys; from drifttrack.experiments import main; "
                         "code = main(sys.argv[1:]); "
                         "print(code, 'scipy.linalg' in sys.modules)",
                   command, "--config", str(config), "--out", str(out),
                   "--quiet")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == [code, "False"]
    assert out.read_text(encoding="utf-8").count("\n") == 1 + rows


def test_cli_prints_no_runtime_warning(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment.horizons = 20\n", encoding="utf-8")
    proc = _python("-W", "default", "-m", "drifttrack.experiments", "run",
                   "--config", str(path), "--out", str(tmp_path / "r.csv"))
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_ar_model_on_a_sine_path_exits_by_its_verdict(tmp_path):
    # sin(pi) puts a ~4e-17 entry in the coefficients: the stability
    # check must take it like any other value
    path = tmp_path / "sine.cfg"
    path.write_text("model.kind = ard\nmodel.d = 2\ngain.kind = ard_score\n"
                    "path.kind = lipschitz\npath.function = sine\n"
                    "path.amplitude = 0.3\nexperiment.horizons = 2,4\n",
                    encoding="utf-8")
    proc = _python("-m", "drifttrack.experiments", "rates", "--config",
                   str(path), "--replications", "5", "--out",
                   str(tmp_path / "r.csv"), "--quiet")
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr


_DIVERGING = ("schedule.kind = constant\nschedule.gamma = 3\n"
              "schedule.lambda2_guard = 0.1\nexperiment.horizons = 100,200\n")


class TestDivergence:
    @pytest.mark.parametrize("command, horizon",
                             [("rates", 100), ("bound-check", 200),
                              ("run", 200)])
    def test_exit_one_names_where(self, tmp_path, capsys, command, horizon):
        path = tmp_path / "diverge.cfg"
        path.write_text(_DIVERGING, encoding="utf-8")
        # bound-check needs two replications; replication 0 keeps its seed
        assert main([command, "--config", str(path), "--replications", "2",
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("diverged")
        assert f"step 20: horizon {horizon}, replication 0" in err

    @pytest.mark.parametrize("command, horizon",
                             [("rates", 100), ("bound-check", 5000),
                              ("run", 5000)])
    def test_stderr_is_the_one_line(self, tmp_path, command, horizon):
        # the CI divergence gate's config; the steps the window runs past
        # the divergence warn nothing, even with every warning shown
        config = os.path.join(os.path.dirname(__file__), os.pardir,
                              ".github", "divergence-configs",
                              "constant_gamma3.cfg")
        proc = _python("-W", "default", "-m", "drifttrack.experiments",
                       command, "--config", config, "--out",
                       str(tmp_path / "out.csv"), "--quiet")
        assert proc.returncode == 1
        assert proc.stderr == \
            f"diverged at step 20: horizon {horizon}, replication 0\n"


def test_readme_lists_every_config_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Config keys", 1)[1].split("\n## ", 1)[0]
    listed = set()
    for line in section.splitlines():
        if line.startswith("- `"):
            listed.add(line[3:].split("`", 1)[0])
    assert listed == set(ex.CONFIG_KEYS)
