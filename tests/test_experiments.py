"""Experiment harness: config parsing, CSV, rate fitting, CLI."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drifttrack import experiments as ex
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
        with pytest.raises(ValueError):
            fit_rate([(10, 1.0), (100, 0.0), (1000, 1.0)])


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


_DIVERGING = ("schedule.kind = constant\nschedule.gamma = 3\n"
              "schedule.lambda2_guard = 0.1\nexperiment.horizons = 100,200\n")


class TestDivergence:
    @pytest.mark.parametrize("command, horizon",
                             [("rates", 100), ("bound-check", 200)])
    def test_exit_one_names_where(self, tmp_path, capsys, command, horizon):
        path = tmp_path / "diverge.cfg"
        path.write_text(_DIVERGING, encoding="utf-8")
        assert main([command, "--config", str(path), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("diverged")
        assert f"step 20: horizon {horizon}, replication 0" in err


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
