"""Scalar Kalman recursion and its equivalence with the generic tracker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drifttrack import gains
from drifttrack.core import replay_updates
from drifttrack.kalman import KalmanConfig, kalman_filter_run, kalman_gain_sequence
from drifttrack.models import NoiseSpec, SignalNoiseModel, make_parameter_path, make_rng


class TestGainSequence:
    def test_static_state_harmonic_gains(self):
        # var0 = var_noise, delta = 0: gamma_k = 1/(k+1)
        cfg = KalmanConfig(m0=0.0, var0=1.0, var_noise=1.0)
        got = kalman_gain_sequence(cfg, 6)
        want = 1.0 / np.arange(2, 8)
        assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_huge_innovation_trusts_newest(self):
        cfg = KalmanConfig(m0=0.0, var0=1.0, var_noise=1.0, deltas=[1e3])
        got = kalman_gain_sequence(cfg, 5)
        assert np.all(got > 1.0 - 1e-5)
        assert np.all(got < 1.0)

    def test_initial_ratio(self):
        cfg = KalmanConfig(m0=0.0, var0=3.0, var_noise=2.0)
        gamma0 = 1.5
        drift = 0.0
        want1 = gamma0 / (gamma0 + 1.0)
        assert kalman_gain_sequence(cfg, 1)[0] == want1

    def test_delta_sequence_extends_with_last_value(self):
        cfg = KalmanConfig(m0=0.0, var0=1.0, var_noise=1.0, deltas=[0.0, 0.5])
        long = kalman_gain_sequence(cfg, 10)
        explicit = KalmanConfig(m0=0.0, var0=1.0, var_noise=1.0,
                                deltas=[0.0] + [0.5] * 9)
        assert np.array_equal(long, kalman_gain_sequence(explicit, 10))

    def test_rejects_bad_variances(self):
        with pytest.raises(ValueError):
            KalmanConfig(m0=0.0, var0=0.0, var_noise=1.0)
        with pytest.raises(ValueError):
            KalmanConfig(m0=0.0, var0=1.0, var_noise=-1.0)
        with pytest.raises(ValueError):
            KalmanConfig(m0=0.0, var0=1.0, var_noise=1.0, deltas=[-0.1])


class TestFilterRun:
    def test_single_observation_half_gain(self):
        cfg = KalmanConfig(m0=0.0, var0=1.0, var_noise=1.0)
        estimates, mse = kalman_filter_run(cfg, [4.0])
        assert estimates[0] == 0.0
        assert estimates[1] == 2.0
        assert mse[0] == 0.5

    def test_running_mean_identity(self):
        # var0 = var_noise, static state: the prior mean acts as a 0th
        # observation and the estimate is the running mean of all of them
        rng = make_rng(11)
        obs = rng.standard_normal(10_000) + 0.7
        cfg = KalmanConfig(m0=0.2, var0=1.0, var_noise=1.0)
        estimates, _ = kalman_filter_run(cfg, obs)
        pooled = np.concatenate([[0.2], obs])
        means = np.cumsum(pooled) / np.arange(1, pooled.size + 1)
        assert np.max(np.abs(estimates - means)) < 1e-12

    def test_mse_is_noise_times_gain(self):
        cfg = KalmanConfig(m0=0.0, var0=2.0, var_noise=3.0, deltas=[0.4])
        _, mse = kalman_filter_run(cfg, np.ones(20))
        assert np.array_equal(mse, 3.0 * kalman_gain_sequence(cfg, 20))

    def test_tracker_equivalence(self):
        # feed the Kalman gains to the generic recursion as its step
        # sequence: both recursions are the same arithmetic
        n = 10_000
        cfg = KalmanConfig(m0=0.0, var0=1.0, var_noise=1.0)
        path = make_parameter_path("static", value=[0.5])
        model = SignalNoiseModel(path=path, noise=NoiseSpec("normal", 1.0))
        obs = model.simulate(n, make_rng(42)).observations
        estimates, _ = kalman_filter_run(cfg, obs[:, 0])

        tracked = replay_updates(np.zeros(1), obs,
                                 kalman_gain_sequence(cfg, n),
                                 gains.signal_noise_spec(1))
        assert np.max(np.abs(tracked[:, 0] - estimates)) < 1e-12


@given(var0=st.floats(min_value=1e-3, max_value=1e3),
       var_noise=st.floats(min_value=1e-3, max_value=1e3),
       delta=st.floats(min_value=0.0, max_value=1e3),
       n=st.integers(min_value=1, max_value=50))
@settings(max_examples=60, deadline=None)
def test_gains_stay_in_unit_interval(var0, var_noise, delta, n):
    cfg = KalmanConfig(m0=0.0, var0=var0, var_noise=var_noise,
                       deltas=[delta])
    seq = kalman_gain_sequence(cfg, n)
    assert np.all(seq > 0.0)
    assert np.all(seq < 1.0)


@given(seed=st.integers(min_value=0, max_value=2**32), m0=st.floats(-3, 3))
@settings(max_examples=25, deadline=None)
def test_estimate_is_convex_combination(seed, m0):
    rng = make_rng(seed)
    obs = rng.uniform(-1.0, 1.0, 30)
    cfg = KalmanConfig(m0=m0, var0=1.0, var_noise=1.0, deltas=[0.3])
    estimates, _ = kalman_filter_run(cfg, obs)
    lo = min(float(obs.min()), m0)
    hi = max(float(obs.max()), m0)
    assert np.all(estimates >= lo - 1e-12)
    assert np.all(estimates <= hi + 1e-12)
