"""Simulators and parameter paths: exact identities and MC sanity checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drifttrack import linalg, models
from drifttrack.core import WINDOW
from drifttrack.models import (
    Arch1Model,
    ArdBatchModel,
    NoiseSpec,
    PoissonCountModel,
    SignalNoiseModel,
    adaptive_simpson,
    make_parameter_path,
    make_rng,
    poisson_targets,
)
from float_words import same_bits
from predictable_models import CondGaussianModel, PredictableSignalNoise


def _grid_path(func, n, dim=1, **params):
    """A grid path holding func on the grid k/n of horizon n."""
    table = np.empty((n + 1, dim))
    for k in range(n + 1):
        table[k] = func(k / n)
    return make_parameter_path("grid", table=table, **params)


class TestNoiseSpec:
    def test_variances(self):
        assert NoiseSpec("normal", 2.0).variance == 4.0
        assert math.isclose(NoiseSpec("uniform", 3.0).variance, 3.0)
        assert NoiseSpec("zero").variance == 0.0

    def test_draw_moments(self):
        rng = make_rng(0)
        for kind in ("normal", "uniform"):
            spec = NoiseSpec(kind, 1.5)
            x = spec.draw(rng, 200_000)
            se = spec.variance / math.sqrt(x.size)
            assert abs(float(np.mean(x))) <= 4.0 * math.sqrt(spec.variance / x.size)
            assert abs(float(np.var(x)) - spec.variance) <= 6.0 * se

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec("cauchy")


class TestMakeRng:
    def test_deterministic(self):
        a = make_rng(123).standard_normal(8)
        b = make_rng(123).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_seeds_distinct_streams(self):
        a = make_rng(1).standard_normal(8)
        b = make_rng(2).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_large_seed_wraps(self):
        a = make_rng(2 ** 64 + 5).standard_normal(4)
        b = make_rng(5).standard_normal(4)
        assert np.array_equal(a, b)


class TestStaticPath:
    def test_constant(self):
        path = make_parameter_path("static", value=[1.0, 2.0], c_theta=6.0)
        out = path.sample(10, make_rng(0))
        assert out.shape == (11, 2)
        assert np.all(out == [1.0, 2.0])

    def test_compactness_enforced(self):
        # checked once, when the path is built, not in every sample
        with pytest.raises(ValueError, match="compact set"):
            make_parameter_path("static", value=[2.0], c_theta=1.0)


class TestStabilizingPath:
    def test_increment_budget(self):
        path = make_parameter_path("stabilizing", dim=3, c_rho=1.0, beta=1.0)
        out = path.sample(500, make_rng(4))
        for i in range(1, 500):
            inc = float(np.linalg.norm(out[i + 1] - out[i]))
            assert inc <= 1.0 / i + 1e-12

    def test_compactness(self):
        for seed in range(5):
            path = make_parameter_path("stabilizing", dim=2, c_rho=2.0,
                                       beta=0.6, c_theta=1.0)
            out = path.sample(2000, make_rng(seed))
            assert float(np.max(np.sum(out * out, axis=1))) <= 1.0 + 1e-9

    def test_scalar_matches_general_shape(self):
        path = make_parameter_path("stabilizing", dim=1, c_rho=1.0, beta=1.0)
        out = path.sample(100, make_rng(1))
        assert out.shape == (101, 1)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            make_parameter_path("stabilizing", c_rho=0.0)
        with pytest.raises(ValueError):
            make_parameter_path("stabilizing", beta=-0.5)


def _lipschitz_path(n):
    """The path build_components makes for path.kind = lipschitz at its
    defaults: sin(2 pi t)/2 on the grid k/n."""
    from drifttrack.experiments import build_components

    return build_components({"path.kind": "lipschitz"}, n)[3]


class TestLipschitzPath:
    def test_grid_evaluation(self):
        out = _lipschitz_path(100).sample(100, make_rng(0))
        assert abs(out[50, 0]) < 1e-12  # sin(pi)/2 = 0
        assert math.isclose(out[25, 0], 0.5)

    def test_holder_increments_on_grid(self):
        n = 1000
        out = _lipschitz_path(n).sample(n, make_rng(0))[:, 0]
        lip = math.pi  # |d/dt sin(2 pi t)/2| <= pi
        assert np.max(np.abs(np.diff(out))) <= lip / n + 1e-12

    def test_beta_domain(self):
        from drifttrack.experiments import ConfigError, build_components

        with pytest.raises(ConfigError, match="path.beta"):
            build_components({"path.kind": "lipschitz", "path.beta": "1.5"},
                             10)

    def test_grid_evaluated_once_per_horizon(self, monkeypatch):
        # the table draws nothing at random: the path's function runs
        # n + 1 times when build_components builds the path, never in
        # sample, and 200 replications each get an array of their own
        from drifttrack import experiments

        n, points = 50, []

        def func(t):
            points.append(t)
            return 0.5 * t

        monkeypatch.setitem(experiments._PATH_FUNCTIONS, "linear",
                            lambda amp: func)
        _, model, _, path = experiments.build_components(
            {"path.kind": "lipschitz", "path.function": "linear"}, n)
        assert points == [k / n for k in range(n + 1)]
        first = model.simulate(n, make_rng(0)).targets
        want = first.copy()
        first[:] = 99.0
        for rep in range(1, 200):
            out = model.simulate(n, make_rng(rep)).targets
            assert out.tobytes() == want.tobytes()
        assert len(points) == n + 1
        with pytest.raises(ValueError, match="horizon 50, not 100"):
            path.sample(2 * n, make_rng(0))

    def test_table_checked_when_built(self):
        with pytest.raises(ValueError, match="compact set"):
            _grid_path(lambda t: 2.0 * t, 10, c_theta=1.0)
        path = _grid_path(lambda t: [2.0 * t, -t], 10, dim=2)
        assert path.dim == 2 and path.c_theta == 5.0  # the largest square


class TestSignalNoiseModel:
    def test_zero_noise_exact(self):
        path = make_parameter_path("static", value=[0.7])
        sim = SignalNoiseModel(path=path, noise=NoiseSpec("zero")).simulate(
            20, make_rng(0))
        assert np.all(sim.observations == 0.7)
        assert sim.targets.shape == (21, 1)

    def test_sample_variance(self):
        path = make_parameter_path("static", value=[0.0])
        sim = SignalNoiseModel(path=path, noise=NoiseSpec("normal", 1.0)).simulate(
            100_000, make_rng(1))
        v = float(np.var(sim.observations))
        # var of the sample variance of N(0,1) is about 2/n
        assert abs(v - 1.0) <= 4.0 * math.sqrt(2.0 / 100_000)

    def test_alignment(self):
        # row k carries target k: with zero noise obs[k] == targets[k]
        path = _grid_path(lambda t: t, 10, c_theta=1.0)
        sim = SignalNoiseModel(path=path, noise=NoiseSpec("zero")).simulate(
            10, make_rng(0))
        assert np.allclose(sim.observations[:, 0], sim.targets[:10, 0])

    def test_predictable_rule(self):
        # rule reads only the stored past; replaying it must reproduce
        # the recorded targets
        rule = lambda k, window: np.tanh(window[-1])
        model = PredictableSignalNoise(rule, NoiseSpec("normal", 0.5))
        sim = model.simulate(50, make_rng(3))
        assert np.allclose(sim.targets[0], np.tanh(0.0))
        for k in range(1, 50):
            assert np.allclose(sim.targets[k],
                               np.tanh(sim.observations[k - 1]))


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        got = adaptive_simpson(lambda t: t ** 3, 0.0, 1.0)
        assert abs(got - 0.25) < 1e-12

    def test_oscillatory(self):
        got = adaptive_simpson(lambda t: math.sin(10.0 * t), 0.0, 1.0)
        want = (1.0 - math.cos(10.0)) / 10.0
        assert abs(got - want) < 1e-9


def _poisson(intensity, n):
    return PoissonCountModel(path=make_parameter_path(
        "grid", table=poisson_targets(intensity, n)))


class TestPoissonModel:
    def test_constant_intensity_cells(self):
        assert math.isclose(poisson_targets(lambda t: 2.0, 10)[3, 0], 2.0,
                            abs_tol=1e-10)

    def test_linear_intensity_exact(self):
        # lambda(t) = t, n = 2: cell means 0.25 and 0.75, then lambda(1)
        got = poisson_targets(lambda t: t, 2)[:, 0]
        assert np.allclose(got, [0.25, 0.75, 1.0], rtol=0.0, atol=1e-10)

    def test_zero_intensity(self):
        sim = _poisson(lambda t: 0.0, 20).simulate(20, make_rng(0))
        assert np.all(sim.observations == 0.0)

    def test_counts_nondecreasing(self):
        sim = _poisson(lambda t: 3.0, 200).simulate(200, make_rng(1))
        assert np.all(sim.observations[:, 0] >= sim.observations[:, 1])

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            poisson_targets(lambda t: -1.0, 5)

    def test_cell_means_computed_once_per_horizon(self):
        # the intensity runs when the table is built, never in simulate,
        # and each simulate returns targets of its own
        calls = []

        def intensity(t):
            calls.append(t)
            return 1.0 + t

        model = _poisson(intensity, 50)
        per_horizon = len(calls)
        assert per_horizon > 51
        first = model.simulate(50, make_rng(0))
        assert len(calls) == per_horizon
        first.targets[:] = -1.0  # a caller's targets are its own
        again = model.simulate(50, make_rng(1))
        assert len(calls) == per_horizon
        fresh = _poisson(lambda t: 1.0 + t, 50)
        assert again.targets.tobytes() \
            == fresh.simulate(50, make_rng(1)).targets.tobytes()
        with pytest.raises(ValueError, match="horizon"):
            model.simulate(60, make_rng(2))

    def test_increment_mean(self):
        sim = _poisson(lambda t: 2.0, 100_000).simulate(100_000, make_rng(2))
        inc = sim.observations[:, 0] - sim.observations[:, 1]
        se = math.sqrt(2.0 / inc.size)
        assert abs(float(np.mean(inc)) - 2.0) <= 4.0 * se


class TestCondGaussianModel:
    def test_band_guard(self):
        with pytest.raises(ValueError):
            CondGaussianModel(lambda k, w: [0.0], lambda k, w: [[1e-12]], dim=1,
                              eig_band=(0.5, 2.0)).simulate(5, make_rng(0))

    def test_identity_cov_variance(self):
        sim = CondGaussianModel(lambda k, w: np.zeros(2),
                                lambda k, w: np.eye(2), dim=2,
                                eig_band=(0.5, 2.0)).simulate(
            50_000, make_rng(3))
        v = np.var(sim.observations, axis=0)
        assert np.all(np.abs(v - 1.0) <= 4.0 * math.sqrt(2.0 / 50_000))

    def test_standardized_residuals(self):
        sim = CondGaussianModel(lambda k, w: [1.0], lambda k, w: [[4.0]], dim=1,
                                eig_band=(1.0, 5.0)).simulate(
            50_000, make_rng(4))
        z = (sim.observations[:, 0] - 1.0) / 2.0
        assert abs(float(np.mean(z))) < 4.0 / math.sqrt(z.size)
        assert abs(float(np.var(z)) - 1.0) < 4.0 * math.sqrt(2.0 / z.size)


class TestArch1Model:
    def test_zero_theta_iid(self):
        path = make_parameter_path("static", value=[0.0])
        sim = Arch1Model(path=path, noise=NoiseSpec("normal", 1.0)).simulate(
            1000, make_rng(0))
        # with theta = 0 the recursion is X_k = eps_k; reproduce from the
        # same stream
        rng = make_rng(0)
        path.sample(1000, rng)  # static path consumes no draws, keep order
        eps = NoiseSpec("normal", 1.0).draw(rng, 1000)
        assert np.allclose(sim.observations[:, 0], eps)

    def test_zero_noise(self):
        path = make_parameter_path("static", value=[0.5])
        sim = Arch1Model(path=path, noise=NoiseSpec("zero"), x0=1.0).simulate(
            10, make_rng(0))
        assert np.all(sim.observations[:, 0] == 0.0)

    def test_lag_column(self):
        path = make_parameter_path("static", value=[0.3])
        sim = Arch1Model(path=path, noise=NoiseSpec("normal", 1.0),
                         x0=0.5).simulate(100, make_rng(5))
        assert sim.observations[0, 1] == 0.5
        assert np.array_equal(sim.observations[1:, 1],
                              sim.observations[:-1, 0])

    def test_conditional_second_moment(self):
        # E[X_k^2 | X_{k-1}] = 1 + theta X_{k-1}^2 along a long run
        path = make_parameter_path("static", value=[0.5])
        sim = Arch1Model(path=path, noise=NoiseSpec("normal", 1.0)).simulate(
            200_000, make_rng(6))
        x, x_prev = sim.observations[:, 0], sim.observations[:, 1]
        ratio = x ** 2 / (1.0 + 0.5 * x_prev ** 2)
        se = float(np.std(ratio)) / math.sqrt(ratio.size)
        assert abs(float(np.mean(ratio)) - 1.0) <= 4.0 * se

    def test_rejects_negative_theta(self):
        path = make_parameter_path("static", value=[-0.2])
        with pytest.raises(ValueError):
            Arch1Model(path=path, noise=NoiseSpec("normal", 1.0)).simulate(
                5, make_rng(0))

    def test_rejects_large_x0(self):
        path = make_parameter_path("static", value=[0.1])
        with pytest.raises(ValueError):
            Arch1Model(path=path, x0=1.5)


class TestArdModel:
    def test_d1_zero_noise(self):
        path = make_parameter_path("static", value=[0.5])
        model = ArdBatchModel(path=path, d=1, sigma=1.0)
        # sigma = 0 not allowed by draw shape; emulate with tiny sigma via
        # direct check of the recursion instead
        sim = ArdBatchModel(path=path, d=1, sigma=1.0).simulate(200, make_rng(7))
        x, y = sim.observations[:, 0], sim.observations[:, 1]
        # residuals x - 0.5 y are the innovations: mean 0, variance 1
        resid = x - 0.5 * y
        assert abs(float(np.mean(resid))) <= 4.0 / math.sqrt(resid.size)

    def test_batches_chain(self):
        path = make_parameter_path("static", value=[0.3, 0.2], c_theta=1.0)
        sim = ArdBatchModel(path=path, d=2, sigma=1.0).simulate(50, make_rng(8))
        # the y-block of batch k+1 is the x-block of batch k
        assert np.array_equal(sim.observations[1:, 2:],
                              sim.observations[:-1, :2])

    def test_zero_theta_iid(self):
        path = make_parameter_path("static", value=[0.0, 0.0])
        sim = ArdBatchModel(path=path, d=2, sigma=1.0).simulate(
            20_000, make_rng(9))
        x = sim.observations[:, :2].ravel()
        assert abs(float(np.var(x)) - 1.0) <= 4.0 * math.sqrt(2.0 / x.size)

    def test_stability_guard(self):
        path = make_parameter_path("static", value=[1.2], c_theta=2.0)
        with pytest.raises(ValueError):
            ArdBatchModel(path=path, d=1, sigma=1.0).simulate(5, make_rng(0))

    def test_second_moments_bounded(self):
        path = make_parameter_path("static", value=[0.5, 0.2], c_theta=1.0)
        sim = ArdBatchModel(path=path, d=2, sigma=1.0).simulate(
            10_000, make_rng(10))
        assert float(np.max(sim.observations ** 2)) < 1e3

    def test_d1_stationary_variance(self):
        # long AR(1) run: lag-0 autocovariance matches 1/(1-theta^2)
        theta = 0.6
        path = make_parameter_path("static", value=[theta])
        sim = ArdBatchModel(path=path, d=1, sigma=1.0).simulate(
            200_000, make_rng(11))
        v = float(np.var(sim.observations[:, 0]))
        want = 1.0 / (1.0 - theta * theta)
        assert abs(v - want) <= 0.05 * want

    @pytest.mark.parametrize("path", [
        # drifts for half the run, then holds still
        _grid_path(lambda t: [0.6 * math.sin(3.0 * min(t, 0.5)), -0.2], 300,
                   dim=2, c_theta=1.0),
        # reflects and gets trapped at the boundary, so it also holds still
        make_parameter_path("stabilizing", dim=2, c_rho=0.3, beta=0.25,
                            c_theta=0.09, start=[0.25, 0.1]),
        # d = 1 skips the triangular solve: A is the 1x1 identity
        _grid_path(lambda t: 0.6 * math.sin(3.0 * min(t, 0.5)), 300,
                   c_theta=1.0),
    ])
    def test_drifting_d2_matches_per_step_loop(self, path):
        model = ArdBatchModel(path=path, d=path.dim, sigma=1.0)
        sim = model.simulate(300, make_rng(12))
        want_obs, want_thetas = _ard_reference(model, 300, make_rng(12))
        held = np.all(want_thetas[1:300] == want_thetas[:299], axis=1)
        assert held.any() and not held.all()
        assert sim.observations.tobytes() == want_obs.tobytes()
        assert sim.targets.tobytes() == want_thetas.tobytes()

    def test_path_leaving_region_names_first_unstable_step(self):
        for n in (100, 3000):
            path = _grid_path(lambda t: 1.5 * t, n, c_theta=4.0)
            model = ArdBatchModel(path=path, d=1, sigma=1.0)
            thetas = path.sample(n, make_rng(0))
            first = next(k for k in range(n) if not
                         linalg.ar_stability_check(thetas[k], model.rho)[0])
            assert 0 < first < n - 1
            with pytest.raises(ValueError, match=f"at step {first} "):
                model.simulate(n, make_rng(0))
            # taken WINDOW steps at a time, the error still names the step
            # counted from the run's start, past the first window at 3000
            assert n < WINDOW or first > WINDOW
            source = model.rows(n, [make_rng(0)])
            with pytest.raises(ValueError, match=f"at step {first} "):
                for k in range(0, n, WINDOW):
                    source.take(min(WINDOW, n - k))


def _ard_reference(model, n, rng, thetas=None):
    """ArdBatchModel.simulate as a plain loop: check, A and B every step,
    on thetas, drawn from rng before the rows (the path's sample when
    None)."""
    from scipy.linalg import solve_triangular

    d = model.d
    if thetas is None:
        thetas = model.path.sample(n, rng)
    obs = np.empty((n, 2 * d))
    y = rng.normal(0.0, model.sigma, size=d)
    for k in range(n):
        assert linalg.ar_stability_check(thetas[k], model.rho)[0]
        a = linalg.ar_matrix_a(thetas[k])
        b = linalg.ar_matrix_b(thetas[k])
        xi = rng.normal(0.0, model.sigma, size=d)
        x = solve_triangular(a, b @ y + xi, lower=False, unit_diagonal=True)
        obs[k, :d] = x
        obs[k, d:] = y
        y = x
    return obs, thetas


@given(seed=st.integers(min_value=0, max_value=2**32),
       n=st.integers(min_value=1, max_value=64))
@settings(max_examples=25, deadline=None)
def test_simulators_deterministic(seed, n):
    path = make_parameter_path("stabilizing", dim=1, c_rho=0.5, beta=1.0)
    a = SignalNoiseModel(path=path).simulate(n, make_rng(seed))
    b = SignalNoiseModel(path=path).simulate(n, make_rng(seed))
    assert np.array_equal(a.observations, b.observations)
    assert np.array_equal(a.targets, b.targets)


# ---------------------------------------------------------------------
# Targets that draw nothing: one read-only table for every seed
# ---------------------------------------------------------------------

# model.kind -> keys beside a static or lipschitz path that keep its
# simulator valid (arch1 needs theta >= 0, AR a stable polynomial whose
# roots the stability check finds: sin(pi) ~ 1e-16 entries defeat it)
_DRAW_FREE = {
    "signal_noise": {"gain.kind": "signal_noise"},
    "arch1": {"gain.kind": "arch1", "path.value": "0.3",
              "path.function": "linear"},
    "ar1": {"gain.kind": "ar1_normalized", "path.value": "0.4",
            "path.function": "linear", "path.amplitude": "0.4"},
    "ard": {"gain.kind": "ard_score", "model.d": "2", "path.value": "0.3,0.2",
            "path.function": "linear", "path.amplitude": "0.3"},
}


@given(model=st.sampled_from(sorted(_DRAW_FREE) + ["poisson"]),
       path=st.sampled_from(["static", "lipschitz"]),
       n=st.integers(1, 60), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_draw_free_targets_are_the_shared_table(model, path, n, seed):
    from drifttrack.experiments import build_components

    raw = {"model.kind": model, "gain.kind": "poisson",
           "model.intensity": "sine", "model.intensity.b": "0.5"} \
        if model == "poisson" else {"model.kind": model, "path.kind": path,
                                    **_DRAW_FREE[model]}
    _, sim_model, _, built = build_components(raw, n)
    table = built.table_for(n)
    assert table.shape == (n + 1, sim_model.dim)
    targets = sim_model.simulate(n, make_rng(seed)).targets
    assert targets.shape == table.shape
    assert targets.tobytes() == table.tobytes()


# model kind -> (path -> model); d = 3 for ar3, else 1
_ROW_MODELS = {
    "normal": lambda path: SignalNoiseModel(path, NoiseSpec("normal", 0.7)),
    "uniform": lambda path: SignalNoiseModel(path, NoiseSpec("uniform", 0.5)),
    "zero": lambda path: SignalNoiseModel(path, NoiseSpec("zero")),
    "arch1": lambda path: Arch1Model(path, NoiseSpec("normal", 1.0), x0=0.5),
    "ar1": lambda path: ArdBatchModel(path, 1, sigma=1.5),
    "ar3": lambda path: ArdBatchModel(path, 3, sigma=1.5),
}


def _row_model(kind, path_kind, n):
    """A model of kind on a static or grid path of horizon n, or on a
    stabilizing walk slow enough that arch1 stays nonnegative and AR
    stable; or, for poisson, a grid of cell means that crosses the
    intensity 10 where numpy's Poisson draw changes method."""
    if kind == "poisson":
        return _poisson(lambda t: 3.0 + 12.0 * t, n)
    value = [0.3, -0.2, 0.1][:3 if kind == "ar3" else 1]
    if path_kind == "stabilizing":
        path = make_parameter_path("stabilizing", dim=len(value),
                                   c_theta=1.0, start=value, c_rho=0.01)
    elif path_kind == "static":
        path = make_parameter_path("static", value=value)
    else:
        path = _grid_path(lambda t: [v * (1.0 + t) for v in value], n,
                          dim=len(value), c_theta=1.0)
    return _ROW_MODELS[kind](path)


def _take_all(source, n, m):
    """The rows and targets of a block of one's n steps taken m at a time,
    concatenated; each window's targets start at the slot the last one
    ended on."""
    taken = [source.take(min(m, n - k)) for k in range(0, n, m)]
    return (np.concatenate([rows[:, 0] for rows, _ in taken]),
            np.concatenate([taken[0][1][:1, 0]]
                           + [targets[1:, 0] for _, targets in taken]))


@given(kind=st.sampled_from(sorted(_ROW_MODELS) + ["poisson"]),
       path_kind=st.sampled_from(["static", "grid", "stabilizing"]),
       n=st.integers(3, 120), seed=st.integers(0, 2**64 - 1),
       cut=st.sampled_from(["one", "non-divisor", "whole"]), data=st.data())
@settings(max_examples=120, deadline=None)
def test_row_source_windows_concatenate_to_simulate(kind, path_kind, n, seed,
                                                    cut, data):
    # a window of 1 step, of a size that does not divide n, or of at
    # least n; each source carries its generator, model state and walk
    # across windows, so neither rows nor targets may depend on where the
    # horizon is cut
    model = _row_model(kind, path_kind, n)
    m = {"one": lambda: 1,
         "non-divisor": lambda: data.draw(st.integers(2, n - 1).filter(
             lambda m: n % m)),
         "whole": lambda: data.draw(st.integers(n, 2 * n))}[cut]()
    source = model.rows(n, [make_rng(seed)])
    if path_kind == "stabilizing" and kind != "poisson":
        assert source.table is None
    else:
        assert not source.table.flags.writeable
    rows, targets = _take_all(source, n, m)
    whole = model.simulate(n, make_rng(seed))
    assert rows.shape == (n, source.width)
    assert rows.tobytes() == whole.observations.tobytes()
    assert targets.tobytes() == whole.targets.tobytes()


def _numpy_noise(noise, rng, n, d):
    """n rows of noise drawn with numpy's own calls, as a run drew them
    one seed at a time."""
    if noise.kind == "normal" and noise.scale:
        return rng.normal(0.0, noise.scale, (n, d))
    if noise.kind == "uniform":
        return rng.uniform(-noise.scale, noise.scale, (n, d))
    return np.zeros((n, d))


@given(kind=st.sampled_from(NoiseSpec.KINDS),
       scale=st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1e150]),
       d=st.integers(1, 2), size=st.sampled_from([1, 31, 32, 33, 200]),
       walked=st.booleans(), n=st.integers(1, 40),
       value=st.lists(st.sampled_from([-0.0, 0.0, 0.3, -0.7]), min_size=2,
                      max_size=2),
       cuts=st.sets(st.integers(1, 39)), seed=st.integers(0, 2**64 - 1))
# a product under half the smallest subnormal rounds to a signed zero,
# which only a -0.0 target shows; 33 seeds of 40 rows meet one
@example(kind="normal", scale=5e-324, d=1, size=33, walked=False, n=40,
         value=[-0.0, -0.0], cuts={7, 32}, seed=1)
@settings(max_examples=60, deadline=None)
def test_block_rows_are_numpys_per_seed_draws(kind, scale, d, size, walked,
                                              n, value, cuts, seed):
    # a block of size runs, groups of 32 scaled and shifted together,
    # its horizon cut into windows anywhere: each run's rows and targets
    # have the bits of numpy's own draws for its seed, the noise first
    # and then the walk from the same generator
    path = _walk(d, start=value[:d], c_rho=0.5, beta=0.5) if walked \
        else make_parameter_path("static", value=value[:d], c_theta=1.0)
    model = SignalNoiseModel(path, NoiseSpec(kind, scale))
    seeds = [seed ^ i for i in range(size)]
    source = model.rows(n, [make_rng(s) for s in seeds])
    cuts = sorted(c for c in cuts if c < n)
    taken = [source.take(hi - lo) for lo, hi in zip([0, *cuts], [*cuts, n])]
    rows = np.concatenate([r for r, _ in taken])
    targets = np.concatenate([taken[0][1][:1]]
                             + [t[1:] for _, t in taken])
    for i, s in enumerate(seeds):
        rng = make_rng(s)
        noise = _numpy_noise(model.noise, rng, n, d)
        want = path.sample(n, rng)
        assert same_bits(targets[:, i], want)
        assert same_bits(rows[:, i], want[:n] + noise)


def test_shared_table_is_read_only():
    static = make_parameter_path("static", value=[0.3, -0.2])
    grid = _lipschitz_path(20)
    for path in (static, grid):
        table = path.table_for(20)
        with pytest.raises(ValueError, match="read-only"):
            table[3] = 0.0
        # a sample is the run's own copy
        sample = path.sample(20, make_rng(0))
        sample[3] = 0.0
        assert table[3, 0] != 0.0
    assert grid.table.flags.writeable  # the path's own table is untouched
    with pytest.raises(ValueError, match="horizon 20, not 21"):
        grid.table_for(21)


def test_drawn_paths_have_no_table():
    stabilizing = make_parameter_path("stabilizing", dim=1)
    assert stabilizing.table_for(10) is None


def test_predictable_window_is_the_zero_padded_past():
    # the rule at step k sees observations k-3..k-1, zeros before the
    # first, oldest first
    seen = []

    def rule(k, window):
        seen.append(window.copy())
        return np.zeros(2)

    model = PredictableSignalNoise(rule, NoiseSpec("normal", 1.0), dim=2,
                                   window_depth=3)
    sim = model.simulate(5, make_rng(0))
    padded = np.vstack([np.zeros((3, 2)), sim.observations])
    assert len(seen) == 6
    for k, window in enumerate(seen):
        assert np.array_equal(window, padded[k:k + 3])


def _arch1_reference(model, n, rng, thetas=None):
    """Arch1Model.simulate as a plain loop on thetas, drawn from rng
    before the rows (the path's sample when None)."""
    if thetas is None:
        thetas = model.path.sample(n, rng)
    eps = model.noise.draw(rng, n)
    obs = np.empty((n, 2))
    x_prev = model.x0
    for k in range(n):
        theta = float(thetas[k, 0])
        x = math.sqrt(1.0 + theta * x_prev * x_prev) * eps[k]
        obs[k, 0] = x
        obs[k, 1] = x_prev
        x_prev = x
    return obs, thetas


@pytest.mark.parametrize("path", [
    # drawn targets: stabilizing walks from 0.5 whose budgets sum to
    # under 0.5 over 200 steps, so theta stays nonnegative
    make_parameter_path("stabilizing", c_theta=1.0, start=[0.5],
                        c_rho=0.05, beta=1.0),
    make_parameter_path("stabilizing", c_theta=1.0, start=[0.5],
                        c_rho=0.01, beta=0.5),
    make_parameter_path("static", value=[0.4]),
    _grid_path(lambda t: 0.3 + 0.2 * math.sin(2.0 * math.pi * t), 200,
               c_theta=1.0),
])
def test_arch1_matches_plain_loop(path):
    model = Arch1Model(path=path, noise=NoiseSpec("normal", 1.0), x0=0.5)
    sim = model.simulate(200, make_rng(22))
    want_obs, want_thetas = _arch1_reference(model, 200, make_rng(22))
    assert sim.observations.tobytes() == want_obs.tobytes()
    assert sim.targets.tobytes() == want_thetas.tobytes()


def test_arch1_rule_must_stay_nonnegative():
    # theta_k = 2047.5/n - k/n first goes negative at slot 2048, the slot
    # after the last row of window 1 (rows 1024..2047): a window checks
    # slots k..k+m, so window 1 raises, before it hands out a row
    n = 3000
    model = Arch1Model(path=_grid_path(lambda t: 2047.5 / n - t, n,
                                       c_theta=1.0))
    source = model.rows(n, [make_rng(0)])
    assert source.take(1024)[0].shape == (1024, 1, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        source.take(1024)


# ---------------------------------------------------------------------
# The stabilizing walk, streamed, against the walk drawn whole
# ---------------------------------------------------------------------

def _whole_walk(path, n, rng):
    """The stabilizing walk as it was drawn before it streamed: all n
    draws and budgets at once, the d = 1 loop reading Python floats 4096
    steps at a time."""
    radius = math.sqrt(path.c_theta)
    theta = np.zeros(path.dim) if path.start is None \
        else np.atleast_1d(np.asarray(path.start, dtype=float)).copy()
    out = np.empty((n + 1, path.dim))
    out[0] = theta
    draws = rng.standard_normal((n, path.dim))
    steps = np.arange(n, dtype=float)
    steps[0] = 1.0
    budgets = path.c_rho * steps ** (-path.beta)
    if path.dim == 1:
        t = float(theta[0])
        col = out[:, 0]
        for lo in range(0, n, 4096):
            chunk = slice(lo, lo + 4096)
            signs = np.where(draws[chunk, 0] >= 0.0, 1.0, -1.0).tolist()
            for i, (b, s) in enumerate(zip(budgets[chunk].tolist(),
                                           signs), lo):
                if abs(t + b * s) > radius:
                    s = -s
                if abs(t + b * s) <= radius:
                    t = t + b * s
                col[i + 1] = t
        return out
    norms = np.linalg.norm(draws, axis=1)
    tiny = norms < 1e-12
    if np.any(tiny):
        draws[tiny] = 0.0
        draws[tiny, 0] = 1.0
        norms[tiny] = 1.0
    units = draws / norms[:, None]
    for i in range(n):
        move = budgets[i] * units[i]
        cand = theta + move
        if float(cand @ cand) > path.c_theta:
            cand = theta - move
            if float(cand @ cand) > path.c_theta:
                cand = theta
        theta = cand
        out[i + 1] = theta
    return out


def _whole_run(model, n, seed):
    """(rows, targets) in the draw order of a run drawn whole: the
    signal-noise model's n noise rows, then the walk; the walk, then the
    ARCH(1) or AR(d) rows."""
    rng = make_rng(seed)
    if isinstance(model, SignalNoiseModel):
        noise = model.noise.draw(rng, (n, model.dim))
        thetas = _whole_walk(model.path, n, rng)
        return thetas[:n] + noise, thetas
    reference = _arch1_reference if isinstance(model, Arch1Model) \
        else _ard_reference
    return reference(model, n, rng, _whole_walk(model.path, n, rng))


def _walk(dim=1, **params):
    return make_parameter_path("stabilizing", dim=dim, **params)


# near the boundary, so the walks reflect and get trapped; arch1's budgets
# add up to under 0.5 over 2,500 steps, so theta stays nonnegative
_WALKED = {
    "normal": lambda: SignalNoiseModel(
        _walk(start=[0.9], c_rho=0.5, beta=0.5), NoiseSpec("normal", 0.7)),
    "normal-d2": lambda: SignalNoiseModel(
        _walk(2, start=[0.6, -0.7], c_rho=1.0, beta=0.5),
        NoiseSpec("normal", 1.0)),
    "uniform": lambda: SignalNoiseModel(
        _walk(start=[-0.9], c_rho=0.5, beta=0.5), NoiseSpec("uniform", 0.5)),
    "zero": lambda: SignalNoiseModel(_walk(c_rho=2.0, beta=0.25),
                                     NoiseSpec("zero")),
    "arch1": lambda: Arch1Model(_walk(start=[0.5], c_rho=0.05, beta=1.0),
                                NoiseSpec("normal", 1.0), x0=0.5),
    "ard": lambda: ArdBatchModel(_walk(2, c_theta=0.09, start=[0.25, 0.1],
                                       c_rho=0.3, beta=0.25), 2, sigma=1.0),
}


@pytest.mark.parametrize("cut", [1, 700, WINDOW, 2500])
@pytest.mark.parametrize("kind", sorted(_WALKED))
def test_streamed_walk_keeps_the_whole_draw_order(kind, cut):
    # n = 2,500 steps cut into windows of 1 step, of 700 (which does not
    # divide n), of WINDOW, or whole; every window's rows and targets
    # equal the run drawn whole, in the order it drew
    n, model = 2500, _WALKED[kind]()
    want_rows, want_targets = _whole_run(model, n, 31)
    rows, targets = _take_all(model.rows(n, [make_rng(31)]), n, cut)
    assert rows.tobytes() == want_rows.tobytes()
    assert targets.tobytes() == want_targets.tobytes()
    assert model.path.sample(n, make_rng(5)).tobytes() \
        == _whole_walk(model.path, n, make_rng(5)).tobytes()
