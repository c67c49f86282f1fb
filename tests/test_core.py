"""Tracking engine: updates, projections, guard, determinism, replay."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from drifttrack import core, experiments, gains
from drifttrack.core import (
    Ball,
    Box,
    TrackingConfig,
    TrackingDiverged,
    replay_updates,
    run_tracking,
)
from drifttrack.models import (
    NoiseSpec,
    RowSource,
    SignalNoiseModel,
    make_parameter_path,
    make_rng,
)
from drifttrack.schedules import StepSchedule


class TestRegions:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box(lower=[1.0], upper=[0.0])

    def test_ball_validation(self):
        with pytest.raises(ValueError):
            Ball(center=[0.0], radius=0.0)

    def test_box_contains(self):
        region = Box(lower=[-1.0, 0.0], upper=[1.0, 2.0])
        assert region.contains([0.0, 1.0])
        assert not region.contains([0.0, 3.0])

    def test_box_project_clamps(self):
        region = Box(lower=[-1.0], upper=[1.0])
        assert np.array_equal(region.project(0.8 + 1.0 * np.array([1.0])),
                              [1.0])

    def test_ball_project_radial(self):
        region = Ball(center=[0.0, 0.0], radius=1.0)
        got = region.project(np.zeros(2) + 1.0 * np.array([3.0, 4.0]))
        assert np.allclose(got, [0.6, 0.8])

    def test_box_project_leaves_interior(self):
        region = Box(lower=[-1.0], upper=[1.0])
        assert np.allclose(region.project(0.0 + 0.1 * np.array([1.0])),
                           [0.1])

    def test_ball_project_is_idempotent(self):
        region = Ball(center=[1.0, 1.0], radius=0.5)
        p = region.project([9.0, -3.0])
        assert np.allclose(region.project(p), p)
        assert region.contains(p)


def _static_setup(theta=1.0, noise="zero", scale=1.0, n=20, d=1,
                  schedule=None, init=0.0, projection=None):
    path = make_parameter_path("static", value=[theta] * d,
                               c_theta=d * theta * theta + 1e-9)
    model = SignalNoiseModel(path=path, noise=NoiseSpec(noise, scale))
    gain = gains.signal_noise_spec(d)
    if schedule is None:
        schedule = StepSchedule(kind="constant", gamma=1.0)
    config = TrackingConfig(dimension=d, horizon=n,
                            initial_estimate=np.full(d, float(init)),
                            schedule=schedule, projection=projection)
    return config, model, gain


class TestRunTracking:
    def test_one_step_convergence_zero_noise(self):
        # unit step, zero noise: theta_hat_1 = theta and stays there
        config, model, gain = _static_setup(theta=1.0, init=0.0)
        run = run_tracking(config, model, gain, rng_seed=0)
        assert run.estimates[0, 0] == 0.0
        assert np.all(run.estimates[1:, 0] == 1.0)
        assert np.all((run.estimates - run.targets)[1:] == 0.0)

    def test_zero_gamma_constant(self):
        schedule = StepSchedule(kind="constant", gamma=1e-300, cap=1e-300)
        config, model, gain = _static_setup(theta=1.0, init=0.25,
                                            schedule=schedule)
        run = run_tracking(config, model, gain, rng_seed=0)
        assert np.allclose(run.estimates[:, 0], 0.25)

    def test_determinism_bitwise(self):
        config, model, gain = _static_setup(noise="normal", n=200)
        a = run_tracking(config, model, gain, rng_seed=77)
        b = run_tracking(config, model, gain, rng_seed=77)
        assert np.array_equal(a.estimates, b.estimates)

    def test_shapes_and_alignment(self):
        config, model, gain = _static_setup(noise="normal", n=50)
        run = run_tracking(config, model, gain, rng_seed=3)
        assert run.estimates.shape == (51, 1)
        assert run.targets.shape == (51, 1)
        assert run.steps.shape == (50,)

    def test_scalar_and_general_paths_agree(self):
        # force the general path with a huge projection region; results
        # must match the scalar fast path bit for bit
        sched = StepSchedule(kind="static", c_gamma=2.0)
        config, model, gain = _static_setup(noise="normal", n=300,
                                            schedule=sched)
        big = Box(lower=[-1e9], upper=[1e9])
        config_proj = TrackingConfig(dimension=1, horizon=300,
                                     initial_estimate=np.zeros(1),
                                     schedule=sched, projection=big)
        a = run_tracking(config, model, gain, rng_seed=5)
        b = run_tracking(config_proj, model, gain, rng_seed=5)
        assert np.array_equal(a.estimates, b.estimates)

    def test_projection_safety(self):
        region = Ball(center=[0.0], radius=0.3)
        sched = StepSchedule(kind="constant", gamma=0.8)
        config, model, gain = _static_setup(theta=1.0, noise="normal",
                                            n=500, schedule=sched)
        config = TrackingConfig(dimension=1, horizon=500,
                                initial_estimate=np.zeros(1),
                                schedule=sched, projection=region)
        run = run_tracking(config, model, gain, rng_seed=9)
        assert np.all(np.abs(run.estimates) <= 0.3 + 1e-12)

    def test_divergence_guard_reports_step(self):
        # explosive gain: estimate doubles away from zero every step
        spec = gains.GainSpec(evaluator=lambda est, row: 10.0 * est + 1.0,
                              dim=1)
        config, model, _ = _static_setup(n=100)
        with pytest.raises(TrackingDiverged) as info:
            run_tracking(config, model, spec, rng_seed=0)
        assert 0 <= info.value.step < 100

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gaussian_row_diverges(self, bad):
        # the diagonal solve passes a non-finite row through, and the
        # guard stops at that row's step
        spec = gains.gaussian_known_cov_spec([2.0, 4.0])
        obs = np.zeros((6, 3, 2))
        obs[4, 1, 0] = bad
        with pytest.raises(TrackingDiverged) as info:
            core.track(np.zeros((3, 2)), obs, np.full(6, 0.1),
                       spec.evaluator)
        assert info.value.step == 4

    def test_nan_gain_aborts(self):
        spec = gains.GainSpec(evaluator=lambda est, row: math.nan, dim=1)
        config, model, _ = _static_setup(n=10)
        with pytest.raises(TrackingDiverged):
            run_tracking(config, model, spec, rng_seed=0)

    def test_dimension_mismatch(self):
        config, model, _ = _static_setup(n=10)
        with pytest.raises(ValueError):
            run_tracking(config, model, gains.signal_noise_spec(2), rng_seed=0)

    def test_initial_outside_projection(self):
        sched = StepSchedule(kind="constant", gamma=0.1)
        with pytest.raises(ValueError):
            TrackingConfig(dimension=1, horizon=5,
                           initial_estimate=np.array([5.0]), schedule=sched,
                           projection=Box(lower=[-1.0], upper=[1.0]))

    def test_multivariate_run(self):
        config, model, gain = _static_setup(theta=0.5, noise="normal", d=3,
                                            n=200,
                                            schedule=StepSchedule(
                                                kind="static", c_gamma=4.0))
        run = run_tracking(config, model, gain, rng_seed=12)
        assert run.estimates.shape == (201, 3)
        assert float(np.linalg.norm(run.estimates[-1]
                                    - run.targets[-1])) < 1.0


class TestReplay:
    def test_replay_reproduces_run_exactly(self):
        sched = StepSchedule(kind="static", c_gamma=2.0)
        config, model, gain = _static_setup(noise="normal", n=400,
                                            schedule=sched)
        run = run_tracking(config, model, gain, rng_seed=21)
        observations = model.simulate(config.horizon,
                                      make_rng(21)).observations
        replayed = replay_updates(run.estimates[0], observations,
                                  run.steps, gain)
        assert np.array_equal(replayed, run.estimates)

    def test_replay_with_projection(self):
        region = Ball(center=[0.0, 0.0], radius=0.4)
        sched = StepSchedule(kind="constant", gamma=0.5)
        config = TrackingConfig(dimension=2, horizon=300,
                                initial_estimate=np.zeros(2),
                                schedule=sched, projection=region)
        path = make_parameter_path("static", value=[0.3, 0.1])
        model = SignalNoiseModel(path=path, noise=NoiseSpec("normal", 1.0))
        gain = gains.signal_noise_spec(2)
        run = run_tracking(config, model, gain, rng_seed=31)
        observations = model.simulate(config.horizon,
                                      make_rng(31)).observations
        replayed = replay_updates(run.estimates[0], observations,
                                  run.steps, gain, projection=region)
        assert np.array_equal(replayed, run.estimates)


@given(init=st.floats(min_value=-10, max_value=10),
       n=st.integers(min_value=1, max_value=50))
@settings(max_examples=30, deadline=None)
def test_zero_gain_fixed_point(init, n):
    spec = gains.GainSpec(evaluator=lambda est, row: 0.0, dim=1)
    sched = StepSchedule(kind="constant", gamma=0.7)
    path = make_parameter_path("static", value=[0.0])
    model = SignalNoiseModel(path=path, noise=NoiseSpec("normal", 1.0))
    config = TrackingConfig(dimension=1, horizon=n,
                            initial_estimate=np.array([init]),
                            schedule=sched)
    run = run_tracking(config, model, spec, rng_seed=1)
    assert np.all(run.estimates[:, 0] == init)


@given(seed=st.integers(min_value=0, max_value=2**63),
       gamma=st.floats(min_value=1e-3, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_projection_safety_property(seed, gamma):
    region = Box(lower=[-0.5], upper=[0.5])
    sched = StepSchedule(kind="constant", gamma=gamma)
    path = make_parameter_path("static", value=[0.4])
    model = SignalNoiseModel(path=path, noise=NoiseSpec("normal", 2.0))
    config = TrackingConfig(dimension=1, horizon=100,
                            initial_estimate=np.zeros(1),
                            schedule=sched, projection=region)
    run = run_tracking(config, model, gains.signal_noise_spec(1), seed)
    assert np.all(run.estimates >= -0.5 - 1e-12)
    assert np.all(run.estimates <= 0.5 + 1e-12)


# =====================================================================
# The blocked kernel against a plain loop
# =====================================================================

def _reference(init, obs, gammas, evaluator, projection):
    """One replication at a time, one single-row gain call per step."""
    paths = []
    for b in range(obs.shape[1]):
        est = init[b].copy()
        path = [est]
        for k in range(obs.shape[0]):
            g = np.reshape(evaluator(est, obs[k, b]), est.shape)
            est = est + gammas[k] * g
            if projection is not None:
                est = projection.project(est)
            path.append(est)
        paths.append(path)
    return np.array(paths, dtype=float).reshape(init.shape[0], -1,
                                                init.shape[1])


# gain name -> (d -> (spec, observation row width)); d = 1 specs ignore d
_SPECS = {
    "signal_noise": lambda d: (gains.signal_noise_spec(d), d),
    "gaussian": lambda d: (gains.gaussian_known_cov_spec(
        np.arange(1.0, d + 1.0) + 0.25), d),
    "ard_score": lambda d: (gains.ard_score_spec(d, sigma=1.5), 2 * d),
    "quantile": lambda d: (gains.quantile_spec(0.3), 1),
    "poisson": lambda d: (gains.poisson_spec(), 2),
    "arch1": lambda d: (gains.arch1_spec(trunc=1.0), 2),
    "ar1_normalized": lambda d: (gains.ar1_normalized_spec(mu=0.5), 2),
    "ar1_truncated": lambda d: (gains.ar1_truncated_spec(trunc=1.5), 2),
    # a direction that is a view of the row: in run_replications' layout
    # it is the very slot the step writes
    "row_view": lambda d: (gains.GainSpec(
        evaluator=lambda est, row: row[..., :d], dim=d), d + 1),
}
_VECTOR_SPECS = ("signal_noise", "gaussian", "ard_score", "row_view")


def _aliased_layout(obs, d):
    """run_replications' block: observation row k in slot k+1 of a
    time-major (n+1, B, max(w, d)) stack, estimates written over it."""
    n, blocks, width = obs.shape
    stack = np.empty((n + 1, blocks, max(width, d)))
    stack[1:, :, :width] = obs
    return stack, stack[1:, :, :width], stack[:, :, :d]


def _values(shape, low, high):
    return hnp.arrays(float, shape, elements=st.floats(
        low, high, allow_nan=False, allow_subnormal=False))


def _check_track(data, name, blocks, d, n, region):
    """track, alone and written over its observation rows, against the
    plain loop, bit for bit."""
    d = d if name in _VECTOR_SPECS else 1
    spec, width = _SPECS[name](d)
    obs = data.draw(_values((n, blocks, width), -2.0, 2.0))
    if name == "poisson":  # counts: row = (N_k, N_{k-1}), nondecreasing
        obs[..., 0] = obs[..., 1] + np.abs(obs[..., 0])
    init = data.draw(_values((blocks, d), -0.5, 0.5))
    gammas = data.draw(_values((n,), 0.0, 0.5))
    projection = {"none": None,
                  "box": Box(lower=[-1.0] * d, upper=[0.75] * d),
                  "ball": Ball(center=[0.1] * d, radius=1.0)}[region]
    want = _reference(init, obs, gammas, spec.evaluator, projection)
    guard = core.GUARD_FACTOR * (1.0 + np.linalg.norm(init, axis=1))
    assume(np.all(np.linalg.norm(want, axis=2) <= guard[:, None] / 2))
    got = core.track(init, obs, gammas, spec.evaluator, projection)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # estimates written over the rows they consumed
    stack, rows, slots = _aliased_layout(obs, d)
    got = core.track(init, rows, gammas, spec.evaluator, projection,
                     out=slots)
    assert np.shares_memory(got, stack)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(data=st.data(), name=st.sampled_from(sorted(_SPECS)),
       blocks=st.integers(1, 5), d=st.integers(1, 3),
       n=st.integers(1, 12), region=st.sampled_from(["none", "box", "ball"]))
@settings(max_examples=150, deadline=None)
def test_track_matches_plain_loop(data, name, blocks, d, n, region):
    _check_track(data, name, blocks, d, n, region)


@pytest.mark.parametrize("region", ["none", "box", "ball"])
@pytest.mark.parametrize("name", sorted(_SPECS))
@given(data=st.data(), blocks=st.integers(1, 5), d=st.integers(1, 3),
       n=st.integers(1, 12))
@settings(max_examples=8, deadline=None)
def test_every_gain_and_region_written_over_its_rows(data, name, region,
                                                     blocks, d, n):
    _check_track(data, name, blocks, d, n, region)


def _first_divergence(config, model, gain, seeds):
    """(replication, step) where a one-at-a-time loop first diverges."""
    for rep, seed in enumerate(seeds):
        try:
            run_tracking(config, model, gain, seed)
        except TrackingDiverged as exc:
            return rep, exc.step
    return None


class _SpikeModel:
    """base + scale * N(0, 1) rows drawn a window at a time on a shared
    zero table, except one row of height heights.get(seed, 1e9) at the
    global step spikes[seed]."""

    dim = width = 1

    def __init__(self, spikes, heights=None, base=0.0, scale=0.0):
        self.spikes = spikes
        self.heights = heights or {}
        self.base = base
        self.scale = scale

    def rows(self, n, rngs):
        table = np.zeros((n + 1, 1))
        table.flags.writeable = False
        return RowSource(table, None, RowSource.each(
            [self._run(rng) for rng in rngs]), len(rngs), 1, 1)

    def _run(self, rng):
        seed = int(rng.bit_generator.state["state"]["key"][0])

        def rows(k, m, thetas):
            out = self.base + self.scale * rng.standard_normal((m, 1))
            if k <= self.spikes.get(seed, -1) < k + m:
                out[self.spikes[seed] - k] = self.heights.get(seed, 1e9)
            return out

        return rows

    def simulate(self, n, rng):
        return self.rows(n, [rng]).simulate(n)


def _plain_divergence(config, model, gain, seeds):
    """(replication, step) where a plain loop, one seed and one step at a
    time, first leaves the guard region of the run's initial estimate."""
    n = config.horizon
    gammas = config.schedule.values_upto(n)
    for rep, seed in enumerate(seeds):
        rows = model.simulate(n, make_rng(seed)).observations
        est = config.initial_estimate.copy()
        guard_sq = (core.GUARD_FACTOR
                    * (1.0 + math.sqrt(float(est @ est)))) ** 2
        for k in range(n):
            est = est + gammas[k] * gain.evaluator(est[None], rows[k][None])[0]
            if not float(est @ est) <= guard_sq:
                return rep, k
    return None


class _Whole:
    """A model whose targets are each seed's own, as a walk's are: its
    simulate, handed out a window at a time."""

    def __init__(self, model):
        self.dim, self.width = model.dim, model.width
        self.simulate = model.simulate

    def rows(self, n, rngs):
        sims = [self.simulate(n, rng) for rng in rngs]
        return RowSource(None, [self._walk(sim) for sim in sims],
                         RowSource.each([self._rows(sim) for sim in sims]),
                         len(sims), self.width, self.dim)

    @staticmethod
    def _walk(sim):
        taken = 0

        def walk(m, out):
            nonlocal taken
            out[...] = sim.targets[taken:taken + m + 1]
            taken += m
            return out

        return walk

    @staticmethod
    def _rows(sim):
        return lambda k, m, thetas: sim.observations[k:k + m]


class TestReplications:
    def test_blocks_equal_run_tracking(self, monkeypatch):
        # three replications of one stack, 41 slots of max(w, d) = 2
        # values; each seed's targets go to the block's own buffer
        monkeypatch.setattr(core, "BLOCK_BYTES", 3 * (40 + 1) * 2 * 8)
        sched = StepSchedule(kind="static", c_gamma=2.0)
        config, model, gain = _static_setup(noise="normal", n=40, d=2,
                                            schedule=sched)
        seeds = [11 ^ rep for rep in range(7)]  # blocks of 3, 3 and 1
        blocks = list(core.run_replications(config, _Whole(model), gain,
                                            seeds))
        assert [(start, first, len(targets))
                for start, first, _, targets in blocks] \
            == [(0, 0, 3), (3, 0, 3), (6, 0, 1)]
        for start, _, estimates, targets in blocks:
            assert estimates.shape == targets.shape == (len(targets), 41, 2)
            for i, seed in enumerate(seeds[start:start + len(targets)]):
                one = run_tracking(config, model, gain, seed)
                assert estimates[i].tobytes() == one.estimates.tobytes()
                assert targets[i].tobytes() == one.targets.tobytes()

    # a budget of slots replication-slots, each a value of the observation
    # stack (w = d = 1): 8 bytes
    @pytest.mark.parametrize("slots, sizes", [
        (25, [2, 2, 1]),              # 25 // (9+1) = 2 replications a block
        (50, [5]),
        (1000, [5]),
        (10, [1, 1, 1, 1, 1]),        # exactly n+1 slots: one a block
        (3, [1, 1, 1, 1, 1]),         # fewer than n+1 slots: still one
    ])
    def test_block_size_follows_slot_budget(self, monkeypatch, slots, sizes):
        monkeypatch.setattr(core, "BLOCK_BYTES", slots * 8)
        calls = []

        def counting_track(initial, observations, *args, **kwargs):
            calls.append((initial.shape[0], observations.shape[:2]))
            return track(initial, observations, *args, **kwargs)

        track = core.track
        monkeypatch.setattr(core, "track", counting_track)
        config, model, gain = _static_setup(noise="normal", n=9)
        blocks = list(core.run_replications(config, _Whole(model), gain,
                                            range(5)))
        assert [len(targets) for _, _, _, targets in blocks] == sizes
        assert [start for start, _, _, _ in blocks] \
            == [sum(sizes[:i]) for i in range(len(sizes))]
        assert [b for b, _ in calls] == sizes
        assert all(shape == (9, b) for b, shape in calls)

    def test_shared_table_blocks_hold_one_stack(self, monkeypatch):
        # with the path's table, every block's targets are one read-only
        # view of it; a budget of four replications' stacks
        monkeypatch.setattr(core, "BLOCK_BYTES", 4 * (9 + 1) * 8)
        config, model, gain = _static_setup(theta=0.3, noise="normal", n=9)
        table = model.path.table_for(9)
        seeds = list(range(7))
        blocks = list(core.run_replications(config, model, gain, seeds))
        assert [len(t) for _, _, _, t in blocks] == [4, 3]
        for start, _, estimates, targets in blocks:
            assert not targets.flags.writeable
            assert np.shares_memory(targets, table)
            with pytest.raises(ValueError, match="read-only"):
                targets[0, 0, 0] = 1.0
            for i, seed in enumerate(seeds[start:start + len(targets)]):
                one = run_tracking(config, model, gain, seed)
                assert estimates[i].tobytes() == one.estimates.tobytes()
                assert targets[i].tobytes() == one.targets.tobytes()

    def test_windows_cover_each_slot_once_as_whole_runs_do(self,
                                                          monkeypatch):
        config, static, gain = _static_setup(theta=0.3, noise="normal", n=40)
        walk = SignalNoiseModel(make_parameter_path(
            "stabilizing", c_rho=0.5, beta=0.5), NoiseSpec("normal"))
        for model in (static, walk):
            self._check_windows(monkeypatch, config, model, gain)

    @staticmethod
    def _check_windows(monkeypatch, config, model, gain):
        # windows of 7 steps, blocks of two replications of one 8-slot
        # window stack each; each block's windows, concatenated, equal the
        # block run in one window.  A walk's targets are the block's own
        # buffer, a shared table's a read-only view
        monkeypatch.setattr(core, "WINDOW", 7)
        monkeypatch.setattr(core, "BLOCK_BYTES", 2 * (7 + 1) * 8)
        seeds = list(range(5))
        # a window's estimates and a walk's targets are views the next
        # window reuses
        windows = [(start, first, estimates.copy(), targets.copy(),
                    targets.flags.writeable)
                   for start, first, estimates, targets
                   in core.run_replications(config, model, gain, seeds)]
        assert [(start, first, estimates.shape[1])
                for start, first, estimates, _, _ in windows] == [
            (start, first, m) for start in (0, 2, 4)
            for first, m in [(0, 8), (8, 7), (15, 7), (22, 7), (29, 7),
                             (36, 5)]]
        walked = model.path.kind == "stabilizing"
        assert all(writeable == walked for *_, writeable in windows)
        # two runs of one 41-slot stack each, in one window
        monkeypatch.setattr(core, "WINDOW", 40)
        monkeypatch.setattr(core, "BLOCK_BYTES", 2 * (40 + 1) * 8)
        whole = list(core.run_replications(config, model, gain, seeds))
        assert [start for start, _, _, _ in whole] == [0, 2, 4]
        for start, _, estimates, targets in whole:
            got = [(e, t) for s, _, e, t, _ in windows if s == start]
            assert np.concatenate([e for e, _ in got], axis=1).tobytes() \
                == estimates.tobytes()
            assert np.concatenate([t for _, t in got], axis=1).tobytes() \
                == targets.tobytes()

    def test_divergence_names_lowest_replication(self):
        # in one block, replication 3 diverges at step 2 and replication
        # 1 at step 7: a one-at-a-time loop stops at replication 1 first
        model = _SpikeModel({1: 7, 3: 2})
        config, _, gain = _static_setup(n=20)
        seeds = list(range(5))
        want = _first_divergence(config, model, gain, seeds)
        assert want == (1, 7)
        with pytest.raises(TrackingDiverged) as info:
            list(core.run_replications(config, model, gain, seeds))
        assert (info.value.replication, info.value.step) == want
        assert str(info.value) == ("step 7: estimate left the guard region "
                                   "or gain went non-finite")

    # windows of 8 steps at n = 40, one block of five replications
    @pytest.mark.parametrize("spikes, heights, base, want", [
        ({2: 3}, None, 0.0, (2, 3)),              # in window 0
        ({2: 21}, None, 0.0, (2, 21)),            # in window 2
        # replication 3 trips the block at step 5, but a one-at-a-time
        # loop meets replication 1 first, at step 30 in window 3
        ({1: 30, 3: 5}, None, 0.0, (1, 30)),
        # the estimate sits at 5e5 from step 0: a guard taken from a
        # window's first estimate would pass the 2e6 row at step 21
        ({2: 21}, {2: 2e6}, 5e5, (2, 21)),
    ])
    @pytest.mark.parametrize("via", ["run_replications", "rates",
                                     "bound-check"])
    def test_streamed_divergence_names_the_plain_loops_step(
            self, monkeypatch, spikes, heights, base, want, via):
        monkeypatch.setattr(core, "WINDOW", 8)
        model = _SpikeModel(spikes, heights, base)
        config, _, gain = _static_setup(n=40)
        seeds = list(range(5))
        assert _plain_divergence(config, model, gain, seeds) == want
        with pytest.raises(TrackingDiverged) as info:
            if via == "run_replications":
                for _ in core.run_replications(config, model, gain, seeds):
                    pass
            else:
                # seed 0 makes replication r's seed r at the first horizon
                # (rates) and at every one (bounds)
                build = experiments.build_components

                def spiked(raw, n):
                    tracking, _model, gain, path = build(raw, n)
                    return tracking, model, gain, path

                monkeypatch.setattr(experiments, "build_components", spiked)
                sweep = experiments.run_rate_sweep if via == "rates" \
                    else experiments.run_bound_check
                sweep(experiments.experiment_config(via, {
                    "schedule.kind": "constant", "schedule.gamma": "1.0",
                    "experiment.horizons": "40", "experiment.seed": "0",
                    "experiment.replications": "5"}))
        assert (info.value.replication, info.value.step,
                info.value.horizon) == (*want, 40)

    def test_wrongly_shaped_gain_is_rejected(self):
        # a (B,) direction would broadcast a (B, 1) stack to (B, B)
        spec = gains.GainSpec(evaluator=lambda est, row: row[:, 0], dim=1)
        config, model, _ = _static_setup(n=5)
        with pytest.raises(ValueError, match="shape"):
            list(core.run_replications(config, model, spec, [1, 2]))

    def test_divergence_search_redraws_overwritten_rows(self):
        # one block of five noisy replications trips at step 12, after
        # it has written estimates over rows 0..12 of all five.
        # Replication 1's spike is just tall enough to diverge alone; the
        # estimate written over it is not, so a search over the block's
        # rows would miss it and name replication 3
        model = _SpikeModel({1: 12, 3: 12}, heights={1: 3e6}, scale=1.0)
        config, _, gain = _static_setup(
            n=30, schedule=StepSchedule(kind="constant", gamma=0.5))
        seeds = list(range(5))
        assert _first_divergence(config, model, gain, seeds) == (1, 12)
        with pytest.raises(TrackingDiverged) as info:
            list(core.run_replications(config, model, gain, seeds))
        assert (info.value.replication, info.value.step,
                info.value.horizon) == (1, 12, 30)

    @pytest.mark.parametrize("command, horizon",
                             [("rates", 30), ("bound-check", 60)])
    def test_main_words_a_redrawn_divergence(self, monkeypatch, capsys,
                                             tmp_path, command, horizon):
        # the same block through the CLI; seed 0 makes replication r's
        # seed r at the first horizon (rates) and at every one (bounds)
        model = _SpikeModel({1: 12, 3: 12}, heights={1: 3e6}, scale=1.0)
        build = experiments.build_components

        def spiked(raw, n):
            tracking, _model, gain, path = build(raw, n)
            return tracking, model, gain, path

        monkeypatch.setattr(experiments, "build_components", spiked)
        cfg = tmp_path / "spike.cfg"
        cfg.write_text("schedule.kind = constant\nschedule.gamma = 0.5\n"
                       "experiment.horizons = 30,60\n", encoding="utf-8")
        assert experiments.main([command, "--config", str(cfg), "--seed",
                                 "0", "--replications", "5",
                                 "--quiet"]) == 1
        assert capsys.readouterr().err == \
            f"diverged at step 12: horizon {horizon}, replication 1\n"


@pytest.mark.parametrize("d", [1, 2])
def test_run_copies_the_walks_reused_window(d):
    # past WINDOW, run_replications hands a walk's targets out of one
    # buffer that every window overwrites: run_tracking's targets must
    # still be simulate's, its estimates a plain loop's, and the run
    # subcommand's CSV the one they give
    n = 2 * core.WINDOW + 300
    raw = {"path.kind": "stabilizing", "path.c_rho": "0.5",
           "path.beta": "0.5", "model.d": str(d),
           "schedule.kind": "stabilizing", "experiment.horizons": str(n),
           "experiment.seed": "7"}
    config = experiments.experiment_config("run", raw)
    tracking, model, gain, _ = experiments.build_components(raw, n)
    run = run_tracking(tracking, model, gain, 7)
    sim = model.simulate(n, make_rng(7))
    assert run.targets.tobytes() == sim.targets.tobytes()
    est = tracking.initial_estimate.copy()
    estimates = [est]
    for k in range(n):
        est = est + run.steps[k] * gain.evaluator(
            est[None], sim.observations[k][None])[0]
        estimates.append(est)
    assert run.estimates.tobytes() == np.array(estimates).tobytes()
    header, rows = experiments.run_single(config)
    want = [(k, *estimates[k], *sim.targets[k],
             float(np.linalg.norm(estimates[k] - sim.targets[k])),
             run.steps[k - 1] if k else 0.0) for k in range(n + 1)]
    assert experiments.format_csv(header, rows) \
        == experiments.format_csv(header, want)
