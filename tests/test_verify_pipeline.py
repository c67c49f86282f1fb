"""The verify sweep's draw-ahead worker: same rows, same bytes, no leaks."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drifttrack import bounds, gains
from drifttrack import experiments as ex
from drifttrack.experiments import (
    FILL_ROWS,
    ConfigError,
    StackSampler,
    experiment_config,
    main,
    parse_config_text,
    run_condition_verify,
)
from drifttrack.models import make_rng

_TESTS = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_TESTS, os.pardir, "src")

# ---------------------------------------------------------------------
# The fixture samplers as they were written before the fills: one call
# on the whole stack, each allocating its rows.
# ---------------------------------------------------------------------

def _old_signal_noise(rng, size):
    return 0.3 + rng.normal(0.0, 1.0, size)


def _old_gaussian(rng, size):
    rows = rng.normal(size=(size, 2))
    rows *= np.sqrt(np.array([2.0, 4.0]))
    rows += np.array([0.5, -0.3])
    return rows


def _old_quantile(rng, size):
    return rng.uniform(0.0, 1.0, size)


def _old_arch(rng, size):
    rows = np.empty((size, 2))
    np.multiply(math.sqrt(1.0 + 0.5 * 1.0 * 1.0), rng.normal(size=size),
                out=rows[:, 0])
    rows[:, 1] = 1.0
    return rows


def _old_ar1(rng, size):
    rows = np.empty((size, 2))
    np.add(0.5 * 1.5, rng.normal(size=size), out=rows[:, 0])
    rows[:, 1] = 1.5
    return rows


def _old_moulines(rng, size):
    lags = np.array([1.0, 0.5])
    rows = np.empty((size, 3))
    np.add(float(np.array([0.5, 0.2]) @ lags), rng.normal(size=size),
           out=rows[:, 0])
    rows[:, 1:] = lags
    return rows


OLD_SAMPLERS = {
    "signal_noise": _old_signal_noise,
    "gaussian": _old_gaussian,
    "quantile": _old_quantile,
    "arch1_truncated": _old_arch,
    "ar1_truncated": _old_ar1,
    "moulines_d2": _old_moulines,
}


def _serial_verify(config, samplers):
    """The verify loop as it ran before the worker: every draw on this
    thread, from one make_rng(seed), through each fixture's sampler."""
    registry = ex.builtin_fixtures()
    n_samples = int(config.raw.get("verify.samples", 20_000))
    names = [n.strip() for n in config.raw["verify.fixtures"].split(",")]
    rng = make_rng(config.seed)
    rows = []
    for name in names:
        fixture = registry[name]
        report = bounds.verify_A1_empirical(
            fixture.gain_eval, samplers[name], fixture.theta,
            fixture.probes, n_samples, rng,
            lambda1=fixture.lambda1, lipschitz=fixture.lipschitz)
        probe_rows = []
        for res in report.probes:
            a2 = bounds.verify_A2_empirical(
                fixture.gain_eval, samplers[name], res.probe, n_samples,
                rng, c_g=fixture.c_g)
            probe_rows.append((len(rows) + len(probe_rows), res.r_hat,
                               res.r_se, res.g_norm_ratio, a2.second_moment,
                               res.passed and a2.passed))
        rows.extend(probe_rows)
    return rows


def _config(text, seed=None):
    overrides = {} if seed is None else {"seed": seed}
    return experiment_config("verify", parse_config_text(text), overrides)


@pytest.mark.parametrize("fixtures", ["moulines_d2, quantile", "gaussian"])
@pytest.mark.parametrize("samples", [10_000, 10_007])
@pytest.mark.parametrize("seed", [1, 7, 20260823])
def test_rows_match_serial_loop(seed, samples, fixtures):
    config = _config(f"verify.samples = {samples}\n"
                     f"verify.fixtures = {fixtures}\n", seed)
    want = _serial_verify(config, OLD_SAMPLERS)
    got = run_condition_verify(config).rows
    assert ex.format_csv(ex.VERIFY_HEADER, got) \
        == ex.format_csv(ex.VERIFY_HEADER, want)
    assert np.array(got).tobytes() == np.array(want).tobytes()


# The fixtures at a pinned past: the old rows' columns past the first
# held the pinned past, which the fixture's gain_eval now supplies, so
# their rows hold X_k alone (moulines_d2 keeps a second column, a fixed 0,
# for its d = 2 gains to be written over).
PINNED = ("arch1_truncated", "ar1_truncated", "moulines_d2")

# the evaluators the fixtures applied to the old rows
OLD_GAIN_EVALS = {
    "arch1_truncated": gains.arch1_spec(trunc=1.0).evaluator,
    "ar1_truncated": gains.ar1_truncated_spec(trunc=1.5).evaluator,
    "moulines_d2": lambda est, rows: gains.ar_normalized_vector_gain(
        est, rows[:, 0], rows[:, 1:], mu=1.0),
}


# sizes at the edges of a 4,096-row and a FILL_ROWS-row fill, and over
# several fills
@pytest.mark.parametrize("size", sorted({
    1, 2, 3, 4095, 4096, 4097, 10_007, 12_293, FILL_ROWS - 1, FILL_ROWS,
    FILL_ROWS + 1, 3 * FILL_ROWS + 5}))
@pytest.mark.parametrize("name", list(OLD_SAMPLERS))
def test_fill_gives_old_sampler_bytes(name, size):
    # the drawn columns carry the old sampler's bytes
    sampler = ex.builtin_fixtures()[name].sampler
    want = OLD_SAMPLERS[name](make_rng(11), size).reshape(size, -1)
    drawn = 1 if name in PINNED else want.shape[1]
    got = sampler(make_rng(11), size)
    assert got.shape == ((size,) if sampler.width == 1
                         else (size, sampler.width))
    got = got.reshape(size, -1)
    assert got[:, :drawn].tobytes() == want[:, :drawn].tobytes()
    assert got[:, drawn:].tobytes() \
        == np.zeros((size, sampler.width - drawn)).tobytes()
    # filling a given stack draws the same rows
    stack = np.full((size, sampler.width), np.nan)
    sampler.fill_rows(make_rng(11), stack)
    assert stack.tobytes() == got.tobytes()


def test_pinned_fixtures_draw_only_x_k():
    fixtures = ex.builtin_fixtures()
    assert {name: fixtures[name].sampler.width for name in PINNED} \
        == {"arch1_truncated": 1, "ar1_truncated": 1, "moulines_d2": 2}


# the verifiers' leaves hold at most bounds._LEAF rows; 128 is the
# smallest a pairwise sum splits into
_PINNED_LEAVES = [1, 127, 128, bounds._LEAF - 1, bounds._LEAF]


def _check_pinned_gains(name, leaves, seed, probes):
    """The fixture's gain_eval on its new rows equals, bit for bit, the
    old evaluator on the old rows, leaf by leaf: the rows split into
    leaves of the given sizes in turn, then a 37-row tail.  One gain_eval
    serves every leaf, as in a verifier, so its buffer grows and shrinks
    between calls."""
    n = sum(leaves) + 37
    old = OLD_SAMPLERS[name](make_rng(seed), n)
    fixture = ex.builtin_fixtures()[name]
    new = fixture.sampler(make_rng(seed), n).reshape(n, -1)
    edges = np.cumsum([0, *leaves, 37])
    for probe in probes:
        probe = np.asarray(probe, dtype=float)
        for a, b in zip(edges[:-1], edges[1:]):
            want = OLD_GAIN_EVALS[name](probe, old[a:b])
            got = fixture.gain_eval(probe, new[a:b])
            assert got.shape == want.shape == (b - a, probe.size)
            assert got.tobytes() == want.tobytes(), (name, probe, a, b)


@pytest.mark.parametrize("name", PINNED)
@given(leaves=st.lists(st.sampled_from(_PINNED_LEAVES), min_size=1,
                       max_size=4),
       seed=st.integers(0, 2 ** 32 - 1),
       shift=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
@settings(max_examples=20, deadline=None)
def test_pinned_gain_eval_matches_old_rows(name, leaves, seed, shift):
    fixture = ex.builtin_fixtures()[name]
    extra = fixture.theta + np.array(shift[:fixture.theta.size])
    _check_pinned_gains(name, leaves, seed, [*fixture.probes, extra])


@pytest.mark.parametrize("threads", ["1", None])
def test_moulines_gains_match_old_rows_at_each_blas_setting(threads):
    # moulines_d2's x_lags @ theta goes through OpenBLAS's gemv, whose
    # threads are fixed when numpy loads, so each setting runs in a fresh
    # interpreter
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, _TESTS, env.get("PYTHONPATH")) if p)
    code = ("import numpy as np, test_verify_pipeline as t\n"
            "fx = t.ex.builtin_fixtures()['moulines_d2']\n"
            "rng = np.random.default_rng(3)\n"
            "probes = [*fx.probes, *(fx.theta + rng.uniform(-2, 2, (3, 2)))]\n"
            "for leaf in t._PINNED_LEAVES:\n"
            "    t._check_pinned_gains('moulines_d2', [leaf] * 3, leaf, probes)\n"
            "print('ok')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


class _Boom(Exception):
    pass


def _failing_fixtures(monkeypatch, fail_at_fill):
    """builtin_fixtures with the quantile fill raising on its
    fail_at_fill-th call; returns the list the raised error lands in."""
    real = ex.builtin_fixtures
    raised = []
    calls = []
    quantile = real()["quantile"]

    def fill(rng, rows):
        calls.append(len(rows))
        if len(calls) == fail_at_fill:
            raised.append(_Boom(f"fill call {len(calls)}"))
            raise raised[-1]
        quantile.sampler.fill(rng, rows)

    def patched():
        fx = real()
        fx["quantile"] = dataclasses.replace(
            quantile, sampler=StackSampler(1, fill))
        return fx

    monkeypatch.setattr(ex, "builtin_fixtures", patched)
    return raised, calls


# a stack of _FAIL_SAMPLES rows is three fills; the quantile fixture,
# second in the plan, draws 4 A1 stacks and then 4 A2 stacks, so the
# cases fail its first fill, a later fill of its first stack, its third
# A1 stack and its third A2 stack
_FAIL_SAMPLES = 2 * FILL_ROWS + 1


@pytest.mark.parametrize("fail_at_fill", [1, 2, 2 * 3 + 2, 6 * 3 + 2])
def test_sampler_error_propagates_and_worker_ends(monkeypatch,
                                                  fail_at_fill):
    raised, calls = _failing_fixtures(monkeypatch, fail_at_fill)
    before = threading.active_count()
    config = _config(f"verify.samples = {_FAIL_SAMPLES}\n"
                     "verify.fixtures = gaussian, quantile\n")
    with pytest.raises(_Boom) as info:
        run_condition_verify(config)
    assert info.value is raised[0]
    assert calls[:fail_at_fill] \
        == ([FILL_ROWS, FILL_ROWS, 1] * 8)[:fail_at_fill]
    assert threading.active_count() == before


def test_gain_error_on_caller_stops_worker(monkeypatch):
    real = ex.builtin_fixtures
    seen = []

    def gain_eval(est, rows):
        seen.append(1)
        if len(seen) == 3:
            raise _Boom("gain")
        return real()["gaussian"].gain_eval(est, rows)

    def patched():
        fx = real()
        fx["gaussian"] = dataclasses.replace(fx["gaussian"],
                                             gain_eval=gain_eval)
        return fx

    monkeypatch.setattr(ex, "builtin_fixtures", patched)
    before = threading.active_count()
    with pytest.raises(_Boom):
        run_condition_verify(_config("verify.samples = 10000\n"
                                     "verify.fixtures = gaussian\n"))
    assert threading.active_count() == before


def test_unknown_fixture_after_valid_one_draws_nothing(monkeypatch,
                                                       tmp_path, capsys):
    _raised, calls = _failing_fixtures(monkeypatch, fail_at_fill=0)
    text = "verify.samples = 10000\nverify.fixtures = quantile, nope\n"
    with pytest.raises(ConfigError, match="nope"):
        run_condition_verify(_config(text))
    cfg = tmp_path / "v.cfg"
    cfg.write_text(text)
    assert main(["verify", "--config", str(cfg), "--quiet",
                 "--out", str(tmp_path / "v.csv")]) == 2
    assert "unknown verify fixture 'nope'" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "v.csv").exists()


def test_stacks_stay_intact_until_the_next_draw():
    # several draw-ahead workers at once, with a short switch interval,
    # each caller checking that its stack is unchanged after working on
    # it: a refill before the next request would change it
    sampler = ex.builtin_fixtures()["moulines_d2"].sampler
    n, draws_per_plan = 10_000, 12
    rng = make_rng(5)
    want = [hashlib.sha256(sampler(rng, n).tobytes()).hexdigest()
            for _ in range(draws_per_plan)]
    failures = []

    def consume():
        got = []
        with ThreadPoolExecutor(max_workers=1) as pool:
            next_rows = ex._draw_ahead(pool, [sampler] * draws_per_plan, n,
                                       make_rng(5))
            for _ in range(draws_per_plan):
                stack = next_rows(None, n)
                digest = hashlib.sha256(stack.tobytes()).hexdigest()
                np.sort(stack, axis=0)  # work while the worker draws
                if hashlib.sha256(stack.tobytes()).hexdigest() != digest:
                    failures.append("stack changed under its reader")
                got.append(digest)
        if got != want:
            failures.append("rows differ from a serial draw")

    before = threading.active_count()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=consume) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert threading.active_count() == before


def test_draw_outside_the_plan_rejected():
    sampler = ex.builtin_fixtures()["quantile"].sampler
    with ThreadPoolExecutor(max_workers=1) as pool:
        next_rows = ex._draw_ahead(pool, [sampler], 10_000, make_rng(0))
        with pytest.raises(RuntimeError):
            next_rows(None, 10_001)
        next_rows(None, 10_000)
        with pytest.raises(RuntimeError):
            next_rows(None, 10_000)


# tracemalloc's peak over one run_condition_verify at verify.samples =
# 100_000, all fixtures, seed 1, after one untraced warm-up run, measured
# on the commit before the draw-ahead worker (max of three runs, numpy
# 2.4, Python 3.11, Linux x86-64).
SERIAL_TRACED_PEAK = 8_944_926


def test_traced_peak_within_five_percent_of_serial():
    config = _config("verify.samples = 100000\n")
    run_condition_verify(config)
    tracemalloc.start()
    try:
        run_condition_verify(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * SERIAL_TRACED_PEAK, peak


def test_traced_peak_is_the_two_row_slots_and_leaf_temporaries():
    # the verifiers write gains over the rows they consumed, and the rows
    # hold only what the fills draw, so beside the two (N, 2) draw slots
    # only leaf-sized temporaries remain: 1,091,055 bytes over the slots
    # at N = 100_000 (max of three runs, numpy 2.4, Python 3.11), against
    # 1,122,863 before ar_normalized_vector_gain formed its scale in
    # place.  moulines_d2's row buffer of about 0.3 MB is among them;
    # one more full (N,) stack would add 0.8 MB
    n = 100_000
    config = _config(f"verify.samples = {n}\n")
    run_condition_verify(config)
    tracemalloc.start()
    try:
        run_condition_verify(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slots = 2 * n * 2 * 8
    assert peak <= slots + 1_110_000, peak - slots


def test_draw_ahead_allocates_two_slots_of_n_by_2():
    # every stack of the built-in plan lies in one of two (n, 2) slots
    n = 10_007
    fixtures = ex.builtin_fixtures().values()
    plan = [fx.sampler for fx in fixtures for _ in range(2 * len(fx.probes))]
    tracemalloc.start()
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            before = tracemalloc.get_traced_memory()[0]
            next_rows = ex._draw_ahead(pool, plan, n, make_rng(1))
            held = tracemalloc.get_traced_memory()[0] - before
            stacks = [next_rows(None, n) for _ in plan]
    finally:
        tracemalloc.stop()
    assert 2 * n * 2 * 8 <= held < 2 * n * 2 * 8 + 16_384
    slots = {id(stack.base): stack.base for stack in stacks}
    assert sorted(base.shape for base in slots.values()) == [(2 * n,)] * 2
    assert [stack.shape for stack in stacks] \
        == [(n, s.width) for s in plan]
