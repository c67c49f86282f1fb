"""Step-size schedules: closed forms, caps, regime delegation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from drifttrack.schedules import (
    StepSchedule,
    default_c_gamma,
    schedule_constant,
    schedule_lipschitz,
    schedule_stabilizing,
    schedule_static,
)


class TestStatic:
    def test_closed_form(self):
        # c * ln k / k at k = e^2 with c = 1 gives 2 / e^2
        k = math.exp(2.0)
        assert math.isclose(schedule_static(1.0, k), 2.0 / math.exp(2.0),
                            rel_tol=1e-12)

    def test_small_k_freeze(self):
        # k < 2 reuses the k = 2 value so early steps stay bounded
        v2 = schedule_static(3.0, 2)
        assert schedule_static(3.0, 1) == v2
        assert schedule_static(3.0, 0) == v2

    def test_decreasing_past_e(self):
        vals = [schedule_static(1.0, k) for k in range(3, 200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_constant(self):
        with pytest.raises(ValueError):
            schedule_static(0.0, 5)


class TestStabilizing:
    def test_closed_form(self):
        # c (ln k)^{1/3} k^{-2 beta/3}
        got = schedule_stabilizing(2.0, 0.75, 100)
        want = 2.0 * math.log(100) ** (1.0 / 3.0) * 100 ** (-0.5)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_fast_drift_delegates_to_static(self):
        # beta >= 3/2 means the drift is effectively static
        for beta in (1.5, 2.0, 10.0):
            for k in (2, 17, 1000):
                assert schedule_stabilizing(1.3, beta, k) \
                    == schedule_static(1.3, k)

    def test_small_k_freeze(self):
        assert schedule_stabilizing(1.0, 1.0, 1) == schedule_stabilizing(1.0, 1.0, 2)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            schedule_stabilizing(1.0, 0.0, 5)


class TestLipschitz:
    def test_closed_form(self):
        # c (ln n)^{(2b-1)/(2b+1)} n^{-2b/(2b+1)}, constant in k
        n = 10_000
        got = schedule_lipschitz(1.0, 1.0, n)
        want = math.log(n) ** (1.0 / 3.0) * n ** (-2.0 / 3.0)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_beta_half_drops_log(self):
        # at beta = 1/2 the log exponent vanishes: plain n^{-1/2}
        assert math.isclose(schedule_lipschitz(1.0, 0.5, 400), 0.05,
                            rel_tol=1e-12)

    def test_rejects_beta_out_of_range(self):
        with pytest.raises(ValueError):
            schedule_lipschitz(1.0, 1.5, 100)
        with pytest.raises(ValueError):
            schedule_lipschitz(1.0, 0.0, 100)


class TestConstant:
    def test_identity(self):
        assert schedule_constant(0.05) == 0.05

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            schedule_constant(0.0)


class TestDefaultCGamma:
    def test_four_over_lambda1(self):
        assert default_c_gamma(2.0) == 2.0
        assert default_c_gamma(0.5) == 8.0

    def test_unknown_lambda1(self):
        assert default_c_gamma(None) == 1.0


class TestStepScheduleObject:
    def test_cap_and_guard(self):
        sched = StepSchedule(kind="constant", gamma=0.9,
                             cap=0.5, lambda2_guard=4.0)
        # guard 1/lambda2 = 0.25 is tighter than cap 0.5
        assert sched.values_upto(11)[10] == 0.25

    def test_lipschitz_constant_in_k(self):
        sched = StepSchedule(kind="lipschitz", beta=1.0, c_gamma=2.0)
        vals = sched.values_upto(500)
        assert len({vals[k] for k in (0, 1, 7, 499)}) == 1

    def test_values_upto_matches_value(self):
        # every kind, against the public schedule_* functions capped by
        # min(cap, 1/lambda2): the guard binds first, then the cap alone
        n = 50
        terms = {
            "static": (dict(c_gamma=2.0), lambda k: schedule_static(2.0, k)),
            "stabilizing": (dict(c_gamma=0.5, beta=0.75),
                            lambda k: schedule_stabilizing(0.5, 0.75, k)),
            "lipschitz": (dict(c_gamma=2.0, beta=1.0),
                          lambda k: schedule_lipschitz(2.0, 1.0, n)),
            "constant": (dict(gamma=0.9), lambda k: schedule_constant(0.9)),
        }
        for cap, guard in ((0.3, 4.0), (0.2, None)):
            ceiling = min(cap, 1.0 / guard) if guard else cap
            for kind, (args, term) in terms.items():
                sched = StepSchedule(kind=kind, cap=cap, lambda2_guard=guard,
                                     **args)
                vals = sched.values_upto(n)
                want = np.array([min(term(k), ceiling) for k in range(n)])
                assert vals.shape == (n,)
                assert vals.tobytes() == want.tobytes(), kind

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StepSchedule(kind="nope")


@given(n=st.integers(min_value=1, max_value=2_000),
       c=st.floats(min_value=0.01, max_value=100.0),
       lam2=st.floats(min_value=0.01, max_value=100.0))
def test_guard_always_honored(n, c, lam2):
    # every step k < n; c ln k / k peaks at k = 3, so the guard binds
    # hardest inside any window that reaches it
    sched = StepSchedule(kind="static", c_gamma=c, lambda2_guard=lam2)
    v = sched.values_upto(n)
    assert np.all(v > 0.0) and np.all(v <= 1.0 / lam2 + 1e-15)
    assert np.all(v * lam2 <= 1.0 + 1e-12)  # contraction precondition


@given(k=st.integers(min_value=0, max_value=10**7),
       beta=st.floats(min_value=0.01, max_value=5.0),
       c=st.floats(min_value=0.01, max_value=100.0))
def test_stabilizing_positive_and_finite(k, beta, c):
    v = schedule_stabilizing(c, beta, k)
    assert 0.0 < v < math.inf


@given(n=st.integers(min_value=2, max_value=10**6),
       beta=st.floats(min_value=0.5, max_value=1.0))
def test_lipschitz_rate_monotone_in_horizon(n, beta):
    a = schedule_lipschitz(1.0, beta, n)
    b = schedule_lipschitz(1.0, beta, 4 * n)
    assert b < a
