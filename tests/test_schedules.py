"""Step-size schedules: closed forms, caps, regime delegation."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drifttrack.schedules import StepSchedule, default_c_gamma


def _steps(kind, n, **params):
    return StepSchedule(kind=kind, **params).values_upto(n)


# The per-index step functions the schedule module used to export, kept
# here as the reference for values_upto's bits.
def _ref_static(c_gamma, k):
    k = max(float(k), 2.0)
    return c_gamma * math.log(k) / k


def _ref_stabilizing(c_gamma, beta, k):
    if beta >= 1.5:
        return _ref_static(c_gamma, k)
    k = max(float(k), 2.0)
    return c_gamma * math.log(k) ** (1.0 / 3.0) * k ** (-2.0 * beta / 3.0)


def _ref_lipschitz(c_gamma, beta, n):
    n = max(float(n), 2.0)
    return (c_gamma * math.log(n) ** ((2 * beta - 1) / (2 * beta + 1))
            * n ** (-2 * beta / (2 * beta + 1)))


def _ref_constant(gamma):
    return gamma


def _ref_values(kind, n, c_gamma=1.0, beta=None, gamma=None, cap=math.inf,
                lambda2_guard=None):
    """gamma_0 .. gamma_{n-1} one index at a time, capped by Python's
    min(step, ceiling)."""
    ceiling = cap
    if lambda2_guard:
        ceiling = min(ceiling, 1.0 / lambda2_guard)
    term = {
        "static": lambda k: _ref_static(c_gamma, k),
        "stabilizing": lambda k: _ref_stabilizing(c_gamma, beta, k),
        "lipschitz": lambda k: _ref_lipschitz(c_gamma, beta, n),
        "constant": lambda k: _ref_constant(gamma),
    }[kind]
    return np.array([min(term(k), ceiling) for k in range(n)], dtype=float)


class TestStatic:
    def test_closed_form(self):
        # c * ln k / k at k = 7 with c = 1
        assert math.isclose(_steps("static", 8)[7], math.log(7) / 7,
                            rel_tol=1e-12)

    def test_small_k_freeze(self):
        # k < 2 reuses the k = 2 value so early steps stay bounded
        v = _steps("static", 3, c_gamma=3.0)
        assert v[0] == v[2] and v[1] == v[2]

    def test_decreasing_past_e(self):
        vals = _steps("static", 200)[3:]
        assert np.all(vals[:-1] > vals[1:])

    def test_rejects_bad_constant(self):
        for c in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="c_gamma"):
                StepSchedule(kind="static", c_gamma=c)


class TestStabilizing:
    def test_closed_form(self):
        # c (ln k)^{1/3} k^{-2 beta/3}
        got = _steps("stabilizing", 101, c_gamma=2.0, beta=0.75)[100]
        want = 2.0 * math.log(100) ** (1.0 / 3.0) * 100 ** (-0.5)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_fast_drift_delegates_to_static(self):
        # beta >= 3/2 means the drift is effectively static: the same
        # steps, bit for bit, and the static slope
        static = StepSchedule(kind="static", c_gamma=1.3)
        for beta in (1.5, 2.0, 10.0):
            sched = StepSchedule(kind="stabilizing", c_gamma=1.3, beta=beta)
            for n in (1, 2, 17, 1000):
                assert sched.values_upto(n).tobytes() \
                    == static.values_upto(n).tobytes()
            assert sched.slope == static.slope == -0.5

    def test_small_k_freeze(self):
        v = _steps("stabilizing", 3, beta=1.0)
        assert v[0] == v[2] and v[1] == v[2]

    def test_rejects_bad_beta(self):
        for beta in (0.0, -1.0, math.nan, None):
            with pytest.raises(ValueError, match="beta"):
                StepSchedule(kind="stabilizing", beta=beta)


class TestLipschitz:
    def test_closed_form(self):
        # c (ln n)^{(2b-1)/(2b+1)} n^{-2b/(2b+1)}, constant in k
        n = 10_000
        got = _steps("lipschitz", n, beta=1.0)[0]
        want = math.log(n) ** (1.0 / 3.0) * n ** (-2.0 / 3.0)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_beta_half_drops_log(self):
        # at beta = 1/2 the log exponent vanishes: plain n^{-1/2}
        assert math.isclose(_steps("lipschitz", 400, beta=0.5)[0], 0.05,
                            rel_tol=1e-12)

    def test_rejects_beta_out_of_range(self):
        for beta in (1.5, 0.0, math.nan, None):
            with pytest.raises(ValueError, match="beta"):
                StepSchedule(kind="lipschitz", beta=beta)


class TestConstant:
    def test_identity(self):
        assert np.all(_steps("constant", 3, gamma=0.05) == 0.05)

    def test_rejects_nonpositive(self):
        for gamma in (0.0, math.nan, None):
            with pytest.raises(ValueError, match="gamma"):
                StepSchedule(kind="constant", gamma=gamma)


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
        # every kind, against the per-index terms capped by
        # min(cap, 1/lambda2): the guard binds first, then the cap alone
        n = 50
        terms = {
            "static": dict(c_gamma=2.0),
            "stabilizing": dict(c_gamma=0.5, beta=0.75),
            "lipschitz": dict(c_gamma=2.0, beta=1.0),
            "constant": dict(gamma=0.9),
        }
        for cap, guard in ((0.3, 4.0), (0.2, None)):
            for kind, args in terms.items():
                vals = _steps(kind, n, cap=cap, lambda2_guard=guard, **args)
                want = _ref_values(kind, n, cap=cap, lambda2_guard=guard,
                                   **args)
                assert vals.shape == (n,)
                assert vals.tobytes() == want.tobytes(), kind

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StepSchedule(kind="nope")

    def test_checks_only_what_the_kind_reads(self):
        # a kind ignores the parameters of the others, however bad
        StepSchedule(kind="static", beta=-1.0, gamma=0.0)
        StepSchedule(kind="lipschitz", beta=1.0, gamma=-1.0)
        StepSchedule(kind="constant", gamma=0.5, c_gamma=-1.0, beta=9.0)
        with pytest.raises(ValueError, match="cap"):
            StepSchedule(kind="constant", gamma=0.5, cap=0.0)

    def test_slope_per_kind(self):
        slope = lambda kind, **p: StepSchedule(kind=kind, **p).slope
        assert slope("static") == -0.5
        assert slope("stabilizing", beta=0.75) == -0.25
        assert slope("stabilizing", beta=1.49) == -1.49 / 3.0
        assert slope("lipschitz", beta=1.0) == -1.0 / 3.0
        assert slope("constant", gamma=0.1) is None


def test_values_upto_is_the_per_index_terms_bitwise():
    # every kind over constants, betas on both sides of 3/2, caps and
    # guards that bind or not, and horizons from 1 to past 10,000
    grid = {
        "static": [{}],
        "stabilizing": [dict(beta=b) for b in
                        (0.25, 0.5, 0.75, 1.0, 1.25, 1.4999, 1.5, 2.0)],
        "lipschitz": [dict(beta=b) for b in (0.25, 0.5, 0.75, 1.0)],
        "constant": [dict(gamma=g) for g in (0.05, 0.9, 3.0)],
    }
    ceilings = [dict(), dict(cap=0.3, lambda2_guard=4.0),
                dict(cap=0.2), dict(lambda2_guard=0.5)]
    for (kind, params), c, ceiling, n in itertools.product(
            [(k, p) for k, ps in grid.items() for p in ps],
            (0.5, 2.0, 7.3), ceilings, (1, 2, 3, 1000, 10_007)):
        args = dict(params, c_gamma=c, **ceiling)
        got = _steps(kind, n, **args)
        assert got.tobytes() == _ref_values(kind, n, **args).tobytes(), \
            (kind, args, n)


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


@given(n=st.integers(min_value=1, max_value=3_000),
       beta=st.floats(min_value=0.01, max_value=5.0),
       c=st.floats(min_value=0.01, max_value=100.0))
@example(n=10**6, beta=1.49, c=0.01)
@example(n=10**6, beta=0.01, c=100.0)
@settings(deadline=None)  # a horizon of 1e6 builds in about 0.5 s
def test_stabilizing_positive_and_finite(n, beta, c):
    v = _steps("stabilizing", n, c_gamma=c, beta=beta)
    assert np.all(v > 0.0) and np.all(v < math.inf)


@given(n=st.integers(min_value=2, max_value=10**6),
       beta=st.floats(min_value=0.5, max_value=1.0))
def test_lipschitz_rate_monotone_in_horizon(n, beta):
    a = _steps("lipschitz", n, beta=beta)[0]
    b = _steps("lipschitz", 4 * n, beta=beta)[0]
    assert b < a
