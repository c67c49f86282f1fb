"""Error-bound evaluators and Monte-Carlo condition verifiers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drifttrack import bounds, gains, linalg
from drifttrack.bounds import (
    BoundInputs,
    bias_from_parameter_gap,
    biased_bound,
    bp_constant,
    estimate_oscillation,
    lemma_truncated_moment_check,
    theorem1_bound,
    theorem2_bound,
    verify_A1_empirical,
    verify_A2_empirical,
)
from drifttrack.models import make_rng


def _inputs(**kw):
    base = dict(lambda1=1.0, lambda2=1.0, c_g=1.0, c_theta=0.5,
                c_theta_bar=0.5, gammas=np.full(10, 0.1))
    base.update(kw)
    return BoundInputs(**base)


class TestBoundInputs:
    def test_rejects_bad_eigen_order(self):
        with pytest.raises(ValueError):
            _inputs(lambda1=2.0, lambda2=1.0)

    def test_contraction_check_names_index(self):
        inp = _inputs(lambda2=1.0, gammas=np.array([0.5, 2.0, 0.5]))
        with pytest.raises(ValueError, match="index 1"):
            inp.check_contraction()


class TestTheorem1:
    def test_zero_steps_gives_c1(self):
        inp = _inputs(gammas=np.zeros(5))
        want = math.sqrt(2.0) * math.sqrt(1.0)  # sqrt(2 (0.5 + 0.5))
        assert math.isclose(theorem1_bound(inp, 0.0), want, rel_tol=1e-12)

    def test_hand_evaluated_value(self):
        # lambda1=lambda2=1, C_g=1, C_theta=C_theta_bar=0.5, ten steps of
        # 0.1, no drift: sqrt(2) e^{-1/2} + 2 sqrt(0.1) = 1.49022...
        inp = _inputs()
        want = math.sqrt(2.0) * math.exp(-0.5) + 2.0 * math.sqrt(0.1)
        got = theorem1_bound(inp, 0.0)
        assert math.isclose(got, want, rel_tol=1e-12)
        assert abs(got - 1.49022) < 5e-6

    def test_oscillation_term_linear(self):
        inp = _inputs()
        base = theorem1_bound(inp, 0.0)
        assert math.isclose(theorem1_bound(inp, 0.3) - base, 0.6,
                            rel_tol=1e-12)

    def test_precondition_enforced(self):
        inp = _inputs(lambda2=1.0, gammas=np.array([1.5]))
        with pytest.raises(ValueError):
            theorem1_bound(inp, 0.0)

    def test_rejects_negative_oscillation(self):
        with pytest.raises(ValueError):
            theorem1_bound(_inputs(), -0.1)


class TestBpConstant:
    def test_p2_value(self):
        # (18 * 2^{5/2})^2 = 324 * 32 = 10368
        assert math.isclose(bp_constant(2.0), 10368.0, rel_tol=1e-12)

    def test_p1_uses_knob(self):
        assert bp_constant(1.0) == 2.0
        assert bp_constant(1.0, b1=7.0) == 7.0

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            bp_constant(0.5)


class TestTheorem2:
    def test_p1_d1_leading_constant(self):
        # C1' = 3^0 * 1 = 1: zero steps, zero osc, unit initial moment
        inp = _inputs(p=1.0, g_bar=1.0, gammas=np.zeros(3))
        assert math.isclose(theorem2_bound(inp, 1.0, 0.0), 1.0, rel_tol=1e-12)

    def test_p2_d1_leading_constant(self):
        # C1' = 3 * K_2^2 = 3 at d=1
        inp = _inputs(p=2.0, g_bar=1.0, gammas=np.zeros(3))
        assert math.isclose(theorem2_bound(inp, 1.0, 0.0), 3.0, rel_tol=1e-12)

    def test_p2_d1_noise_constant(self):
        # with unit gammas sum of squares S: C2' = 3 * 4 * 10368 * ratio^2,
        # ratio = 1 + lambda2/lambda1 = 2 -> 497664 S
        inp = _inputs(p=2.0, g_bar=1.0, gammas=np.array([0.1]))
        got = theorem2_bound(inp, 0.0, 0.0)
        assert math.isclose(got, 3.0 * 4.0 * 10368.0 * 4.0 * 0.01,
                            rel_tol=1e-12)

    def test_requires_g_bar(self):
        inp = _inputs(p=2.0)
        with pytest.raises(ValueError):
            theorem2_bound(inp, 1.0, 0.0)

    def test_monotone_in_step_energy(self):
        a = theorem2_bound(_inputs(p=2.0, g_bar=1.0,
                                   gammas=np.full(10, 0.05)), 1.0, 0.1)
        b = theorem2_bound(_inputs(p=2.0, g_bar=1.0,
                                   gammas=np.full(10, 0.1)), 1.0, 0.1)
        assert b > a


class TestBiasedBound:
    def test_zero_bias_reduces_to_theorem1(self):
        inp = _inputs()
        assert biased_bound(inp, np.zeros(10), "L1", 0.2) \
            == theorem1_bound(inp, 0.2)

    def test_zero_bias_reduces_to_theorem2(self):
        inp = _inputs(p=2.0, g_bar=1.0)
        got = biased_bound(inp, np.zeros(10), "Lp", 0.3, 1.0)
        want = theorem2_bound(inp, 1.0, 0.3 ** 2)
        assert got == want

    def test_l1_hand_sum(self):
        # C3 = 2, ten steps gamma=0.1, eta=0.5 -> extra 2 * 0.5 = 1.0
        inp = _inputs()
        base = theorem1_bound(inp, 0.0)
        got = biased_bound(inp, np.full(10, 0.5), "L1", 0.0)
        assert math.isclose(got - base, 1.0, rel_tol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            biased_bound(_inputs(), np.zeros(3), "L1")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            biased_bound(_inputs(), np.zeros(10), "L3")

    def test_case_one_helper(self):
        eps = np.array([0.1, 0.2, 0.0])
        got = bias_from_parameter_gap(eps, lambda2=3.0)
        assert np.allclose(got, 3.0 * eps)

    def test_monotone_in_bias(self):
        inp = _inputs()
        a = biased_bound(inp, np.full(10, 0.1), "L1")
        b = biased_bound(inp, np.full(10, 0.2), "L1")
        assert b > a


class TestEstimateOscillation:
    def test_static_zero(self):
        path = np.tile([1.0, 2.0], (20, 1))
        assert estimate_oscillation(path) == 0.0

    def test_linear_drift(self):
        v = np.array([0.3, -0.4])  # norm 0.5
        path = np.arange(11)[:, None] * v
        assert math.isclose(estimate_oscillation(path, p=2.0, k0=0), 5.0)

    def test_stabilizing_budget(self):
        from drifttrack.models import make_parameter_path
        path = make_parameter_path("stabilizing", dim=2, c_rho=1.0, beta=1.0)
        out = path.sample(200, make_rng(0))
        k0 = 50
        budget = sum(1.0 / i for i in range(k0, 201))
        assert estimate_oscillation(out, p=2.0, k0=k0) <= budget + 1e-9

    def test_replication_stack_mean(self):
        a = np.zeros((5, 1))
        b = np.arange(5, dtype=float)[:, None]
        stack = np.stack([a, b])
        assert math.isclose(estimate_oscillation(stack, p=2.0, k0=0), 2.0)

    def test_1d_path(self):
        assert estimate_oscillation(np.array([0.0, 1.0, -2.0])) == 2.0


class TestVerifyA1:
    def test_signal_noise_exact_contraction(self):
        spec = gains.signal_noise_spec(1, noise_var=1.0)
        sampler = lambda rng, n: 0.3 + rng.standard_normal(n)
        report = verify_A1_empirical(spec.evaluator, sampler, [0.3],
                                     probes=[[1.0], [-0.5], [0.31]],
                                     n_samples=20_000, rng=make_rng(0),
                                     lambda1=1.0, lipschitz=1.0)
        assert report.passed
        for probe in report.probes:
            assert abs(probe.r_hat - 1.0) <= 4.0 * probe.r_se + 1e-9

    def test_gaussian_cov_eig_range(self):
        cov = np.diag([2.0, 4.0])
        spec = gains.gaussian_known_cov_spec(cov)
        theta = np.array([0.1, -0.2])
        root = np.diag(np.sqrt(np.diag(cov)))

        def sampler(rng, n):
            return theta + rng.standard_normal((n, 2)) @ root

        report = verify_A1_empirical(spec.evaluator, sampler, theta,
                                     probes=[[1.1, -0.2], [0.1, 0.8],
                                             [0.6, 0.3]],
                                     n_samples=40_000, rng=make_rng(1),
                                     lambda1=0.25, lipschitz=0.5)
        assert report.passed
        for probe in report.probes:
            assert probe.r_hat >= 0.25 - 4.0 * probe.r_se
            assert probe.r_hat <= 0.5 + 4.0 * probe.r_se

    def test_quantile_closed_form(self):
        spec = gains.quantile_spec(0.5, density_floor=1.0, density_cap=1.0)
        sampler = lambda rng, n: rng.uniform(0.0, 1.0, n)
        report = verify_A1_empirical(spec.evaluator, sampler, [0.5],
                                     probes=[[0.6]], n_samples=100_000,
                                     rng=make_rng(2), lambda1=1.0)
        probe = report.probes[0]
        # mean gain at probe 0.6 is 0.5 - P(X <= 0.6) = -0.1, so r = 1
        assert abs(probe.r_hat - 1.0) <= 4.0 * probe.r_se
        assert report.passed

    def test_rank_one_gain_fails_at_d2(self):
        # the normalized AR vector gain has zero contraction along
        # directions orthogonal to the pinned lag vector
        x = np.array([1.0, 0.5])
        theta = np.array([0.2, 0.1])

        def sampler(rng, n):
            resp = float(x @ theta) + rng.standard_normal(n)
            return np.column_stack([resp, np.tile(x, (n, 1))])

        def evaluator(est, rows):
            return gains.ar_normalized_vector_gain(est, rows[..., 0],
                                                   rows[..., 1:], mu=1.0)

        probe = theta + np.array([-0.5, 1.0]) * 0.3  # orthogonal to x
        report = verify_A1_empirical(evaluator, sampler, theta, [probe],
                                     n_samples=20_000, rng=make_rng(3),
                                     lambda1=0.2)
        assert not report.passed
        assert abs(report.probes[0].r_hat) <= 1e-9  # exactly zero mean

    def test_too_few_samples_rejected(self):
        spec = gains.signal_noise_spec(1)
        with pytest.raises(ValueError):
            verify_A1_empirical(spec.evaluator, lambda r, n: np.zeros(n),
                                [0.0], [[1.0]], 100, make_rng(0))

    def test_probe_at_truth_rejected(self):
        spec = gains.signal_noise_spec(1)
        with pytest.raises(ValueError):
            verify_A1_empirical(spec.evaluator,
                                lambda r, n: np.zeros(n), [0.5], [[0.5]],
                                20_000, make_rng(0))


class TestVerifyA2:
    def test_deterministic_gain_zero(self):
        evaluator = lambda est, rows: np.full((rows.shape[0], 1), 0.7)
        report = verify_A2_empirical(evaluator,
                                     lambda r, n: np.zeros(n), [0.0],
                                     20_000, make_rng(0), c_g=0.1)
        assert report.second_moment <= 1e-28
        assert report.passed

    def test_signal_noise_unit_variance(self):
        spec = gains.signal_noise_spec(1, noise_var=1.0)
        sampler = lambda rng, n: 0.3 + rng.standard_normal(n)
        report = verify_A2_empirical(spec.evaluator, sampler, [1.0],
                                     100_000, make_rng(1), c_g=1.0)
        assert abs(report.second_moment - 1.0) <= 4.0 * report.se
        assert report.passed

    def test_truncated_gain_bounded_by_4_kappa_sq(self):
        kappa = 0.7
        spec = gains.signal_noise_spec(1)
        evaluator = lambda est, rows: gains.modifier_norm_truncate(
            np.atleast_1d(spec.evaluator(est, rows)), kappa)
        sampler = lambda rng, n: rng.standard_normal(n) * 10.0
        report = verify_A2_empirical(evaluator, sampler, [0.0],
                                     20_000, make_rng(2),
                                     c_g=(2.0 * kappa) ** 2)
        assert report.second_moment <= (2.0 * kappa) ** 2
        assert report.passed

    def test_understated_c_g_fails(self):
        spec = gains.signal_noise_spec(1)
        sampler = lambda rng, n: rng.standard_normal(n)
        report = verify_A2_empirical(spec.evaluator, sampler, [0.0],
                                     20_000, make_rng(3), c_g=0.0)
        assert not report.passed

    @pytest.mark.parametrize("n_samples", [1, 100, 9_999])
    def test_too_few_samples_rejected(self, n_samples):
        # one sample used to give a NaN SE and a probe that never fails
        spec = gains.signal_noise_spec(1)
        with pytest.raises(ValueError):
            verify_A2_empirical(spec.evaluator, lambda r, n: np.zeros(n),
                                [0.0], n_samples, make_rng(0), c_g=1.0)


# Stacks the verifiers reduce: 1-D projections, one- and two-column gains,
# and wider ones; small and large counts, offset so the mean matters.
_STACK_SHAPES = [(10_000,), (1_000_000,), (10_000, 1), (1_000_000, 1),
                 (10_000, 2), (1_000_000, 2), (20_001, 3), (5_000, 7)]


def _stack(shape):
    rng = np.random.default_rng(sum(shape))
    return rng.normal(size=shape) * 1e3 + 0.3


@pytest.mark.parametrize("shape", _STACK_SHAPES, ids=str)
def test_column_means_match_numpy_bitwise(shape):
    x = _stack(shape)
    want = x.mean(axis=0)
    got = bounds._column_means(x)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("shape", _STACK_SHAPES, ids=str)
def test_column_stds_match_numpy_bitwise(shape):
    x = _stack(shape)
    want = x.std(axis=0, ddof=1)
    got = bounds._column_stds(x, bounds._column_means(x))
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("shape", [s for s in _STACK_SHAPES if len(s) == 2],
                         ids=str)
def test_row_sq_norms_match_numpy_bitwise(shape):
    c = _stack(shape)
    c -= c.mean(axis=0)
    want = np.sum(c * c, axis=1)
    assert linalg.row_sq_norms(c).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 3, 7])
@pytest.mark.parametrize("n", [1, bounds._SUM_BLOCK - 1, bounds._SUM_BLOCK,
                               bounds._SUM_BLOCK + 1, 1_000_007])
def test_column_sums_across_blocks_match_numpy_bitwise(n, d):
    x = _stack((n, d))
    assert bounds._column_sums(x).tobytes() == x.sum(axis=0).tobytes()


def test_column_reductions_of_a_strided_stack():
    # a column view is not C-contiguous; numpy sums it pairwise
    x = _stack((10_000, 3))[:, :2]
    means = bounds._column_means(x)
    assert means.tobytes() == x.mean(axis=0).tobytes()
    assert bounds._column_stds(x, means).tobytes() \
        == x.std(axis=0, ddof=1).tobytes()


def _verify_reference(gain_eval, sampler, theta, probe, n, seed):
    """A1 and A2 statistics of one probe by numpy's own reductions."""
    gains_ = gain_eval(probe, sampler(make_rng(seed), n))
    delta = probe - theta
    dist_sq = float(delta @ delta)
    proj = -(gains_ @ delta) / dist_sq
    a1 = (float(proj.mean()), float(proj.std(ddof=1)) / math.sqrt(n),
          float(np.linalg.norm(gains_.mean(axis=0))) / math.sqrt(dist_sq),
          float(np.linalg.norm(gains_.std(axis=0, ddof=1) / math.sqrt(n)))
          / math.sqrt(dist_sq))
    centered = gains_ - gains_.mean(axis=0)
    sq = np.sum(centered * centered, axis=1)
    a2 = (float(sq.mean()), float(sq.std(ddof=1)) / math.sqrt(n))
    return a1, a2


@pytest.mark.parametrize("width", [1, 2])
def test_verifier_statistics_match_numpy_reductions(width):
    spec = gains.signal_noise_spec(width)
    theta = np.full(width, 0.3)
    probe = np.full(width, 0.9)
    sampler = lambda rng, n: theta + rng.standard_normal((n, width))
    n = 50_000
    a1_want, a2_want = _verify_reference(spec.evaluator, sampler, theta,
                                         probe, n, seed=4)
    res = verify_A1_empirical(spec.evaluator, sampler, theta, [probe], n,
                              make_rng(4)).probes[0]
    assert (res.r_hat, res.r_se, res.g_norm_ratio, res.ratio_se) == a1_want
    a2 = verify_A2_empirical(spec.evaluator, sampler, probe, n, make_rng(4))
    assert (a2.second_moment, a2.se) == a2_want


class TestLemma6:
    def test_grid_pass(self):
        rng = make_rng(5)
        for theta in (0.0, 0.3, 0.9):
            for x_prev in (0.0, 1.0, 5.0):
                for trunc in (1.5, 3.0):
                    report = lemma_truncated_moment_check(
                        theta, x_prev, sigma=1.0, c4=3.0, trunc=trunc,
                        n_samples=100_000, rng=rng)
                    assert report.passed, (theta, x_prev, trunc)
                    assert report.threshold == 0.5

    def test_unclipped_second_moment(self):
        report = lemma_truncated_moment_check(0.0, 0.0, sigma=1.0, c4=3.0,
                                              trunc=1e12,
                                              n_samples=100_000,
                                              rng=make_rng(6))
        assert abs(report.mc_mean - 1.0) <= 6.0 * report.se

    def test_floor_enforced(self):
        with pytest.raises(ValueError):
            lemma_truncated_moment_check(0.0, 0.0, sigma=1.0, c4=3.0,
                                         trunc=1.4, n_samples=10_000,
                                         rng=make_rng(0))

    def test_c4_domain(self):
        with pytest.raises(ValueError):
            lemma_truncated_moment_check(0.0, 0.0, sigma=1.0, c4=5.0,
                                         trunc=10.0, n_samples=10_000,
                                         rng=make_rng(0))


@given(c_g=st.floats(min_value=0.0, max_value=10.0),
       osc=st.floats(min_value=0.0, max_value=5.0),
       extra=st.floats(min_value=1e-6, max_value=5.0))
@settings(max_examples=50, deadline=None)
def test_theorem1_monotone(c_g, osc, extra):
    a = theorem1_bound(_inputs(c_g=c_g), osc)
    assert theorem1_bound(_inputs(c_g=c_g + extra), osc) >= a
    assert theorem1_bound(_inputs(c_g=c_g), osc + extra) > a
