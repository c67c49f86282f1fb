"""Error-bound evaluators and Monte-Carlo condition verifiers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drifttrack import bounds, gains, linalg
from drifttrack.bounds import (
    BoundInputs,
    theorem1_bound,
    verify_A1_empirical,
    verify_A2_empirical,
)
from drifttrack.models import make_rng
from float_words import NOT_NAN, from_words, same_bits
from paper_checks import (
    bias_from_parameter_gap,
    biased_bound,
    bp_constant,
    estimate_oscillation,
    lemma_truncated_moment_check,
    theorem2_bound,
)


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
        inp = _inputs(gammas=np.zeros(3))
        assert math.isclose(theorem2_bound(inp, 1.0, 0.0, p=1.0, g_bar=1.0),
                            1.0, rel_tol=1e-12)

    def test_p2_d1_leading_constant(self):
        # C1' = 3 * K_2^2 = 3 at d=1
        inp = _inputs(gammas=np.zeros(3))
        assert math.isclose(theorem2_bound(inp, 1.0, 0.0, p=2.0, g_bar=1.0),
                            3.0, rel_tol=1e-12)

    def test_p2_d1_noise_constant(self):
        # with unit gammas sum of squares S: C2' = 3 * 4 * 10368 * ratio^2,
        # ratio = 1 + lambda2/lambda1 = 2 -> 497664 S
        inp = _inputs(gammas=np.array([0.1]))
        got = theorem2_bound(inp, 0.0, 0.0, p=2.0, g_bar=1.0)
        assert math.isclose(got, 3.0 * 4.0 * 10368.0 * 4.0 * 0.01,
                            rel_tol=1e-12)

    def test_requires_g_bar(self):
        with pytest.raises(ValueError):
            theorem2_bound(_inputs(), 1.0, 0.0, p=2.0)

    def test_monotone_in_step_energy(self):
        a = theorem2_bound(_inputs(gammas=np.full(10, 0.05)), 1.0, 0.1,
                           p=2.0, g_bar=1.0)
        b = theorem2_bound(_inputs(gammas=np.full(10, 0.1)), 1.0, 0.1,
                           p=2.0, g_bar=1.0)
        assert b > a


class TestBiasedBound:
    def test_zero_bias_reduces_to_theorem1(self):
        inp = _inputs()
        assert biased_bound(inp, np.zeros(10), "L1", 0.2) \
            == theorem1_bound(inp, 0.2)

    def test_zero_bias_reduces_to_theorem2(self):
        inp = _inputs()
        got = biased_bound(inp, np.zeros(10), "Lp", 0.3, 1.0, p=2.0, g_bar=1.0)
        want = theorem2_bound(inp, 1.0, 0.3 ** 2, p=2.0, g_bar=1.0)
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

    @pytest.mark.parametrize("theta, probe", [
        ([0.5], [math.nan]), ([math.nan], [0.5])])
    def test_nan_probe_rejected(self, theta, probe):
        # a NaN distance fails the check, as a zero one does, instead of
        # running the passes to NaN statistics
        spec = gains.signal_noise_spec(1)
        with pytest.raises(ValueError, match="differ"):
            verify_A1_empirical(spec.evaluator,
                                lambda r, n: np.zeros(n), theta, [probe],
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
        def evaluator(est, rows):
            # each row's gain truncated onto the kappa-ball
            g = spec.evaluator(est, rows)
            norm = np.sqrt(np.sum(g * g, axis=-1, keepdims=True))
            return g * (kappa / np.maximum(norm, kappa))
        sampler = lambda rng, n: rng.standard_normal(n) * 10.0
        report = verify_A2_empirical(evaluator, sampler, [0.0],
                                     20_000, make_rng(2),
                                     c_g=(2.0 * kappa) ** 2)
        assert report.second_moment <= (2.0 * kappa) ** 2
        # most rows are truncated, so the moment nears kappa^2; one norm
        # over the whole stack would shrink it to about 5e-5
        assert report.second_moment >= 0.5 * kappa ** 2
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


def _streamed_sums(x):
    """x.sum(axis=0) as the verifiers take it, one leaf at a time."""
    if x.ndim == 1:
        return _tree_sum(x)
    cols = bounds._ColumnSums(x.shape[1])
    (combined,) = bounds._tree(0, len(x), lambda a, b: (cols.add(x[a:b]),))
    return cols.total(combined)


def _tree_sum(x):
    """np.sum of a 1-D x, one np.add.reduce per leaf."""
    (total,) = bounds._tree(0, len(x), lambda a, b: (np.add.reduce(x[a:b]),))
    return total


@pytest.mark.parametrize("shape", _STACK_SHAPES, ids=str)
def test_column_means_match_numpy_bitwise(shape):
    x = _stack(shape)
    want = x.mean(axis=0)
    got = _streamed_sums(x) / shape[0]
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("shape", _STACK_SHAPES, ids=str)
def test_column_stds_match_numpy_bitwise(shape):
    x = _stack(shape)
    want = x.std(axis=0, ddof=1)
    dev = x - _streamed_sums(x) / shape[0]
    dev *= dev
    got = np.sqrt(_streamed_sums(dev) / (shape[0] - 1))
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
@pytest.mark.parametrize("n", [1, bounds._LEAF - 1, bounds._LEAF,
                               bounds._LEAF + 1, 1_000_007])
def test_column_sums_across_blocks_match_numpy_bitwise(n, d):
    x = _stack((n, d))
    assert _streamed_sums(x).tobytes() == x.sum(axis=0).tobytes()


def test_column_reductions_of_a_strided_stack():
    # a column view is not C-contiguous: the verifiers copy it, leave
    # it as it was, and give the statistics of a contiguous stack
    spec = gains.signal_noise_spec(2)
    wide = _stack((20_001, 3))
    before = wide.tobytes()

    def stats(sampler):
        a1 = verify_A1_empirical(spec.evaluator, sampler, [0.0, 0.0],
                                 [[1.0, 2.0]], len(wide), None).probes[0]
        a2 = verify_A2_empirical(spec.evaluator, sampler, [1.0, 2.0],
                                 len(wide), None)
        return (a1.r_hat, a1.r_se, a1.g_norm_ratio, a1.ratio_se,
                a2.second_moment, a2.se)

    got = stats(lambda r, n: wide[:, :2])
    assert wide.tobytes() == before
    assert got == stats(lambda r, n: wide[:, :2].copy())


def _magnitudes(seed, n, d=None):
    """n (or (n, d)) values whose exponents span 1e-12 to 1e12, with
    signs, so that the order of the additions shows in the bits."""
    rng = np.random.default_rng(seed)
    shape = n if d is None else (n, d)
    return rng.normal(size=shape) * 10.0 ** rng.integers(-12, 13, size=shape)


_TREE_N = st.integers(min_value=1, max_value=3 * bounds._LEAF + 5)


@given(n=_TREE_N, seed=st.integers(0, 2 ** 32 - 1))
@example(n=bounds._LEAF + 1, seed=0)
@example(n=2 * bounds._LEAF + 8, seed=1)
@example(n=3 * bounds._LEAF + 5, seed=2)
@example(n=1_000_003, seed=3)
@settings(max_examples=60, deadline=None)
def test_leaf_tree_sum_is_numpy_sum_bitwise(n, seed):
    x = _magnitudes(seed, n)
    assert _tree_sum(x).tobytes() == np.sum(x).tobytes()
    column = x[:, None]
    assert _streamed_sums(column).tobytes() \
        == column.sum(axis=0).tobytes()


@given(n=_TREE_N, d=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1))
@example(n=3 * bounds._LEAF + 5, d=2, seed=0)
@example(n=3 * bounds._LEAF + 5, d=3, seed=1)
@settings(max_examples=60, deadline=None)
def test_carried_column_sums_are_numpy_sums_bitwise(n, d, seed):
    x = _magnitudes(seed, n, d)
    assert _streamed_sums(x).tobytes() == x.sum(axis=0).tobytes()


@given(n=_TREE_N, d=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=3 * bounds._LEAF + 5, d=1, seed=0)
@example(n=3 * bounds._LEAF + 5, d=2, seed=1)
@example(n=3 * bounds._LEAF + 5, d=3, seed=2)
@settings(max_examples=60, deadline=None)
def test_leaf_products_are_one_matmul_bitwise(n, d, seed):
    # the verifiers project one leaf at a time, through _project: each
    # leaf's projection must have the bits of the whole stack's g @ delta,
    # for zero and -0.0 rows, infinities and NaNs too
    g = _magnitudes(seed, n, d)
    g[::7] = 0.0
    g[::13] = -0.0
    g[::11] *= -1.0
    g[::17] = math.inf
    g[::19] = -math.inf
    g[::23] = math.nan
    delta = _magnitudes(seed + 1, d)
    got = np.empty(n)

    def leaf(a, b):
        got[a:b] = bounds._project(g[a:b], delta)
        return ()

    with np.errstate(invalid="ignore"):
        bounds._tree(0, n, leaf)
        assert got.tobytes() == (g @ delta).tobytes()


_SPECIALS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@given(data=st.data(), m=st.integers(1, 40), d=st.sampled_from([1, 2, 3]))
@settings(max_examples=200, deadline=None)
def test_columnwise_centring_is_the_broadcast_bitwise(data, m, d):
    # the verifiers centre a leaf one column at a time (linalg.by_column);
    # the bits must be those of g - mean, for signed zeros, infinities and
    # NaNs too
    value = st.one_of(_SPECIALS, st.floats(width=64))
    g = np.array(data.draw(st.lists(value, min_size=m * d,
                                    max_size=m * d))).reshape(m, d)
    mean = np.array(data.draw(st.lists(value, min_size=d, max_size=d)))
    with np.errstate(invalid="ignore", over="ignore"):
        got = linalg.by_column(np.subtract, g, mean)
        assert got.tobytes() == (g - mean).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_columnwise_centring_of_a_leaf(d):
    g = _magnitudes(d, bounds._LEAF, d)
    mean = _magnitudes(d + 1, d)
    got = linalg.by_column(np.subtract, g, mean)
    assert got.tobytes() == (g - mean).tobytes()


@given(data=st.data(), m=st.integers(1, 70), d=st.sampled_from([1, 2]))
@settings(max_examples=200, deadline=None)
def test_projection_is_gemv_bitwise(data, m, d):
    # the verifiers projected each leaf as g @ delta, through gemv; at
    # d = 1 _project takes a product per row plus +0.0.  delta holds no
    # NaN: with a NaN on both sides either NaN may come out
    g = from_words(data, (m, d))
    delta = from_words(data, (d,), NOT_NAN)
    with np.errstate(all="ignore"):
        assert same_bits(bounds._project(g, delta), g @ delta)


def _three_pass_a2(gain_eval, rows, probe):
    """verify_A2_empirical's statistics as they were taken before the
    deviations were stored: the norms pass and the spread pass each
    recompute every row's centred squared norm from the gains."""
    n, d = len(rows), probe.size
    stored = np.empty((n, d))
    cols = bounds._ColumnSums(d)

    def sums(a, b):
        stored[a:b] = gain_eval(probe, rows[a:b])
        return (cols.add(stored[a:b]),)

    mean = cols.total(bounds._tree(0, n, sums)[0]) / n

    def norms(a, b):
        c = linalg.by_column(np.subtract, stored[a:b], mean)
        return (np.add.reduce(linalg.row_sq_norms(c)),)

    def spread(a, b):
        dev = linalg.row_sq_norms(
            linalg.by_column(np.subtract, stored[a:b], mean))
        dev -= moment
        dev *= dev
        return (np.add.reduce(dev),)

    moment = float(bounds._tree(0, n, norms)[0] / n)
    se = float(np.sqrt(bounds._tree(0, n, spread)[0] / (n - 1))) \
        / math.sqrt(n)
    return moment, se


@given(half=st.integers(bounds.MIN_SAMPLES // 2, 3 * bounds._LEAF // 2 + 2),
       d=st.sampled_from([1, 2, 3]), extra=st.sampled_from([0, 1]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(half=3 * bounds._LEAF // 2 + 2, d=2, extra=0, seed=0)
@example(half=bounds.MIN_SAMPLES // 2, d=3, extra=1, seed=1)
@settings(max_examples=60, deadline=None)
def test_stored_deviations_match_the_three_pass_recompute(half, d, extra,
                                                          seed):
    # at an odd n the tree's last leaves differ in length; gains d wide
    # are written over rows d or d + 1 wide, and the deviations over the
    # gains, so a deviation written over a gain not yet read would show
    n = 2 * half + 1
    rows = _magnitudes(seed, n, d + extra)
    probe = _magnitudes(seed + 1, d)

    def gain_eval(est, r):  # reads every column of its rows
        return r[:, :d] * r[:, -1:] - est

    want = _three_pass_a2(gain_eval, rows, probe)
    got = verify_A2_empirical(gain_eval, lambda _r, _n: rows.copy(), probe,
                              n, None)
    assert same_bits(np.array([got.second_moment, got.se]), np.array(want))


# ---------------------------------------------------------------------
# The verifiers as they were before they streamed the gains: each probe
# held its full (N, d) gain, centred-square and projection stacks.
# ---------------------------------------------------------------------

_OLD_SUM_BLOCK = 16384


def _old_column_sums(x):
    if not (x.ndim == 2 and x.shape[1] > 1 and x.flags.c_contiguous):
        return x.sum(axis=0)
    block = np.empty((min(_OLD_SUM_BLOCK, x.shape[0]), x.shape[1]))
    total = None
    for start in range(0, x.shape[0], _OLD_SUM_BLOCK):
        part = block[:min(_OLD_SUM_BLOCK, x.shape[0] - start)]
        np.copyto(part, x[start:start + len(part)])
        if total is not None:
            part[0] += total
        np.cumsum(part, axis=0, out=part)
        total = part[-1].copy()
    return total


def _old_column_means(x):
    return _old_column_sums(x) / x.shape[0]


def _old_column_stds(x, means):
    sq = x - means
    sq *= sq
    return np.sqrt(_old_column_sums(sq) / (x.shape[0] - 1))


def _old_sampled_gains(gain_eval, sampler, probe, n_samples, rng):
    rows = np.asarray(sampler(rng, n_samples), dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    return np.asarray(gain_eval(probe, rows), dtype=float)


def _old_a1_probe(gain_eval, sampler, theta, probe, n_samples, rng):
    delta = probe - theta
    dist_sq = float(delta @ delta)
    gains_ = _old_sampled_gains(gain_eval, sampler, probe, n_samples, rng)
    g_hat = _old_column_means(gains_)
    comp_se = _old_column_stds(gains_, g_hat) / math.sqrt(n_samples)
    proj = gains_ @ delta
    proj /= -dist_sq
    r_hat = float(_old_column_means(proj))
    r_se = float(_old_column_stds(proj, r_hat)) / math.sqrt(n_samples)
    dist = math.sqrt(dist_sq)
    return (r_hat, r_se, float(np.linalg.norm(g_hat)) / dist,
            float(np.linalg.norm(comp_se)) / dist)


def _old_verify_A2(gain_eval, sampler, probe, n_samples, rng):
    gains_ = _old_sampled_gains(gain_eval, sampler, probe, n_samples, rng)
    gains_ -= _old_column_means(gains_)
    sq = linalg.row_sq_norms(gains_)
    moment = float(_old_column_means(sq))
    return moment, float(_old_column_stds(sq, moment)) / math.sqrt(n_samples)


def _new_stats(gain_eval, sampler, theta, probe, n, seed):
    a1 = verify_A1_empirical(gain_eval, sampler, theta, [probe], n,
                             make_rng(seed)).probes[0]
    a2 = verify_A2_empirical(gain_eval, sampler, probe, n, make_rng(seed))
    return ((a1.r_hat, a1.r_se, a1.g_norm_ratio, a1.ratio_se),
            (a2.second_moment, a2.se))


def _old_stats(gain_eval, sampler, theta, probe, n, seed):
    return (_old_a1_probe(gain_eval, sampler, theta, probe, n,
                          make_rng(seed)),
            _old_verify_A2(gain_eval, sampler, probe, n, make_rng(seed)))


def _bits(stats):
    return np.array([v for part in stats for v in part]).tobytes()


_DIFF_N = 3 * bounds._LEAF + 5   # three full leaves and a 5-row tail


@pytest.mark.parametrize("name", ["signal_noise", "gaussian", "quantile",
                                  "arch1_truncated", "ar1_truncated",
                                  "moulines_d2"])
def test_streamed_verifiers_match_full_stacks_bitwise(name):
    from drifttrack.experiments import builtin_fixtures
    fx = builtin_fixtures()[name]
    for i, probe in enumerate(fx.probes):
        probe = np.asarray(probe, dtype=float)
        args = (fx.gain_eval, fx.sampler, fx.theta, probe, _DIFF_N, 20 + i)
        assert _bits(_new_stats(*args)) == _bits(_old_stats(*args))


@pytest.mark.parametrize("writeable", [True, False])
def test_streamed_verifiers_on_a_one_column_stack(writeable):
    # a 1-D stack of width 1, handed over writeable (the verifiers write
    # gains over it) or read-only (copied first, and left as it was)
    spec = gains.quantile_spec(0.5)
    draws = np.random.default_rng(9).uniform(size=_DIFF_N)
    handed = []

    def sampler(_rng, n):
        stack = draws.copy()
        stack.flags.writeable = writeable
        handed.append(stack)
        return stack

    args = (spec.evaluator, [0.5], np.array([0.6]), _DIFF_N, 0)
    new = _new_stats(args[0], sampler, *args[1:])
    old = _old_stats(args[0], lambda _r, n: draws.copy(), *args[1:])
    assert _bits(new) == _bits(old)
    untouched = [h.tobytes() == draws.tobytes() for h in handed]
    assert untouched == [not writeable] * 2


def test_verifiers_overwrite_a_stack_handed_out_twice():
    # the verifiers write gains over the stack their sampler hands them:
    # a sampler that returns one stored array on every call has it
    # overwritten, so only its first probe sees the rows
    spec = gains.signal_noise_spec(1)
    theta, probes = [0.0], [[0.5], [2.0]]
    draws = np.random.default_rng(3).normal(size=bounds.MIN_SAMPLES)
    pinned = draws.copy()

    def run(sampler):
        return verify_A1_empirical(spec.evaluator, sampler, theta, probes,
                                   len(draws), None).probes

    fresh = run(lambda _r, n: draws.copy())
    shared = run(lambda _r, n: pinned)
    assert shared[0].r_hat == fresh[0].r_hat
    assert shared[1].r_hat != fresh[1].r_hat
    # the second probe's gains, written over the first probe's gains
    assert np.array_equal(pinned, draws - 0.5 - 2.0)


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
