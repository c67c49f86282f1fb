"""Gain catalog: closed-form values, conditional means, row stacks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from drifttrack import gains, linalg
from drifttrack.models import make_rng
from float_words import NOT_NAN, from_words, same_bits
from paper_checks import (ard_log_density, ard_quadratic_matrix,
                          gain_kw_finite_difference, gain_robbins_monro,
                          gain_spsa, shift_matrix)


class TestSignalNoise:
    def test_direct(self):
        assert np.array_equal(gains.signal_noise_spec(2).evaluator(
            np.array([1.0, 2.0]), np.array([3.0, 2.0])), [2.0, 0.0])

    def test_fixed_point_at_truth(self):
        assert np.array_equal(gains.signal_noise_spec(1).evaluator(
            np.array([0.7]), np.array([0.7])), [0.0])

    def test_scalar(self):
        assert float(gains.signal_noise_spec(1).evaluator(0.0, -1.0)) == -1.0


class TestRobbinsMonro:
    def test_direct(self):
        assert float(gain_robbins_monro(3.0, 1.0)) == -2.0

    def test_zero_at_level(self):
        assert float(gain_robbins_monro(2.0, 2.0)) == 0.0

    def test_pushes_toward_root(self):
        # monotone f(v) = 2v, level 2, root at 1: observed 4 at v=2
        assert gain_robbins_monro(4.0, 2.0) < 0


class TestQuantile:
    def test_above(self):
        assert gains.quantile_spec(0.5).evaluator(1.0, 1.2) == 0.5

    def test_below(self):
        assert gains.quantile_spec(0.5).evaluator(1.0, 0.9) == -0.5

    def test_tie_counts_as_below(self):
        assert math.isclose(gains.quantile_spec(0.9).evaluator(1.0, 1.0), -0.1)

    def test_bounded(self):
        for alpha in (0.1, 0.5, 0.9):
            for x in (-5.0, 0.0, 5.0):
                assert abs(gains.quantile_spec(alpha).evaluator(0.0, x)) \
                    <= max(alpha, 1.0 - alpha)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            gains.quantile_spec(1.0)


class TestPoisson:
    def test_exact_intensity(self):
        assert gains.poisson_spec().evaluator(2.0, np.array([5, 3]))[0] == 0.0

    def test_no_increment(self):
        assert gains.poisson_spec().evaluator(0.0, np.array([4, 4]))[0] == 0.0

    def test_direct(self):
        assert gains.poisson_spec().evaluator(1.5, np.array([7, 3]))[0] == 2.5

    def test_rejects_decreasing_counts(self):
        with pytest.raises(ValueError):
            gains.poisson_spec().evaluator(0.0, np.array([3, 4]))


class TestGaussianKnownCov:
    def test_identity_reduces_to_signal_noise(self):
        x = np.array([1.0, -2.0])
        est = np.array([0.5, 0.5])
        assert np.allclose(
            gains.gaussian_known_cov_spec(np.eye(2)).evaluator(est, x),
            gains.signal_noise_spec(2).evaluator(est, x))

    def test_diagonal_solve(self):
        got = gains.gaussian_known_cov_spec(np.diag([2.0, 4.0])).evaluator(
            np.array([0.0, 0.0]), np.array([2.0, 4.0]))
        assert np.allclose(got, [1.0, 1.0])

    def test_solve_residual_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        sigma = a @ a.T + 0.1 * np.eye(3)
        x = rng.normal(size=3)
        est = rng.normal(size=3)
        out = gains.gaussian_known_cov_spec(sigma).evaluator(est, x)
        assert np.allclose(sigma @ out, x - est, atol=1e-12)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            gains.gaussian_known_cov_spec([[0.0]])


def _cho_solve_gain(sigma, est, row):
    """The Gaussian evaluator as a scipy.linalg Cholesky solve."""
    from scipy.linalg import cho_factor, cho_solve

    return cho_solve(cho_factor(sigma), np.atleast_1d(row - est).T).T


_DIAGONALS = ([2.0], [0.7], [2.0, 4.0], [5.0, 0.3], [1.0, 2.0, 3.0],
              [7.0, 11.0, 0.1, 3.3])


@pytest.mark.parametrize("diag", _DIAGONALS, ids=str)
@pytest.mark.parametrize("size", [None, 1, 2, 64, 100_000])
def test_gaussian_diagonal_matches_cho_solve_bitwise(diag, size):
    sigma = np.diag(diag)
    rng = np.random.default_rng(len(diag) * 1000 + (size or 0))
    shape = (len(diag),) if size is None else (size, len(diag))
    rows = rng.normal(size=shape) * 3.0
    est = rng.normal(size=len(diag))
    got = gains.gaussian_known_cov_spec(sigma).evaluator(est, rows)
    want = _cho_solve_gain(sigma, est, rows)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@given(diag=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=6))
def test_gaussian_constants_are_reciprocal_diagonal_extremes_bitwise(diag):
    consts = gains.gaussian_known_cov_spec(np.diag(diag)).constants
    assert consts.lambda1 == 1.0 / max(diag)
    assert consts.lambda2 == 1.0 / min(diag)


def test_gaussian_full_covariance_matches_cho_solve():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 3))
    sigma = a @ a.T + 0.1 * np.eye(3)
    rows = rng.normal(size=(1000, 3))
    est = rng.normal(size=3)
    evaluator = gains.gaussian_known_cov_spec(sigma).evaluator
    got = evaluator(est, rows)
    assert np.allclose(got, _cho_solve_gain(sigma, est, rows),
                       rtol=1e-12, atol=1e-12)
    # each row is solved on its own: a block gives every row's own bits
    singles = np.array([evaluator(est, row) for row in rows[:7]])
    assert got[:7].tobytes() == singles.tobytes()


def _masked_truncation_factor(s, cap):
    """The truncation factor as a masked assignment."""
    out = np.zeros_like(s)
    nz = s > 0
    out[nz] = np.minimum(s[nz], cap) / s[nz]
    return out


def test_truncation_factor_matches_masked_assignment():
    rng = np.random.default_rng(5)
    s = rng.normal(size=(10_000, 1)) ** 2
    s[::7] = 0.0
    s[3] = np.nan
    for cap in (0.5, 1.5):
        got = gains._truncation_factor(s, cap)
        assert got.tobytes() == _masked_truncation_factor(s, cap).tobytes()
    assert gains._truncation_factor(s, 1.0)[0, 0] == 0.0


class TestArch1:
    def test_direct(self):
        # factor 1/4, residual 9 - 1 - 0.5*4 = 6 -> 1.5
        assert math.isclose(gains.arch1_spec(1.0).evaluator(
            0.5, np.array([3.0, 2.0]))[0], 1.5)

    def test_no_truncation_region(self):
        got = gains.arch1_spec(1.0).evaluator(0.3, np.array([1.5, 0.5]))[0]
        assert math.isclose(got, 1.5 ** 2 - 1.0 - 0.3 * 0.25)

    def test_zero_at_zero_lag(self):
        assert gains.arch1_spec(1.0).evaluator(
            0.5, np.array([3.0, 0.0]))[0] == 0.0

    def test_conditional_mean(self):
        # x_k = sqrt(1 + theta * x_prev^2) * eps: MC mean of the gain is
        # -min(x_prev^2, T) (est - theta)
        rng = make_rng(42)
        theta, est, x_prev, trunc = 0.3, 0.7, 2.0, 1.0
        eps = rng.standard_normal(200_000)
        x_k = math.sqrt(1.0 + theta * x_prev ** 2) * eps
        vals = gains.arch1_spec(trunc).evaluator(
            est, np.column_stack([x_k, np.full_like(x_k, x_prev)]))
        want = -min(x_prev ** 2, trunc) * (est - theta)
        se = float(np.std(vals)) / math.sqrt(vals.size)
        assert abs(float(np.mean(vals)) - want) <= 4.0 * se


class TestAr1Normalized:
    def test_direct(self):
        assert math.isclose(gains.ar1_normalized_spec(1.0).evaluator(
            1.0, np.array([2.0, 1.0]))[0], 0.5)

    def test_zero_lag(self):
        assert gains.ar1_normalized_spec(1.0).evaluator(
            1.0, np.array([2.0, 0.0]))[0] == 0.0

    def test_zero_residual(self):
        assert gains.ar1_normalized_spec(1.0).evaluator(
            0.5, np.array([1.0, 2.0]))[0] == 0.0

    def test_magnitude_bound(self):
        # |gain| <= |resid| * |x|/(1 + mu x^2) <= |resid| / (2 sqrt(mu))
        rng = np.random.default_rng(1)
        mu = 0.5
        for _ in range(200):
            est, x_k, x_prev = rng.normal(size=3) * 5
            g = gains.ar1_normalized_spec(mu).evaluator(
                est, np.array([x_k, x_prev]))[0]
            resid = abs(x_k - est * x_prev)
            assert abs(g) <= resid / (2.0 * math.sqrt(mu)) + 1e-12


class TestAr1Truncated:
    def test_no_truncation(self):
        assert math.isclose(gains.ar1_truncated_spec(4.0).evaluator(
            0.0, np.array([1.0, 2.0]))[0], 2.0)

    def test_truncated(self):
        assert math.isclose(gains.ar1_truncated_spec(1.0).evaluator(
            0.0, np.array([1.0, 2.0]))[0], 0.5)

    def test_conditional_mean(self):
        # x_k = theta x_prev + xi: MC mean is -min(x_prev^2, T)(est - theta)
        rng = make_rng(7)
        theta, est, x_prev, trunc = 0.4, -0.2, 1.5, 1.5
        x_k = theta * x_prev + rng.standard_normal(200_000)
        vals = gains.ar1_truncated_spec(trunc).evaluator(
            est, np.column_stack([x_k, np.full_like(x_k, x_prev)]))
        want = -min(x_prev ** 2, trunc) * (est - theta)
        se = float(np.std(vals)) / math.sqrt(vals.size)
        assert abs(float(np.mean(vals)) - want) <= 3.0 * se


class TestKwFiniteDifference:
    def test_quadratic_exact(self):
        oracle = lambda v, rng: -0.5 * float(v @ v)
        got = gain_kw_finite_difference([1.0, 0.0], 0.1, oracle, None)
        assert np.allclose(got, [-1.0, 0.0], atol=1e-12)

    def test_linear_any_step(self):
        a = np.array([2.0, -3.0, 0.5])
        oracle = lambda v, rng: float(a @ v)
        for c in (0.01, 0.5, 2.0):
            got = gain_kw_finite_difference(np.zeros(3), c, oracle, None)
            assert np.allclose(got, a, atol=1e-10)

    def test_quartic_value(self):
        # -(1.1^4 - 0.9^4)/0.2 = -4.04
        oracle = lambda v, rng: -float(v[0]) ** 4
        got = gain_kw_finite_difference([1.0], 0.1, oracle, None)
        assert np.allclose(got, [-4.04])

    def test_oracle_failure_reports_query_point(self):
        def oracle(v, rng):
            raise ZeroDivisionError("boom")
        with pytest.raises(RuntimeError, match="query point"):
            gain_kw_finite_difference([1.0], 0.1, oracle, None)


class TestSpsa:
    def test_linear_fixed_direction(self):
        a = np.array([2.0, -1.0])
        oracle = lambda v, rng: float(a @ v)
        sampler = lambda rng: np.array([1.0, 0.0])
        got = gain_spsa(np.zeros(2), 0.1, oracle, sampler, None)
        assert np.allclose(got, [a[0], 0.0])

    def test_d1_matches_coordinate_difference(self):
        oracle = lambda v, rng: -float(v[0]) ** 4
        for sign in (1.0, -1.0):
            sampler = lambda rng, s=sign: np.array([s])
            got = gain_spsa([1.0], 0.1, oracle, sampler, None)
            kw = gain_kw_finite_difference([1.0], 0.1, oracle, None)
            assert np.allclose(got, kw)  # D^2 = 1 cancels the sign

    def test_sphere_average_recovers_half_gradient(self):
        # E[D D^T] = I/2 on the unit circle, so the averaged gain at
        # v = (1,0) for F = -||v||^2/2 approaches (-0.5, 0)
        rng = make_rng(3)
        oracle = lambda v, r: -0.5 * float(v @ v)

        def sampler(r):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            return np.array([math.cos(ang), math.sin(ang)])

        samples = np.array([gain_spsa([1.0, 0.0], 0.05, oracle, sampler, None)
                            for _ in range(20_000)])
        mean = samples.mean(axis=0)
        se = samples.std(axis=0) / math.sqrt(samples.shape[0])
        assert abs(mean[0] + 0.5) <= 3.0 * se[0] + 1e-9
        assert abs(mean[1]) <= 3.0 * se[1] + 1e-9

    def test_zero_direction_exhausts_retries(self):
        sampler = lambda rng: np.zeros(2)
        with pytest.raises(RuntimeError):
            gain_spsa(np.zeros(2), 0.1, lambda v, r: 0.0, sampler, None)


class TestArdScore:
    def test_d1_reduction(self):
        # y (x - est*y) / sigma^2
        got = gains.gain_ard_score([0.5], [2.0], [3.0], 2.0)
        assert np.allclose(got, [3.0 * (2.0 - 0.5 * 3.0) / 4.0])

    def test_zero_residual(self):
        theta = np.array([0.3, -0.2])
        y = np.array([1.0, 2.0])
        a = linalg.ar_matrix_a(theta)
        x = np.linalg.solve(a, linalg.ar_matrix_b(theta) @ y)
        assert np.allclose(gains.gain_ard_score(theta, x, y, 1.0),
                           np.zeros(2), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            theta = rng.uniform(-0.4, 0.4, d) / max(1, d - 1)
            x = rng.normal(size=d)
            y = rng.normal(size=d)
            sigma = rng.uniform(0.5, 2.0)
            got = gains.gain_ard_score(theta, x, y, sigma)
            h = 1e-6
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd = (ard_log_density(theta + e, x, y, sigma)
                      - ard_log_density(theta - e, x, y, sigma)) / (2 * h)
                assert abs(got[i] - fd) <= 1e-5 * (1.0 + abs(fd))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gains.gain_ard_score([0.1, 0.2], [1.0], [1.0, 2.0], 1.0)


def _shift_matrix_score(theta_hat, x, y, sigma):
    """The score with its Jacobian assembled from shift-matrix products:
    column i is -S^i x - (S^{d-i})^T y (S^0 = I, S^d = 0)."""
    d = theta_hat.size
    jac = np.empty((d, d))
    for i in range(1, d + 1):
        jac[:, i - 1] = (-shift_matrix(d, i) @ x
                         - shift_matrix(d, d - i).T @ y)
    resid = (linalg.ar_matrix_a(theta_hat) @ x
             - linalg.ar_matrix_b(theta_hat) @ y)
    return -(jac.T @ resid) / sigma ** 2


@st.composite
def ard_batches(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    # nonzero entries: a 0 * v term of a shift-matrix product can flip the
    # sign of a zero, which the indexed Jacobian copies as it is
    entry = st.floats(-100.0, 100.0).filter(lambda v: v != 0.0)
    vec = lambda: draw(hnp.arrays(float, d, elements=entry))
    return vec(), vec(), vec(), draw(st.floats(0.1, 10.0))


@given(batch=ard_batches())
@settings(max_examples=200, deadline=None)
def test_indexed_jacobian_matches_shift_matrix_products_bitwise(batch):
    theta_hat, x, y, sigma = batch
    want = _shift_matrix_score(theta_hat, x, y, sigma)
    assert gains.gain_ard_score(theta_hat, x, y, sigma).tobytes() \
        == want.tobytes()


class TestAverageGainArd:
    def test_zero_at_truth(self):
        theta = np.array([0.3, 0.1])
        m = ard_quadratic_matrix(theta, [1.0, 2.0], 1.0)
        got = -m @ (theta - theta)
        assert np.array_equal(got, np.zeros(2))

    def test_d1_closed_form(self):
        # M = y^2 / sigma^2 = 4
        m = ard_quadratic_matrix([0.4], [2.0], 1.0)
        got = -m @ (np.array([0.9]) - 0.4)
        assert np.allclose(got, [-4.0 * 0.5])

    def test_matches_mc_score_average_d2(self):
        rng = make_rng(11)
        theta = np.array([0.3, -0.2])
        est = np.array([0.1, 0.25])
        y = np.array([0.8, -1.1])
        sigma = 1.0
        a = linalg.ar_matrix_a(theta)
        mean_x = np.linalg.solve(a, linalg.ar_matrix_b(theta) @ y)
        a_inv = np.linalg.inv(a)
        n = 100_000
        xi = rng.standard_normal((n, 2)) * sigma
        xs = mean_x + xi @ a_inv.T
        samples = np.array([gains.gain_ard_score(est, x, y, sigma) for x in xs])
        want = -ard_quadratic_matrix(theta, y, sigma) @ (est - theta)
        se = samples.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(samples.mean(axis=0) - want) <= 3.0 * se + 1e-9)


class TestSpecs:
    def test_signal_noise_constants(self):
        spec = gains.signal_noise_spec(2, noise_var=1.0)
        assert spec.constants.lambda1 == 1.0
        assert spec.constants.lambda2 == 1.0
        assert spec.constants.c_g == 2.0

    def test_gaussian_constants_diag(self):
        spec = gains.gaussian_known_cov_spec(np.diag([2.0, 4.0]))
        assert math.isclose(spec.constants.lambda1, 0.25)
        assert math.isclose(spec.constants.lambda2, 0.5)

    def test_evaluators_broadcast_over_rows(self):
        rng = np.random.default_rng(2)
        spec = gains.arch1_spec(trunc=1.0)
        rows = rng.normal(size=(50, 2))
        stacked = spec.evaluator(0.3, rows)
        single = np.array([spec.evaluator(0.3, r) for r in rows])
        assert np.allclose(stacked, single)

    def test_vector_normalized_gain_rank_one_mean(self):
        # conditional mean -x x^T delta / (1 + mu ||x||^2): orthogonal
        # errors produce exactly zero mean gain, so no lower eigenvalue
        # bound can hold at d >= 2
        x = np.array([1.0, 0.5])
        delta = np.array([-0.5, 1.0])  # orthogonal to x
        est = np.array([0.2, 0.1]) + delta
        x_k = float(x @ np.array([0.2, 0.1]))  # noiseless response
        got = gains.ar_normalized_vector_gain(est, x_k, x, mu=1.0)
        assert np.allclose(got, np.zeros(2), atol=1e-12)


def _vector_gain_reference(theta_hat, x_k, x_lags, mu):
    """ar_normalized_vector_gain as one expression, before the column
    pass and the in-place divisions."""
    x_lags = np.asarray(x_lags, dtype=float)
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    resid = np.asarray(x_k, dtype=float) - x_lags @ theta_hat
    scale = 1.0 + mu * np.sum(x_lags * x_lags, axis=-1)
    return x_lags * (resid / scale)[..., None]


@pytest.mark.parametrize("n", [1, 100_000])
@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_vector_normalized_gain_matches_reference_bitwise(width, n):
    rng = np.random.default_rng(7 * width + n)
    rows = rng.normal(size=(n, width + 1)) * 3.0
    est = rng.normal(size=width)
    cases = [(rows[:, 0], rows[:, 1:]),          # strided, as the fixture
             (rows[:, 0].copy(), rows[:, 1:].copy()),
             (rows[0, 0], rows[0, 1:])]          # one row
    for x_k, x_lags in cases:
        for mu in (1.0, 0.37):
            want = _vector_gain_reference(est, x_k, x_lags, mu)
            got = gains.ar_normalized_vector_gain(est, x_k, x_lags, mu)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def _broadcast_gaussian(sigma):
    """gaussian_known_cov_spec's evaluator with row - est as one
    broadcast subtraction, for every shape."""
    upper = np.linalg.cholesky(sigma).T
    recip = 1.0 / np.diag(upper)
    d = len(sigma)
    sweep = [(i, [(j, upper[j, i]) for j in range(i) if upper[j, i] != 0.0])
             for i in range(d)]
    sweep += [(i, [(j, upper[i, j]) for j in range(i + 1, d)
                   if upper[i, j] != 0.0]) for i in reversed(range(d))]

    def evaluator(est, row):
        b = np.atleast_1d(np.asarray(row - est, dtype=float))
        for i, terms in sweep:
            col = b[..., i]
            for j, u in terms:
                col -= u * b[..., j]
            col *= recip[i]
        return b

    return evaluator


def _full_sigma():
    a = np.random.default_rng(11).normal(size=(3, 3))
    return a @ a.T + 0.1 * np.eye(3)


_GAUSSIAN_SIGMAS = [np.diag([2.0]), np.diag([2.0, 4.0]),
                    np.diag([7.0, 11.0, 0.1]), _full_sigma()]


@given(data=st.data(), sigma=st.sampled_from(_GAUSSIAN_SIGMAS),
       shape=st.sampled_from(["single", "batch", "stack", "strided"]),
       m=st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_gaussian_columnwise_difference_is_the_broadcast_bitwise(
        data, sigma, shape, m):
    # estimate and rows as each caller hands them: (d,) with one (d,) row,
    # (B, d) with (B, d) rows in the tracking kernel, and (d,) with an
    # (m, d) stack in the verifiers, contiguous or a column view
    d = len(sigma)
    est = from_words(data, (m, d) if shape == "batch" else (d,), NOT_NAN)
    if shape == "single":
        rows = from_words(data, (d,))
    elif shape == "strided":
        rows = from_words(data, (m, d + 1))[:, 1:]
    else:
        rows = from_words(data, (m, d))
    with np.errstate(all="ignore"):
        want = _broadcast_gaussian(sigma)(est, rows)
        got = gains.gaussian_known_cov_spec(sigma).evaluator(est, rows)
    assert same_bits(got, want)


@given(data=st.data(), d=st.sampled_from([1, 2, 3]),
       shape=st.sampled_from(["single", "stack", "strided"]),
       m=st.integers(1, 40), mu=st.floats(1e-3, 1e3))
@settings(max_examples=200, deadline=None)
def test_vector_gain_columnwise_product_is_the_broadcast_bitwise(
        data, d, shape, m, mu):
    # one estimate with one row of lags, or with a (B, d) stack of lags,
    # contiguous or the column view the moulines_d2 fixture hands it; the
    # matmul x_lags @ theta_hat takes no stack of estimates.  A NaN lag
    # makes the row's residual NaN too, so the lags hold none
    theta = from_words(data, (d,))
    lead = () if shape == "single" else (m,)
    rows = np.concatenate((from_words(data, lead + (1,)),
                           from_words(data, lead + (d,), NOT_NAN)), axis=-1)
    x_k, x_lags = rows[..., 0], rows[..., 1:]
    if shape == "stack":
        x_k, x_lags = x_k.copy(), x_lags.copy()
    with np.errstate(all="ignore"):
        want = _vector_gain_reference(theta, x_k, x_lags, mu)
        got = gains.ar_normalized_vector_gain(theta, x_k, x_lags, mu)
    assert same_bits(got, want)
