"""Matrix utilities: construction, stability region, eigenvalues, KL keystone."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from drifttrack import gains, linalg
from paper_checks import (abel_transform_check, ard_quadratic_matrix,
                          kl_gaussians, kp_constant, lemma_eig_check,
                          shift_matrix, stability_inner_radius)
from reference_roots import durand_kerner_roots, reference_spectral_radius


def random_stable_coeffs(rng, d, rho=0.9):
    """Coefficient vector inside the inner L2 ball of the region."""
    inner = stability_inner_radius(rho, d)
    v = rng.normal(size=d)
    v /= np.linalg.norm(v) + 1e-300
    return v * inner * rng.uniform(0.0, 1.0) ** (1.0 / d)


class TestToeplitz:
    def test_definition_d2(self):
        m = linalg.toeplitz_from_vector([1.0, 2.0, 3.0])
        assert np.array_equal(m, [[2.0, 1.0], [3.0, 2.0]])

    def test_zeros(self):
        assert np.array_equal(linalg.toeplitz_from_vector(np.zeros(5)),
                              np.zeros((3, 3)))

    def test_shift_matrix_from_vector(self):
        # vector with a single 1 just left of the middle -> upper shift
        v = np.zeros(5)
        v[1] = 1.0  # entry m_{-1}
        assert np.array_equal(linalg.toeplitz_from_vector(v),
                              shift_matrix(3, 1))

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            linalg.toeplitz_from_vector([1.0, 2.0])

    def test_ar_matrix_a_unit_upper_triangular(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 5):
            a = linalg.ar_matrix_a(rng.uniform(-0.5, 0.5, d))
            assert np.array_equal(np.diag(a), np.ones(d))
            assert np.allclose(np.tril(a, -1), 0.0)

    def test_ar_matrices_reproduce_recursion_d2(self):
        # row equations of A x = B y + xi must match the lag recursion
        theta = np.array([0.5, 0.2])
        a = linalg.ar_matrix_a(theta)
        b = linalg.ar_matrix_b(theta)
        # x = (X_k, X_{k-1}), y = (X_{k-2}, X_{k-3})
        x = np.array([1.7, -0.4])
        y = np.array([0.9, 2.1])
        resid = a @ x - b @ y
        assert math.isclose(resid[0], x[0] - theta[0] * x[1] - theta[1] * y[0])
        assert math.isclose(resid[1], x[1] - theta[0] * y[0] - theta[1] * y[1])

    def test_shift_expansion(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 4):
            theta = rng.uniform(-0.5, 0.5, d)
            a_direct = linalg.ar_matrix_a(theta)
            a_sum = np.eye(d) - sum(theta[i - 1] * shift_matrix(d, i)
                                    for i in range(1, d + 1))
            assert np.allclose(a_direct, a_sum, atol=1e-14)
            b_direct = linalg.ar_matrix_b(theta)
            b_sum = sum(theta[i - 1] * shift_matrix(d, d - i).T
                        for i in range(1, d + 1))
            assert np.allclose(b_direct, b_sum, atol=1e-14)


@st.composite
def unit_upper_systems(draw):
    # a full matrix: both solvers read only its strict upper triangle
    d = draw(st.integers(min_value=1, max_value=6))
    entries = st.floats(-1e3, 1e3, allow_subnormal=False)
    return (draw(hnp.arrays(float, (d, d), elements=entries)),
            draw(hnp.arrays(float, d, elements=entries)))


@given(system=unit_upper_systems())
@settings(max_examples=300, deadline=None)
def test_solve_unit_upper_matches_solve_triangular_bitwise(system):
    from scipy.linalg import solve_triangular

    a, b = system
    b_bytes = b.tobytes()
    want = solve_triangular(a, b, lower=False, unit_diagonal=True)
    assert linalg.solve_unit_upper(a, b).tobytes() == want.tobytes()
    assert b.tobytes() == b_bytes  # the right-hand side is not overwritten


class TestCompanion:
    def test_scalar(self):
        assert np.array_equal(linalg.companion_matrix([0.5]), [[0.5]])

    def test_d2_layout(self):
        assert np.array_equal(linalg.companion_matrix([1.0, 2.0]),
                              [[1.0, 2.0], [1.0, 0.0]])

    def test_eigenvalues_are_reciprocal_roots(self):
        # 1 - 0.25 z^2 has zeros +-2; companion eigenvalues are +-0.5
        member, radius = linalg.ar_stability_check([0.0, 0.25], 0.9)
        assert member
        assert math.isclose(radius, 0.5, abs_tol=1e-10)


class TestRoots:
    """ar_stability_check against reference_roots: the radius from the
    reciprocal polynomial's Durand-Kerner roots, an independent route to
    the companion eigenvalues."""

    def test_quadratic(self):
        roots = np.sort_complex(durand_kerner_roots([-2.0, 0.0, 1.0]))
        assert np.allclose(roots, [-math.sqrt(2), math.sqrt(2)], atol=1e-10)

    def test_high_degree_random(self):
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=9)
        coeffs[-1] = 1.0
        roots = durand_kerner_roots(coeffs)
        vals = np.polyval(coeffs[::-1], roots)
        assert np.max(np.abs(vals)) < 1e-8

    def test_companion_root_duality_random(self):
        # the companion spectral radius equals the reciprocal of the
        # smallest root modulus of 1 - sum theta_i z^i
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            theta = random_stable_coeffs(rng, d)
            if not np.any(theta):
                continue
            _, radius = linalg.ar_stability_check(theta, 0.9)
            assert math.isclose(radius, reference_spectral_radius(theta),
                                rel_tol=1e-8, abs_tol=1e-10)

    @pytest.mark.parametrize("roots, member", [
        ([0.5], True),
        ([0.95], False),
        ([0.5, -0.25, 0.8], True),
        ([0.3, -0.8], True),
        ([0.6 * np.exp(1j * np.pi / 3), 0.6 * np.exp(-1j * np.pi / 3), 0.3],
         True),
        ([0.2, 0.92 * np.exp(2j), 0.92 * np.exp(-2j), -0.4], False),
    ])
    def test_exact_radius_from_chosen_roots(self, roots, member):
        # np.poly gives z^d + c_1 z^(d-1) + ... + c_d with the chosen
        # zeros, the companion polynomial of theta = -c[1:]
        theta = -np.real(np.poly(roots))[1:]
        got_member, radius = linalg.ar_stability_check(theta, 0.9)
        want = float(np.max(np.abs(roots)))
        assert got_member == member
        assert math.isclose(radius, want, rel_tol=1e-12)
        assert math.isclose(reference_spectral_radius(theta), want,
                            rel_tol=1e-10)


class TestStabilityRegion:
    def test_scalar_membership(self):
        assert linalg.ar_stability_check([0.5], 0.9)[0]
        assert not linalg.ar_stability_check([0.95], 0.9)[0]

    def test_inner_ball_always_member(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            assert linalg.ar_stability_check(random_stable_coeffs(rng, 3),
                                             0.9)[0]

    def test_outside_outer_ball_never_member(self):
        # every member has |theta_i| <= binom(d, i) rho^i, so the sup-norm
        # ball of radius (1 + rho)^d - 1 holds the region
        rng = np.random.default_rng(5)
        outer = (1.0 + 0.9) ** 3 - 1.0
        for _ in range(50):
            theta = rng.uniform(outer + 0.01, outer + 2.0, 3)
            theta *= rng.choice([-1.0, 1.0], 3)
            assert not linalg.ar_stability_check(theta, 0.9)[0]

    def test_zero_vector_member(self):
        member, radius = linalg.ar_stability_check(np.zeros(4), 0.9)
        assert member and radius == 0.0

    @pytest.mark.parametrize("theta, want", [
        ([0.0, 1e-200], 1e-100),
        # the second coefficient of a sine path at t = pi, about 4e-17
        ([0.3, 0.3 * math.sin(math.pi)], 0.3),
    ])
    def test_tiny_nonzero_entries(self, theta, want):
        member, radius = linalg.ar_stability_check(theta, 0.9)
        assert member
        assert math.isclose(radius, want, rel_tol=1e-12)


class TestKlGaussians:
    def test_identical_zero(self):
        assert kl_gaussians([0.0], [[1.0]], [0.0], [[1.0]]) == 0.0

    def test_mean_shift(self):
        assert math.isclose(
            kl_gaussians([0.0], [[1.0]], [1.0], [[1.0]]), 0.5)

    def test_variance_change(self):
        got = kl_gaussians([0.0], [[1.0]], [0.0], [[2.0]])
        assert math.isclose(got, 0.5 * (math.log(2.0) - 0.5), abs_tol=1e-12)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            a = rng.normal(size=(d, d))
            b = rng.normal(size=(d, d))
            s0 = a @ a.T + 0.1 * np.eye(d)
            s1 = b @ b.T + 0.1 * np.eye(d)
            kl = kl_gaussians(rng.normal(size=d), s0, rng.normal(size=d), s1)
            assert kl >= -1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            kl_gaussians([0.0], [[-1.0]], [0.0], [[1.0]])


def ar_conditional(theta, y, sigma):
    """Mean and covariance of the one-batch conditional Gaussian."""
    a = linalg.ar_matrix_a(theta)
    b = linalg.ar_matrix_b(theta)
    a_inv = np.linalg.inv(a)
    return a_inv @ b @ y, sigma ** 2 * a_inv @ a_inv.T


class TestArdQuadraticForm:
    def test_d1_reduction(self):
        m = ard_quadratic_matrix([0.4], [2.0], 1.0)
        assert math.isclose(m[0, 0], 4.0, abs_tol=1e-12)

    def test_zero_at_truth(self):
        theta = np.array([0.3, -0.1])
        m = ard_quadratic_matrix(theta, [1.0, 2.0], 1.5)
        delta = theta - theta
        assert 0.5 * float(delta @ m @ delta) == 0.0

    def test_keystone_kl_identity(self):
        # the quadratic form must reproduce the closed-form Gaussian KL
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            theta = random_stable_coeffs(rng, d)
            cand = random_stable_coeffs(rng, d)
            y = rng.uniform(-10, 10, d)
            y *= min(1.0, 10.0 / (np.linalg.norm(y) + 1e-9))
            sigma = rng.uniform(0.5, 2.0)
            delta = cand - theta
            m = ard_quadratic_matrix(theta, y, sigma)
            quad = 0.5 * float(delta @ m @ delta)
            kl = kl_gaussians(*ar_conditional(theta, y, sigma),
                              *ar_conditional(cand, y, sigma))
            assert abs(quad - kl) <= 1e-8 * (1.0 + abs(kl))

    def test_psd_and_symmetric(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            theta = random_stable_coeffs(rng, d)
            y = rng.uniform(-5, 5, d)
            m = ard_quadratic_matrix(theta, y, rng.uniform(0.5, 2))
            assert np.allclose(m, m.T, atol=1e-12)
            eigs = np.linalg.eigvalsh(m)
            assert eigs[0] >= -1e-10

    def test_strictly_positive_definite_for_nonzero_y(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            theta = random_stable_coeffs(rng, d)
            y = rng.uniform(0.5, 3.0, d) * rng.choice([-1.0, 1.0], d)
            m = ard_quadratic_matrix(theta, y, 1.0)
            assert np.linalg.eigvalsh(m)[0] > 0.0

    def test_quadratic_growth_in_y(self):
        # M(theta, cY) = (1 - c^2) M(theta, 0) + c^2 M(theta, Y): the
        # lag-vector dependence is exactly quadratic, so lambda_max grows
        # at most like ||Y||^2
        rng = np.random.default_rng(10)
        d = 3
        for _ in range(50):
            theta = random_stable_coeffs(rng, d)
            y = rng.uniform(-6, 6, d)
            c = rng.uniform(0.1, 4.0)
            m0 = ard_quadratic_matrix(theta, np.zeros(d), 1.0)
            m1 = ard_quadratic_matrix(theta, y, 1.0)
            mc = ard_quadratic_matrix(theta, c * y, 1.0)
            assert np.allclose(mc, (1.0 - c * c) * m0 + c * c * m1,
                               atol=1e-10)


class TestSymEigenvalues:
    """The ascending symmetric eigenvalues that the lemma report and the
    Gaussian gain's constants read."""

    def test_diagonal(self):
        report = lemma_eig_check(np.diag([3.0, 1.0]), 0.25)
        assert np.array_equal(report.eigenvalues, [1.0, 3.0])

    def test_identity(self):
        consts = gains.gaussian_known_cov_spec(np.eye(4)).constants
        assert consts.lambda1 == consts.lambda2 == 1.0

    def test_trace_identity_random(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4))
        m = a @ a.T + 0.1 * np.eye(4)
        eigs = lemma_eig_check(m, 0.5 / np.trace(m)).eigenvalues
        assert math.isclose(float(np.sum(eigs)), float(np.trace(m)),
                            abs_tol=1e-10)


class TestEigLemma:
    def test_diag_example(self):
        report = lemma_eig_check(np.diag([1.0, 3.0]), 0.25)
        assert report.ok
        assert report.norm_discrepancy <= 1e-12

    def test_boundary_gamma_rejected(self):
        with pytest.raises(ValueError):
            lemma_eig_check(np.diag([1.0, 3.0]), 1.0 / 3.0)

    def test_random_spd(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            a = rng.normal(size=(d, d))
            m = a @ a.T + 0.05 * np.eye(d)
            lam_max = float(np.linalg.eigvalsh(m)[-1])
            gamma = rng.uniform(0.05, 0.95) / lam_max
            report = lemma_eig_check(m, gamma)
            assert report.ok
            assert report.norm_discrepancy <= 1e-10
            assert report.ordering_discrepancy <= 1e-10


class TestAbelTransform:
    def test_single_term(self):
        b = [np.eye(2), np.eye(2)]
        a = [np.array([1.0, -2.0])]
        assert abel_transform_check(b, a, k0=0, k=0) == 0.0

    def test_constant_b_collapses(self):
        b = [2.0 * np.eye(3)] * 6
        rng = np.random.default_rng(14)
        a = [rng.normal(size=3) for _ in range(5)]
        assert abel_transform_check(b, a, k0=0, k=4) < 1e-12

    def test_random_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            terms = int(rng.integers(1, 11))
            b = [rng.normal(size=(3, 3)) for _ in range(terms + 1)]
            a = [rng.normal(size=3) for _ in range(terms + 1)]
            k0 = int(rng.integers(0, terms))
            assert abel_transform_check(b, a, k0=k0, k=terms) < 1e-12


@given(p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
       d=st.integers(min_value=1, max_value=8))
def test_kp_constant_bounds_sqrt_d(p, d):
    kp = kp_constant(p, d)
    assert 1.0 <= kp <= math.sqrt(d) + 1e-12
