"""Checks of the paper's statements that no subcommand runs.

The subcommands evaluate the first-moment bound (bounds.theorem1_bound)
and probe the A1/A2 conditions.  What is here restates the rest of the
paper so the tests can check it: the p-th-moment and biased bounds, the
oscillation of a target path, the truncated-moment, eigenvalue and
summation-by-parts lemmas, the Gaussian KL identity behind the AR(d)
quadratic form, and the Robbins-Monro, Kiefer-Wolfowitz and SPSA gains
the abstract names.  Acceptance criteria 1-4 call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from drifttrack.bounds import SE_MARGIN, BoundInputs, theorem1_bound
from drifttrack.linalg import ar_matrix_a, ar_matrix_b, solve_unit_upper


# =====================================================================
# Error bounds
# =====================================================================

def bp_constant(p: float, b1: float = 2.0) -> float:
    """Moment constant of the martingale inequality used at order p."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if p == 1.0:
        return b1
    return ((18.0 * p ** 2.5) / (p - 1.0) ** 1.5) ** p


def theorem2_bound(inputs: BoundInputs, initial_moment_p: float,
                   max_oscillation_p: float, *, p: float = 1.0,
                   g_bar: Optional[float] = None, dim: int = 1) -> float:
    """p-th moment error bound.

    C1' E||delta_{k0}||_p^p exp(-p lambda1 sum gamma)
    + C2' (sum gamma^2)^{p/2} + C3' * max_oscillation_p, where
    max_oscillation_p is already the p-th power max E||theta_{i+1} -
    theta_{k0}||_p^p over the window and g_bar is the hard gain bound.
    """
    inputs.check_contraction()
    if initial_moment_p < 0 or max_oscillation_p < 0:
        raise ValueError("moments must be nonnegative")
    kp = kp_constant(p, dim)
    ratio = 1.0 + kp ** 2 * inputs.lambda2 / inputs.lambda1
    three = 3.0 ** (p - 1.0)
    c1p = three * kp ** p
    if g_bar is None:
        raise ValueError("g_bar (hard gain bound) required for the Lp bound")
    c2p = three * 2.0 ** p * dim * bp_constant(p) * g_bar ** p * ratio ** p
    c3p = three * ratio ** p
    gsum = float(np.sum(inputs.gammas))
    gsq = float(np.sum(inputs.gammas ** 2))
    return (c1p * initial_moment_p * math.exp(-p * inputs.lambda1 * gsum)
            + c2p * gsq ** (p / 2.0) + c3p * max_oscillation_p)


def biased_bound(inputs: BoundInputs, bias_norms, mode: str,
                 max_oscillation: float = 0.0,
                 initial_moment_p: float = 0.0, *, p: float = 1.0,
                 g_bar: Optional[float] = None, dim: int = 1) -> float:
    """Error bound when the average gain carries a bias eta_k.

    mode "L1": adds C3 * sum gamma_i ||eta_i|| to the first-moment bound.
    mode "Lp": folds sum gamma_i ||eta_i||_p into the oscillation before
    raising to p, so max_oscillation is interpreted as the un-raised
    max E||theta_{i+1} - theta_{k0}||_p here.  Zero bias reduces to the
    unbiased bounds exactly.
    """
    bias_norms = np.atleast_1d(np.asarray(bias_norms, dtype=float))
    if bias_norms.size != inputs.gammas.size:
        raise ValueError("bias sequence length must match the step window")
    if np.any(bias_norms < 0):
        raise ValueError("bias norms must be nonnegative")
    weighted = float(np.sum(inputs.gammas * bias_norms))
    if mode == "L1":
        ratio = 1.0 + inputs.lambda2 / inputs.lambda1
        return theorem1_bound(inputs, max_oscillation) + ratio * weighted
    if mode == "Lp":
        return theorem2_bound(inputs, initial_moment_p,
                              (max_oscillation + weighted) ** p,
                              p=p, g_bar=g_bar, dim=dim)
    raise ValueError("mode must be 'L1' or 'Lp'")


def bias_from_parameter_gap(eps_norms, lambda2: float,
                            p: float = 1.0, dim: int = 1) -> np.ndarray:
    """Bias bound when tracking a nearby parameter at distance eps_k:
    ||eta_k||_p <= lambda2 K_p ||eps_k||_p (K_1 taken as 1)."""
    eps_norms = np.atleast_1d(np.asarray(eps_norms, dtype=float))
    kp = 1.0 if p == 1.0 else kp_constant(p, dim)
    return lambda2 * kp * eps_norms


def estimate_oscillation(theta_path, p: float = 2.0, k0: int = 0) -> float:
    """max over i >= k0 of ||theta_{i+1} - theta_{k0}||_p for one path,
    or the mean of that max across a (replications, steps, d) stack."""
    theta_path = np.asarray(theta_path, dtype=float)
    if theta_path.ndim == 3:
        return float(np.mean([estimate_oscillation(path, p, k0)
                              for path in theta_path]))
    if theta_path.ndim == 1:
        theta_path = theta_path[:, None]
    diffs = theta_path[k0 + 1:] - theta_path[k0]
    if diffs.shape[0] == 0:
        return 0.0
    if p == math.inf:
        norms = np.max(np.abs(diffs), axis=1)
    else:
        norms = np.sum(np.abs(diffs) ** p, axis=1) ** (1.0 / p)
    return float(np.max(norms))


@dataclass(frozen=True)
class TruncatedMomentReport:
    mc_mean: float
    se: float
    threshold: float
    passed: bool


def lemma_truncated_moment_check(theta: float, x_prev: float, sigma: float,
                                 c4: float, trunc: float, n_samples: int,
                                 rng: np.random.Generator) -> TruncatedMomentReport:
    """Truncated conditional second moment of an AR(1) step.

    With X = theta x_prev + xi, E xi^2 = sigma^2, E xi^4 = c4 sigma^4,
    0 < c4 < 5, and any truncation level T >= (9 - c4) sigma^2 / 4, the
    conditional mean of min(X^2, T) is at least (5 - c4) sigma^2 / 4.
    PASS when the MC mean clears the threshold minus 4 SE.
    """
    if not 0.0 < c4 < 5.0:
        raise ValueError("fourth-moment ratio must lie in (0, 5)")
    floor = (9.0 - c4) * sigma ** 2 / 4.0
    if trunc < floor - 1e-12:
        raise ValueError(f"truncation level below the admissible floor {floor}")
    x = theta * x_prev + rng.normal(0.0, sigma, size=n_samples)
    clipped = np.minimum(x * x, trunc)
    mean = float(clipped.mean())
    se = float(clipped.std(ddof=1)) / math.sqrt(n_samples)
    threshold = (5.0 - c4) * sigma ** 2 / 4.0
    return TruncatedMomentReport(mc_mean=mean, se=se, threshold=threshold,
                                 passed=mean >= threshold - SE_MARGIN * se)


# =====================================================================
# Matrix identities and lemmas
# =====================================================================

def shift_matrix(d: int, power: int = 1) -> np.ndarray:
    """Upper shift matrix S^power (ones on the power-th superdiagonal)."""
    if power >= d:
        return np.zeros((d, d))
    return np.eye(d, k=power)


def stability_inner_radius(rho: float, d: int) -> float:
    """Sup-norm ball radius guaranteed inside the stability region."""
    return sum(rho ** (-2 * i) for i in range(1, d + 1)) ** -0.5


def kl_gaussians(mu0, sigma0, mu1, sigma1) -> float:
    """KL(N(mu0, sigma0) || N(mu1, sigma1)) for SPD covariances."""
    mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    sigma0 = np.atleast_2d(np.asarray(sigma0, dtype=float))
    sigma1 = np.atleast_2d(np.asarray(sigma1, dtype=float))
    d = mu0.size
    sign0, logdet0 = np.linalg.slogdet(sigma0)
    sign1, logdet1 = np.linalg.slogdet(sigma1)
    if sign0 <= 0 or sign1 <= 0:
        raise ValueError("covariances must be positive definite")
    diff = mu1 - mu0
    solve1 = np.linalg.solve(sigma1, np.column_stack([sigma0, diff]))
    trace_term = float(np.trace(solve1[:, :d]))
    quad_term = float(diff @ solve1[:, d])
    return 0.5 * (logdet1 - logdet0 + trace_term - d + quad_term)


def ard_quadratic_matrix(theta, y, sigma: float) -> np.ndarray:
    """The matrix M(theta, Y) whose quadratic form (v-theta)^T M
    (v-theta)/2 equals the KL divergence between the two conditional
    Gaussian kernels of an AR(d) batch, from the shift-matrix expansion.

    M = V^T V + sigma^{-2} W^T W with column i of V the (column-major)
    vectorization of S^i A^{-1}(theta) and column i of W the vector
    C_i(theta) Y, C_i = (S^{d-i})^T + S^i A^{-1}(theta) B(theta).  The
    conditional mean of the batched score is -M (estimate - theta).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = theta.size
    if y.size != d:
        raise ValueError("y must have the same dimension as theta")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    a = ar_matrix_a(theta)
    a_inv = np.column_stack([solve_unit_upper(a, e) for e in np.eye(d)])
    b = ar_matrix_b(theta)
    v_cols = np.empty((d * d, d))
    w_cols = np.empty((d, d))
    a_inv_b = a_inv @ b
    for i in range(1, d + 1):
        s_i = shift_matrix(d, i)
        v_cols[:, i - 1] = (s_i @ a_inv).flatten(order="F")
        c_i = shift_matrix(d, d - i).T + s_i @ a_inv_b
        w_cols[:, i - 1] = c_i @ y
    m = v_cols.T @ v_cols + (w_cols.T @ w_cols) / sigma ** 2
    return 0.5 * (m + m.T)  # kill roundoff asymmetry


@dataclass(frozen=True)
class EigLemmaReport:
    eigenvalues: np.ndarray
    norm_discrepancy: float
    ordering_discrepancy: float
    pnorm_ok: bool
    ok: bool


def _induced_norm(m: np.ndarray, p) -> float:
    if p == 1:
        return float(np.max(np.abs(m).sum(axis=0)))
    if p == math.inf:
        return float(np.max(np.abs(m).sum(axis=1)))
    if p == 2:
        return float(np.max(np.abs(np.linalg.eigvalsh(m))))
    raise ValueError("only p in {1, 2, inf} supported")


def kp_constant(p, d: int) -> float:
    """Norm-equivalence bound K_p(d) relating the p-norm to the 2-norm."""
    if p == math.inf:
        return math.sqrt(d)
    if p < 1:
        raise ValueError("p must be >= 1")
    if p >= 2:
        return d ** ((p - 2) / (2 * p))
    return d ** ((2 - p) / (2 * p))


def lemma_eig_check(m, gamma: float, tol: float = 1e-10) -> EigLemmaReport:
    """Verify the contraction identities for I - gamma*M, M SPD.

    Checks ||I - gamma M||_2 = 1 - gamma*lambda_min(M), the eigenvalue
    order reversal of I - gamma M, strict positivity, and the p-norm
    bound ||M||_p <= K_p(d) lambda_max(M) for p in {1, 2, inf}.
    """
    m = np.asarray(m, dtype=float)
    d = m.shape[0]
    eigs = np.linalg.eigvalsh(m)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_min <= 0:
        raise ValueError("matrix must be positive definite")
    if gamma * lam_max >= 1.0:
        raise ValueError("gamma * lambda_max must be below 1")
    contraction = np.eye(d) - gamma * m
    c_eigs = np.linalg.eigvalsh(contraction)
    norm_disc = abs(_induced_norm(contraction, 2) - (1.0 - gamma * lam_min))
    ordering_disc = max(
        abs(float(c_eigs[0]) - (1.0 - gamma * lam_max)),
        abs(float(c_eigs[-1]) - (1.0 - gamma * lam_min)),
    )
    positive = float(c_eigs[0]) > 0.0 and float(c_eigs[-1]) < 1.0
    pnorm_ok = all(
        _induced_norm(m, p) <= kp_constant(p, d) * lam_max + tol
        for p in (1, 2, math.inf)
    )
    ok = norm_disc <= tol and ordering_disc <= tol and positive and pnorm_ok
    return EigLemmaReport(eigenvalues=eigs, norm_discrepancy=norm_disc,
                          ordering_discrepancy=ordering_disc,
                          pnorm_ok=pnorm_ok, ok=ok)


def abel_transform_check(b_matrices, a_vectors, k0: int = 0, k: int | None = None) -> float:
    """Max componentwise gap between the two sides of summation by parts.

    Direct sum: sum_{i=k0}^{k} B_i a_i.  Transformed side:
    sum_{i=k0}^{k-1} (B_i - B_{i+1}) A_i + B_k A_k with the partial sums
    A_i = sum_{j=k0}^{i} a_j.  Both sides require entries through index k.
    """
    b_matrices = [np.asarray(b, dtype=float) for b in b_matrices]
    a_vectors = [np.atleast_1d(np.asarray(a, dtype=float)) for a in a_vectors]
    if k is None:
        k = len(a_vectors) - 1
    if k < k0:
        raise ValueError("need k >= k0")
    if len(b_matrices) < k + 1 or len(a_vectors) < k + 1:
        raise ValueError("need entries through index k")
    d = a_vectors[k0].size
    direct = np.zeros(d)
    for i in range(k0, k + 1):
        direct = direct + b_matrices[i] @ a_vectors[i]
    partial = np.zeros(d)
    transformed = np.zeros(d)
    for i in range(k0, k):
        partial = partial + a_vectors[i]
        transformed = transformed + (b_matrices[i] - b_matrices[i + 1]) @ partial
    partial = partial + a_vectors[k]
    transformed = transformed + b_matrices[k] @ partial
    return float(np.max(np.abs(direct - transformed)))


# =====================================================================
# Gains the abstract names, and the AR(d) log density
# =====================================================================

def gain_robbins_monro(x, alpha):
    """Root finding: -(x - alpha) pushes F(estimate) toward level alpha."""
    return -(np.asarray(x, dtype=float) - np.asarray(alpha, dtype=float))


def gain_kw_finite_difference(theta_hat, c: float, oracle, rng):
    """Coordinate central differences from 2d noisy oracle queries."""
    if c <= 0:
        raise ValueError("difference step c must be positive")
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    d = theta_hat.size
    out = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = c
        try:
            up = oracle(theta_hat + e, rng)
            down = oracle(theta_hat - e, rng)
        except Exception as exc:
            raise RuntimeError(
                f"oracle failed near query point {theta_hat + e}") from exc
        out[i] = (up - down) / (2.0 * c)
    return out


def gain_spsa(theta_hat, c: float, oracle, direction_sampler, rng,
              max_resamples: int = 16):
    """Random-direction two-query gradient estimate D (X+ - X-)/(2c)."""
    if c <= 0:
        raise ValueError("difference step c must be positive")
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    direction = None
    for _ in range(max_resamples):
        cand = np.atleast_1d(np.asarray(direction_sampler(rng), dtype=float))
        if np.linalg.norm(cand) > 1e-12:
            direction = cand
            break
    if direction is None:
        raise RuntimeError("direction sampler kept returning zero vectors")
    up = oracle(theta_hat + c * direction, rng)
    down = oracle(theta_hat - c * direction, rng)
    return direction * (up - down) / (2.0 * c)


def ard_log_density(theta_hat, x_batch, y_batch, sigma: float) -> float:
    """Log conditional density (up to a v-free constant) for testing."""
    resid = ar_matrix_a(theta_hat) @ np.atleast_1d(x_batch) \
        - ar_matrix_b(theta_hat) @ np.atleast_1d(y_batch)
    return -0.5 * float(resid @ resid) / sigma ** 2
