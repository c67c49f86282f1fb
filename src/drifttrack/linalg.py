"""Dense matrix helpers for autoregressive tracking.

Toeplitz and companion constructions, unit upper-triangular
back-substitution, the AR stability check, Gaussian KL divergence, the
quadratic form that the batched AR(d) average gain is built from, and
the eigenvalue and summation-by-parts lemmas.

Eigenvalues come from numpy: the stability check takes the companion
spectral radius from np.linalg.eigvals, and the symmetric lemmas use
np.linalg.eigvalsh.  The tests check the stability check against their
own Durand-Kerner root finder on the reciprocal polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArdQuadraticForm",
    "toeplitz_from_vector",
    "shift_matrix",
    "ar_matrix_a",
    "ar_matrix_b",
    "companion_matrix",
    "solve_unit_upper",
    "ar_stability_check",
    "stability_inner_radius",
    "kl_gaussians",
    "ard_quadratic_matrix",
    "lemma_eig_check",
    "abel_transform_check",
    "kp_constant",
    "row_sq_norms",
]


# =====================================================================
# Toeplitz / shift / companion constructions
# =====================================================================

def toeplitz_from_vector(m) -> np.ndarray:
    """Build the d x d constant-diagonal matrix from a length 2d-1 vector.

    The vector is read starting at the top-right entry, backwards along
    the top row, then down the left column, so entry (i, j) is
    m[i - j + d - 1].
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 1 or m.size % 2 == 0:
        raise ValueError("expected a flat vector of odd length 2d-1")
    d = (m.size + 1) // 2
    idx = np.arange(d)
    return m[idx[:, None] - idx[None, :] + d - 1]


def shift_matrix(d: int, power: int = 1) -> np.ndarray:
    """Upper shift matrix S^power (ones on the power-th superdiagonal)."""
    if power >= d:
        return np.zeros((d, d))
    return np.eye(d, k=power)


def ar_matrix_a(theta) -> np.ndarray:
    """Unit upper-triangular A(theta) = I - sum_i S^i theta_i."""
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    a = np.zeros(2 * d - 1)
    a[d - 1] = 1.0
    a[: d - 1] = -theta[: d - 1][::-1]  # entries -theta_{d-1} ... -theta_1
    return toeplitz_from_vector(a)


def ar_matrix_b(theta) -> np.ndarray:
    """Lower-triangular B(theta) = sum_i (S^{d-i})^T theta_i."""
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    b = np.zeros(2 * d - 1)
    b[d - 1:] = theta[::-1]  # entries theta_d, theta_{d-1}, ..., theta_1
    return toeplitz_from_vector(b)


def companion_matrix(theta) -> np.ndarray:
    """Companion matrix: first row theta, ones on the subdiagonal."""
    theta = np.asarray(theta, dtype=float)
    d = theta.size
    c = np.zeros((d, d))
    c[0, :] = theta
    if d > 1:
        c[np.arange(1, d), np.arange(d - 1)] = 1.0
    return c


def solve_unit_upper(a, b) -> np.ndarray:
    """x with a x = b for unit upper-triangular a, by back-substitution.

    One dot product per row, x[i] = b[i] - a[i, i+1:] @ x[i+1:]: the
    order SciPy's LAPACK triangular solve takes on a C-ordered a, so both
    give the same bits (tests pin it).  The diagonal is not read.
    """
    x = np.array(b, dtype=float)
    for i in range(x.size - 2, -1, -1):
        x[i] -= a[i, i + 1:] @ x[i + 1:]
    return x


# =====================================================================
# The AR stability region
# =====================================================================

def stability_inner_radius(rho: float, d: int) -> float:
    """Sup-norm ball radius guaranteed inside the stability region."""
    return sum(rho ** (-2 * i) for i in range(1, d + 1)) ** -0.5


def ar_stability_check(theta, rho: float) -> tuple[bool, float]:
    """Membership of theta in the rho-stability region.

    The region holds the coefficient vectors whose polynomial
    1 - sum theta_i z^i has no zero inside the disc of radius 1/rho:
    equivalently, the companion spectral radius is at most rho.  Returns
    (member, spectral_radius); the all-zero vector has radius 0.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    radius = float(np.max(np.abs(np.linalg.eigvals(companion_matrix(theta)))))
    member = radius == 0.0 or 1.0 / radius >= 1.0 / rho - 1e-9
    return member, radius


# =====================================================================
# Gaussian KL divergence
# =====================================================================

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


# =====================================================================
# The AR(d) quadratic form
# =====================================================================

@dataclass(frozen=True)
class ArdQuadraticForm:
    """The matrix M(theta, Y) whose quadratic form (ϑ-θ)ᵀM(ϑ-θ)/2 equals
    the KL divergence between the two conditional Gaussian kernels."""

    matrix: np.ndarray
    theta: np.ndarray
    y: np.ndarray
    sigma: float

    def quadratic(self, candidate) -> float:
        delta = np.asarray(candidate, dtype=float) - self.theta
        return 0.5 * float(delta @ self.matrix @ delta)


def ard_quadratic_matrix(theta, y, sigma: float) -> ArdQuadraticForm:
    """Assemble M(theta, Y) from the shift-matrix expansion.

    M = V^T V + sigma^{-2} W^T W with column i of V the (column-major)
    vectorization of S^i A^{-1}(theta) and column i of W the vector
    C_i(theta) Y, C_i = (S^{d-i})^T + S^i A^{-1}(theta) B(theta).
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
    m = 0.5 * (m + m.T)  # kill roundoff asymmetry
    return ArdQuadraticForm(matrix=m, theta=theta, y=y, sigma=float(sigma))


# =====================================================================
# The eigenvalue lemma
# =====================================================================

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


def row_sq_norms(c: np.ndarray) -> np.ndarray:
    """np.sum(c * c, axis=-1) as one pass per column: numpy adds a row's
    squares in order below 8 columns, so the bits agree there, and no
    temporary the size of c is made."""
    sq = c[..., 0] * c[..., 0]
    for j in range(1, c.shape[-1]):
        sq += c[..., j] * c[..., j]
    return sq


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
