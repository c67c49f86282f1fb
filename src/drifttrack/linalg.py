"""Dense matrix helpers for autoregressive tracking.

Toeplitz and companion constructions, unit upper-triangular
back-substitution, the AR stability check, and two column-wise helpers:
a row norm and an elementwise operation taken one column at a time.

The stability check takes the companion spectral radius from
np.linalg.eigvals.  The tests check it against their own Durand-Kerner
root finder on the reciprocal polynomial.  The Gaussian KL identity,
the AR(d) quadratic form and the eigenvalue and summation-by-parts
lemmas, which no subcommand runs, are in tests/paper_checks.py.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "toeplitz_from_vector",
    "ar_matrix_a",
    "ar_matrix_b",
    "companion_matrix",
    "solve_unit_upper",
    "ar_stability_check",
    "row_sq_norms",
    "by_column",
]


# =====================================================================
# Toeplitz / companion constructions
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


def row_sq_norms(c: np.ndarray) -> np.ndarray:
    """np.sum(c * c, axis=-1) as one pass per column: numpy adds a row's
    squares in order below 8 columns, so the bits agree there, and no
    temporary the size of c is made."""
    sq = c[..., 0] * c[..., 0]
    for j in range(1, c.shape[-1]):
        sq += c[..., j] * c[..., j]
    return sq


def by_column(op, x: np.ndarray, cols) -> np.ndarray:
    """op(x[..., j], cols[j]) into column j of a new float array shaped
    like x.  On a stack of rows a few columns wide, numpy's broadcast
    loops cost several times their arithmetic; a ufunc per column has
    the bits of the broadcast (where both operands hold a NaN, either may
    come out, as between numpy's own loops).  On one row, or operands of
    one shape, the plain expression is quicker."""
    out = np.empty(x.shape)
    for j, col in enumerate(cols):
        op(x[..., j], col, out=out[..., j])
    return out
