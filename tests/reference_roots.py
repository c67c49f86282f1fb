"""A reference AR spectral radius from polynomial roots, not eigenvalues.

linalg.ar_stability_check reads the spectral radius of the companion
matrix off np.linalg.eigvals.  The tests check it against this route:
the reciprocal of the smallest root modulus of 1 - sum theta_i z^i, with
the roots found by Durand-Kerner simultaneous iteration.
"""

from __future__ import annotations

import numpy as np


def durand_kerner_roots(coeffs, tol: float = 1e-12, max_sweeps: int = 200) -> np.ndarray:
    """All complex roots of sum_j coeffs[j] z^j (ascending order, c[-1] != 0).

    Simultaneous iteration with initial guesses on a circle of radius
    1 + max |c_j / c_m|, slightly rotated to break symmetry.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.size < 2:
        raise ValueError("need a polynomial of degree >= 1")
    if c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    c = c / c[-1]
    m = c.size - 1
    radius = 1.0 + float(np.max(np.abs(c[:-1])))
    roots = radius * np.exp(2j * np.pi * (np.arange(m) + 0.357) / m)
    desc = c[::-1]  # descending for polyval
    for _ in range(max_sweeps):
        shift = np.zeros(m, dtype=complex)
        for i in range(m):
            diff = roots[i] - np.delete(roots, i)
            shift[i] = np.polyval(desc, roots[i]) / np.prod(diff)
        roots = roots - shift
        if np.max(np.abs(shift)) < tol:
            return roots
    if np.max(np.abs(np.polyval(desc, roots))) < 1e-10:  # converged in value
        return roots
    raise RuntimeError("root iteration did not converge")


def reference_spectral_radius(theta) -> float:
    """1 / min |z| over the zeros of 1 - sum theta_i z^i; 0 for theta = 0.

    Trailing zero coefficients drop the degree: their roots escape to
    infinity and leave the radius alone.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    nz = np.nonzero(theta)[0]
    if nz.size == 0:
        return 0.0
    coeffs = np.concatenate(([1.0], -theta[: nz[-1] + 1]))
    return 1.0 / float(np.min(np.abs(durand_kerner_roots(coeffs))))
