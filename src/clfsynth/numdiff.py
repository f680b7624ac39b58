"""Central finite differences used for validation and default derivatives."""

import numpy as np

GRADIENT_STEP = 1e-5
JACOBIAN_STEP = 1e-6
HESSIAN_STEP = 1e-3


def gradient(f, x):
    """Central-difference gradient of a scalar function at x (..., n), in 2n calls of f."""
    x = np.asarray(x, dtype=float)
    h = GRADIENT_STEP * (1.0 + np.abs(x))
    g = np.zeros_like(x)
    for j in range(x.shape[-1]):
        e = np.zeros_like(x)
        e[..., j] = h[..., j]
        g[..., j] = (f(x + e) - f(x - e)) / (2.0 * h[..., j])
    return g


def jacobian(f, x):
    """Central-difference Jacobian of a vector function at x."""
    x = np.asarray(x, dtype=float)
    h = JACOBIAN_STEP * (1.0 + np.abs(x))
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h[j]
        cols.append((np.asarray(f(x + e), dtype=float)
                     - np.asarray(f(x - e), dtype=float)) / (2.0 * h[j]))
    return np.column_stack(cols)


def hessian(f, x):
    """Central second differences; adequate for smooth f and ~1e-3 relative targets."""
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    step = HESSIAN_STEP * (1.0 + np.abs(x))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step[i]
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / step[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step[j]
            H[i, j] = (f(x + ei + ej) - f(x + ei - ej)
                       - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * step[i] * step[j])
            H[j, i] = H[i, j]
    return H
