"""Control-affine systems, Lyapunov candidates and sampled certificates.

Sampled checks here are certificates of non-falsification on a finite
point set, never proofs. They use deterministic Halton points so a report
is reproducible from its inputs.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numdiff
from .errors import CertificateError
from .linear_core import LinearSystem, is_hurwitz
from .sampling import sample_box

ORIGIN_TOL = 1e-12


def check_rows(n, *fns):
    """ValueError unless each fn on a stack of two probe states returns, row
    by row and up to rounding, fn at each state (the rows contract). The
    probes lie within 1e-3 of the origin, near which every plant is defined."""
    k = np.arange(1.0, n + 1.0) / n
    probes = np.stack([1e-3 * k, -5e-4 * k[::-1]])
    for fn in fns:
        want = np.array([fn(x) for x in probes])
        try:
            got = fn(probes)
        except (ValueError, TypeError, IndexError) as e:
            got = e
        if not (isinstance(got, np.ndarray) and got.shape == want.shape
                and np.allclose(got, want, rtol=1e-9, atol=0.0, equal_nan=True)):
            raise ValueError(
                f"{fn.__qualname__} breaks the rows contract: on a stack of states it must "
                "return the result of each state, row by row (read x[..., i])")


class ControlAffineSystem:
    """System x' = a(x) + b(x) u with a(0) = 0.

    a and b take one state (n,) or a stack (..., n) (the rows contract,
    check_rows) and return C-ordered x.shape[:-1] + (n,) and
    x.shape[:-1] + (n, p) arrays, since BLAS sums (lie_forms) depend on
    strides; a constant b is broadcast. The linearization at the origin
    is computed by central differences unless one is supplied, in which
    case the supplied pair is validated against finite differences within
    1e-5 relative.
    """

    def __init__(self, n, p, a, b, linearization=None):
        self.n = int(n)
        self.p = int(p)
        self._a = a
        self._b = b
        a0 = self.a(np.zeros(self.n))
        if np.linalg.norm(a0) > ORIGIN_TOL:
            raise ValueError(f"a(0) must vanish, got norm {np.linalg.norm(a0):.3e}")
        A_fd = numdiff.jacobian(self.a, np.zeros(self.n))
        B_fd = self.b(np.zeros(self.n))
        if linearization is None:
            A, B = A_fd, B_fd
        else:
            A, B = (linearization.A, linearization.B) if isinstance(linearization, LinearSystem) \
                else (np.asarray(linearization[0], dtype=float),
                      np.asarray(linearization[1], dtype=float).reshape(self.n, self.p))
            if np.linalg.norm(A - A_fd) > 1e-5 * (1.0 + np.linalg.norm(A)):
                raise ValueError("supplied A disagrees with finite differences of a at 0")
            if np.linalg.norm(B - B_fd) > 1e-5 * (1.0 + np.linalg.norm(B)):
                raise ValueError("supplied B disagrees with b(0)")
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            self.linearization = LinearSystem(A, B, check_stabilizable=False)
        check_rows(self.n, self.a, self.b)

    def a(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ascontiguousarray(self._a(x), dtype=float)
        return out.reshape(self.n) if x.ndim == 1 else out.reshape(x.shape[:-1] + (self.n,))

    def b(self, x):
        x = np.asarray(x, dtype=float)
        out = np.ascontiguousarray(self._b(x), dtype=float)
        if x.ndim == 1:
            return out.reshape(self.n, self.p)
        if out.size == self.n * self.p:  # one matrix for every state
            return np.broadcast_to(out.reshape(self.n, self.p), x.shape[:-1] + (self.n, self.p))
        return out.reshape(x.shape[:-1] + (self.n, self.p))


class Clf:
    """Lyapunov candidate: scalar value with gradient and origin Hessian.

    value and gradient take rows (check_rows); a missing gradient falls
    back to central differences. A supplied Hessian is cross-checked
    against finite differences within 1e-3 relative; it must be SPD.
    """

    def __init__(self, n, value, gradient=None, hessian_origin=None):
        self.n = int(n)
        self._value = value
        self._gradient = gradient
        z = np.zeros(self.n)
        v0 = self.value(z)
        if abs(v0) > ORIGIN_TOL:
            raise ValueError(f"value(0) must be 0, got {v0:.3e}")
        H_fd = numdiff.hessian(self.value, z)
        if hessian_origin is None:
            H = 0.5 * (H_fd + H_fd.T)
        else:
            H = np.asarray(hessian_origin, dtype=float)
            if np.linalg.norm(H - H_fd, ord="fro") > 1e-3 * (1.0 + np.linalg.norm(H, ord="fro")):
                raise ValueError("hessian_origin disagrees with finite differences at 0")
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise ValueError("hessian at the origin must be positive definite") from None
        self.hessian_origin = H
        g0 = self.gradient(z)
        if np.linalg.norm(g0) > 1e-8 * (1.0 + np.linalg.norm(H)):
            raise ValueError("gradient must vanish at the origin")
        check_rows(self.n, self.value, self.gradient)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        v = self._value(x)
        return float(v) if x.ndim == 1 else np.asarray(v, dtype=float).reshape(x.shape[:-1])

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        g = numdiff.gradient(self.value, x) if self._gradient is None else self._gradient(x)
        return np.ascontiguousarray(g, dtype=float).reshape(x.shape)


def local_quadratic_clf(P):
    """V(x) = x' P x for symmetric positive definite P; exact derivatives.

    Each entry of the gradient (2P) x, of P x and the value x . (P x) is
    one np.vecdot of C-ordered rows, whose sums do not depend on the
    layout of x: a row view, its copy, a Fortran-ordered row and the
    same row of a stack give the same bits.
    """
    P = np.asarray(P, dtype=float)
    P = 0.5 * (P + P.T)
    np.linalg.cholesky(P)
    H = 2.0 * P

    def value(x):
        x = np.ascontiguousarray(x)
        return np.vecdot(x, np.vecdot(P, x[..., None, :]))

    return Clf(P.shape[0], value,
               lambda x: np.vecdot(H, np.ascontiguousarray(x)[..., None, :]),
               hessian_origin=H)


def lie_forms(g, a, b):
    """(L_a V, L_b V) from grad V, a and b at one state or row by row: the
    one place grad V meets the field."""
    return np.vecdot(g, a), np.vecmat(g, b)


def lie_derivatives(V, sys, x):
    """(L_a V, L_b V) at one state (scalar, (p,)) or at each row of a stack."""
    return lie_forms(V.gradient(x), sys.a(x), sys.b(x))


def kernel_tol(grad):
    """Kernel threshold for ||L_b V||: 1e-7 scaled by the gradient size.

    grad is one gradient or one per row; the norm is over the last axis.
    """
    return 1e-7 * (1.0 + np.sqrt(np.vecdot(grad, grad)))


def strict_margin(la):
    """Strictness margin for sampled decrease tests: 1e-9 (1 + |L_a V|)."""
    return 1e-9 * (1.0 + abs(la))


@dataclass(eq=False)
class LieSweep:
    """V, L_a V, L_b V and the kernel threshold of (V, sys) at a set of states.

    Row i of values, la, lb (shape (N, p)) and kernel_tol belongs to
    points[i]. Every sampled certificate is a mask over one sweep.
    """

    V: object
    sys: object
    points: np.ndarray
    values: np.ndarray
    la: np.ndarray
    lb: np.ndarray
    kernel_tol: np.ndarray

    @property
    def in_kernel(self):
        """Rows where ||L_b V|| is at most the kernel threshold."""
        return np.linalg.norm(self.lb, axis=1) <= self.kernel_tol

    def rows(self, mask):
        """The sweep restricted to the rows where mask holds."""
        return LieSweep(self.V, self.sys, self.points[mask], self.values[mask],
                        self.la[mask], self.lb[mask], self.kernel_tol[mask])


def lie_sweep(V, sys, points):
    """LieSweep at the rows of points: one call of V and of the field for all rows.

    Each row has the bits of lie_derivatives at that state. The last axis
    of points must have sys.n entries (ValueError otherwise).
    """
    points = np.ascontiguousarray(points, dtype=float)
    if points.shape[-1:] != (sys.n,):
        raise ValueError(f"sweep points need {sys.n} coordinates, got shape {points.shape}")
    points = points.reshape(-1, sys.n)
    g = V.gradient(points)
    la, lb = lie_forms(g, sys.a(points), sys.b(points))
    return LieSweep(V, sys, points, values=V.value(points), la=la, lb=lb,
                    kernel_tol=kernel_tol(g))


@dataclass
class ArtsteinReport:
    """Sampled control-Lyapunov test: where L_b V vanishes, L_a V must be < 0."""

    checked: int
    kernel_hits: int
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations

    def to_dict(self):
        return {
            "checked": self.checked,
            "kernel_hits": self.kernel_hits,
            "violations": [list(map(float, v)) for v in self.violations],
            "passed": self.passed,
        }


def check_artstein_sampled(sweep):
    """Flag sweep states with L_b V ~ 0 (kernel threshold) but L_a V >= 0.

    States whose value is at most 1e-9 times the largest swept value are
    treated as the origin and skipped. A passing report certifies only
    the swept set.
    """
    live = sweep.values > 1e-9 * max(float(np.max(sweep.values)), ORIGIN_TOL)
    kernel = live & sweep.in_kernel
    return ArtsteinReport(
        checked=int(np.sum(live)), kernel_hits=int(np.sum(kernel)),
        violations=[np.array(x) for x in sweep.points[kernel & (sweep.la >= 0.0)]])


def _scan_levels(sweep, level_grid, slack, failure):
    """Largest grid level whose swept sublevel set satisfies slack < -margin.

    slack holds one entry per sweep row, the margin is strict_margin(L_a V)
    of that row. A level passes when every row with 1e-7 * top < V(x) <=
    level passes, so with m the smallest such V and f that of a failing
    row, the level is the largest l with m <= l < f (an ascending scan
    that skips empty levels and stops at the first failing one).
    CertificateError with the failure message when no level passes.
    """
    levels = np.sort(np.asarray(level_grid, dtype=float).ravel())
    if not levels.size or levels[0] <= 0:
        raise ValueError("level_grid must contain positive levels")
    live = sweep.values > 1e-7 * levels[-1]
    vals = sweep.values[live]
    fails = ~(np.asarray(slack)[live] < -strict_margin(sweep.la[live]))
    passing = levels[(levels >= np.min(vals, initial=np.inf))
                     & (levels < np.min(vals[fails], initial=np.inf))]
    if not passing.size:
        raise CertificateError(failure)
    return float(passing[-1])


def find_r0(sweep, K_o, level_grid):
    """Largest grid level r0 such that u = K_o x decreases V on {V <= r0}.

    Scans the ascending grid (_scan_levels); a level passes when every
    swept state with 0 < V(x) <= level satisfies
    L_a V + L_b V K_o x < -strict_margin(L_a V). Levels with no swept
    state are skipped (neither passed nor failed). Raises when the first
    populated level already fails.
    """
    sys = sweep.sys
    K_o = np.asarray(K_o, dtype=float).reshape(sys.p, sys.n)
    A = sys.linearization.A
    B = sys.linearization.B
    if not is_hurwitz(A + B @ K_o):
        raise ValueError("K_o does not stabilize the linearization")
    slack = sweep.la + np.einsum("ij,ij->i", sweep.lb, sweep.points @ K_o.T)
    return _scan_levels(
        sweep, level_grid, slack,
        "no grid level passed the local decrease test; refine the grid "
        "toward smaller levels or adjust the prescribed gain")


@dataclass
class BlendProfile:
    """Cubic smoothstep: 0 on [0, r0/2], 1 on [r0, inf), C^1 in between."""

    r0: float

    def __post_init__(self):
        if not self.r0 > 0:
            raise ValueError("r0 must be positive")

    def profile(self, s):
        """The profile at a level (a float) or at each entry of a level column."""
        half = 0.5 * self.r0
        t = (s - half) / half
        t = np.clip(t, 0.0, 1.0) if isinstance(t, np.ndarray) else min(max(t, 0.0), 1.0)
        return t * t * (3.0 - 2.0 * t)

    __call__ = profile


def blend_profile(r0):
    return BlendProfile(float(r0))


@dataclass
class PositivityReport:
    min_interior: float
    negative_states: list
    boundary_min: float
    core_max: float
    proper: bool

    @property
    def passed(self):
        return not self.negative_states and self.proper

    def to_dict(self):
        return {
            "min_interior": self.min_interior,
            "negative_states": [list(map(float, v)) for v in self.negative_states],
            "boundary_min": self.boundary_min,
            "core_max": self.core_max,
            "proper": self.proper,
            "passed": self.passed,
        }


def check_positivity_properness(V, box, n_samples=512, seed=0):
    """Positivity of V off the origin and growth toward the box boundary.

    Properness is judged by a surrogate: the smallest boundary value must
    exceed the largest value on the central quarter-scale box. Both facts
    hold only for the sampled box, nothing larger. For x'Px the surrogate
    fails on elongated boxes and is not needed: the Cholesky factor that
    local_quadratic_clf takes proves both facts on all of R^n.
    """
    pts, faces = np.split(sample_box(box, 2 * n_samples, seed=seed), 2)
    vals = V.value(pts)
    scale = max(float(np.max(vals)), ORIGIN_TOL)
    interior = (vals > 1e-9 * scale) | (np.linalg.norm(pts, axis=1) > 1e-6)
    # push samples onto the boundary, one face per point, round robin
    i = np.arange(len(faces))
    j = i % box.dim
    faces[i, j] = np.where((i // box.dim) % 2 == 0, box.highs[j], box.lows[j])
    core_max = float(np.max(V.value(0.25 * pts)))
    boundary_min = float(np.min(V.value(faces)))
    return PositivityReport(
        min_interior=float(np.min(vals)),
        negative_states=list(pts[interior & (vals <= 0.0)]),
        boundary_min=boundary_min,
        core_max=core_max,
        proper=boundary_min > core_max,
    )
