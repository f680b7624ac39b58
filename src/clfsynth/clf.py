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


class ControlAffineSystem:
    """System x' = a(x) + b(x) u with a(0) = 0.

    a maps states to (n,) arrays, b to (n, p) arrays ((n,) is accepted for
    single-input systems). The linearization at the origin is computed by
    central differences unless one is supplied, in which case the supplied
    pair is validated against finite differences within 1e-5 relative.
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

    def a(self, x):
        return np.asarray(self._a(np.asarray(x, dtype=float)), dtype=float).reshape(self.n)

    def b(self, x):
        return np.asarray(self._b(np.asarray(x, dtype=float)), dtype=float).reshape(self.n, self.p)


class Clf:
    """Lyapunov candidate: scalar value with gradient and origin Hessian.

    Missing derivatives fall back to central differences. A supplied
    Hessian is cross-checked against finite differences within 1e-3
    relative; it must be symmetric positive definite.
    """

    def __init__(self, n, value, gradient=None, hessian_origin=None):
        self.n = int(n)
        self._value = value
        self._gradient = gradient
        z = np.zeros(self.n)
        v0 = float(value(z))
        if abs(v0) > ORIGIN_TOL:
            raise ValueError(f"value(0) must be 0, got {v0:.3e}")
        H_fd = numdiff.hessian(self._eval, z)
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

    def _eval(self, x):
        return float(self._value(np.asarray(x, dtype=float)))

    def value(self, x):
        return self._eval(x)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        if self._gradient is not None:
            return np.asarray(self._gradient(x), dtype=float).reshape(self.n)
        return numdiff.gradient(self._eval, x)


def local_quadratic_clf(P):
    """V(x) = x' P x for symmetric positive definite P; exact derivatives.

    Value and gradient avoid BLAS, whose sums depend on the memory layout
    of x: a row view, its copy and a Fortran-ordered row give the same
    bits. The gradient sums the rows of (2P) * x, which is 2 (P x)
    exactly, since doubling is exact.
    """
    P = np.asarray(P, dtype=float)
    P = 0.5 * (P + P.T)
    np.linalg.cholesky(P)
    H = 2.0 * P
    return Clf(P.shape[0],
               value=lambda x: float(np.einsum("i,ij,j->", x, P, x)),
               gradient=lambda x: (H * x).sum(axis=1),
               hessian_origin=H)


def _lie_terms(V, sys, x):
    """(grad V(x), L_a V(x), L_b V(x)): the one place grad V meets the field."""
    g = V.gradient(x)
    return g, float(g @ sys.a(x)), g @ sys.b(x)


def lie_derivatives(V, sys, x):
    """(L_a V(x), L_b V(x)) with shapes (scalar, (p,))."""
    _, la, lb = _lie_terms(V, sys, np.asarray(x, dtype=float))
    return la, lb


def kernel_tol(grad):
    """Kernel threshold for ||L_b V||: 1e-7 scaled by the gradient size.

    grad is one gradient or one per row; the norm is over the last axis.
    """
    return 1e-7 * (1.0 + np.linalg.norm(grad, axis=-1))


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
    """LieSweep at the rows of points; grad V is computed once per row.

    Each row uses the arithmetic of lie_derivatives, so the two agree
    exactly.
    """
    points = np.asarray(points, dtype=float).reshape(-1, sys.n)
    terms = [_lie_terms(V, sys, x) for x in points]
    return LieSweep(
        V, sys, points,
        values=np.array([V.value(x) for x in points]),
        la=np.array([t[1] for t in terms]),
        lb=np.array([t[2] for t in terms]).reshape(len(points), sys.p),
        kernel_tol=kernel_tol(np.array([t[0] for t in terms]).reshape(len(points), sys.n)))


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
    of that row. Levels are scanned in ascending order; a level passes when
    every row with 1e-7 * top < V(x) <= level passes, levels with no such
    row are skipped, and the first failing level stops the scan. Raises
    CertificateError with the failure message when no level passes.
    """
    levels = sorted(float(l) for l in level_grid)
    if not levels or levels[0] <= 0:
        raise ValueError("level_grid must contain positive levels")
    vals = sweep.values
    above_floor = vals > 1e-7 * levels[-1]
    passes = np.asarray(slack) < -strict_margin(sweep.la)
    best = None
    for level in levels:
        mask = above_floor & (vals <= level)
        if not np.any(mask):
            continue
        if np.all(passes[mask]):
            best = level
        else:
            break
    if best is None:
        raise CertificateError(failure)
    return best


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
        half = 0.5 * self.r0
        if s <= half:
            return 0.0
        if s >= self.r0:
            return 1.0
        t = (s - half) / half
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
    hold only for the sampled box, nothing larger.
    """
    pts, faces = np.split(sample_box(box, 2 * n_samples, seed=seed), 2)
    vals = np.array([V.value(x) for x in pts])
    scale = max(float(np.max(vals)), ORIGIN_TOL)
    interior = [(x, v) for x, v in zip(pts, vals) if v > 1e-9 * scale or np.linalg.norm(x) > 1e-6]
    negative = [x for x, v in interior if v <= 0.0]
    # push samples onto the boundary, one face per point, round robin
    boundary_vals = []
    for i, x in enumerate(faces):
        y = np.array(x)
        j = i % box.dim
        y[j] = box.highs[j] if (i // box.dim) % 2 == 0 else box.lows[j]
        boundary_vals.append(V.value(y))
    core_max = float(np.max([V.value(0.25 * x) for x in pts]))
    boundary_min = float(np.min(boundary_vals))
    return PositivityReport(
        min_interior=float(np.min(vals)),
        negative_states=negative,
        boundary_min=boundary_min,
        core_max=core_max,
        proper=boundary_min > core_max,
    )
