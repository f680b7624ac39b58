"""Feedback construction: universal-formula controller and local blend.

The blended law reproduces a prescribed linear gain exactly on a
neighborhood of the origin (below half the blend radius) and switches to
the universal formula outside the blend radius, so global decrease and the
prescribed local behavior coexist.
"""

from dataclasses import dataclass, field

import numpy as np

from .clf import blend_profile, check_artstein_sampled, check_rows, find_r0, kernel_tol, \
    lie_forms, strict_margin
from .errors import ArtsteinViolationError
from .sampling import sample_box

GAIN_STEP = 2.0 ** -20
SEAM_PAIRS = 100  # sampled states per seam_diagnostics call


class FeedbackLaw:
    """State feedback u = map(x) with map(0) = 0; map takes rows (clf.check_rows)."""

    def __init__(self, kind, map_fn, n, p, metadata=None):
        self.kind = str(kind)
        self._map = map_fn
        self.n = int(n)
        self.p = int(p)
        self.metadata = dict(metadata or {})
        u0 = self.map(np.zeros(self.n))
        if np.linalg.norm(u0) > 1e-12:
            raise ValueError(f"feedback must vanish at the origin, got {u0}")
        check_rows(self.n, self.map)

    def map(self, x):
        x = np.asarray(x, dtype=float)
        u = np.ascontiguousarray(self._map(x), dtype=float)
        return u.reshape(self.p) if x.ndim == 1 else u.reshape(x.shape[:-1] + (self.p,))


def sontag_controller(V, sys, artstein_report=None):
    """Universal-formula feedback from a control Lyapunov function.

    u(x) = -[(L_aV + sqrt(L_aV^2 + ||L_bV||^4)) / ||L_bV||^2] L_bV', and 0
    where ||L_bV|| is at most the kernel threshold. Construction is refused
    when the given sampled Lyapunov report shows violations.
    """
    if artstein_report is not None and artstein_report.violations:
        raise ArtsteinViolationError(
            f"Lyapunov candidate fails the sampled decrease test at "
            f"{len(artstein_report.violations)} state(s)", artstein_report.violations)

    def u(x):
        g = V.gradient(x)
        la, lb = lie_forms(g, sys.a(x), sys.b(x))
        nb2 = np.vecdot(lb, lb)
        live = np.sqrt(nb2) > kernel_tol(g)
        coef = (la + np.sqrt(la * la + nb2 * nb2)) / np.where(live, nb2, np.inf)
        return 0.0 - coef[..., None] * lb  # -coef lb, and +0 where it is 0

    return FeedbackLaw("sontag", u, sys.n, sys.p)


def blended_controller(alpha_inf, K_o, V, rho):
    """Blend a global law with the linear gain through the profile rho.

    Below half the blend radius the returned map is exactly K_o x (the
    global law is evaluated only where the profile is positive); above
    the radius it is exactly alpha_inf.
    """
    K_o = np.asarray(K_o, dtype=float).reshape(alpha_inf.p, alpha_inf.n)

    def mix(w, x):
        return w * alpha_inf.map(x) + (1.0 - w) * np.matvec(K_o, x)

    def u(x):
        w = rho.profile(V.value(x))
        if x.ndim == 1:  # one state: the same arithmetic (K_o @ x is np.matvec's gemv)
            return K_o @ x if w == 0.0 else alpha_inf.map(x) if w == 1.0 else mix(w, x)
        out, band, outer = np.matvec(K_o, x), (w > 0.0) & (w < 1.0), w == 1.0
        if outer.any():
            out[outer] = alpha_inf.map(x[outer])
        if band.any():
            out[band] = mix(w[band][:, None], x[band])
        return out

    return FeedbackLaw("blended", u, alpha_inf.n, alpha_inf.p,
                       metadata={"r0": rho.r0, "inner_kind": alpha_inf.kind})


def blended_design(sweep, K_o, level_grid):
    """(Artstein report, blended law) of the sweep's candidate and plant.

    The sampled Lyapunov test, the universal formula and the blend radius
    search all read the same sweep.
    """
    artstein = check_artstein_sampled(sweep)
    alpha = sontag_controller(sweep.V, sweep.sys, artstein_report=artstein)
    r0 = find_r0(sweep, K_o, level_grid)
    return artstein, blended_controller(alpha, K_o, sweep.V, blend_profile(r0))


def local_gain(law):
    """Jacobian of the feedback map at the origin by central differences.

    Each step size is one law.map call on the rows +step e_j and -step e_j.
    Universal-formula laws get one step of Richardson extrapolation, which
    cancels the leading quadratic error of the square root branch. The
    power-of-two step makes the differences of a linear map exact, so a
    linear inner law K x returns K bit for bit.
    """
    def jac(step):
        E = step * np.eye(law.n)
        u = law.map(np.concatenate([E, -E]))
        du = (u[:law.n] - u[law.n:]) / (2.0 * step)
        return du.T.copy()  # C order: BLAS sums follow strides

    J = jac(GAIN_STEP)
    if law.kind == "sontag":
        J = (4.0 * jac(0.5 * GAIN_STEP) - J) / 3.0
    return J


@dataclass
class DecreaseReport:
    """Sampled closed-loop decrease: V' must be strictly negative."""

    checked: int
    max_vdot: float
    violations: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.violations

    def to_dict(self):
        return {
            "checked": self.checked,
            "max_vdot": self.max_vdot,
            "violations": [list(map(float, v)) for v in self.violations],
            "passed": self.passed,
        }


def verify_decrease(sweep, law):
    """Check L_aV + L_bV map(x) < -strict_margin(L_aV) at swept states.

    States with value at most 1e-7 times the largest swept value count as
    the origin and are skipped; the margin scales with |L_aV| so the
    strictness requirement stays meaningful across state magnitudes.
    """
    live = sweep.values > 1e-7 * max(float(np.max(sweep.values)), 1e-12)
    pts, la, lb = sweep.points[live], sweep.la[live], sweep.lb[live]
    vdot = la + np.vecdot(lb, law.map(pts))
    return DecreaseReport(
        checked=len(pts), max_vdot=float(np.max(vdot, initial=-np.inf)),
        violations=[np.array(x) for x in pts[vdot >= -strict_margin(la)]])


def seam_diagnostics(law, V, rho, region, seed=0):
    """Difference quotients across the two blend seams.

    Samples SEAM_PAIRS region states, rescales them onto the level sets {V = r0/2}
    and {V = r0}, and measures the map's variation across each seam along
    the radial direction, with np.linalg.norm's arithmetic for one vector.
    Reported for inspection, not asserted.
    """
    pts = sample_box(region, SEAM_PAIRS, seed=seed)
    v = V.value(pts)
    pts, v = pts[v > 1e-9 * rho.r0], v[v > 1e-9 * rho.r0]
    out = {}
    for name, level in (("half_radius", 0.5 * rho.r0), ("radius", rho.r0)):
        y = pts * np.sqrt(level / v)[:, None]  # exact for quadratic V, close enough otherwise
        norm = np.sqrt(np.vecdot(y, y))
        d = 1e-5 * (1.0 + norm)
        step = d[:, None] * y / np.maximum(norm, 1e-12)[:, None]
        du = law.map(y + step) - law.map(y - step)
        out[name] = float(np.max(np.sqrt(np.vecdot(du, du)) / (2.0 * d), initial=0.0))
    return out
