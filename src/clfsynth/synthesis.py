"""Feedback construction: universal-formula controller and local blend.

The blended law reproduces a prescribed linear gain exactly on a
neighborhood of the origin (below half the blend radius) and switches to
the universal formula outside the blend radius, so global decrease and the
prescribed local behavior coexist.
"""

from dataclasses import dataclass, field

import numpy as np

from .clf import check_artstein_sampled, default_delta_margin, default_zero_tol, \
    lie_derivatives
from .errors import ArtsteinViolationError
from .sampling import sample_box


class FeedbackLaw:
    """State feedback u = map(x) with map(0) = 0."""

    def __init__(self, kind, map_fn, n, p, metadata=None):
        self.kind = str(kind)
        self._map = map_fn
        self.n = int(n)
        self.p = int(p)
        self.metadata = dict(metadata or {})
        u0 = self.map(np.zeros(self.n))
        if np.linalg.norm(u0) > 1e-12:
            raise ValueError(f"feedback must vanish at the origin, got {u0}")

    def map(self, x):
        return np.asarray(self._map(np.asarray(x, dtype=float)), dtype=float).reshape(self.p)


def sontag_controller(V, sys, zero_tol=None, region=None, n_samples=2000, seed=0,
                      artstein_report=None):
    """Universal-formula feedback from a control Lyapunov function.

    u(x) = -[(L_aV + sqrt(L_aV^2 + ||L_bV||^4)) / ||L_bV||^2] L_bV', and 0
    where ||L_bV|| is below the kernel threshold. If a sampled region or a
    precomputed report is given, construction is refused when the sampled
    Lyapunov test shows violations.
    """
    report = artstein_report
    if report is None and region is not None:
        report = check_artstein_sampled(V, sys, region, n_samples=n_samples,
                                        zero_tol=zero_tol, seed=seed)
    if report is not None and report.violations:
        raise ArtsteinViolationError(
            f"Lyapunov candidate fails the sampled decrease test at "
            f"{len(report.violations)} state(s)", report.violations)

    def u(x):
        la, lb = lie_derivatives(V, sys, x)
        norm_lb = np.linalg.norm(lb)
        tol = default_zero_tol(V, x) if zero_tol is None else zero_tol
        if norm_lb <= tol:
            return np.zeros(sys.p)
        nb2 = float(lb @ lb)
        coef = (la + np.sqrt(la * la + nb2 * nb2)) / nb2
        return -coef * lb

    return FeedbackLaw("sontag", u, sys.n, sys.p,
                       metadata={"zero_tol": "gradient-scaled" if zero_tol is None else zero_tol})


def blended_controller(alpha_inf, K_o, V, rho):
    """Blend a global law with the linear gain through the profile rho.

    Below half the blend radius the returned map is exactly K_o x (the
    global law is not even evaluated there); above the radius it is exactly
    alpha_inf.
    """
    K_o = np.asarray(K_o, dtype=float).reshape(alpha_inf.p, alpha_inf.n)

    def u(x):
        w = rho.profile(V.value(x))
        if w == 0.0:
            return K_o @ x
        if w == 1.0:
            return alpha_inf.map(x)
        return w * alpha_inf.map(x) + (1.0 - w) * (K_o @ x)

    return FeedbackLaw("blended", u, alpha_inf.n, alpha_inf.p,
                       metadata={"r0": rho.r0, "inner_kind": alpha_inf.kind})


def local_gain(law, h=1e-6):
    """Jacobian of the feedback map at the origin by central differences.

    Universal-formula laws get one step of Richardson extrapolation, which
    cancels the leading quadratic error of the square root branch.
    """
    def jac(step):
        cols = []
        for j in range(law.n):
            e = np.zeros(law.n)
            e[j] = step
            cols.append((law.map(e) - law.map(-e)) / (2.0 * step))
        return np.column_stack(cols)

    J = jac(h)
    if law.kind == "sontag":
        J = (4.0 * jac(0.5 * h) - J) / 3.0
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


def verify_decrease(V, sys, law, region, n_samples=2000, seed=0,
                    delta_margin=None, origin_exclusion=1e-7):
    """Check L_aV + L_bV map(x) < -margin at sampled region states.

    States with value below origin_exclusion times the largest sampled
    value count as the origin and are skipped; the margin otherwise scales
    with |L_aV| so the strictness requirement stays meaningful across
    state magnitudes.
    """
    pts = sample_box(region, n_samples, seed=seed)
    vals = np.array([V.value(x) for x in pts])
    v_floor = origin_exclusion * max(float(np.max(vals)), 1e-12)
    report = DecreaseReport(checked=0, max_vdot=-np.inf)
    for x, v in zip(pts, vals):
        if v <= v_floor:
            continue
        report.checked += 1
        la, lb = lie_derivatives(V, sys, x)
        vdot = la + float(lb @ law.map(x))
        report.max_vdot = max(report.max_vdot, vdot)
        margin = default_delta_margin(la) if delta_margin is None else delta_margin
        if vdot >= -margin:
            report.violations.append(np.array(x))
    return report


def seam_diagnostics(law, V, rho, region, n_pairs=200, seed=0):
    """Difference quotients across the two blend seams.

    Samples region states, rescales them onto the level sets {V = r0/2}
    and {V = r0}, and measures the map's variation across each seam along
    the radial direction. Reported for inspection, not asserted.
    """
    pts = sample_box(region, n_pairs, seed=seed)
    out = {}
    for name, level in (("half_radius", 0.5 * rho.r0), ("radius", rho.r0)):
        worst = 0.0
        for x in pts:
            v = V.value(x)
            if v <= 1e-9 * rho.r0:
                continue
            y = x * np.sqrt(level / v)  # exact for quadratic V, close enough otherwise
            d = 1e-5 * (1.0 + np.linalg.norm(y))
            step = d * y / max(np.linalg.norm(y), 1e-12)
            du = np.linalg.norm(law.map(y + step) - law.map(y - step))
            worst = max(worst, du / (2.0 * d))
        out[name] = worst
    return out
