"""Inverse optimality: reconstruct running costs that a given design solves.

Given a Lyapunov function whose quadratic part solves the Riccati equation
for (Q, R), the state weight is rebuilt as q = -L_aV + (1/4) L_bV r^-1
L_bV' with r = R / mu(V), where mu >= 1 is a continuous level-dependent
scaling equal to 1 near the origin. By construction the pair (q, r)
satisfies the stationary Hamilton-Jacobi-Bellman identity with value
function V, and u = -(1/2) r^-1 L_bV' is the optimal feedback.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .clf import _scan_levels, lie_derivatives, strict_margin
from .errors import CertificateError, DivergenceError
from .linear_core import riccati_residual, solve_lyapunov
from .sim import rk4_path
from .synthesis import FeedbackLaw, local_gain


def _input_form(lb, R):
    """L_bV R^-1 L_bV', the R^-1-weighted square of the input derivative."""
    return float(lb @ np.linalg.solve(R, lb))


def _excess_ratio(la, lb, R):
    """4 L_aV / (L_bV R^-1 L_bV'), the scaling needed to dominate the drift."""
    return 4.0 * la / _input_form(lb, R)


def _base_slack(la, lb, R, ell=1.0):
    """L_aV - (1/4) ell L_bV R^-1 L_bV', the base inequality at scaling ell.

    Negative where the input weight R / ell dominates the drift; its
    negative is the reconstructed state weight at mu = ell.
    """
    return la - 0.25 * ell * _input_form(lb, R)


def _input_forms(sweep, R):
    """_input_form at every row of a sweep."""
    return np.array([_input_form(lb, R) for lb in sweep.lb])


def _sweep_slack(sweep, R, ell=1.0):
    """_base_slack at every row of a sweep."""
    return sweep.la - 0.25 * ell * _input_forms(sweep, R)


def check_base_region(sweep, R, r0):
    """Verify L_aV - (1/4) L_bV R^-1 L_bV' < 0 at swept states with 0 < V <= r0.

    This is the unscaled inequality that must hold where mu = 1; it fails
    for levels too far from the origin. States with V at most 1e-7 r0
    count as the origin. Returns the number of checked states, raises
    CertificateError at the first violation.
    """
    live = (sweep.values > 1e-7 * r0) & (sweep.values <= r0)
    slack = _sweep_slack(sweep, R)
    bad = np.flatnonzero(live & (slack >= -strict_margin(sweep.la)))
    if bad.size:
        i = bad[0]
        raise CertificateError(
            f"base inequality fails at V = {sweep.values[i]:.4g} (value {slack[i]:.3e}); "
            "choose a smaller base level r0 for the cost construction")
    return int(np.sum(live))


def find_base_level(sweep, R, level_grid):
    """Largest grid level on which the unscaled base inequality holds.

    Same scan as the blend-radius search (clf._scan_levels): ascending
    levels, empty levels skipped, first populated failure stops the scan.
    """
    return _scan_levels(
        sweep, level_grid, _sweep_slack(sweep, R),
        "no grid level passes the base inequality; refine the grid toward "
        "smaller levels")


SAFETY_FACTOR = 1.5
MAX_DOUBLINGS = 6


def estimate_level_constants(fit, check, R, r0, k_max=8):
    """Per-annulus scaling constants for the level sets {k r0 <= V <= (k+1) r0}.

    fit and check are sweeps of the same box at two seeds. The base region
    {V <= r0} is checked on the rows of check first (check_base_region).
    On each annulus the constant starts at 1 when no fit row exceeds the
    unit excess ratio, otherwise at SAFETY_FACTOR times the largest fit
    ratio. It is then revalidated on the check rows of the annulus and
    doubled on failure, up to MAX_DOUBLINGS times; a final failure means the
    decrease condition genuinely fails there (e.g. the input map vanishes
    where the drift grows) and raises. An annulus that neither sweep
    reaches warns and gets the constant 1.
    """
    R = np.asarray(R, dtype=float).reshape(fit.sys.p, fit.sys.p)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    check_base_region(check, R, r0)
    kernel = fit.in_kernel
    check_forms, check_margin = _input_forms(check, R), strict_margin(check.la)

    ladder = []
    for k in range(1, k_max + 1):
        mine = (fit.values >= k * r0) & (fit.values <= (k + 1) * r0)
        fresh = (check.values >= k * r0) & (check.values <= (k + 1) * r0)
        if not (np.any(mine) or np.any(fresh)):
            warnings.warn(
                f"annulus {k} has no samples inside the working box; "
                "its constant defaults to 1", stacklevel=2)
            ladder.append(1.0)
            continue
        if np.any(mine & kernel & (fit.la >= 0.0)):
            raise CertificateError(
                f"decrease condition fails on annulus {k}: the input map "
                "vanishes at a state where the drift does not decrease")
        rows = mine & ~kernel
        sup = max((_excess_ratio(la, lb, R) for la, lb in zip(fit.la[rows], fit.lb[rows])),
                  default=1.0)
        ell = 1.0 if sup <= 1.0 else SAFETY_FACTOR * sup

        for _ in range(MAX_DOUBLINGS + 1):
            # _base_slack at ell on the annulus's check rows
            slack = check.la[fresh] - 0.25 * ell * check_forms[fresh]
            if not np.any(slack >= -check_margin[fresh]):
                break
            ell *= 2.0
        else:
            raise CertificateError(
                f"annulus {k}: no finite scaling makes the decrease condition "
                "hold on fresh samples; the candidate is not a control "
                "Lyapunov function there")
        ladder.append(float(ell))
    return ladder


def base_level_ladder(fit, check, R, r0, level_grid, k_max=8):
    """(base level, ladder) of estimate_level_constants, stepping down the grid.

    The base level is the largest of r0 and the grid levels below it on
    which the base inequality holds at every row of check (one
    clf._scan_levels pass); r0 is normally find_base_level's level on fit.
    """
    levels = [r0] + [float(l) for l in level_grid if l < r0]
    base = _scan_levels(
        check, levels, _sweep_slack(check, R),
        f"no grid level up to {r0:.4g} passes the base inequality on fresh "
        "samples; choose a smaller base level r0 for the cost construction")
    return base, estimate_level_constants(fit, check, R, base, k_max=k_max)


class LevelScaling:
    """Continuous scaling mu(s): 1 below r0/2, >= each annulus constant.

    Piecewise linear through the running maxima of the ladder; frozen at
    its last value beyond the covered levels (warned once per instance).
    """

    def __init__(self, r0, ladder, knots_s, knots_v):
        self.r0 = float(r0)
        self.ladder = [float(l) for l in ladder]
        self.knots_s = np.asarray(knots_s, dtype=float)
        self.knots_v = np.asarray(knots_v, dtype=float)
        self._warned = False

    def mu(self, s):
        if s > self.knots_s[-1] and not self._warned:
            warnings.warn(
                f"scaling queried at level {s:.4g} beyond the certified range "
                f"(frozen at {self.knots_v[-1]:.4g})", stacklevel=2)
            self._warned = True
        return float(np.interp(s, self.knots_s, self.knots_v))

    __call__ = mu

    def to_dict(self):
        return {
            "r0": self.r0,
            "ladder": self.ladder,
            "knots_s": self.knots_s.tolist(),
            "knots_v": self.knots_v.tolist(),
        }


def build_mu(r0, ladder):
    """Assemble the level scaling envelope from annulus constants."""
    r0 = float(r0)
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    ladder = [float(l) for l in ladder]
    if any(l < 1.0 for l in ladder):
        raise ValueError("ladder constants must be >= 1")
    knots_s = [0.0, 0.5 * r0]
    knots_v = [1.0, 1.0]
    c = 1.0
    for k, ell in enumerate(ladder, start=1):
        c = max(c, ell)
        knots_s.append(k * r0)
        knots_v.append(c)
    return LevelScaling(r0, ladder, knots_s, knots_v)


class InverseOptimalCost:
    """Running cost q(x) + u' r(x) u tied to a value function.

    base_Q and base_R are the quadratic weights recovered at the origin;
    scaling is the level envelope used to bend R into r away from it.
    """

    def __init__(self, q, r, base_Q, base_R, scaling=None, V=None, validate=True):
        self._q = q
        self._r = r
        self.base_Q = np.asarray(base_Q, dtype=float)
        self.base_R = np.asarray(base_R, dtype=float)
        self.scaling = scaling
        self.V = V
        if validate:
            n = self.base_Q.shape[0]
            q0 = self.q(np.zeros(n))
            if abs(q0) > 1e-12:
                raise ValueError(f"q(0) must be 0, got {q0:.3e}")
            r0 = self.r(np.zeros(n))
            if not np.array_equal(r0, self.base_R):
                raise ValueError("r(0) must equal the base input weight exactly")

    def q(self, x):
        return float(self._q(np.asarray(x, dtype=float)))

    def r(self, x):
        p = self.base_R.shape[0]
        return np.asarray(self._r(np.asarray(x, dtype=float)), dtype=float).reshape(p, p)


def build_inverse_cost(V, sys, R, Q, scaling):
    """Cost pair (q, r) solved by V with optimal feedback -(1/2) r^-1 L_bV'.

    Requires the quadratic part of V at the origin (half its Hessian) to
    solve the Riccati equation for (Q, R) within 1e-6; this anchors
    q's Hessian at 2Q and r(0) at R.
    """
    R = np.asarray(R, dtype=float).reshape(sys.p, sys.p)
    Q = np.asarray(Q, dtype=float)
    A, B = sys.linearization.A, sys.linearization.B
    P = 0.5 * V.hessian_origin
    res = np.linalg.norm(riccati_residual(A, B, Q, R, P), ord="fro")
    if res > 1e-6 * (1.0 + np.linalg.norm(Q, ord="fro")):
        raise CertificateError(
            f"half the Hessian of V at 0 does not solve the Riccati equation "
            f"for (Q, R): residual {res:.3e}")

    def q(x):
        la, lb = lie_derivatives(V, sys, x)
        mu = scaling.mu(V.value(x))
        return -_base_slack(la, lb, R, mu)

    def r(x):
        return R / scaling.mu(V.value(x))

    return InverseOptimalCost(q, r, base_Q=Q, base_R=R, scaling=scaling, V=V)


def hjb_residual(V, cost, sys, x):
    """q + L_aV - (1/4) L_bV r^-1 L_bV' at x; zero for a consistent triple."""
    la, lb = lie_derivatives(V, sys, x)
    rx = cost.r(x)
    return cost.q(x) + la - 0.25 * _input_form(lb, rx)


def hjb_sweep(sweep, cost):
    """(q, HJB residual) at every sweep row, for a cost of build_inverse_cost.

    Evaluates that cost's q = -(L_aV - (1/4) mu L_bV R^-1 L_bV') and
    r = R / mu at mu = mu(V) from the sweep's Lie derivatives, so q is
    computed once per row; the residual is hjb_residual's.
    """
    R, mu_at = cost.base_R, cost.scaling.mu
    q, residual = [], []
    for v, la, lb in zip(sweep.values, sweep.la, sweep.lb):
        mu = mu_at(v)
        qi = -_base_slack(la, lb, R, mu)
        q.append(qi)
        residual.append(qi + la - 0.25 * _input_form(lb, R / mu))
    return np.array(q), np.array(residual)


def optimal_feedback(V, cost, sys):
    """u = -(1/2) r(x)^-1 L_bV(x)'; minimizes the reconstructed cost."""
    def u(x):
        _, lb = lie_derivatives(V, sys, x)
        return -0.5 * np.linalg.solve(cost.r(x), lb)

    return FeedbackLaw("optimal_feedback", u, sys.n, sys.p,
                       metadata={"hjb_optimal": True})


@dataclass
class CostEstimate:
    value: float
    integral: float
    tail: float
    tail_kind: str
    t_final: float
    x_final: np.ndarray

    def to_dict(self):
        return {
            "value": self.value,
            "integral": self.integral,
            "tail": self.tail,
            "tail_kind": self.tail_kind,
            "t_final": self.t_final,
            "x_final": self.x_final.tolist(),
        }


def evaluate_cost(sys, cost, law, x0, horizon, dt, V=None, terminal_level=None):
    """Integral of q + u' r u along the closed loop, plus a tail estimate.

    The running cost is integrated as an extra RK4 state on the same grid.
    Integration stops inside {V <= terminal_level}, defaulting to 1e-8
    times V(x0). For optimal feedback the tail is V at the final state
    (exact under the HJB identity); otherwise a linear-quadratic tail
    estimate is used and labeled as such. Raises DivergenceError when the
    horizon ends before the terminal set is reached.
    """
    if V is None:
        V = cost.V
    if V is None:
        raise ValueError("a Lyapunov function is needed for the terminal set")
    x0 = np.asarray(x0, dtype=float)
    v0 = V.value(x0)
    if v0 <= 0.0:
        return CostEstimate(0.0, 0.0, 0.0, "origin", 0.0, x0.copy())
    level = 1e-8 * v0 if terminal_level is None else float(terminal_level)

    def f(z):
        x = z[:-1]
        u = law.map(x)
        dx = sys.a(x) + sys.b(x) @ u
        dj = cost.q(x) + float(u @ cost.r(x) @ u)
        return np.append(dx, dj)

    n_steps = int(np.ceil(horizon / dt - 1e-12))
    z0 = np.append(x0, 0.0)
    path = rk4_path(f, z0, dt, n_steps, stop=lambda z: V.value(z[:-1]) <= level)
    zT = path[-1]
    xT, integral = zT[:-1], float(zT[-1])
    if V.value(xT) > level:
        raise DivergenceError(
            f"horizon exhausted before the terminal set: V = {V.value(xT):.3e} "
            f"vs target {level:.3e}", last_state=xT, last_time=dt * (len(path) - 1))
    if law.metadata.get("hjb_optimal"):
        tail = V.value(xT)
        tail_kind = "value_tail"
    else:
        A, B = sys.linearization.A, sys.linearization.B
        K = local_gain(law)
        Q_eff = cost.base_Q + K.T @ cost.base_R @ K
        P_tail = solve_lyapunov(A + B @ K, Q_eff)
        tail = float(xT @ P_tail @ xT)
        tail_kind = "lq_estimate_tail"
    return CostEstimate(integral + tail, integral, tail, tail_kind,
                        dt * (len(path) - 1), xT)
