"""Inverse optimality: reconstruct running costs that a given design solves.

Given a Lyapunov function whose quadratic part solves the Riccati equation
for (Q, R), the input weight is r = R / mu(V), where mu >= 1 is a
continuous level-dependent scaling equal to 1 near the origin, and the
state weight is derived from it (InverseOptimalCost) as
q = -L_aV + (1/4) L_bV r^-1 L_bV'. By construction the pair (q, r)
satisfies the stationary Hamilton-Jacobi-Bellman identity with value
function V, and u = -(1/2) r^-1 L_bV' is the optimal feedback; what a
design has to show is q > 0 (state_weights reads q on a sweep).
level_scaled_cost is the whole construction on a working box: sweeps,
base level, annulus ladder, scaling and cost. Every certificate reads the
input form L_bV r^-1 L_bV' as a column of one sweep (_input_forms, one
_solve per sweep); the per-state q calls it on a single row.
"""

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .clf import _scan_levels, check_rows, lie_derivatives, lie_sweep, strict_margin
from .errors import CertificateError, DivergenceError
from .linear_core import riccati_residual, solve_lyapunov
from .sampling import sample_box
from .sim import rk4_path, step_count
from .synthesis import FeedbackLaw, local_gain


def _input_forms(lb, r):
    """L_bV r^-1 L_bV' at every row of lb (N, p), with one _solve.

    r is one (p, p) weight for every row or one weight per row (N, p, p).
    A single row lb of shape (p,) gives a scalar.
    """
    lb = np.asarray(lb, dtype=float)
    return np.vecdot(lb, _solve(r, lb))


def _solve(r, lb):
    """r^-1 lb for one weight r (p, p) and one row lb (p,), or row by row.

    A 1 x 1 weight divides. For one row a diagonal weight divides too:
    LAPACK's LU of a diagonal matrix has no fill, and its triangular
    solves divide by the pivots, so dividing gives its bits without
    np.linalg.solve's overhead. With p > 1 a zero entry of lb can come
    back from LAPACK as -0, so such rows, like every other weight, go
    through np.linalg.solve. A stack of rows is one batched
    np.linalg.solve, which gives every row the bits of its one-row call.
    """
    if r.shape[-2:] == (1, 1):
        return lb / r[..., 0]
    p = lb.shape[-1]
    if lb.ndim == 1:
        d = r.diagonal()
        if np.count_nonzero(r) == p and np.count_nonzero(d) == p and np.count_nonzero(lb) == p:
            return lb / d
        return np.linalg.solve(r, lb)
    return np.linalg.solve(r, lb[..., None])[..., 0]


def _sweep_slack(sweep, R):
    """L_aV - (1/4) L_bV R^-1 L_bV' at every row of a sweep.

    The base inequality: negative where the input weight R dominates the
    drift.
    """
    return sweep.la - 0.25 * _input_forms(sweep.lb, R)


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
    where the drift grows) and raises. The ladder ends before the first
    annulus that neither sweep reaches, so the certified levels stop where
    the samples do.
    """
    R = np.asarray(R, dtype=float).reshape(fit.sys.p, fit.sys.p)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    check_base_region(check, R, r0)
    kernel = fit.in_kernel
    # 4 L_aV / (L_bV R^-1 L_bV'), the scaling that dominates the drift
    ratio = np.zeros(len(fit.la))
    ratio[~kernel] = 4.0 * fit.la[~kernel] / _input_forms(fit.lb[~kernel], R)
    check_forms, check_margin = _input_forms(check.lb, R), strict_margin(check.la)

    ladder = []
    for k in range(1, k_max + 1):
        mine = (fit.values >= k * r0) & (fit.values <= (k + 1) * r0)
        fresh = (check.values >= k * r0) & (check.values <= (k + 1) * r0)
        if not (np.any(mine) or np.any(fresh)):
            break
        if np.any(mine & kernel & (fit.la >= 0.0)):
            raise CertificateError(
                f"decrease condition fails on annulus {k}: the input map "
                "vanishes at a state where the drift does not decrease")
        sup = np.max(ratio[mine & ~kernel], initial=1.0)
        ell = 1.0 if sup <= 1.0 else SAFETY_FACTOR * sup

        for _ in range(MAX_DOUBLINGS + 1):
            # the base inequality at scaling ell on the annulus's check rows
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

    Built from the base level r0 > 0 and the annulus constants (each
    >= 1): piecewise linear through the knots (0, 1), (r0/2, 1) and
    (k r0, running maximum of the first k constants), frozen at its last
    value beyond the covered levels. The certified levels end at the outer
    edge of the last annulus, certified_top; a query above it warns once
    per instance.
    """

    def __init__(self, r0, ladder):
        self.r0 = r0 = float(r0)
        if r0 <= 0:
            raise ValueError("r0 must be positive")
        self.ladder = [float(l) for l in ladder]
        if any(l < 1.0 for l in self.ladder):
            raise ValueError("ladder constants must be >= 1")
        self.knots_s = [0.0, 0.5 * r0] + [k * r0 for k in range(1, len(self.ladder) + 1)]
        self.knots_v = [1.0] + list(accumulate(self.ladder, max, initial=1.0))
        self._warned = False

    @property
    def certified_top(self):
        return (len(self.ladder) + 1) * self.r0

    def mu(self, s):
        column = isinstance(s, np.ndarray)
        top = np.max(s, initial=-np.inf) if column else s
        if top > self.certified_top and not self._warned:
            warnings.warn(
                f"scaling queried at level {top:.4g} beyond the certified range "
                f"(frozen at {self.knots_v[-1]:.4g})", stacklevel=2)
            self._warned = True
        if column:
            return np.interp(s, self.knots_s, self.knots_v)
        # np.interp's arithmetic for one level, without its array set-up
        ks, kv = self.knots_s, self.knots_v
        j = bisect_right(ks, s) - 1
        if j < 0:
            return kv[0]
        if j >= len(ks) - 1:
            return kv[-1]
        if ks[j] == s:
            return kv[j]
        return (kv[j + 1] - kv[j]) / (ks[j + 1] - ks[j]) * (s - ks[j]) + kv[j]

    __call__ = mu

    def to_dict(self):
        return {
            "r0": self.r0,
            "ladder": self.ladder,
            "certified_top": self.certified_top,
            "knots_s": list(self.knots_s),
            "knots_v": list(self.knots_v),
        }


class InverseOptimalCost:
    """Running cost q(x) + u' r(x) u that makes V the value function.

    The input weight is r(x) = weight(v), a function of the level v of x
    only (a level column gives (..., p, p)). The level is V(x) unless
    level, a function of the state, names the one r follows (the
    six-state orbital weight follows a four-state level). q, r and stage
    take rows. The state weight is derived from r,
    q = -L_aV + (1/4) L_bV r^-1 L_bV', so the stationary
    Hamilton-Jacobi-Bellman identity holds by construction. base_Q and
    base_R are the quadratic weights at the origin; scaling is the level
    envelope that bends base_R into r away from it and owns the base
    level and the ladder. Construction requires r(0) = base_R exactly
    and refuses a level or weight that breaks the rows contract
    (clf.check_rows, on r).
    """

    def __init__(self, V, sys, weight, base_Q, base_R, scaling, level=None):
        self.V = V
        self.sys = sys
        self.weight = weight
        self.level = level
        # the level r follows at a state: V(x), or the cost's own level function
        self.level_at = V.value if level is None else level
        self.base_Q = np.asarray(base_Q, dtype=float)
        self.base_R = np.asarray(base_R, dtype=float)
        self.scaling = scaling
        if not np.array_equal(self.r(np.zeros(sys.n)), self.base_R):
            raise ValueError("r(0) must equal the base input weight exactly")
        check_rows(sys.n, self.level_at, self.r)

    def q(self, x):
        x = np.asarray(x, dtype=float)
        la, lb = lie_derivatives(self.V, self.sys, x)
        q = 0.25 * _input_forms(lb, self.r(x)) - la
        return float(q) if x.ndim == 1 else q

    def r(self, x):
        return self._r(self.level_at(np.asarray(x, dtype=float)))

    def _r(self, v):
        """r at the states of level v, (p, p), or (..., p, p) for a level column."""
        p = self.base_R.shape[0]
        return np.asarray(self.weight(v), dtype=float).reshape(getattr(v, "shape", ()) + (p, p))

    def stage(self, x, g, b):
        """(L_bV, r, w, u) at x from g = grad V(x) and b = b(x).

        w = r^-1 L_bV' with one solve, and u = -(1/2) w is the optimal
        feedback. The one owner of this arithmetic: optimal_feedback's
        map, evaluate_cost's field and sim.closed_loop_path's stage for
        the optimal feedback all call it, so they agree bit for bit.
        """
        lb = np.vecmat(g, b)
        r = self._r(self.level_at(x))
        w = _solve(r, lb)
        return lb, r, w, -0.5 * w


def build_inverse_cost(V, sys, R, Q, scaling):
    """Cost pair (q, r) solved by V with optimal feedback -(1/2) r^-1 L_bV'.

    r = R / mu(V). Requires the quadratic part of V at the origin (half
    its Hessian) to solve the Riccati equation for (Q, R) within 1e-6;
    this anchors q's Hessian at 2Q and r(0) at R.
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
    def weight(v):
        mu = scaling.mu(v)
        return R / (mu[..., None, None] if isinstance(mu, np.ndarray) else mu)

    return InverseOptimalCost(V, sys, weight, base_Q=Q, base_R=R, scaling=scaling)


def level_scaled_cost(V, sys, Q, R, box, level_grid, k_max=8, n_samples=2000, seed=0):
    """Base level, annulus ladder, level scaling and cost pair of V on a box.

    The box is swept at seed (fit) and at seed + 1 (check). The base level
    is find_base_level's on fit, stepped down the grid where check rejects
    it; check also revalidates the ladder (base_level_ladder). Returns
    build_inverse_cost's cost; its scaling carries r0 and the ladder.
    """
    R = np.asarray(R, dtype=float).reshape(sys.p, sys.p)
    fit = lie_sweep(V, sys, sample_box(box, n_samples, seed=seed))
    check = lie_sweep(V, sys, sample_box(box, n_samples, seed=seed + 1))
    r0, ladder = base_level_ladder(fit, check, R, find_base_level(fit, R, level_grid),
                                   level_grid, k_max=k_max)
    return build_inverse_cost(V, sys, R, Q, LevelScaling(r0, ladder))


def hjb_residual(V, cost, sys, x):
    """q + L_aV - (1/4) L_bV r^-1 L_bV' at x; zero for a consistent triple.

    InverseOptimalCost derives q from r with the arithmetic this undoes,
    so for such a cost the residual is the rounding error of an identity
    and cannot fail a tolerance above rounding level; it checks
    consistency, not optimality.
    """
    la, lb = lie_derivatives(V, sys, x)
    return cost.q(x) + la - 0.25 * _input_forms(lb, cost.r(x))


def state_weights(sweep, cost):
    """cost.q at every row of a sweep of cost's V and system.

    Computed from the sweep's levels and Lie derivatives with cost.q's
    arithmetic, so each entry equals cost.q at that row; a cost whose r
    follows its own level reads that level on the sweep's points instead.
    """
    levels = sweep.values if cost.level is None else cost.level(sweep.points)
    return 0.25 * _input_forms(sweep.lb, cost._r(levels)) - sweep.la


def optimal_feedback(cost):
    """u = -(1/2) r(x)^-1 L_bV(x)'; minimizes the reconstructed cost.

    V and the plant are the cost's own. u is cost.stage's at grad V(x) and
    b(x); the drift is not evaluated. The law's metadata records the cost
    it minimizes ("cost"): evaluate_cost and sim.closed_loop_path
    recognise the law by it and call cost.stage themselves instead of the
    law, with the b(x) their stage already holds.
    """
    V, sys = cost.V, cost.sys

    def u(x):
        return cost.stage(x, V.gradient(x), sys.b(x))[3]

    return FeedbackLaw("optimal_feedback", u, sys.n, sys.p, metadata={"cost": cost})


@dataclass
class CostEstimate:
    value: float
    integral: float
    tail: float
    tail_kind: str
    t_final: float
    x_final: np.ndarray


def evaluate_cost(sys, cost, law, x0, horizon, dt, V=None):
    """Integral of q + u' r u along the closed loop, plus a tail estimate.

    The running cost is an extra RK4 state on the same grid. Each stage
    evaluates grad V, a, b and cost.stage (level, r, w = r^-1 L_bV') once;
    dx = a + b u and the rate is (1/4) L_bV w - L_aV + u' r u = q + u' r u.
    For this cost's own optimal feedback u = -(1/2) w and law is not
    called; any other law is called once per stage. Integration stops
    inside {V <= 1e-8 V(x0)}. The tail is V at the final state for the
    optimal feedback (exact under the HJB identity), otherwise a labeled
    linear-quadratic estimate. sys must be cost.sys, V (when given) cost.V,
    and dt and horizon positive (sim.step_count); ValueError otherwise.
    DivergenceError when the horizon ends before the terminal set or the
    run fails (rk4_path); its last_state is a plant state.
    """
    if V is not None and V is not cost.V:
        raise ValueError("V must be the cost's own value function cost.V")
    if sys is not cost.sys:
        raise ValueError("sys must be the cost's own system cost.sys")
    n_steps = step_count(horizon, dt)
    V = cost.V
    x0 = np.asarray(x0, dtype=float)
    v0 = V.value(x0)
    if v0 <= 0.0:
        return CostEstimate(0.0, 0.0, 0.0, "origin", 0.0, x0.copy())
    level = 1e-8 * v0
    own = law.metadata.get("cost") is cost

    def f(z):
        x = z[:-1]
        g = V.gradient(x)
        a, b = sys.a(x), sys.b(x)
        la = float(g @ a)
        lb, r, w, u = cost.stage(x, g, b)
        if not own:
            u = law.map(x)
        dz = np.empty(z.size)
        dz[:-1] = a + b @ u
        dz[-1] = 0.25 * float(lb @ w) - la + float(u @ r @ u)
        return dz

    z0 = np.append(x0, 0.0)
    try:
        path = rk4_path(f, z0, dt, n_steps, stop=lambda z: V.value(z[:-1]) <= level)
    except DivergenceError as e:
        e.last_state = e.last_state[:-1]  # the plant state, without the cost
        raise
    zT = path[-1]
    xT, integral = zT[:-1], float(zT[-1])
    if V.value(xT) > level:
        raise DivergenceError(
            f"horizon exhausted before the terminal set: V = {V.value(xT):.3e} "
            f"vs target {level:.3e}", last_state=xT, last_time=dt * (len(path) - 1))
    if own:
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
