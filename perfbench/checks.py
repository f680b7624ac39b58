"""Correctness checks for benchmark outputs, computed apart from clfsynth.

Every check returns a list of problem strings; an empty list means the
output passed. References come from scipy, from closed forms, or from
properties the method must have; none of them compares against a stored
copy of an earlier run.
"""

import numpy as np
from scipy.linalg import solve_continuous_are

SQ2 = np.sqrt(2.0)

# on the screened instances (n <= 24) scipy's CARE and Kleinman-Newton
# agree to 1e-10 relative (worst of 450 instances), so 5e-8 keeps a wide
# margin and still rejects a P that is 1e-6 off.
P_MATCH_RTOL = 5e-8
HJB_TOL = 1e-10
COST_RTOL = 1e-3
MONOTONE_RTOL = 1e-9
ORBIT_TOL = 1e-3
GAIN_RTOL = 1e-7


def care_reference(A, B, Q, R):
    return solve_continuous_are(A, B, Q, R)


def care_residual(A, B, Q, R, P):
    """A'P + PA - P B R^-1 B' P + Q, evaluated with an explicit inverse."""
    return A.T @ P + P @ A - P @ B @ np.linalg.inv(R) @ B.T @ P + Q


def check_care(A, B, Q, R, P, P_ref):
    """P against the scipy reference, the residual bar, SPD, Hurwitz loop."""
    problems = []
    scale = 1.0 + np.linalg.norm(P_ref)
    diff = np.linalg.norm(P - P_ref)
    if not diff <= P_MATCH_RTOL * scale:
        problems.append(f"P differs from scipy's CARE by {diff:.3e} (bar {P_MATCH_RTOL * scale:.3e})")
    bar = 1e-8 * (1.0 + np.linalg.norm(Q, ord="fro"))
    res = np.linalg.norm(care_residual(A, B, Q, R, P), ord="fro")
    if not res <= bar:
        problems.append(f"Riccati residual {res:.3e} above {bar:.3e}")
    if np.linalg.norm(P - P.T) > 1e-12 * (1.0 + np.linalg.norm(P)):
        problems.append("P is not symmetric")
    elif np.linalg.eigvalsh(0.5 * (P + P.T)).min() <= 0.0:
        problems.append("P is not positive definite")
    K = -np.linalg.solve(R, B.T @ P)
    abscissa = np.max(np.linalg.eigvals(A + B @ K).real)
    if not abscissa < 0.0:
        problems.append(f"closed loop is not Hurwitz (abscissa {abscissa:.3e})")
    return problems


def check_scalar_riccati_root(P):
    """x' = x + u with Q = R = 1 has P = 1 + sqrt(2)."""
    err = abs(float(np.asarray(P).ravel()[0]) - (1.0 + SQ2))
    return [] if err <= 1e-10 else [f"scalar P off 1 + sqrt(2) by {err:.3e}"]


def central_difference_gain(fmap, n, h=1e-6):
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        cols.append((np.asarray(fmap(e)) - np.asarray(fmap(-e))) / (2.0 * h))
    return np.column_stack(cols)


def check_local_gain(fmap, n, B, P, R, h=1e-6):
    """Jacobian of the feedback at 0 equals -R^-1 B' P."""
    K_ref = -np.linalg.solve(R, B.T @ P)
    K = central_difference_gain(fmap, n, h)
    err = np.linalg.norm(K - K_ref)
    bar = GAIN_RTOL * np.linalg.norm(K_ref)
    return [] if err <= bar else [f"local gain off -R^-1 B'P by {err:.3e} (bar {bar:.3e})"]


def check_cost_pair(sys, V, cost, states, certified_top, R):
    """HJB identity from the plant fields and V; q > 0 below the certified top; r(0) = R."""
    problems = []
    worst = 0.0
    q_min = np.inf
    for x in states:
        g = V.gradient(x)
        la = float(g @ sys.a(x))
        lb = g @ sys.b(x)
        q = cost.q(x)
        resid = q + la - 0.25 * float(lb @ np.linalg.inv(cost.r(x)) @ lb)
        worst = max(worst, abs(resid))
        v = V.value(x)
        if 0.0 < v <= certified_top:
            q_min = min(q_min, q)
    if not worst <= HJB_TOL:
        problems.append(f"HJB residual {worst:.3e} above {HJB_TOL:.0e}")
    if q_min == np.inf:
        problems.append("no check state lies within the certified levels")
    elif not q_min > 0.0:
        problems.append(f"state weight q = {q_min:.3e} is not positive within the certified levels")
    r0 = cost.r(np.zeros(V.n))
    if not np.array_equal(r0, np.asarray(R, dtype=float)):
        problems.append("r(0) is not exactly the prescribed R")
    return problems


def check_cost_equals_value(J, v0):
    gap = abs(J - v0)
    return [] if gap <= COST_RTOL * v0 else [f"J = {J:.8g} vs V(x0) = {v0:.8g}"]


def check_scalar_cost(J, x0):
    exact = (1.0 + SQ2) * float(x0[0]) ** 2
    gap = abs(J - exact)
    return [] if gap <= COST_RTOL * exact else [f"J = {J:.8g} vs (1 + sqrt 2) x0^2 = {exact:.8g}"]


def check_costs_more(J_perturbed, J_opt):
    return [] if J_perturbed > J_opt else [f"perturbed J = {J_perturbed:.8g} <= optimal {J_opt:.8g}"]


def check_nonincreasing(vs):
    vs = np.asarray(vs, dtype=float)
    rises = np.flatnonzero(np.diff(vs) > MONOTONE_RTOL * np.maximum(vs[:-1], 1e-300))
    return [] if rises.size == 0 else [f"V rises at {rises.size} step(s), first at {rises[0] + 1}"]


def check_orbit_end(state, target, p0):
    """End state within 1e-3 of the target, orbit scale divided by p0."""
    unit = np.array([1.0, 1.0, 1.0, p0, 1.0, 1.0])
    err = float(np.linalg.norm((np.asarray(state) - target) / unit))
    return [] if err <= ORBIT_TOL else [f"end state {err:.3e} from the target"]
