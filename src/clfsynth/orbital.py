"""Low-thrust orbit transfer model and its layered inverse-optimal design.

The model tracks six orbit coordinates: an angular rate offset, two
in-plane shape coordinates, the orbit scale (semilatus-rectum-like, with
target value p0), and two out-of-plane inclination coordinates. Thrust
enters through radial, transverse and normal channels. The target
equilibrium is (0, 0, 0, p0, 0, 0). The field and its exact origin pair
(A, B) are written once; the in-plane and four-state reductions are their
slices (orbital_restriction), and transfers run through sim.integrate.

The design is built from the inside out: a quadratic Lyapunov function
x'P0x for the in-plane subsystem (restricted to orbit scale p0), then the
block-diagonal form z' diag(P0, rho1) z with the scale offset, given its
cost by the same level_scaled_cost step as every other plant, and finally
z' diag(P0, rho1, rho2, rho2) z with the two out-of-plane offsets. Its
input weight adds the fixed normal-channel weight R_h to the four-state
one, and its state weight follows from that as for any
InverseOptimalCost: q4 + (1/4) L_bV_h^2 / R_h. This six-state running
cost is only positive semidefinite: convergence of the weakly weighted
out-of-plane pair follows from an invariance argument, which the
simulation-level diagnostics reflect by checking V' <= 0.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import block_diag

from .clf import ControlAffineSystem, check_artstein_sampled, lie_sweep, local_quadratic_clf
from .errors import ArtsteinViolationError, CertificateError, DivergenceError
from .inverse_opt import InverseOptimalCost, level_scaled_cost, optimal_feedback
from .linear_core import LinearSystem, solve_care
from .sampling import Box, sample_box
from .sim import Trajectory, integrate


@dataclass(frozen=True)
class OrbitalParams:
    """Scale constants: target orbit scale p0 and gravitational parameter.

    Frozen, so the derived constants nu, eta, nu_bar and eta_bar are
    computed once per parameter set, on first use, and orbital_system can
    keep one plant per (p0, mu).
    """

    p0: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        if self.p0 <= 0 or self.mu <= 0:
            raise ValueError("p0 and mu must be positive")

    @cached_property
    def nu(self):
        return np.sqrt(self.p0 / self.mu)

    @cached_property
    def eta(self):
        return 1.0 / (self.p0 * self.nu)

    @cached_property
    def nu_bar(self):
        return self.nu * np.sqrt(self.p0)

    @cached_property
    def eta_bar(self):
        return self.eta / np.sqrt(self.p0)

    def to_dict(self):
        return {"p0": self.p0, "mu": self.mu}


def equilibrium(params):
    return np.array([0.0, 0.0, 0.0, params.p0, 0.0, 0.0])


def _coordinates(s):
    """(chi1, ..., chi6, sqrt): one state as Python floats with math.sqrt
    (numpy's IEEE arithmetic without its per-scalar overhead), a stack as
    columns with np.sqrt; squares are products, as libm pow and numpy's
    square differ in the last bit. ValueError at 1 + chi2 <= 0 or chi4 <= 0.
    """
    s = np.asarray(s, dtype=float)
    one = s.ndim == 1
    c = s.reshape(6).tolist() if one else list(np.moveaxis(s, -1, 0))
    ok = (1.0 + c[1] > 0) & (c[3] > 0)
    if ok if one else ok.all():
        return c + [math.sqrt if one else np.sqrt]
    s = s if one else s.reshape(-1, 6)[np.argmin(ok.ravel())]
    raise ValueError(
        f"state outside the admissible domain: 1 + chi2 = {1.0 + s[1]:.4g}, "
        f"chi4 = {s[3]:.4g}")


def orbital_drift(params, s):
    """Unforced field at one state or a stack (..., 6); conserves chi5^2 + chi6^2
    (pure rotation out of plane)."""
    c1, c2, c3, c4, c5, c6, sqrt = _coordinates(s)
    eta = params.eta
    e = 1.0 + c2
    e2 = e * e
    w = params.eta_bar * sqrt(c4) * e2
    out = [w - eta, -eta * e2 * c3, eta * e2 * ((c4 / params.p0) * e - 1.0), 0.0, w * c6, -w * c5]
    return np.array(out) if isinstance(c1, float) else \
        np.stack(np.broadcast_arrays(*out), axis=-1)


def orbital_input_matrix(params, s):
    """Thrust map at one state or a stack: columns for the radial, transverse
    and normal channels."""
    c1, c2, c3, c4, c5, c6, sqrt = _coordinates(s)
    nu, nub = params.nu, params.nu_bar
    k = nu / params.p0 ** 1.5
    root = sqrt(c4)
    e = 1.0 + c2
    lead = () if isinstance(c1, float) else c1.shape
    B = np.zeros((6, 3) + lead)  # stack axes last, so one state's indexing serves both
    B[2, 0] = nu
    B[3, 1] = 2.0 * k * (c4 * c4) * root / e
    B[0, 2] = -k * c6 * c4 * root / e
    B[4, 2] = nub * (1.0 + c5 * c5 - c6 * c6) / (2.0 * root * e)
    B[5, 2] = nub * c5 * c6 / (root * e)
    return np.moveaxis(B, (0, 1), (-2, -1)) if lead else B


def orbital_linearization(params):
    """Exact Jacobian pair (A, B) of the field at the equilibrium.

    A is block diagonal across (in-plane triple, orbit scale) and the
    out-of-plane pair, and its scale row is zero. Entries follow the exact
    Jacobian of the field, e.g. d(chi2')/d(chi3) = -eta and
    d(chi1')/d(chi4) = eta / (2 p0). The reductions are its leading
    blocks: A[:3, :3], B[:3, :1] in plane, A[:4, :4], B[:4, :2] with the
    scale.
    """
    eta, nu, p0 = params.eta, params.nu, params.p0
    A = np.zeros((6, 6))
    A[0, 1] = 2.0 * eta
    A[0, 3] = eta / (2.0 * p0)
    A[1, 2] = -eta
    A[2, 1] = eta
    A[2, 3] = eta / p0
    A[4, 5] = eta
    A[5, 4] = -eta
    B = np.zeros((6, 3))
    B[2, 0] = nu
    B[3, 1] = 2.0 * nu * p0
    B[4, 2] = 0.5 * nu
    return A, B


@lru_cache(maxsize=16)
def orbital_system(params):
    """Six-state control-affine system in offset coordinates z = chi - eq.

    One object per parameter set (p0, mu): build_orbital_controller's cost
    and every simulate_orbital run share it, so the run recognises the
    cost's optimal feedback and the finite-difference check of the origin
    pair runs once. The plant holds no state a run changes. The cache is
    bounded; a plant evicted from it only sends later runs of its cost's
    law through law.map, with the same results. Every drift and input
    evaluation still checks the domain.
    """
    star = equilibrium(params)
    return ControlAffineSystem(
        6, 3,
        a=lambda z: orbital_drift(params, star + z),
        b=lambda z: orbital_input_matrix(params, star + z),
        linearization=orbital_linearization(params))


def orbital_restriction(params, n, p):
    """First n offset coordinates driven by the first p thrust channels.

    The remaining coordinates are pinned at the target, and the field and
    its linearization are the matching slices of the six-state ones:
    n, p = 3, 1 is the in-plane triple under radial thrust, 4, 2 adds the
    orbit scale and the transverse channel.
    """
    star = equilibrium(params)
    A, B = orbital_linearization(params)

    def pinned(z):
        s = np.empty(z.shape[:-1] + (6,))
        s[...] = star
        s[..., :n] += z
        return s

    return ControlAffineSystem(
        n, p,
        a=lambda z: orbital_drift(params, pinned(z))[..., :n],
        b=lambda z: orbital_input_matrix(params, pinned(z))[..., :n, :p],
        linearization=(A[:n, :n], B[:n, :p]))


@dataclass
class OrbitalCostConfig:
    """Weights of the layered design plus the in-plane Riccati solution.

    The coupling block uses the offset coordinate z4 = chi4 - p0; its sign
    convention is orthogonally similar to the one with p0 - chi4, so the
    positive-definiteness requirement on the assembled coupling matrix is
    identical either way.
    """

    Q0: np.ndarray
    R_r: float
    R_theta: float
    R_h: float
    rho1: float
    rho2: float
    P0: np.ndarray
    Q_tilde: np.ndarray
    care_residual: float

    @classmethod
    def build(cls, params, Q0=None, R_r=1.0, R_theta=1.0, R_h=1.0,
              rho1=2.0, rho2=1.0):
        """Solve the in-plane Riccati equation and assemble the coupling matrix.

        Raises CertificateError when the assembled four-state weight fails
        to be positive definite (increase rho1 or soften R_theta).
        """
        if min(R_r, R_theta, R_h, rho1, rho2) <= 0:
            raise ValueError("all weights must be positive")
        Q0 = np.eye(3) if Q0 is None else np.asarray(Q0, dtype=float)
        A, B = orbital_linearization(params)
        cert = solve_care(LinearSystem(A[:3, :3], B[:3, :1]), Q0, np.array([[R_r]]))
        P0 = cert.P
        eta = params.eta
        corner = 4.0 * rho1 ** 2 / (eta ** 2 * R_theta)
        coupling = -(P0 @ A[:3, 3:4]).ravel()
        Qt = np.zeros((4, 4))
        Qt[:3, :3] = Q0
        Qt[:3, 3] = coupling
        Qt[3, :3] = coupling
        Qt[3, 3] = corner
        eigs = np.linalg.eigvalsh(Qt)
        if eigs[0] <= 0:
            raise CertificateError(
                f"coupling matrix is not positive definite (min eigenvalue "
                f"{eigs[0]:.3e}); increase rho1 or decrease R_theta")
        return cls(Q0=Q0, R_r=float(R_r), R_theta=float(R_theta), R_h=float(R_h),
                   rho1=float(rho1), rho2=float(rho2), P0=P0, Q_tilde=Qt,
                   care_residual=cert.residual_norm)

    def input_weight(self):
        return np.diag([self.R_r, self.R_theta, self.R_h])

    def to_dict(self):
        return {
            "Q0": self.Q0.tolist(), "R_r": self.R_r, "R_theta": self.R_theta,
            "R_h": self.R_h, "rho1": self.rho1, "rho2": self.rho2,
            "P0": self.P0.tolist(), "Q_tilde": self.Q_tilde.tolist(),
            "care_residual": self.care_residual,
        }


def build_orbital_controller(params, cfg, level_grid=None, n_samples=1500,
                             k_max=8, seed=0):
    """Layered design: (Lyapunov function, reconstructed cost, feedback).

    The in-plane quadratic candidate x'P0x is validated by the sampled
    Lyapunov test on the box of half-width 0.5 before anything is built on
    top of it. The four-state candidate V_t = z' diag(P0, rho1) z gets its
    cost from level_scaled_cost on the box of half-widths
    (0.5, 0.5, 0.5, 0.5 p0): base level, annulus ladder, scaling mu and
    input weight diag(R_r, R_theta) / mu(V_t). The six-state candidate
    z' diag(P0, rho1, rho2, rho2) z adds the normal channel at the fixed
    weight R_h: r = diag(R_r / mu, R_theta / mu, R_h) with mu = mu(V_t(z4)),
    so the cost's level is V_t(z4) and the six-state V is not evaluated
    for r; q is derived from r. The cost's plant is orbital_system(params),
    the one object simulate_orbital runs. The returned law is the optimal
    feedback of that cost ("cost"); its metadata also carries the
    four-state cost ("cost4") that the six-state cost extends. Both costs
    share one scaling, which holds the base level r0 and the ladder.
    """
    V0 = local_quadratic_clf(cfg.P0)
    sys3 = orbital_restriction(params, 3, 1)
    box3 = Box.centered([0.5, 0.5, 0.5])
    report = check_artstein_sampled(
        lie_sweep(V0, sys3, sample_box(box3, n_samples, seed=seed)))
    if report.violations:
        raise ArtsteinViolationError(
            f"in-plane candidate fails the sampled Lyapunov test at "
            f"{len(report.violations)} state(s)", report.violations)

    V_t = local_quadratic_clf(block_diag(cfg.P0, cfg.rho1))
    box4 = Box.centered([0.5, 0.5, 0.5, 0.5 * params.p0])
    if level_grid is None:
        # candidate values grow like rho1*(p0/2)^2 along the orbit-scale
        # axis, so the default grid follows that scale (factor 1 at p0 = 1)
        scale = max(1.0, 2.0 * cfg.rho1 * (0.5 * params.p0) ** 2)
        level_grid = np.geomspace(0.01, 2.0, 40) * scale
    cost4 = level_scaled_cost(V_t, orbital_restriction(params, 4, 2), cfg.Q_tilde,
                              np.diag([cfg.R_r, cfg.R_theta]), box4, level_grid,
                              k_max=k_max, n_samples=n_samples, seed=seed)
    scaling = cost4.scaling

    def level4(z):
        # the scaling follows the four-state level, not the six-state one
        return V_t.value(z[..., :4])

    def r6(v4):
        mu = scaling.mu(v4)
        r = np.zeros(np.shape(mu) + (3, 3))
        r[..., 0, 0], r[..., 1, 1], r[..., 2, 2] = cfg.R_r / mu, cfg.R_theta / mu, cfg.R_h
        return r

    V = local_quadratic_clf(block_diag(cfg.P0, cfg.rho1, cfg.rho2, cfg.rho2))
    sys6 = orbital_system(params)
    B2 = sys6.linearization.B[4:, 2:3]
    base_Q = block_diag(cfg.Q_tilde, cfg.rho2 ** 2 * B2 @ B2.T / cfg.R_h)
    cost = InverseOptimalCost(V, sys6, r6, base_Q=base_Q, base_R=cfg.input_weight(),
                              scaling=scaling, level=level4)
    law = optimal_feedback(cost)
    law.metadata["cost4"] = cost4
    return V, cost, law


def simulate_orbital(params, law, s0, dt, T, V=None):
    """Closed-loop run in the original coordinates from state s0.

    sim.integrate runs orbital_system(params) from the offset s0 - eq, and
    the recorded states are shifted back by eq. That plant is the one
    build_orbital_controller gave its cost, so the cost's optimal feedback
    runs on the fused stage (no law.map call per stage). A domain breach
    (orbit collapse, radius sign loss) ends the run with its
    DivergenceError, its last_state in original coordinates. When V is
    supplied the trajectory is annotated with V and V' = grad V (a + b u),
    from one lie_sweep of the recorded states and the trajectory's inputs.
    """
    star = equilibrium(params)
    s0 = np.asarray(s0, dtype=float).reshape(6)
    _coordinates(s0)  # the domain check
    sys = orbital_system(params)
    try:
        traj = integrate(sys, law, s0 - star, dt, T)
    except DivergenceError as e:
        e.last_state = star + e.last_state
        raise
    ann = {}
    if V is not None:
        sweep = lie_sweep(V, sys, traj.states)
        ann = {"V": sweep.values, "Vdot": sweep.la + np.vecdot(sweep.lb, traj.inputs)}
    return Trajectory(traj.times, traj.states + star, traj.inputs, ann)


ORBITAL_STATE_NAMES = ["chi1", "chi2", "chi3", "chi4", "chi5", "chi6"]
ORBITAL_INPUT_NAMES = ["u_r", "u_theta", "u_h"]
