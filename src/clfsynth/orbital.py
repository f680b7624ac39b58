"""Low-thrust orbit transfer model and its layered inverse-optimal design.

The model tracks six orbit coordinates: an angular rate offset, two
in-plane shape coordinates, the orbit scale (semilatus-rectum-like, with
target value p0), and two out-of-plane inclination coordinates. Thrust
enters through radial, transverse and normal channels. The target
equilibrium is (0, 0, 0, p0, 0, 0).

The design is built from the inside out: a quadratic Lyapunov function for
the in-plane subsystem (restricted to orbit scale p0), extended additively
by the squared scale offset, run through the inverse-optimal machinery in
four states, and finally extended by the two out-of-plane squares. The
resulting six-state running cost is only positive semidefinite: the
out-of-plane pair contributes a weak term and convergence there follows
from an invariance argument, which the simulation-level diagnostics
reflect by checking V' <= 0 rather than strict decrease.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from .clf import ControlAffineSystem, check_artstein_sampled, find_r0, \
    lie_derivatives, lie_sweep, local_quadratic_clf
from .errors import ArtsteinViolationError, CertificateError, DivergenceError
from .inverse_opt import InverseOptimalCost, base_level_ladder, build_inverse_cost, \
    build_mu, find_base_level, optimal_feedback
from .linear_core import LinearSystem, solve_care
from .sampling import Box, sample_box
from .sim import Trajectory, rk4_path
from .structured import additive_forward_clf


@dataclass
class OrbitalParams:
    """Scale constants: target orbit scale p0 and gravitational parameter."""

    p0: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        if self.p0 <= 0 or self.mu <= 0:
            raise ValueError("p0 and mu must be positive")

    @property
    def nu(self):
        return np.sqrt(self.p0 / self.mu)

    @property
    def eta(self):
        return 1.0 / (self.p0 * self.nu)

    @property
    def nu_bar(self):
        return self.nu * np.sqrt(self.p0)

    @property
    def eta_bar(self):
        return self.eta / np.sqrt(self.p0)

    def to_dict(self):
        return {"p0": self.p0, "mu": self.mu}

    @classmethod
    def from_dict(cls, d):
        return cls(p0=float(d.get("p0", 1.0)), mu=float(d.get("mu", 1.0)))


def equilibrium(params):
    return np.array([0.0, 0.0, 0.0, params.p0, 0.0, 0.0])


def _check_domain(s):
    if not (1.0 + s[1] > 0 and s[3] > 0):
        raise ValueError(
            f"state outside the admissible domain: 1 + chi2 = {1.0 + s[1]:.4g}, "
            f"chi4 = {s[3]:.4g}")


def orbital_drift(params, s):
    """Unforced field; conserves chi5^2 + chi6^2 (pure rotation out of plane)."""
    s = np.asarray(s, dtype=float).reshape(6)
    _check_domain(s)
    c1, c2, c3, c4, c5, c6 = s
    eta, etab = params.eta, params.eta_bar
    w = etab * np.sqrt(c4) * (1.0 + c2) ** 2
    return np.array([
        w - eta,
        -eta * (1.0 + c2) ** 2 * c3,
        eta * (1.0 + c2) ** 2 * ((c4 / params.p0) * (1.0 + c2) - 1.0),
        0.0,
        w * c6,
        -w * c5,
    ])


def orbital_input_matrix(params, s):
    """Thrust map: columns for the radial, transverse and normal channels."""
    s = np.asarray(s, dtype=float).reshape(6)
    _check_domain(s)
    c1, c2, c3, c4, c5, c6 = s
    p0, nu, nub = params.p0, params.nu, params.nu_bar
    root = np.sqrt(c4)
    B = np.zeros((6, 3))
    B[2, 0] = nu
    B[3, 1] = 2.0 * (nu / p0 ** 1.5) * c4 ** 2 * root / (1.0 + c2)
    B[0, 2] = -(nu / p0 ** 1.5) * c6 * c4 * root / (1.0 + c2)
    B[4, 2] = nub * (1.0 + c5 ** 2 - c6 ** 2) / (2.0 * root * (1.0 + c2))
    B[5, 2] = nub * c5 * c6 / (root * (1.0 + c2))
    return B


def orbital_vector_field(params, s, u):
    """Full forced field chi' = drift + input_matrix u."""
    u = np.asarray(u, dtype=float).reshape(3)
    return orbital_drift(params, s) + orbital_input_matrix(params, s) @ u


def orbital_reduced_vector_field(params, s3, u_r):
    """In-plane three-state restriction: orbit scale pinned at p0.

    Obtained by freezing chi4 = p0, chi5 = chi6 = 0 and keeping only the
    radial channel; matches the full field rows termwise there.
    """
    c1, c2, c3 = np.asarray(s3, dtype=float).reshape(3)
    if 1.0 + c2 <= 0:
        raise ValueError("1 + chi2 must stay positive")
    eta, etab, nu, p0 = params.eta, params.eta_bar, params.nu, params.p0
    return np.array([
        etab * np.sqrt(p0) * (1.0 + c2) ** 2 - eta,
        -eta * (1.0 + c2) ** 2 * c3,
        eta * (1.0 + c2) ** 2 * c2 + nu * float(u_r),
    ])


@dataclass
class OrbitalLinearization:
    """Jacobian pair at the equilibrium with its block structure.

    The state splits into (in-plane triple, orbit scale) and the
    out-of-plane pair; A is block diagonal across the split and the scale
    row is zero. Entries follow the exact Jacobian of the field, e.g.
    d(chi2')/d(chi3) = -eta and d(chi1')/d(chi4) = eta / (2 p0).
    """

    A: np.ndarray
    B: np.ndarray
    A0: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    B0: np.ndarray
    B2: np.ndarray

    @property
    def A_tilde(self):
        out = np.zeros((4, 4))
        out[:3, :3] = self.A0
        out[:3, 3] = self.A2.ravel()
        return out

    @property
    def B_tilde(self):
        out = np.zeros((4, 2))
        out[:3, 0] = self.B0.ravel()
        out[3, 1] = self.B[3, 1]
        return out


def orbital_linearization(params):
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
    return OrbitalLinearization(
        A=A, B=B,
        A0=A[:3, :3].copy(), A1=A[4:, 4:].copy(), A2=A[:3, 3:4].copy(),
        B0=B[:3, 0:1].copy(), B2=B[4:, 2:3].copy())


def orbital_system(params):
    """Six-state control-affine system in offset coordinates z = chi - eq."""
    star = equilibrium(params)
    lin = orbital_linearization(params)
    return ControlAffineSystem(
        6, 3,
        a=lambda z: orbital_drift(params, star + z),
        b=lambda z: orbital_input_matrix(params, star + z),
        linearization=(lin.A, lin.B))


def orbital_reduced_system(params):
    """Four-state (in-plane + scale) subsystem with radial and transverse inputs."""
    star4 = np.array([0.0, 0.0, 0.0, params.p0])
    lin = orbital_linearization(params)

    def a(z):
        s = np.append(star4 + z, [0.0, 0.0])
        return orbital_drift(params, s)[:4]

    def b(z):
        s = np.append(star4 + z, [0.0, 0.0])
        return orbital_input_matrix(params, s)[:4, :2]

    return ControlAffineSystem(4, 2, a, b, linearization=(lin.A_tilde, lin.B_tilde))


def orbital_inplane_system(params):
    """Three-state restriction with the radial channel only."""
    nu = params.nu

    def a(z):
        return orbital_reduced_vector_field(params, z, 0.0)

    def b(z):
        return np.array([[0.0], [0.0], [nu]])

    lin = orbital_linearization(params)
    return ControlAffineSystem(3, 1, a, b, linearization=(lin.A0, lin.B0))


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
        lin = orbital_linearization(params)
        sys0 = LinearSystem(lin.A0, lin.B0)
        cert = solve_care(sys0, Q0, np.array([[R_r]]))
        P0 = cert.P
        eta = params.eta
        corner = 4.0 * rho1 ** 2 / (eta ** 2 * R_theta)
        coupling = -(P0 @ lin.A2).ravel()
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

    @classmethod
    def from_dict(cls, params, d):
        return cls.build(
            params,
            Q0=d.get("Q0"),
            R_r=d.get("R_r", 1.0), R_theta=d.get("R_theta", 1.0),
            R_h=d.get("R_h", 1.0),
            rho1=d.get("rho1", 2.0), rho2=d.get("rho2", 1.0))

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
                             k_max=8, seed=0, box3=None, box4=None, V0=None):
    """Layered design: (Lyapunov function, reconstructed cost, feedback).

    The in-plane quadratic candidate is validated by the sampled Lyapunov
    test on box3 before anything is built on top of it. The four-state
    extension gets a blend radius and level-scaling ladder on box4, and the
    final six-state cost adds the out-of-plane channel. The returned law is
    the optimal feedback of the reconstructed cost; its metadata carries
    the radii, the ladder and the four-state cost ("cost4") that the
    six-state cost extends.
    """
    lin = orbital_linearization(params)
    if V0 is None:
        V0 = local_quadratic_clf(cfg.P0)
    sys3 = orbital_inplane_system(params)
    if box3 is None:
        box3 = Box.centered([0.5, 0.5, 0.5])
    report = check_artstein_sampled(
        lie_sweep(V0, sys3, sample_box(box3, n_samples, seed=seed)))
    if report.violations:
        raise ArtsteinViolationError(
            f"in-plane candidate fails the sampled Lyapunov test at "
            f"{len(report.violations)} state(s)", report.violations)

    V_t = additive_forward_clf(V0, cfg.rho1, label="orbit scale offset")
    sys4 = orbital_reduced_system(params)
    P_t = 0.5 * V_t.hessian_origin
    R_t = np.diag([cfg.R_r, cfg.R_theta])
    if box4 is None:
        box4 = Box.centered([0.5, 0.5, 0.5, 0.5 * params.p0])
    if level_grid is None:
        # candidate values grow like rho1*(p0/2)^2 along the orbit-scale
        # axis, so the default grid follows that scale (factor 1 at p0 = 1)
        scale = max(1.0, 2.0 * cfg.rho1 * (0.5 * params.p0) ** 2)
        level_grid = np.geomspace(0.01, 2.0, 40) * scale
    K4 = -np.linalg.solve(R_t, lin.B_tilde.T @ P_t)
    sweep4 = lie_sweep(V_t, sys4, sample_box(box4, n_samples, seed=seed))
    r0_blend = find_r0(sweep4, K4, level_grid)
    r0_base = find_base_level(sweep4, R_t, level_grid)
    check4 = lie_sweep(V_t, sys4, sample_box(box4, n_samples, seed=seed + 1))
    r0, ladder = base_level_ladder(sweep4, check4, R_t, min(r0_blend, r0_base),
                                   level_grid, k_max=k_max)
    scaling = build_mu(r0, ladder)
    cost4 = build_inverse_cost(V_t, sys4, R_t, cfg.Q_tilde, scaling)

    V5 = additive_forward_clf(V_t, cfg.rho2, label="out-of-plane offset 1")
    V = additive_forward_clf(V5, cfg.rho2, label="out-of-plane offset 2")
    sys6 = orbital_system(params)

    def q6(z):
        z = np.asarray(z, dtype=float).reshape(6)
        _, lb = lie_derivatives(V, sys6, z)
        return cost4.q(z[:4]) + 0.25 * lb[2] ** 2 / cfg.R_h

    def r6(z):
        z = np.asarray(z, dtype=float).reshape(6)
        return block_diag(cost4.r(z[:4]), cfg.R_h)

    base_Q = block_diag(cfg.Q_tilde,
                        cfg.rho2 ** 2 * lin.B2 @ lin.B2.T / cfg.R_h)
    cost = InverseOptimalCost(q6, r6, base_Q=base_Q,
                              base_R=cfg.input_weight(), scaling=scaling, V=V)
    law = optimal_feedback(V, cost, sys6)
    law.metadata.update({
        "r0": r0, "r0_blend": r0_blend, "r0_base": r0_base,
        "ladder": list(ladder), "cost4": cost4,
    })
    return V, cost, law


def simulate_orbital(params, law, s0, dt, T, V=None, stop=None):
    """Closed-loop run in the original coordinates from state s0.

    The law acts on offset coordinates. Domain breaches (orbit collapse,
    radius sign loss) abort with DivergenceError. When V is supplied the
    trajectory is annotated with V and its analytic derivative along the
    closed loop.
    """
    star = equilibrium(params)
    s0 = np.asarray(s0, dtype=float).reshape(6)
    _check_domain(s0)

    def f(s):
        try:
            u = law.map(s - star)
            return orbital_vector_field(params, s, u)
        except ValueError as e:
            raise DivergenceError(f"trajectory left the admissible domain: {e}",
                                  last_state=s) from None

    n_steps = int(np.ceil(T / dt - 1e-12))
    states = rk4_path(f, s0, dt, n_steps,
                      stop=(lambda s: stop(s)) if stop is not None else None)
    times = dt * np.arange(states.shape[0])
    inputs = np.array([law.map(s - star) for s in states])
    ann = {}
    if V is not None:
        sweep = lie_sweep(V, orbital_system(params), states - star)
        ann = {"V": sweep.values,
               "Vdot": [la + float(lb @ u) for la, lb, u in zip(sweep.la, sweep.lb, inputs)]}
    return Trajectory(times, states, inputs, ann)


ORBITAL_STATE_NAMES = ["chi1", "chi2", "chi3", "chi4", "chi5", "chi6"]
ORBITAL_INPUT_NAMES = ["u_r", "u_theta", "u_h"]
