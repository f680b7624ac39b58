"""Structure-exploiting constructions for strict-feedback cascades.

Strict-feedback cascades y' = h1(y) + h2(y) x, x' = f(y, x) + g(y, x) u
(scalar actuated coordinate by design) get the composite Lyapunov function
V(y, x) = V_y(y) + P22 (x - alpha_y(y))^2 whose input derivative vanishes
exactly on the manifold x = alpha_y(y). The partition helper extracts the
reduced matrix P_y as a Schur complement so that the composite's origin
Hessian reproduces the full quadratic prescription. With the partition's
own linear inner law alpha_y(y) = -P12'y/P22 and V_y = y'P_y y, the
composite is x'Px exactly, so the cascade design uses that quadratic form.

Feedforward descriptions (an appended coordinate fed by an actuated inner
system) are designed like any other plant. Both descriptions are
ControlAffineSystems, and their origin blocks are slices of their own
linearization, the one place an origin linearization is derived or
validated.
"""

from dataclasses import dataclass

import numpy as np

from . import numdiff
from .clf import Clf, ControlAffineSystem, lie_sweep, local_quadratic_clf
from .errors import CertificateError
from .linear_core import is_hurwitz, solve_lyapunov
from .sampling import quadratic_level_box, sample_box
from .synthesis import blended_design


class StrictFeedbackSystem(ControlAffineSystem):
    """Cascade with a scalar actuated coordinate driving a y-subsystem.

    The maps take rows: h1, h2 map y (..., n_y) to (..., n_y); f, g map
    (y, x), x a (..., 1) column, to (..., 1) with g nonvanishing (checked
    at the origin; sample elsewhere as needed). The cascade is the
    control-affine system of the stacked state (y, x);
    supplied origin blocks (H1, H2, F1, F2, G) are assembled into its
    linearization, which validates them, and without blocks its
    finite-difference Jacobian is used. The blocks are read back as slices
    of that linearization.
    """

    def __init__(self, n_y, h1, h2, f, g, blocks=None):
        self.n_y = n_y = int(n_y)
        n = n_y + 1
        if abs(np.ravel(g(np.zeros(n_y), np.zeros(1)))[0]) < 1e-12:
            raise ValueError("g must not vanish at the origin")
        linearization = None
        if blocks is not None:
            H1, H2, F1, F2, G = blocks
            A, B = np.zeros((n, n)), np.zeros((n, 1))
            A[:n_y, :n_y], A[:n_y, n_y] = H1, np.ravel(H2)
            A[n_y, :n_y], A[n_y, n_y], B[n_y, 0] = np.ravel(F1), F2, G
            linearization = (A, B)

        def a(chi):
            y, x = chi[..., :n_y], chi[..., n_y:]
            out = np.empty(chi.shape)
            out[..., :n_y], out[..., n_y:] = h1(y) + h2(y) * x, f(y, x)
            return out

        def b(chi):
            col = np.zeros(chi.shape)
            col[..., n_y:] = g(chi[..., :n_y], chi[..., n_y:])
            return col

        super().__init__(n, 1, a, b, linearization=linearization)
        A, B = self.linearization.A, self.linearization.B
        self.H1, self.H2 = A[:n_y, :n_y], A[:n_y, n_y]
        self.F1, self.F2, self.G = A[n_y, :n_y], float(A[n_y, n_y]), float(B[n_y, 0])


class FeedforwardSystem(ControlAffineSystem):
    """Scalar coordinate fed by an actuated inner system: y' = h(x),
    x' = f(x) + g(x) u, with the appended coordinate listed first; on
    rows (..., n_x), h gives (..., 1), f (..., n_x) and g (..., n_x, p).

    The control-affine system of the stacked state (y, x); supplied origin
    blocks (H, F, G) are assembled into its linearization, which validates
    them. The blocks are read back as slices of that linearization.
    """

    def __init__(self, n_x, p, h, f, g, blocks=None):
        self.n_x = n_x = int(n_x)
        p = int(p)
        n = n_x + 1
        linearization = None
        if blocks is not None:
            H, F, G = blocks
            A = np.zeros((n, n))
            A[0, 1:], A[1:, 1:] = np.ravel(H), F
            linearization = (A, np.vstack([np.zeros((1, p)), G]))

        def a(chi):
            out = np.empty(chi.shape)
            out[..., :1], out[..., 1:] = h(chi[..., 1:]), f(chi[..., 1:])
            return out

        def b(chi):
            out = np.zeros(chi.shape + (p,))
            out[..., 1:, :] = g(chi[..., 1:])
            return out

        super().__init__(n, p, a, b, linearization=linearization)
        lin = self.linearization
        self.H, self.F, self.G = lin.A[0, 1:], lin.A[1:, 1:], lin.B[1:, :]


@dataclass
class BacksteppingPartition:
    """Schur-complement split of a quadratic prescription for a cascade."""

    P_y: np.ndarray
    P12: np.ndarray
    P22: float
    T: np.ndarray
    local_inner_gain: np.ndarray

    def to_dict(self):
        return {
            "P_y": self.P_y.tolist(),
            "P12": self.P12.tolist(),
            "P22": self.P22,
            "local_inner_gain": self.local_inner_gain.tolist(),
        }


def backstepping_partition(P, blocks=None):
    """Split P into (P_y, P12, P22) with P_y the Schur complement.

    The annihilator T = [I; -P12'/P22] satisfies T'P = [P_y 0] and kills
    the input column exactly. When the y-subsystem blocks (H1, H2) are
    given, the reduced closed loop under the local inner gain is required
    to admit P_y as a Lyapunov matrix; a failure means P does not fit the
    cascade.
    """
    P = np.asarray(P, dtype=float)
    P = 0.5 * (P + P.T)
    np.linalg.cholesky(P)
    n = P.shape[0]
    n_y = n - 1
    P11 = P[:n_y, :n_y]
    P12 = P[:n_y, n_y]
    P22 = float(P[n_y, n_y])
    P_y = P11 - np.outer(P12, P12) / P22
    np.linalg.cholesky(P_y)
    gain = -P12 / P22
    T = np.vstack([np.eye(n_y), gain.reshape(1, n_y)])
    TP = T.T @ P
    if np.linalg.norm(TP[:, n_y]) > 1e-12 * (1.0 + np.linalg.norm(P)):
        raise CertificateError("annihilator failed to cancel the actuated column")
    if np.linalg.norm(TP[:, :n_y] - P_y) > 1e-12 * (1.0 + np.linalg.norm(P)):
        raise CertificateError("Schur complement identity failed")
    if blocks is not None:
        H1 = np.asarray(blocks[0], dtype=float).reshape(n_y, n_y)
        H2 = np.asarray(blocks[1], dtype=float).reshape(n_y)
        Hcl = H1 + np.outer(H2, gain)
        S = Hcl.T @ P_y + P_y @ Hcl
        top = float(np.max(np.linalg.eigvalsh(0.5 * (S + S.T))))
        if top >= 0:
            raise CertificateError(
                f"P_y does not decrease along the reduced closed loop "
                f"(max eigenvalue {top:.3e}); P does not fit these blocks")
    return BacksteppingPartition(P_y=P_y, P12=np.asarray(P12, dtype=float),
                                 P22=P22, T=T, local_inner_gain=gain)


def backstepping_clf(V_y, alpha_y, P22, alpha_y_grad=None, expected_inner_gain=None):
    """Composite V(y, x) = V_y(y) + P22 (x - alpha_y(y))^2.

    The input derivative of the composite is 2 P22 (x - alpha_y(y)) g, so
    it vanishes exactly on the manifold x = alpha_y(y). On rows y, alpha_y
    gives (...) and alpha_y_grad (..., n_y). alpha_y must vanish at 0; when
    expected_inner_gain is given, the slope of alpha_y at 0 must match it
    (finite-difference check), otherwise construction is refused.
    """
    P22 = float(P22)
    if P22 <= 0:
        raise ValueError("P22 must be positive")
    n_y = V_y.n
    z = np.zeros(n_y)
    if abs(float(alpha_y(z))) > 1e-12:
        raise ValueError("alpha_y(0) must vanish")
    grad = alpha_y_grad if alpha_y_grad is not None else \
        (lambda y: numdiff.gradient(alpha_y, y))
    K = np.asarray(grad(z), dtype=float).reshape(n_y)
    K_fd = numdiff.gradient(alpha_y, z)
    if np.linalg.norm(K - K_fd) > 1e-4 * (1.0 + np.linalg.norm(K)):
        raise ValueError("alpha_y_grad disagrees with finite differences at 0")
    if expected_inner_gain is not None:
        expected = np.asarray(expected_inner_gain, dtype=float).reshape(n_y)
        if np.linalg.norm(K - expected) > 1e-6 * (1.0 + np.linalg.norm(expected)):
            raise CertificateError(
                f"inner gain mismatch at the origin: alpha_y slope {K} vs "
                f"prescribed {expected}")

    P_y = 0.5 * V_y.hessian_origin
    H = np.zeros((n_y + 1, n_y + 1))
    H[:n_y, :n_y] = 2.0 * P_y + 2.0 * P22 * np.outer(K, K)
    H[:n_y, n_y] = -2.0 * P22 * K
    H[n_y, :n_y] = -2.0 * P22 * K
    H[n_y, n_y] = 2.0 * P22

    def value(chi):
        y, x = chi[..., :n_y], chi[..., n_y]
        e = x - alpha_y(y)
        return V_y.value(y) + P22 * e * e

    def gradient(chi):
        y, x = chi[..., :n_y], chi[..., n_y:]
        e = x - np.expand_dims(alpha_y(y), -1)
        gy = V_y.gradient(y) - 2.0 * P22 * e * np.broadcast_to(grad(y), y.shape)
        return np.concatenate([gy, 2.0 * P22 * e], axis=-1)

    return Clf(n_y + 1, value, gradient, hessian_origin=H)


def backstepping_synthesize(sys, K_o, P=None, box=None, level_grid=None,
                            n_samples=2000, seed=0):
    """Full cascade design: quadratic candidate x'Px plus blended law.

    P defaults to the Lyapunov solution for the prescribed closed loop with
    weight I (pass the Riccati solution instead to anchor the
    inverse-optimal machinery). P must split over the cascade's y-blocks
    (backstepping_partition); x'Px is then the backstepping composite of
    that split with its linear inner law. blended_design runs on one sweep
    of the working box; the law's metadata keeps the radius and the
    partition.
    """
    A, B = sys.linearization.A, sys.linearization.B
    K_o = np.asarray(K_o, dtype=float).reshape(1, sys.n)
    if not is_hurwitz(A + B @ K_o):
        raise ValueError("K_o does not stabilize the cascade linearization")
    if P is None:
        P = solve_lyapunov(A + B @ K_o, np.eye(sys.n))
    part = backstepping_partition(P, blocks=(sys.H1, sys.H2))
    V = local_quadratic_clf(P)
    if level_grid is None:
        level_grid = np.geomspace(0.05, 2.0, 24)
    if box is None:
        box = quadratic_level_box(0.5 * V.hessian_origin, max(level_grid))
    sweep = lie_sweep(V, sys, sample_box(box, n_samples, seed=seed))
    law = blended_design(sweep, K_o, level_grid)[1]
    law.metadata["partition"] = part.to_dict()
    return V, law
