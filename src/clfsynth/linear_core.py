"""Linear-quadratic foundations: Lyapunov/Riccati solvers and matrix tests.

The Riccati solver is a Kleinman-Newton iteration: starting from any
stabilizing gain, each step solves one Lyapunov equation and the iterates
decrease monotonically to the stabilizing solution. Lyapunov equations are
solved densely through the Kronecker-vectorized form, which keeps the whole
chain free of external factorization packages and easy to audit.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError


@dataclass
class LinearCoreConfig:
    """Tolerances shared by the solvers in this module.

    care_tol is relative to (1 + ||Q||_F); hurwitz_margin is the strict
    stability margin required of "Hurwitz" spectra.
    """

    care_tol: float = 1e-10
    max_newton_iter: int = 60
    hurwitz_margin: float = 1e-9

    @classmethod
    def from_dict(cls, d):
        d = dict(d or {})
        known = {f for f in ("care_tol", "max_newton_iter", "hurwitz_margin")}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown linear_core options: {sorted(extra)}")
        return cls(**d)


DEFAULT_CONFIG = LinearCoreConfig()

_RANK_RTOL = 1e-10


def _as_matrix(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} must be finite")
    return M


def _check_symmetric(M, name, rtol=1e-10):
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square")
    if np.linalg.norm(M - M.T, ord="fro") > rtol * (1.0 + np.linalg.norm(M, ord="fro")):
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (M + M.T)


def is_hurwitz(A, margin=None):
    """True iff every eigenvalue of A has real part below -margin."""
    if margin is None:
        margin = DEFAULT_CONFIG.hurwitz_margin
    A = _as_matrix(A, "A")
    return bool(np.max(np.linalg.eigvals(A).real) < -margin)


def spectral_abscissa(A):
    return float(np.max(np.linalg.eigvals(np.asarray(A, dtype=float)).real))


def _pbh_rank_deficient(A, B, lam):
    """Rank of [A - lam I, B] below n, judged by singular values."""
    n = A.shape[0]
    M = np.hstack([A - lam * np.eye(n), B])
    s = np.linalg.svd(M, compute_uv=False)
    return s[-1] <= _RANK_RTOL * s[0]


def unstabilizable_modes(A, B):
    """Eigenvalues with Re >= 0 that fail the rank test on [A - lam I, B]."""
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    bad = []
    for lam in np.linalg.eigvals(A):
        if lam.real >= 0 and _pbh_rank_deficient(A, B, lam):
            bad.append(lam)
    return bad


class LinearSystem:
    """Pair (A, B) for x' = A x + B u; stabilizability is checked up front."""

    def __init__(self, A, B, check_stabilizable=True):
        self.A = _as_matrix(A, "A")
        self.B = _as_matrix(B, "B")
        if self.A.shape[0] != self.A.shape[1]:
            raise ValueError("A must be square")
        if self.B.shape[0] != self.A.shape[0]:
            raise ValueError("B must have as many rows as A")
        self.n = self.A.shape[0]
        self.p = self.B.shape[1]
        bad = unstabilizable_modes(self.A, self.B)
        if bad:
            msg = f"(A, B) is not stabilizable: uncontrollable unstable mode(s) {bad}"
            if check_stabilizable:
                raise ValueError(msg)
            warnings.warn(msg, stacklevel=2)


def solve_lyapunov(A_cl, Q, cond_limit=1e12):
    """Solve A_cl' P + P A_cl = -Q for symmetric P, A_cl Hurwitz.

    Dense Kronecker-vectorized solve: (I (x) A_cl' + A_cl' (x) I) vec(P)
    = -vec(Q). Emits a warning when the Kronecker system is badly
    conditioned.
    """
    A_cl = _as_matrix(A_cl, "A_cl")
    Q = _check_symmetric(_as_matrix(Q, "Q"), "Q")
    if Q.shape[0] != A_cl.shape[0]:
        raise ValueError("Q must match A_cl in size")
    if not is_hurwitz(A_cl):
        raise CertificateError(
            "A_cl is not Hurwitz; the Lyapunov equation has no stabilizing solution "
            f"(spectral abscissa {spectral_abscissa(A_cl):.3e})")
    n = A_cl.shape[0]
    eye = np.eye(n)
    L = np.kron(eye, A_cl.T) + np.kron(A_cl.T, eye)
    cond = np.linalg.cond(L)
    if cond > cond_limit:
        warnings.warn(
            f"Kronecker Lyapunov system is ill conditioned (cond ~ {cond:.2e}); "
            "the returned solution may lose accuracy", stacklevel=2)
    rhs = -Q.reshape(-1)
    vecP = np.linalg.solve(L, rhs)
    # a couple of refinement passes claw back accuracy on stiff systems
    for _ in range(2):
        resid = rhs - L @ vecP
        if np.linalg.norm(resid) <= 1e-14 * (1.0 + np.linalg.norm(rhs)):
            break
        vecP = vecP + np.linalg.solve(L, resid)
    P = vecP.reshape(n, n)
    return 0.5 * (P + P.T)


def _bass_ladder(A, B, config):
    """One-shot shifted-Lyapunov gain, or None when every rung fails.

    With beta above the spectral abscissa, solve (A + beta I) Z +
    Z (A + beta I)' = 2 B B' + 2 eps I and take K = -B' Z^-1. The eps
    regularization covers stabilizable but not controllable pairs; every
    candidate is verified before it is returned.
    """
    # the shift must exceed the magnitude of every eigenvalue real part;
    # scaling with ||A|| keeps the placed poles commensurate with the
    # plant's own time scale (an absolute shift wrecks slow systems)
    norm_a = np.linalg.norm(A, 2)
    scale = max(norm_a, 100.0 * config.hurwitz_margin)
    eps_scale = 1.0 + np.linalg.norm(B, 2) ** 2
    for beta in (1.1 * scale, 2.0 * scale, 8.0 * scale,
                 norm_a + 1.0, 8.0 * (norm_a + 1.0)):
        # mild regularization first: it keeps the gain moderate when the
        # gramian is ill conditioned; eps = 0 is the exact construction
        # (poles at -beta for controllable pairs) and rescues instances
        # where any eps perturbation destroys the pole guarantee
        for eps in (1e-8, 0.0, 1e-5, 1e-2):
            W = 2.0 * B @ B.T + 2.0 * eps * eps_scale * np.eye(A.shape[0])
            # M Z + Z M' = -W with M = -(A + beta I); Hurwitz by choice of beta
            M = -(A + beta * np.eye(A.shape[0]))
            try:
                Z = solve_lyapunov(M.T, W)
                K = -np.linalg.solve(Z, B).T
            except (CertificateError, np.linalg.LinAlgError):
                continue
            if is_hurwitz(A + B @ K, config.hurwitz_margin):
                return K
    return None


def _real_invariant_basis(lam, S, mask):
    """Orthonormal real basis for the span of the selected eigenvectors."""
    cols = []
    for j in np.flatnonzero(mask):
        if lam[j].imag < 0.0:
            continue
        if lam[j].imag > 0.0:
            cols.append(S[:, j].real)
            cols.append(S[:, j].imag)
        else:
            cols.append(S[:, j].real)
    if not cols:
        return np.zeros((S.shape[0], 0))
    raw = np.column_stack(cols)
    U, s, _ = np.linalg.svd(raw, full_matrices=False)
    return U[:, s > 1e-10 * s[0]]


def _subspace_gain(A, B, config):
    """Pole placement restricted to the unstable invariant subspace.

    Splits the state space along the eigenvectors of A, stabilizes the
    small antistable restriction with the shifted-Lyapunov ladder, and
    lifts the gain back with zeros on the stable complement. Moves only
    the unstable modes, so the gain stays moderate even when the
    full-order construction is numerically singular. Returns None when
    the eigenbasis is unusable (defective or ill conditioned).
    """
    n = A.shape[0]
    lam, S = np.linalg.eig(A)
    margin = 2.0 * config.hurwitz_margin
    V = _real_invariant_basis(lam, S, lam.real >= -margin)
    V2 = _real_invariant_basis(lam, S, lam.real < -margin)
    k = V.shape[1]
    if k == 0 or k + V2.shape[1] != n:
        return None
    M = V.T @ A @ V
    # both blocks must be genuinely invariant for the split to be valid
    norm_a = 1.0 + np.linalg.norm(A)
    if np.linalg.norm(A @ V - V @ M) > 1e-8 * norm_a:
        return None
    if V2.shape[1] and np.linalg.norm(A @ V2 - V2 @ (V2.T @ A @ V2)) > 1e-8 * norm_a:
        return None
    S_r = np.hstack([V, V2])
    if np.linalg.cond(S_r) > 1e10:
        return None
    B_split = np.linalg.solve(S_r, B)
    K_u = _bass_ladder(M, B_split[:k], config)
    if K_u is None:
        return None
    K_lift = np.hstack([K_u, np.zeros((B.shape[1], n - k))])
    return np.linalg.solve(S_r.T, K_lift.T).T


def stabilizing_gain(A, B, config=None):
    """Any gain K with A + B K Hurwitz, for a stabilizable pair.

    Tries pole placement on the unstable invariant subspace first (it
    leaves the stable modes alone, so the gain stays moderate), then the
    full-order shifted-Lyapunov construction for spectra the eigenvector
    split cannot separate.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    if config is None:
        config = DEFAULT_CONFIG
    if is_hurwitz(A, config.hurwitz_margin):
        return np.zeros((B.shape[1], A.shape[0]))
    K = _subspace_gain(A, B, config)
    if K is not None and is_hurwitz(A + B @ K, config.hurwitz_margin):
        return K
    K = _bass_ladder(A, B, config)
    if K is not None:
        return K
    raise CertificateError("failed to find a stabilizing initial gain")


class RiccatiCertificate:
    """Stabilizing Riccati solution with its numerically checked evidence."""

    def __init__(self, P, residual_norm, closed_loop_spectral_abscissa):
        self.P = np.asarray(P, dtype=float)
        self.residual_norm = float(residual_norm)
        self.closed_loop_spectral_abscissa = float(closed_loop_spectral_abscissa)
        if np.linalg.norm(self.P - self.P.T, ord="fro") > 1e-10 * (1.0 + np.linalg.norm(self.P)):
            raise CertificateError("Riccati solution is not symmetric")
        try:
            np.linalg.cholesky(self.P)
        except np.linalg.LinAlgError:
            raise CertificateError("Riccati solution is not positive definite") from None
        if self.closed_loop_spectral_abscissa >= 0:
            raise CertificateError("closed loop is not Hurwitz")

    def to_dict(self):
        return {
            "P": self.P.tolist(),
            "residual_norm": self.residual_norm,
            "closed_loop_spectral_abscissa": self.closed_loop_spectral_abscissa,
        }


def _sqrtm_psd(Q):
    w, U = np.linalg.eigh(Q)
    if np.min(w) < -1e-10 * max(1.0, np.max(np.abs(w))):
        raise ValueError("Q must be positive semidefinite")
    return U @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ U.T


def undetectable_modes(A, Q):
    """Eigenvalues with Re >= 0 failing the rank test on [A - lam I; Q^(1/2)]."""
    C = _sqrtm_psd(Q)
    bad = []
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if lam.real < 0:
            continue
        M = np.vstack([A - lam * np.eye(n), C])
        s = np.linalg.svd(M, compute_uv=False)
        if s[-1] <= _RANK_RTOL * s[0]:
            bad.append(lam)
    return bad


def riccati_residual(A, B, Q, R, P):
    RinvBtP = np.linalg.solve(R, B.T @ P)
    return A.T @ P + P @ A - P @ B @ RinvBtP + Q


def solve_care(sys, Q, R, config=None):
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    Parameters
    ----------
    sys : LinearSystem
    Q : (n, n) array, symmetric positive semidefinite with (Q^1/2, A)
        detectable
    R : (p, p) array, symmetric positive definite
    config : LinearCoreConfig, optional

    Returns
    -------
    RiccatiCertificate
        Holds P, the Frobenius residual, and the closed-loop spectral
        abscissa under the gain -R^-1 B' P.
    """
    if config is None:
        config = DEFAULT_CONFIG
    A, B = sys.A, sys.B
    Q = _check_symmetric(_as_matrix(Q, "Q"), "Q")
    R = _check_symmetric(_as_matrix(R, "R"), "R")
    if Q.shape[0] != sys.n:
        raise ValueError("Q must be n x n")
    if R.shape[0] != sys.p:
        raise ValueError("R must be p x p")
    try:
        np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        raise ValueError("R must be positive definite") from None
    bad = undetectable_modes(A, Q)
    if bad:
        raise ValueError(
            f"(Q^1/2, A) is not detectable: unobservable unstable mode(s) {bad}")

    qscale = 1.0 + np.linalg.norm(Q, ord="fro")
    K = stabilizing_gain(A, B, config)
    P = None
    res_norm = np.inf
    for _ in range(config.max_newton_iter):
        Acl = A + B @ K
        P = solve_lyapunov(Acl, Q + K.T @ R @ K)
        res_norm = np.linalg.norm(riccati_residual(A, B, Q, R, P), ord="fro")
        if res_norm <= config.care_tol * qscale:
            break
        K_next = -np.linalg.solve(R, B.T @ P)
        # exact iterates never leave the stabilizing set, but rounding can
        # push the full step out on stiff instances; halve toward the last
        # stabilizing gain until the closed loop is Hurwitz again
        t = 1.0
        while t > 1e-10 and not is_hurwitz(A + B @ (K + t * (K_next - K)),
                                           config.hurwitz_margin):
            t *= 0.5
        if t <= 1e-10:
            break
        K = K + t * (K_next - K)
    if res_norm > 1e-8 * qscale:
        raise CertificateError(
            f"Newton iteration did not converge: residual {res_norm:.3e} "
            f"after {config.max_newton_iter} iterations")
    K = -np.linalg.solve(R, B.T @ P)
    return RiccatiCertificate(P, res_norm, spectral_abscissa(A + B @ K))


def lqr_gain(cert, sys, R):
    """Gain K = -R^-1 B' P from a Riccati certificate."""
    P = cert.P if isinstance(cert, RiccatiCertificate) else np.asarray(cert, dtype=float)
    return -np.linalg.solve(np.asarray(R, dtype=float).reshape(sys.p, sys.p),
                            sys.B.T @ P)

