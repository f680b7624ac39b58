"""Linear-quadratic foundations: Lyapunov/Riccati solvers and matrix tests.

The Riccati solver is a Kleinman-Newton iteration seeded with the gain read
off the stable invariant subspace of the Hamiltonian matrix (Laub 1979);
each step solves one Lyapunov equation, and from that seed one step
usually meets the residual bar. Lyapunov equations are solved by
Bartels-Stewart (1972): a complex Schur form, then a triangular
back-substitution, O(n^3) in all. scipy.linalg.schur is the one
factorization taken from outside numpy.
"""

import warnings

import numpy as np
from scipy.linalg import schur, solve_triangular

from .errors import CertificateError


_RANK_RTOL = 1e-10
# condition estimate above which solve_lyapunov warns
_COND_LIMIT = 1e12
# Newton steps in a row without a new smallest residual after which
# solve_care stops: past that point rounding, not the iteration, sets the
# residual
_NEWTON_STALL = 3
# residual bar at which solve_care stops, relative to (1 + ||Q||_F)
_CARE_TOL = 1e-10
_MAX_NEWTON_ITER = 60
# strict stability margin required of "Hurwitz" spectra
_HURWITZ_MARGIN = 1e-9


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


def is_hurwitz(A):
    """True iff every eigenvalue of A has real part below -1e-9."""
    return spectral_abscissa(_as_matrix(A, "A")) < -_HURWITZ_MARGIN


def spectral_abscissa(A):
    return float(np.max(np.linalg.eigvals(np.asarray(A, dtype=float)).real))


def unstabilizable_modes(A, B):
    """Eigenvalues with Re >= 0 that fail the rank test on [A - lam I, B].

    The rank is judged by singular values: s_min <= 1e-10 s_max.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    bad = []
    for lam in np.linalg.eigvals(A):
        if lam.real >= 0:
            s = np.linalg.svd(np.hstack([A - lam * np.eye(A.shape[0]), B]), compute_uv=False)
            if s[-1] <= _RANK_RTOL * s[0]:
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


def _schur_lyapunov(T, C):
    """Y with T^H Y + Y T = -C for upper triangular T, column by column.

    Column j needs only the columns before it: (T^H + t_jj I) y_j =
    -c_j - Y[:, :j] T[:j, j], a lower triangular solve.
    """
    n = T.shape[0]
    TH, eye = T.conj().T, np.eye(n)
    Y = np.zeros((n, n), dtype=complex)
    for j in range(n):
        rhs = -C[:, j] - Y[:, :j] @ T[:j, j]
        Y[:, j] = solve_triangular(TH + T[j, j] * eye, rhs, lower=True, check_finite=False)
    return Y


def solve_lyapunov(A_cl, Q):
    """Solve A_cl' P + P A_cl = -Q for symmetric P, A_cl Hurwitz.

    Bartels-Stewart: with the complex Schur form A_cl = Z T Z^H, Y = Z^H P Z
    solves T^H Y + Y T = -Z^H Q Z by back-substitution. Emits a warning when
    the condition estimate 2 ||A_cl||_2 ||X_I||_2 is large, X_I being the
    solution for Q = I: Q -> P is a positive map, so ||X_I||_2 is its norm.
    """
    A_cl = _as_matrix(A_cl, "A_cl")
    Q = _check_symmetric(_as_matrix(Q, "Q"), "Q")
    if Q.shape[0] != A_cl.shape[0]:
        raise ValueError("Q must match A_cl in size")
    T, Z = schur(A_cl, output="complex")
    abscissa = float(np.max(np.diag(T).real))
    if not abscissa < -_HURWITZ_MARGIN:
        raise CertificateError(
            "A_cl is not Hurwitz; the Lyapunov equation has no stabilizing solution "
            f"(spectral abscissa {abscissa:.3e})")
    # Z^H I Z = I, and the unitary Z leaves the 2-norm of X_I unchanged
    X_I = _schur_lyapunov(T, np.eye(A_cl.shape[0]))
    cond = 2.0 * np.linalg.norm(A_cl, 2) * np.linalg.norm(X_I, 2)
    if cond > _COND_LIMIT:
        warnings.warn(
            f"Lyapunov equation is ill conditioned (cond ~ {cond:.2e}); "
            "the returned solution may lose accuracy", stacklevel=2)
    Y = _schur_lyapunov(T, Z.conj().T @ Q @ Z)
    P = (Z @ Y @ Z.conj().T).real
    return 0.5 * (P + P.T)


def _hamiltonian_gain(A, B, Q, R):
    """LQ gain -R^-1 B' P0 read off the stable invariant subspace, or None.

    The ordered real Schur form of H = [[A, -B R^-1 B'], [-Q, -A']] puts
    the stable eigenvalues first; when there are n of them, their invariant
    subspace [U11; U21] is the graph of P0 = U21 U11^-1 (Laub 1979).
    """
    n = A.shape[0]
    H = np.block([[A, -B @ np.linalg.solve(R, B.T)], [-Q, -A.T]])
    _, U, sdim = schur(H, sort="lhp")
    if sdim != n:
        return None
    try:
        P0 = np.linalg.solve(U[:n, :n].T, U[n:, :n].T).T
    except np.linalg.LinAlgError:
        return None
    return -np.linalg.solve(R, B.T @ P0)


def stabilizing_gain(A, B):
    """Any gain K with A + B K Hurwitz, for a stabilizable pair.

    Zero when A is already Hurwitz, otherwise the LQ gain for Q = I, R = I.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    if is_hurwitz(A):
        return np.zeros((B.shape[1], A.shape[0]))
    K = _hamiltonian_gain(A, B, np.eye(A.shape[0]), np.eye(B.shape[1]))
    if K is not None and is_hurwitz(A + B @ K):
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
    """Eigenvalues with Re >= 0 failing the rank test on [A - lam I; Q^(1/2)].

    By duality, the stabilizability test on the pair (A', Q^(1/2)).
    """
    return unstabilizable_modes(np.transpose(A), _sqrtm_psd(Q))


def riccati_residual(A, B, Q, R, P):
    RinvBtP = np.linalg.solve(R, B.T @ P)
    return A.T @ P + P @ A - P @ B @ RinvBtP + Q


def solve_care(sys, Q, R):
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    The Newton iteration stops at the residual bar 1e-10 (1 + ||Q||_F),
    after 60 steps, or after 3 steps in a row without a new
    smallest residual. The iterate with the smallest residual is judged
    against 1e-8 (1 + ||Q||_F) and returned; above it, CertificateError.

    Parameters
    ----------
    sys : LinearSystem
    Q : (n, n) array, symmetric positive semidefinite with (Q^1/2, A)
        detectable
    R : (p, p) array, symmetric positive definite

    Returns
    -------
    RiccatiCertificate
        Holds P, the Frobenius residual, and the closed-loop spectral
        abscissa under the gain -R^-1 B' P.
    """
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
    K = _hamiltonian_gain(A, B, Q, R)
    if K is None or not is_hurwitz(A + B @ K):
        K = stabilizing_gain(A, B)
    best_P, best_res, stalled = None, np.inf, 0
    for steps in range(1, _MAX_NEWTON_ITER + 1):
        Acl = A + B @ K
        P = solve_lyapunov(Acl, Q + K.T @ R @ K)
        res_norm = np.linalg.norm(riccati_residual(A, B, Q, R, P), ord="fro")
        if res_norm < best_res:
            best_P, best_res, stalled = P, res_norm, 0
        else:
            stalled += 1
        if best_res <= _CARE_TOL * qscale or stalled == _NEWTON_STALL:
            break
        K_next = -np.linalg.solve(R, B.T @ P)
        # exact iterates never leave the stabilizing set, but rounding can
        # push the full step out on stiff instances; halve toward the last
        # stabilizing gain until the closed loop is Hurwitz again
        t = 1.0
        while t > 1e-10 and not is_hurwitz(A + B @ (K + t * (K_next - K))):
            t *= 0.5
        if t <= 1e-10:
            break
        K = K + t * (K_next - K)
    if best_res > 1e-8 * qscale:
        raise CertificateError(
            f"Newton iteration did not converge: residual {best_res:.3e} "
            f"after {steps} iterations")
    P = best_P
    K = -np.linalg.solve(R, B.T @ P)
    return RiccatiCertificate(P, best_res, spectral_abscissa(A + B @ K))


def lqr_gain(cert, sys, R):
    """Gain K = -R^-1 B' P from a Riccati certificate."""
    P = cert.P if isinstance(cert, RiccatiCertificate) else np.asarray(cert, dtype=float)
    return -np.linalg.solve(np.asarray(R, dtype=float).reshape(sys.p, sys.p),
                            sys.B.T @ P)

