"""Linear-quadratic foundations on the double integrator.

Walks through the pieces every later construction leans on: the Riccati
solve with its residual certificate, the optimal gain, the Lyapunov
equation for the closed loop, and a short simulation showing the
quadratic energy decay. The double integrator with unit weights has the
closed-form solution P = [[sqrt(3), 1], [1, sqrt(3)]], so every printed
number can be checked by hand.
"""

import numpy as np

from clfsynth import ControlAffineSystem, FeedbackLaw, LinearSystem, \
    integrate, lqr_gain, solve_care, solve_lyapunov

np.set_printoptions(precision=6, suppress=True)


def main():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    lin = LinearSystem(A, B)
    Q = np.eye(2)
    R = np.eye(1)

    cert = solve_care(lin, Q, R)
    print("Riccati solution P:")
    print(cert.P)
    print(f"closed form         [[sqrt3, 1], [1, sqrt3]] = "
          f"[[{np.sqrt(3):.6f}, 1], [1, {np.sqrt(3):.6f}]]")
    print(f"residual norm       {cert.residual_norm:.3e}")
    print(f"spectral abscissa   {cert.closed_loop_spectral_abscissa:.6f}")

    K = lqr_gain(cert, lin, R)
    print(f"\noptimal gain K      {K}")
    A_cl = A + B @ K
    print(f"closed-loop eigs    {np.sort(np.linalg.eigvals(A_cl).real)}")

    # Lyapunov certificate for the closed loop: A_cl' X + X A_cl = -I
    X = solve_lyapunov(A_cl, np.eye(2))
    print(f"\nLyapunov solution X:")
    print(X)
    print(f"min eigenvalue      {np.linalg.eigvalsh(X).min():.6f}")

    law = FeedbackLaw("lq", lambda x: np.matvec(K, x), 2, 1)
    sys_lin = ControlAffineSystem(2, 1, lambda x: np.matvec(A, x), lambda x: B,
                                  linearization=lin)
    x0 = np.array([1.0, 0.0])
    traj = integrate(sys_lin, law, x0, dt=0.01, T=8.0,
                     annotate={"V": lambda x: np.vecdot(x, np.matvec(cert.P, x))})
    vs = traj.annotations["V"]
    print(f"\nsimulated from      {x0}")
    print(f"V(x0) = {vs[0]:.6f} -> V(x(8)) = {vs[-1]:.3e}")
    print(f"value decayed monotonically: {bool(np.all(np.diff(vs) <= 0))}")
    print(f"final state         {traj.states[-1]}")


if __name__ == "__main__":
    main()
