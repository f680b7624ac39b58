"""Riccati design for a strict-feedback cascade, read through backstepping.

The demo plant is y' = -y^3 + x, x' = x y^2 + u: the unactuated y block
is driven through x. The Riccati solution P splits by a Schur complement
into an inner weight P_y for the y block, a virtual inner law
x = -P12 y / P22 and the weight P22 on the distance to it. With that
linear inner law the backstepping composite
V_y(y) + P22 (x - alpha_y(y))^2 is exactly x'Px, so the plain quadratic
candidate certifies the whole cascade: its Hessian at the origin is 2P
and the prescribed gain survives untouched.
"""

import numpy as np

from clfsynth import Box, backstepping_clf, backstepping_partition, \
    backstepping_synthesize, integrate, lie_sweep, load_system, local_gain, \
    local_quadratic_clf, lqr_gain, sample_box, solve_care, verify_decrease
from clfsynth.linear_core import LinearSystem

np.set_printoptions(precision=6, suppress=True)


def main():
    cascade = load_system("strict_feedback_demo")
    A, B = cascade.linearization.A, cascade.linearization.B
    print("assembled linearization A:")
    print(A)
    print(f"input column b      {B.ravel()}")

    lin = LinearSystem(A, B)
    cert = solve_care(lin, np.eye(2), np.eye(1))
    K_o = lqr_gain(cert, lin, np.eye(1))
    print(f"\nRiccati solution P:")
    print(cert.P)
    print(f"prescribed gain     K_o = {K_o.ravel()}")

    part = backstepping_partition(cert.P)
    print(f"\nSchur block P_y     {part.P_y.ravel()} (inner candidate weight)")
    print(f"corner P12, P22     {np.ravel(part.P12)}, {float(part.P22):.6g}")
    print(f"inner virtual gain  {part.local_inner_gain.ravel()}")
    print(f"annihilator check   |T'PB| = "
          f"{np.max(np.abs(part.T.T @ cert.P @ B)):.2e}")
    gain = part.local_inner_gain
    composite = backstepping_clf(local_quadratic_clf(part.P_y), lambda y: np.vecdot(y, gain),
                                 part.P22, alpha_y_grad=lambda y: gain)
    pts = sample_box(Box.centered([1.5, 1.5]), 200)
    dev = max(abs(composite.value(x) - x @ cert.P @ x) / (x @ cert.P @ x) for x in pts)
    print(f"composite vs x'Px   max relative deviation {dev:.1e} on 200 states")

    V, law = backstepping_synthesize(cascade, K_o, P=cert.P, n_samples=2000,
                                     seed=0)
    print(f"\nblend radius        r0 = {law.metadata['r0']:.6g}")
    print(f"local gain          {local_gain(law).ravel()} "
          f"(error {np.max(np.abs(local_gain(law) - K_o)):.1e})")

    # the candidate's Hessian at the origin is 2P
    h = 1e-4
    H = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            ei, ej = np.zeros(2), np.zeros(2)
            ei[i], ej[j] = h, h
            H[i, j] = (V.value(ei + ej) - V.value(ei - ej)
                       - V.value(-ei + ej) + V.value(-ei - ej)) / (4 * h * h)
    print(f"Hessian of V at 0 vs 2P: max dev {np.max(np.abs(H - 2 * cert.P)):.2e}")

    box = Box.centered([1.5, 1.5])
    report = verify_decrease(lie_sweep(V, cascade, sample_box(box, 2000)), law)
    print(f"closed-loop decrease: {report.checked} states, "
          f"max V' = {report.max_vdot:.3e}, violations {len(report.violations)}")

    for x0 in ([0.8, -0.5], [-1.2, 1.0]):
        traj = integrate(cascade, law, np.array(x0), dt=0.01, T=12.0,
                         annotate={"V": V.value})
        vs = traj.annotations["V"]
        print(f"x0 = {x0}: V {vs[0]:.4f} -> {vs[-1]:.2e}, "
              f"monotone {bool(np.all(np.diff(vs) <= 0))}")


if __name__ == "__main__":
    main()
