"""Blending a universal-formula feedback with a prescribed local gain.

The plant is the scalar cubic x' = x^3 + u: its linearization at the
origin is x' = u, so the unit-weight LQ prescription is u = -x with the
candidate V = x^2. The universal formula stabilizes globally but its
slope at the origin is not the LQ gain; the blend keeps the exact LQ law
on a core sublevel set and hands over smoothly to the universal formula
outside, so the closed loop is globally stable AND locally optimal.
"""

import numpy as np

from clfsynth import Box, blend_profile, blended_controller, \
    check_artstein_sampled, find_r0, integrate, lie_sweep, load_system, local_gain, \
    local_quadratic_clf, lqr_gain, sample_box, seam_diagnostics, solve_care, \
    sontag_controller, verify_decrease
from clfsynth.linear_core import LinearSystem

np.set_printoptions(precision=6, suppress=True)


def main():
    plant = load_system("scalar_cubic")
    box = Box.centered([1.5])
    grid = list(np.geomspace(0.05, 2.0, 28))

    lin = LinearSystem(plant.linearization.A, plant.linearization.B)
    cert = solve_care(lin, np.eye(1), np.eye(1))
    K_o = lqr_gain(cert, lin, np.eye(1))
    V = local_quadratic_clf(cert.P)
    print(f"linearization       A = {lin.A.ravel()}, B = {lin.B.ravel()}")
    print(f"prescribed gain     K_o = {K_o.ravel()}")
    print(f"candidate           V(x) = {cert.P[0, 0]:.4g} x^2")

    # one sweep of (V, L_aV, L_bV) over the box serves every sampled check
    sweep = lie_sweep(V, plant, sample_box(box, 2000))
    artstein = check_artstein_sampled(sweep)
    print(f"\ndecrease controllability: {artstein.checked} states checked, "
          f"{len(artstein.violations)} violations")

    alpha = sontag_controller(V, plant, artstein_report=artstein)
    print(f"universal formula   u(0.5) = {alpha.map([0.5])}  "
          f"(slope at 0 is {local_gain(alpha).ravel()}, not K_o)")

    r0 = find_r0(sweep, K_o, grid)
    law = blended_controller(alpha, K_o, V, blend_profile(r0))
    print(f"\nblend radius        r0 = {r0:.6g}")
    print(f"core region         V <= {r0 / 2:.6g} uses exactly u = K_o x")
    print(f"blended local gain  {local_gain(law).ravel()} "
          f"(error {np.max(np.abs(local_gain(law) - K_o)):.1e})")

    report = verify_decrease(sweep, law)
    print(f"\nclosed-loop decrease: {report.checked} states, "
          f"max V' = {report.max_vdot:.3e}, violations {len(report.violations)}")
    seam = seam_diagnostics(law, V, blend_profile(r0), box)
    print(f"seam steepness      {seam['half_radius']:.4g} at V = r0/2, "
          f"{seam['radius']:.4g} at V = r0 (radial difference quotients)")

    for x0 in ([0.8], [-0.6], [1.4]):
        traj = integrate(plant, law, np.array(x0), dt=0.01, T=10.0,
                         annotate={"V": V.value})
        vs = traj.annotations["V"]
        print(f"x0 = {x0[0]:+.1f}: V {vs[0]:.4f} -> {vs[-1]:.2e}, "
              f"monotone {bool(np.all(np.diff(vs) <= 0))}")


if __name__ == "__main__":
    main()
