"""Reconstructing the cost that a blended feedback minimizes exactly.

Picking up the scalar cubic design, this script builds the level-set
scaling mu and the input weight r = R / mu(V), from which the state
weight q follows (level_scaled_cost). The stationarity identity then holds
by construction, so the script checks the two facts that can fail: q is
positive away from the origin inside the certified levels, and the
running cost of the associated feedback integrates to the candidate value
V(x0). A deliberately detuned feedback pays more, which is what
optimality means operationally.
"""

import numpy as np

from clfsynth import Box, FeedbackLaw, evaluate_cost, level_scaled_cost, lie_sweep, \
    load_system, optimal_feedback, sample_box
from clfsynth.inverse_opt import state_weights
from clfsynth.runner import synthesize_problem

np.set_printoptions(precision=6, suppress=True)

K_MAX = 4


def main():
    plant = load_system("scalar_cubic")
    box = Box.centered([1.5])
    grid = list(np.geomspace(0.05, 2.0, 28))
    synth = synthesize_problem(plant, np.eye(1), np.eye(1), box, grid,
                               n_samples=2000, seed=0)
    V = synth.V
    print(f"blended design      r0 = {synth.r0:.6g}, "
          f"local gain error {synth.gain_error:.1e}")

    cost = level_scaled_cost(V, plant, np.eye(1), np.eye(1), box, grid, k_max=K_MAX,
                             n_samples=2000, seed=0)
    scaling = cost.scaling
    print(f"\nbase level          {scaling.r0:.6g} (unscaled domination holds below)")
    print(f"annulus constants   {np.array(scaling.ladder)}")
    print(f"certified range     V <= {scaling.certified_top:.6g}")
    print(f"mu knots            levels {np.array(scaling.knots_s)}")
    print(f"                    values {np.array(scaling.knots_v)}")

    for x in (0.2, 0.6, 1.0):
        print(f"q({x:.1f}) = {cost.q(np.array([x])):.6f}   "
              f"r({x:.1f}) = {cost.r(np.array([x])).ravel()}")

    # state weight, sampled inside the certified range, origin excepted
    sweep = lie_sweep(V, plant, sample_box(box, 3000, seed=3))
    inside = sweep.rows((sweep.values > 0.0) & (sweep.values <= scaling.certified_top))
    q = state_weights(inside, cost)
    print(f"\nsmallest q over {len(q)} states inside the certified levels: "
          f"{np.min(q):.3e}")

    law = optimal_feedback(cost)
    for x0 in (np.array([0.6]), np.array([-0.9])):
        est = evaluate_cost(plant, cost, law, x0, horizon=40.0, dt=0.01, V=V)
        v0 = V.value(x0)
        print(f"x0 = {x0[0]:+.1f}: J = {est.value:.8f}, V(x0) = {v0:.8f}, "
              f"gap {abs(est.value - v0):.2e}")

    x0 = np.array([0.6])
    base = evaluate_cost(plant, cost, law, x0, horizon=40.0, dt=0.01, V=V).value
    for scale in (0.9, 1.1):
        detuned = FeedbackLaw("detuned", lambda x, s=scale: s * law.map(x),
                              law.n, law.p)
        J = evaluate_cost(plant, cost, detuned, x0, horizon=40.0, dt=0.01,
                          V=V).value
        print(f"feedback scaled by {scale}: J = {J:.8f} "
              f"(+{100 * (J - base) / base:.3f}%)")


if __name__ == "__main__":
    main()
