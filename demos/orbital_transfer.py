"""Low-thrust transfer to a circular reference orbit.

Six equinoctial-style coordinates: two in-plane shape offsets, an
in-plane flow offset, the orbit scale, and two out-of-plane tilt
components. The drift conserves the tilt magnitude exactly, so the
out-of-plane pair and the scale enter the Lyapunov function as their own
diagonal blocks next to the in-plane Riccati solution P0:
z' diag(P0, rho1, rho2, rho2) z. The script builds the layered
controller, flies the transfer, and writes the trace next to the current
working directory for external plotting.

Everything runs in normalized units (p0 = mu = 1). The closing section
shows how the same design carries over to a geostationary orbit in
kilometers and seconds through the preset in configs/.
"""

import json
import pathlib

import numpy as np

from clfsynth import OrbitalCostConfig, OrbitalParams, \
    build_orbital_controller, equilibrium, simulate_orbital
from clfsynth.orbital import ORBITAL_INPUT_NAMES, ORBITAL_STATE_NAMES, \
    orbital_drift
from clfsynth.sim import rk4_path

np.set_printoptions(precision=6, suppress=True)
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def main():
    par = OrbitalParams()
    star = equilibrium(par)
    print(f"parameters          p0 = {par.p0}, mu = {par.mu} "
          f"(nu = {par.nu:.4g}, eta = {par.eta:.4g})")
    print(f"target state        {star}")
    print(f"drift at target     {np.linalg.norm(orbital_drift(par, star)):.1e}")

    # the unforced drift rotates the tilt pair, so its magnitude is conserved
    s0 = star + np.array([0.05, 0.02, -0.03, 0.0, 0.1, -0.08])
    states = rk4_path(lambda s: orbital_drift(par, s), s0, 0.01, 1000)
    inv = states[:, 4] ** 2 + states[:, 5] ** 2
    print(f"tilt magnitude drift over T = 10: "
          f"{np.max(np.abs(inv - inv[0])):.2e}")

    cfg = OrbitalCostConfig.build(par)
    print(f"\nin-plane weight Q~ diag {np.diag(cfg.Q_tilde)}")
    V, cost, law = build_orbital_controller(par, cfg, n_samples=2000, seed=0)
    print(f"base level          r0 = {cost.scaling.r0:.6g}")
    print(f"annulus constants   {np.array(cost.scaling.ladder)}")

    s0 = star + np.array([0.1, 0.05, -0.05, 0.1 * par.p0, 0.05, -0.05])
    traj = simulate_orbital(par, law, s0, dt=0.02, T=60.0, V=V)
    vs = traj.annotations["V"]
    final = np.linalg.norm(traj.states[-1] - star)
    print(f"\ntransfer from       {s0}")
    print(f"V {vs[0]:.5f} -> {vs[-1]:.3e}, "
          f"monotone {bool(np.all(np.diff(vs) <= 1e-9 * vs[:-1]))}")
    print(f"final distance      {final:.3e}")

    out = pathlib.Path("orbital_trace.csv")
    traj.to_csv(out, state_names=ORBITAL_STATE_NAMES,
                input_names=ORBITAL_INPUT_NAMES)
    print(f"trace written to    {out.resolve()}")

    geo_path = CONFIGS / "orbital_geo.json"
    if geo_path.exists():
        geo = OrbitalParams(**json.loads(geo_path.read_text()))
        print(f"\ngeostationary preset: p0 = {geo.p0} km, "
              f"mu = {geo.mu} km^3/s^2")
        print(f"orbit rate eta      {geo.eta:.6g} rad/s "
              f"(period {2 * np.pi / geo.eta / 3600:.4g} h)")
        print("run it end to end with: "
              "clfsynth run configs/run_orbital_geo.json --out-dir out_geo")


if __name__ == "__main__":
    main()
