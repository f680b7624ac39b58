"""End-to-end acceptance gate.

Nine numbered criteria, one test each. Every test prints a single
``[criterion k] ... PASS/FAIL`` line (visible with ``pytest -s`` and in
captured output on failure) and enforces a wall-clock budget on its own
verification work; the three demo designs are built once in a module
fixture and shared, since several criteria examine the same artifacts.

The demo suite is the cubic scalar plant, the two-state strict-feedback
cascade, and the reduced in-plane orbit pair. Expected values that are
not structural identities were cross-checked against closed forms
(scalar Riccati root 1 + sqrt(2)) or scipy reference solvers before
being pinned here.
"""

import hashlib
import pathlib
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import block_diag

from test_linear_core import well_posed_care_instance

from clfsynth.clf import lie_sweep, local_quadratic_clf
from clfsynth.inverse_opt import build_inverse_cost, evaluate_cost, hjb_residual
from clfsynth.linear_core import LinearSystem, is_hurwitz, lqr_gain, \
    riccati_residual, solve_care
from clfsynth.orbital import OrbitalCostConfig, OrbitalParams, \
    build_orbital_controller, equilibrium, orbital_drift, orbital_input_matrix, \
    orbital_restriction, simulate_orbital
from clfsynth.runner import DEFAULT_PROBLEMS, expand_level_grid, load_config, \
    reconstruct_cost, run, synthesize_problem
from clfsynth.sampling import Box, sample_box
from clfsynth.sim import integrate, rk4_path
from clfsynth.structured import StrictFeedbackSystem, backstepping_partition, \
    backstepping_synthesize
from clfsynth.synthesis import FeedbackLaw, local_gain, verify_decrease
from clfsynth.systems import load_system

SQ2 = np.sqrt(2.0)
DEMO_NAMES = ("scalar_cubic", "strict_feedback_demo", "orbital_reduced")
REPO = pathlib.Path(__file__).resolve().parents[1]

pytestmark = [
    pytest.mark.filterwarnings("ignore:scaling queried"),
]


def _finish(num, label, t0, budget, problems):
    elapsed = time.monotonic() - t0
    if elapsed > budget:
        problems.append(f"runtime {elapsed:.1f}s exceeds the {budget:.0f}s budget")
    verdict = "PASS" if not problems else "FAIL"
    print(f"[criterion {num}] {label}: {verdict} "
          f"({elapsed:.1f}s, budget {budget:.0f}s)")
    assert not problems, f"criterion {num} failed: " + "; ".join(problems)


def fd_hessian(fn, n, h=1e-4):
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            H[i, j] = (fn(ei + ej) - fn(ei - ej)
                       - fn(-ei + ej) + fn(-ei - ej)) / (4.0 * h * h)
    return H


def build_demo(name, k_max=8, n_samples=2000):
    d = DEFAULT_PROBLEMS[name]
    system = load_system(name)
    box = Box.from_dict(d["box"])
    grid = expand_level_grid(d["level_grid"])
    n = box.lows.size
    synth = synthesize_problem(system, np.eye(n), np.eye(1), box, grid,
                               n_samples=n_samples, seed=0)
    costrec = reconstruct_cost(synth.full, synth.V, np.eye(n), np.eye(1),
                               box, grid, k_max=k_max, n_samples=n_samples,
                               seed=0)
    return SimpleNamespace(name=name, box=box, grid=grid, n=n,
                           synth=synth, costrec=costrec)


@pytest.fixture(scope="module")
def demos():
    return {name: build_demo(name) for name in DEMO_NAMES}


def value_states(demo, count=20, seed=7):
    """Initial states for cost runs; a V floor keeps relative gaps meaningful."""
    pts = [x for x in sample_box(demo.box, 2 * count, seed=seed)
           if demo.synth.V.value(x) > 1e-4]
    assert len(pts) >= count
    return pts[:count]


def test_criterion_1_riccati_solver_on_random_instances():
    problems = []
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    for i in range(100):
        A, B, Q, R, _ = well_posed_care_instance(rng)
        lin = LinearSystem(A, B)
        cert = solve_care(lin, Q, R)
        bar = 1e-8 * (1.0 + np.linalg.norm(Q, ord="fro"))
        res = np.linalg.norm(riccati_residual(A, B, Q, R, cert.P), ord="fro")
        if res > bar:
            problems.append(f"instance {i}: residual {res:.3e} > {bar:.3e}")
        if not np.allclose(cert.P, cert.P.T, atol=1e-12) \
                or np.linalg.eigvalsh(cert.P).min() <= 0:
            problems.append(f"instance {i}: P is not symmetric positive definite")
        K = lqr_gain(cert, lin, R)
        if not is_hurwitz(A + B @ K):
            problems.append(f"instance {i}: closed loop is not Hurwitz")
    _finish(1, "Riccati solver on 100 random stabilizable/detectable instances",
            t0, 10.0, problems)


def test_criterion_2_local_gain_matches_prescription(demos):
    problems = []
    t0 = time.monotonic()
    for demo in demos.values():
        err = np.max(np.abs(local_gain(demo.synth.law) - demo.synth.K_o))
        if err > 1e-9:
            problems.append(f"{demo.name}: local gain error {err:.3e}")
    _finish(2, "finite-difference local gain equals the prescribed gain",
            t0, 5.0, problems)


def test_criterion_3_sampled_decrease_and_monotone_trajectories(demos):
    problems = []
    t0 = time.monotonic()
    for demo in demos.values():
        sweep = lie_sweep(demo.synth.V, demo.synth.full,
                          sample_box(demo.box, 11000, seed=5))
        rep = verify_decrease(sweep, demo.synth.law)
        if rep.checked < 10000:
            problems.append(f"{demo.name}: only {rep.checked} states checked")
        if not rep.passed:
            problems.append(f"{demo.name}: {len(rep.violations)} decrease violations")
        if rep.max_vdot >= 0:
            problems.append(f"{demo.name}: max V' = {rep.max_vdot:.3e} not negative")
        for k, x0 in enumerate(sample_box(demo.box, 100, seed=9)):
            traj = integrate(demo.synth.full, demo.synth.law, x0, dt=0.02,
                             T=5.0, annotate={"V": demo.synth.V.value})
            vs = traj.annotations["V"]
            if np.any(np.diff(vs) > 1e-9 * vs[:-1]):
                problems.append(f"{demo.name}: trajectory {k} is not monotone")
    _finish(3, "V' < 0 at 10^4 states and 100 monotone trajectories per demo",
            t0, 60.0, problems)


def test_criterion_4_reconstructed_cost_properties(demos):
    problems = []
    t0 = time.monotonic()
    for demo in demos.values():
        cost = demo.costrec.cost
        pts = sample_box(demo.box, 10000, seed=101)
        hjb = max(abs(hjb_residual(demo.synth.V, cost, demo.synth.full, x))
                  for x in pts)
        if hjb > 1e-10:
            problems.append(f"{demo.name}: stationarity residual {hjb:.3e}")
        qs = [cost.q(x) for x in pts if np.linalg.norm(x) > 0]
        if min(qs) <= 0:
            problems.append(f"{demo.name}: state weight dips to {min(qs):.3e}")
        H = fd_hessian(cost.q, demo.n)
        rel = np.max(np.abs(H - 2.0 * np.eye(demo.n))) / 2.0
        if rel > 1e-3:
            problems.append(f"{demo.name}: Hessian of q at 0 off by {rel:.3e}")
        if not np.array_equal(cost.r(np.zeros(demo.n)), np.eye(1)):
            problems.append(f"{demo.name}: r(0) is not exactly the prescribed R")
    _finish(4, "reconstructed (q, r): residual, positivity, local match",
            t0, 30.0, problems)


def test_criterion_5_cost_of_optimal_feedback_equals_value(demos):
    problems = []
    t0 = time.monotonic()
    for demo in demos.values():
        for k, x0 in enumerate(value_states(demo)):
            ev = evaluate_cost(demo.synth.full, demo.costrec.cost,
                               demo.costrec.law, x0, horizon=40.0, dt=0.01,
                               V=demo.synth.V)
            v0 = demo.synth.V.value(x0)
            if abs(ev.value - v0) > 1e-3 * v0:
                problems.append(
                    f"{demo.name} x0 #{k}: J = {ev.value:.6g} vs V = {v0:.6g}")
    # scalar closed form: the stabilizing root of p^2 - 2p - 1 = 0
    scalar = build_demo("scalar_linear", k_max=2, n_samples=600)
    for x0 in (np.array([1.0]), np.array([1.5])):
        ev = evaluate_cost(scalar.synth.full, scalar.costrec.cost,
                           scalar.costrec.law, x0, horizon=20.0, dt=0.01,
                           V=scalar.synth.V)
        exact = (1.0 + SQ2) * x0[0] ** 2
        if abs(ev.value - exact) > 1e-3 * exact:
            problems.append(f"scalar closed form: J = {ev.value:.6g} "
                            f"vs (1+sqrt2) x0^2 = {exact:.6g}")
    _finish(5, "J(x0; optimal feedback) matches V(x0) on 20 states per demo",
            t0, 60.0, problems)


def test_criterion_6_perturbed_feedback_strictly_costs_more(demos):
    problems = []
    t0 = time.monotonic()
    for demo in demos.values():
        opt = demo.costrec.law
        for k, x0 in enumerate(value_states(demo)[:6]):
            J = evaluate_cost(demo.synth.full, demo.costrec.cost, opt, x0,
                              horizon=40.0, dt=0.01, V=demo.synth.V).value
            for scale in (0.95, 1.05):
                pert = FeedbackLaw("perturbed",
                                   lambda x, s=scale: s * opt.map(x),
                                   opt.n, opt.p)
                Jp = evaluate_cost(demo.synth.full, demo.costrec.cost, pert,
                                   x0, horizon=40.0, dt=0.01,
                                   V=demo.synth.V).value
                if not Jp > J:
                    problems.append(f"{demo.name} x0 #{k}: scaling by {scale} "
                                    f"gives J = {Jp:.6g} <= {J:.6g}")
    _finish(6, "+-5% feedback perturbations strictly increase the cost",
            t0, 60.0, problems)


def test_criterion_7_composite_candidate_structure(demos):
    problems = []
    t0 = time.monotonic()
    for name in ("strict_feedback_demo", "orbital_reduced"):
        demo = demos[name]
        P = demo.synth.care.P
        H = fd_hessian(demo.synth.V.value, demo.n)
        rel = np.max(np.abs(H - 2.0 * P)) / np.max(np.abs(2.0 * P))
        if rel > 1e-3:
            problems.append(f"{name}: Hessian of V at 0 off 2P by {rel:.3e}")
        part = backstepping_partition(P)
        B = demo.synth.system.linearization.B
        tpb = np.max(np.abs(part.T.T @ P @ B))
        if tpb > 1e-12:
            problems.append(f"{name}: annihilator misses PB by {tpb:.3e}")
    # a linear cascade must hand back the pure LQ law
    cascade = StrictFeedbackSystem(
        1, h1=lambda y: np.array([0.0]), h2=lambda y: np.array([1.0]),
        f=lambda y, x: 0.0, g=lambda y, x: 1.0,
        blocks=([[0.0]], [1.0], [0.0], 0.0, 1.0))
    A, B = cascade.linearization.A, cascade.linearization.B
    lin = LinearSystem(A, B)
    care = solve_care(lin, np.eye(2), np.eye(1))
    K = lqr_gain(care, lin, np.eye(1))
    V_lin, law = backstepping_synthesize(cascade, K, P=care.P, n_samples=600,
                                         seed=0)
    r0 = law.metadata["r0"]
    for x in (np.array([0.3, -0.2]), np.array([-0.1, 0.05]),
              np.array([1.2, 0.8])):
        quad = x @ care.P @ x
        if abs(V_lin.value(x) - quad) > 1e-8 * (1.0 + quad):
            problems.append("linear cascade: composite candidate is not x'Px")
        # the law agrees with LQ on the exact core of the blend
        x_core = x * np.sqrt(0.45 * r0 / quad)
        err = np.max(np.abs(law.map(x_core) - K @ x_core))
        if err > 1e-8:
            problems.append(f"linear cascade: law differs from LQ by {err:.3e}")
    _finish(7, "composite candidate Hessian, annihilator, linear-plant limit",
            t0, 5.0, problems)


def test_criterion_8_orbital_transfer_bundle():
    problems = []
    t0 = time.monotonic()
    par = OrbitalParams()
    star = equilibrium(par)

    eq = float(np.linalg.norm(orbital_drift(par, star)))
    if eq > 1e-14:
        problems.append(f"equilibrium residual {eq:.3e}")

    sys3 = orbital_restriction(par, 3, 1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        s3 = rng.uniform(-0.3, 0.3, size=3)
        ur = float(rng.uniform(-1.0, 1.0))
        s6 = np.append(s3, [par.p0, 0.0, 0.0])
        full = orbital_drift(par, s6) + orbital_input_matrix(par, s6) @ [ur, 0.0, 0.0]
        # the in-plane equations at chi4 = p0, written out by hand; only
        # (1 + c2) - 1 vs c2 rounding differs
        c2, c3 = s3[1], s3[2]
        oracle = [par.eta_bar * np.sqrt(par.p0) * (1.0 + c2) ** 2 - par.eta,
                  -par.eta * (1.0 + c2) ** 2 * c3,
                  par.eta * (1.0 + c2) ** 2 * c2 + par.nu * ur]
        if not (np.allclose(full[:3], oracle, rtol=0.0, atol=1e-14)
                and np.array_equal(sys3.a(s3) + sys3.b(s3) @ [ur], full[:3])):
            problems.append("in-plane restriction is not termwise")
        if np.max(np.abs(full[3:])) != 0.0:
            problems.append("restricted slice is not invariant")

    s0 = star + np.array([0.05, 0.02, -0.03, 0.0, 0.1, -0.08])
    states = rk4_path(lambda s: orbital_drift(par, s), s0, 0.01, 1000)
    inv = states[:, 4] ** 2 + states[:, 5] ** 2
    drift_err = float(np.max(np.abs(inv - inv[0])))
    if drift_err > 1e-8:
        problems.append(f"out-of-plane invariant drifts by {drift_err:.3e}")

    cfg = OrbitalCostConfig.build(par)
    V, cost, law = build_orbital_controller(par, cfg, n_samples=2000, seed=0)
    s0 = star + np.array([0.1, 0.05, -0.05, 0.1 * par.p0, 0.05, -0.05])
    traj = simulate_orbital(par, law, s0, dt=0.02, T=40.0, V=V)
    vs = traj.annotations["V"]
    final = float(np.linalg.norm(traj.states[-1] - star))
    if final > 1e-3:
        problems.append(f"final distance to target {final:.3e}")
    if np.any(np.diff(vs) > 1e-9 * np.maximum(vs[:-1], 1e-300)):
        problems.append("V is not monotone along the transfer")

    sys4 = orbital_restriction(par, 4, 2)
    box4 = Box.centered([0.4, 0.4, 0.4, 0.4 * par.p0])
    V_t = local_quadratic_clf(block_diag(cfg.P0, cfg.rho1))
    R_t = np.diag([cfg.R_r, cfg.R_theta])
    cost4 = build_inverse_cost(V_t, sys4, R_t, cfg.Q_tilde, cost.scaling)
    hjb4 = max(abs(hjb_residual(V_t, cost4, sys4, x))
               for x in sample_box(box4, 10000, seed=11))
    if hjb4 > 1e-10:
        problems.append(f"four-state stationarity residual {hjb4:.3e}")

    _finish(8, "orbital transfer: equilibrium, restriction, invariant, "
               "convergence, residual", t0, 120.0, problems)


def test_criterion_9_runs_are_byte_reproducible(tmp_path):
    problems = []
    t0 = time.monotonic()
    cfg_path = REPO / "configs" / "run_scalar_linear.json"
    d1, d2 = tmp_path / "a", tmp_path / "b"
    r1 = run(load_config(cfg_path), out_dir=str(d1))
    r2 = run(load_config(cfg_path), out_dir=str(d2))
    if r1["status"] != "pass":
        problems.append(f"run status {r1['status']!r}")
    h1 = hashlib.sha256((d1 / "report.json").read_bytes()).hexdigest()
    h2 = hashlib.sha256((d2 / "report.json").read_bytes()).hexdigest()
    if h1 != h2:
        problems.append("report hashes differ between executions")
    for trace in r1["traces"]:
        if (d1 / trace).read_bytes() != (d2 / trace).read_bytes():
            problems.append(f"{trace} differs between executions")
    _finish(9, "repeated runs hash identically under a fixed seed",
            t0, 10.0, problems)
