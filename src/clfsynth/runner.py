"""End-to-end pipelines and the reproducible run driver.

A run takes a JSON-friendly config, executes synthesis, cost
reconstruction, verification and simulation, and emits a report whose
bytes depend only on the config (fixed seeds, sorted keys, round-trip
float formatting). The CLFSYNTH_SEED environment variable overrides the
configured sampling seed.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .clf import blend_profile, check_positivity_properness, lie_sweep, \
    local_quadratic_clf
from .errors import CertificateError, ConfigError
from .inverse_opt import base_level_ladder, build_inverse_cost, build_mu, \
    evaluate_cost, find_base_level, hjb_sweep, optimal_feedback
from .linear_core import LinearCoreConfig, LinearSystem, lqr_gain, solve_care
from .orbital import ORBITAL_INPUT_NAMES, ORBITAL_STATE_NAMES, OrbitalCostConfig, \
    OrbitalParams, build_orbital_controller, equilibrium, orbital_drift, \
    orbital_reduced_system, simulate_orbital
from .sampling import Box, sample_box
from .serialize import matrix_from_json, matrix_to_json
from .sim import integrate
from .structured import FeedforwardSystem, StrictFeedbackSystem, \
    backstepping_composite
from .synthesis import blended_design, local_gain, seam_diagnostics, verify_decrease
from .systems import load_system


@dataclass
class SynthesisRecord:
    system: object
    full: object
    care: object
    K_o: np.ndarray
    V: object
    law: object
    r0: float
    artstein: object
    decrease: object
    gain: np.ndarray
    gain_error: float
    seam: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "care": self.care.to_dict(),
            "K_o": matrix_to_json(self.K_o),
            "r0": self.r0,
            "artstein": self.artstein.to_dict(),
            "decrease": self.decrease.to_dict(),
            "local_gain": matrix_to_json(self.gain),
            "gain_error": self.gain_error,
            "seam": self.seam,
        }


def synthesize_problem(system, Q, R, box, level_grid, n_samples=2000, seed=0,
                       lc_config=None, with_seam=True):
    """Prescribe the linear-quadratic gain, then build the global blend.

    Works for plain control-affine systems (quadratic candidate from the
    Riccati solution) and strict-feedback cascades (composite candidate
    anchored to the same Riccati solution).
    """
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    cascade = isinstance(system, StrictFeedbackSystem)
    full = system.to_control_affine() if cascade else system
    lin = LinearSystem(full.linearization.A, full.linearization.B)
    care = solve_care(lin, Q, R, lc_config)
    K_o = lqr_gain(care, lin, R)
    if cascade:
        V, part = backstepping_composite(system, K_o, P=care.P)
    else:
        V, part = local_quadratic_clf(care.P), None
    sweep = lie_sweep(V, full, sample_box(box, n_samples, seed=seed))
    artstein, law = blended_design(sweep, K_o, level_grid)
    if part is not None:
        law.metadata["partition"] = part.to_dict()
    r0 = law.metadata["r0"]
    positivity = check_positivity_properness(V, box, seed=seed)
    if not positivity.passed:
        raise CertificateError(
            "candidate failed positivity or properness on the working box")
    decrease = verify_decrease(sweep, law)
    gain = local_gain(law)
    gain_error = float(np.max(np.abs(gain - K_o)))
    seam = seam_diagnostics(law, V, blend_profile(r0), box, n_pairs=100, seed=seed) \
        if with_seam else {}
    return SynthesisRecord(system=system, full=full, care=care, K_o=K_o, V=V,
                           law=law, r0=r0, artstein=artstein, decrease=decrease,
                           gain=gain, gain_error=gain_error, seam=seam)


@dataclass
class CostRecord:
    r0: float
    ladder: list
    scaling: object
    cost: object
    law: object
    hjb_max: float
    q_min: float
    checked: int

    def to_dict(self):
        return {
            "r0": self.r0,
            "ladder": self.ladder,
            "scaling": self.scaling.to_dict(),
            "hjb_max_abs": self.hjb_max,
            "q_min_off_origin": self.q_min,
            "checked": self.checked,
        }


def reconstruct_cost(full, V, Q, R, box, level_grid, k_max=8, n_samples=2000, seed=0):
    """Level ladder, scaling envelope, cost pair and optimal feedback.

    The base level is rescanned here because the inequality it needs
    (unscaled domination) is stricter than the blend radius condition, and
    steps down the grid when a second sweep of the box (seed + 1) rejects
    it; that sweep also revalidates the ladder (base_level_ladder).
    Also samples the box for the largest HJB residual and, within the
    certified levels, the smallest reconstructed state weight.
    """
    R = np.asarray(R, dtype=float)
    fit = lie_sweep(V, full, sample_box(box, n_samples, seed=seed))
    check = lie_sweep(V, full, sample_box(box, n_samples, seed=seed + 1))
    r0, ladder = base_level_ladder(fit, check, R, find_base_level(fit, R, level_grid),
                                   level_grid, k_max=k_max)
    scaling = build_mu(r0, ladder)
    cost = build_inverse_cost(V, full, R, np.asarray(Q, dtype=float), scaling)
    law = optimal_feedback(V, cost, full)
    sweep = lie_sweep(V, full, sample_box(box, n_samples, seed=seed + 17))
    q, residual = hjb_sweep(sweep, cost)
    top = (k_max + 1) * r0
    live = sweep.values > 1e-9 * top
    hjb_max = np.max(np.abs(residual[live]), initial=0.0)
    q_min = np.min(q[live & (sweep.values <= top)], initial=np.inf)
    checked = int(np.sum(live))
    return CostRecord(r0=r0, ladder=[float(l) for l in ladder], scaling=scaling,
                      cost=cost, law=law, hjb_max=float(hjb_max),
                      q_min=float(q_min), checked=checked)


DEFAULT_PROBLEMS = {
    "scalar_linear": {
        "box": {"lows": [-2.0], "highs": [2.0]},
        "level_grid": {"start": 0.05, "stop": 4.0, "num": 28},
        "initial_states": [[1.0], [-0.5], [1.5]],
    },
    "scalar_cubic": {
        "box": {"lows": [-1.5], "highs": [1.5]},
        "level_grid": {"start": 0.05, "stop": 2.0, "num": 28},
        "initial_states": [[0.8], [-0.6], [0.3]],
    },
    "strict_feedback_demo": {
        "box": {"lows": [-1.5, -1.5], "highs": [1.5, 1.5]},
        "level_grid": {"start": 0.02, "stop": 1.5, "num": 28},
        "initial_states": [[0.8, -0.5], [-0.6, 0.4]],
    },
    "orbital_reduced": {
        "box": {"lows": [-0.5, -0.5], "highs": [0.5, 0.5]},
        "level_grid": {"start": 0.01, "stop": 1.0, "num": 28},
        "initial_states": [[0.3, -0.2], [-0.25, 0.2]],
    },
}


def expand_level_grid(spec):
    if isinstance(spec, dict):
        return list(np.geomspace(float(spec["start"]), float(spec["stop"]),
                                 int(spec["num"])))
    return [float(v) for v in spec]


def load_config(src):
    """Read, default-fill and validate a run config; env seed wins."""
    if isinstance(src, (str, os.PathLike)):
        with open(src) as fh:
            cfg = json.load(fh)
    elif isinstance(src, dict):
        cfg = json.loads(json.dumps(src))
    else:
        raise ConfigError("config must be a path or a dict")
    if "system" not in cfg:
        raise ConfigError("config needs a 'system' entry")
    name = cfg["system"] if isinstance(cfg["system"], str) else None
    defaults = DEFAULT_PROBLEMS.get(name, {})
    for key in ("box", "level_grid", "initial_states"):
        cfg.setdefault(key, defaults.get(key))
    cfg.setdefault("prescription", {"Q": None, "R": None})
    cfg.setdefault("sampling", {})
    cfg["sampling"].setdefault("seed", 0)
    cfg["sampling"].setdefault("n_samples", 2000)
    cfg.setdefault("integrator", {})
    cfg["integrator"].setdefault("dt", 0.005)
    cfg["integrator"].setdefault("horizon", 40.0)
    cfg.setdefault("inverse_optimal", {})
    cfg["inverse_optimal"].setdefault("k_max", 8)
    unknown = sorted(set(cfg["inverse_optimal"]) - {"k_max"})
    if unknown:
        raise ConfigError(f"unknown inverse_optimal keys {unknown}; only 'k_max' is "
                          "settable")
    cfg.setdefault("linear_core", {})
    env_seed = os.environ.get("CLFSYNTH_SEED")
    if env_seed is not None:
        try:
            cfg["sampling"]["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"CLFSYNTH_SEED must be an integer, got {env_seed!r}") from None
    return cfg


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")).hexdigest()


def load_problem(cfg):
    """(system, Q, R, box, level grid) of a config filled by load_config.

    Feedforward descriptions are converted to their control-affine form;
    missing weights default to identities.
    """
    system = load_system(cfg["system"])
    if isinstance(system, FeedforwardSystem):
        system = system.to_control_affine()
    if cfg["box"] is None or cfg["level_grid"] is None:
        raise ConfigError("non-registry systems need explicit 'box' and 'level_grid' "
                          "(--box and --levels on the command line)")
    pres = cfg.get("prescription") or {}
    Q = pres.get("Q")
    R = pres.get("R")
    Q = np.eye(system.n) if Q is None else matrix_from_json(Q, "Q")
    R = np.eye(system.p) if R is None else matrix_from_json(R, "R")
    return system, Q, R, Box.from_dict(cfg["box"]), expand_level_grid(cfg["level_grid"])


def _check(name, passed, value=None, threshold=None):
    entry = {"name": name, "passed": bool(passed)}
    if value is not None:
        entry["value"] = float(value)
    if threshold is not None:
        entry["threshold"] = float(threshold)
    return entry


def cost_versus_value(synth, costrec, x0, horizon, dt):
    """Cost of the reconstructed optimal feedback from x0 against V(x0)."""
    x0 = np.asarray(x0, dtype=float)
    est = evaluate_cost(synth.full, costrec.cost, costrec.law, x0,
                        horizon=horizon, dt=dt)
    v0 = synth.V.value(x0)
    return {
        "x0": [float(v) for v in x0],
        "J": est.value, "integral": est.integral, "tail": est.tail,
        "tail_kind": est.tail_kind, "value_at_x0": v0,
        "relative_gap": abs(est.value - v0) / v0 if v0 > 0 else 0.0,
    }


def _finish_report(cfg, system, sections, trace_files, checks, out_dir):
    """The report around a run's own sections; written to out_dir when given."""
    report = dict(sections, config=cfg, config_sha256=config_hash(cfg),
                  system=system, traces=trace_files, checks=checks,
                  status="pass" if all(c["passed"] for c in checks) else "fail")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return report


def run(config, out_dir=None):
    """Execute a config end to end; returns the report dict.

    Writes report.json and per-initial-state CSV traces into out_dir when
    given. The report's status is "pass" only if every certificate and
    tolerance check passed.
    """
    cfg = load_config(config)
    if cfg["system"] == "orbital":
        return _run_orbital(cfg, out_dir)
    system, Q, R, box, grid = load_problem(cfg)
    seed = int(cfg["sampling"]["seed"])
    n_samples = int(cfg["sampling"]["n_samples"])
    lc = LinearCoreConfig.from_dict(cfg["linear_core"])

    synth = synthesize_problem(system, Q, R, box, grid, n_samples=n_samples,
                               seed=seed, lc_config=lc)
    costrec = reconstruct_cost(synth.full, synth.V, Q, R, box, grid,
                               k_max=int(cfg["inverse_optimal"]["k_max"]),
                               n_samples=n_samples, seed=seed)

    dt = float(cfg["integrator"]["dt"])
    horizon = float(cfg["integrator"]["horizon"])
    checks = [
        _check("artstein_no_violations", synth.artstein.passed,
               value=len(synth.artstein.violations)),
        _check("decrease_no_violations", synth.decrease.passed,
               value=len(synth.decrease.violations)),
        _check("local_gain_matches", synth.gain_error <= 1e-9,
               value=synth.gain_error, threshold=1e-9),
        _check("hjb_residual_small", costrec.hjb_max <= 1e-10,
               value=costrec.hjb_max, threshold=1e-10),
        _check("state_weight_positive", costrec.q_min > 0.0, value=costrec.q_min),
    ]
    cost_results = [cost_versus_value(synth, costrec, x0, horizon, dt)
                    for x0 in cfg.get("initial_states") or []]
    if cost_results:
        worst_rel = max(c["relative_gap"] for c in cost_results)
        checks.append(_check("cost_matches_value", worst_rel <= 1e-3,
                             value=worst_rel, threshold=1e-3))

    traces_ok = True
    trace_files = []
    for i, x0 in enumerate(cfg.get("initial_states") or []):
        x0 = np.asarray(x0, dtype=float)
        v0 = synth.V.value(x0)
        traj = integrate(synth.full, synth.law, x0, dt=dt, T=horizon,
                         stop=lambda x: synth.V.value(x) <= 1e-8 * v0,
                         annotate={"V": synth.V.value})
        vs = traj.annotations["V"]
        if np.any(np.diff(vs) > 1e-9 * vs[:-1]):
            traces_ok = False
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"trace_{i:03d}.csv")
            traj.to_csv(path)
            trace_files.append(os.path.basename(path))
    if cfg.get("initial_states"):
        checks.append(_check("trajectories_monotone", traces_ok))

    return _finish_report(
        cfg, cfg["system"] if isinstance(cfg["system"], str) else "inline",
        {"synthesis": synth.to_dict(), "inverse_optimal": costrec.to_dict(),
         "costs": cost_results}, trace_files, checks, out_dir)


def orbital_transfer(params, cost_cfg, dt, T, s0=None, n_samples=1500, seed=0,
                     level_grid=None, k_max=8):
    """Layered orbital design, then one closed-loop transfer from s0.

    s0 defaults to an offset of the target orbit. Returns (law, trajectory,
    final error). The orbit-scale coordinate carries the p0 unit, so the
    error norm divides it out; at p0 = 1 this is the plain euclidean
    distance to the target.
    """
    V, _, law = build_orbital_controller(params, cost_cfg, seed=seed,
                                         n_samples=n_samples,
                                         level_grid=level_grid, k_max=k_max)
    star = equilibrium(params)
    if s0 is None:
        s0 = star + np.array([0.1, 0.05, -0.05, 0.1 * params.p0, 0.05, -0.05])
    traj = simulate_orbital(params, law, s0, dt=dt, T=T, V=V)
    unit = np.array([1.0, 1.0, 1.0, params.p0, 1.0, 1.0])
    return law, traj, float(np.linalg.norm((traj.states[-1] - star) / unit))


def _run_orbital(cfg, out_dir=None):
    params = OrbitalParams.from_dict(cfg.get("orbital_params") or {})
    cost_cfg = OrbitalCostConfig.from_dict(params, cfg.get("orbital_cost") or {})
    seed = int(cfg["sampling"]["seed"])
    n_samples = int(cfg["sampling"]["n_samples"])
    synth_opts = cfg.get("orbital_synthesis") or {}
    grid = synth_opts.get("level_grid")
    if grid is not None:
        grid = expand_level_grid(grid)
    x0 = cfg.get("initial_states")
    law, traj, final_err = orbital_transfer(
        params, cost_cfg, dt=float(cfg["integrator"]["dt"]),
        T=float(cfg["integrator"]["horizon"]),
        s0=np.asarray(x0[0], dtype=float) if x0 else None, n_samples=n_samples,
        seed=seed, level_grid=grid, k_max=int(synth_opts.get("k_max", 8)))
    eq_res = float(np.linalg.norm(orbital_drift(params, equilibrium(params))))

    # spot-check the planar cost's stationarity identity on fresh samples
    cost4 = law.metadata["cost4"]
    box4 = Box.centered([0.4, 0.4, 0.4, 0.4 * params.p0])
    sweep4 = lie_sweep(cost4.V, orbital_reduced_system(params),
                       sample_box(box4, min(n_samples, 1500), seed=seed + 3))
    hjb4 = float(np.max(np.abs(hjb_sweep(sweep4, cost4)[1])))

    vs = traj.annotations["V"]
    monotone = not np.any(np.diff(vs) > 1e-9 * np.maximum(vs[:-1], 1e-300))
    target_tol = float(cfg.get("target_tolerance", 1e-3))

    checks = [
        _check("equilibrium_residual", eq_res <= 1e-14, value=eq_res, threshold=1e-14),
        _check("hjb4_residual_small", hjb4 <= 1e-10, value=hjb4, threshold=1e-10),
        _check("value_monotone", monotone),
        _check("converges_to_target", final_err <= target_tol, value=final_err,
               threshold=target_tol),
    ]
    trace_files = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "orbital_trace.csv")
        traj.to_csv(path, state_names=ORBITAL_STATE_NAMES,
                    input_names=ORBITAL_INPUT_NAMES)
        trace_files.append(os.path.basename(path))
    return _finish_report(cfg, "orbital", {
        "params": params.to_dict(),
        "cost_config": cost_cfg.to_dict(),
        "design": {"r0": law.metadata["r0"], "ladder": law.metadata["ladder"]},
        "simulation": {
            "final_error": final_err,
            "final_value": float(vs[-1]),
            "steps": int(len(traj) - 1),
        },
    }, trace_files, checks, out_dir)
