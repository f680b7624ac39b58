"""End-to-end pipelines and the reproducible run driver.

A run takes a JSON-friendly config, executes synthesis, cost
reconstruction, verification and simulation, and emits a report whose
bytes depend only on the config (fixed seeds, sorted keys, round-trip
float formatting). load_config is the one reader of run inputs, for run
configs and CLI flags alike: it picks the run kind's table (PLANT_RUN, or
ORBITAL_RUN for the orbital transfer), refuses every entry that table does
not list and every non-finite number, converts each number once and fills
the defaults; CLFSYNTH_SEED wins over the configured seed. Each run kind
has one stage (plant_stage, orbital_stage) returning the report's
sections, checks and traces; run alone writes the traces and the report.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from .clf import blend_profile, lie_sweep, local_quadratic_clf
from .errors import ConfigError
from .inverse_opt import evaluate_cost, level_scaled_cost, optimal_feedback, state_weights
from .linear_core import LinearSystem, lqr_gain, solve_care
from .orbital import ORBITAL_INPUT_NAMES, ORBITAL_STATE_NAMES, OrbitalCostConfig, \
    OrbitalParams, build_orbital_controller, equilibrium, orbital_drift, simulate_orbital
from .sampling import Box, sample_box
from .serialize import matrix_from_json, matrix_to_json
from .sim import integrate
from .structured import StrictFeedbackSystem, backstepping_partition
from .synthesis import blended_design, local_gain, seam_diagnostics, verify_decrease
from .systems import load_system


@dataclass
class SynthesisRecord:
    system: object
    care: object
    K_o: np.ndarray
    V: object
    law: object
    r0: float
    artstein: object
    decrease: object
    gain: np.ndarray
    gain_error: float
    seam: dict

    @property
    def full(self):
        """The designed plant, a ControlAffineSystem: the system itself."""
        return self.system

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


def synthesize_problem(system, Q, R, box, level_grid, n_samples=2000, seed=0):
    """Prescribe the linear-quadratic gain, then build the global blend.

    The candidate is x'Px with P the Riccati solution, for every plant. A
    strict-feedback cascade also gets the Schur split of P, checked against
    its y-blocks (backstepping_partition): x'Px is exactly the backstepping
    composite of that split with its linear inner law. The Cholesky factor
    that local_quadratic_clf takes proves x'Px positive and proper on all
    of R^n, so no sampled positivity check runs here.
    """
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    lin = LinearSystem(system.linearization.A, system.linearization.B)
    care = solve_care(lin, Q, R)
    K_o = lqr_gain(care, lin, R)
    part = backstepping_partition(care.P, blocks=(system.H1, system.H2)) \
        if isinstance(system, StrictFeedbackSystem) else None
    V = local_quadratic_clf(care.P)
    sweep = lie_sweep(V, system, sample_box(box, n_samples, seed=seed))
    artstein, law = blended_design(sweep, K_o, level_grid)
    if part is not None:
        law.metadata["partition"] = part.to_dict()
    r0 = law.metadata["r0"]
    decrease = verify_decrease(sweep, law)
    gain = local_gain(law)
    gain_error = float(np.max(np.abs(gain - K_o)))
    seam = seam_diagnostics(law, V, blend_profile(r0), box, seed=seed)
    return SynthesisRecord(system=system, care=care, K_o=K_o, V=V,
                           law=law, r0=r0, artstein=artstein, decrease=decrease,
                           gain=gain, gain_error=gain_error, seam=seam)


@dataclass
class CostRecord:
    """A reconstructed cost, its optimal feedback and its sampled q > 0 check.

    The base level and the ladder are the cost's scaling's (cost.scaling).
    """

    cost: object
    law: object
    q_min: float
    checked: int

    @property
    def r0(self):
        return self.cost.scaling.r0

    def to_dict(self):
        scaling = self.cost.scaling
        return {
            "r0": scaling.r0,
            "ladder": scaling.ladder,
            "scaling": scaling.to_dict(),
            "q_min_off_origin": self.q_min,
            "checked": self.checked,
        }


def reconstruct_cost(full, V, Q, R, box, level_grid, k_max=8, n_samples=2000, seed=0):
    """Level-scaled cost pair (level_scaled_cost) and its optimal feedback.

    The base level is rescanned here because the inequality it needs
    (unscaled domination) is stricter than the blend radius condition.
    Also samples the box (seed + 17) for the smallest reconstructed state
    weight on the rows inside the certified levels, the origin excepted.
    Stationarity holds by construction (q is derived from r), so q > 0 is
    what this sweep can falsify.
    """
    cost = level_scaled_cost(V, full, Q, R, box, level_grid, k_max=k_max,
                             n_samples=n_samples, seed=seed)
    law = optimal_feedback(cost)
    sweep = lie_sweep(V, full, sample_box(box, n_samples, seed=seed + 17))
    top = cost.scaling.certified_top
    inside = (sweep.values > 1e-9 * top) & (sweep.values <= top)
    q = state_weights(sweep.rows(inside), cost)
    return CostRecord(cost=cost, law=law, q_min=float(np.min(q, initial=np.inf)),
                      checked=len(q))


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

# entry kinds besides int and float: MATRIX is a JSON matrix (read by matrix_from_json
# where used), BOX an object or null, GRID a level list, a {start, stop, num} object or
# null, STATES a list of states (initial_states checks it against the plant), LEVEL a
# positive number
MATRIX, BOX, GRID, STATES, LEVEL = "matrix", "box", "level grid", "states", "level"
# left out of the config when not given: its reader defaults it
OMIT = "omit"
# one table per run kind: each top-level entry but 'system' -> (kind, default), each
# section -> {key: (kind, default)}; a registry problem's box, grid and states win
PLANT_RUN = {
    "box": (BOX, None), "level_grid": (GRID, None), "initial_states": (STATES, None),
    "prescription": {"Q": (MATRIX, None), "R": (MATRIX, None)},
    "sampling": {"seed": (int, 0), "n_samples": (int, 2000)},
    "integrator": {"dt": (float, 0.005), "horizon": (float, 40.0)},
    "inverse_optimal": {"k_max": (int, 8)},
}
# configs/run_orbital.json's settings; OrbitalParams and OrbitalCostConfig.build
# default p0, mu and the weights, orbital_stage the tolerance (1e-3)
ORBITAL_RUN = {
    "level_grid": (GRID, None), "initial_states": (STATES, None),
    "target_tolerance": (float, OMIT),
    "sampling": {"seed": (int, 0), "n_samples": (int, 1500)},
    "integrator": {"dt": (float, 0.01), "horizon": (float, 60.0)},
    "inverse_optimal": {"k_max": (int, 8)},
    "orbital_params": {"p0": (float, OMIT), "mu": (float, OMIT)},
    "orbital_cost": {"Q0": (MATRIX, OMIT), "R_r": (float, OMIT), "R_theta": (float, OMIT),
                     "R_h": (float, OMIT), "rho1": (float, OMIT), "rho2": (float, OMIT)},
}
# the keys of a {start, stop, num} level grid, all required; num must be at least 1
LEVEL_GRID_KEYS = {"start": (LEVEL, None), "stop": (LEVEL, None), "num": (int, None)}


def _convert(value, kind, name):
    """One config entry checked against its kind; a number is converted to int or
    float, and booleans, strings and a fraction for an int are refused."""
    if kind in (int, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool) and \
                (kind is float or isinstance(value, int) or value.is_integer()):
            return kind(value)
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {json.dumps(value)}")
    if kind is LEVEL:
        if not (value := _convert(value, float, name)) > 0:
            raise ConfigError(f"{name} must be a positive level, got {json.dumps(value)}")
        return value
    if kind is MATRIX and isinstance(value, (bool, str)):
        raise ConfigError(f"{name} must be a matrix, got {json.dumps(value)}")
    if kind is BOX and not isinstance(value, (dict, type(None))):
        raise ConfigError(f"'{name}' must be an object with 'lows' and 'highs', got "
                          f"{json.dumps(value)}")
    if kind is STATES and not isinstance(value, (list, type(None))):
        raise ConfigError(f"'{name}' must be a list of states, got {json.dumps(value)}")
    if kind is GRID and isinstance(value, list):
        return [_convert(v, LEVEL, f"{name}[{i}]") for i, v in enumerate(value)]
    if kind is GRID and isinstance(value, dict):
        if missing := sorted(set(LEVEL_GRID_KEYS) - set(value)):
            raise ConfigError(f"{name} needs 'start', 'stop' and 'num'; missing {missing}")
        if (grid := _entries(value, LEVEL_GRID_KEYS, name))["num"] < 1:
            raise ConfigError(f"{name}.num must be at least 1, got {grid['num']}")
        return grid
    if kind is GRID and value is not None:
        raise ConfigError(f"'{name}' must be a list of levels or an object with "
                          f"'start', 'stop' and 'num', got {json.dumps(value)}")
    return value


def _entries(given, kinds, where):
    """The entries of one config object, each checked and converted to its kind."""
    if not isinstance(given, dict):
        raise ConfigError(f"'{where}' must be an object, got {json.dumps(given)}")
    unknown = sorted(set(given) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown keys {[f'{where}.{k}' for k in unknown]}; {where} "
                          f"takes {sorted(kinds)}")
    return {key: _convert(value, kinds[key][0], f"{where}.{key}")
            for key, value in given.items()}


def expand_level_grid(spec):
    """The levels of a level grid checked by load_config; None stays None."""
    if isinstance(spec, dict):
        return list(np.geomspace(spec["start"], spec["stop"], spec["num"]))
    return None if spec is None else list(spec)


def _parse(text, where):
    """json.loads(text); ConfigError naming where for invalid JSON and for NaN or
    ±Infinity, which Python's json reads but no run accepts."""
    def refuse(token):
        raise ConfigError(f"{where} holds the non-finite number {token}")
    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{where} is not valid JSON: {e}") from None


def read_json(path, label):
    """The JSON file at path, for a run config and for the files CLI flags name."""
    where = f"{label} {os.fspath(path)!r}"
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        reason = "file not found" if isinstance(e, FileNotFoundError) else e.strerror
        raise ConfigError(f"cannot read {where}: {reason}") from None
    return _parse(text, where)


def load_config(src):
    """Read, check, convert and default-fill a run config; env seed wins.

    The run kind's table (ORBITAL_RUN for system 'orbital', else PLANT_RUN)
    lists every entry the run reads. An unreadable path, an entry of the
    wrong JSON type or kind, a non-finite number, an entry the table does
    not list and a negative seed are ConfigErrors naming the entry.
    """
    if isinstance(src, (str, os.PathLike)):
        src = read_json(src, "config")
    elif not isinstance(src, dict):
        raise ConfigError("config must be a path or a dict")
    cfg = _parse(json.dumps(src), "config")
    if "system" not in cfg:
        raise ConfigError("config needs a 'system' entry")
    table = ORBITAL_RUN if cfg["system"] == "orbital" else PLANT_RUN
    unknown = sorted(set(cfg) - {"system", *table})
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; known keys are "
                          f"{sorted({'system', *table})}")
    name = cfg["system"] if isinstance(cfg["system"], str) else None
    problem = DEFAULT_PROBLEMS.get(name, {})
    for entry, spec in table.items():
        if isinstance(spec, dict):
            filled = {key: value for key, (_, value) in spec.items() if value is not OMIT}
            if entry in cfg or filled:
                cfg[entry] = {**filled, **_entries(cfg.get(entry, {}), spec, entry)}
        elif entry in cfg:
            cfg[entry] = _convert(cfg[entry], spec[0], entry)
        elif spec[1] is not OMIT:
            cfg[entry] = json.loads(json.dumps(problem.get(entry, spec[1])))
    env_seed = os.environ.get("CLFSYNTH_SEED")
    if env_seed is not None:
        try:
            cfg["sampling"]["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"CLFSYNTH_SEED must be an integer, got {env_seed!r}") from None
    if cfg["sampling"]["seed"] < 0:
        raise ConfigError(f"sampling.seed must be non-negative, got {cfg['sampling']['seed']}")
    return cfg


def config_hash(cfg):
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")).hexdigest()


def load_problem(cfg):
    """(system, Q, R, box, level grid) of a config filled by load_config.

    Missing weights default to identities. A box whose dimension is not
    the plant's state count is a ConfigError.
    """
    system = load_system(cfg["system"])
    if cfg["box"] is None or cfg["level_grid"] is None:
        raise ConfigError("non-registry systems need explicit 'box' and 'level_grid' "
                          "(--box and --levels on the command line)")
    box = Box.from_dict(cfg["box"])
    if box.dim != system.n:
        raise ConfigError(f"the box has {box.dim} coordinates but the system has "
                          f"{system.n} states")
    Q, R = cfg["prescription"]["Q"], cfg["prescription"]["R"]
    Q = np.eye(system.n) if Q is None else matrix_from_json(Q, "prescription.Q")
    R = np.eye(system.p) if R is None else matrix_from_json(R, "prescription.R")
    return system, Q, R, box, expand_level_grid(cfg["level_grid"])


def initial_states(cfg, n):
    """The config's initial states as (n,) arrays; ConfigError naming the first other row."""
    rows = cfg["initial_states"] or []
    for i, x0 in enumerate(rows):
        if not (isinstance(x0, list) and len(x0) == n and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in x0)):
            raise ConfigError(f"initial_states must be a list of states of {n} numbers "
                              f"each; initial_states[{i}] must have {n} entries, got "
                              f"{json.dumps(x0)}")
    return [np.asarray(x0, dtype=float) for x0 in rows]


def _non_increasing(vs):
    """No step of a V trace rises by more than 1e-9 of the level it leaves."""
    return not np.any(np.diff(vs) > 1e-9 * np.maximum(vs[:-1], 1e-300))


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
    est = evaluate_cost(synth.system, costrec.cost, costrec.law, x0,
                        horizon=horizon, dt=dt)
    v0 = synth.V.value(x0)
    return {
        "x0": [float(v) for v in x0],
        "J": est.value, "integral": est.integral, "tail": est.tail,
        "tail_kind": est.tail_kind, "value_at_x0": v0,
        "relative_gap": abs(est.value - v0) / v0 if v0 > 0 else 0.0,
    }


def plant_stage(cfg):
    """(sections, checks, traces) of a loaded plant run config.

    Synthesis, cost reconstruction, the cost of the reconstructed optimal
    feedback from each initial state, and the blended law's trajectory
    from each. traces maps a CSV file name to the function writing it.
    """
    system, Q, R, box, grid = load_problem(cfg)
    states = initial_states(cfg, system.n)
    synth = synthesize_problem(system, Q, R, box, grid, **cfg["sampling"])
    costrec = reconstruct_cost(synth.system, synth.V, Q, R, box, grid,
                               k_max=cfg["inverse_optimal"]["k_max"], **cfg["sampling"])

    dt, horizon = cfg["integrator"]["dt"], cfg["integrator"]["horizon"]
    checks = [
        _check("artstein_no_violations", synth.artstein.passed,
               value=len(synth.artstein.violations)),
        _check("decrease_no_violations", synth.decrease.passed,
               value=len(synth.decrease.violations)),
        _check("local_gain_matches", synth.gain_error <= 1e-9,
               value=synth.gain_error, threshold=1e-9),
        _check("state_weight_positive", costrec.q_min > 0.0, value=costrec.q_min),
    ]
    cost_results = [cost_versus_value(synth, costrec, x0, horizon, dt) for x0 in states]
    if cost_results:
        worst_rel = max(c["relative_gap"] for c in cost_results)
        checks.append(_check("cost_matches_value", worst_rel <= 1e-3,
                             value=worst_rel, threshold=1e-3))

    traces_ok = True
    traces = {}
    for i, x0 in enumerate(states):
        v0 = synth.V.value(x0)
        traj = integrate(synth.system, synth.law, x0, dt=dt, T=horizon,
                         stop=lambda x: synth.V.value(x) <= 1e-8 * v0,
                         annotate={"V": synth.V.value})
        traces_ok &= _non_increasing(traj.annotations["V"])
        traces[f"trace_{i:03d}.csv"] = traj.to_csv
    if states:
        checks.append(_check("trajectories_monotone", traces_ok))
    return ({"synthesis": synth.to_dict(), "inverse_optimal": costrec.to_dict(),
             "costs": cost_results}, checks, traces)


def orbital_stage(cfg):
    """(sections, checks, traces) of a loaded orbital run config.

    The layered design (build_orbital_controller; level_grid None uses the
    design's own grid), then one closed-loop transfer from the initial
    state, or from an offset of the target orbit when none is given. The
    final error divides the orbit-scale coordinate by its unit p0.
    """
    params = OrbitalParams(**cfg.get("orbital_params", {}))
    weights = dict(cfg.get("orbital_cost", {}))
    if weights.get("Q0") is not None:
        weights["Q0"] = matrix_from_json(weights["Q0"], "orbital_cost.Q0")
    cost_cfg = OrbitalCostConfig.build(params, **weights)
    states = initial_states(cfg, len(ORBITAL_STATE_NAMES))
    if len(states) > 1:
        raise ConfigError(f"an orbital run takes at most one initial state, got {len(states)}")
    V, _, law = build_orbital_controller(
        params, cost_cfg, level_grid=expand_level_grid(cfg["level_grid"]),
        k_max=cfg["inverse_optimal"]["k_max"], **cfg["sampling"])
    star = equilibrium(params)
    offset = np.array([0.1, 0.05, -0.05, 0.1 * params.p0, 0.05, -0.05])
    s0 = states[0] if states else star + offset
    traj = simulate_orbital(params, law, s0, dt=cfg["integrator"]["dt"],
                            T=cfg["integrator"]["horizon"], V=V)
    unit = np.array([1.0, 1.0, 1.0, params.p0, 1.0, 1.0])
    final_err = float(np.linalg.norm((traj.states[-1] - star) / unit))
    scaling = law.metadata["cost"].scaling
    eq_res = float(np.linalg.norm(orbital_drift(params, star)))
    vs = traj.annotations["V"]
    target_tol = cfg.get("target_tolerance", 1e-3)

    checks = [
        _check("equilibrium_residual", eq_res <= 1e-14, value=eq_res, threshold=1e-14),
        _check("value_monotone", _non_increasing(vs)),
        _check("converges_to_target", final_err <= target_tol, value=final_err,
               threshold=target_tol),
    ]
    write = partial(traj.to_csv, state_names=ORBITAL_STATE_NAMES,
                    input_names=ORBITAL_INPUT_NAMES)
    return {
        "params": params.to_dict(),
        "cost_config": cost_cfg.to_dict(),
        "design": {"r0": scaling.r0, "ladder": scaling.ladder},
        "simulation": {
            "final_error": final_err,
            "final_value": float(vs[-1]),
            "steps": len(traj) - 1,
        },
    }, checks, {"orbital_trace.csv": write}


def run(config, out_dir=None):
    """Execute a config end to end; returns the report dict.

    The run kind's stage (orbital_stage for system 'orbital', else
    plant_stage) gives the report's sections, checks and traces. When
    out_dir is given, the traces and report.json are written there. The
    report's status is "pass" only if every certificate and tolerance
    check passed.
    """
    cfg = load_config(config)
    stage = orbital_stage if cfg["system"] == "orbital" else plant_stage
    sections, checks, traces = stage(cfg)
    report = dict(sections, config=cfg, config_sha256=config_hash(cfg),
                  system=cfg["system"] if isinstance(cfg["system"], str) else "inline",
                  traces=[] if out_dir is None else list(traces), checks=checks,
                  status="pass" if all(c["passed"] for c in checks) else "fail")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for name, write in traces.items():
            write(os.path.join(out_dir, name))
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return report
