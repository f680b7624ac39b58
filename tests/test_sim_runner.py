"""Tests for the RK4 path tools, trajectory records, and the run driver.

Integrator oracles: x' = -x from 1 reaches exp(-1) (global error ~ dt^4,
so halving dt shrinks the error about 16x), and the planar rotation
x' = (x2, -x1) returns cos/sin exactly up to scheme error. The quick run
configs reuse the frozen pipeline facts: on the scalar linear problem the
blend radius is the largest grid level 4.0 and the prescribed gain is
reproduced exactly; the orbital run converges to the target orbit within
the configured tolerance.
"""

import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_clf import COEFF, MONOMIAL, poly_cell

from clfsynth import clf, inverse_opt, orbital, runner, structured, synthesis
from clfsynth.clf import lie_sweep, local_quadratic_clf, strict_margin
from clfsynth.errors import CertificateError, ConfigError, DivergenceError
from clfsynth.linear_core import LinearSystem, solve_care
from clfsynth.runner import config_hash, expand_level_grid, load_config, run
from clfsynth.sampling import Box, sample_box
from clfsynth.sim import Trajectory, integrate, rk4_path, rk4_step
from clfsynth.synthesis import FeedbackLaw
from clfsynth.systems import load_system

QUICK_SCALAR = {
    "system": "scalar_linear",
    "sampling": {"n_samples": 600},
    "integrator": {"dt": 0.01, "horizon": 20.0},
    "inverse_optimal": {"k_max": 2},
}
QUICK_ORBITAL = {
    "system": "orbital",
    "sampling": {"n_samples": 400},
    "integrator": {"dt": 0.02, "horizon": 40.0},
}


def quiet_run(cfg, out_dir=None):
    """run() with the expected sampling notice silenced.

    The cost scan queries the scaling beyond its top knot on any box that
    outgrows the certified levels; that is informational here.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*beyond the certified range.*")
        return run(cfg, out_dir=out_dir)


class TestRk4:
    def test_scalar_decay_accuracy(self):
        states = rk4_path(lambda x: -x, np.array([1.0]), 0.001, 1000)
        assert abs(states[-1, 0] - np.exp(-1.0)) <= 1e-12

    def test_fourth_order_convergence(self):
        e_coarse = abs(rk4_path(lambda x: -x, np.array([1.0]), 0.1, 10)[-1, 0]
                       - np.exp(-1.0))
        e_fine = abs(rk4_path(lambda x: -x, np.array([1.0]), 0.05, 20)[-1, 0]
                     - np.exp(-1.0))
        assert e_coarse / e_fine >= 8.0

    def test_rotation(self):
        states = rk4_path(lambda x: np.array([x[1], -x[0]]),
                          np.array([1.0, 0.0]), 0.01, 100)
        assert np.allclose(states[-1], [np.cos(1.0), -np.sin(1.0)], atol=1e-9)

    def test_single_step_matches_path(self):
        f = lambda x: np.array([x[1], -np.sin(x[0])])
        x0 = np.array([0.3, -0.1])
        assert np.array_equal(rk4_step(f, x0, 0.05),
                              rk4_path(f, x0, 0.05, 1)[-1])

    def test_blowup_raises_divergence(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="non-finite") as exc:
                rk4_path(lambda x: x ** 2, np.array([1.0]), 0.1, 200)
        assert np.all(np.isfinite(exc.value.last_state))
        assert 0.5 < exc.value.last_time < 2.0

    def test_stop_truncates_after_trigger(self):
        states = rk4_path(lambda x: -x, np.array([1.0]), 0.1, 100,
                          stop=lambda x: x[0] <= 0.5)
        assert states.shape[0] < 101
        assert states[-1, 0] <= 0.5
        assert np.all(states[:-1, 0] > 0.5)

    def test_stop_at_start(self):
        states = rk4_path(lambda x: -x, np.array([0.0]), 0.1, 100,
                          stop=lambda x: True)
        assert states.shape == (1, 1)


def fenced_plant():
    """x' = x + u, a field defined only on |x| <= 1."""
    def a(x):
        if np.any(np.abs(x[..., :1]) > 1.0):
            raise ValueError("state outside the fence")
        return x[..., :1]

    return clf.ControlAffineSystem(1, 1, a, lambda x: np.array([[1.0]]),
                                   linearization=([[1.0]], [[1.0]]))


class TestDomainBreach:
    """A field raising ValueError ends a run like a non-finite state does.

    The outward law u = x gives x' = 2x, which leaves |x| <= 1 from 0.5 at
    t = ln(2) / 2 ~ 0.35.
    """

    def outward(self):
        return FeedbackLaw("outward", lambda x: x[..., :1], 1, 1)

    def test_integrate_raises_divergence(self):
        with pytest.raises(DivergenceError, match="fence") as exc:
            integrate(fenced_plant(), self.outward(), np.array([0.5]), 0.01, 5.0)
        assert abs(exc.value.last_state[0]) <= 1.0
        assert 0.3 < exc.value.last_time < 0.36

    def test_evaluate_cost_raises_divergence(self):
        sys_ = fenced_plant()
        # 1 + sqrt(2) solves 2P - P^2 + 1 = 0, the Riccati equation of (1, 1, 1, 1)
        V = local_quadratic_clf(np.array([[1.0 + np.sqrt(2.0)]]))
        cost = inverse_opt.build_inverse_cost(V, sys_, np.eye(1), np.eye(1),
                                              inverse_opt.LevelScaling(10.0, []))
        with pytest.raises(DivergenceError, match="fence") as exc:
            inverse_opt.evaluate_cost(sys_, cost, self.outward(), np.array([0.5]),
                                      horizon=5.0, dt=0.01)
        # the plant state, without the running-cost coordinate
        assert exc.value.last_state.shape == (1,)
        assert abs(exc.value.last_state[0]) <= 1.0
        assert 0.3 < exc.value.last_time < 0.36


class TestTrajectory:
    def make(self):
        t = np.array([0.0, 0.1, 0.2])
        xs = np.array([[1.0], [0.9], [0.8]])
        us = np.array([[-1.0], [-0.9], [-0.8]])
        return t, xs, us

    def test_length_mismatch(self):
        t, xs, us = self.make()
        with pytest.raises(ValueError, match="equal length"):
            Trajectory(t, xs[:2], us)

    def test_times_must_increase(self):
        t, xs, us = self.make()
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(t[::-1], xs, us)

    def test_annotation_length(self):
        t, xs, us = self.make()
        with pytest.raises(ValueError, match="wrong length"):
            Trajectory(t, xs, us, {"V": [1.0, 0.9]})

    def test_finite_values(self):
        t, xs, us = self.make()
        xs[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Trajectory(t, xs, us)

    def test_len(self):
        t, xs, us = self.make()
        assert len(Trajectory(t, xs, us)) == 3

    def test_csv_round_trip(self, tmp_path):
        t, xs, us = self.make()
        traj = Trajectory(t, xs, us, {"V": [0.5, 0.41, 0.33]})
        path = tmp_path / "trace.csv"
        traj.to_csv(path, state_names=["pos"], input_names=["thrust"])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,pos,thrust,V"
        parsed = np.array([[float(v) for v in ln.split(",")]
                           for ln in lines[1:]])
        assert np.array_equal(parsed[:, 0], t)
        assert np.array_equal(parsed[:, 1], xs[:, 0])
        assert np.array_equal(parsed[:, 2], us[:, 0])
        assert np.array_equal(parsed[:, 3], traj.annotations["V"])


class TestIntegrate:
    def test_closed_loop_decay(self):
        sys_ = load_system("scalar_linear")
        law = FeedbackLaw("static", lambda x: -2.0 * x[..., :1], 1, 1)
        traj = integrate(sys_, law, np.array([1.0]), dt=0.001, T=1.0)
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) <= 1e-8
        assert np.array_equal(traj.inputs[:, 0], -2.0 * traj.states[:, 0])

    def test_annotations_evaluated_along_path(self):
        sys_ = load_system("scalar_linear")
        law = FeedbackLaw("static", lambda x: -2.0 * x[..., :1], 1, 1)
        traj = integrate(sys_, law, np.array([1.0]), dt=0.01, T=0.5,
                         annotate={"sq": lambda x: x[..., 0] ** 2})
        assert np.allclose(traj.annotations["sq"], traj.states[:, 0] ** 2)

    def test_validates_steps(self):
        sys_ = load_system("scalar_linear")
        law = FeedbackLaw("static", lambda x: -2.0 * x[..., :1], 1, 1)
        with pytest.raises(ValueError, match="dt and T must be positive"):
            integrate(sys_, law, np.array([1.0]), dt=0.0, T=1.0)


# a system of each run kind and its table; every section of either table
RUN_TABLES = {"scalar_linear": runner.PLANT_RUN, "orbital": runner.ORBITAL_RUN}
SECTIONS = {section: kinds for table in RUN_TABLES.values()
            for section, kinds in table.items() if isinstance(kinds, dict)}
SECTION_TABLE = [(section, key, kind) for section, kinds in SECTIONS.items()
                 for key, (kind, _) in kinds.items()]


def systems_reading(entry):
    """The systems of RUN_TABLES whose run kind takes entry."""
    return [system for system, table in RUN_TABLES.items() if entry in table]


class TestLoadConfig:
    def test_registry_defaults_filled(self):
        cfg = load_config({"system": "scalar_cubic"})
        assert cfg["sampling"] == {"seed": 0, "n_samples": 2000}
        assert cfg["integrator"] == {"dt": 0.005, "horizon": 40.0}
        assert cfg["inverse_optimal"] == {"k_max": 8}
        assert cfg["box"] == {"lows": [-1.5], "highs": [1.5]}
        assert cfg["initial_states"] == [[0.8], [-0.6], [0.3]]

    def test_file_source(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"system": "scalar_linear",
                                 "sampling": {"seed": 5}}))
        cfg = load_config(p)
        assert cfg["system"] == "scalar_linear"
        assert cfg["sampling"]["seed"] == 5

    def test_missing_system(self):
        with pytest.raises(ConfigError, match="'system'"):
            load_config({})

    def test_bad_source_type(self):
        with pytest.raises(ConfigError, match="path or a dict"):
            load_config(42)

    def test_env_seed_wins(self, monkeypatch):
        monkeypatch.setenv("CLFSYNTH_SEED", "42")
        cfg = load_config({"system": "scalar_linear", "sampling": {"seed": 7}})
        assert cfg["sampling"]["seed"] == 42

    def test_env_seed_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("CLFSYNTH_SEED", "abc")
        with pytest.raises(ConfigError, match="must be an integer"):
            load_config({"system": "scalar_linear"})

    @pytest.mark.parametrize("key", ["linear_core", "level_grids"])
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ConfigError, match=f"unknown config keys.*{key}"):
            load_config({"system": "orbital", key: {}})

    def test_unknown_inverse_optimal_key_rejected(self):
        with pytest.raises(ConfigError, match="safety_factor"):
            load_config({"system": "scalar_linear",
                         "inverse_optimal": {"k_max": 2, "safety_factor": 1.5}})

    @pytest.mark.parametrize("key", SECTIONS)
    @pytest.mark.parametrize("value", [[600], 600, None])
    def test_section_must_be_an_object(self, key, value):
        for system in systems_reading(key):
            with pytest.raises(ConfigError, match=f"'{key}' must be an object"):
                load_config({"system": system, key: value})

    @pytest.mark.parametrize("system, states", [
        ("scalar_linear", [[1.0, 2.0]]),
        ("scalar_linear", [[1.0], [0.5, 0.5]]),
        ("scalar_linear", [1.0]),
        ("scalar_linear", [["a"]]),
        ("orbital", [[0.0, 0.0, 0.0, 1.1, 0.0]]),
    ])
    def test_initial_states_must_have_the_plant_width(self, system, states):
        # rejected before any design work; a 2-entry state of the scalar
        # plant used to broadcast through x'Px and run
        with pytest.raises(ConfigError, match="initial_states must be a list of states"):
            run({"system": system, "initial_states": states})

    def test_missing_config_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "missing.json")

    def test_box_must_be_an_object(self):
        with pytest.raises(ConfigError, match="'box' must be an object"):
            runner.load_problem(load_config({"system": "scalar_linear",
                                             "box": [[-1.0], [1.0]]}))

    @pytest.mark.parametrize("grid", [5, "0.1,0.5"])
    def test_level_grid_must_be_a_list_or_an_object(self, grid):
        with pytest.raises(ConfigError, match="'level_grid' must be a list"):
            runner.load_problem(load_config({"system": "scalar_linear",
                                             "level_grid": grid}))

    @pytest.mark.parametrize("system", ["scalar_linear", "orbital"])
    @pytest.mark.parametrize("count", [0, -3])
    def test_sample_count_must_be_positive(self, system, count):
        with pytest.raises(ValueError, match=f"sample count must be positive, got {count}"):
            run({"system": system, "sampling": {"n_samples": count}})

    def test_box_must_have_the_plant_width(self):
        cfg = load_config({"system": "strict_feedback_demo",
                           "box": {"lows": [-1.0], "highs": [1.0]}})
        with pytest.raises(ConfigError, match="box has 1 coordinates but the system has 2"):
            runner.load_problem(cfg)

    @pytest.mark.parametrize("section, key, kind", SECTION_TABLE,
                             ids=[f"{s}.{k}" for s, k, _ in SECTION_TABLE])
    def test_every_section_key_is_checked(self, section, key, kind):
        valid = {int: 1, float: 1.0, runner.MATRIX: None}[kind]
        for system in systems_reading(section):
            with pytest.raises(ConfigError, match=rf"{section}\.bogus.*'{key}'"):
                load_config({"system": system, section: {key: valid, "bogus": 1}})
            for bad in ["x", True] + ([200.7] if kind is int else []):
                with pytest.raises(ConfigError, match=rf"{section}\.{key} must be"):
                    load_config({"system": system, section: {key: bad}})

    @pytest.mark.parametrize("entry, name", [
        ({"level_grid": [0.1, "0.5"]}, r"level_grid\[1\]"),
        ({"level_grid": {"start": 0.1, "stop": True, "num": 5}}, r"level_grid\.stop"),
        ({"level_grid": {"start": 0.1, "stop": 1.0, "num": 5.5}}, r"level_grid\.num"),
        ({"level_grid": {"start": 0.1, "stop": 1.0, "num": 5, "base": 2}},
         r"level_grid\.base"),
        ({"target_tolerance": None}, "target_tolerance"),
        ({"sampling": {"seed": -1}}, r"sampling\.seed must be non-negative"),
        ({"level_grid": [0.1, 0.0, 1.0]}, r"level_grid\[1\] must be a positive level"),
        ({"level_grid": [-0.5, 1.0]}, r"level_grid\[0\] must be a positive level"),
        ({"level_grid": {"start": 0, "stop": 1.0, "num": 5}},
         r"level_grid\.start must be a positive level"),
        ({"level_grid": {"start": 0.1, "stop": -1.0, "num": 5}},
         r"level_grid\.stop must be a positive level"),
        ({"level_grid": {"start": 0.1, "stop": 1.0, "num": 0}},
         r"level_grid\.num must be at least 1"),
        ({"level_grid": {"start": 0.1, "stop": 1.0, "num": -3}},
         r"level_grid\.num must be at least 1"),
        ({"sampling": {"n_samples": 300}, "level_grid": []},
         r"level_grid must hold at least one level"),
    ])
    def test_grid_tolerance_and_seed_are_checked(self, entry, name):
        # only an orbital run reads target_tolerance
        system = "orbital" if "target_tolerance" in entry else "scalar_linear"
        with pytest.raises(ConfigError, match=name):
            load_config({"system": system, **entry})

    def test_numbers_are_converted_once(self):
        cfg = load_config({"system": "scalar_linear", "sampling": {"n_samples": 600.0},
                           "integrator": {"horizon": 20}, "level_grid": [1, 2]})
        assert type(cfg["sampling"]["n_samples"]) is int
        assert type(cfg["integrator"]["horizon"]) is float
        assert all(type(v) is float for v in cfg["level_grid"])
        assert load_config(cfg) == cfg
        cfg = load_config({"system": "orbital", "target_tolerance": 1})
        assert type(cfg["target_tolerance"]) is float
        assert load_config(cfg) == cfg

    def test_orbital_registry_defaults(self):
        cfg = load_config({"system": "orbital", "sampling": {"seed": 3}})
        assert cfg["sampling"] == {"seed": 3, "n_samples": 1500}
        assert cfg["integrator"] == {"dt": 0.01, "horizon": 60.0}
        # p0, mu and the cost weights keep their one owner: OrbitalParams and
        # OrbitalCostConfig.build
        assert "orbital_params" not in cfg and "orbital_cost" not in cfg


class TestRunKindTables:
    """A run accepts only the entries its kind reads, and only finite numbers."""

    @pytest.mark.parametrize("system, entry", [
        ("scalar_linear", {"orbital_params": {"p0": 2.0}}),
        ("scalar_linear", {"orbital_cost": {"rho1": 3.0}}),
        ("scalar_linear", {"target_tolerance": 1e-12}),
        ("orbital", {"prescription": {"Q": [[5.0]]}}),
        ("orbital", {"box": {"lows": [-1.0] * 6, "highs": [1.0] * 6}}),
    ])
    def test_entry_of_the_other_run_kind_is_refused(self, system, entry):
        (name,) = entry
        with pytest.raises(ConfigError, match=f"unknown config keys \\['{name}'\\]"):
            load_config({"system": system, "sampling": {"n_samples": 300}, **entry})

    def test_orbital_run_takes_at_most_one_initial_state(self):
        s0 = [0.1, 0.05, -0.05, 1.1, 0.05, -0.05]
        with pytest.raises(ConfigError, match="at most one initial state, got 2"):
            run(dict(QUICK_ORBITAL, initial_states=[s0, s0]))

    def test_orbital_config_holds_only_orbital_entries(self):
        cfg = load_config({"system": "orbital"})
        assert sorted(cfg) == ["initial_states", "integrator", "inverse_optimal",
                               "level_grid", "sampling", "system"]

    @pytest.mark.parametrize("value, token", [(float("nan"), "NaN"),
                                              (float("inf"), "Infinity"),
                                              (-float("inf"), "-Infinity")])
    @pytest.mark.parametrize("entry", ["level_grid", "box", "initial_states"])
    def test_non_finite_number_is_refused(self, entry, value, token):
        cfg = {"system": "scalar_linear", "sampling": {"n_samples": 300}, entry: {
            "level_grid": [0.1, value, 1.0], "box": {"lows": [value], "highs": [2.0]},
            "initial_states": [[value]]}[entry]}
        with pytest.raises(ConfigError, match=f"non-finite number {token}$"):
            load_config(cfg)

    def test_non_finite_number_in_a_file_is_refused(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"system": "scalar_linear", "level_grid": [0.1, NaN, 1.0]}')
        with pytest.raises(ConfigError, match="cfg.json' holds the non-finite number NaN"):
            load_config(path)

    def test_invalid_json_file_is_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{{{")
        with pytest.raises(ConfigError, match="config '.*bad.json' is not valid JSON"):
            load_config(path)


class TestConfigHash:
    def test_key_order_invariant(self):
        a = {"system": "scalar_linear", "sampling": {"seed": 0}}
        b = {"sampling": {"seed": 0}, "system": "scalar_linear"}
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_values(self):
        a = {"system": "scalar_linear", "sampling": {"seed": 0}}
        b = {"system": "scalar_linear", "sampling": {"seed": 1}}
        assert config_hash(a) != config_hash(b)


class TestExpandLevelGrid:
    def test_geomspace_form(self):
        grid = expand_level_grid({"start": 0.1, "stop": 10.0, "num": 5})
        assert len(grid) == 5
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(10.0)

    def test_list_form(self):
        assert expand_level_grid([1, 2.5]) == [1.0, 2.5]


@pytest.fixture(scope="module")
def scalar_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("scalar_run")
    return quiet_run(QUICK_SCALAR, out_dir=str(out)), out


class TestRunScalar:
    def test_status_and_checks(self, scalar_report):
        rep, _ = scalar_report
        assert rep["status"] == "pass"
        names = {c["name"] for c in rep["checks"]}
        assert names == {"artstein_no_violations", "decrease_no_violations",
                         "local_gain_matches", "state_weight_positive", "cost_matches_value",
                         "trajectories_monotone"}
        assert all(c["passed"] for c in rep["checks"])

    def test_frozen_pipeline_facts(self, scalar_report):
        rep, _ = scalar_report
        assert rep["synthesis"]["r0"] == 4.0
        assert rep["synthesis"]["gain_error"] == 0.0
        assert all(c["relative_gap"] <= 1e-6 for c in rep["costs"])
        assert all(c["tail_kind"] == "value_tail" for c in rep["costs"])

    def test_hash_matches_loaded_config(self, scalar_report):
        rep, _ = scalar_report
        assert rep["config_sha256"] == config_hash(rep["config"])

    def test_artifacts_written(self, scalar_report):
        rep, out = scalar_report
        with open(os.path.join(str(out), "report.json")) as fh:
            on_disk = json.load(fh)
        assert json.dumps(on_disk, sort_keys=True) == json.dumps(rep, sort_keys=True)
        assert rep["traces"] == ["trace_000.csv", "trace_001.csv", "trace_002.csv"]
        header = open(os.path.join(str(out), "trace_000.csv")).readline().strip()
        assert header == "t,x1,u1,V"

    def test_byte_reproducible(self, scalar_report, tmp_path):
        rep, _ = scalar_report
        again = quiet_run(QUICK_SCALAR, out_dir=str(tmp_path))
        assert json.dumps(again, sort_keys=True) == json.dumps(rep, sort_keys=True)

    def test_unknown_system(self):
        with pytest.raises(ConfigError, match="unknown system"):
            run({"system": "not_a_system"})

    def test_inline_system_needs_box(self):
        spec = {"n": 1, "p": 1,
                "drift": [[{"coeff": 1.0, "exponents": [1]}]],
                "input": [[[{"coeff": 1.0, "exponents": [0]}]]]}
        with pytest.raises(ConfigError, match="explicit 'box'"):
            run({"system": spec})

    def test_base_level_steps_down_when_fresh_samples_reject_it(self):
        # x1' = x2, x2' = -x1 + x1^2 + u: at seed 1 the scanned base level
        # 0.9284 fails the fresh-sample base check (at V = 0.9135), so the
        # cost is built one grid level lower
        spec = {"n": 2, "p": 1,
                "drift": [[{"coeff": 1.0, "exponents": [0, 1]}],
                          [{"coeff": -1.0, "exponents": [1, 0]},
                           {"coeff": 1.0, "exponents": [2, 0]}]],
                "input": [[[]], [[{"coeff": 1.0, "exponents": [0, 0]}]]]}
        grid = {"start": 0.02, "stop": 1.5, "num": 28}
        rep = quiet_run({"system": spec, "box": {"lows": [-1, -1], "highs": [1, 1]},
                         "level_grid": grid, "initial_states": [],
                         "sampling": {"seed": 1, "n_samples": 1000}})
        levels = expand_level_grid(grid)
        assert rep["status"] == "pass"
        assert levels[-4] == pytest.approx(0.9284, abs=1e-4)
        assert rep["inverse_optimal"]["r0"] == levels[-5]


def record_calls(monkeypatch, owner, name):
    """(args, result) of every call of owner.name through any module binding it."""
    real = getattr(owner, name)
    calls = []

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, out))
        return out

    for module in (clf, synthesis, inverse_opt, structured, orbital, runner):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, recording)
    return calls


def synthesize_with_one_sweep(monkeypatch, name):
    """synthesize_problem on a registry problem, asserting that the Artstein
    test, the blend radius scan and the decrease check read one sweep."""
    sweeps = record_calls(monkeypatch, clf, "lie_sweep")
    readers = [record_calls(monkeypatch, clf, "check_artstein_sampled"),
               record_calls(monkeypatch, clf, "find_r0"),
               record_calls(monkeypatch, synthesis, "verify_decrease")]
    box = Box.from_dict(runner.DEFAULT_PROBLEMS[name]["box"])
    rec = runner.synthesize_problem(load_system(name), np.eye(box.dim), np.eye(1), box,
                                    expand_level_grid([0.05, 0.2, 0.8]), n_samples=300)
    assert len(sweeps) == 1
    sweep = sweeps[0][1]
    assert np.array_equal(sweep.points, sample_box(box, 300, seed=0))
    for calls in readers:
        assert len(calls) == 1 and calls[0][0][0] is sweep
    assert rec.artstein is readers[0][0][1]
    return rec


class TestSynthesizeCascade:
    def test_artstein_sweep_runs_once(self, monkeypatch):
        rec = synthesize_with_one_sweep(monkeypatch, "strict_feedback_demo")
        assert rec.artstein.passed

    @pytest.mark.parametrize("name", ["strict_feedback_demo", "orbital_reduced"])
    def test_candidate_is_the_riccati_quadratic_form(self, name):
        problem = runner.DEFAULT_PROBLEMS[name]
        box = Box.from_dict(problem["box"])
        rec = runner.synthesize_problem(load_system(name), np.eye(box.dim), np.eye(1), box,
                                        expand_level_grid(problem["level_grid"]),
                                        n_samples=200)
        quad = local_quadratic_clf(rec.care.P)
        for x in sample_box(box, 200, seed=0):
            assert rec.V.value(x) == quad.value(x)
            assert np.array_equal(rec.V.gradient(x), quad.gradient(x))
        assert rec.law.metadata["partition"] == \
            structured.backstepping_partition(rec.care.P).to_dict()


# On these boxes a sampled "boundary minimum above the quarter-box maximum"
# test rejects x'Px, which is positive and proper on all of R^n
ELONGATED_BOXES = {
    "strict_feedback_demo": ({"lows": [-0.2, -1.5], "highs": [0.2, 1.5]},
                             [[0.15, -1.0], [-0.1, 0.8]]),
    "orbital_reduced": ({"lows": [-0.05, -0.5], "highs": [0.05, 0.5]},
                        [[0.04, -0.3], [-0.03, 0.4]]),
}


@pytest.mark.parametrize("name", sorted(ELONGATED_BOXES))
def test_elongated_box_designs_pass_every_check(name):
    box, states = ELONGATED_BOXES[name]
    rep = quiet_run({"system": name, "box": box, "initial_states": states,
                     "sampling": {"n_samples": 500}})
    assert [c["name"] for c in rep["checks"] if c["passed"]] == [
        "artstein_no_violations", "decrease_no_violations", "local_gain_matches",
        "state_weight_positive", "cost_matches_value", "trajectories_monotone"]
    assert rep["status"] == "pass"


FEEDFORWARD_CFG = {
    # y' = x, x' = x^2 + u
    "system": {"structure": "feedforward", "n_x": 1, "p": 1,
               "h": [{"coeff": 1.0, "exponents": [1]}],
               "f": [[{"coeff": 1.0, "exponents": [2]}]],
               "g": [[[{"coeff": 1.0, "exponents": [0]}]]]},
    "box": {"lows": [-1.0, -1.0], "highs": [1.0, 1.0]},
    "level_grid": {"start": 0.02, "stop": 1.5, "num": 28},
}


@pytest.mark.parametrize("cfg", [{"system": "strict_feedback_demo"}, FEEDFORWARD_CFG],
                         ids=["cascade", "feedforward"])
def test_structured_designs_sweep_the_structured_object_itself(monkeypatch, cfg):
    sweeps = record_calls(monkeypatch, clf, "lie_sweep")
    system, Q, R, box, grid = runner.load_problem(load_config(cfg))
    assert isinstance(system, (structured.StrictFeedbackSystem,
                               structured.FeedforwardSystem))
    synth = runner.synthesize_problem(system, Q, R, box, grid, n_samples=300)
    assert synth.full is synth.system is system
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runner.reconstruct_cost(synth.full, synth.V, Q, R, box, grid, k_max=2,
                                n_samples=300)
    assert len(sweeps) == 4
    assert all(args[1] is system for args, _ in sweeps)


class TestSynthesizePlain:
    def test_one_sweep_serves_every_sampled_check(self, monkeypatch):
        rec = synthesize_with_one_sweep(monkeypatch, "scalar_cubic")
        assert rec.artstein.passed and rec.decrease.passed


NONLINEAR = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: 2 <= sum(e) <= 3)
# x1' = x2 + (degree 2-3 terms), x2' = (degree 1-3 terms) + (1 + degree 1-3 terms) u:
# a controllable linearization under random polynomial couplings
CONTROLLABLE_PLANTS = st.fixed_dictionaries({
    "n": st.just(2), "p": st.just(1),
    "drift": st.tuples(poly_cell(NONLINEAR), poly_cell(MONOMIAL)).map(
        lambda cells: [[{"coeff": 1.0, "exponents": [0, 1]}] + cells[0], cells[1]]),
    "input": poly_cell(MONOMIAL).map(
        lambda cell: [[[]], [[{"coeff": 1.0, "exponents": [0, 0]}] + cell]]),
})


class TestReconstructCost:
    def test_sweeps_the_box_three_times(self, monkeypatch):
        # the fit, check and HJB sweeps of 500 rows each, plus the few
        # origin evaluations of the cost's own validation
        problem = runner.DEFAULT_PROBLEMS["scalar_cubic"]
        box = Box.from_dict(problem["box"])
        grid = expand_level_grid(problem["level_grid"])
        synth = runner.synthesize_problem(load_system("scalar_cubic"), np.eye(1), np.eye(1),
                                          box, grid, n_samples=500, seed=0)
        counts = {"a": 0, "value": 0}
        for owner, name in ((clf.ControlAffineSystem, "a"), (clf.Clf, "value")):
            def counting(self, x, real=getattr(owner, name), name=name):
                counts[name] += 1
                return real(self, x)
            monkeypatch.setattr(owner, name, counting)
        with warnings.catch_warnings():
            # the box reaches above the certified levels (see quiet_run)
            warnings.filterwarnings("ignore", message=".*beyond the certified range.*")
            runner.reconstruct_cost(synth.full, synth.V, np.eye(1), np.eye(1), box, grid,
                                    k_max=4, n_samples=500, seed=0)
        assert counts["a"] <= 3 * 500 + 10
        assert counts["value"] <= 3 * 500 + 10

    def test_state_weights_are_cost_q_row_by_row(self):
        problem = runner.DEFAULT_PROBLEMS["strict_feedback_demo"]
        box = Box.from_dict(problem["box"])
        grid = expand_level_grid(problem["level_grid"])
        synth = runner.synthesize_problem(load_system("strict_feedback_demo"), np.eye(2),
                                          np.eye(1), box, grid, n_samples=500, seed=0)
        rec = runner.reconstruct_cost(synth.full, synth.V, np.eye(2), np.eye(1), box, grid,
                                      k_max=4, n_samples=500, seed=0)
        sweep = lie_sweep(synth.V, synth.full, sample_box(box, 200, seed=5))
        sweep = sweep.rows(sweep.values <= rec.cost.scaling.certified_top)
        q = inverse_opt.state_weights(sweep, rec.cost)
        assert len(q) > 100
        assert np.array_equal(q, [rec.cost.q(x) for x in sweep.points])

    @settings(max_examples=20, deadline=None)
    @given(spec=CONTROLLABLE_PLANTS, seed=st.integers(0, 2 ** 16))
    def test_returned_ladder_holds_on_every_check_row(self, spec, seed):
        box = Box.centered([1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            full = load_system(spec)
            lin = full.linearization
            V = local_quadratic_clf(
                solve_care(LinearSystem(lin.A, lin.B), np.eye(2), np.eye(1)).P)
            try:
                rec = runner.reconstruct_cost(
                    full, V, np.eye(2), np.eye(1), box,
                    expand_level_grid({"start": 0.01, "stop": 1.0, "num": 16}),
                    k_max=3, n_samples=300, seed=seed)
            except CertificateError:
                return  # refused: nothing uncertified was returned
        check = lie_sweep(V, full, sample_box(box, 300, seed=seed + 1))
        r0, ladder = rec.r0, rec.cost.scaling.ladder
        for v, la, lb in zip(check.values, check.la, check.lb):
            if v <= 1e-7 * r0:
                continue
            k = int(np.ceil(v / r0)) - 1  # annulus k holds k r0 < V <= (k + 1) r0
            if k > len(ladder):
                continue
            ell = 1.0 if k == 0 else ladder[k - 1]
            assert la - 0.25 * ell * lb[0] ** 2 < -strict_margin(la)


# x' = c1 x + c2 x^2 + c3 x^3 + g u, with |g| >= 0.25 so the plant stays
# stabilizable at the origin
SCALAR_PLANTS = st.tuples(st.lists(COEFF, min_size=3, max_size=3), st.floats(0.25, 2.0),
                          st.booleans()).map(lambda d: {
    "n": 1, "p": 1,
    "drift": [[{"coeff": c, "exponents": [k]} for k, c in enumerate(d[0], start=1)]],
    "input": [[[{"coeff": -d[1] if d[2] else d[1], "exponents": [0]}]]]})


class TestRandomPlants:
    # 15 draws per family, 30 in all
    @pytest.mark.parametrize("plants", [SCALAR_PLANTS, CONTROLLABLE_PLANTS],
                             ids=["scalar", "planar"])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data(), seed=st.integers(0, 2 ** 16))
    def test_design_and_cost_fail_only_with_typed_errors(self, plants, data, seed):
        """The whole pipeline returns, or refuses with a typed error."""
        spec = data.draw(plants)
        n = spec["n"]
        box = Box.centered([1.0] * n)
        grid = expand_level_grid({"start": 0.01, "stop": 1.0, "num": 16})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                synth = runner.synthesize_problem(load_system(spec), np.eye(n), np.eye(1),
                                                  box, grid, n_samples=300, seed=seed)
                runner.reconstruct_cost(synth.full, synth.V, np.eye(n), np.eye(1), box,
                                        grid, k_max=3, n_samples=300, seed=seed)
            except (ConfigError, CertificateError, DivergenceError):
                pass


class TestRunOrbital:
    def test_quick_transfer(self, tmp_path):
        rep = quiet_run(QUICK_ORBITAL, out_dir=str(tmp_path))
        assert rep["status"] == "pass"
        names = [c["name"] for c in rep["checks"]]
        assert names == ["equilibrium_residual", "value_monotone", "converges_to_target"]
        res = {c["name"]: c for c in rep["checks"]}
        assert res["equilibrium_residual"]["value"] == 0.0
        assert res["converges_to_target"]["value"] <= 1e-3
        assert rep["design"]["r0"] > 0
        assert all(l >= 1.0 for l in rep["design"]["ladder"])
        header = open(os.path.join(str(tmp_path),
                                   "orbital_trace.csv")).readline().strip()
        assert header == "t,chi1,chi2,chi3,chi4,chi5,chi6,u_r,u_theta,u_h,V,Vdot"

    def test_reads_level_grid_and_k_max(self):
        levels = [0.02, 0.05, 0.1, 0.2]
        rep = quiet_run(dict(QUICK_ORBITAL, level_grid=levels, inverse_optimal={"k_max": 3},
                             integrator={"dt": 0.02, "horizon": 0.2}))
        assert rep["design"]["r0"] in levels
        assert len(rep["design"]["ladder"]) == 3
