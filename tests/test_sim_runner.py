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
from test_clf import MONOMIAL, poly_cell

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
    """run() with the two expected sampling notices silenced.

    The cost scan queries the scaling beyond its top knot on any box that
    outgrows the certified levels, and coarse boxes can leave a top annulus
    unsampled; both are informational here.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*beyond the certified range.*")
        warnings.filterwarnings("ignore", message=".*defaults to 1.*")
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

    def test_on_step_sees_every_state(self):
        seen = []
        states = rk4_path(lambda x: -x, np.array([1.0]), 0.1, 7,
                          on_step=lambda x: seen.append(x.copy()))
        assert len(seen) == 7
        assert np.array_equal(np.array(seen), states[1:])


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
        law = FeedbackLaw("static", lambda x: np.array([-2.0 * x[0]]), 1, 1)
        traj = integrate(sys_, law, np.array([1.0]), dt=0.001, T=1.0)
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) <= 1e-8
        assert np.array_equal(traj.inputs[:, 0], -2.0 * traj.states[:, 0])

    def test_annotations_evaluated_along_path(self):
        sys_ = load_system("scalar_linear")
        law = FeedbackLaw("static", lambda x: np.array([-2.0 * x[0]]), 1, 1)
        traj = integrate(sys_, law, np.array([1.0]), dt=0.01, T=0.5,
                         annotate={"sq": lambda x: x[0] ** 2})
        assert np.allclose(traj.annotations["sq"], traj.states[:, 0] ** 2)

    def test_validates_steps(self):
        sys_ = load_system("scalar_linear")
        law = FeedbackLaw("static", lambda x: np.array([-2.0 * x[0]]), 1, 1)
        with pytest.raises(ValueError, match="dt and T must be positive"):
            integrate(sys_, law, np.array([1.0]), dt=0.0, T=1.0)


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

    def test_unknown_inverse_optimal_key_rejected(self):
        with pytest.raises(ConfigError, match="safety_factor"):
            load_config({"system": "scalar_linear",
                         "inverse_optimal": {"k_max": 2, "safety_factor": 1.5}})


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
                         "local_gain_matches", "hjb_residual_small",
                         "state_weight_positive", "cost_matches_value",
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
        r0 = rec.r0
        for v, la, lb in zip(check.values, check.la, check.lb):
            if v <= 1e-7 * r0:
                continue
            k = int(np.ceil(v / r0)) - 1  # annulus k holds k r0 < V <= (k + 1) r0
            if k > len(rec.ladder):
                continue
            ell = 1.0 if k == 0 else rec.ladder[k - 1]
            assert la - 0.25 * ell * lb[0] ** 2 < -strict_margin(la)


class TestRunOrbital:
    def test_quick_transfer(self, tmp_path):
        rep = quiet_run(QUICK_ORBITAL, out_dir=str(tmp_path))
        assert rep["status"] == "pass"
        names = [c["name"] for c in rep["checks"]]
        assert names == ["equilibrium_residual", "hjb4_residual_small",
                         "value_monotone", "converges_to_target"]
        res = {c["name"]: c for c in rep["checks"]}
        assert res["equilibrium_residual"]["value"] == 0.0
        assert res["converges_to_target"]["value"] <= 1e-3
        assert rep["design"]["r0"] > 0
        assert all(l >= 1.0 for l in rep["design"]["ladder"])
        header = open(os.path.join(str(tmp_path),
                                   "orbital_trace.csv")).readline().strip()
        assert header == "t,chi1,chi2,chi3,chi4,chi5,chi6,u_r,u_theta,u_h,V,Vdot"
