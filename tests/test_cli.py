"""Command line coverage: one test per subcommand plus the exit-code
contract (0 ok, 2 bad input, 3 failed certificate, 4 divergence).

All tests drive main(argv) in process and read stdout/stderr through
capsys; a single subprocess test checks the module entry point end to end.
"""

import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from clfsynth.cli import main
from clfsynth.runner import run

S3 = np.sqrt(3.0)
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

pytestmark = [
    pytest.mark.filterwarnings("ignore:scaling queried"),
]


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCare:
    def test_double_integrator(self, tmp_path, capsys):
        a = write_json(tmp_path / "A.json", [[0.0, 1.0], [0.0, 0.0]])
        b = write_json(tmp_path / "B.json", [[0.0], [1.0]])
        code, out, _ = run_cli(capsys, "care", "--A", a, "--B", b)
        assert code == 0
        res = json.loads(out)
        assert (res["P"]["rows"], res["P"]["cols"]) == (2, 2)
        assert np.allclose(res["P"]["data"], [S3, 1.0, 1.0, S3], atol=1e-9)
        assert np.allclose(res["K"]["data"], [-1.0, -S3], atol=1e-9)
        assert res["residual_norm"] <= 1e-8
        assert res["closed_loop_spectral_abscissa"] < 0

    def test_out_file(self, tmp_path, capsys):
        a = write_json(tmp_path / "A.json", [[-1.0]])
        b = write_json(tmp_path / "B.json", [[1.0]])
        dest = tmp_path / "res.json"
        code, out, _ = run_cli(capsys, "care", "--A", a, "--B", b,
                               "--out", str(dest))
        assert code == 0
        assert out == ""
        assert "P" in json.loads(dest.read_text())

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "A.json"
        bad.write_text("{not json")
        b = write_json(tmp_path / "B.json", [[1.0]])
        code, _, err = run_cli(capsys, "care", "--A", str(bad), "--B", b)
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("flag", ["--seed", "--samples"])
    def test_sampling_flags_are_refused(self, tmp_path, capsys, flag):
        a = write_json(tmp_path / "A.json", [[-1.0]])
        b = write_json(tmp_path / "B.json", [[1.0]])
        with pytest.raises(SystemExit) as exc:
            main(["care", "--A", a, "--B", b, flag, "3"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        b = write_json(tmp_path / "B.json", [[1.0]])
        code, _, err = run_cli(capsys, "care", "--A",
                               str(tmp_path / "nope.json"), "--B", b)
        assert code == 2
        assert "file not found" in err


class TestSynth:
    def test_scalar_linear(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "scalar_linear",
                               "--samples", "400")
        assert code == 0
        res = json.loads(out)
        assert res["kind"] == "blended"
        assert res["r0"] == 4.0
        assert res["gain_error"] == 0.0
        assert res["artstein"]["passed"] is True
        assert res["decrease"]["passed"] is True

    def test_feedforward_spec(self, tmp_path, capsys):
        # y' = x, x' = x^2 + u
        spec = write_json(tmp_path / "ff.json", {
            "structure": "feedforward", "n_x": 1, "p": 1,
            "h": [{"coeff": 1.0, "exponents": [1]}],
            "f": [[{"coeff": 1.0, "exponents": [2]}]],
            "g": [[[{"coeff": 1.0, "exponents": [0]}]]]})
        box = write_json(tmp_path / "box.json", {"lows": [-1, -1], "highs": [1, 1]})
        levels = ",".join(repr(float(v)) for v in np.geomspace(0.02, 1.5, 28))
        code, out, _ = run_cli(capsys, "synth", spec, "--box", box,
                               "--levels", levels, "--samples", "1000")
        assert code == 0
        res = json.loads(out)
        assert res["r0"] == 1.5
        assert res["gain_error"] == 0.0
        assert res["artstein"]["passed"] is True
        assert res["decrease"]["passed"] is True

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_sample_count_exits_2(self, capsys, count):
        code, _, err = run_cli(capsys, "synth", "scalar_linear", "--samples", count)
        assert code == 2
        assert err.startswith("error:") and f"sample count must be positive, got {count}" in err

    def test_non_numeric_levels_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "synth", "scalar_linear", "--levels", "a,b")
        assert code == 2
        assert err.startswith("error:") and "--levels" in err

    def test_env_seed_wins_over_seed_flag(self, capsys, monkeypatch):
        flags = ("synth", "strict_feedback_demo", "--samples", "300")
        seeded = run_cli(capsys, *flags, "--seed", "5")
        monkeypatch.setenv("CLFSYNTH_SEED", "5")
        assert run_cli(capsys, *flags) == seeded
        assert run_cli(capsys, *flags, "--seed", "0") == seeded
        monkeypatch.delenv("CLFSYNTH_SEED")
        assert run_cli(capsys, *flags)[1] != seeded[1]

    def test_unknown_system_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "synth", "no_such_system")
        assert code == 2
        assert "unknown system" in err

    def test_box_without_highs_exits_2(self, tmp_path, capsys):
        box = write_json(tmp_path / "box.json", {"lows": [-1]})
        code, _, err = run_cli(capsys, "synth", "scalar_cubic", "--box", box)
        assert code == 2
        assert err.startswith("error:") and "'highs'" in err

    def test_box_of_wrong_dimension_exits_2(self, tmp_path, capsys):
        box = write_json(tmp_path / "box.json", {"lows": [-1, -1], "highs": [1, 1]})
        code, _, err = run_cli(capsys, "synth", "scalar_cubic", "--box", box)
        assert code == 2
        assert err.startswith("error:") and "2 coordinates" in err

    def test_structured_spec_without_n_y_exits_2(self, tmp_path, capsys):
        spec = write_json(tmp_path / "sf.json", {
            "structure": "strict_feedback",
            "h1": [[{"coeff": 1.0, "exponents": [1]}]],
            "h2": [[{"coeff": 1.0, "exponents": [0]}]],
            "f": [], "g": [{"coeff": 1.0, "exponents": [0, 0]}]})
        code, _, err = run_cli(capsys, "synth", spec, "--levels", "0.1,0.5")
        assert code == 2
        assert err.startswith("error:") and "'n_y'" in err


class TestInvopt:
    def test_build_scalar_cubic(self, capsys):
        code, out, _ = run_cli(capsys, "invopt", "build", "scalar_cubic",
                               "--samples", "400")
        assert code == 0
        res = json.loads(out)
        assert set(res) == {"r0", "ladder", "scaling", "q_min_off_origin", "checked"}
        assert res["q_min_off_origin"] > 0
        assert all(l >= 1.0 for l in res["ladder"])
        assert res["scaling"]["r0"] == res["r0"]

    def test_verify_hjb_is_refused_exits_2(self, capsys):
        # q is derived from r, so a stationarity residual can only measure
        # rounding; the action and its --tol flag are gone
        with pytest.raises(SystemExit) as exc:
            main(["invopt", "verify-hjb", "scalar_cubic", "--samples", "400"])
        assert exc.value.code == 2
        assert "invalid choice: 'verify-hjb'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["invopt", "build", "scalar_cubic", "--tol", "1e-10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_cost_matches_value(self, capsys):
        code, out, _ = run_cli(capsys, "invopt", "cost", "scalar_linear",
                               "--samples", "400", "--x0", "1.0",
                               "--dt", "0.01", "--T", "20.0")
        assert code == 0
        res = json.loads(out)
        assert res["tail_kind"] == "value_tail"
        assert res["relative_gap"] <= 1e-6

    def test_bad_x0_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "invopt", "cost", "scalar_linear",
                               "--samples", "400", "--x0", "a,b")
        assert code == 2
        assert "comma-separated numbers" in err

    def test_wrong_x0_length_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "invopt", "cost", "scalar_linear",
                               "--samples", "400", "--x0", "1.0,2.0")
        assert code == 2
        assert "must have 1 entries" in err


    def test_cost_without_x0_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "invopt", "cost", "scalar_linear",
                               "--samples", "400")
        assert code == 2
        assert err.startswith("error:") and "--x0" in err

    @pytest.mark.parametrize("flags", [("--dt", "0"), ("--dt", "-0.01"), ("--T", "0")])
    def test_nonpositive_step_or_horizon_exits_2(self, capsys, flags):
        code, _, err = run_cli(capsys, "invopt", "cost", "scalar_linear",
                               "--samples", "400", "--x0", "1.0", *flags)
        assert code == 2
        assert err.startswith("error:") and "dt and T must be positive" in err


class TestBackstep:
    def test_cascade_demo(self, capsys):
        code, out, _ = run_cli(capsys, "backstep", "strict_feedback_demo",
                               "--samples", "400")
        assert code == 0
        res = json.loads(out)
        assert res["gain_error"] <= 1e-9
        assert "P_y" in res["partition"]
        assert res["r0"] > 0

    def test_same_problem_as_synth(self, capsys):
        flags = ("strict_feedback_demo", "--samples", "400", "--levels",
                 "0.05,0.1,0.2,0.4,0.8")
        code, out, _ = run_cli(capsys, "backstep", *flags)
        assert code == 0
        back = json.loads(out)
        code, out, _ = run_cli(capsys, "synth", *flags)
        assert code == 0
        synth = json.loads(out)
        for key in ("K_o", "r0", "local_gain", "gain_error"):
            assert back[key] == synth[key]
        assert np.array_equal(np.reshape(back["P"]["data"], (2, 2)),
                              synth["care"]["P"])

    def test_wrong_structure_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "backstep", "scalar_linear")
        assert code == 2
        assert "strict-feedback" in err


class TestOrbital:
    def test_transfer_with_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "orbital", "--samples", "400",
                               "--dt", "0.02", "--T", "40.0",
                               "--trace", str(trace))
        assert code == 0
        res = json.loads(out)
        assert res["final_error"] <= 1e-3
        assert res["steps"] == 2000
        header = trace.read_text().split("\n", 1)[0]
        assert header.startswith("t,chi1,chi2")

    def test_final_error_matches_run(self, capsys):
        # ten steps of the geostationary preset leave the orbit-scale error
        # (km) dominant; both views divide it by p0
        with open(CONFIGS / "run_orbital_geo.json") as fh:
            cfg = json.load(fh)
        dt = cfg["integrator"]["dt"]
        cfg["integrator"]["horizon"] = 10 * dt
        code, out, _ = run_cli(capsys, "orbital",
                               "--params", str(CONFIGS / "orbital_geo.json"),
                               "--cost", str(CONFIGS / "orbital_geo_cost.json"),
                               "--samples", str(cfg["sampling"]["n_samples"]),
                               "--dt", repr(dt), "--T", repr(10 * dt))
        assert code == 0
        res = json.loads(out)
        sim = run(cfg)["simulation"]
        assert res["steps"] == sim["steps"] == 10
        assert res["final_error"] == sim["final_error"]
        assert res["final_error"] == pytest.approx(0.1485, abs=1e-4)

    @pytest.mark.parametrize("flag, entry, name", [
        ("--cost", {"rho_1": 5}, r"orbital_cost\.rho_1"),
        ("--params", {"P0": 2}, r"orbital_params\.P0"),
        ("--cost", {"rho1": "5"}, r"orbital_cost\.rho1 must be a number"),
    ])
    def test_misspelt_or_malformed_file_exits_2(self, tmp_path, capsys, flag, entry, name):
        path = write_json(tmp_path / "f.json", entry)
        code, _, err = run_cli(capsys, "orbital", flag, path)
        assert code == 2
        assert err.startswith("error:") and re.search(name, err)

    def test_same_transfer_as_run(self, capsys):
        # `orbital` with no flags and `run` on {"system": "orbital"} read the
        # same defaults
        code, out, _ = run_cli(capsys, "orbital")
        assert code == 0
        assert json.loads(out)["final_error"] == \
            run({"system": "orbital"})["simulation"]["final_error"]

    def test_prints_a_view_of_the_orbital_run(self, capsys):
        code, out, _ = run_cli(capsys, "orbital", "--samples", "400", "--T", "20")
        assert code == 0
        rep = run({"system": "orbital", "sampling": {"n_samples": 400},
                   "integrator": {"horizon": 20.0}})
        assert json.loads(out) == {"params": rep["params"], **rep["design"],
                                   **rep["simulation"], "trace": None}

    def test_x0_of_five_entries_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "orbital", "--samples", "400",
                               "--x0", "0.1,0.05,-0.05,1.1,0.05")
        assert code == 2
        assert err.startswith("error:") and "initial_states[0] must have 6 entries" in err

    def test_coarse_step_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "orbital", "--samples", "400",
                               "--dt", "5.0", "--T", "50.0")
        assert code == 4
        assert "divergence" in err


class TestRun:
    def quick_cfg(self, tmp_path):
        return write_json(tmp_path / "cfg.json", {
            "system": "scalar_linear",
            "sampling": {"n_samples": 600},
            "integrator": {"dt": 0.01, "horizon": 20.0},
            "inverse_optimal": {"k_max": 2},
        })

    def test_passing_config(self, tmp_path, capsys):
        cfg = self.quick_cfg(tmp_path)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "run", cfg, "--out-dir", str(out_dir))
        assert code == 0
        assert out == "status: pass\n"
        report = json.loads((out_dir / "report.json").read_text())
        assert report["status"] == "pass"

    def test_failing_check_exits_3(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "system": "orbital",
            "sampling": {"n_samples": 400},
            "integrator": {"dt": 0.02, "horizon": 40.0},
            "target_tolerance": 1e-9,
        })
        code, out, _ = run_cli(capsys, "run", cfg, "--out-dir",
                               str(tmp_path / "out"))
        assert code == 3
        assert out == "status: fail\n"

    def test_level_grid_without_num_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {
            "system": "scalar_linear", "level_grid": {"start": 0.05, "stop": 4.0}})
        code, _, err = run_cli(capsys, "run", cfg)
        assert code == 2
        assert err.startswith("error:") and "'num'" in err

    @pytest.mark.parametrize("entry", [{"sampling": [600]},
                                       {"initial_states": [[1.0, 2.0]]}])
    def test_invalid_config_entry_exits_2(self, tmp_path, capsys, entry):
        cfg = write_json(tmp_path / "cfg.json", {"system": "scalar_linear", **entry})
        code, _, err = run_cli(capsys, "run", cfg)
        assert code == 2
        assert err.startswith("error:") and next(iter(entry)) in err

    @pytest.mark.parametrize("entry, name", [
        ({"sampling": {"samples": 100}}, r"sampling\.samples"),
        ({"prescription": {"Q": [[1.0]], "S": 3}}, r"prescription\.S"),
        ({"sampling": {"n_samples": True}}, r"sampling\.n_samples"),
        ({"sampling": {"n_samples": 200.7}}, r"sampling\.n_samples"),
        ({"sampling": {"seed": "x"}}, r"sampling\.seed"),
        ({"sampling": {"seed": -1}}, r"sampling\.seed"),
        ({"inverse_optimal": {"k_max": "x"}}, r"inverse_optimal\.k_max"),
        ({"integrator": {"dt": "x"}}, r"integrator\.dt"),
        ({"integrator": {"horizon": "x"}}, r"integrator\.horizon"),
        ({"target_tolerance": "x"}, "target_tolerance"),
    ])
    def test_entry_error_names_the_entry(self, tmp_path, capsys, entry, name):
        # only an orbital run reads target_tolerance
        system = "orbital" if "target_tolerance" in entry else "scalar_linear"
        cfg = write_json(tmp_path / "cfg.json", {"system": system, **entry})
        code, _, err = run_cli(capsys, "run", cfg)
        assert code == 2
        assert err.startswith("error:") and re.search(name, err)

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "missing.json"))
        assert code == 2
        assert err.startswith("error:") and "missing.json" in err

    @pytest.mark.parametrize("entry", [{"box": [[-1.0], [1.0]]}, {"level_grid": 5}])
    def test_config_entry_of_the_wrong_type_exits_2(self, tmp_path, capsys, entry):
        cfg = write_json(tmp_path / "cfg.json", {"system": "scalar_linear", **entry})
        code, _, err = run_cli(capsys, "run", cfg)
        assert code == 2
        assert err.startswith("error:") and f"'{next(iter(entry))}' must be" in err

    @pytest.mark.parametrize("integrator", [{"dt": 0}, {"dt": -0.01}, {"horizon": 0}])
    def test_nonpositive_step_or_horizon_exits_2(self, tmp_path, capsys, integrator):
        cfg = write_json(tmp_path / "cfg.json", {
            "system": "scalar_linear", "sampling": {"n_samples": 300},
            "integrator": integrator})
        code, _, err = run_cli(capsys, "run", cfg)
        assert code == 2
        assert err.startswith("error:") and "dt and T must be positive" in err

    def test_orbital_sample_count_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "orbital", "--samples", "0")
        assert code == 2
        assert err.startswith("error:") and "sample count must be positive, got 0" in err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{{{")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 2
        assert err.startswith("error: config '") and "cfg.json' is not valid JSON" in err


class TestRunKindEntries:
    """A run refuses, with exit 2 and the entry named, what its kind does not read."""

    @pytest.mark.parametrize("system, entry, name", [
        ("scalar_linear", {"orbital_params": {"p0": 2.0}}, "'orbital_params'"),
        ("scalar_linear", {"orbital_cost": {"rho1": 3.0}}, "'orbital_cost'"),
        ("scalar_linear", {"target_tolerance": 1e-12}, "'target_tolerance'"),
        ("orbital", {"prescription": {"Q": [[5.0]]}}, "'prescription'"),
        ("orbital", {"box": {"lows": [-1.0] * 6, "highs": [1.0] * 6}}, "'box'"),
        ("orbital", {"initial_states": [[0.1, 0.05, -0.05, 1.1, 0.05, -0.05]] * 2},
         "at most one initial state"),
    ])
    def test_entry_the_run_does_not_read_exits_2(self, tmp_path, capsys, system, entry, name):
        cfg = write_json(tmp_path / "cfg.json", {
            "system": system, "sampling": {"n_samples": 300}, **entry})
        code, _, err = run_cli(capsys, "run", cfg, "--out-dir", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error:") and name in err

    @pytest.mark.parametrize("text", [
        '"level_grid": [0.1, NaN, 1.0]',
        '"box": {"lows": [NaN], "highs": [2.0]}',
        '"initial_states": [[NaN]]',
        '"integrator": {"dt": Infinity}',
        '"integrator": {"horizon": -Infinity}',
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text('{"system": "scalar_linear", "sampling": {"n_samples": 300}, '
                        + text + "}")
        code, _, err = run_cli(capsys, "run", str(path), "--out-dir", str(tmp_path / "out"))
        assert code == 2
        token = re.search(r"-?(NaN|Infinity)", text).group()
        assert err.startswith("error:") and f"non-finite number {token}\n" in err

    @pytest.mark.parametrize("argv", [
        ["synth", "scalar_linear", "--samples", "300", "--levels", "0.1,nan,1.0"],
        ["invopt", "cost", "scalar_linear", "--samples", "300", "--x0", "inf"],
        ["orbital", "--samples", "300", "--dt", "nan"],
    ])
    def test_non_finite_flag_exits_2(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and "non-finite number" in err

    def test_non_finite_number_in_a_flag_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "box.json"
        path.write_text('{"lows": [-1.0], "highs": [Infinity]}')
        code, _, err = run_cli(capsys, "synth", "scalar_linear", "--samples", "300",
                               "--box", str(path))
        assert code == 2
        assert err.startswith("error:") and "box.json' holds the non-finite number" in err


class TestParser:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point(self, tmp_path):
        a = write_json(tmp_path / "A.json", [[-1.0]])
        b = write_json(tmp_path / "B.json", [[1.0]])
        proc = subprocess.run(
            [sys.executable, "-m", "clfsynth.cli", "care",
             "--A", a, "--B", b],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["closed_loop_spectral_abscissa"] < 0
