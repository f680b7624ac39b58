"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The check tests feed each correctness check a slightly wrong answer and
require a rejection. The workload tests run every workload at a tiny size,
untraced and traced, and require every metric named in BENCHMARK.json to be
printed with its unit.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_care_check_rejects_scaled_solution():
    A, B, Q, R, P_ref = workloads.care_instance(np.random.default_rng(3), 8, 2)
    assert checks.check_care(A, B, Q, R, P_ref, P_ref) == []
    problems = checks.check_care(A, B, Q, R, P_ref * (1.0 + 1e-6), P_ref)
    assert any("differs from scipy" in p for p in problems)


def test_care_check_rejects_non_hurwitz_and_indefinite():
    A = np.array([[1.0]])
    B = np.array([[1.0]])
    Q = np.eye(1)
    R = np.eye(1)
    P_ref = checks.care_reference(A, B, Q, R)
    assert checks.check_scalar_riccati_root(P_ref) == []
    problems = checks.check_care(A, B, Q, R, -P_ref, P_ref)
    assert any("positive definite" in p for p in problems)
    assert any("Hurwitz" in p for p in problems)


def test_cost_check_rejects_one_percent_error():
    assert checks.check_cost_equals_value(2.0, 2.0) == []
    assert checks.check_cost_equals_value(2.0 * 1.01, 2.0)
    x0 = np.array([0.7])
    exact = (1.0 + np.sqrt(2.0)) * 0.49
    assert checks.check_scalar_cost(exact, x0) == []
    assert checks.check_scalar_cost(exact * 0.99, x0)


def test_perturbed_cost_must_be_strictly_higher():
    assert checks.check_costs_more(1.0 + 1e-9, 1.0) == []
    assert checks.check_costs_more(1.0, 1.0)


def test_value_series_that_rises_once_is_rejected():
    vs = np.geomspace(1.0, 1e-8, 200)
    assert checks.check_nonincreasing(vs) == []
    vs[120] = vs[119] * (1.0 + 1e-6)
    assert checks.check_nonincreasing(vs)


@pytest.mark.parametrize("p0", [1.0, 42164.0])
def test_orbit_end_state_off_by_2e_3_is_rejected(p0):
    target = np.array([0.0, 0.0, 0.0, p0, 0.0, 0.0])
    near = target + np.array([5e-4, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert checks.check_orbit_end(near, target, p0) == []
    assert checks.check_orbit_end(target + np.array([0.0, 2e-3, 0.0, 0.0, 0.0, 0.0]),
                                  target, p0)
    # the orbit-scale coordinate counts in units of p0
    assert checks.check_orbit_end(target + np.array([0.0, 0.0, 0.0, 2e-3 * p0, 0.0, 0.0]),
                                  target, p0)


def test_local_gain_check_rejects_wrong_gain():
    B = np.array([[0.0], [1.0]])
    P = np.array([[np.sqrt(3.0), 1.0], [1.0, np.sqrt(3.0)]])
    K = -B.T @ P
    assert checks.check_local_gain(lambda x: K @ x, 2, B, P, np.eye(1)) == []
    assert checks.check_local_gain(lambda x: (1.0 + 1e-5) * K @ x, 2, B, P, np.eye(1))


class _ScalarPlant:
    """x' = x + u with V = (1 + sqrt 2) x^2, whose inverse-optimal q is x^2 for r = 1."""

    n = 1
    p = 1.0 + np.sqrt(2.0)

    def a(self, x):
        return np.asarray(x, dtype=float)

    def b(self, x):
        return np.eye(1)

    def value(self, x):
        return self.p * float(x[0]) ** 2

    def gradient(self, x):
        return np.array([2.0 * self.p * float(x[0])])


class _Cost:
    def __init__(self, q, r=lambda x: np.eye(1)):
        self.q = q
        self.r = r


STATES = [np.array([v]) for v in np.linspace(-1.5, 1.5, 8)]


def _cost_pair_problems(cost, top=10.0):
    plant = _ScalarPlant()
    return checks.check_cost_pair(plant, plant, cost, STATES, top, np.eye(1))


def test_cost_pair_check_accepts_the_exact_pair():
    assert _cost_pair_problems(_Cost(lambda x: float(x[0]) ** 2)) == []


def test_cost_pair_check_rejects_negative_q_at_one_inside_state():
    bad = STATES[4]
    cost = _Cost(lambda x: -1e-3 if np.array_equal(x, bad) else float(x[0]) ** 2)
    assert any("not positive" in p for p in _cost_pair_problems(cost))


def test_cost_pair_check_rejects_q_shifted_by_1e_8():
    problems = _cost_pair_problems(_Cost(lambda x: float(x[0]) ** 2 + 1e-8))
    assert any("HJB residual" in p for p in problems)


def test_cost_pair_check_rejects_r0_other_than_R():
    cost = _Cost(lambda x: float(x[0]) ** 2,
                 lambda x: np.eye(1) * (1.0 if np.any(x) else 1.0 + 1e-12))
    assert any("r(0)" in p for p in _cost_pair_problems(cost))


def test_cost_pair_check_reports_no_state_within_the_levels():
    problems = _cost_pair_problems(_Cost(lambda x: float(x[0]) ** 2), top=1e-6)
    assert any("no check state" in p for p in problems)


def test_setup_sample_in_a_fresh_process():
    assert run.setup_in_child("design", 1) > 0.0


TINY = {
    "design": {"round_plants": ("scalar_linear", "strict_feedback_demo"),
               "n_samples": 200, "min_ops": 1},
    "trajectories": {"plant_names": ("scalar_linear",), "design_samples": 200,
                     "orbital_samples": 300, "orbital_runs": 1, "min_ops": 1},
    "riccati_scale": {"sizes": (2, 4, 8), "pool_rounds": 1, "min_ops": 1},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    def apply(name):
        cls = workloads.WORKLOADS[name]
        for attr, value in TINY[name].items():
            monkeypatch.setattr(cls, attr, value)
        monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
        monkeypatch.setattr(run, "RESULTS", tmp_path)
    return apply


def _run(capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_prints_every_metric_with_its_unit(name, tiny, capsys):
    tiny(name)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        info, result = _run(capsys, name, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], info["problems"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        env = info["environment"]
        assert {"python", "numpy", "scipy", "nproc", "blas_threads"} <= set(env)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_exactly(name, tiny, capsys):
    tiny(name)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first = _run(capsys, name, 1)[1]["metrics"]
    second = _run(capsys, name, 1)[1]["metrics"]
    assert [first[c]["value"] for c in counts] == [second[c]["value"] for c in counts]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "design",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
