"""Closed-loop runs evaluate the plant once per RK4 stage.

evaluate_cost computes grad V, a, b, V, r and one solve per stage and
takes both the state derivative and the running cost from them; integrate
and simulate_orbital read the inputs and annotations of each recorded
state from the first stage of the step that leaves it. These tests count
the evaluations and check that the results are exactly those of the
unfused arithmetic: the running cost q(x) + u' r(x) u integrated by
rk4_path, the inputs law.map(x) at every recorded state, and V' from a
lie_sweep of the path.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfsynth import clf, orbital, runner
from clfsynth.inverse_opt import evaluate_cost, optimal_feedback
from clfsynth.linear_core import solve_lyapunov
from clfsynth.orbital import OrbitalCostConfig, OrbitalParams, build_orbital_controller, \
    equilibrium, orbital_system, simulate_orbital
from clfsynth.runner import DEFAULT_PROBLEMS, expand_level_grid
from clfsynth.sampling import Box
from clfsynth.sim import integrate, rk4_path
from clfsynth.synthesis import FeedbackLaw, local_gain
from clfsynth.systems import load_system

PLANTS = ("scalar_linear", "scalar_cubic", "strict_feedback_demo", "orbital_reduced")
DT, HORIZON = 0.1, 60.0

pytestmark = pytest.mark.filterwarnings("ignore:scaling queried")


def design(name):
    problem = DEFAULT_PROBLEMS[name]
    box = Box.from_dict(problem["box"])
    grid = expand_level_grid(problem["level_grid"])
    n = box.dim
    synth = runner.synthesize_problem(load_system(name), np.eye(n), np.eye(1), box, grid,
                                      n_samples=300, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        costrec = runner.reconstruct_cost(synth.full, synth.V, np.eye(n), np.eye(1), box,
                                          grid, k_max=3, n_samples=300, seed=0)
    return box, synth, costrec


@pytest.fixture(scope="module")
def designs():
    return {name: design(name) for name in PLANTS}


@pytest.fixture(scope="module")
def orbital_design():
    params = OrbitalParams()
    V, _, law = build_orbital_controller(params, OrbitalCostConfig.build(params),
                                         n_samples=300, k_max=4, seed=0)
    return params, V, law


def perturbed(law, scale):
    return FeedbackLaw("perturbed", lambda x: scale * law.map(x), law.n, law.p)


def unfused_cost(sys, cost, law, x0, horizon, dt):
    """(value, t_final) of evaluate_cost with q and r as separate calls."""
    V = cost.V
    level = 1e-8 * V.value(x0)

    def f(z):
        x = z[:-1]
        u = law.map(x)
        return np.append(sys.a(x) + sys.b(x) @ u, cost.q(x) + float(u @ cost.r(x) @ u))

    path = rk4_path(f, np.append(x0, 0.0), dt, int(np.ceil(horizon / dt - 1e-12)),
                    stop=lambda z: V.value(z[:-1]) <= level)
    zT = path[-1]
    xT = zT[:-1]
    if law.metadata.get("cost") is cost:
        tail = V.value(xT)
    else:
        A, B = sys.linearization.A, sys.linearization.B
        K = local_gain(law)
        P = solve_lyapunov(A + B @ K, cost.base_Q + K.T @ cost.base_R @ K)
        tail = float(xT @ P @ xT)
    return float(zT[-1]) + tail, dt * (len(path) - 1)


def count_calls(monkeypatch):
    """Calls of ControlAffineSystem.a/.b and FeedbackLaw.map from here on."""
    seen = {"a": 0, "b": 0, "map": 0}
    for owner, name in ((clf.ControlAffineSystem, "a"), (clf.ControlAffineSystem, "b"),
                        (FeedbackLaw, "map")):
        def counting(self, x, real=getattr(owner, name), name=name):
            seen[name] += 1
            return real(self, x)
        monkeypatch.setattr(owner, name, counting)
    return seen


@pytest.fixture
def counts(monkeypatch):
    return count_calls(monkeypatch)


class TestEvaluationCounts:
    def test_optimal_cost_run_calls_no_law(self, designs, counts):
        box, synth, costrec = designs["strict_feedback_demo"]
        x0 = 0.6 * box.highs
        est = evaluate_cost(synth.full, costrec.cost, costrec.law, x0, HORIZON, 0.02)
        steps = round(est.t_final / 0.02)
        assert steps > 100
        assert counts["a"] <= 4 * steps + 1
        assert counts["map"] == 0

    def test_integrate_maps_four_times_per_step(self, designs, counts):
        # the optimal feedback calls no other law (a blended law calls its
        # universal-formula law inside its own map)
        box, synth, costrec = designs["strict_feedback_demo"]
        traj = integrate(synth.full, costrec.law, 0.6 * box.highs, 0.02, 10.0)
        assert counts["map"] <= 4 * (len(traj) - 1) + 1

    def test_orbital_transfer_drift_four_times_per_step(self, orbital_design, monkeypatch):
        params, V, law = orbital_design
        # the plant is built before counting: its construction evaluates
        # the drift to validate the linearization, once per transfer
        sys6 = orbital_system(params)
        monkeypatch.setattr(orbital, "orbital_system", lambda _: sys6)
        s0 = equilibrium(params) + np.array([0.1, 0.05, -0.05, 0.1, 0.05, -0.05])
        seen = count_calls(monkeypatch)
        traj = simulate_orbital(params, law, s0, 0.04, 4.0, V=V)
        assert seen["a"] <= 4 * (len(traj) - 1) + 1


class TestAgreementWithUnfusedArithmetic:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(name=st.sampled_from(PLANTS),
           fractions=st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=2))
    def test_cost_runs(self, designs, name, fractions):
        box, synth, costrec = designs[name]
        x0 = np.array(fractions[:box.dim]) * box.highs
        if synth.V.value(x0) <= 1e-4:
            return
        opt = costrec.law
        for law in (opt, perturbed(opt, 0.95), perturbed(opt, 1.05)):
            est = evaluate_cost(synth.full, costrec.cost, law, x0, HORIZON, DT, V=synth.V)
            value, t_final = unfused_cost(synth.full, costrec.cost, law, x0, HORIZON, DT)
            assert est.value == value
            assert est.t_final == t_final

    @pytest.mark.parametrize("name", PLANTS)
    def test_integrate_inputs_are_the_law_at_every_state(self, designs, name):
        box, synth, costrec = designs[name]
        for law in (synth.law, costrec.law):
            traj = integrate(synth.full, law, 0.7 * box.highs, 0.05, 5.0)
            assert np.array_equal(traj.inputs, [law.map(x) for x in traj.states])

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(offsets=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    def test_orbital_vdot_is_the_lie_sweep_formula(self, orbital_design, offsets):
        params, V, law = orbital_design
        star = equilibrium(params)
        s0 = star + np.array(offsets) * np.array([0.1, 0.05, 0.05, 0.1, 0.05, 0.05])
        traj = simulate_orbital(params, law, s0, 0.04, 4.0, V=V)
        # the path in offset coordinates, which traj.states - star need not
        # reproduce exactly
        states = integrate(orbital_system(params), law, s0 - star, 0.04, 4.0).states
        sweep = clf.lie_sweep(V, orbital_system(params), states)
        vdot = [la + float(lb @ law.map(z)) for la, lb, z in zip(sweep.la, sweep.lb, states)]
        assert np.array_equal(traj.annotations["V"], sweep.values)
        assert np.array_equal(traj.annotations["Vdot"], vdot)


class TestForeignArguments:
    def test_evaluate_cost_rejects_a_foreign_v(self, designs):
        box, synth, costrec = designs["scalar_cubic"]
        other = clf.local_quadratic_clf(synth.care.P)
        with pytest.raises(ValueError, match="cost.V"):
            evaluate_cost(synth.full, costrec.cost, costrec.law, 0.5 * box.highs,
                          HORIZON, DT, V=other)

    def test_evaluate_cost_rejects_a_foreign_system(self, designs):
        box, synth, costrec = designs["scalar_cubic"]
        with pytest.raises(ValueError, match="cost.sys"):
            evaluate_cost(load_system("scalar_cubic"), costrec.cost, costrec.law,
                          0.5 * box.highs, HORIZON, DT)

    def test_optimal_feedback_needs_the_cost_v(self, designs):
        _, synth, costrec = designs["scalar_cubic"]
        other = clf.local_quadratic_clf(synth.care.P)
        with pytest.raises(ValueError, match="own V"):
            optimal_feedback(other, costrec.cost, synth.full)
