"""Closed-loop runs evaluate the plant once per RK4 stage.

evaluate_cost computes grad V, a, b, V, r and one solve per stage and
takes both the state derivative and the running cost from them, and a law
built on the cost's optimal feedback reads the stage's input from the
cost's feedback memo. integrate, the one closed-loop driver
(simulate_orbital runs through it), computes a cost's own optimal
feedback from each stage's b(x) without calling the law, and evaluates
the inputs and annotations in one stacked call on the recorded states.
These tests count the evaluations, on one state and on stacks, and check
that the results are exactly those of the unfused arithmetic: the running
cost q(x) + u' r(x) u integrated by rk4_path, the inputs law.map(x) at
every recorded state, and V' from a lie_sweep of the path.
"""

import threading
import warnings
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfsynth import clf, runner
from clfsynth.inverse_opt import LevelScaling, build_inverse_cost, evaluate_cost, \
    optimal_feedback
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
    """Calls of ControlAffineSystem.a/.b, Clf.value/.gradient and FeedbackLaw.map
    from here on: seen[name] on one state, seen[name + "_rows"] on a stack."""
    names = ("a", "b", "value", "gradient", "map")
    seen = {name + kind: 0 for name in names for kind in ("", "_rows")}
    for owner, name in ((clf.ControlAffineSystem, "a"), (clf.ControlAffineSystem, "b"),
                        (clf.Clf, "value"), (clf.Clf, "gradient"), (FeedbackLaw, "map")):
        def counting(self, x, real=getattr(owner, name), name=name):
            seen[name if np.ndim(x) == 1 else name + "_rows"] += 1
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
        assert counts["a"] <= 4 * steps
        assert counts["map"] == 0
        # the stages take V from grad V, the stop test evaluates it once per
        # step, and the terminal check and the tail reuse the last one
        assert 0 < counts["value"] <= steps + 2
        assert 0 < counts["gradient"] <= 4 * steps
        # a cost run records no trace, so nothing is evaluated on a stack
        assert not any(n for name, n in counts.items() if name.endswith("_rows"))

    def test_integrate_maps_four_times_per_step(self, designs, counts):
        # the optimal feedback calls no other law (a blended law calls its
        # universal-formula law inside its own map)
        box, synth, costrec = designs["strict_feedback_demo"]
        traj = integrate(synth.full, costrec.law, 0.6 * box.highs, 0.02, 10.0)
        assert counts["map"] <= 4 * (len(traj) - 1)
        assert counts["map_rows"] == 1  # the inputs at the recorded states

    def test_orbital_transfer_drift_four_times_per_step(self, orbital_design, monkeypatch):
        # the controller's plant is the one the transfer runs: no plant is
        # built, the optimal feedback's u comes from each stage's own b(x)
        params, V, law = orbital_design
        s0 = equilibrium(params) + np.array([0.1, 0.05, -0.05, 0.1, 0.05, -0.05])
        seen = count_calls(monkeypatch)
        builds = []
        real_init = clf.ControlAffineSystem.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(clf.ControlAffineSystem, "__init__", counting_init)
        traj = simulate_orbital(params, law, s0, 0.04, 4.0, V=V)
        steps = len(traj) - 1
        assert steps == 100
        assert seen["a"] <= 4 * steps
        assert seen["b"] <= 4 * steps
        assert seen["map"] == 0
        # on the recorded states: the inputs (whose stage evaluates grad V, b
        # and the four-state level), then grad V, a, b and V for the annotations
        assert (seen["map_rows"], seen["gradient_rows"], seen["a_rows"], seen["b_rows"],
                seen["value_rows"]) == (1, 2, 1, 2, 2)
        assert not builds


class TestGenericPath:
    def test_law_without_a_cost_is_mapped_once_per_stage(self, orbital_design, monkeypatch):
        params, V, law = orbital_design
        star = equilibrium(params)
        s0 = star + np.array([0.1, 0.05, -0.05, 0.1, 0.05, -0.05])
        slower = perturbed(law, 0.9)
        seen = count_calls(monkeypatch)
        traj = simulate_orbital(params, slower, s0, 0.04, 4.0)
        # each call of the perturbed map calls the optimal map once, at each
        # stage and on the recorded states
        assert (seen["map"], seen["map_rows"]) == (2 * 4 * (len(traj) - 1), 2)
        ref = integrate(orbital_system(params), slower, s0 - star, 0.04, 4.0)
        assert np.array_equal(traj.states, ref.states + star)
        assert traj.inputs.tobytes() == ref.inputs.tobytes()

    def test_cost_on_another_plant_object_is_mapped(self, designs, counts):
        box, synth, costrec = designs["strict_feedback_demo"]
        twin = clf.ControlAffineSystem(synth.full.n, synth.full.p, synth.full.a,
                                       synth.full.b)
        traj = integrate(twin, costrec.law, 0.6 * box.highs, 0.02, 2.0)
        assert (counts["map"], counts["map_rows"]) == (4 * (len(traj) - 1), 1)
        fused = integrate(synth.full, costrec.law, 0.6 * box.highs, 0.02, 2.0)
        assert traj.states.tobytes() == fused.states.tobytes()
        assert traj.inputs.tobytes() == fused.inputs.tobytes()


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
        opt = costrec.law
        for law in (synth.law, opt, perturbed(opt, 0.95), perturbed(opt, 1.05)):
            traj = integrate(synth.full, law, 0.7 * box.highs, 0.05, 5.0)
            assert np.array_equal(traj.inputs, [law.map(x) for x in traj.states])

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(offsets=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    def test_orbital_inputs_are_the_law_at_every_state(self, orbital_design, offsets):
        params, _, law = orbital_design
        star = equilibrium(params)
        s0 = star + np.array(offsets) * np.array([0.1, 0.05, 0.05, 0.1, 0.05, 0.05])
        traj = simulate_orbital(params, law, s0, 0.04, 4.0)
        # the offset states the run went through, from the plant it runs
        states = integrate(orbital_system(params), law, s0 - star, 0.04, 4.0).states
        assert np.array_equal(traj.states, states + star)
        assert traj.inputs.tobytes() == np.array([law.map(z) for z in states]).tobytes()

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


class TestFeedbackMemo:
    """cost.feedback_memo holds the last (state bytes, optimal input) of a
    cost run's stage; the cost's optimal feedback serves exact hits."""

    def last_stage(self, designs, scale=0.95):
        box, synth, costrec = designs["strict_feedback_demo"]
        cost = costrec.cost
        evaluate_cost(synth.full, cost, perturbed(costrec.law, scale), 0.6 * box.highs,
                      HORIZON, DT)
        key, u = cost.feedback_memo
        return synth, costrec, np.frombuffer(key).copy(), u

    def test_hit_has_the_bits_of_a_fresh_stage(self, designs, monkeypatch):
        synth, costrec, x, u = self.last_stage(designs)
        fresh = costrec.cost.stage(x, synth.V.gradient(x), synth.full.b(x))[3]
        seen = count_calls(monkeypatch)
        assert costrec.law.map(x).tobytes() == fresh.tobytes() == u.tobytes()
        assert seen["gradient"] == seen["b"] == 0

    def test_another_state_misses(self, designs, monkeypatch):
        synth, costrec, x, u = self.last_stage(designs)
        y = np.nextafter(x, np.inf)
        monkeypatch.setattr(costrec.cost, "feedback_memo", (x.tobytes(), np.full_like(u, 7.0)))
        seen = count_calls(monkeypatch)
        got = costrec.law.map(y)
        assert seen["gradient"] == seen["b"] == 1
        assert got.tobytes() == costrec.cost.stage(y, synth.V.gradient(y),
                                                   synth.full.b(y))[3].tobytes()

    def test_another_costs_law_is_not_served_this_entry(self, designs, monkeypatch):
        box, synth, costrec = designs["strict_feedback_demo"]
        other = build_inverse_cost(synth.V, synth.full, np.eye(1), np.eye(2),
                                   LevelScaling(costrec.cost.scaling.r0, [2.0]))
        x = 0.6 * box.highs
        poison = np.full(1, 7.0)
        monkeypatch.setattr(costrec.cost, "feedback_memo", (x.tobytes(), poison))
        assert np.array_equal(costrec.law.map(x), poison)
        got = optimal_feedback(other).map(x)
        assert got.tobytes() == other.stage(x, synth.V.gradient(x), synth.full.b(x))[3].tobytes()
        # a run of this cost with a law built on the other cost's feedback
        law = perturbed(optimal_feedback(other), 1.05)
        est = evaluate_cost(synth.full, costrec.cost, law, x, HORIZON, DT)
        value, t_final = unfused_cost(synth.full, costrec.cost, law, x, HORIZON, DT)
        assert (est.value, est.t_final) == (value, t_final)

    def test_changing_a_returned_input_leaves_the_entry(self, designs):
        synth, costrec, x, u = self.last_stage(designs)
        want = u.tobytes()
        costrec.law.map(x)[:] = 99.0
        assert costrec.law.map(x).tobytes() == want

    def test_threads_sharing_a_cost_give_the_sequential_bits(self, designs):
        box, synth, costrec = designs["strict_feedback_demo"]
        x0 = 0.6 * box.highs
        scales = (0.95, 1.05, 0.95, 1.05)

        def run(scale):
            est = evaluate_cost(synth.full, costrec.cost, perturbed(costrec.law, scale), x0,
                                HORIZON, DT)
            return est.value, est.t_final, est.x_final.tobytes()

        want = [run(s) for s in scales]
        got = [None] * len(scales)

        def work(i):
            got[i] = run(scales[i])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(scales))]
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want


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
