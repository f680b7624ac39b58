"""The rows contract: a stack of states is evaluated in one call.

Every plant field, candidate and feedback law takes one state (n,) or a
stack (..., n) and reads coordinates over the last axis. Row i of a stack
call must have the bits of the call at state i; construction refuses a
function that breaks this on a pair of probe states. The sampled
certificates rely on it: each makes one call per quantity, so their work
in Python calls does not grow with the sample count.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfsynth import clf, runner
from clfsynth.clf import Clf, ControlAffineSystem, _scan_levels, lie_sweep, \
    local_quadratic_clf, strict_margin
from clfsynth.errors import CertificateError
from clfsynth.inverse_opt import InverseOptimalCost
from clfsynth.orbital import OrbitalCostConfig, OrbitalParams, build_orbital_controller, \
    orbital_restriction, orbital_system
from clfsynth.runner import expand_level_grid
from clfsynth.sampling import Box, sample_box
from clfsynth.sim import integrate
from clfsynth.structured import backstepping_clf
from clfsynth.synthesis import FeedbackLaw, sontag_controller
from clfsynth.systems import REGISTRY, load_system

from test_clf import PLANAR_PLANTS

# y' = x, x' = x^2 + u and y' = -y^3 + x, x' = x y^2 + u as term lists
STRUCTURED_SPECS = {
    "feedforward": {"structure": "feedforward", "n_x": 1, "p": 1,
                    "h": [{"coeff": 1.0, "exponents": [1]}],
                    "f": [[{"coeff": 1.0, "exponents": [2]}]],
                    "g": [[[{"coeff": 1.0, "exponents": [0]}]]]},
    "strict_feedback": {"structure": "strict_feedback", "n_y": 1,
                        "h1": [[{"coeff": -1.0, "exponents": [3]}]],
                        "h2": [[{"coeff": 1.0, "exponents": [0]}]],
                        "f": [{"coeff": 1.0, "exponents": [2, 1]}],
                        "g": [{"coeff": 1.0, "exponents": [0, 0]}]},
}
ORBITAL_HALF = np.array([0.1, 0.05, 0.05, 0.1, 0.05, 0.05])


def stack(seed, half, rows=24):
    """Halton rows of the box of half-widths half, the origin among them."""
    pts = sample_box(Box.centered(half), rows, seed=seed)
    pts[0] = 0.0
    return pts


def assert_rows_are_states(fn, pts):
    rows = fn(pts)
    for i, x in enumerate(pts):
        assert np.asarray(rows[i]).tobytes() == np.asarray(fn(x)).tobytes(), i


def assert_plant_rows(sys_, pts):
    assert_rows_are_states(sys_.a, pts)
    assert_rows_are_states(sys_.b, pts)


class TestGuard:
    def test_transposing_field_is_refused(self):
        def swap(x):
            return np.array([x[1], -x[0]])

        # the silent case: on a (2, 2) stack the per-state field reads states
        # as coordinates and returns an array of the right shape, wrong rows
        pts = np.array([[0.1, 0.2], [0.3, 0.4]])
        owed = np.array([swap(x) for x in pts])
        assert swap(pts).shape == owed.shape and not np.array_equal(swap(pts), owed)
        with pytest.raises(ValueError, match="rows contract"):
            ControlAffineSystem(2, 1, swap, lambda x: np.array([0.0, 1.0]))

    def test_per_state_value_is_refused(self):
        with pytest.raises(ValueError, match="rows contract"):
            Clf(1, lambda x: float(x[0] ** 2))

    def test_matrix_times_stack_law_is_refused(self):
        K = np.array([[-1.0, -2.0]])
        with pytest.raises(ValueError, match="rows contract"):
            FeedbackLaw("lq", lambda x: K @ x, 2, 1)
        law = FeedbackLaw("lq", lambda x: np.matvec(K, x), 2, 1)
        assert law.map(np.ones((3, 2))).shape == (3, 1)

    def test_per_state_annotation_is_refused(self):
        # on a two-state plant the per-state form returns two numbers, the
        # squares of the first recorded state's coordinates
        sys_ = ControlAffineSystem(2, 1, lambda x: -x, lambda x: np.array([[0.0], [1.0]]))
        law = FeedbackLaw("static", lambda x: -x[..., 1:], 2, 1)
        with pytest.raises(ValueError, match="rows contract"):
            integrate(sys_, law, np.array([0.5, 0.5]), dt=0.1, T=0.5,
                      annotate={"sq": lambda x: x[0] ** 2})
        traj = integrate(sys_, law, np.array([0.5, 0.5]), dt=0.1, T=0.5,
                         annotate={"sq": lambda x: x[..., 0] ** 2})
        assert np.array_equal(traj.annotations["sq"], traj.states[:, 0] ** 2)

    def test_per_level_weight_is_refused(self):
        sys_ = ControlAffineSystem(2, 2, lambda x: -x, lambda x: np.eye(2))
        V, R = local_quadratic_clf(np.eye(2)), np.diag([1.0, 2.0])
        with pytest.raises(ValueError, match="rows contract"):
            InverseOptimalCost(V, sys_, lambda v: R / (1.0 + v), np.eye(2), R, None)
        cost = InverseOptimalCost(V, sys_, lambda v: R / (1.0 + np.asarray(v))[..., None, None],
                                  np.eye(2), R, None)
        pts = np.array([[0.1, 0.2], [0.3, -0.4], [1.0, 0.0]])
        assert_rows_are_states(cost.r, pts)
        assert_rows_are_states(cost.q, pts)

    def test_constant_input_map_broadcasts(self):
        sys_ = ControlAffineSystem(2, 1, lambda x: -x, lambda x: np.array([[0.0], [1.0]]))
        assert sys_.b(np.zeros((5, 2))).shape == (5, 2, 1)
        assert sys_.b(np.zeros((4, 3, 2))).shape == (4, 3, 2, 1)


class TestPlantRows:
    @settings(max_examples=10, deadline=None)
    @given(name=st.sampled_from(sorted(set(REGISTRY) - {"orbital"})),
           seed=st.integers(0, 2 ** 16), scale=st.floats(0.1, 3.0))
    def test_registry_plants(self, name, seed, scale):
        sys_ = load_system(name)
        assert_plant_rows(sys_, stack(seed, [scale] * sys_.n))

    @settings(max_examples=20, deadline=None)
    @given(spec=PLANAR_PLANTS, seed=st.integers(0, 2 ** 16))
    def test_planar_polynomial_plants(self, spec, seed):
        with warnings.catch_warnings(record=True):  # unstabilizable draws warn
            sys_ = load_system(spec)
        assert_plant_rows(sys_, stack(seed, [1.5, 1.5]))

    @settings(max_examples=10, deadline=None)
    @given(kind=st.sampled_from(sorted(STRUCTURED_SPECS)), seed=st.integers(0, 2 ** 16))
    def test_structured_specs(self, kind, seed):
        assert_plant_rows(load_system(STRUCTURED_SPECS[kind]), stack(seed, [1.5, 1.5]))

    @settings(max_examples=10, deadline=None)
    @given(p0=st.sampled_from([1.0, 42164.0]), seed=st.integers(0, 2 ** 16))
    def test_orbital_plant_and_restrictions(self, p0, seed):
        params = OrbitalParams(p0=p0, mu=1.0 if p0 == 1.0 else 398600.4418)
        unit = np.array([1.0, 1.0, 1.0, p0, 1.0, 1.0])
        pts = stack(seed, 5.0 * ORBITAL_HALF * unit)
        assert_plant_rows(orbital_system(params), pts)
        for n, p in ((3, 1), (4, 2)):
            assert_plant_rows(orbital_restriction(params, n, p), np.ascontiguousarray(pts[:, :n]))

    def test_orbital_stack_outside_the_domain_names_its_first_bad_row(self):
        pts = np.zeros((3, 6))
        pts[2, 3] = -2.0
        with pytest.raises(ValueError, match="chi4 = -1"):
            orbital_system(OrbitalParams()).a(pts)


class TestCandidateRows:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
    def test_quadratic(self, n, seed):
        M = np.random.default_rng(seed).standard_normal((n, n))
        V = local_quadratic_clf(M @ M.T + n * np.eye(n))
        pts = stack(seed, [1.0] * n)
        assert_rows_are_states(V.value, pts)
        assert_rows_are_states(V.gradient, pts)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), c=st.floats(0.0, 2.0))
    def test_backstepping_composite(self, seed, c):
        V = backstepping_clf(local_quadratic_clf([[2.0]]),
                             lambda y: -y[..., 0] - c * y[..., 0] ** 3, 1.5)
        pts = stack(seed, [1.5, 1.5])
        assert_rows_are_states(V.value, pts)
        assert_rows_are_states(V.gradient, pts)


@pytest.fixture(scope="module")
def cascade_design():
    problem = runner.DEFAULT_PROBLEMS["strict_feedback_demo"]
    box = Box.from_dict(problem["box"])
    grid = expand_level_grid(problem["level_grid"])
    synth = runner.synthesize_problem(load_system("strict_feedback_demo"), np.eye(2),
                                      np.eye(1), box, grid, n_samples=500, seed=0)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*beyond the certified range.*")
        costrec = runner.reconstruct_cost(synth.full, synth.V, np.eye(2), np.eye(1), box,
                                          grid, k_max=4, n_samples=500, seed=0)
    return box, synth, costrec


class TestLawRows:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16))
    def test_universal_blended_and_optimal_laws(self, cascade_design, seed):
        box, synth, costrec = cascade_design
        sontag = sontag_controller(synth.V, synth.full)
        pts = stack(seed, box.highs)
        # rows 1-3 on the levels r0/4, 3 r0/4 and 2 r0 (below, inside and above
        # the blend band), row 4 on the kernel line (P x)_2 = 0 of L_bV
        r0, P = synth.law.metadata["r0"], synth.care.P
        for i, level in ((1, 0.25 * r0), (2, 0.75 * r0), (3, 2.0 * r0)):
            pts[i] *= np.sqrt(level / synth.V.value(pts[i]))
        pts[4, 1] = -P[1, 0] / P[1, 1] * pts[4, 0]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*beyond the certified range.*")
            for law in (sontag, synth.law, costrec.law):
                assert_rows_are_states(law.map, pts)
            assert_rows_are_states(costrec.cost.q, pts)

    def test_orbital_optimal_law(self):
        params = OrbitalParams()
        _, cost, law = build_orbital_controller(params, OrbitalCostConfig.build(params),
                                                n_samples=300, k_max=4, seed=0)
        pts = stack(3, ORBITAL_HALF)
        pts[1, 4:] = 0.0  # a zero normal-channel L_bV: LAPACK on both paths
        assert_rows_are_states(law.map, pts)
        assert_rows_are_states(cost.q, pts)


def test_design_field_calls_do_not_grow_with_samples(monkeypatch):
    problem = runner.DEFAULT_PROBLEMS["strict_feedback_demo"]
    box = Box.from_dict(problem["box"])
    grid = expand_level_grid(problem["level_grid"])
    system = load_system("strict_feedback_demo")
    real = clf.ControlAffineSystem.a
    calls = []

    def counting(self, x):
        calls.append(1)
        return real(self, x)

    monkeypatch.setattr(clf.ControlAffineSystem, "a", counting)
    counts = []
    for n_samples in (500, 2000):
        calls.clear()
        synth = runner.synthesize_problem(system, np.eye(2), np.eye(1), box, grid,
                                          n_samples=n_samples, seed=0)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=".*beyond the certified range.*")
            runner.reconstruct_cost(synth.full, synth.V, np.eye(2), np.eye(1), box, grid,
                                    k_max=4, n_samples=n_samples, seed=0)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def scan_levels_loop(sweep, level_grid, slack):
    """The ascending per-level scan that _scan_levels replaces, as an oracle."""
    levels = sorted(float(l) for l in level_grid)
    vals = sweep.values
    above_floor = vals > 1e-7 * levels[-1]
    passes = np.asarray(slack) < -strict_margin(sweep.la)
    best = None
    for level in levels:
        mask = above_floor & (vals <= level)
        if not np.any(mask):
            continue
        if np.all(passes[mask]):
            best = level
        else:
            break
    return best


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, 1e-9, 0.1, 0.25, 0.5, 0.7, 1.0, 1.5, 3.0])
                       | st.floats(0.0, 4.0), min_size=1, max_size=30),
       fails=st.lists(st.booleans(), min_size=30, max_size=30),
       grid=st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.7, 1.0, 1.5, 2.0])
                     | st.floats(1e-3, 4.0), min_size=1, max_size=8))
def test_one_pass_level_scan_matches_the_loop(values, fails, grid):
    n = len(values)
    pts = np.zeros((n, 1))
    sweep = clf.LieSweep(None, None, pts, np.array(values), np.zeros(n), np.zeros((n, 1)),
                         np.zeros(n))
    slack = np.where(fails[:n], 1.0, -1.0)
    best = scan_levels_loop(sweep, grid, slack)
    if best is None:
        with pytest.raises(CertificateError, match="nothing passes"):
            _scan_levels(sweep, grid, slack, "nothing passes")
    else:
        assert _scan_levels(sweep, grid, slack, "nothing passes") == best


def test_lie_sweep_is_one_call_per_quantity(monkeypatch):
    sys_ = load_system("strict_feedback_demo")
    V = local_quadratic_clf(np.eye(2))
    calls = {"a": 0, "b": 0, "gradient": 0, "value": 0}
    for owner, name in ((ControlAffineSystem, "a"), (ControlAffineSystem, "b"),
                        (Clf, "gradient"), (Clf, "value")):
        real = getattr(owner, name)

        def counting(self, x, real=real, name=name):
            calls[name] += 1
            return real(self, x)

        monkeypatch.setattr(owner, name, counting)
    lie_sweep(V, sys_, sample_box(Box.centered([1.5, 1.5]), 1000))
    assert calls == {"a": 1, "b": 1, "gradient": 1, "value": 1}
