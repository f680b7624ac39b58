"""Tests for the annulus ladder, the level scaling, and cost reconstruction.

Hand-checked oracles used below, all for V = x**2 (so V levels are x**2):

* drift a(x) = x^3 * clip(x^2 - 1, 0, 1), b = 1, R = 1, r0 = 1:
  the drift vanishes on the base region, and on annulus k the excess ratio
  4*LaV / (LbV R^-1 LbV) = 2*x^2*(x^2 - 1) climbs to 4 at V = 2, while the
  clip plateau gives 2*x^2, i.e. 6 at V = 3 and 8 at V = 4.  With the safety
  factor 1.5 the ladder is [6, 9, 12] up to sampling slack.
* pure cubic drift x^3: ratio at x = sqrt(2) is 4*(2*x^4)/(4*x^2) = 2*x^2 = 4.
* base inequality for the cubic: 2*x^4 - x^2 < 0 iff x^2 < 1/2, so the level
  0.45 passes and 0.6 does not.
* scalar ladder system x' = x + u with V = (1+sqrt(2))*x^2 reconstructs
  q(x) = x^2 exactly: LaV = 2(1+sqrt2)x^2 and (1/4)LbV^2 = (1+sqrt2)^2 x^2
  differ by exactly x^2.  The optimal feedback is -(1+sqrt2)x and the
  closed-loop cost from x0 equals V(x0); the suboptimal law u = -3x gives
  J = integral (1+9)e^{-4t} dt = 2.5 at x0 = 1.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfsynth.clf import ControlAffineSystem, LieSweep, lie_sweep, local_quadratic_clf
from clfsynth.errors import CertificateError, DivergenceError
from clfsynth.inverse_opt import (
    InverseOptimalCost,
    LevelScaling,
    _input_forms,
    _solve,
    base_level_ladder,
    build_inverse_cost,
    check_base_region,
    estimate_level_constants,
    evaluate_cost,
    find_base_level,
    hjb_residual,
    optimal_feedback,
)
from clfsynth.sampling import Box, quadratic_level_box, sample_box
from clfsynth.synthesis import FeedbackLaw

SQRT2 = np.sqrt(2.0)


def unit_v():
    return local_quadratic_clf(np.eye(1))


def level_sweep(V, sys_, level, n_samples=2000):
    """Sweep of the level's ellipsoid box, widened by 1.25."""
    box = quadratic_level_box(0.5 * V.hessian_origin, level)
    return lie_sweep(V, sys_, sample_box(box, n_samples))


def cubic_system():
    return ControlAffineSystem(1, 1, lambda x: x[..., :1] ** 3,
                               lambda x: np.array([[1.0]]))


def plateau_system():
    """Drift zero on the base region, cubic-by-(x^2-1) ramp, then x^3."""

    def a(x):
        s = x[..., :1] ** 2
        return x[..., :1] ** 3 * np.clip(s - 1.0, 0.0, 1.0)

    return ControlAffineSystem(1, 1, a, lambda x: np.array([[1.0]]))


def vanishing_b(x):
    return ((1.0 - np.minimum(x[..., :1] ** 2, 1.0)) ** 2)[..., None]


def scalar_linear():
    return ControlAffineSystem(
        1, 1, lambda x: x[..., :1], lambda x: np.array([[1.0]]),
        linearization=(np.array([[1.0]]), np.array([[1.0]])))


def excess_ratio(la, lb, R):
    """4 L_aV / (L_bV R^-1 L_bV'), the ladder's fit ratio, at one row."""
    return 4.0 * la / _input_forms(np.array([lb]), R)[0]


class TestExcessRatio:
    def test_cubic_at_sqrt2(self):
        x = SQRT2
        ratio = excess_ratio(2.0 * x ** 4, [2.0 * x], np.eye(1))
        assert ratio == pytest.approx(4.0, rel=1e-12)

    def test_input_weight_scales_ratio(self):
        x = SQRT2
        ratio = excess_ratio(2.0 * x ** 4, [2.0 * x], 4.0 * np.eye(1))
        assert ratio == pytest.approx(16.0, rel=1e-12)


@st.composite
def input_form_rows(draw):
    """(lb, r): rows L_bV (N, p) and an SPD weight, shared or one per row."""
    p = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    entry = st.floats(-3.0, 3.0, allow_nan=False)
    lb = np.array(draw(st.lists(st.lists(entry, min_size=p, max_size=p),
                                min_size=n, max_size=n)))

    def spd():
        M = np.array(draw(st.lists(entry, min_size=p * p, max_size=p * p))).reshape(p, p)
        return M @ M.T + draw(st.floats(0.1, 2.0)) * np.eye(p)

    r = np.stack([spd() for _ in range(n)]) if draw(st.booleans()) else spd()
    return lb, r


class TestInputForms:
    @settings(max_examples=60, deadline=None)
    @given(rows=input_form_rows())
    def test_rows_match_one_solve_per_row(self, rows):
        lb, r = rows
        forms = _input_forms(lb, r)
        weights = r if r.ndim == 3 else [r] * len(lb)
        expected = [row @ np.linalg.solve(w, row) for row, w in zip(lb, weights)]
        assert forms.shape == (len(lb),)
        np.testing.assert_allclose(forms, expected, rtol=1e-12, atol=1e-12)


class TestSolve:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), p=st.integers(2, 3))
    def test_diagonal_weight_has_lapack_bits(self, data, p):
        d = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=p, max_size=p))
        lb = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=p, max_size=p)))
        r = np.diag(d)
        assert _solve(r, lb).tobytes() == np.linalg.solve(r, lb).tobytes()

    def test_only_a_diagonal_weight_skips_lapack(self, monkeypatch):
        calls = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda r, lb: calls.append(1) or real(r, lb))
        lb = np.array([0.3, -1.2, 2.5])
        _solve(np.diag([2.0, 0.5, 7.0]), lb)
        assert not calls
        full = np.array([[2.0, 0.1, 0.0], [0.1, 0.5, 0.0], [0.0, 0.0, 7.0]])
        assert np.array_equal(_solve(full, lb), real(full, lb))
        # a zero entry of lb may come back from LAPACK as -0.0
        _solve(np.diag([2.0, 0.5, 7.0]), np.array([0.3, 0.0, 2.5]))
        assert len(calls) == 2
        with pytest.raises(np.linalg.LinAlgError):
            _solve(np.diag([2.0, 0.0, 7.0]), lb)


class TestCheckBaseRegion:
    def test_cubic_passes_below_half(self):
        checked = check_base_region(level_sweep(unit_v(), cubic_system(), 0.4, 400),
                                    np.eye(1), 0.4)
        assert 200 < checked <= 400

    def test_cubic_fails_above_half(self):
        with pytest.raises(CertificateError, match="choose a smaller base level"):
            check_base_region(level_sweep(unit_v(), cubic_system(), 0.8, 400), np.eye(1), 0.8)

    def test_stable_linear_passes_large_level(self):
        sys_ = ControlAffineSystem(1, 1, lambda x: -x[..., :1],
                                   lambda x: np.array([[1.0]]))
        assert check_base_region(level_sweep(unit_v(), sys_, 25.0, 400), np.eye(1), 25.0) > 200


class TestFindBaseLevel:
    def test_cubic_grid_picks_largest_passing(self):
        level = find_base_level(level_sweep(unit_v(), cubic_system(), 0.6), np.eye(1),
                                [0.1, 0.3, 0.45, 0.6])
        assert level == 0.45

    def test_all_fail_raises(self):
        with pytest.raises(CertificateError, match="no grid level passes"):
            find_base_level(level_sweep(unit_v(), cubic_system(), 1.0), np.eye(1), [0.7, 1.0])

    def test_bad_grid_raises(self):
        with pytest.raises(ValueError, match="level_grid"):
            find_base_level(level_sweep(unit_v(), cubic_system(), 1.0), np.eye(1), [-1.0, 0.0])


def ladder_sweeps(V, sys_, top, n_samples=400):
    """(fit, check): sweeps of the top level's ellipsoid box at seeds 0 and 1."""
    box = quadratic_level_box(0.5 * V.hessian_origin, top)
    return tuple(lie_sweep(V, sys_, sample_box(box, n_samples, seed=s)) for s in (0, 1))


def hand_sweep(values, ratios):
    """Scalar LieSweep rows with L_bV = 2 and the given excess ratios at V = values."""
    n = len(values)
    la = np.array(ratios, dtype=float)  # 4 L_aV / L_bV^2 = L_aV at L_bV = 2
    return LieSweep(unit_v(), cubic_system(), np.sqrt(values).reshape(n, 1),
                    np.array(values, dtype=float), la, np.full((n, 1), 2.0),
                    np.full(n, 1e-7))


class TestEstimateLevelConstants:
    def test_plateau_ladder_matches_hand_values(self):
        fit, check = ladder_sweeps(unit_v(), plateau_system(), 4.0)
        ladder = estimate_level_constants(fit, check, np.eye(1), 1.0, k_max=3)
        assert np.allclose(ladder, [6.0, 9.0, 12.0], rtol=2e-2)
        # sampled sup never exceeds the true sup on the closed annulus
        assert ladder[0] <= 6.0 and ladder[1] <= 9.0 and ladder[2] <= 12.0

    def test_check_rows_above_the_fit_ratio_double_the_constant(self):
        # fit ratio 2 gives 1.5 * 2 = 3; the check row's ratio 4 needs
        # more than 4, so the constant doubles once to 6
        ladder = estimate_level_constants(hand_sweep([1.5], [2.0]),
                                          hand_sweep([1.5], [4.0]), np.eye(1), 1.0, k_max=1)
        assert ladder == [6.0]

    def test_no_doublings_left_raises(self):
        # 3 doubled six times is 192, below the check row's ratio 1000
        with pytest.raises(CertificateError, match="no finite scaling"):
            estimate_level_constants(hand_sweep([1.5], [2.0]),
                                     hand_sweep([1.5], [1000.0]), np.eye(1), 1.0, k_max=1)

    def test_annulus_without_fit_rows_is_revalidated_on_check_rows(self):
        # no fit row on annulus 1 starts it at 1; the check row's ratio 3
        # fails at 1 and 2 and passes at 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ladder = estimate_level_constants(hand_sweep([0.5], [0.0]),
                                              hand_sweep([1.5], [3.0]), np.eye(1), 1.0,
                                              k_max=1)
        assert ladder == [4.0]

    def test_vanishing_input_with_stable_drift_floors_at_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sys_ = ControlAffineSystem(1, 1, lambda x: -x[..., :1],
                                       vanishing_b)
        fit, check = ladder_sweeps(unit_v(), sys_, 3.0)
        ladder = estimate_level_constants(fit, check, np.eye(1), 1.0, k_max=2)
        assert ladder == [1.0, 1.0]

    def test_vanishing_input_with_bad_drift_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sys_ = ControlAffineSystem(1, 1, plateau_system().a, vanishing_b)
        fit, check = ladder_sweeps(unit_v(), sys_, 2.0)
        with pytest.raises(CertificateError, match="input map vanishes"):
            estimate_level_constants(fit, check, np.eye(1), 1.0, k_max=1)

    def test_empty_annulus_ends_ladder(self):
        # V = x^2 <= 0.09 on the box: annulus 1 of r0 = 0.05 is reached,
        # annulus 2 ([0.1, 0.15]) is not, so the ladder stops after one rung
        sys_ = ControlAffineSystem(1, 1, lambda x: -x[..., :1],
                                   lambda x: np.array([[1.0]]))
        box = Box(np.array([-0.3]), np.array([0.3]))
        fit, check = (lie_sweep(unit_v(), sys_, sample_box(box, 400, seed=s)) for s in (0, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate_level_constants(fit, check, np.eye(1), 0.05, k_max=4) == [1.0]
            assert estimate_level_constants(fit, check, np.eye(1), 1.0, k_max=4) == []

    def test_k_max_validation(self):
        fit, check = ladder_sweeps(unit_v(), cubic_system(), 0.4)
        with pytest.raises(ValueError, match="k_max"):
            estimate_level_constants(fit, check, np.eye(1), 0.4, k_max=0)


class TestBaseLevelLadder:
    def test_steps_down_to_largest_passing_level(self):
        # the cubic's base inequality fails above V = 1/2
        fit, check = ladder_sweeps(unit_v(), cubic_system(), 1.2)
        level, ladder = base_level_ladder(fit, check, np.eye(1), 0.6,
                                          [0.1, 0.3, 0.45, 0.6], k_max=1)
        assert level == 0.45
        assert ladder == estimate_level_constants(fit, check, np.eye(1), 0.45, k_max=1)

    def test_raises_when_no_grid_level_passes(self):
        fit, check = ladder_sweeps(unit_v(), cubic_system(), 2.0)
        with pytest.raises(CertificateError, match="choose a smaller base level"):
            base_level_ladder(fit, check, np.eye(1), 1.0, [0.7, 1.0], k_max=1)

    def test_annulus_failure_is_not_retried(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sys_ = ControlAffineSystem(1, 1, plateau_system().a, vanishing_b)
        fit, check = ladder_sweeps(unit_v(), sys_, 2.0)
        with pytest.raises(CertificateError, match="input map vanishes"):
            base_level_ladder(fit, check, np.eye(1), 1.0, [0.5, 1.0], k_max=1)


class TestBuildMu:
    def test_knots_use_running_max(self):
        sc = LevelScaling(0.8, [2.0, 5.0, 3.0])
        assert np.allclose(sc.knots_s, [0.0, 0.4, 0.8, 1.6, 2.4])
        assert np.allclose(sc.knots_v, [1.0, 1.0, 2.0, 5.0, 5.0])

    def test_interpolated_values(self):
        sc = LevelScaling(0.8, [2.0, 5.0, 3.0])
        assert sc.mu(0.2) == 1.0
        assert sc.mu(0.6) == pytest.approx(1.5, rel=1e-12)
        assert sc.mu(1.2) == pytest.approx(3.5, rel=1e-12)

    def test_no_warning_on_the_last_annulus(self):
        # three annuli above r0 = 0.8 reach up to 3.2; mu is only frozen
        # past the last knot at 2.4, still inside the certified levels
        sc = LevelScaling(0.8, [2.0, 5.0, 3.0])
        assert sc.certified_top == pytest.approx(3.2, rel=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sc.mu(3.0) == 5.0

    def test_frozen_tail_warns_once(self):
        sc = LevelScaling(0.8, [2.0, 5.0, 3.0])
        with pytest.warns(UserWarning, match="beyond the certified range"):
            assert sc.mu(5.0) == 5.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert sc.mu(6.0) == 5.0
        assert not caught

    def test_random_ladders_monotone_and_floored(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            r0 = float(rng.uniform(0.1, 3.0))
            ladder = list(1.0 + rng.gamma(1.0, 2.0, size=rng.integers(1, 7)))
            sc = LevelScaling(r0, ladder)
            s = np.linspace(0.0, (len(ladder) + 2) * r0, 200)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                vals = np.array([sc.mu(si) for si in s])
            assert np.all(vals >= 1.0)
            assert np.all(np.diff(vals) >= -1e-12)
            below = s <= 0.5 * r0
            assert np.all(vals[below] == 1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="r0 must be positive"):
            LevelScaling(0.0, [1.0])
        with pytest.raises(ValueError, match=">= 1"):
            LevelScaling(1.0, [0.5])

    def test_to_dict_round_trip_values(self):
        sc = LevelScaling(1.0, [2.0, 4.0])
        d = sc.to_dict()
        assert sorted(d) == ["certified_top", "knots_s", "knots_v", "ladder", "r0"]
        assert d["r0"] == 1.0
        assert d["ladder"] == [2.0, 4.0]
        assert d["certified_top"] == 3.0


class TestInverseCost:
    def setup_method(self):
        self.sys = scalar_linear()
        self.V = local_quadratic_clf(np.array([[1.0 + SQRT2]]))
        # all-ones ladder long enough to cover every probe point below
        self.scaling = LevelScaling(1.0, [1.0] * 10)
        self.cost = build_inverse_cost(self.V, self.sys, np.eye(1), np.eye(1),
                                       self.scaling)

    def test_state_weight_is_exact_square(self):
        for xv in (0.7, -1.2, 0.05, 1.5):
            q = self.cost.q(np.array([xv]))
            assert q == pytest.approx(xv ** 2, abs=1e-12)

    def test_input_weight_matches_base_exactly(self):
        r = self.cost.r(np.array([0.7]))
        assert np.array_equal(r, np.eye(1))

    def test_state_weight_hessian_is_twice_base(self):
        h = 1e-4
        q = self.cost.q
        hess = (q(np.array([h])) - 2.0 * q(np.zeros(1)) + q(np.array([-h]))) / h ** 2
        assert hess == pytest.approx(2.0, rel=1e-6)

    def test_hjb_residual_vanishes_identically(self):
        for xv in (0.3, -0.9, 1.4):
            assert abs(hjb_residual(self.V, self.cost, self.sys,
                                    np.array([xv]))) <= 1e-12

    def test_optimal_feedback_is_lq_gain(self):
        law = optimal_feedback(self.cost)
        assert law.kind == "optimal_feedback"
        assert law.metadata["cost"] is self.cost
        for xv in (1.0, -0.4, 2.0):
            u = law.map(np.array([xv]))
            assert u[0] == pytest.approx(-(1.0 + SQRT2) * xv, rel=1e-12)

    def test_wrong_hessian_fails_riccati_gate(self):
        with pytest.raises(CertificateError, match="does not solve the Riccati"):
            build_inverse_cost(local_quadratic_clf(np.array([[2.0]])), self.sys,
                               np.eye(1), np.eye(1), self.scaling)

    def test_scaled_input_weight_at_origin_rejected(self):
        with pytest.raises(ValueError, match="must equal the base input weight"):
            InverseOptimalCost(self.V, self.sys, lambda v: 0.5 * np.eye(1),
                               np.eye(1), np.eye(1), self.scaling)


class TestEvaluateCost:
    def setup_method(self):
        self.sys = scalar_linear()
        self.V = local_quadratic_clf(np.array([[1.0 + SQRT2]]))
        self.cost = build_inverse_cost(self.V, self.sys, np.eye(1), np.eye(1),
                                       LevelScaling(1.0, [1.0, 1.0, 1.0]))

    def test_suboptimal_law_closed_form(self):
        law = FeedbackLaw("static", lambda x: -3.0 * x[..., :1], 1, 1)
        est = evaluate_cost(self.sys, self.cost, law, np.array([1.0]),
                            horizon=8.0, dt=0.001)
        assert est.tail_kind == "lq_estimate_tail"
        assert est.value == pytest.approx(2.5, abs=1e-9)

    def test_optimal_law_cost_equals_value(self):
        law = optimal_feedback(self.cost)
        est = evaluate_cost(self.sys, self.cost, law, np.array([1.0]),
                            horizon=8.0, dt=0.001)
        assert est.tail_kind == "value_tail"
        assert est.value == pytest.approx(1.0 + SQRT2, abs=1e-9)

    def test_start_at_origin(self):
        law = optimal_feedback(self.cost)
        est = evaluate_cost(self.sys, self.cost, law, np.zeros(1),
                            horizon=1.0, dt=0.01)
        assert est.tail_kind == "origin"
        assert est.value == 0.0

    def test_horizon_exhausted_raises(self):
        law = FeedbackLaw("static", lambda x: np.zeros_like(x), 1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DivergenceError, match="horizon") as exc:
                evaluate_cost(self.sys, self.cost, law, np.array([1.0]),
                              horizon=1.0, dt=0.01)
        assert exc.value.last_state[0] == pytest.approx(np.e, rel=1e-8)
        assert exc.value.last_time == pytest.approx(1.0)

    @pytest.mark.parametrize("horizon, dt", [(1.0, 0.0), (1.0, -0.01), (0.0, 0.01)])
    def test_nonpositive_step_or_horizon_raises(self, horizon, dt):
        law = optimal_feedback(self.cost)
        with pytest.raises(ValueError, match="dt and T must be positive"):
            evaluate_cost(self.sys, self.cost, law, np.array([1.0]),
                          horizon=horizon, dt=dt)

    def test_estimate_value_is_integral_plus_tail(self):
        law = optimal_feedback(self.cost)
        est = evaluate_cost(self.sys, self.cost, law, np.array([0.5]),
                            horizon=8.0, dt=0.001)
        assert est.value == pytest.approx(est.integral + est.tail)
        assert 0.0 < est.t_final <= 8.0
        assert est.x_final.shape == (1,)
