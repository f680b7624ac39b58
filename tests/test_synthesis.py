import numpy as np
import pytest

from clfsynth.clf import (
    ControlAffineSystem, blend_profile, check_artstein_sampled, lie_sweep,
    local_quadratic_clf)
from clfsynth.errors import ArtsteinViolationError
from clfsynth.sampling import Box, sample_box
from clfsynth.synthesis import (
    FeedbackLaw, blended_controller, local_gain, seam_diagnostics,
    sontag_controller, verify_decrease)

# universal formula on x' = x + u with V = x^2:
# u = -[(2x^2 + sqrt(4x^4 + 16x^4)) / 4x^2] 2x = -(1 + sqrt(5)) x
SONTAG_GAIN = 1.0 + np.sqrt(5.0)


def scalar_linear():
    return ControlAffineSystem(1, 1, lambda x: x[..., :1],
                               lambda x: np.array([[1.0]]),
                               linearization=([[1.0]], [[1.0]]))


def quadratic_v():
    return local_quadratic_clf(np.eye(1))


def box_sweep(V, sys_, box, n_samples=2000):
    return lie_sweep(V, sys_, sample_box(box, n_samples))


class TestFeedbackLaw:
    def test_rejects_offset_at_origin(self):
        with pytest.raises(ValueError, match="vanish"):
            FeedbackLaw("linear", lambda x: x + 1.0, 1, 1)

    def test_map_shape_and_metadata(self):
        law = FeedbackLaw("linear", lambda x: -2.0 * x, 1, 1, metadata={"tag": 3})
        assert law.map(np.array([2.0])).shape == (1,)
        assert law.metadata["tag"] == 3


class TestSontag:
    def test_scalar_gain_closed_form(self):
        law = sontag_controller(quadratic_v(), scalar_linear())
        for x0 in (1.0, 0.5, -2.0):
            assert law.map(np.array([x0]))[0] == pytest.approx(
                -SONTAG_GAIN * x0, rel=1e-12)

    def test_odd_symmetry(self):
        law = sontag_controller(quadratic_v(), scalar_linear())
        x = np.array([0.37])
        assert law.map(-x)[0] == pytest.approx(-law.map(x)[0], rel=1e-12)

    def test_decrease_identity(self):
        # closed-loop Vdot = -sqrt(L_aV^2 + ||L_bV||^4) by construction
        sys_ = scalar_linear()
        V = quadratic_v()
        law = sontag_controller(V, sys_)
        x = 0.7
        la = 2 * x * x
        lb = 2 * x
        vdot = la + lb * law.map(np.array([x]))[0]
        assert vdot == pytest.approx(-np.sqrt(la ** 2 + lb ** 4), rel=1e-12)

    def test_kernel_branch_returns_zero(self):
        # planar system whose input cannot move the first coordinate
        sys_ = ControlAffineSystem(
            2, 1, lambda x: -x,
            lambda x: np.array([[0.0], [1.0]]))
        V = local_quadratic_clf(np.eye(2))
        law = sontag_controller(V, sys_)
        u = law.map(np.array([1.0, 0.0]))
        assert u[0] == 0.0

    def test_vanishes_at_origin(self):
        law = sontag_controller(quadratic_v(), scalar_linear())
        assert np.all(law.map(np.zeros(1)) == 0.0)

    def test_refuses_non_clf(self):
        with pytest.warns(UserWarning):
            sys_ = ControlAffineSystem(1, 1, lambda x: x[..., :1],
                                       lambda x: np.array([[0.0]]))
        report = check_artstein_sampled(box_sweep(quadratic_v(), sys_, Box.centered([1.0])))
        with pytest.raises(ArtsteinViolationError) as exc:
            sontag_controller(quadratic_v(), sys_, artstein_report=report)
        assert len(exc.value.violations) > 0


class TestBlended:
    def _blended(self, r0=1.0, k=-2.0):
        sys_ = scalar_linear()
        V = quadratic_v()
        alpha = sontag_controller(V, sys_)
        law = blended_controller(alpha, np.array([[k]]), V, blend_profile(r0))
        return law, alpha, k

    def test_exact_linear_core(self):
        law, _, k = self._blended()
        # below half the radius the map IS the linear gain, bit for bit
        for x0 in (0.1, -0.3, 0.5):
            assert law.map(np.array([x0]))[0] == k * x0

    def test_exact_universal_tail(self):
        law, alpha, _ = self._blended()
        for x0 in (1.01, 2.0, -3.0):
            x = np.array([x0])
            assert law.map(x)[0] == alpha.map(x)[0]

    def test_transition_between_endpoints(self):
        law, alpha, k = self._blended()
        x = np.array([0.85])  # V = 0.7225, inside (r0/2, r0)
        u = law.map(x)[0]
        lo, hi = sorted((k * x[0], alpha.map(x)[0]))
        assert lo <= u <= hi

    def test_metadata_records_radius(self):
        law, _, _ = self._blended(r0=1.5)
        assert law.metadata["r0"] == 1.5
        assert law.metadata["inner_kind"] == "sontag"

    def test_vanishes_at_origin(self):
        law, _, _ = self._blended()
        assert np.all(law.map(np.zeros(1)) == 0.0)


class TestLocalGain:
    def test_blended_matches_prescription_tightly(self):
        sys_ = scalar_linear()
        V = quadratic_v()
        alpha = sontag_controller(V, sys_)
        K_o = np.array([[-2.0]])
        law = blended_controller(alpha, K_o, V, blend_profile(1.0))
        J = local_gain(law)
        assert abs(J[0, 0] - K_o[0, 0]) <= 1e-9

    def test_sontag_gain_with_richardson(self):
        law = sontag_controller(quadratic_v(), scalar_linear())
        J = local_gain(law)
        assert J[0, 0] == pytest.approx(-SONTAG_GAIN, abs=1e-9)

    def test_planar_blended(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        sys_ = ControlAffineSystem(
            2, 1, lambda x: np.matvec(A, x), lambda x: B, linearization=(A, B))
        P = np.array([[np.sqrt(3.0), 1.0], [1.0, np.sqrt(3.0)]])
        V = local_quadratic_clf(P)
        K_o = np.array([[-1.0, -np.sqrt(3.0)]])
        alpha = sontag_controller(V, sys_)
        law = blended_controller(alpha, K_o, V, blend_profile(0.5))
        assert np.max(np.abs(local_gain(law) - K_o)) <= 1e-9


class TestVerifyDecrease:
    def test_universal_law_passes(self):
        sys_ = scalar_linear()
        V = quadratic_v()
        law = sontag_controller(V, sys_)
        report = verify_decrease(box_sweep(V, sys_, Box.centered([2.0])), law)
        assert report.passed
        assert report.max_vdot < 0.0
        assert report.checked > 1500

    def test_destabilizing_law_fails(self):
        sys_ = scalar_linear()
        V = quadratic_v()
        bad = FeedbackLaw("linear", lambda x: x[..., :1], 1, 1)
        report = verify_decrease(box_sweep(V, sys_, Box.centered([1.0])), bad)
        assert not report.passed
        assert len(report.violations) == report.checked

    def test_report_round_trip(self):
        sys_ = scalar_linear()
        V = quadratic_v()
        law = sontag_controller(V, sys_)
        d = verify_decrease(box_sweep(V, sys_, Box.centered([1.0])), law).to_dict()
        assert set(d) == {"checked", "max_vdot", "violations", "passed"}


class TestDiagnostics:
    def test_seam_quotients_reported(self):
        sys_ = scalar_linear()
        V = quadratic_v()
        alpha = sontag_controller(V, sys_)
        law = blended_controller(alpha, np.array([[-2.0]]), V, blend_profile(1.0))
        out = seam_diagnostics(law, V, blend_profile(1.0), Box.centered([2.0]))
        assert set(out) == {"half_radius", "radius"}
        assert all(np.isfinite(v) for v in out.values())
