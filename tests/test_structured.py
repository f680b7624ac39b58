"""Tests for backstepping partitions, composite Lyapunov functions, and
the cascade and feedforward system descriptions.

Hand-checked oracles:

* P = [[2, 1], [1, 1]]: P22 = 1, P12 = [1], Schur complement P_y = [[1]],
  inner gain -P12/P22 = [-1], annihilator T = [[1], [-1]].
* double-integrator Riccati solution P = [[sqrt3, 1], [1, sqrt3]] (Q = R = I):
  P_y = sqrt3 - 1/sqrt3 = 2/sqrt3, gain = -1/sqrt3.
* composite with V_y = y^2, alpha_y = -y, P22 = 1: V = y^2 + (x + y)^2,
  origin Hessian [[4, 2], [2, 2]], V(1,1) = 5, grad V(1,1) = (6, 4).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfsynth import numdiff
from clfsynth.clf import ControlAffineSystem, local_quadratic_clf
from clfsynth.errors import CertificateError
from clfsynth.structured import (
    FeedforwardSystem,
    StrictFeedbackSystem,
    backstepping_clf,
    backstepping_partition,
    backstepping_synthesize,
)
from clfsynth.synthesis import local_gain

S3 = np.sqrt(3.0)


def cascade_demo():
    """y' = -y^3 + x, x' = x y^2 + u."""
    return StrictFeedbackSystem(
        1,
        h1=lambda y: -y ** 3,
        h2=lambda y: np.array([1.0]),
        f=lambda y, x: x * y ** 2,
        g=lambda y, x: 1.0)


def linear_cascade():
    """Plain double integrator written as a cascade."""
    return StrictFeedbackSystem(
        1,
        h1=lambda y: np.array([0.0]),
        h2=lambda y: np.array([1.0]),
        f=lambda y, x: 0.0,
        g=lambda y, x: 1.0)


class TestStrictFeedbackSystem:
    def test_assembled_linearization(self):
        lin = cascade_demo().linearization
        A, B = lin.A, lin.B
        assert np.allclose(A, [[0.0, 1.0], [0.0, 0.0]], atol=1e-9)
        assert np.allclose(B, [[0.0], [1.0]])

    def test_control_affine_vector_fields(self):
        full = cascade_demo()
        assert isinstance(full, ControlAffineSystem)
        chi = np.array([0.5, -2.0])
        assert np.allclose(full.a(chi), [-0.125 - 2.0, -2.0 * 0.25])
        assert np.allclose(full.b(chi), [[0.0], [1.0]])

    def test_supplied_blocks_accepted(self):
        sys_ = StrictFeedbackSystem(
            1,
            h1=lambda y: -y ** 3,
            h2=lambda y: np.array([1.0]),
            f=lambda y, x: x * y ** 2,
            g=lambda y, x: 1.0,
            blocks=([[0.0]], [1.0], [0.0], 0.0, 1.0))
        assert sys_.G == 1.0
        assert np.allclose(sys_.H1, [[0.0]])

    def test_wrong_block_rejected(self):
        with pytest.raises(ValueError, match="disagrees with finite differences"):
            StrictFeedbackSystem(
                1,
                h1=lambda y: -y ** 3,
                h2=lambda y: np.array([1.0]),
                f=lambda y, x: x * y ** 2,
                g=lambda y, x: 1.0,
                blocks=([[0.0]], [2.0], [0.0], 0.0, 1.0))

    def test_offset_drift_rejected(self):
        with pytest.raises(ValueError, match=r"a\(0\) must vanish"):
            StrictFeedbackSystem(1, h1=lambda y: np.array([1.0]),
                                 h2=lambda y: np.array([1.0]),
                                 f=lambda y, x: 0.0, g=lambda y, x: 1.0)
        with pytest.raises(ValueError, match=r"a\(0\) must vanish"):
            StrictFeedbackSystem(1, h1=lambda y: np.array([0.0]),
                                 h2=lambda y: np.array([1.0]),
                                 f=lambda y, x: 1.0, g=lambda y, x: 1.0)

    def test_vanishing_input_gain_rejected(self):
        with pytest.raises(ValueError, match="g must not vanish"):
            StrictFeedbackSystem(1, h1=lambda y: np.array([0.0]),
                                 h2=lambda y: np.array([1.0]),
                                 f=lambda y, x: 0.0, g=lambda y, x: 0.0)


class TestBacksteppingPartition:
    def test_hand_worked_split(self):
        part = backstepping_partition(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert np.allclose(part.P_y, [[1.0]])
        assert part.P22 == 1.0
        assert np.allclose(part.local_inner_gain, [-1.0])
        assert np.allclose(part.T, [[1.0], [-1.0]])

    def test_riccati_prescription_split(self):
        P = np.array([[S3, 1.0], [1.0, S3]])
        part = backstepping_partition(P)
        assert part.P_y[0, 0] == pytest.approx(2.0 / S3, rel=1e-12)
        assert part.local_inner_gain[0] == pytest.approx(-1.0 / S3, rel=1e-12)

    def test_annihilator_kills_input_column_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            M = rng.standard_normal((n, n))
            P = M @ M.T + n * np.eye(n)
            part = backstepping_partition(P)
            TP = part.T.T @ P
            assert np.linalg.norm(TP[:, -1]) <= 1e-12 * (1 + np.linalg.norm(P))
            assert np.allclose(TP[:, :-1], part.P_y,
                               atol=1e-12 * (1 + np.linalg.norm(P)))
            # Schur complement of an SPD matrix stays SPD
            np.linalg.cholesky(part.P_y)

    def test_blocks_that_do_not_fit_raise(self):
        with pytest.raises(CertificateError, match="does not fit these blocks"):
            backstepping_partition(np.array([[2.0, 1.0], [1.0, 1.0]]),
                                   blocks=([[1.0]], [0.0]))

    def test_blocks_that_fit_pass(self):
        part = backstepping_partition(np.array([[2.0, 1.0], [1.0, 1.0]]),
                                      blocks=([[0.0]], [1.0]))
        assert np.allclose(part.local_inner_gain, [-1.0])

    def test_indefinite_prescription_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            backstepping_partition(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_to_dict_keys(self):
        d = backstepping_partition(np.array([[2.0, 1.0], [1.0, 1.0]])).to_dict()
        assert sorted(d) == ["P12", "P22", "P_y", "local_inner_gain"]


class TestBacksteppingClf:
    def composite(self):
        V_y = local_quadratic_clf(np.eye(1))
        return backstepping_clf(V_y, lambda y: -y[..., 0], 1.0)

    def test_hand_worked_values(self):
        V = self.composite()
        assert np.allclose(V.hessian_origin, [[4.0, 2.0], [2.0, 2.0]])
        chi = np.array([1.0, 1.0])
        assert V.value(chi) == pytest.approx(5.0, rel=1e-12)
        assert np.allclose(V.gradient(chi), [6.0, 4.0])

    def test_gradient_matches_finite_differences(self):
        V = self.composite()
        for chi in ([0.3, -0.7], [-1.1, 0.4]):
            chi = np.array(chi)
            fd = numdiff.gradient(V.value, chi)
            assert np.allclose(V.gradient(chi), fd, atol=1e-6)

    def test_input_derivative_vanishes_on_manifold(self):
        # grad V dot (0, g) is 2 P22 (x - alpha_y(y)) g, zero when x = -y
        V = self.composite()
        for yv in (0.5, -1.3, 2.0):
            g = V.gradient(np.array([yv, -yv]))
            assert abs(g[1]) <= 1e-12

    def test_validation(self):
        V_y = local_quadratic_clf(np.eye(1))
        with pytest.raises(ValueError, match="P22 must be positive"):
            backstepping_clf(V_y, lambda y: -y[..., 0], 0.0)
        with pytest.raises(ValueError, match=r"alpha_y\(0\) must vanish"):
            backstepping_clf(V_y, lambda y: 1.0 - y[..., 0], 1.0)
        with pytest.raises(ValueError, match="disagrees with finite differences"):
            backstepping_clf(V_y, lambda y: -y[..., 0], 1.0,
                             alpha_y_grad=lambda y: np.array([3.0]))

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 5), seed=st.integers(0, 2 ** 16))
    def test_linear_inner_law_gives_the_quadratic_form(self, n, seed):
        # the composite of P's Schur split with its own linear inner law is
        # x'Px, which is why the cascade design can use x'Px directly
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n))
        P = M @ M.T + np.eye(n)
        part = backstepping_partition(P)
        gain = part.local_inner_gain
        V = backstepping_clf(local_quadratic_clf(part.P_y), lambda y: np.vecdot(y, gain),
                             part.P22, alpha_y_grad=lambda y: gain)
        quad = local_quadratic_clf(P)
        for x in rng.standard_normal((10, n)):
            assert abs(V.value(x) - quad.value(x)) <= 1e-12 * quad.value(x)
            assert np.linalg.norm(V.gradient(x) - quad.gradient(x)) \
                <= 1e-12 * np.linalg.norm(P, 2) * np.linalg.norm(x)

    def test_inner_gain_mismatch_refused(self):
        V_y = local_quadratic_clf(np.eye(1))
        with pytest.raises(CertificateError, match="inner gain mismatch"):
            backstepping_clf(V_y, lambda y: -y[..., 0], 1.0,
                             expected_inner_gain=np.array([-2.0]))


class TestBacksteppingSynthesize:
    def test_composite_hessian_matches_prescription(self):
        P = np.array([[S3, 1.0], [1.0, S3]])
        K_o = np.array([[-1.0, -S3]])
        V, law = backstepping_synthesize(cascade_demo(), K_o, P=P,
                                         n_samples=600)
        assert np.max(np.abs(V.hessian_origin - 2.0 * P)) <= 1e-12
        assert set(law.metadata) >= {"r0", "partition", "inner_kind"}

    def test_local_gain_matches_prescription(self):
        P = np.array([[S3, 1.0], [1.0, S3]])
        K_o = np.array([[-1.0, -S3]])
        _, law = backstepping_synthesize(cascade_demo(), K_o, P=P,
                                         n_samples=600)
        assert np.max(np.abs(local_gain(law) - K_o)) <= 1e-9

    def test_linear_cascade_reduces_to_lq(self):
        # on a linear plant the blended law is the LQ feedback near 0,
        # exactly, not merely to rounding
        P = np.array([[S3, 1.0], [1.0, S3]])
        K_o = np.array([[-1.0, -S3]])
        _, law = backstepping_synthesize(linear_cascade(), K_o, P=P,
                                         n_samples=600)
        for chi in ([0.1, -0.05], [0.02, 0.02], [-0.08, 0.01]):
            chi = np.array(chi)
            assert np.array_equal(law.map(chi), K_o @ chi)

    def test_default_lyapunov_prescription(self):
        K_o = np.array([[-1.0, -S3]])
        V, law = backstepping_synthesize(cascade_demo(), K_o, n_samples=600)
        assert law.metadata["r0"] > 0
        assert V.value(np.zeros(2)) == 0.0

    def test_nonstabilizing_prescription_rejected(self):
        with pytest.raises(ValueError, match="does not stabilize"):
            backstepping_synthesize(cascade_demo(), np.array([[1.0, 1.0]]))


class TestFeedforward:
    def inner(self):
        return FeedforwardSystem(
            2, 1,
            h=lambda x: x[..., :1],
            f=lambda x: np.stack([-x[..., 0] + x[..., 1], -x[..., 1]], axis=-1),
            g=lambda x: np.array([[0.0], [1.0]]))

    def test_assembled_linearization(self):
        sys_ = self.inner()
        A, B = sys_.linearization.A, sys_.linearization.B
        assert np.allclose(A, [[0.0, 1.0, 0.0],
                               [0.0, -1.0, 1.0],
                               [0.0, 0.0, -1.0]], atol=1e-9)
        assert np.allclose(B, [[0.0], [0.0], [1.0]])

    def test_vector_fields(self):
        sys_ = self.inner()
        chi = np.array([5.0, 1.0, 2.0])
        assert np.allclose(sys_.a(chi), [1.0, 1.0, -2.0])
        assert np.allclose(sys_.b(chi), [[0.0], [0.0], [1.0]])

    def test_validation(self):
        with pytest.raises(ValueError, match=r"a\(0\) must vanish"):
            FeedforwardSystem(1, 1, h=lambda x: 1.0,
                              f=lambda x: -x[..., :1],
                              g=lambda x: np.array([[1.0]]))
        with pytest.raises(ValueError, match=r"a\(0\) must vanish"):
            FeedforwardSystem(1, 1, h=lambda x: x[..., :1],
                              f=lambda x: np.array([1.0]),
                              g=lambda x: np.array([[1.0]]))
        with pytest.raises(ValueError, match="disagrees with finite differences"):
            FeedforwardSystem(1, 1, h=lambda x: x[..., :1],
                              f=lambda x: -x[..., :1],
                              g=lambda x: np.array([[1.0]]),
                              blocks=([2.0], [[-1.0]], [[1.0]]))
