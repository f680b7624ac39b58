import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfsynth.clf import (
    BlendProfile, Clf, ControlAffineSystem, blend_profile,
    check_artstein_sampled, check_positivity_properness, find_r0, kernel_tol,
    lie_derivatives, lie_sweep, local_quadratic_clf, strict_margin)
from clfsynth.errors import CertificateError
from clfsynth.sampling import Box, quadratic_level_box, sample_box
from clfsynth.systems import load_system


def scalar_system(a, b):
    return ControlAffineSystem(1, 1, lambda x: a(x[..., :1]),
                               lambda x: b(x[..., :1]))


def quadratic_v():
    return local_quadratic_clf(np.eye(1))


def box_sweep(V, sys_, box, n_samples=2000):
    return lie_sweep(V, sys_, sample_box(box, n_samples))


def level_sweep(V, sys_, grid):
    """Sweep of the top grid level's ellipsoid box, widened by 1.25."""
    box = quadratic_level_box(0.5 * V.hessian_origin, max(grid))
    return box_sweep(V, sys_, box)


class TestControlAffineSystem:
    def test_rejects_nonzero_drift_at_origin(self):
        with pytest.raises(ValueError, match="a\\(0\\)"):
            scalar_system(lambda x: x + 1.0, lambda x: 1.0)

    def test_rejects_wrong_supplied_linearization(self):
        with pytest.raises(ValueError, match="disagrees"):
            ControlAffineSystem(1, 1, lambda x: x[..., :1],
                                lambda x: np.array([[1.0]]),
                                linearization=([[5.0]], [[1.0]]))

    def test_supplied_linearization_is_kept_exactly(self):
        sys_ = ControlAffineSystem(1, 1, lambda x: x[..., :1],
                                   lambda x: np.array([[1.0]]),
                                   linearization=([[1.0]], [[1.0]]))
        assert sys_.linearization.A[0, 0] == 1.0
        assert sys_.linearization.B[0, 0] == 1.0

    def test_single_input_vector_field_reshaped(self):
        sys_ = ControlAffineSystem(2, 1,
                                   lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1),
                                   lambda x: np.array([0.0, 1.0]))
        assert sys_.b(np.zeros(2)).shape == (2, 1)

    def test_unstabilizable_linearization_warns_not_raises(self):
        # drift-only diagnostic systems must still construct
        with pytest.warns(UserWarning, match="not stabilizable"):
            scalar_system(lambda x: x, lambda x: 0.0)


class TestClf:
    def test_rejects_nonzero_value_at_origin(self):
        with pytest.raises(ValueError, match="value\\(0\\)"):
            Clf(1, lambda x: x[..., 0] ** 2 + 1.0)

    def test_rejects_indefinite_hessian(self):
        with pytest.raises(ValueError, match="positive definite"):
            Clf(1, lambda x: -x[..., 0] ** 2)

    def test_rejects_wrong_supplied_hessian(self):
        with pytest.raises(ValueError, match="hessian_origin"):
            Clf(1, lambda x: x[..., 0] ** 2, hessian_origin=[[5.0]])

    def test_rejects_nonvanishing_gradient(self):
        with pytest.raises(ValueError, match="gradient"):
            Clf(1, lambda x: x[..., 0] ** 2,
                gradient=lambda x: 2.0 * x + 1.0)

    def test_finite_difference_gradient(self):
        V = Clf(1, lambda x: x[..., 0] ** 4 + x[..., 0] ** 2)
        g = V.gradient(np.array([0.5]))
        assert g[0] == pytest.approx(4 * 0.5 ** 3 + 2 * 0.5, rel=1e-6)

    def test_quadratic_exact_derivatives(self):
        P = np.array([[2.0, 1.0], [1.0, 3.0]])
        V = local_quadratic_clf(P)
        x = np.array([1.0, 1.0])
        assert V.value(x) == pytest.approx(7.0)
        assert np.allclose(V.gradient(x), 2.0 * P @ x)
        assert np.allclose(V.hessian_origin, 2.0 * P)

    def test_quadratic_requires_spd(self):
        with pytest.raises(np.linalg.LinAlgError):
            local_quadratic_clf(np.array([[-1.0]]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_quadratic_is_bit_reproducible_across_memory_layouts(self, n):
        rng = np.random.default_rng(n)
        M = rng.standard_normal((n, n))
        V = local_quadratic_clf(M @ M.T + n * np.eye(n))
        pts = sample_box(Box.centered([1.0] * n), 200, seed=0)
        copies = [x.copy() for x in pts]
        layouts = {"row views": list(pts),
                   "C-ordered rows": list(np.ascontiguousarray(pts)),
                   "Fortran-ordered rows": list(np.asfortranarray(pts))}
        for offset in (8, 24):
            layouts[f"rows {offset} bytes past a 64-byte boundary"] = \
                list(misaligned_copy(pts, offset))
        for name, rows in layouts.items():
            for x, c in zip(rows, copies):
                assert V.value(x) == V.value(c), name
                assert np.array_equal(V.gradient(x), V.gradient(c)), name


def misaligned_copy(a, offset):
    """Copy of a float array whose data starts offset bytes past a 64-byte boundary."""
    buf = np.zeros(a.nbytes + 64 + offset, dtype=np.uint8)
    start = -buf.ctypes.data % 64 + offset
    out = buf[start:start + a.nbytes].view(np.float64).reshape(a.shape)
    out[...] = a
    return out


class TestLieDerivatives:
    def test_scalar_linear_at_one(self):
        # x' = x + u, V = x^2: L_a V = 2x^2, L_b V = 2x
        sys_ = scalar_system(lambda x: x, lambda x: 1.0)
        la, lb = lie_derivatives(quadratic_v(), sys_, np.array([1.0]))
        assert la == pytest.approx(2.0)
        assert lb.shape == (1,)
        assert lb[0] == pytest.approx(2.0)

    def test_default_tolerances_track_scale(self):
        V = quadratic_v()
        x = np.array([3.0])
        assert kernel_tol(V.gradient(x)) == pytest.approx(1e-7 * 7.0)
        assert strict_margin(4.0) == pytest.approx(1e-9 * 5.0)


COEFF = st.floats(-2.0, 2.0, allow_nan=False)
# monomials x1^i x2^j of degree 1 to 3; input cells may also be constant
MONOMIAL = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: 1 <= sum(e) <= 3)
INPUT_MONOMIAL = st.tuples(st.integers(0, 2), st.integers(0, 2))


def poly_cell(exps):
    return st.lists(st.tuples(COEFF, exps), max_size=3).map(
        lambda terms: [{"coeff": c, "exponents": list(e)} for c, e in terms])


PLANAR_PLANTS = st.fixed_dictionaries({
    "n": st.just(2), "p": st.just(1),
    "drift": st.lists(poly_cell(MONOMIAL), min_size=2, max_size=2),
    "input": st.lists(poly_cell(INPUT_MONOMIAL).map(lambda cell: [cell]),
                      min_size=2, max_size=2),
})


class TestLieSweep:
    @settings(max_examples=30, deadline=None)
    @given(spec=PLANAR_PLANTS, seed=st.integers(0, 2 ** 16),
           p11=st.floats(0.5, 3.0), p12=st.floats(-0.4, 0.4), p22=st.floats(0.5, 3.0))
    def test_rows_equal_pointwise_lie_derivatives(self, spec, seed, p11, p12, p22):
        with warnings.catch_warnings(record=True):  # unstabilizable draws warn
            sys_ = load_system(spec)
        V = local_quadratic_clf([[p11, p12], [p12, p22]])
        pts = sample_box(Box.centered([1.5, 1.5]), 64, seed=seed)
        sweep = lie_sweep(V, sys_, pts)
        for i, x in enumerate(pts):
            la, lb = lie_derivatives(V, sys_, x)
            assert sweep.la[i] == la
            assert np.array_equal(sweep.lb[i], lb)
            assert sweep.values[i] == V.value(x)
            assert sweep.kernel_tol[i] == kernel_tol(V.gradient(x))


    def test_rejects_points_of_another_width(self):
        sys_ = scalar_system(lambda x: x, lambda x: 1.0)
        # a (5, 2) array is not ten states of a one-state plant
        with pytest.raises(ValueError, match="need 1 coordinates"):
            lie_sweep(quadratic_v(), sys_, sample_box(Box.centered([1.0, 1.0]), 5))


class TestArtstein:
    def test_controlled_scalar_passes(self):
        sys_ = scalar_system(lambda x: x, lambda x: 1.0)
        report = check_artstein_sampled(box_sweep(quadratic_v(), sys_, Box.centered([2.0])))
        assert report.passed
        assert report.kernel_hits == 0
        assert report.checked > 1500

    def test_driftless_stable_passes_with_kernel_everywhere(self):
        # stable drift, no input: stabilizable pair, no warning expected
        sys_ = scalar_system(lambda x: -x, lambda x: 0.0)
        report = check_artstein_sampled(box_sweep(quadratic_v(), sys_, Box.centered([2.0])))
        assert report.passed
        assert report.kernel_hits == report.checked

    def test_uncontrollable_unstable_fails(self):
        with pytest.warns(UserWarning):
            sys_ = scalar_system(lambda x: x, lambda x: 0.0)
        report = check_artstein_sampled(box_sweep(quadratic_v(), sys_, Box.centered([2.0])))
        assert not report.passed
        assert len(report.violations) == report.kernel_hits

    def test_report_round_trip(self):
        sys_ = scalar_system(lambda x: x, lambda x: 1.0)
        d = check_artstein_sampled(box_sweep(quadratic_v(), sys_, Box.centered([1.0]))).to_dict()
        assert set(d) == {"checked", "kernel_hits", "violations", "passed"}
        assert d["passed"] is True


class TestFindR0:
    def test_cubic_threshold_at_unit_level(self):
        # x' = x^3 + u with u = -x: Vdot = 2x^4 - 2x^2 < 0 iff x^2 < 1
        sys_ = scalar_system(lambda x: x ** 3, lambda x: 1.0)
        grid = [0.25, 0.5, 0.8, 0.9, 1.1]
        r0 = find_r0(level_sweep(quadratic_v(), sys_, grid), np.array([[-1.0]]), grid)
        assert r0 == 0.9

    def test_cubic_threshold_scales_with_gain(self):
        # u = -2x moves the crossing to x^2 = 2
        sys_ = scalar_system(lambda x: x ** 3, lambda x: 1.0)
        grid = [0.5, 1.0, 1.5, 1.9, 2.5]
        r0 = find_r0(level_sweep(quadratic_v(), sys_, grid), np.array([[-2.0]]), grid)
        assert r0 == 1.9

    def test_linear_plant_passes_largest_level(self):
        sys_ = scalar_system(lambda x: x, lambda x: 1.0)
        grid = [0.5, 1.0, 4.0]
        r0 = find_r0(level_sweep(quadratic_v(), sys_, grid), np.array([[-2.0]]), grid)
        assert r0 == 4.0

    def test_empty_levels_skipped(self):
        sys_ = scalar_system(lambda x: x ** 3, lambda x: 1.0)
        grid = [1e-12, 0.9]
        r0 = find_r0(level_sweep(quadratic_v(), sys_, grid), np.array([[-1.0]]), grid)
        assert r0 == 0.9

    def test_requires_stabilizing_gain(self):
        sys_ = scalar_system(lambda x: x, lambda x: 1.0)
        with pytest.raises(ValueError, match="stabilize"):
            find_r0(level_sweep(quadratic_v(), sys_, [1.0]), np.array([[0.0]]), [1.0])

    def test_raises_when_all_levels_fail(self):
        sys_ = scalar_system(lambda x: x ** 3, lambda x: 1.0)
        grid = [2.0, 3.0]
        with pytest.raises(CertificateError, match="no grid level"):
            find_r0(level_sweep(quadratic_v(), sys_, grid), np.array([[-1.0]]), grid)

    def test_rejects_bad_grid(self):
        sys_ = scalar_system(lambda x: x, lambda x: 1.0)
        sweep = box_sweep(quadratic_v(), sys_, Box.centered([2.0]))
        with pytest.raises(ValueError):
            find_r0(sweep, np.array([[-2.0]]), [])
        with pytest.raises(ValueError):
            find_r0(sweep, np.array([[-2.0]]), [-1.0, 1.0])


class TestBlendProfile:
    def test_endpoints_and_midpoint(self):
        rho = blend_profile(2.0)
        assert rho(0.0) == 0.0
        assert rho(1.0) == 0.0
        assert rho(1.5) == pytest.approx(0.5)
        assert rho(2.0) == 1.0
        assert rho(10.0) == 1.0

    def test_monotone(self):
        rho = blend_profile(1.0)
        s = np.linspace(0.0, 1.5, 400)
        vals = np.array([rho(si) for si in s])
        assert np.all(np.diff(vals) >= 0.0)

    def test_c1_at_the_seams(self):
        rho = blend_profile(1.0)
        h = 1e-6
        for s in (0.5, 1.0):
            d = (rho(s + h) - rho(s - h)) / (2 * h)
            assert abs(d) < 1e-5

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            blend_profile(0.0)
        with pytest.raises(ValueError):
            BlendProfile(-1.0)


class TestPositivityProperness:
    def test_quadratic_passes(self):
        report = check_positivity_properness(quadratic_v(), Box.centered([2.0]))
        assert report.passed
        assert report.min_interior >= 0.0
        assert report.boundary_min > report.core_max

    def test_flattening_candidate_fails_properness(self):
        # x^2 exp(-x^2) decays toward the boundary of a wide box
        V = Clf(1, lambda x: x[..., 0] ** 2 * np.exp(-x[..., 0] ** 2))
        report = check_positivity_properness(V, Box.centered([3.0]))
        assert not report.proper
        assert not report.passed

    def test_sign_flip_detected(self):
        # x^2 - x^4 goes negative past |x| = 1
        V = Clf(1, lambda x: x[..., 0] ** 2 - x[..., 0] ** 4)
        report = check_positivity_properness(V, Box.centered([2.0]))
        assert report.negative_states
        assert not report.passed

    def test_report_round_trip(self):
        d = check_positivity_properness(quadratic_v(), Box.centered([1.0])).to_dict()
        assert set(d) == {"min_interior", "negative_states", "boundary_min",
                          "core_max", "proper", "passed"}
