import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_continuous_are, solve_continuous_lyapunov

from clfsynth import linear_core
from clfsynth.errors import CertificateError
from clfsynth.linear_core import (
    LinearSystem, RiccatiCertificate, is_hurwitz, lqr_gain, riccati_residual, solve_care,
    solve_lyapunov, spectral_abscissa, stabilizing_gain, undetectable_modes,
    unstabilizable_modes)

SQ2 = np.sqrt(2.0)
SQ3 = np.sqrt(3.0)


def random_stabilizable(rng, n, p):
    while True:
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, p))
        if not unstabilizable_modes(A, B):
            return A, B


def random_detectable_weight(rng, A, n):
    while True:
        C = rng.standard_normal((max(1, n // 2), n))
        Q = C.T @ C
        if not undetectable_modes(A, Q):
            return Q


def _screened_care_instance(rng, n, p):
    """One draw of size (n, p), or None when the screen rejects it.

    Near-unstabilizable draws can push ||P|| so high that the residual of
    even the exact solution, evaluated in double precision, exceeds the
    acceptance bar 1e-8 (1 + ||Q||_F); no solver can certify those. The
    reference solution screens them out: an instance is kept only when
    the reference residual sits far below the bar.
    """
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, p))
    if unstabilizable_modes(A, B):
        return None
    C = rng.standard_normal((max(1, n // 2), n))
    Q = C.T @ C + 1e-6 * np.eye(n)
    if undetectable_modes(A, Q):
        return None
    R = np.eye(p) * float(rng.uniform(0.2, 3.0))
    P_ref = solve_continuous_are(A, B, Q, R)
    bar = 1e-8 * (1.0 + np.linalg.norm(Q, ord="fro"))
    res = np.linalg.norm(riccati_residual(A, B, Q, R, P_ref), ord="fro")
    return (A, B, Q, R, P_ref) if res <= 0.05 * bar else None


def well_posed_care_instance(rng, n_max=10, p_max=3):
    """Random stabilizable/detectable instance with a measurable residual bar."""
    while True:
        n = int(rng.integers(1, n_max + 1))
        p = int(rng.integers(1, min(n, p_max) + 1))
        instance = _screened_care_instance(rng, n, p)
        if instance is not None:
            return instance


def chain_instance(n):
    """Backstepping chain x_i' = x_(i+1) + lower triangular coupling, u at x_n."""
    rng = np.random.default_rng(1000 + n)
    A = np.diag(np.ones(n - 1), 1) + 0.3 * np.tril(rng.standard_normal((n, n)))
    return A, np.eye(n)[:, -1:]


def count_lyapunov_solves(monkeypatch):
    """Wrap linear_core.solve_lyapunov; the returned list holds the call count."""
    calls = [0]
    inner = linear_core.solve_lyapunov

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(linear_core, "solve_lyapunov", counted)
    return calls


class TestHurwitz:
    def test_stable(self):
        assert is_hurwitz(np.array([[-1.0, 0.0], [0.0, -0.5]]))

    def test_unstable(self):
        assert not is_hurwitz(np.array([[0.1]]))

    def test_marginal_fails_margin(self):
        # abscissa 0 sits inside the default margin
        assert not is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_abscissa(self):
        A = np.diag([-3.0, -1.0, -0.2])
        assert spectral_abscissa(A) == pytest.approx(-0.2)


class TestPbh:
    def test_unstabilizable_mode_named(self):
        A = np.diag([1.0, -1.0])
        B = np.array([[0.0], [1.0]])
        modes = unstabilizable_modes(A, B)
        assert len(modes) == 1
        assert modes[0] == pytest.approx(1.0)

    def test_stabilizable_pair_clean(self):
        A = np.diag([1.0, -1.0])
        B = np.array([[1.0], [1.0]])
        assert unstabilizable_modes(A, B) == []

    def test_linear_system_rejects_unstabilizable(self):
        with pytest.raises(ValueError):
            LinearSystem(np.diag([1.0, -1.0]), np.array([[0.0], [1.0]]))

    def test_undetectable_mode(self):
        A = np.diag([1.0, -1.0])
        Q = np.diag([0.0, 1.0])
        modes = undetectable_modes(A, Q)
        assert len(modes) == 1 and modes[0] == pytest.approx(1.0)

    def test_stacked_test_matches_loop(self):
        # the rank test of each eigenvalue with Re >= 0, one SVD at a time
        def reference(A, B):
            return [lam for lam in np.linalg.eigvals(A) if lam.real >= 0 and (
                s := np.linalg.svd(np.hstack([A - lam * np.eye(len(A)), B]),
                                   compute_uv=False))[-1] <= 1e-10 * s[0]]

        rng = np.random.default_rng(24)
        found = 0
        for _ in range(200):
            n = int(rng.integers(1, 13))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, int(rng.integers(1, 4))))
            if rng.random() < 0.5:
                # an uncontrollable block: B reaches only the last n - k states
                k = int(rng.integers(1, n + 1))
                A[k:, :k] = 0.0
                B[:k] = 0.0
            modes = unstabilizable_modes(A, B)
            assert modes == reference(A, B)
            found += bool(modes)
        # the uncontrollable blocks make the comparison cover failing modes
        assert found > 10

    def test_uncontrollable_complex_pair_reports_both(self):
        A = np.zeros((3, 3))
        A[:2, :2] = [[0.0, 1.0], [-1.0, 0.0]]
        A[2, 2] = -1.0
        B = np.array([[0.0], [0.0], [1.0]])
        modes = unstabilizable_modes(A, B)
        assert sorted(modes, key=lambda lam: lam.imag) == pytest.approx([-1j, 1j])
        with pytest.raises(ValueError, match="not stabilizable") as caught:
            LinearSystem(A, B)
        assert all(str(lam) in str(caught.value) for lam in modes)


class TestLyapunov:
    def test_matches_scipy(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 5, 6, 8, 12, 20, 30, 50):
            M = rng.standard_normal((n, n))
            # complex spectra exercise the complex Schur form
            while n > 1 and not np.any(np.linalg.eigvals(M).imag):
                M = rng.standard_normal((n, n))
            A = M - (spectral_abscissa(M) + 1.0) * np.eye(n)
            C = rng.standard_normal((n, n))
            Q = C.T @ C + np.eye(n)
            with warnings.catch_warnings():
                # a well-conditioned equation raises no conditioning warning
                warnings.simplefilter("error")
                P = solve_lyapunov(A, Q)
            # scipy solves A X + X A^H = Q; ours solves A'P + PA = -Q
            X = solve_continuous_lyapunov(A.T, -Q)
            assert np.allclose(P, X, atol=1e-9)
            assert np.allclose(A.T @ P + P @ A, -Q, atol=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 60])
    def test_schur_kernel_residual(self, n):
        rng = np.random.default_rng(n)
        T = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        T[np.diag_indices(n)] = -rng.uniform(0.1, 3.0, n) + 1j * rng.standard_normal(n)
        C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Y = linear_core._schur_lyapunov(T, C)
        # relative to the sizes of the terms (a normwise backward error): the
        # O(1) off-diagonal of T lets ||Y|| reach 1e12 at n = 60
        residual = np.linalg.norm(T.conj().T @ Y + Y @ T + C)
        assert residual <= 1e-12 * (np.linalg.norm(C) + 2 * np.linalg.norm(T) * np.linalg.norm(Y))

    def test_near_singular_eigenvalue_sum_raises(self):
        # -2e-9 + -2e-9 lies below eps ||A_cl|| = 2.2e-8: LAPACK perturbs the
        # sum and its solution is wrong, so the solver must refuse
        with pytest.raises(CertificateError, match="near singular: eigenvalue sum -4.000e-09"):
            solve_lyapunov(np.diag([-2e-9, -1e8]), np.eye(2))

    def test_ill_conditioned_warns(self):
        with pytest.warns(UserWarning, match="ill conditioned"):
            P = solve_lyapunov(np.diag([-1e-8, -1e6]), np.eye(2))
        assert np.allclose(P, np.diag([0.5e8, 0.5e-6]))

    def test_rejects_unstable(self):
        with pytest.raises(CertificateError):
            solve_lyapunov(np.array([[1.0]]), np.eye(1))

    def test_symmetric_output(self):
        P = solve_lyapunov(np.array([[-2.0, 1.0], [0.0, -1.0]]), np.eye(2))
        assert np.array_equal(P, P.T)


class TestStabilizingGain:
    def test_already_stable_returns_zero(self):
        K = stabilizing_gain(np.array([[-1.0]]), np.array([[1.0]]))
        assert np.array_equal(K, np.zeros((1, 1)))

    def test_scalar_unstable(self):
        A, B = np.array([[1.0]]), np.array([[1.0]])
        K = stabilizing_gain(A, B)
        assert is_hurwitz(A + B @ K)

    def test_near_zero_dynamics(self):
        # tiny nonzero entries must not shrink the shift below the margin
        A = np.array([[2.1e-12]])
        K = stabilizing_gain(A, np.array([[1.0]]))
        assert is_hurwitz(A + np.array([[1.0]]) @ K)

    def test_slow_oscillator(self):
        # time constants of hours: the shift has to follow the plant scale
        eta = 7.292e-5
        A = np.array([[0.0, 2 * eta, 0.0], [0.0, 0.0, -eta], [0.0, eta, 0.0]])
        B = np.array([[0.0], [0.0], [0.33]])
        K = stabilizing_gain(A, B)
        assert is_hurwitz(A + B @ K)

    def test_random_batch(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            p = int(rng.integers(1, 4))
            A, B = random_stabilizable(rng, n, p)
            K = stabilizing_gain(A, B)
            assert is_hurwitz(A + B @ K)

    @pytest.mark.parametrize("n", [20, 24, 30])
    def test_backstepping_chain(self, n):
        A, B = chain_instance(n)
        K = stabilizing_gain(A, B)
        assert is_hurwitz(A + B @ K)


class TestCare:
    def test_scalar_closed_form(self):
        # 2P - P^2 + 1 = 0, stabilizing root 1 + sqrt(2)
        sys_ = LinearSystem(np.array([[1.0]]), np.array([[1.0]]))
        cert = solve_care(sys_, np.eye(1), np.eye(1))
        assert cert.P[0, 0] == pytest.approx(1.0 + SQ2, abs=1e-9)
        K = lqr_gain(cert, sys_, np.eye(1))
        assert K[0, 0] == pytest.approx(-(1.0 + SQ2), abs=1e-9)

    def test_double_integrator_closed_form(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        cert = solve_care(LinearSystem(A, B), np.eye(2), np.eye(1))
        expected = np.array([[SQ3, 1.0], [1.0, SQ3]])
        assert np.allclose(cert.P, expected, atol=1e-9)

    def test_matches_scipy_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            A, B, Q, R, P_ref = well_posed_care_instance(rng)
            cert = solve_care(LinearSystem(A, B), Q, R)
            assert np.allclose(cert.P, P_ref, atol=1e-6 * (1 + np.linalg.norm(P_ref)))
            assert cert.residual_norm <= 1e-8 * (1.0 + np.linalg.norm(Q, ord="fro"))

    def test_certificate_fields(self):
        sys_ = LinearSystem(np.array([[1.0]]), np.array([[1.0]]))
        cert = solve_care(sys_, np.eye(1), np.eye(1))
        assert cert.residual_norm <= 1e-8 * 2.0
        assert cert.closed_loop_spectral_abscissa < 0
        d = cert.to_dict()
        assert set(d) == {"P", "residual_norm", "closed_loop_spectral_abscissa"}

    def test_detectability_error_names_mode(self):
        sys_ = LinearSystem(np.diag([1.0, -1.0]), np.array([[1.0], [1.0]]))
        Q = np.diag([0.0, 1.0])
        with pytest.raises(ValueError, match="1.0"):
            solve_care(sys_, Q, np.eye(1))

    def test_indefinite_weight_rejected(self):
        sys_ = LinearSystem(np.array([[1.0]]), np.array([[1.0]]))
        with pytest.raises(ValueError):
            solve_care(sys_, -np.eye(1), np.eye(1))
        with pytest.raises(ValueError):
            solve_care(sys_, np.eye(1), np.zeros((1, 1)))

    def test_iteration_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(5)
        A, B = random_stabilizable(rng, 6, 2)
        Q = random_detectable_weight(rng, A, 6)
        # seed with the LQ gain for 100 Q: stabilizing, but not optimal,
        # so one Newton step cannot meet the bar
        seed = linear_core._hamiltonian_gain
        monkeypatch.setattr(linear_core, "_hamiltonian_gain",
                            lambda A, B, Q, R: seed(A, B, 100.0 * Q, R))
        with monkeypatch.context() as capped:
            capped.setattr(linear_core, "_MAX_NEWTON_ITER", 1)
            with pytest.raises(CertificateError, match="did not converge") as err:
                solve_care(LinearSystem(A, B), Q, np.eye(2))
        residual = float(re.search(r"residual (\S+)", str(err.value)).group(1))
        assert residual == pytest.approx(3.26e2, rel=1e-2)
        # the default cap reaches the bar from the same seed
        calls = count_lyapunov_solves(monkeypatch)
        cert = solve_care(LinearSystem(A, B), Q, np.eye(2))
        assert cert.residual_norm <= 1e-10 * (1.0 + np.linalg.norm(Q, ord="fro"))
        assert 1 < calls[0] < linear_core._MAX_NEWTON_ITER

    def test_seed_failing_hurwitz_test_falls_back(self, monkeypatch):
        # a zero seed leaves the double integrator unstable: the gain comes
        # from stabilizing_gain, and the closed form is still reached
        seed = linear_core._hamiltonian_gain
        calls = []

        def zero_first(A, B, Q, R):
            calls.append(Q)
            return np.zeros((1, 2)) if len(calls) == 1 else seed(A, B, Q, R)

        monkeypatch.setattr(linear_core, "_hamiltonian_gain", zero_first)
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        cert = solve_care(LinearSystem(A, np.array([[0.0], [1.0]])), np.eye(2), np.eye(1))
        assert len(calls) == 2
        assert np.allclose(cert.P, [[SQ3, 1.0], [1.0, SQ3]], atol=1e-9)

    @pytest.mark.parametrize("n", [20, 30, 40, 50])
    def test_large_instance_one_newton_step(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        instance = None
        while instance is None:
            instance = _screened_care_instance(rng, n, round(n / 4))
        A, B, Q, R, P_ref = instance
        calls = count_lyapunov_solves(monkeypatch)
        cert = solve_care(LinearSystem(A, B), Q, R)
        assert calls[0] == 1
        assert np.allclose(cert.P, P_ref, atol=1e-6 * (1 + np.linalg.norm(P_ref)))
        assert cert.residual_norm <= 1e-8 * (1.0 + np.linalg.norm(Q, ord="fro"))

    @pytest.mark.parametrize("n", [16, 20, 24, 30])
    def test_backstepping_chain_beyond_double_precision(self, n, monkeypatch):
        # the exact P of these chains is so large that no double-precision
        # P meets the residual bar (scipy's residual is 1.05e11 at n = 20):
        # the solver must say so with a typed error, and stop once the
        # residual stalls instead of running to the iteration cap
        A, B = chain_instance(n)
        calls = count_lyapunov_solves(monkeypatch)
        with pytest.warns(UserWarning, match="ill conditioned") as caught, \
                pytest.raises(CertificateError, match="did not converge"):
            solve_care(LinearSystem(A, B), np.eye(n), np.eye(1))
        assert calls[0] <= 10
        assert len(caught) <= 10

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_weight_scaling_property(self, c):
        # P(cQ, cR) = c P(Q, R)
        sys_ = LinearSystem(np.array([[0.3, 1.0], [0.0, -0.2]]),
                            np.array([[0.0], [1.0]]))
        base = solve_care(sys_, np.eye(2), np.eye(1)).P
        scaled = solve_care(sys_, c * np.eye(2), c * np.eye(1)).P
        assert np.allclose(scaled, c * base, atol=1e-6 * (1 + c))

    def test_lqr_closed_loop_hurwitz_batch(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            A, B, Q, R, _ = well_posed_care_instance(rng)
            sys_ = LinearSystem(A, B)
            cert = solve_care(sys_, Q, R)
            K = lqr_gain(cert, sys_, R)
            assert is_hurwitz(A + B @ K)


class TestRiccatiCertificate:
    def test_rejects_asymmetric(self):
        with pytest.raises(CertificateError, match="symmetric"):
            RiccatiCertificate(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.0, -1.0)

    def test_rejects_indefinite(self):
        with pytest.raises(CertificateError, match="positive definite"):
            RiccatiCertificate(np.array([[-1.0]]), 0.0, -1.0)

    def test_rejects_unstable_abscissa(self):
        with pytest.raises(CertificateError, match="Hurwitz"):
            RiccatiCertificate(np.eye(1), 0.0, 0.5)

    def test_residual_helper(self):
        A = np.array([[1.0]])
        B = np.array([[1.0]])
        P = np.array([[1.0 + SQ2]])
        res = riccati_residual(A, B, np.eye(1), np.eye(1), P)
        assert res == pytest.approx(0.0, abs=1e-12)

