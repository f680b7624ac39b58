"""Tests for the orbit transfer model and its layered design.

Hand-checked oracles for the unit parameter set (p0 = mu = 1, so
eta = nu = 1):

* in-plane Riccati solution for Q0 = I, R_r = 1:
  P0 = [[(2+s2)/2, 1+s2, -1], [1+s2, 2+3 s2, -(1+s2)], [-1, -(1+s2), 1+s2]]
  with s2 = sqrt(2); verified below against an independent dense solver.
* coupling matrix: corner 4 rho1^2 / (eta^2 R_theta) = 16 at the default
  rho1 = 2, eigenvalues [0.6646463415512391, 1, 1, 16.33535365844876].
* the unforced field conserves chi5^2 + chi6^2 (out-of-plane rotation) and
  vanishes identically at the equilibrium (0, 0, 0, p0, 0, 0).
* the six-state running cost is q4 + (1/4) LbV_h^2 / R_h, which is zero on
  pure chi6 offsets (the semidefinite direction) and positive on chi5 ones.
"""

import numpy as np
import pytest
from scipy.linalg import block_diag, solve_continuous_are

from test_sim_runner import record_calls

from clfsynth import clf, inverse_opt, numdiff
from clfsynth.errors import CertificateError, ConfigError, DivergenceError
from clfsynth.inverse_opt import hjb_residual
from clfsynth.orbital import (
    OrbitalCostConfig,
    OrbitalParams,
    build_orbital_controller,
    equilibrium,
    orbital_drift,
    orbital_input_matrix,
    orbital_linearization,
    orbital_restriction,
    orbital_system,
    simulate_orbital,
)
from clfsynth.runner import load_config
from clfsynth.sampling import Box, sample_box
from clfsynth.sim import rk4_path

S2 = np.sqrt(2.0)
P0_UNIT = np.array([
    [(2.0 + S2) / 2.0, 1.0 + S2, -1.0],
    [1.0 + S2, 2.0 + 3.0 * S2, -(1.0 + S2)],
    [-1.0, -(1.0 + S2), 1.0 + S2],
])


@pytest.fixture(scope="module")
def unit_design():
    par = OrbitalParams()
    cfg = OrbitalCostConfig.build(par)
    V, cost, law = build_orbital_controller(par, cfg, n_samples=400, k_max=4)
    return par, cfg, V, cost, law


class TestParams:
    def test_scale_identities(self):
        par = OrbitalParams(p0=4.0, mu=2.0)
        assert par.nu == pytest.approx(np.sqrt(2.0), rel=1e-14)
        assert par.eta == pytest.approx(1.0 / (4.0 * np.sqrt(2.0)), rel=1e-14)
        assert par.nu_bar == pytest.approx(par.nu * 2.0, rel=1e-14)
        assert par.eta_bar == pytest.approx(par.eta / 2.0, rel=1e-14)

    def test_validation_and_round_trip(self):
        with pytest.raises(ValueError, match="must be positive"):
            OrbitalParams(p0=0.0)
        par = OrbitalParams(p0=3.0, mu=0.5)
        assert OrbitalParams(**par.to_dict()) == par


class TestVectorField:
    def test_equilibrium_is_exact(self):
        for par in (OrbitalParams(), OrbitalParams(p0=2.5, mu=0.7)):
            assert np.max(np.abs(orbital_drift(par, equilibrium(par)))) <= 1e-14

    def test_out_of_plane_rotation_is_orthogonal(self):
        par = OrbitalParams()
        s = np.array([0.1, 0.05, -0.05, 1.1, 0.3, -0.2])
        d = orbital_drift(par, s)
        assert d[4] * s[4] + d[5] * s[5] == 0.0

    def test_unforced_flow_conserves_inclination_radius(self):
        par = OrbitalParams()
        s0 = np.array([0.1, 0.05, -0.05, 1.1, 0.3, -0.2])
        states = rk4_path(lambda s: orbital_drift(par, s), s0, 0.01, 1000)
        c = states[:, 4] ** 2 + states[:, 5] ** 2
        assert np.max(np.abs(c - c[0])) <= 1e-8

    def test_domain_breach_rejected(self):
        par = OrbitalParams()
        with pytest.raises(ValueError, match="admissible domain"):
            orbital_drift(par, np.array([0.0, -1.5, 0.0, 1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="admissible domain"):
            orbital_input_matrix(par, np.array([0.0, 0.0, 0.0, -1.0, 0.0, 0.0]))

    def test_scale_coordinate_is_unforced_in_drift(self):
        par = OrbitalParams()
        s = np.array([0.2, -0.1, 0.3, 0.8, 0.1, 0.2])
        assert orbital_drift(par, s)[3] == 0.0


class TestReductions:
    def test_inplane_restriction_is_termwise(self):
        par = OrbitalParams(p0=2.0, mu=1.5)
        eta, nu = par.eta, par.nu
        sys3 = orbital_restriction(par, 3, 1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            s3 = rng.uniform(-0.3, 0.3, size=3)
            ur = float(rng.uniform(-1.0, 1.0))
            s6 = np.append(s3, [par.p0, 0.0, 0.0])
            full = orbital_drift(par, s6) + orbital_input_matrix(par, s6) @ [ur, 0.0, 0.0]
            c1, c2, c3 = s3
            # the in-plane equations with chi4 = p0 written out by hand; only
            # (1 + c2) - 1 vs c2 rounding differs
            oracle = [par.eta_bar * np.sqrt(par.p0) * (1.0 + c2) ** 2 - eta,
                      -eta * (1.0 + c2) ** 2 * c3,
                      eta * (1.0 + c2) ** 2 * c2 + nu * ur]
            assert np.allclose(full[:3], oracle, rtol=0.0, atol=1e-14)
            assert np.array_equal(sys3.a(s3) + sys3.b(s3) @ [ur], full[:3])
            # the restricted slice is invariant: remaining rows vanish
            assert np.max(np.abs(full[3:])) == 0.0

    def test_four_state_rows_match_full(self):
        par = OrbitalParams()
        star = equilibrium(par)
        r4 = orbital_restriction(par, 4, 2)
        z4 = np.array([0.1, -0.05, 0.08, 0.2])
        s6 = star + np.append(z4, [0.0, 0.0])
        assert np.array_equal(r4.a(z4), orbital_drift(par, s6)[:4])
        assert np.array_equal(r4.b(z4),
                              orbital_input_matrix(par, s6)[:4, :2])

    def test_inplane_input_column(self):
        par = OrbitalParams()
        sys3 = orbital_restriction(par, 3, 1)
        assert np.allclose(sys3.b(np.array([0.1, 0.2, -0.1])),
                           [[0.0], [0.0], [par.nu]])


class TestLinearization:
    def test_jacobian_matches_finite_differences(self):
        par = OrbitalParams(p0=1.5, mu=0.8)
        star = equilibrium(par)
        A, B = orbital_linearization(par)
        A_fd = numdiff.jacobian(lambda z: orbital_drift(par, star + z),
                                np.zeros(6))
        assert np.max(np.abs(A - A_fd)) <= 1e-8
        assert np.array_equal(B, orbital_input_matrix(par, star))

    def test_block_structure(self):
        A, _ = orbital_linearization(OrbitalParams())
        assert np.max(np.abs(A[3, :])) == 0.0
        assert np.max(np.abs(A[:4, 4:])) == 0.0
        assert np.max(np.abs(A[4:, :4])) == 0.0

    def test_reduced_assembly(self):
        par = OrbitalParams()
        A, B = orbital_linearization(par)
        assert np.allclose(A[:4, :4], [[0.0, 2.0, 0.0, 0.5],
                                       [0.0, 0.0, -1.0, 0.0],
                                       [0.0, 1.0, 0.0, 1.0],
                                       [0.0, 0.0, 0.0, 0.0]])
        assert np.allclose(B[:4, :2], [[0.0, 0.0], [0.0, 0.0],
                                       [1.0, 0.0], [0.0, 2.0]])
        # each restriction carries exactly the matching slice of (A, B)
        for n, p in ((3, 1), (4, 2)):
            lin = orbital_restriction(par, n, p).linearization
            assert np.array_equal(lin.A, A[:n, :n])
            assert np.array_equal(lin.B, B[:n, :p])


class TestCostConfig:
    def test_inplane_riccati_closed_form(self):
        cfg = OrbitalCostConfig.build(OrbitalParams())
        assert np.allclose(cfg.P0, P0_UNIT, atol=1e-8)
        assert cfg.care_residual <= 1e-8 * (1.0 + np.linalg.norm(cfg.Q0))

    def test_inplane_riccati_independent_solver(self):
        par = OrbitalParams(p0=1.8, mu=1.2)
        cfg = OrbitalCostConfig.build(par, R_r=0.5)
        A, B = orbital_linearization(par)
        P_ref = solve_continuous_are(A[:3, :3], B[:3, :1], np.eye(3),
                                     np.array([[0.5]]))
        assert np.allclose(cfg.P0, P_ref, atol=1e-8 * (1 + np.linalg.norm(P_ref)))

    def test_coupling_matrix_spectrum(self):
        cfg = OrbitalCostConfig.build(OrbitalParams())
        assert cfg.Q_tilde[3, 3] == pytest.approx(16.0, rel=1e-12)
        eigs = np.linalg.eigvalsh(cfg.Q_tilde)
        assert np.allclose(eigs, [0.6646463415512391, 1.0, 1.0,
                                  16.33535365844876], rtol=1e-10)

    def test_weak_coupling_rejected(self):
        with pytest.raises(CertificateError, match="increase rho1 or decrease"):
            OrbitalCostConfig.build(OrbitalParams(), rho1=0.05)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="weights must be positive"):
            OrbitalCostConfig.build(OrbitalParams(), R_h=0.0)

    def test_dict_round_trip(self):
        par = OrbitalParams()
        cfg = OrbitalCostConfig.build(par, rho1=3.0, R_theta=2.0)
        d = cfg.to_dict()
        derived = ("P0", "Q_tilde", "care_residual")
        cfg2 = OrbitalCostConfig.build(par, **{k: v for k, v in d.items() if k not in derived})
        assert np.allclose(cfg2.P0, cfg.P0)
        assert cfg2.rho1 == 3.0 and cfg2.R_theta == 2.0
        assert np.allclose(cfg2.Q_tilde, cfg.Q_tilde)
        # the derived entries are not settable: a run config naming them is refused
        with pytest.raises(ConfigError, match="orbital_cost.P0.*orbital_cost.Q_tilde"
                                              ".*orbital_cost.care_residual"):
            load_config({"system": "orbital", "orbital_cost": d})


class TestSharedSweeps:
    def test_box4_points_swept_once_for_both_scans(self, monkeypatch):
        par = OrbitalParams()
        cfg = OrbitalCostConfig.build(par)
        sweeps = record_calls(monkeypatch, clf, "lie_sweep")
        blend_scans = record_calls(monkeypatch, clf, "find_r0")
        base_scans = record_calls(monkeypatch, inverse_opt, "find_base_level")
        build_orbital_controller(par, cfg, n_samples=400, k_max=4)
        on_box4 = []
        for seed in (0, 1):
            points = sample_box(Box.centered([0.5, 0.5, 0.5, 0.5]), 400, seed=seed)
            on_box4 += [out for _, out in sweeps if np.array_equal(out.points, points)]
        assert len(on_box4) == 2
        assert not blend_scans
        assert len(base_scans) == 1 and base_scans[0][0][0] is on_box4[0]


class TestLayeredDesign:
    def test_metadata_and_radii(self, unit_design):
        par, cfg, _, _, law = unit_design
        meta = law.metadata
        V_t = clf.local_quadratic_clf(block_diag(cfg.P0, cfg.rho1))
        cost4 = inverse_opt.level_scaled_cost(
            V_t, orbital_restriction(par, 4, 2), cfg.Q_tilde, np.diag([cfg.R_r, cfg.R_theta]),
            Box.centered([0.5] * 4), np.geomspace(0.01, 2.0, 40), k_max=4, n_samples=400)
        assert "r0" not in meta and "ladder" not in meta
        scaling = meta["cost"].scaling
        assert scaling is meta["cost4"].scaling
        assert scaling.r0 == cost4.scaling.r0
        assert scaling.ladder == cost4.scaling.ladder
        assert all(l >= 1.0 for l in scaling.ladder)

    def test_six_state_weight_adds_the_normal_channel(self, unit_design):
        par, cfg, V, cost, law = unit_design
        cost4 = law.metadata["cost4"]
        sys6 = orbital_system(par)
        for z in sample_box(Box.centered([0.3] * 6), 200, seed=7):
            _, lb = clf.lie_derivatives(V, sys6, z)
            oracle = cost4.q(z[:4]) + 0.25 * lb[2] ** 2 / cfg.R_h
            assert abs(cost.q(z) - oracle) <= 1e-12 * abs(oracle)

    def test_four_state_weights_are_cost_q(self, unit_design):
        par, _, _, _, law = unit_design
        cost4 = law.metadata["cost4"]
        sweep = clf.lie_sweep(cost4.V, orbital_restriction(par, 4, 2),
                              sample_box(Box.centered([0.3] * 4), 200, seed=9))
        sweep = sweep.rows(sweep.values <= cost4.scaling.certified_top)
        q = inverse_opt.state_weights(sweep, cost4)
        assert len(q) > 100
        np.testing.assert_allclose(q, [cost4.q(x) for x in sweep.points],
                                   rtol=1e-14, atol=1e-15)

    def test_six_state_weights_are_cost_q(self, unit_design):
        # the six-state r follows the four-state level, which state_weights
        # reads row by row instead of the sweep's six-state values
        par, _, V, cost, _ = unit_design
        sweep = clf.lie_sweep(V, orbital_system(par),
                              sample_box(Box.centered([0.15] * 6), 200, seed=9))
        np.testing.assert_allclose(inverse_opt.state_weights(sweep, cost),
                                   [cost.q(z) for z in sweep.points], rtol=1e-14, atol=1e-15)

    def test_six_state_stage_reads_only_the_four_state_level(self, unit_design, monkeypatch):
        par, _, V, cost, law = unit_design
        z = np.array([0.1, 0.05, -0.05, 0.1, 0.05, -0.05])
        g, b = V.gradient(z), orbital_system(par).b(z)
        u = law.map(z)
        monkeypatch.setattr(V, "value", lambda x: pytest.fail("six-state V evaluated"))
        assert cost.stage(z, g, b)[3].tobytes() == u.tobytes()

    def test_six_state_input_weight_is_block_diagonal(self, unit_design):
        _, cfg, _, cost, law = unit_design
        cost4 = law.metadata["cost4"]
        for z in sample_box(Box.centered([0.3] * 6), 200, seed=7):
            assert np.array_equal(cost.r(z), block_diag(cost4.r(z[:4]), cfg.R_h))

    def test_value_is_the_block_diagonal_form(self, unit_design):
        _, cfg, V, _, _ = unit_design
        quad = clf.local_quadratic_clf(block_diag(cfg.P0, cfg.rho1, cfg.rho2, cfg.rho2))
        for z in sample_box(Box.centered([0.5] * 6), 200, seed=3):
            assert V.value(z) == quad.value(z)
            assert np.array_equal(V.gradient(z), quad.gradient(z))

    def test_six_state_hjb_identity(self, unit_design):
        par, _, V, cost, _ = unit_design
        sys6 = orbital_system(par)
        # box small enough that V stays inside the certified scaling range
        box = Box.centered([0.15] * 6)
        worst = max(abs(hjb_residual(V, cost, sys6, z))
                    for z in sample_box(box, 100, seed=5))
        assert worst <= 1e-12

    def test_running_cost_semidefinite_direction(self, unit_design):
        _, _, _, cost, _ = unit_design
        # pure chi6 offsets cost nothing; chi5 offsets do
        assert cost.q(np.array([0.0, 0, 0, 0, 0, 0.3])) == 0.0
        assert cost.q(np.array([0.0, 0, 0, 0, 0.3, 0])) > 0.0

    def test_base_weight_block_structure(self, unit_design):
        par, cfg, _, cost, _ = unit_design
        assert np.allclose(cost.base_Q[:4, :4], cfg.Q_tilde)
        assert np.max(np.abs(cost.base_Q[:4, 4:])) == 0.0
        # only the first out-of-plane coordinate is weighted at the origin
        assert cost.base_Q[4, 4] == pytest.approx(
            cfg.rho2 ** 2 * (0.5 * par.nu) ** 2 / cfg.R_h, rel=1e-12)
        assert cost.base_Q[5, 5] == 0.0

    def test_lyapunov_hessian_stacks_weights(self, unit_design):
        par, cfg, V, _, _ = unit_design
        H = V.hessian_origin
        assert np.allclose(H[:3, :3], 2.0 * cfg.P0)
        assert H[3, 3] == pytest.approx(2.0 * cfg.rho1, rel=1e-12)
        assert H[4, 4] == H[5, 5] == pytest.approx(2.0 * cfg.rho2, rel=1e-12)


class TestSimulate:
    def test_closed_loop_converges_monotonically(self, unit_design):
        par, _, V, _, law = unit_design
        star = equilibrium(par)
        s0 = star + np.array([0.1, 0.05, -0.05, 0.1, 0.05, -0.05])
        traj = simulate_orbital(par, law, s0, 0.02, 5.0, V=V)
        vs = np.array(traj.annotations["V"])
        vdots = np.array(traj.annotations["Vdot"])
        assert vs[-1] < 0.02 * vs[0]
        assert np.max(vdots) < 0.0
        assert np.all(np.diff(vs) <= 1e-9 * (1.0 + vs[:-1]))
        errT = np.linalg.norm(traj.states[-1] - star)
        assert errT < 0.3 * np.linalg.norm(s0 - star)

    def test_annotations_optional(self, unit_design):
        par, _, _, _, law = unit_design
        s0 = equilibrium(par) + 0.02 * np.ones(6)
        traj = simulate_orbital(par, law, s0, 0.05, 0.5)
        assert traj.annotations == {}
        assert traj.states.shape[0] == traj.times.shape[0] == 11

    def test_coarse_step_aborts_with_domain_error(self, unit_design):
        par, _, _, _, law = unit_design
        s0 = equilibrium(par) + np.array([0.1, 0.05, -0.05, 0.1, 0.05, -0.05])
        with pytest.raises(DivergenceError, match="admissible domain") as exc:
            simulate_orbital(par, law, s0, 5.0, 50.0)
        assert exc.value.last_state is not None

    def test_domain_error_state_in_original_coordinates(self, unit_design):
        # the first step already leaves the domain, so the last recorded
        # state is s0 itself, not its offset from the target
        par, _, _, _, law = unit_design
        s0 = equilibrium(par) + np.array([0.1, 0.05, -0.05, 0.1, 0.05, -0.05])
        with pytest.raises(DivergenceError, match="admissible domain") as exc:
            simulate_orbital(par, law, s0, 5.0, 50.0)
        assert np.allclose(exc.value.last_state, s0, rtol=0.0, atol=1e-15)
        assert exc.value.last_time == 0.0
