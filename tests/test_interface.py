import math

import numpy as np
import pytest

from dryout import (
    EosModel,
    JumpInputs,
    boiling_temperature,
    f_jacobian,
    f_system,
    ideal_gas,
    jump_residuals,
    max_flux_scan,
    maxwell_construction,
    modified_quantities,
    sign_changes_modified,
    solve_interface,
)
from dryout import interface
from dryout.errors import (
    AllFailed,
    ContinuationFailed,
    DegenerateGap,
    InvalidInput,
    NoConvergence,
)
from dryout.numerics import fd_gradient, newton2d

from helpers import (
    FOLD_FLUX_09,
    SAT_REFS,
    V_L_09,
    perfbench_module,
    reduced,
    rel_err,
    strictly_increasing,
)


class TestJumpResiduals:
    def test_saturation_state_at_zero_flux(self):
        m = reduced()
        sat = maxwell_construction(m, 0.9)
        r_mom, r_en, r_alt = jump_residuals(
            m, JumpInputs(sat.v_l_star, sat.v_g_star, 0.9, 0.0))
        assert abs(r_mom) < 1e-9
        assert abs(r_en) < 1e-9
        assert abs(r_alt) < 1e-9

    def test_degenerate_gap_vanishes_identically(self):
        res = jump_residuals(reduced(), JumpInputs(0.7, 0.7, 0.8, 1.3))
        assert res == (0.0, 0.0, 0.0)

    def test_flux_constructed_from_momentum_balance(self):
        m = reduced()
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 50:
            v_l = rng.uniform(0.4, 0.9)
            v_g = rng.uniform(1.2, 10.0)
            theta = rng.uniform(0.5, 0.95)
            p_l = m.pressure(v_l, theta)
            p_g = m.pressure(v_g, theta)
            j_sq = (p_l - p_g) / (v_g - v_l)
            if j_sq <= 0.0:
                continue
            j = math.sqrt(j_sq)
            r_mom, r_en, r_alt = jump_residuals(m, JumpInputs(v_l, v_g, theta, j))
            assert abs(r_mom) < 1e-11
            assert abs(r_en - r_alt) < 1e-11
            checked += 1

    def test_rejects_inverted_volumes(self):
        with pytest.raises(InvalidInput):
            JumpInputs(2.0, 1.0, 0.9, 0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("index", range(4))
    def test_rejects_non_finite_values(self, index, value):
        args = [0.6, 2.3, 0.9, 0.1]
        args[index] = value
        with pytest.raises(InvalidInput, match="must be finite"):
            JumpInputs(*args)


class TestFSystem:
    def test_zero_at_saturation_seed(self):
        m = reduced()
        sat = maxwell_construction(m, 0.9)
        f1, f2 = f_system(m, sat.v_l_star, sat.theta, sat.v_g_star, 0.0)
        assert abs(f1) < 1e-9
        assert abs(f2) < 1e-9

    def test_difference_is_momentum_balance(self):
        m = reduced()
        rng = np.random.default_rng(5)
        for _ in range(30):
            v_l = rng.uniform(0.4, 0.9)
            v = rng.uniform(1.2, 8.0)
            theta = rng.uniform(0.5, 0.95)
            z = rng.uniform(0.0, 0.2)
            f1, f2 = f_system(m, v_l, theta, v, z)
            momentum = (m.pressure(v_l, theta) - m.pressure(v, theta)
                        - 2.0 * z * (v - v_l))
            assert abs((f1 - f2) - momentum) < 1e-13

    def test_recomposition_from_energy_calls(self):
        m = reduced()
        v_l, theta, v, z = 0.55, 0.85, 3.0, 0.05
        f1, f2 = f_system(m, v_l, theta, v, z)
        secant = (m.psi(v_l, theta) - m.psi(v, theta)) / (v - v_l)
        assert abs(f1 - (m.pressure(v_l, theta) - z * (v - v_l) - secant)) < 1e-14
        assert abs(f2 - (m.pressure(v, theta) + z * (v - v_l) - secant)) < 1e-14

    def test_degenerate_gap(self):
        with pytest.raises(DegenerateGap):
            f_system(reduced(), 0.7, 0.9, 0.7 + 1e-14, 0.0)

    def test_negative_z(self):
        with pytest.raises(InvalidInput):
            f_system(reduced(), 0.7, 0.9, 2.0, -0.1)


class TestFJacobian:
    def test_lower_triangular_at_seed(self):
        m = reduced()
        sat = maxwell_construction(m, 0.9)
        jac = f_jacobian(m, sat.v_l_star, sat.theta, sat.v_g_star, 0.0)
        assert abs(jac[0, 1]) < 1e-9

    def test_matches_finite_differences(self):
        m = reduced()
        rng = np.random.default_rng(9)
        for _ in range(10):
            v_l = rng.uniform(0.45, 0.8)
            v = rng.uniform(1.5, 6.0)
            theta = rng.uniform(0.55, 0.95)
            z = rng.uniform(0.0, 0.1)
            jac = f_jacobian(m, v_l, theta, v, z)
            for row in (0, 1):
                fd_theta = fd_gradient(
                    lambda th: f_system(m, v_l, th, v, z)[row], theta, h=1e-6 * theta)
                fd_v = fd_gradient(
                    lambda u: f_system(m, v_l, theta, u, z)[row], v, h=1e-6 * v)
                assert rel_err(jac[row, 0], fd_theta, floor=1e-6) < 1e-6
                assert rel_err(jac[row, 1], fd_v, floor=1e-6) < 1e-6

    def test_determinant_factorisation_at_seed(self):
        m = reduced()
        sat = maxwell_construction(m, 0.9)
        jac = f_jacobian(m, sat.v_l_star, sat.theta, sat.v_g_star, 0.0)
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        entropy_factor = (m.eta_dv(sat.v_l_star, sat.theta)
                          + (sat.eta_l_star - sat.eta_g_star)
                          / (sat.v_g_star - sat.v_l_star))
        pressure_factor = m.pressure_dv(sat.v_g_star, sat.theta)
        assert rel_err(det, entropy_factor * pressure_factor) < 1e-8
        assert entropy_factor > 0.0
        assert pressure_factor < 0.0
        assert det != 0.0


class TestSolveInterface:
    def test_zero_flux_reproduces_seed_exactly(self):
        m = reduced()
        sol = solve_interface(m, V_L_09, 0.0)
        theta_b = boiling_temperature(m, V_L_09)
        sat = maxwell_construction(m, theta_b)
        assert sol.theta_star == theta_b
        assert sol.v_g == sat.v_g_star
        assert sol.p_l == pytest.approx(sol.p_g, abs=1e-9)

    def test_small_flux_raises_interface_temperature(self):
        m = reduced()
        sol = solve_interface(m, V_L_09, 0.05)
        assert sol.theta_star > sol.theta_b
        assert sol.v_g > 0.0
        assert sol.Z == pytest.approx(0.5 * 0.05 ** 2, rel=1e-15)

    def test_temperature_slope_in_z_positive(self):
        m = reduced()
        thetas = []
        for z in (0.0, 1e-4, 2e-4):
            j = math.sqrt(2.0 * z)
            thetas.append(solve_interface(m, V_L_09, j).theta_star)
        assert (thetas[1] - thetas[0]) > 0.0
        assert (thetas[2] - thetas[1]) > 0.0

    def test_monotone_over_z_grid(self):
        m = reduced()
        z_max = 0.5 * FOLD_FLUX_09 ** 2
        thetas = []
        for z in np.linspace(0.0, 0.5 * z_max, 10):
            sol = solve_interface(m, V_L_09, math.sqrt(2.0 * float(z)))
            thetas.append(sol.theta_star)
        assert strictly_increasing(thetas)

    def test_modified_jump_conditions_hold_at_solutions(self):
        m = reduced()
        for j in (0.05, 0.15, 0.25):
            sol = solve_interface(m, V_L_09, j)
            _, d_l, p_l = modified_quantities(m, 1.0 / sol.v_l, sol.theta_star, j)
            _, d_g, p_g = modified_quantities(m, 1.0 / sol.v_g, sol.theta_star, j)
            assert abs(p_g - p_l) <= 1e-9  # p_c = 1
            scale = max(abs(d_l), abs(d_g), 1.0)
            assert abs(d_g - d_l) <= 1e-9 * scale
            j_recovered = math.sqrt((sol.p_l - sol.p_g) / (sol.v_g - sol.v_l))
            assert rel_err(j_recovered, j) < 1e-8

    def test_solution_is_a_bitangent_of_the_modified_energy(self):
        # line through the gas point with the gas-side slope of the modified
        # volume energy must pass through the liquid point too
        m = reduced()
        for j in (0.05, 0.2):
            sol = solve_interface(m, V_L_09, j)
            rho_l, rho_g = 1.0 / sol.v_l, 1.0 / sol.v_g
            psi_l, _, _ = modified_quantities(m, rho_l, sol.theta_star, j)
            psi_g, slope_g, _ = modified_quantities(m, rho_g, sol.theta_star, j)
            on_line = psi_g + slope_g * (rho_l - rho_g)
            assert abs(psi_l - on_line) <= 1e-9 * max(abs(psi_l), 1.0)

    def test_large_flux_fails_with_diagnostics(self):
        m = reduced()
        with pytest.raises(ContinuationFailed) as info:
            solve_interface(m, V_L_09, 0.5)
        exc = info.value
        assert 0.0 < exc.z_reached < 0.5 * 0.5 ** 2

    def test_just_above_fold_fails(self):
        with pytest.raises(ContinuationFailed):
            solve_interface(reduced(), V_L_09, FOLD_FLUX_09 * 1.02)

    def test_refusal_reports_the_located_fold(self):
        with pytest.raises(ContinuationFailed, match="exceeds the located fold") as info:
            solve_interface(reduced(), V_L_09, 1.3 * FOLD_FLUX_09)
        exc = info.value
        assert rel_err(exc.j_fold, FOLD_FLUX_09) < 1e-10
        # the refusal carries the fold state itself
        assert 0.0 < exc.z_reached < 0.5 * exc.j_fold ** 2 * (1.0 + 1e-9)
        assert exc.theta is not None and exc.v is not None

    def test_refusal_past_the_fold_takes_few_newton_solves(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return newton2d(*args, **kwargs)

        monkeypatch.setattr(interface, "newton2d", counting)
        with pytest.raises(ContinuationFailed):
            solve_interface(reduced(), V_L_09, 1.3 * FOLD_FLUX_09)
        # halving into the fold took about 95
        assert len(calls) <= 20

    @pytest.mark.parametrize("factor", [1.0 - 2e-10, None, 1.0 + 2e-10])
    def test_flux_at_the_fold_converges_or_is_refused(self, factor):
        m = reduced()
        with pytest.raises(ContinuationFailed) as info:
            solve_interface(m, V_L_09, 1.3 * FOLD_FLUX_09)
        # None: exactly the located fold flux
        j = info.value.j_fold if factor is None else FOLD_FLUX_09 * factor
        try:
            sol = solve_interface(m, V_L_09, j)
        except ContinuationFailed as exc:
            assert rel_err(exc.j_fold, FOLD_FLUX_09) < 1e-10
            assert exc.z_reached < 0.5 * exc.j_fold ** 2 * (1.0 + 1e-9)
        else:
            f1, f2 = f_system(m, V_L_09, sol.theta_star, sol.v_g, 0.5 * j * j)
            assert max(abs(f1), abs(f2)) <= 1e-10  # p_c = 1
            assert sol.theta_star > sol.theta_b

    def test_walk_that_brackets_nothing_is_a_numerical_failure(self, monkeypatch):
        # two short stretches reach neither the target nor the fold
        monkeypatch.setattr(interface, "_STRETCH", (1.001, 1.002))
        with pytest.raises(NoConvergence, match="brackets neither"):
            solve_interface(reduced(), V_L_09, 1.3 * FOLD_FLUX_09)

    @pytest.mark.parametrize("theta", [0.6, 0.75, 0.9, 0.95])
    def test_refusal_carries_the_fold_of_the_oracle(self, theta):
        oracle = perfbench_module("oracle")
        v_l = SAT_REFS[theta][0]
        theta_f, v_f, j_f = oracle.fold(v_l)
        with pytest.raises(ContinuationFailed) as info:
            solve_interface(reduced(), v_l, 1.3 * float(j_f))
        exc = info.value
        assert rel_err(exc.z_reached, float(j_f ** 2 / 2)) < 1e-12
        assert rel_err(exc.theta, float(theta_f)) < 1e-12
        assert rel_err(exc.v, float(v_f)) < 1e-12
        assert rel_err(exc.j_fold, float(j_f)) < 1e-12

    def test_target_within_the_round_off_at_the_seed_is_the_seed(self):
        m = reduced()
        seed = solve_interface(m, V_L_09, 0.0)
        for j in (1e-9, 1e-150, 1e-160):
            sol = solve_interface(m, V_L_09, j)
            assert (sol.theta_star, sol.v_g) == (seed.theta_star, seed.v_g)

    @pytest.mark.parametrize("j", [1e200, math.inf, math.nan])
    def test_flux_with_non_finite_kinetic_parameter(self, j):
        with pytest.raises(InvalidInput, match="not finite"):
            solve_interface(reduced(), V_L_09, j)


class TestNonReducedScaling:
    def test_continuation_on_si_scaled_model(self):
        m = EosModel(k1=4180.0, k2=461.5, a=1700.0, b=9.5e-4)
        cp = m.critical_point()
        sat = maxwell_construction(m, 0.8 * cp.theta_c)
        j = 0.05 * math.sqrt(cp.p_c / cp.v_c)
        sol = solve_interface(m, sat.v_l_star, j)
        assert sol.theta_star > sol.theta_b
        rho_l, rho_g = 1.0 / sol.v_l, 1.0 / sol.v_g
        _, d_l, p_l = modified_quantities(m, rho_l, sol.theta_star, j)
        _, d_g, p_g = modified_quantities(m, rho_g, sol.theta_star, j)
        assert abs(p_g - p_l) <= 1e-9 * cp.p_c
        assert abs(d_g - d_l) <= 1e-9 * max(abs(d_l), abs(d_g))
        j_rec = math.sqrt((sol.p_l - sol.p_g) / (sol.v_g - sol.v_l))
        assert rel_err(j_rec, j) < 1e-8

    @pytest.mark.parametrize("fraction", [0.6, 0.8, 0.95])
    def test_located_fold_separates_converging_and_refused_fluxes(self, fraction):
        m = EosModel(k1=4180.0, k2=461.5, a=1700.0, b=9.5e-4)
        cp = m.critical_point()
        v_l = maxwell_construction(m, fraction * cp.theta_c).v_l_star
        with pytest.raises(ContinuationFailed) as info:
            solve_interface(m, v_l, math.sqrt(cp.p_c / cp.v_c))
        j_fold = info.value.j_fold
        assert j_fold is not None
        sol = solve_interface(m, v_l, 0.999 * j_fold)
        assert sol.Z == pytest.approx(0.5 * (0.999 * j_fold) ** 2, rel=1e-15)
        with pytest.raises(ContinuationFailed, match="exceeds the located fold") as info:
            solve_interface(m, v_l, 1.001 * j_fold)
        assert info.value.j_fold == j_fold


class TestSignChanges:
    def test_zero_flux_spinodal_pair(self):
        assert sign_changes_modified(reduced(), 0.9, 0.0, 2000) == 2

    def test_small_flux_three(self):
        assert sign_changes_modified(reduced(), 0.9, 1e-3, 2000) == 3

    def test_large_flux_one(self):
        assert sign_changes_modified(reduced(), 0.9, 5.0, 2000) == 1

    def test_ideal_gas(self):
        m = ideal_gas(1.0, 1.0)
        assert sign_changes_modified(m, 1.0, 0.0, 2000) == 0
        assert sign_changes_modified(m, 1.0, 1.0, 2000) == 1

    def test_grid_size_precondition(self):
        with pytest.raises(InvalidInput):
            sign_changes_modified(reduced(), 0.9, 0.0, 500)


class TestMaxFluxScan:
    def test_locates_the_fold(self):
        m = reduced()
        j_max = max_flux_scan(m, V_L_09, 0.0, 0.6, 7)
        assert rel_err(j_max, FOLD_FLUX_09) < 5e-3

    def test_post_hoc_bracket_property(self):
        m = reduced()
        j_max = max_flux_scan(m, V_L_09, 0.0, 0.6, 7)
        solve_interface(m, V_L_09, j_max)  # converges
        with pytest.raises(ContinuationFailed):
            solve_interface(m, V_L_09, j_max * 1.01)

    def test_all_converging_grid_returns_upper_bound(self):
        assert max_flux_scan(reduced(), V_L_09, 0.0, 0.1, 3) == 0.1

    def test_all_failed(self):
        with pytest.raises(AllFailed):
            max_flux_scan(reduced(), V_L_09, 0.5, 0.9, 3)

    def test_argument_validation(self):
        with pytest.raises(InvalidInput):
            max_flux_scan(reduced(), V_L_09, 0.5, 0.1, 3)
        with pytest.raises(InvalidInput):
            max_flux_scan(reduced(), V_L_09, 0.0, 0.5, 1)
