import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dryout import (
    FreeBoundaryProblem,
    StefanInputs,
    canonical_reduction,
    dryout_condition,
    solve_free_boundary,
    solve_stationary,
    temperature_profiles,
    xhat_critical,
    z0_of_xhat,
)
from dryout.errors import InvalidInput, NegativePosition, NoConvergence, NoDryout
from dryout.stefan import NO_DRYOUT_REASON

from helpers import rel_err, strictly_decreasing, strictly_increasing


def unit_inputs(**overrides):
    base = dict(kappa1=1.0, kappa2=1.0, d1=1.0, d2=1.0, r=1.0, j=1.0,
                ell=-0.5, theta_in=-2.0, theta_star=0.0)
    base.update(overrides)
    return StefanInputs(**base)


class TestDryoutCondition:
    def test_equality_counts(self):
        assert dryout_condition(unit_inputs(ell=-1.0))

    def test_fast_flux_fails(self):
        assert not dryout_condition(unit_inputs(ell=-1.0, j=1.1))

    def test_weak_latent_heat_passes(self):
        assert dryout_condition(unit_inputs(ell=-0.5, d2=2.0))

    def test_huge_flux_fails_without_overflow(self):
        # j^2 overflows to inf, which no finite heat supply can balance
        inputs = unit_inputs(j=1e200)
        assert not dryout_condition(inputs)
        assert not solve_stationary(inputs).exists


class TestCanonicalReduction:
    def test_unit_suite(self):
        fbp = canonical_reduction(unit_inputs(theta_in=-1.0))
        assert (fbp.a, fbp.b, fbp.c) == (1.0, 1.0, 1.0)
        assert fbp.y0 == 1.0
        assert fbp.z0 == 0.5

    def test_equality_gives_zero_slope(self):
        fbp = canonical_reduction(unit_inputs(ell=-1.0, theta_in=-1.0))
        assert fbp.z0 == 0.0

    def test_condition_failure_raises(self):
        with pytest.raises(NoDryout):
            canonical_reduction(unit_inputs(ell=-1.0, j=1.5))

    def test_equal_temperatures_rejected_at_type_level(self):
        with pytest.raises(InvalidInput):
            unit_inputs(theta_in=0.0, theta_star=0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["kappa1", "kappa2", "d1", "d2", "r", "j", "ell",
                                      "theta_in", "theta_star", "rho_gas"])
    def test_non_finite_rejected_at_type_level(self, name, value):
        with pytest.raises(InvalidInput, match=f"{name} must be finite"):
            unit_inputs(**{name: value})

    @pytest.mark.parametrize("overrides", [dict(j=1e-300), dict(kappa2=5e-324, j=0.1),
                                           dict(kappa1=1e-300, j=1e-10, d1=1e20)])
    def test_rates_that_underflow_rejected_at_type_level(self, overrides):
        with pytest.raises(InvalidInput, match="underflow"):
            unit_inputs(**overrides)

    def test_positivity_enforced(self):
        with pytest.raises(InvalidInput):
            unit_inputs(kappa2=0.0)
        with pytest.raises(InvalidInput):
            unit_inputs(ell=0.5)


class TestZ0OfXhat:
    def test_vanishing_amplitude(self):
        assert z0_of_xhat(1.0, 1.0, 1.0, 2.0, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_log2_value(self):
        want = 3.0 - 2.0 * math.log(2.0)
        got = z0_of_xhat(1.0, 1.0, 1.0, 1.0, math.log(2.0))
        assert got == pytest.approx(want, rel=1e-13)

    def test_general_coefficients_constant_slope(self):
        for xhat in (0.1, 1.0, 17.0):
            got = z0_of_xhat(1.0, 2.0, 1.0, xhat / 2.0, xhat)
            assert got == pytest.approx(0.5, rel=1e-12)

    def test_no_overflow_for_huge_arguments(self):
        val = z0_of_xhat(1.0, 1.0, 1.0, 1.0, 1e6)
        assert math.isfinite(val)
        assert val == pytest.approx(1.0 + (1.0 - 1e6), rel=1e-12)

    def test_positive_position_required(self):
        with pytest.raises(InvalidInput):
            z0_of_xhat(1.0, 1.0, 1.0, 1.0, 0.0)


class TestSolveFreeBoundary:
    def test_exact_inverse_of_vanishing_amplitude(self):
        xhat = solve_free_boundary(FreeBoundaryProblem(1.0, 1.0, 1.0, 2.0, 1.0))
        assert abs(xhat - 2.0) < 1e-12

    def test_log2_round_trip(self):
        z0 = 3.0 - 2.0 * math.log(2.0)
        xhat = solve_free_boundary(FreeBoundaryProblem(1.0, 1.0, 1.0, 1.0, z0))
        assert abs(xhat - math.log(2.0)) < 1e-10

    def test_zero_slope_case(self):
        xhat = solve_free_boundary(FreeBoundaryProblem(1.0, 1.0, 1.0, math.exp(-1.0), 0.0))
        assert abs(xhat - 1.0) < 1e-10

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.01, max_value=20.0))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, a, y0, xhat):
        z0 = z0_of_xhat(a, 1.0, 1.0, y0, xhat)
        assume(z0 >= 0.0)
        back = solve_free_boundary(FreeBoundaryProblem(a, 1.0, 1.0, y0, z0))
        assert rel_err(back, xhat) < 1e-9

    def test_monotone_in_y0(self):
        xs = [solve_free_boundary(FreeBoundaryProblem(1.0, 1.0, 1.0, y0, 0.5))
              for y0 in np.linspace(0.5, 5.0, 8)]
        assert strictly_increasing(xs)

    def test_monotone_in_z0(self):
        xs = [solve_free_boundary(FreeBoundaryProblem(1.0, 1.0, 1.0, 2.0, z0))
              for z0 in np.linspace(0.0, 5.0, 8)]
        assert strictly_decreasing(xs)

    def test_limit_large_z0_is_zero(self):
        xs = [solve_free_boundary(FreeBoundaryProblem(1.0, 1.0, 1.0, 2.0, 10.0 ** k))
              for k in range(1, 5)]
        assert strictly_decreasing(xs)
        assert xs[-1] < 1e-3

    def test_zero_slope_equals_critical_position(self):
        direct = solve_free_boundary(FreeBoundaryProblem(2.0, 1.0, 1.0, 3.0, 0.0))
        assert direct == xhat_critical(2.0, 3.0)

    def test_invalid_problem(self):
        with pytest.raises(InvalidInput):
            FreeBoundaryProblem(1.0, 1.0, 1.0, 2.0, -0.1)
        with pytest.raises(InvalidInput):
            FreeBoundaryProblem(0.0, 1.0, 1.0, 2.0, 0.1)


class TestXhatCritical:
    def test_exp_minus_one(self):
        assert abs(xhat_critical(1.0, math.exp(-1.0)) - 1.0) < 1e-10

    def test_forward_constructed_value(self):
        # y0(xhat) = xhat - 1 + exp(-xhat) at a = 1; xhat = 2
        y0 = 1.0 + math.exp(-2.0)
        assert abs(xhat_critical(1.0, y0) - 2.0) < 1e-10

    def test_strictly_increasing(self):
        assert xhat_critical(1.0, math.exp(-1.0)) < xhat_critical(1.0, 1.0 + math.exp(-2.0))


class TestTemperatureProfiles:
    def setup_method(self):
        self.sol = solve_stationary(unit_inputs())

    def test_boundary_values(self):
        assert temperature_profiles(self.sol, 0.0) == -2.0
        assert temperature_profiles(self.sol, self.sol.x_star) == pytest.approx(0.0, abs=1e-12)

    def test_unit_step_on_gas_branch(self):
        inp = self.sol.inputs
        x = self.sol.x_star + inp.kappa2 * inp.j / inp.r
        got = temperature_profiles(self.sol, x)
        assert got == pytest.approx(inp.theta_star + 1.0, abs=1e-12)

    def test_liquid_ode_residual(self):
        inp = self.sol.inputs
        h = 1e-5
        for x in np.linspace(0.2, self.sol.x_star - 0.2, 7):
            x = float(x)
            t = lambda u: temperature_profiles(self.sol, u)
            first = (t(x + h) - t(x - h)) / (2.0 * h)
            second = (t(x + h) - 2.0 * t(x) + t(x - h)) / (h * h)
            residual = inp.kappa1 * inp.j * first - inp.d1 * second - inp.r
            assert abs(residual) < 1e-6 * inp.r

    def test_negative_position(self):
        with pytest.raises(NegativePosition):
            temperature_profiles(self.sol, -0.1)

    def test_no_solution_has_no_profile(self):
        sol = solve_stationary(unit_inputs(ell=-1.0, j=1.5))
        with pytest.raises(InvalidInput):
            temperature_profiles(sol, 1.0)


class TestSolveStationary:
    def test_matches_free_boundary_composition(self):
        sol = solve_stationary(unit_inputs())
        want = solve_free_boundary(FreeBoundaryProblem(1.0, 1.0, 1.0, 2.0, 0.5))
        assert sol.exists
        assert sol.x_star == want

    def test_equality_case_routes_to_critical_position(self):
        sol = solve_stationary(unit_inputs(ell=-1.0))
        assert sol.x_star == xhat_critical(1.0, 2.0)
        # at equality the liquid-side heat flux vanishes: the gas branch alone
        # balances the latent-heat sink
        inp = sol.inputs
        assert inp.d2 * sol.slope2 == pytest.approx(-inp.ell * inp.j, rel=1e-14)
        from dryout.stefan import _liquid_slope
        assert abs(_liquid_slope(inp, sol.x_star, sol.x_star)) < 1e-12

    def test_condition_violation_reports_reason(self):
        sol = solve_stationary(unit_inputs(ell=-1.0, j=1.5))
        assert not sol.exists
        assert sol.reason == NO_DRYOUT_REASON
        assert sol.x_star is None

    def test_interfacial_heat_balance(self):
        inp = unit_inputs(kappa1=2.0, d1=0.7, d2=1.3, r=0.9, j=0.8, ell=-0.6)
        sol = solve_stationary(inp)
        from dryout.stefan import _liquid_slope
        residual = (inp.ell * inp.j + inp.d2 * sol.slope2
                    - inp.d1 * _liquid_slope(inp, sol.x_star, sol.x_star))
        assert abs(residual) <= 1e-9 * abs(inp.ell * inp.j)
        assert sol.heat_balance_residual == residual
        assert solve_stationary(unit_inputs(ell=-1.0, j=1.5)).heat_balance_residual is None

    def test_liquid_stays_below_interface_temperature(self):
        sol = solve_stationary(unit_inputs(j=0.3))
        for x in np.linspace(0.0, sol.x_star, 1000):
            assert temperature_profiles(sol, float(x)) <= sol.inputs.theta_star + 1e-9

    def test_closed_form_liquid_peak_matches_dense_grid(self):
        from dryout.stefan import _liquid_peak, _liquid_slope, _liquid_temperature
        interior = endpoint = 0
        for j, theta_in in ((0.3, -2.0), (0.7, -0.5), (1.0, -2.0), (2.0, -4.0),
                            (1e-3, -1.0), (30.0, -2.0)):
            inp = unit_inputs(j=j, theta_in=theta_in, ell=-1e-4)
            x_star = solve_stationary(inp).x_star
            # pinned at other lengths the profile overshoots theta_star inside
            # (concave) or stays below it (convex): both closed-form branches run
            for stretch in (0.3, 1.0, 1.5, 3.0, 10.0):
                length = stretch * x_star
                peak, at = _liquid_peak(inp, length)
                xs = np.linspace(0.0, length, 20001)
                grid_max = max(_liquid_temperature(inp, length, float(x)) for x in xs)
                # theta_1' is monotone, so the grid point nearest the peak lies
                # within half a spacing at a slope no steeper than at the ends
                steepest = max(abs(_liquid_slope(inp, length, x)) for x in (0.0, length))
                slack = 0.5 * (xs[1] - xs[0]) * steepest + 1e-13 * (abs(peak) + 1.0)
                assert grid_max <= peak + 1e-13 * (abs(peak) + 1.0)
                assert peak <= grid_max + slack
                assert peak == _liquid_temperature(inp, length, at)
                if 0.0 < at < length:
                    interior += 1
                else:
                    endpoint += 1
        assert interior > 0 and endpoint > 0

    @pytest.mark.parametrize("overrides", [dict(), dict(j=0.3), dict(kappa1=1e-3),
                                           dict(kappa1=1e-8), dict(kappa2=1e-6), dict(d1=1e5)])
    def test_liquid_noise_floor_bounds_the_round_off(self, overrides):
        import mpmath as mp
        from dryout.stefan import _liquid_noise_floor, _liquid_temperature
        inp = unit_inputs(**overrides)
        x_star = solve_free_boundary(canonical_reduction(inp))
        worst = 0.0
        with mp.workdps(40):
            alpha = mp.mpf(inp.kappa1) * inp.j / inp.d1
            drift = mp.mpf(inp.r) / (mp.mpf(inp.kappa1) * inp.j)
            amp = (mp.mpf(inp.theta_star) - inp.theta_in) - drift * x_star
            for x in np.linspace(0.0, x_star, 401):
                x = float(x)
                exact = (inp.theta_in + drift * x
                         + amp * mp.expm1(alpha * x) / mp.expm1(alpha * x_star))
                worst = max(worst, abs(float(_liquid_temperature(inp, x_star, x) - exact)))
        assert worst <= _liquid_noise_floor(inp, x_star)

    def test_liquid_profile_too_noisy_to_certify_is_refused(self):
        # alpha*x_star = 1.6e-8: theta_1 loses ~0.5 of its 2.0 span to round-off
        with pytest.raises(NoConvergence, match="not certified below theta_star"):
            solve_stationary(unit_inputs(kappa1=1e-8))

    def test_profile_constants_reproduce_closed_form(self):
        inp = unit_inputs(j=0.7)
        sol = solve_stationary(inp)
        alpha = inp.kappa1 * inp.j / inp.d1
        drift = inp.r / (inp.kappa1 * inp.j)
        for x in (0.0, 0.4 * sol.x_star, sol.x_star):
            direct = drift * x + sol.c2 * math.exp(alpha * x) + sol.c1
            assert temperature_profiles(sol, x) == pytest.approx(direct, abs=1e-10)

    def test_gas_velocity_from_mass_conservation(self):
        sol = solve_stationary(unit_inputs(rho_gas=0.5))
        assert sol.u2 == pytest.approx(2.0, rel=1e-15)
        assert solve_stationary(unit_inputs()).u2 is None

    def test_location_decreasing_in_inlet_temperature(self):
        xs = [solve_stationary(unit_inputs(theta_in=ti)).x_star
              for ti in np.linspace(-5.0, -0.1, 12)]
        assert strictly_decreasing(xs)

    def test_location_increasing_in_flux(self):
        xs = [solve_stationary(unit_inputs(j=float(j))).x_star
              for j in np.linspace(0.2, 1.3, 12)]
        assert strictly_increasing(xs)

    def test_divergence_for_cold_inlet(self):
        xs = [solve_stationary(unit_inputs(theta_in=-10.0 ** k)).x_star
              for k in range(1, 5)]
        assert strictly_increasing(xs)
        assert xs[-1] > 100.0

    def test_divergence_for_growing_flux_with_weakening_latent_heat(self):
        # large flux alone violates the existence condition, so divergence in
        # the flux is only meaningful along admissible joint sequences
        xs = []
        for k in range(5):
            j = 2.0 ** k
            xs.append(solve_stationary(unit_inputs(j=j, ell=-0.5 / j ** 2)).x_star)
        assert strictly_increasing(xs)
        assert xs[-1] > 10.0 * xs[0]

    def test_interface_slope_nonnegative_exactly_when_condition_holds(self):
        from dryout.stefan import _liquid_slope
        for ell, j in ((-0.5, 1.0), (-1.0, 1.0), (-0.2, 2.0)):
            inp = unit_inputs(ell=ell, j=j)
            assert dryout_condition(inp)
            sol = solve_stationary(inp)
            assert _liquid_slope(inp, sol.x_star, sol.x_star) >= -1e-12

    def test_advection_dominated_corner(self):
        # kappa1*j = 1e4: the exponential layer is astronomically stiff and
        # the latent-heat term is ten orders below the heat-supply term
        sol = solve_stationary(unit_inputs(j=1e4, ell=-1e-9))
        assert sol.exists
        assert sol.x_star == pytest.approx((2.0 + 1e-9) * 1e4, rel=1e-12)
        assert temperature_profiles(sol, 0.0) == -2.0
        assert abs(temperature_profiles(sol, sol.x_star)) < 1e-9

    def test_diffusion_dominated_corner(self):
        sol = solve_stationary(unit_inputs(j=1e-6))
        assert sol.exists
        assert sol.x_star == pytest.approx(2e-6, rel=1e-9)
        assert temperature_profiles(sol, 0.0) == -2.0
        assert abs(temperature_profiles(sol, sol.x_star)) < 1e-12

    def test_exists_iff_condition_on_grid(self):
        for ell in np.linspace(-2.0, -0.1, 8):
            for j in np.linspace(0.4, 2.0, 8):
                inp = unit_inputs(ell=float(ell), j=float(j))
                sol = solve_stationary(inp)
                assert sol.exists == dryout_condition(inp)
