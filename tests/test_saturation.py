import math

import numpy as np
import pytest

from dryout import (
    EosModel,
    SaturationPoint,
    boiling_temperature,
    clausius_clapeyron_residual,
    ideal_gas,
    latent_heat,
    maxwell_construction,
    saturation_curve,
)
import dryout.saturation
from dryout.errors import (
    AboveCritical,
    DomainError,
    InvalidInput,
    NoConvergence,
    NoPhaseTransition,
    OutOfRange,
)

from helpers import (
    SAT_REFS,
    mp_boiling_temperature,
    reduced,
    rel_err,
    strictly_decreasing,
    strictly_increasing,
)


class TestMaxwellConstruction:
    @pytest.mark.parametrize("theta", [0.6, 0.75, 0.8, 0.9, 0.95])
    def test_against_high_precision_references(self, theta):
        sat = maxwell_construction(reduced(), theta)
        v_l_ref, v_g_ref, p_ref, ell_ref = SAT_REFS[theta]
        assert rel_err(sat.v_l_star, v_l_ref) < 1e-9
        assert rel_err(sat.v_g_star, v_g_ref) < 1e-9
        assert rel_err(sat.p_star, p_ref) < 1e-9
        assert rel_err(sat.ell, ell_ref) < 1e-9

    @pytest.mark.parametrize("theta", [0.6, 0.75, 0.9, 0.999])
    def test_bitangent_residuals(self, theta):
        m = reduced()
        sat = maxwell_construction(m, theta)
        p_l = m.pressure(sat.v_l_star, theta)
        p_g = m.pressure(sat.v_g_star, theta)
        assert abs(p_l - p_g) <= 1e-9  # p_c = 1 for the reduced model
        gibbs_thomson = (m.psi(sat.v_g_star, theta) - m.psi(sat.v_l_star, theta)
                         + (sat.v_g_star - sat.v_l_star) * sat.p_star)
        assert abs(gibbs_thomson) <= 1e-9 * abs(m.psi(sat.v_l_star, theta))
        assert m.b < sat.v_l_star < 1.0 < sat.v_g_star

    def test_near_critical_endpoints_bracket_v_c(self):
        sat = maxwell_construction(reduced(), 0.999)
        assert sat.v_l_star < 1.0 < sat.v_g_star
        assert sat.v_g_star - sat.v_l_star < 0.3

    def test_ideal_gas_has_no_transition(self):
        with pytest.raises(NoPhaseTransition):
            maxwell_construction(ideal_gas(1.0, 1.0), 0.5)

    @pytest.mark.parametrize("theta", [0.9995, 1.0, 1.5])
    def test_above_critical(self, theta):
        with pytest.raises(AboveCritical):
            maxwell_construction(reduced(), theta)

    def test_nonpositive_temperature(self):
        with pytest.raises(DomainError):
            maxwell_construction(reduced(), 0.0)

    def test_graph_position_relative_to_bitangent(self):
        # the energy graph touches its bitangent at the two endpoints and lies
        # above it everywhere else; equivalently the line (the convexification)
        # sits strictly below the graph inside the coexistence window
        m = reduced()
        theta = 0.9
        sat = maxwell_construction(m, theta)
        line = lambda v: m.psi(sat.v_l_star, theta) - sat.p_star * (v - sat.v_l_star)
        margin = 1e-3 * (sat.v_g_star - sat.v_l_star)
        for v in np.geomspace(m.b * (1.0 + 1e-6), 50.0, 500):
            v = float(v)
            gap = m.psi(v, theta) - line(v)
            assert gap >= -1e-9
            if abs(v - sat.v_l_star) > margin and abs(v - sat.v_g_star) > margin:
                assert gap > 0.0

    def test_entropies_stored_consistently(self):
        m = reduced()
        sat = maxwell_construction(m, 0.8)
        assert sat.eta_l_star == pytest.approx(m.eta(sat.v_l_star, 0.8), rel=1e-14)
        assert sat.eta_g_star == pytest.approx(m.eta(sat.v_g_star, 0.8), rel=1e-14)
        assert sat.ell == pytest.approx(-0.8 * (sat.eta_g_star - sat.eta_l_star), rel=1e-13)

    def test_deep_subcritical_temperatures_stay_certified(self):
        # the vapor pressure spans six decades down here; the certified
        # residuals must still hold
        m = reduced()
        for theta in (0.45, 0.3, 0.2):
            sat = maxwell_construction(m, theta)
            p_l = m.pressure(sat.v_l_star, theta)
            p_g = m.pressure(sat.v_g_star, theta)
            assert abs(p_l - p_g) <= 1e-9
            gt = (m.psi(sat.v_g_star, theta) - m.psi(sat.v_l_star, theta)
                  + (sat.v_g_star - sat.v_l_star) * sat.p_star)
            assert abs(gt) <= 1e-9 * abs(m.psi(sat.v_l_star, theta))

    def test_below_double_precision_floor_fails_deterministically(self):
        # beneath roughly 0.2 theta_c the liquid-pressure cancellation noise,
        # amplified by the gas volume, exceeds the certified tolerance; the
        # construction must refuse rather than return an uncertified point
        with pytest.raises(NoConvergence):
            maxwell_construction(reduced(), 0.1)


class TestBoilingTemperature:
    def test_round_trip(self):
        m = reduced()
        sat = maxwell_construction(m, 0.9)
        assert abs(boiling_temperature(m, sat.v_l_star) - 0.9) < 1e-9

    def test_round_trip_low_temperature(self):
        m = reduced()
        sat = maxwell_construction(m, 0.65)
        assert abs(boiling_temperature(m, sat.v_l_star) - 0.65) < 1e-9

    def test_monotone_limit_toward_critical(self):
        m = reduced()
        thetas = [boiling_temperature(m, 1.0 - 2.0 ** -k) for k in range(1, 5)]
        assert strictly_increasing(thetas)
        assert all(th < 1.0 for th in thetas)
        gaps = [1.0 - th for th in thetas]
        assert strictly_decreasing(gaps)

    @pytest.mark.parametrize("v_l", [0.2, 1.0 / 3.0, 1.0, 2.0])
    def test_out_of_range(self, v_l):
        with pytest.raises(OutOfRange):
            boiling_temperature(reduced(), v_l)

    def test_above_supported_ceiling(self):
        with pytest.raises(AboveCritical):
            boiling_temperature(reduced(), 0.97)

    def test_dense_liquid_round_trip(self):
        # theta_b near 0.23: the bracket descent must retreat from the
        # uncomputable low-temperature zone instead of dying inside it
        m = reduced()
        theta_b = boiling_temperature(m, 0.36)
        assert abs(maxwell_construction(m, theta_b).v_l_star - 0.36) < 1e-10

    def test_liquid_below_computable_floor(self):
        with pytest.raises(NoConvergence):
            boiling_temperature(reduced(), 0.34)


# the reduced model and an SI-scaled water-like one (p_c ~ 7e7, theta_c ~ 1.1e3)
INVERSION_MODELS = {
    "reduced": reduced(),
    "si": EosModel(k1=4180.0, k2=461.5, a=1700.0, b=9.5e-4),
}
INVERSION_FRACTIONS = [float(f) for f in np.linspace(0.25, 0.985, 25)]
# up to the supported ceiling 0.999, on both sides of NEWTON_CEILING_FRACTION
CEILING_FRACTIONS = [float(f) for f in np.linspace(0.985, 0.998, 9)[1:]]


def inversion_grid(model, fractions=INVERSION_FRACTIONS):
    """(theta, v_l*(theta)) at the given fractions of the critical temperature."""
    theta_c = model.critical_point().theta_c
    return [(f * theta_c, maxwell_construction(model, f * theta_c).v_l_star)
            for f in fractions]


def failing_bitangent_newton(failed):
    """``newton2d`` that fails the bitangent solve of ``boiling_temperature``.

    The Maxwell constructions look up the same ``newton2d`` for their own
    polish stage, so those calls pass through to the real solver.
    """
    original = dryout.saturation.newton2d

    def newton(F, J, x0, cfg=None):
        if F.__qualname__.startswith("boiling_temperature."):
            failed.append(x0)
            raise NoConvergence("forced failure of the bitangent solve")
        return original(F, J, x0, cfg)
    return newton


class TestBoilingTemperatureInversion:
    """The bitangent Newton solve, its Maxwell budget and its bisection fallback."""

    @pytest.mark.parametrize("name", sorted(INVERSION_MODELS))
    def test_round_trip_on_grid(self, name):
        m = INVERSION_MODELS[name]
        cp = m.critical_point()
        for theta, v_l in inversion_grid(m):
            theta_b = boiling_temperature(m, v_l)
            assert abs(theta_b - theta) <= 1e-12 * cp.theta_c
            assert abs(maxwell_construction(m, theta_b).v_l_star - v_l) <= 1e-13 * cp.v_c

    @pytest.mark.parametrize("name", sorted(INVERSION_MODELS))
    def test_near_ceiling_against_reference(self, name):
        # The Maxwell construction reproduces v_l* only to ~3e-12 v_c here on
        # the SI-scaled model, even at the exact temperature, so the round
        # trip is bounded by that and the accuracy is checked on theta itself.
        m = INVERSION_MODELS[name]
        cp = m.critical_point()
        for theta, v_l in inversion_grid(m, CEILING_FRACTIONS):
            theta_b = boiling_temperature(m, v_l)
            sat = maxwell_construction(m, theta_b)
            theta_ref = mp_boiling_temperature(m, v_l, theta, sat.v_g_star)
            assert abs(float(theta_b - theta_ref)) <= 2e-13 * cp.theta_c
            assert abs(sat.v_l_star - v_l) <= 1e-11 * cp.v_c

    @pytest.mark.parametrize("name", sorted(INVERSION_MODELS))
    def test_at_most_five_constructions_per_inversion(self, name, monkeypatch):
        # the bisection fallback alone costs a dozen or more constructions,
        # so this budget fails whenever the Newton result is not accepted
        m = INVERSION_MODELS[name]
        grid = inversion_grid(m)
        calls = []
        original = dryout.saturation.maxwell_construction

        def counting(model, theta):
            calls.append(theta)
            return original(model, theta)

        monkeypatch.setattr(dryout.saturation, "maxwell_construction", counting)
        for _, v_l in grid:
            calls.clear()
            boiling_temperature(m, v_l)
            assert len(calls) <= 5

    @pytest.mark.parametrize("name", sorted(INVERSION_MODELS))
    def test_fallback_when_newton_fails(self, name, monkeypatch):
        m = INVERSION_MODELS[name]
        cp = m.critical_point()
        grid = inversion_grid(m)[::4]
        failed = []
        monkeypatch.setattr(dryout.saturation, "newton2d", failing_bitangent_newton(failed))
        for theta, v_l in grid:
            failed.clear()
            assert abs(boiling_temperature(m, v_l) - theta) <= 1e-12 * cp.theta_c
            assert len(failed) == 1

    def test_fallback_keeps_the_refusals(self, monkeypatch):
        monkeypatch.setattr(dryout.saturation, "newton2d", failing_bitangent_newton([]))
        with pytest.raises(NoConvergence):
            boiling_temperature(reduced(), 0.34)
        with pytest.raises(AboveCritical):
            boiling_temperature(reduced(), 0.97)


class TestLatentHeat:
    def test_vdw_closed_form(self):
        m = reduced()
        sat = maxwell_construction(m, 0.9)
        closed = -0.9 * m.k2 * math.log((sat.v_g_star - m.b) / (sat.v_l_star - m.b))
        assert rel_err(latent_heat(m, sat), closed) < 1e-12

    def test_equals_entropy_difference(self):
        m = reduced()
        sat = maxwell_construction(m, 0.7)
        want = -0.7 * (m.eta(sat.v_g_star, 0.7) - m.eta(sat.v_l_star, 0.7))
        assert latent_heat(m, sat) == pytest.approx(want, rel=1e-14)

    def test_degenerate_endpoints(self):
        sat = SaturationPoint(theta=1.0, v_l_star=1.0, v_g_star=1.0, p_star=1.0,
                              eta_l_star=0.0, eta_g_star=0.0, ell=0.0)
        assert latent_heat(reduced(), sat) == 0.0

    def test_sign(self):
        m = reduced()
        for theta in (0.6, 0.8, 0.95):
            assert latent_heat(m, maxwell_construction(m, theta)) < 0.0


class TestClausiusClapeyron:
    @pytest.mark.parametrize("theta", [0.8, 0.95])
    def test_residual_small(self, theta):
        assert clausius_clapeyron_residual(reduced(), theta, 1e-4) < 1e-5

    def test_coexistence_slope_positive(self):
        m = reduced()
        h = 1e-4
        for theta in (0.7, 0.9):
            fd = (maxwell_construction(m, theta + h).p_star
                  - maxwell_construction(m, theta - h).p_star) / (2.0 * h)
            assert fd > 0.0

    def test_invalid_step(self):
        with pytest.raises(InvalidInput):
            clausius_clapeyron_residual(reduced(), 0.8, 0.0)


class TestSaturationCurve:
    def test_two_point_curve_is_endpoints(self):
        m = reduced()
        lo, hi = maxwell_construction(m, 0.7), maxwell_construction(m, 0.9)
        curve = saturation_curve(m, 0.7, 0.9, 2)
        assert len(curve) == 2
        assert curve[0].v_l_star == pytest.approx(lo.v_l_star, rel=1e-12)
        assert curve[1].v_g_star == pytest.approx(hi.v_g_star, rel=1e-12)

    def test_monotonicities_on_fifty_points(self):
        curve = saturation_curve(reduced(), 0.6, 0.95, 50)
        assert strictly_increasing([p.p_star for p in curve])
        assert strictly_decreasing([p.v_g_star for p in curve])
        assert strictly_increasing([p.v_l_star for p in curve])

    def test_above_critical_bound(self):
        with pytest.raises(AboveCritical):
            saturation_curve(reduced(), 0.6, 1.0, 5)

    def test_bad_arguments(self):
        with pytest.raises(InvalidInput):
            saturation_curve(reduced(), 0.6, 0.9, 1)
        with pytest.raises(InvalidInput):
            saturation_curve(reduced(), 0.9, 0.6, 5)


class TestNonReducedScaling:
    """The solvers must not silently assume the critical point sits at (1,1,1)."""

    def setup_method(self):
        # SI-flavoured water-like coefficients: p_c ~ 7e7, theta_c ~ 1.1e3
        self.m = EosModel(k1=4180.0, k2=461.5, a=1700.0, b=9.5e-4)
        self.cp = self.m.critical_point()

    def test_certified_construction_and_round_trip(self):
        theta = 0.8 * self.cp.theta_c
        sat = maxwell_construction(self.m, theta)
        assert self.m.b < sat.v_l_star < self.cp.v_c < sat.v_g_star
        p_l = self.m.pressure(sat.v_l_star, theta)
        p_g = self.m.pressure(sat.v_g_star, theta)
        assert abs(p_l - p_g) <= 1e-9 * self.cp.p_c
        theta_b = boiling_temperature(self.m, sat.v_l_star)
        assert rel_err(theta_b, theta) < 1e-12

    def test_envelope_agreement(self):
        from dryout.numerics import lower_convex_envelope
        theta = 0.8 * self.cp.theta_c
        vs = np.geomspace(self.m.b * (1.0 + 1e-6), 50.0 * self.cp.v_c, 10 ** 4)
        ys = np.array([self.m.psi(float(v), theta) for v in vs])
        segments = lower_convex_envelope(vs, ys)
        assert len(segments) == 1
        sat = maxwell_construction(self.m, theta)
        assert rel_err(segments[0].x_lo, sat.v_l_star) < 1e-3
        assert rel_err(segments[0].x_hi, sat.v_g_star) < 1e-3

    def test_coexistence_slope_residual(self):
        theta = 0.8 * self.cp.theta_c
        assert clausius_clapeyron_residual(self.m, theta, 1e-4 * self.cp.theta_c) < 1e-5


def test_concurrent_constructions_are_deterministic():
    # models are immutable and the solvers hold no global state; concurrent
    # evaluation must reproduce the sequential results bit for bit
    from concurrent.futures import ThreadPoolExecutor

    m = reduced()
    thetas = [0.6, 0.7, 0.8, 0.9, 0.95] * 4
    sequential = [maxwell_construction(m, th) for th in thetas]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(lambda th: maxwell_construction(m, th), thetas))
    for a, b in zip(sequential, concurrent):
        assert a == b


def test_liquid_pressure_slope_exceeds_coexistence_slope():
    # the implicit-function hypothesis: d(p_liquid)/d(theta) at the saturated
    # liquid volume dominates the coexistence-curve slope
    m = reduced()
    h = 1e-4
    for theta in (0.7, 0.8, 0.9):
        sat = maxwell_construction(m, theta)
        slope_liquid = m.eta_dv(sat.v_l_star, theta)
        slope_coex = (maxwell_construction(m, theta + h).p_star
                      - maxwell_construction(m, theta - h).p_star) / (2.0 * h)
        assert slope_liquid > slope_coex
