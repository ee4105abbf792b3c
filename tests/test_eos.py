import math

import numpy as np
import pytest

from dryout import (
    EosModel,
    ThermoState,
    critical_point,
    d2_volume_helmholtz_mod,
    entropy,
    helmholtz,
    ideal_gas,
    internal_energy_and_heat,
    modified_quantities,
    pressure,
    state_point,
    volume_helmholtz,
)
from dryout.errors import DomainError, InvalidInput, NoCriticalPoint
from dryout.numerics import fd_gradient, fd_second

from helpers import mp_psi, reduced, rel_err


class TestHelmholtz:
    def test_log_terms_vanish(self):
        m = EosModel(k1=1.0, k2=1.0)
        assert helmholtz(m, ThermoState(1.0, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_direct_substitution(self):
        m = EosModel(k1=1.0, k2=1.0, a=1.0, b=0.0)
        assert helmholtz(m, ThermoState(1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_against_high_precision_formula(self):
        m = reduced()
        got = helmholtz(m, ThermoState(1.0, 0.9))
        want = mp_psi(1.0, 0.9)
        assert rel_err(got, want) < 1e-15

    @pytest.mark.parametrize("v,theta", [(1.0 / 3.0, 1.0), (0.3, 1.0), (1.0, 0.0), (1.0, -1.0)])
    def test_domain_errors(self, v, theta):
        with pytest.raises(DomainError):
            helmholtz(reduced(), ThermoState(v, theta))


class TestEntropy:
    def test_both_logs_zero(self):
        m = EosModel(k1=1.0, k2=1.0)
        assert entropy(m, ThermoState(1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_log_theta_term(self):
        m = EosModel(k1=2.0, k2=1.0)
        assert entropy(m, ThermoState(1.0, math.e)) == pytest.approx(2.0, rel=1e-15)

    def test_matches_minus_dpsi_dtheta(self):
        m = reduced()
        v, theta = 2.0, 0.9
        fd = fd_gradient(lambda th: -m.psi(v, th), theta, h=1e-5 * theta)
        assert rel_err(m.eta(v, theta), fd) < 1e-7


class TestPressure:
    def test_ideal_gas(self):
        m = ideal_gas(1.0, 1.0)
        assert pressure(m, ThermoState(2.0, 1.0)) == pytest.approx(0.5, rel=1e-15)

    def test_critical_point_value(self):
        assert pressure(reduced(), ThermoState(1.0, 1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_formula_value(self):
        got = pressure(reduced(), ThermoState(3.0, 0.9))
        assert got == pytest.approx(0.9 - 1.0 / 3.0, rel=1e-14)

    def test_matches_minus_dpsi_dv(self):
        m = reduced()
        v, theta = 1.7, 0.8
        fd = fd_gradient(lambda u: -m.psi(u, theta), v, h=1e-5 * v)
        assert rel_err(m.pressure(v, theta), fd) < 1e-7


class TestInternalEnergyAndHeat:
    def test_ideal(self):
        m = EosModel(k1=1.0, k2=1.0)
        eps, kappa = internal_energy_and_heat(m, ThermoState(1.0, 2.0))
        assert eps == pytest.approx(2.0, rel=1e-15)
        assert kappa == pytest.approx(1.0, rel=1e-15)

    def test_attraction_term(self):
        m = EosModel(k1=1.0, k2=1.0, a=1.0, b=0.0)
        eps, kappa = internal_energy_and_heat(m, ThermoState(2.0, 1.0))
        assert eps == pytest.approx(0.5, rel=1e-15)
        assert kappa == pytest.approx(1.0, rel=1e-15)

    def test_kappa_is_theta_times_fd_of_entropy(self):
        m = reduced()
        v, theta = 0.9, 0.7
        fd = fd_gradient(lambda th: m.eta(v, th), theta, h=1e-5 * theta)
        _, kappa = internal_energy_and_heat(m, ThermoState(v, theta))
        assert rel_err(kappa, theta * fd) < 1e-7

    def test_vdw_closed_forms(self):
        m = reduced()
        s = ThermoState(0.8, 0.85)
        eps, kappa = internal_energy_and_heat(m, s)
        assert eps == pytest.approx(m.k1 * s.theta - m.a / s.v, rel=1e-13)
        assert kappa == pytest.approx(m.k1, rel=1e-15)

    def test_state_point_definition(self):
        m = reduced()
        s = ThermoState(1.4, 0.75)
        pt = state_point(m, s)
        assert pt.eps == pytest.approx(pt.psi + s.theta * pt.eta, rel=1e-14)
        assert pt.kappa == pytest.approx(m.k1, rel=1e-15)


class TestVolumeHelmholtz:
    def test_ideal_psi_equals_small_psi(self):
        m = EosModel(k1=1.0, k2=1.0)
        big, _, _ = volume_helmholtz(m, 1.0, 1.0)
        assert big == pytest.approx(1.0, abs=1e-15)

    def test_pressure_identity(self):
        m = reduced()
        for rho in (0.2, 0.9, 1.6, 2.4):
            for theta in (0.6, 0.9, 1.3):
                _, _, p_check = volume_helmholtz(m, rho, theta)
                assert rel_err(p_check, m.pressure(1.0 / rho, theta)) < 1e-10

    def test_drho_matches_fd(self):
        m = reduced()
        rho, theta = 1.0, 0.9
        _, d_big, _ = volume_helmholtz(m, rho, theta)
        fd = fd_gradient(lambda r: m.volume_energy(r, theta), rho, h=1e-5 * rho)
        assert rel_err(d_big, fd) < 1e-7

    def test_density_domain(self):
        m = reduced()
        with pytest.raises(DomainError):
            volume_helmholtz(m, 3.0, 0.9)  # rho >= 1/b
        with pytest.raises(DomainError):
            volume_helmholtz(m, -1.0, 0.9)


class TestModifiedQuantities:
    def test_zero_flux_unchanged(self):
        m = reduced()
        base = volume_helmholtz(m, 1.2, 0.8)
        mod = modified_quantities(m, 1.2, 0.8, 0.0)
        assert mod[0] == base[0]
        assert mod[1] == base[1]
        assert rel_err(mod[2], base[2]) < 1e-13

    def test_ideal_modified_pressure(self):
        m = EosModel(k1=1.0, k2=1.0)
        _, _, p_mod = modified_quantities(m, 1.0, 1.0, 1.0)
        assert p_mod == pytest.approx(2.0, rel=1e-14)

    def test_legendre_identity_for_modified(self):
        m = reduced()
        rng = np.random.default_rng(7)
        for _ in range(50):
            rho = rng.uniform(0.05, 2.8)
            theta = rng.uniform(0.4, 1.5)
            j = rng.uniform(0.0, 2.0)
            psi_mod, d_mod, p_mod = modified_quantities(m, rho, theta, j)
            assert rel_err(rho * d_mod - psi_mod, p_mod, floor=1e-6) < 1e-10

    def test_negative_flux_rejected(self):
        with pytest.raises(InvalidInput):
            modified_quantities(reduced(), 1.0, 0.9, -1.0)


class TestModifiedCurvature:
    def test_ideal_value(self):
        m = EosModel(k1=1.0, k2=1.0)
        assert d2_volume_helmholtz_mod(m, 1.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_critical_degeneracy(self):
        # the curvature of the volume energy vanishes exactly at the critical state
        assert abs(d2_volume_helmholtz_mod(reduced(), 1.0, 1.0, 0.0)) < 1e-12

    def test_matches_second_fd(self):
        m = reduced()
        rho, theta, j = 0.7, 0.9, 0.4
        fd = fd_second(lambda r: modified_quantities(m, r, theta, j)[0], rho, h=1e-4 * rho)
        assert rel_err(d2_volume_helmholtz_mod(m, rho, theta, j), fd) < 2e-5

    def test_large_flux_negative_near_vacuum(self):
        m = reduced()
        theta, j = 0.9, 5.0
        grid = np.geomspace(1e-9 * 3.0, 2.9, 2000)
        values = [d2_volume_helmholtz_mod(m, float(r), theta, j) for r in grid]
        small = [val for r, val in zip(grid, values) if r < 0.1]
        assert min(small) < 0.0


class TestCriticalPoint:
    def test_reduced_model(self):
        cp = critical_point(reduced())
        assert cp.v_c == pytest.approx(1.0, abs=1e-12)
        assert cp.theta_c == pytest.approx(1.0, abs=1e-12)
        assert cp.p_c == pytest.approx(1.0, abs=1e-12)

    def test_second_instance(self):
        cp = critical_point(EosModel(k1=1.0, k2=1.0, a=27.0 / 8.0, b=1.0))
        assert cp.v_c == pytest.approx(3.0, abs=1e-12)
        assert cp.theta_c == pytest.approx(1.0, abs=1e-12)
        assert cp.p_c == pytest.approx(0.125, abs=1e-12)

    def test_ideal_gas_has_none(self):
        with pytest.raises(NoCriticalPoint):
            critical_point(ideal_gas(1.0, 1.0))

    @pytest.mark.parametrize("k2, b", [(2.0, 1e-300), (1e-300, 1e-100)])
    def test_underflowing_scales_are_invalid(self, k2, b):
        with pytest.raises(InvalidInput, match="underflows"):
            critical_point(EosModel(k1=1.0, k2=k2, a=3.0, b=b))

    def test_pressure_derivatives_vanish_there(self):
        # second derivative via central difference of the analytic first
        # derivative: a plain second difference bottoms out near 5e-8
        m = reduced()
        cp = critical_point(m)
        assert abs(m.pressure_dv(cp.v_c, cp.theta_c)) < 1e-8
        d2 = fd_gradient(lambda v: m.pressure_dv(v, cp.theta_c), cp.v_c, h=1e-5)
        assert abs(d2) < 1e-8


class TestModelConstruction:
    def test_invalid_coefficients(self):
        with pytest.raises(InvalidInput):
            EosModel(k1=0.0, k2=1.0)
        with pytest.raises(InvalidInput):
            EosModel(k1=1.0, k2=1.0, a=-1.0)

    def test_models_are_immutable(self):
        m = reduced()
        with pytest.raises(Exception):
            m.k1 = 2.0


class TestGridInvariants:
    """Consistency of the analytic derivative surface on a 20x20 state grid."""

    def setup_method(self):
        self.m = reduced()
        self.vs = np.geomspace(0.45, 20.0, 20)
        self.thetas = np.linspace(0.5, 2.0, 20)

    def test_gradient_consistency(self):
        m = self.m
        for v in self.vs:
            for theta in self.thetas:
                p_fd = fd_gradient(lambda u: -m.psi(u, theta), v)
                assert rel_err(m.pressure(v, theta), p_fd, floor=1e-3) < 1e-6
                eta_fd = fd_gradient(lambda th: -m.psi(v, th), theta)
                assert rel_err(m.eta(v, theta), eta_fd, floor=1e-3) < 1e-6

    def test_gibbs_relation(self):
        m = self.m

        def eps(v, theta):
            return m.psi(v, theta) + theta * m.eta(v, theta)

        for v in self.vs:
            for theta in self.thetas:
                lhs_v = theta * fd_gradient(lambda u: m.eta(u, theta), v)
                rhs_v = fd_gradient(lambda u: eps(u, theta), v) + m.pressure(v, theta)
                assert rel_err(lhs_v, rhs_v, floor=1e-3) < 1e-6
                lhs_t = theta * fd_gradient(lambda th: m.eta(v, th), theta)
                rhs_t = fd_gradient(lambda th: eps(v, th), theta)
                assert rel_err(lhs_t, rhs_t, floor=1e-3) < 1e-6

    def test_supercritical_pressure_monotone(self):
        m = self.m
        for theta in (1.01, 1.2, 2.0):
            for v in self.vs:
                assert m.pressure_dv(v, theta) < 0.0

    def test_entropy_monotonicities(self):
        m = self.m
        for v in self.vs:
            for theta in self.thetas:
                assert m.eta_dv(v, theta) > 0.0
                assert m.eta_dtheta(v, theta) > 0.0

    def test_legendre_duality_both_directions(self):
        m = self.m
        for v in self.vs:
            for theta in self.thetas:
                rho = 1.0 / v
                lhs = m.volume_energy_drho(rho, theta)
                rhs = m.psi(v, theta) + v * m.pressure(v, theta)
                assert rel_err(lhs, rhs, floor=1e-6) < 1e-10
                lhs2 = -m.pressure(v, theta)
                rhs2 = -rho * m.volume_energy_drho(rho, theta) + m.volume_energy(rho, theta)
                assert rel_err(lhs2, rhs2, floor=1e-6) < 1e-10

    def test_convexity_correspondence(self):
        m = self.m
        for v in np.geomspace(0.45, 10.0, 25):
            rho = 1.0 / v
            curv_rho = m.volume_energy_d2rho(rho, 0.9)
            curv_v = -m.pressure_dv(v, 0.9)
            if min(abs(curv_rho), abs(curv_v)) < 1e-10:
                continue
            assert math.copysign(1.0, curv_rho) == math.copysign(1.0, curv_v)
