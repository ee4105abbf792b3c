"""Helmholtz-energy thermodynamics of the van der Waals fluid family.

The energy is implemented in two coordinate systems: the mass-specific
volume ``v = 1/rho`` (natural for bitangent constructions and interface
residuals) and the density ``rho`` (natural for the volume-specific
energy and its flux-modified variant).  Both sides use independently
written closed forms, so the duality identities checked by the test
suite compare genuinely different float paths instead of tautologies.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import DomainError, InvalidInput, NoCriticalPoint

#: Relative clearance kept between admissible volumes and the excluded volume.
DOMAIN_MARGIN = 1e-12
#: Smallest admissible absolute temperature.
THETA_MIN = 1e-12


@dataclass(frozen=True)
class ThermoState:
    """Point in (mass-specific volume, absolute temperature)."""

    v: float
    theta: float


@dataclass(frozen=True)
class ThermoPoint:
    """First-order thermodynamic quantities at a single state."""

    psi: float   # mass-specific Helmholtz energy
    eta: float   # mass-specific entropy
    p: float     # pressure
    eps: float   # mass-specific internal energy
    kappa: float  # specific heat at constant volume


@dataclass(frozen=True)
class CriticalPoint:
    v_c: float
    theta_c: float
    p_c: float


class HelmholtzEos(ABC):
    """Abstract Helmholtz-energy surface.

    Implementations provide the energy in volume coordinates along with
    the analytic first derivatives the solvers need, plus the mixed and
    second derivatives used by Jacobians.  Density-side quantities have
    duality-based defaults; override them with closed forms where
    available so consistency checks stay meaningful.
    """

    @property
    def v_min(self):
        """Lower edge of the admissible volume domain."""
        return 0.0

    def check_state(self, v, theta):
        """Raise :class:`DomainError` unless (v, theta) is admissible."""
        if not theta >= THETA_MIN:
            raise DomainError(f"temperature {theta} below the floor {THETA_MIN}")
        edge = self.v_min
        if not (v > edge and v >= edge * (1.0 + DOMAIN_MARGIN)):
            raise DomainError(f"specific volume {v} at or below the excluded volume {edge}")

    def check_density(self, rho, theta):
        if not rho > 0.0:
            raise DomainError(f"density {rho} must be positive")
        self.check_state(1.0 / rho, theta)

    @abstractmethod
    def psi(self, v, theta):
        """Mass-specific Helmholtz energy."""

    @abstractmethod
    def eta(self, v, theta):
        """Mass-specific entropy, -d(psi)/d(theta)."""

    @abstractmethod
    def pressure(self, v, theta):
        """Pressure, -d(psi)/dv."""

    @abstractmethod
    def pressure_dv(self, v, theta):
        """Volume derivative of the pressure."""

    @abstractmethod
    def eta_dv(self, v, theta):
        """Volume derivative of the entropy (equals d(pressure)/d(theta))."""

    @abstractmethod
    def eta_dtheta(self, v, theta):
        """Temperature derivative of the entropy."""

    # Density-side surface.  Defaults derive from the volume side through
    # the exact duality; subclasses with native density forms override.
    def volume_energy(self, rho, theta):
        """Volume-specific Helmholtz energy rho * psi."""
        self.check_density(rho, theta)
        return rho * self.psi(1.0 / rho, theta)

    def volume_energy_drho(self, rho, theta):
        self.check_density(rho, theta)
        v = 1.0 / rho
        return self.psi(v, theta) + v * self.pressure(v, theta)

    def volume_energy_d2rho(self, rho, theta):
        self.check_density(rho, theta)
        v = 1.0 / rho
        return -(v ** 3) * self.pressure_dv(v, theta)

    def critical_point(self):
        raise NoCriticalPoint("model does not define a critical point")


@dataclass(frozen=True)
class EosModel(HelmholtzEos):
    """Van der Waals Helmholtz energy; ``a = b = 0`` is the ideal gas.

    Parameters
    ----------
    k1 : float
        Entropy-scale coefficient, energy / (mass * temperature).
    k2 : float
        Gas-constant-like coefficient, energy / (mass * temperature).
    a : float
        Attraction parameter, pressure * volume^2 / mass^2.
    b : float
        Excluded specific volume, volume / mass.

    The validity domain is ``v > b`` and ``theta > 0``.  All methods are
    pure and the instance is immutable, so models are safe to share
    across any number of concurrent workers.
    """

    k1: float
    k2: float
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if not (self.k1 > 0.0 and self.k2 > 0.0):
            raise InvalidInput("k1 and k2 must be positive")
        if self.a < 0.0 or self.b < 0.0:
            raise InvalidInput("a and b must be non-negative")

    @property
    def v_min(self):
        return self.b

    def psi(self, v, theta):
        self.check_state(v, theta)
        return (self.k1 * theta * (1.0 - math.log(theta))
                - self.k2 * theta * math.log(v - self.b)
                - self.a / v)

    def eta(self, v, theta):
        self.check_state(v, theta)
        return self.k1 * math.log(theta) + self.k2 * math.log(v - self.b)

    def pressure(self, v, theta):
        self.check_state(v, theta)
        return self.k2 * theta / (v - self.b) - self.a / (v * v)

    def pressure_dv(self, v, theta):
        self.check_state(v, theta)
        return -self.k2 * theta / (v - self.b) ** 2 + 2.0 * self.a / v ** 3

    def eta_dv(self, v, theta):
        self.check_state(v, theta)
        return self.k2 / (v - self.b)

    def eta_dtheta(self, v, theta):
        self.check_state(v, theta)
        return self.k1 / theta

    # Native density-side closed forms (log(rho/(1-b*rho)) = -log(v-b)).
    def volume_energy(self, rho, theta):
        self.check_density(rho, theta)
        return (self.k1 * rho * theta * (1.0 - math.log(theta))
                + self.k2 * rho * theta * math.log(rho / (1.0 - self.b * rho))
                - self.a * rho * rho)

    def volume_energy_drho(self, rho, theta):
        self.check_density(rho, theta)
        excl = 1.0 - self.b * rho
        return (self.k1 * theta * (1.0 - math.log(theta))
                + self.k2 * theta * math.log(rho / excl)
                + self.k2 * theta / excl
                - 2.0 * self.a * rho)

    def volume_energy_d2rho(self, rho, theta):
        self.check_density(rho, theta)
        excl = 1.0 - self.b * rho
        return (self.k2 * theta * (self.b / (excl * excl) + 1.0 / rho + self.b / excl)
                - 2.0 * self.a)

    def critical_point(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise NoCriticalPoint(
                "pressure is strictly decreasing in v for a = 0 or b = 0; no critical point")
        theta_den = 27.0 * self.k2 * self.b
        p_den = 27.0 * self.b * self.b
        if theta_den == 0.0 or p_den == 0.0:
            raise InvalidInput(
                f"critical point of k2={self.k2}, b={self.b} underflows double precision")
        v_c = 3.0 * self.b
        theta_c = 8.0 * self.a / theta_den
        p_c = self.a / p_den
        return CriticalPoint(v_c=v_c, theta_c=theta_c, p_c=p_c)


def ideal_gas(k1, k2):
    """Ideal-gas instance: attraction and excluded volume both zero."""
    return EosModel(k1=k1, k2=k2, a=0.0, b=0.0)


def reduced_van_der_waals(k1=1.0):
    """Instance whose critical point sits at (v_c, theta_c, p_c) = (1, 1, 1)."""
    return EosModel(k1=k1, k2=8.0 / 3.0, a=3.0, b=1.0 / 3.0)


def helmholtz(model, s):
    """Mass-specific Helmholtz energy at a state."""
    return model.psi(s.v, s.theta)


def entropy(model, s):
    """Mass-specific entropy at a state."""
    return model.eta(s.v, s.theta)


def pressure(model, s):
    """Pressure at a state."""
    return model.pressure(s.v, s.theta)


def internal_energy_and_heat(model, s):
    """Internal energy eps = psi + theta*eta and heat capacity kappa = theta * d(eta)/d(theta)."""
    psi = model.psi(s.v, s.theta)
    eta = model.eta(s.v, s.theta)
    eps = psi + s.theta * eta
    kappa = s.theta * model.eta_dtheta(s.v, s.theta)
    return eps, kappa


def state_point(model, s):
    """Bundle psi, eta, p, eps and kappa at a single state."""
    eps, kappa = internal_energy_and_heat(model, s)
    return ThermoPoint(
        psi=model.psi(s.v, s.theta),
        eta=model.eta(s.v, s.theta),
        p=model.pressure(s.v, s.theta),
        eps=eps,
        kappa=kappa,
    )


def volume_helmholtz(model, rho, theta):
    """Volume-specific energy, its density derivative, and the pressure identity.

    Returns ``(Psi, dPsi/drho, p_check)`` where ``p_check = rho * dPsi/drho - Psi``
    must reproduce the pressure at ``v = 1/rho``.
    """
    big_psi = model.volume_energy(rho, theta)
    d_big = model.volume_energy_drho(rho, theta)
    p_check = rho * d_big - big_psi
    return big_psi, d_big, p_check


def modified_quantities(model, rho, theta, j):
    """Flux-modified volume energy, its density derivative, and modified pressure.

    For mass flux ``j`` these are ``Psi - j^2/(2 rho)``, ``dPsi/drho + j^2/(2 rho^2)``
    and ``p + j^2/rho``; at ``j = 0`` the unmodified quantities come back.
    """
    if j < 0.0:
        raise InvalidInput("mass flux must be non-negative")
    big_psi, d_big, _ = volume_helmholtz(model, rho, theta)
    jj = j * j
    psi_mod = big_psi - 0.5 * jj / rho
    d_mod = d_big + 0.5 * jj / (rho * rho)
    p_mod = model.pressure(1.0 / rho, theta) + jj / rho
    return psi_mod, d_mod, p_mod


def d2_volume_helmholtz_mod(model, rho, theta, j):
    """Second density derivative of the flux-modified volume energy."""
    if j < 0.0:
        raise InvalidInput("mass flux must be non-negative")
    base = model.volume_energy_d2rho(rho, theta)
    if j == 0.0:
        return base
    return base - j * j / rho ** 3


def critical_point(model):
    """Critical point of the model, where dp/dv and d2p/dv2 both vanish."""
    return model.critical_point()
