"""Jump conditions across a flat interface and the flux-continuation solver.

The coupled residual pair ``f_system`` (defined in :mod:`dryout.saturation`,
which solves its zero-flux case for the boiling temperature) couples the
momentum balance and the energy (Gibbs-Thomson) balance for fixed liquid
volume; its unique zero-flux root is the saturation seed, from which
solutions at positive mass flux are tracked by adaptive continuation in
the kinetic parameter Z = j^2 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import eos
from .errors import (
    AboveCritical,
    AllFailed,
    ContinuationFailed,
    DegenerateGap,
    DomainError,
    InvalidInput,
    NoConvergence,
    OutOfRange,
    SingularJacobian,
)
from .numerics import RootConfig, find_root_bracketed, newton2d
from .saturation import (
    NEAR_CRITICAL_FRACTION,
    boiling_temperature,
    descend_to_bracket,
    f_jacobian,
    f_system,
    maxwell_construction,
)


@dataclass(frozen=True)
class JumpInputs:
    """One-sided interface states plus the mass flux.

    ``v_g == v_l`` is tolerated as the degenerate no-jump case; all
    residuals vanish there identically.
    """

    v_l: float
    v_g: float
    theta: float
    j: float

    def __post_init__(self):
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise InvalidInput(f"{field.name} must be finite")
        if self.v_g < self.v_l:
            raise InvalidInput("v_g must not be below v_l")
        if self.j < 0.0:
            raise InvalidInput("mass flux must be non-negative")


@dataclass(frozen=True)
class InterfaceSolution:
    """Converged interface state for a given liquid volume and mass flux."""

    theta_star: float
    v_g: float
    p_l: float
    p_g: float
    Z: float
    j: float
    theta_b: float
    steps: int
    v_l: float


def jump_residuals(model, inputs):
    """Momentum and energy jump residuals, in both equivalent energy forms.

    Returns ``(r_momentum, r_energy, r_energy_alt)`` where the momentum
    residual is (v_g - v_l) j^2 + (p_g - p_l), the energy residual is the
    raw kinetic form, and the alternative form uses the mean pressure.
    When the momentum residual vanishes the two energy forms agree.
    """
    v_l, v_g, theta, j = inputs.v_l, inputs.v_g, inputs.theta, inputs.j
    if v_g == v_l:
        return 0.0, 0.0, 0.0
    psi_l = model.psi(v_l, theta)
    psi_g = model.psi(v_g, theta)
    p_l = model.pressure(v_l, theta)
    p_g = model.pressure(v_g, theta)
    jj = j * j
    r_momentum = (v_g - v_l) * jj + (p_g - p_l)
    r_energy = (psi_g - psi_l) + 0.5 * (v_g * v_g - v_l * v_l) * jj + (p_g * v_g - p_l * v_l)
    r_energy_alt = (psi_g - psi_l) + (v_g - v_l) * 0.5 * (p_l + p_g)
    return r_momentum, r_energy, r_energy_alt


def _f_jacobian_gas_side(model, v_l, theta, v, Z):
    """Jacobian in the unknowns (theta, v_l) with the gas volume held fixed."""
    gap = v - v_l
    entropy_slope = (model.eta(v_l, theta) - model.eta(v, theta)) / gap
    df1_dtheta = model.eta_dv(v_l, theta) + entropy_slope
    df2_dtheta = model.eta_dv(v, theta) + entropy_slope
    secant = (model.psi(v_l, theta) - model.psi(v, theta)) / gap
    r_liquid = (secant - model.pressure(v_l, theta)) / gap
    df1_dvl = model.pressure_dv(v_l, theta) + Z - r_liquid
    df2_dvl = -Z - r_liquid
    return np.array([[df1_dtheta, df1_dvl], [df2_dtheta, df2_dvl]])


def _gas_boiling_temperature(model, v_g):
    """Temperature at which ``v_g`` is the saturated gas volume."""
    cp = model.critical_point()
    if not v_g > cp.v_c:
        raise OutOfRange(f"v_g={v_g} must exceed the critical volume {cp.v_c}")
    theta_hi = NEAR_CRITICAL_FRACTION * cp.theta_c
    sat_hi = maxwell_construction(model, theta_hi)
    if sat_hi.v_g_star > v_g:
        raise AboveCritical(
            f"v_g={v_g} below the saturated gas volume {sat_hi.v_g_star} "
            f"at the supported ceiling theta={theta_hi}")
    theta_lo, theta_hi = descend_to_bracket(
        model, cp, theta_hi, lambda sat: sat.v_g_star > v_g)
    gap = lambda th: maxwell_construction(model, th).v_g_star - v_g
    cfg = RootConfig(abs_tol=1e-12 * v_g, x_tol=1e-13 * cp.theta_c, max_iter=200)
    return find_root_bracketed(gap, theta_lo, theta_hi, cfg)


def solve_interface(model, v_fixed, j, side="liquid"):
    """Interface temperature and opposite-phase volume at mass flux ``j``.

    With ``side="liquid"`` (the usual case) the liquid volume is held
    fixed and (theta, v_g) are solved; ``side="gas"`` holds the gas
    volume fixed and solves (theta, v_l).  Continuation starts from the
    zero-flux saturation seed with geometric steps in Z = j^2/2, doubling
    on success and halving on Newton failure.  A stall before the target
    raises :class:`ContinuationFailed`, the signature of the large-flux
    nonexistence regime.
    """
    if j < 0.0:
        raise InvalidInput("mass flux must be non-negative")
    if side not in ("liquid", "gas"):
        raise InvalidInput(f"side must be 'liquid' or 'gas', got {side!r}")
    if not math.isfinite(0.5 * j * j):
        raise InvalidInput(f"mass flux j={j} too large: Z = j^2/2 is not finite")

    if side == "liquid":
        theta_b = boiling_temperature(model, v_fixed)
    else:
        theta_b = _gas_boiling_temperature(model, v_fixed)
    sat = maxwell_construction(model, theta_b)
    v_free0 = sat.v_g_star if side == "liquid" else sat.v_l_star
    cp = model.critical_point()

    def build(theta, v_free, Z, steps):
        if side == "liquid":
            v_l, v_g = v_fixed, v_free
        else:
            v_l, v_g = v_free, v_fixed
        return InterfaceSolution(
            theta_star=float(theta), v_g=float(v_g),
            p_l=float(model.pressure(v_l, theta)), p_g=float(model.pressure(v_g, theta)),
            Z=float(Z), j=float(j), theta_b=float(theta_b), steps=steps, v_l=float(v_l))

    z_target = 0.5 * j * j
    if z_target == 0.0:
        return build(theta_b, v_free0, 0.0, 0)

    scale = cp.p_c

    def newton_at(z, x0):
        if side == "liquid":
            resid = lambda x: np.array(f_system(model, v_fixed, x[0], x[1], z)) / scale
            jac = lambda x: f_jacobian(model, v_fixed, x[0], x[1], z) / scale
        else:
            resid = lambda x: np.array(f_system(model, x[1], x[0], v_fixed, z)) / scale
            jac = lambda x: _f_jacobian_gas_side(model, x[1], x[0], v_fixed, z) / scale
        return newton2d(resid, jac, x0, RootConfig(abs_tol=1e-12, x_tol=1e-15, max_iter=50))

    z_cur = 0.0
    x = np.array([theta_b, v_free0])
    dz = 1e-6 * cp.p_c / cp.v_c
    steps = 0
    while z_cur < z_target:
        step = min(dz, z_target - z_cur)
        z_next = z_cur + step
        if z_target - z_next < 1e-15 * z_target:
            z_next = z_target
        try:
            x_new = newton_at(z_next, x)
        except (NoConvergence, SingularJacobian, DomainError, DegenerateGap):
            dz = 0.5 * step
            if dz < 1e-12 * z_target:
                raise ContinuationFailed(
                    "no stationary phase transition found at this flux "
                    f"(continuation stalled at Z={z_cur:.6g} of {z_target:.6g})",
                    z_reached=z_cur,
                    theta=float(x[0]),
                    v=float(x[1]),
                    sign_changes=sign_changes_modified(model, float(x[0]), j, 2000),
                ) from None
            continue
        z_cur = z_next
        x = x_new
        steps += 1
        dz = 2.0 * step

    theta_star, v_free = float(x[0]), float(x[1])
    if side == "liquid":
        fvals = f_system(model, v_fixed, theta_star, v_free, z_target)
    else:
        fvals = f_system(model, v_free, theta_star, v_fixed, z_target)
    if max(abs(fvals[0]), abs(fvals[1])) > 1e-10 * cp.p_c:
        raise NoConvergence(
            f"interface residual {max(abs(fvals[0]), abs(fvals[1]))} above 1e-10 * p_c")
    return build(theta_star, v_free, z_target, steps)


def sign_changes_modified(model, theta, j, n_grid):
    """Sign changes of the modified volume-energy curvature on a density log-grid.

    For the van der Waals family this counts 2 at zero flux below the
    critical temperature (the spinodal pair), 3 at small positive flux
    (the kinetic term wins near vacuum) and 1 at large flux.
    """
    if n_grid < 1000:
        raise InvalidInput("n_grid must be at least 10^3")
    if model.v_min > 0.0:
        b = model.v_min
        lo, hi = 1e-9 / b, (1.0 - 1e-9) / b
    else:
        lo, hi = 1e-9, 1e9
    count = 0
    prev = 0
    for rho in np.geomspace(lo, hi, n_grid):
        val = eos.d2_volume_helmholtz_mod(model, float(rho), theta, j)
        sign = 1 if val > 0.0 else (-1 if val < 0.0 else 0)
        if sign == 0:
            continue
        if prev != 0 and sign != prev:
            count += 1
        prev = sign
    return count


def max_flux_scan(model, v_l, j_lo, j_hi, n, refine_rtol=1e-3):
    """Largest mass flux at which the interface solve still converges.

    Scans a linear flux grid, then bisects between the last success and
    the first failure down to ``refine_rtol`` relative width.  Returns
    ``j_hi`` unrefined when every grid point converges.
    """
    if not (0.0 <= j_lo < j_hi):
        raise InvalidInput("need 0 <= j_lo < j_hi")
    if n < 2:
        raise InvalidInput("n must be at least 2")

    def converges(j):
        try:
            solve_interface(model, v_l, float(j))
            return True
        except ContinuationFailed:
            return False

    grid = np.linspace(j_lo, j_hi, n)
    if not converges(grid[0]):
        raise AllFailed(f"solve_interface failed even at j={grid[0]}")
    last_ok = float(grid[0])
    first_bad = None
    for j in grid[1:]:
        if converges(j):
            last_ok = float(j)
        else:
            first_bad = float(j)
            break
    if first_bad is None:
        return float(grid[-1])
    lo, hi = last_ok, first_bad
    while hi - lo > refine_rtol * hi:
        mid = 0.5 * (lo + hi)
        if converges(mid):
            lo = mid
        else:
            hi = mid
    return lo
