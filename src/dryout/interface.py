"""Jump conditions across a flat interface and the interface-state solver.

The liquid volume is the given datum, as in the dryout problem: the
interface temperature and the gas volume are the unknowns.  The coupled
residual pair ``f_system`` (defined in :mod:`dryout.saturation`, which
solves its zero-flux case for the boiling temperature) couples the
momentum balance and the energy (Gibbs-Thomson) balance at that fixed
liquid volume; its unique zero-flux root is the saturation seed.  The
solutions at positive mass flux lie on the branch through that seed,
which :func:`solve_interface` follows in the gas volume, where it is
regular, up to the target kinetic parameter Z = j^2 / 2.  The branch ends
at a fold, and fluxes past it are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import eos
from .errors import (
    AllFailed,
    ContinuationFailed,
    DegenerateGap,
    DomainError,
    InvalidInput,
    NoConvergence,
    SingularJacobian,
)
from .numerics import RootConfig, find_root_bracketed, newton2d
# descend_to_bracket: unused here; the benchmark tracer patches this name
from .saturation import (
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


_EPS = 2.220446049250313e-16
# factors by which the walk along the branch stretches v - v_l from the seed
_STRETCH = tuple(1.0 + 0.125 * 2.0 ** k for k in range(12))


def solve_interface(model, v_l, j):
    """Interface temperature and gas volume at liquid volume ``v_l`` and mass flux ``j``.

    The liquid volume is held fixed and (theta, v_g) are solved on the
    branch of ``f_system`` through the zero-flux saturation seed, the
    boiling temperature of ``v_l`` and its saturated gas volume.  The sum
    f1 + f2 does not depend on Z: for each gas volume v it fixes theta (a
    scalar Newton solve seeded from the previous theta), and f1 - f2 = 0
    then gives Z(v) = (p_l - p_g) / (2 (v - v_l)) in closed form.  So v
    parametrises the branch, regularly through its fold, where
    dZ/dv = -det J / ((v - v_l) d(f1 + f2)/dtheta) vanishes (Allgower &
    Georg, *Introduction to Numerical Continuation Methods*, SIAM 2003).

    From the seed, v - v_l is stretched upward until Z(v) reaches
    Z = j^2/2 or dZ/dv turns non-positive; in the second case the fold v_f
    is solved by :func:`find_root_bracketed` and closes the bracket.
    Z(v) = j^2/2 is then solved on the rising part, and one damped Newton
    solve of ``f_system`` at that Z polishes (theta, v), whose residual is
    certified below 1e-10 p_c.  A target within the round-off of Z at the
    seed is polished from the seed.

    A target above Z_f (1 + 1e-9) raises :class:`ContinuationFailed`
    carrying j_fold = sqrt(2 Z_f) and the fold state: no stationary
    transition on this branch reaches that flux.  A target in that margin
    at or above Z_f is polished from the fold, and refused the same way if
    the polish fails.  A walk that brackets neither the target nor the
    fold raises :class:`NoConvergence`.
    """
    if j < 0.0:
        raise InvalidInput("mass flux must be non-negative")
    if not math.isfinite(0.5 * j * j):
        raise InvalidInput(f"mass flux j={j} too large: Z = j^2/2 is not finite")

    theta_b = boiling_temperature(model, v_l)
    v_g0 = maxwell_construction(model, theta_b).v_g_star
    cp = model.critical_point()

    def build(theta, v_g, Z):
        return InterfaceSolution(
            theta_star=float(theta), v_g=float(v_g),
            p_l=float(model.pressure(v_l, theta)), p_g=float(model.pressure(v_g, theta)),
            Z=float(Z), j=float(j), theta_b=float(theta_b), v_l=float(v_l))

    z_target = 0.5 * j * j
    if z_target == 0.0:
        return build(theta_b, v_g0, 0.0)

    seen = {}  # v -> (theta, Z): every solve below sees the values the walk saw

    def on_branch(v):
        if v not in seen:
            theta = next(reversed(seen.values()))[0] if seen else theta_b
            for _ in range(20):
                f1, f2 = f_system(model, v_l, theta, v, 0.0)
                jac = f_jacobian(model, v_l, theta, v, 0.0)
                step = (f1 + f2) / (jac[0, 0] + jac[1, 0])
                theta -= step
                if abs(step) <= 1e-12 * theta:
                    break
            else:
                raise NoConvergence(f"theta on the branch at v={v} did not converge")
            p_l, p_g = model.pressure(v_l, theta), model.pressure(v, theta)
            seen[v] = theta, 0.5 * (p_l - p_g) / (v - v_l)
        return seen[v]

    def dz_dv(v):
        theta, z = on_branch(v)
        jac = f_jacobian(model, v_l, theta, v, max(z, 0.0))  # Z < 0 is round-off at the seed
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        return -det / ((v - v_l) * (jac[0, 0] + jac[1, 0]))

    def refusal(why):  # hi is the fold here
        theta_f, z_f = on_branch(hi)
        j_fold = math.sqrt(2.0 * z_f)
        return ContinuationFailed(
            f"no stationary phase transition at this flux (j={j:.15g} {why} "
            f"the located fold j_f={j_fold:.15g})",
            z_reached=z_f, theta=theta_f, v=hi, j_fold=j_fold)

    slope = dz_dv(v_g0)
    if not slope > 0.0:
        raise NoConvergence(f"the branch does not rise from the boiling point (dZ/dv={slope})")
    # Z vanishes at the seed up to its round-off; a target below that is the seed itself
    theta_0, z_0 = on_branch(v_g0)
    z_round = abs(z_0) + _EPS * abs(model.pressure(v_g0, theta_0)) / (v_g0 - v_l)
    lo = hi = v_g0
    z_f = math.inf  # Z at the fold, once the walk has bracketed it
    if z_target > z_round:
        for factor in _STRETCH:
            hi = v_l + (v_g0 - v_l) * factor
            if not dz_dv(hi) > 0.0:
                hi = find_root_bracketed(
                    dz_dv, lo, hi, RootConfig(abs_tol=1e-14 * slope, x_tol=1e-14 * hi))
                z_f = on_branch(hi)[1]
                break
            if on_branch(hi)[1] >= z_target:
                break
            lo = hi
        else:
            raise NoConvergence(
                f"the branch brackets neither Z={z_target:.6g} nor its fold below v={hi:.6g}")

    if z_target > z_f * (1.0 + 1e-9):
        raise refusal("exceeds")
    if z_target >= z_f:  # inside the margin: polish from the fold itself
        x0 = (on_branch(hi)[0], hi)
    elif z_target <= z_round:
        x0 = (theta_b, v_g0)
    else:
        v = find_root_bracketed(lambda v: on_branch(v)[1] / z_target - 1.0, lo, hi,
                                RootConfig(abs_tol=1e-14, x_tol=1e-14 * hi))
        x0 = (on_branch(v)[0], v)

    resid = lambda x: np.array(f_system(model, v_l, x[0], x[1], z_target)) / cp.p_c
    jac = lambda x: f_jacobian(model, v_l, x[0], x[1], z_target) / cp.p_c
    try:
        x = newton2d(resid, jac, x0, RootConfig(abs_tol=1e-12, x_tol=1e-15, max_iter=50))
    except (NoConvergence, SingularJacobian, DomainError, DegenerateGap):
        if z_target < z_f:
            raise
        raise refusal("lies within round-off of") from None

    theta_star, v_g = float(x[0]), float(x[1])
    fvals = f_system(model, v_l, theta_star, v_g, z_target)
    if max(abs(fvals[0]), abs(fvals[1])) > 1e-10 * cp.p_c:
        raise NoConvergence(
            f"interface residual {max(abs(fvals[0]), abs(fvals[1]))} above 1e-10 * p_c")
    return build(theta_star, v_g, z_target)


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


def max_flux_scan(model, v_l, j_lo, j_hi, n):
    """Largest mass flux at which the interface solve still converges.

    Scans a linear flux grid and returns the located fold flux j_f of the
    first refused grid point, or ``j_hi`` when every grid point converges.
    """
    if not (0.0 <= j_lo < j_hi):
        raise InvalidInput("need 0 <= j_lo < j_hi")
    if n < 2:
        raise InvalidInput("n must be at least 2")
    grid = np.linspace(j_lo, j_hi, n)
    for i, j in enumerate(grid):
        try:
            solve_interface(model, v_l, float(j))
        except ContinuationFailed as exc:
            if i == 0:
                raise AllFailed(f"solve_interface failed even at j={grid[0]}") from None
            return exc.j_fold
    return float(grid[-1])
