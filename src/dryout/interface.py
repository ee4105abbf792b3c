"""Jump conditions across a flat interface and the flux-continuation solver.

The liquid volume is the given datum, as in the dryout problem: the
interface temperature and the gas volume are the unknowns.  The coupled
residual pair ``f_system`` (defined in :mod:`dryout.saturation`, which
solves its zero-flux case for the boiling temperature) couples the
momentum balance and the energy (Gibbs-Thomson) balance at that fixed
liquid volume; its unique zero-flux root is the saturation seed, from
which solutions at positive mass flux are tracked by adaptive
continuation in the kinetic parameter Z = j^2 / 2.  The branch ends at a
fold, which :func:`solve_interface` locates when a continuation step
first fails, and fluxes past it are refused.
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
    DryoutError,
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


def solve_interface(model, v_l, j):
    """Interface temperature and gas volume at liquid volume ``v_l`` and mass flux ``j``.

    The liquid volume is held fixed and (theta, v_g) are solved.
    Continuation starts from the zero-flux saturation seed, the boiling
    temperature of ``v_l`` and its saturated gas volume, with geometric
    steps in Z = j^2/2, doubling on success and halving on Newton failure.

    At the first failed step :func:`_locate_fold` locates the fold Z_f of
    the branch once.  A target above Z_f (1 + 1e-9) raises
    :class:`ContinuationFailed` at once, carrying j_f = sqrt(2 Z_f): no
    stationary transition on this branch reaches that flux.  Otherwise, or
    when the fold could not be bracketed, the step keeps halving, and a
    stall before the target raises :class:`ContinuationFailed` too.
    """
    if j < 0.0:
        raise InvalidInput("mass flux must be non-negative")
    if not math.isfinite(0.5 * j * j):
        raise InvalidInput(f"mass flux j={j} too large: Z = j^2/2 is not finite")

    theta_b = boiling_temperature(model, v_l)
    v_g0 = maxwell_construction(model, theta_b).v_g_star
    cp = model.critical_point()

    def build(theta, v_g, Z, steps):
        return InterfaceSolution(
            theta_star=float(theta), v_g=float(v_g),
            p_l=float(model.pressure(v_l, theta)), p_g=float(model.pressure(v_g, theta)),
            Z=float(Z), j=float(j), theta_b=float(theta_b), steps=steps, v_l=float(v_l))

    z_target = 0.5 * j * j
    if z_target == 0.0:
        return build(theta_b, v_g0, 0.0, 0)

    scale = cp.p_c

    def newton_at(z, x0):
        resid = lambda x: np.array(f_system(model, v_l, x[0], x[1], z)) / scale
        jac = lambda x: f_jacobian(model, v_l, x[0], x[1], z) / scale
        return newton2d(resid, jac, x0, RootConfig(abs_tol=1e-12, x_tol=1e-15, max_iter=50))

    def refusal(message, j_fold):
        return ContinuationFailed(
            message,
            z_reached=z_cur,
            theta=float(x[0]),
            v=float(x[1]),
            sign_changes=sign_changes_modified(model, float(x[0]), j, 2000),
            j_fold=j_fold,
        )

    z_cur = 0.0
    x = np.array([theta_b, v_g0])
    dz = 1e-6 * cp.p_c / cp.v_c
    steps = 0
    located, j_fold = False, None
    while z_cur < z_target:
        step = min(dz, z_target - z_cur)
        z_next = z_cur + step
        if z_target - z_next < 1e-15 * z_target:
            z_next = z_target
        try:
            x_new = newton_at(z_next, x)
        except (NoConvergence, SingularJacobian, DomainError, DegenerateGap):
            if not located:
                located = True
                z_fold = _locate_fold(model, v_l, float(x[0]), float(x[1]))
                if z_fold is not None:
                    j_fold = math.sqrt(2.0 * z_fold)
                    if z_target > z_fold * (1.0 + 1e-9):
                        raise refusal(
                            "no stationary phase transition at this flux "
                            f"(j={j:.15g} exceeds the located fold j_f={j_fold:.15g})",
                            j_fold) from None
            dz = 0.5 * step
            if dz < 1e-12 * z_target:
                raise refusal(
                    "no stationary phase transition found at this flux "
                    f"(continuation stalled at Z={z_cur:.6g} of {z_target:.6g})",
                    j_fold) from None
            continue
        z_cur = z_next
        x = x_new
        steps += 1
        dz = 2.0 * step

    theta_star, v_g = float(x[0]), float(x[1])
    fvals = f_system(model, v_l, theta_star, v_g, z_target)
    if max(abs(fvals[0]), abs(fvals[1])) > 1e-10 * cp.p_c:
        raise NoConvergence(
            f"interface residual {max(abs(fvals[0]), abs(fvals[1]))} above 1e-10 * p_c")
    return build(theta_star, v_g, z_target, steps)


def _locate_fold(model, v_l, theta, v):
    """Kinetic parameter Z_f at the fold of the branch through (theta, v), or None.

    The sum f1 + f2 of ``f_system`` does not depend on Z: for each gas
    volume it fixes theta (a scalar Newton solve seeded from the previous
    theta), and the difference f1 - f2 = 0 then gives Z = (p_l - p_g) /
    (2 (v - v_l)) in closed form.  So the gas volume parametrises the
    branch, regularly through the fold, where dZ/dv along it,
    -det J / ((v - v_l) d(f1 + f2)/dtheta), vanishes (Allgower & Georg,
    *Introduction to Numerical Continuation Methods*, SIAM 2003).  The root
    is bracketed upward from ``v`` by stretching v - v_l and then solved by
    :func:`find_root_bracketed`.  None when (theta, v) is not on the rising
    part of the branch or no bracket is found.
    """
    cp = model.critical_point()
    seed = [theta]

    def on_branch(v):
        theta = seed[0]
        for _ in range(20):
            f1, f2 = f_system(model, v_l, theta, v, 0.0)
            jac = f_jacobian(model, v_l, theta, v, 0.0)
            step = (f1 + f2) / (jac[0, 0] + jac[1, 0])
            theta -= step
            if abs(step) <= 1e-12 * theta:
                seed[0] = theta
                z = 0.5 * (model.pressure(v_l, theta) - model.pressure(v, theta)) / (v - v_l)
                return theta, z
        raise NoConvergence(f"theta on the branch at v={v} did not converge")

    def dz_dv(v):
        theta, z = on_branch(v)
        jac = f_jacobian(model, v_l, theta, v, z)
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        return -det / ((v - v_l) * (jac[0, 0] + jac[1, 0])) * cp.v_c ** 2 / cp.p_c

    try:
        if not dz_dv(v) > 0.0:
            return None
        lo, gap = v, v - v_l
        for k in range(12):
            hi = v_l + gap * (1.0 + 0.125 * 2.0 ** k)
            if dz_dv(hi) <= 0.0:
                v_f = find_root_bracketed(dz_dv, lo, hi, RootConfig(x_tol=1e-13 * cp.v_c))
                return on_branch(v_f)[1]
            lo = hi
    except (DryoutError, ArithmeticError):
        pass
    return None


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
