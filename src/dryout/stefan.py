"""Stationary two-phase heat balance on the half line: dryout test and location.

The gas-side temperature is linear under the linear-growth condition at
infinity, which turns the liquid side into a second-order free-boundary
ODE with an exponential-plus-linear general solution.  The free boundary
follows from inverting the strictly decreasing map from its position to
the interface slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .errors import InvalidInput, NegativePosition, NoConvergence, NoDryout
from .numerics import RootConfig, find_root_bracketed

NO_DRYOUT_REASON = "(-ell) > d2*r/(kappa2*j^2)"


@dataclass(frozen=True)
class StefanInputs:
    """Constant coefficients of the stationary two-phase heat problem.

    ``ell`` is the (negative) latent heat; ``rho_gas`` is optional and
    only used to report the gas velocity ``u2 = j / rho_gas``.
    """

    kappa1: float
    kappa2: float
    d1: float
    d2: float
    r: float
    j: float
    ell: float
    theta_in: float
    theta_star: float
    rho_gas: Optional[float] = None

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None and not math.isfinite(value):
                raise InvalidInput(f"{field.name} must be finite")
        for name in ("kappa1", "kappa2", "d1", "d2", "r", "j"):
            if not getattr(self, name) > 0.0:
                raise InvalidInput(f"{name} must be positive")
        # the solver divides by both rates; kappa2*j^2 > 0 also keeps j^2 and kappa2*j above zero
        if self.kappa2 * (self.j * self.j) == 0.0 or self.kappa1 * self.j / self.d1 == 0.0:
            raise InvalidInput("kappa2*j^2 and kappa1*j/d1 must not underflow to zero")
        if not self.ell < 0.0:
            raise InvalidInput("latent heat ell must be negative")
        if not self.theta_in < self.theta_star:
            raise InvalidInput("theta_in must be below theta_star")
        if self.rho_gas is not None and not self.rho_gas > 0.0:
            raise InvalidInput("rho_gas must be positive when given")


@dataclass(frozen=True)
class FreeBoundaryProblem:
    """Coefficients of b*y' - a*y'' - c = 0 with y(0) = -y0, y(xhat) = 0, y'(xhat) = z0."""

    a: float
    b: float
    c: float
    y0: float
    z0: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0 and self.c > 0.0 and self.y0 > 0.0):
            raise InvalidInput("a, b, c and y0 must be positive")
        if self.z0 < 0.0:
            raise InvalidInput("z0 must be non-negative")


@dataclass(frozen=True)
class DryoutSolution:
    """Existence verdict, free-boundary location and profile coefficients.

    ``heat_balance_residual`` is the certified interfacial heat balance
    ell*j + d2*theta_2' - d1*theta_1' at the free boundary (None without
    dryout).
    """

    exists: bool
    reason: str
    x_star: Optional[float]
    c1: Optional[float]
    c2: Optional[float]
    slope2: float
    u2: Optional[float]
    inputs: StefanInputs
    heat_balance_residual: Optional[float]


def dryout_condition(inputs):
    """True when the heat supply can absorb the latent-heat sink: (-ell) <= d2*r/(kappa2*j^2)."""
    # j * j squares a huge flux to inf (no dryout) where j ** 2 raises OverflowError
    return (-inputs.ell) <= inputs.d2 * inputs.r / (inputs.kappa2 * (inputs.j * inputs.j))


def canonical_reduction(inputs):
    """Map the physical coefficients onto the canonical free-boundary ODE.

    Raises :class:`NoDryout` when the interface slope datum z0 would be
    negative, i.e. exactly when the dryout condition fails.
    """
    z0 = (inputs.d2 * inputs.r / (inputs.kappa2 * inputs.j) + inputs.ell * inputs.j) / inputs.d1
    if z0 < 0.0:
        raise NoDryout(NO_DRYOUT_REASON)
    return FreeBoundaryProblem(
        a=inputs.d1,
        b=inputs.kappa1 * inputs.j,
        c=inputs.r,
        y0=inputs.theta_star - inputs.theta_in,
        z0=z0,
    )


def z0_of_xhat(a, b, c, y0, xhat):
    """Interface slope of the solution pinned at y(0) = -y0 and y(xhat) = 0.

    Strictly decreasing in xhat, from +inf at 0+ to -inf.  The exponential
    ratio is evaluated as 1/(1 - exp(-s)) via expm1, which neither
    overflows for large s nor loses precision for small s.
    """
    if not xhat > 0.0:
        raise InvalidInput("xhat must be positive")
    if not (a > 0.0 and b > 0.0 and c > 0.0):
        raise InvalidInput("a, b and c must be positive")
    s = (b / a) * xhat
    geom = 1.0 / (-math.expm1(-s))
    return c / b + (y0 - (c / b) * xhat) * (b / a) * geom


def _z0_prime(a, b, c, y0, xhat):
    s = (b / a) * xhat
    em = -math.expm1(-s)
    geom = 1.0 / em
    damp = math.exp(-s)
    amp = y0 - (c / b) * xhat
    return (b / a) * (-(c / b) * geom - amp * (b / a) * damp * geom * geom)


_EPS = 2.220446049250313e-16


def _z0_noise_floor(a, b, c, y0, xhat):
    # round-off model of z0_of_xhat: the amplitude y0 - (c/b)*xhat cancels
    # against operands of size |y0| + (c/b)*xhat, amplified by (b/a)*geom
    s = (b / a) * xhat
    geom = 1.0 / (-math.expm1(-s))
    return _EPS * (c / b + (abs(y0) + (c / b) * xhat) * (b / a) * geom)


def solve_free_boundary(fbp):
    """Unique xhat > 0 matching the requested interface slope.

    Bracketed by geometric expansion around the natural length scale,
    solved by safeguarded secant, then Newton-polished so the slope
    residual drops to machine precision.
    """
    a, b, c, y0, z0 = fbp.a, fbp.b, fbp.c, fbp.y0, fbp.z0
    gap = lambda x: z0_of_xhat(a, b, c, y0, x) - z0

    scale = y0 * b / c + a / b
    lo = scale
    for _ in range(400):
        if gap(lo) > 0.0:
            break
        lo *= 0.5
    else:
        raise NoConvergence("failed to bracket the free boundary from below")
    hi = scale
    for _ in range(400):
        if gap(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise NoConvergence("failed to bracket the free boundary from above")

    cfg = RootConfig(abs_tol=1e-13 * max(1.0, abs(z0)),
                     x_tol=1e-14 * max(1e-6, hi),
                     max_iter=200)
    x = find_root_bracketed(gap, lo, hi, cfg)
    for _ in range(3):
        gx = gap(x)
        if gx == 0.0:
            break
        der = _z0_prime(a, b, c, y0, x)
        if der == 0.0 or not math.isfinite(der):
            break
        x_new = x - gx / der
        if not x_new > 0.0:
            break
        x = x_new
    tol = 1e-12 * max(1.0, abs(z0)) + 32.0 * _z0_noise_floor(a, b, c, y0, x)
    if abs(gap(x)) > tol:
        raise NoConvergence(f"free-boundary slope residual {gap(x)} above tolerance")
    return x


def xhat_critical(a, y0):
    """Free-boundary location in scaled (b = c = 1) coordinates at zero slope."""
    return solve_free_boundary(FreeBoundaryProblem(a=a, b=1.0, c=1.0, y0=y0, z0=0.0))


def _liquid_coefficients(inp, x_star):
    # theta_1(x) = theta_in + drift*x + amp*(exp(alpha*(x - x_star)) - exp(-alpha*x_star))/em
    alpha = inp.kappa1 * inp.j / inp.d1
    drift = inp.r / (inp.kappa1 * inp.j)
    amp = (inp.theta_star - inp.theta_in) - drift * x_star
    em = -math.expm1(-alpha * x_star)
    return alpha, drift, amp, em


def _liquid_temperature(inp, x_star, x):
    # c2*exp(alpha*x) + c1 rewritten so nothing overflows for large alpha*x_star
    alpha, drift, amp, em = _liquid_coefficients(inp, x_star)
    damp = math.exp(-alpha * x_star)
    return inp.theta_in + drift * x + amp * (math.exp(alpha * (x - x_star)) - damp) / em


def _liquid_slope(inp, x_star, x):
    alpha, drift, amp, em = _liquid_coefficients(inp, x_star)
    return drift + amp * alpha * math.exp(alpha * (x - x_star)) / em


def _liquid_peak(inp, x_star):
    """Largest liquid temperature on [0, x_star] and its position.

    theta_1'' = amp * alpha^2 * exp(alpha*(x - x_star)) / em has the sign of
    amp, so theta_1' is monotone on the interval: the maximum lies at an
    endpoint unless theta_1' falls from positive to negative inside it, and
    then at the one root of theta_1'.
    """
    candidates = [0.0, x_star]
    if _liquid_slope(inp, x_star, 0.0) > 0.0 > _liquid_slope(inp, x_star, x_star):
        alpha, drift, amp, em = _liquid_coefficients(inp, x_star)
        # theta_1' = 0 where exp(alpha*(x - x_star)) = drift*em/(-amp*alpha); logs cannot overflow
        x_peak = x_star + (math.log(drift) + math.log(em)
                           - math.log(-amp) - math.log(alpha)) / alpha
        if 0.0 < x_peak < x_star:
            candidates.append(x_peak)
    return max((_liquid_temperature(inp, x_star, x), x) for x in candidates)


def _liquid_noise_floor(inp, x_star):
    # round-off model of _liquid_temperature on [0, x_star]: the difference of
    # two exponentials near 1 is exact only to ~eps, and amp/em amplifies it
    # when alpha*x_star is small
    _, drift, amp, em = _liquid_coefficients(inp, x_star)
    return _EPS * (abs(inp.theta_in) + drift * x_star + 4.0 * abs(amp) / em)


def temperature_profiles(sol, x):
    """Temperature at position ``x >= 0``: exponential-plus-linear liquid
    branch up to the free boundary, linear gas branch beyond it."""
    if x < 0.0:
        raise NegativePosition(f"x={x} must be non-negative")
    if not sol.exists or sol.x_star is None:
        raise InvalidInput("no dryout solution; profiles are undefined")
    if x > sol.x_star:
        return sol.inputs.theta_star + sol.slope2 * (x - sol.x_star)
    return _liquid_temperature(sol.inputs, sol.x_star, x)


def solve_stationary(inputs):
    """Dryout verdict, free-boundary location and certified profile data.

    When the dryout condition fails the verdict carries the violated
    inequality as its reason.  Otherwise the free boundary is located
    (the equality case routes through the zero-slope critical position),
    and the interfacial heat balance plus the theta_1 <= theta_star bound
    are certified before returning.  The bound is checked at the exact
    maximiser of the liquid profile, with the round-off of the profile's
    float evaluation added.
    """
    slope2 = inputs.r / (inputs.kappa2 * inputs.j)
    u2 = None if inputs.rho_gas is None else inputs.j / inputs.rho_gas
    if not dryout_condition(inputs):
        return DryoutSolution(exists=False, reason=NO_DRYOUT_REASON, x_star=None,
                              c1=None, c2=None, slope2=slope2, u2=u2, inputs=inputs,
                              heat_balance_residual=None)

    fbp = canonical_reduction(inputs)
    if fbp.z0 == 0.0:
        # scaled coordinates: divide the ODE by b and rescale y by b/c
        x_star = xhat_critical(fbp.a / fbp.b, fbp.b * fbp.y0 / fbp.c)
    else:
        x_star = solve_free_boundary(fbp)

    alpha = fbp.b / fbp.a
    drift = fbp.c / fbp.b
    s = alpha * x_star
    if s > 700.0:
        c2 = 0.0  # exp underflows; the exponential correction is gone
    else:
        c2 = (fbp.y0 - drift * x_star) / math.expm1(s)
    c1 = inputs.theta_in - c2

    residual = (inputs.ell * inputs.j + inputs.d2 * slope2
                - inputs.d1 * _liquid_slope(inputs, x_star, x_star))
    tol = (1e-9 * abs(inputs.ell * inputs.j)
           + 32.0 * inputs.d1 * _z0_noise_floor(fbp.a, fbp.b, fbp.c, fbp.y0, x_star))
    if abs(residual) > tol:
        raise NoConvergence(f"interfacial heat-balance residual {residual} above tolerance")

    bound = inputs.theta_star + 1e-9 * (inputs.theta_star - inputs.theta_in)
    theta_max, x_max = _liquid_peak(inputs, x_star)
    if theta_max + _liquid_noise_floor(inputs, x_star) > bound:
        raise NoConvergence(f"liquid temperature not certified below theta_star at x={x_max}")
    return DryoutSolution(exists=True, reason="", x_star=x_star, c1=c1, c2=c2,
                          slope2=slope2, u2=u2, inputs=inputs,
                          heat_balance_residual=residual)
