"""Two-phase coexistence: the closed-form coexistence curve and its inversion.

Every model with a critical point is a scaled van der Waals fluid, and the
coexistence curve of that family has an exact one-parameter form
(J. Lekner, Am. J. Phys. 50, 161 (1982); D. C. Johnston, arXiv:1402.1205).
In critical units, with f(y) = (y cosh y - sinh y) / (sinh y cosh y - y),
A = 1/f and g = 1 + 2 A cosh y + A^2, the parameter y > 0 gives

    3 v_l / v_c - 1 = A e^(-y),    3 v_g / v_c - 1 = A e^y,
    theta / theta_c = 27 A^2 (1 + A cosh y) / (4 g^2),

which runs from the critical point at y = 0 down to zero temperature as y
grows.  :func:`maxwell_construction` solves theta(y) = theta and
:func:`boiling_temperature` solves v_l(y) = v_l, each by one bracketed
scalar root solve in y.  The returned float point is certified against the
bitangent conditions themselves (equal pressures, energy balance), not
against the parametrisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AboveCritical,
    DegenerateGap,
    InvalidInput,
    NoConvergence,
    NoCriticalPoint,
    NoPhaseTransition,
    OutOfRange,
)
# newton2d: unused here; the benchmark tracer patches this name
from .numerics import RootConfig, find_root_bracketed, newton2d

#: Fraction of the critical temperature above which the construction is
#: refused: the two volumes merge there and the bitangent degenerates.
NEAR_CRITICAL_FRACTION = 0.999

#: Below this y the two halves of f, (y cosh y - sinh y) / y^3 and
#: (sinh y cosh y - y) / y^3, are positive-term series in y^2; above it the
#: closed form has no cancellation.  Worst relative error of 3 v_l / v_c - 1
#: against 50-digit values: closed form 1.4e-15, series 3.7e-16 on
#: [0.6, 0.8]; 5.0e-16 and 3.2e-16 on [1.0, 1.1].
_SERIES_BELOW = 1.0
#: (2k / (2k+1)!, 4^k / (2k+1)!), k = 1..12: below y = 1 the next term is < 1e-20.
_SERIES = tuple((2 * k / math.factorial(2 * k + 1), 4 ** k / math.factorial(2 * k + 1))
                for k in range(1, 13))


@dataclass(frozen=True)
class SaturationPoint:
    """Coexistence data at one temperature below critical.

    ``ell`` is the latent heat with the sign convention
    ``ell = -theta * (eta_g - eta_l) < 0``; the conventional positive
    latent heat is ``-ell``.
    """

    theta: float
    v_l_star: float
    v_g_star: float
    p_star: float
    eta_l_star: float
    eta_g_star: float
    ell: float


def _critical_or_no_transition(model):
    try:
        return model.critical_point()
    except NoCriticalPoint:
        raise NoPhaseTransition(
            "the Helmholtz energy is convex in v; no bitangent exists (ideal gas)"
        ) from None


def _coexistence(y):
    """(x_l, u) at the parameter y >= 0: x_l = 3 v_l / v_c - 1 = A e^(-y) and u = e^(-2y).

    The gas side is x_g = 3 v_g / v_c - 1 = x_l / u.
    """
    u = math.exp(-2.0 * y)
    if y < _SERIES_BELOW:
        z = y * y
        n = d = 0.0
        for c_n, c_d in reversed(_SERIES):
            n = n * z + c_n
            d = d * z + c_d
        return d / n * math.exp(-y), u
    # A e^(-y) with numerator and denominator scaled by e^(-y) and e^(-2y)
    return (1.0 - u * (u + 4.0 * y)) / (2.0 * ((y - 1.0) + u * (y + 1.0))), u


def _reduced_temperature(x_l, u):
    """theta / theta_c at which x_l and x_g = x_l / u have equal pressures.

    Lekner's 27 A^2 (1 + A cosh y) / (4 g^2), with A^2 = x_l x_g,
    2 A cosh y = x_l + x_g and g = (1 + x_l)(1 + x_g), is
    27 x_l^2 (x_l + (2 + x_l) u) / (8 (1 + x_l)^2 (x_l + u)^2).  It is
    evaluated exactly in integers over the common power-of-two denominator
    s and rounded once: float arithmetic, off by up to 4 ulp, put the
    latent heat at 0.985 theta_c 6.0e-15 from the 40-digit value (1.2e-15).
    """
    (x, a), (w, b) = x_l.as_integer_ratio(), u.as_integer_ratio()
    s = max(a, b)
    x, w = x * (s // a), w * (s // b)
    return 27 * x * x * (x * s + (2 * s + x) * w) / (8 * (s + x) ** 2 * (x + w) ** 2)


def descend_to_bracket(residual):
    """Bracket (lo, hi) in y of the root of ``residual``, positive at y = 0 and falling.

    Doubling y from 1 descends the coexistence curve in temperature.  Past
    y = 512 the saturated gas volume, v_c (1 + A e^y) / 3 with
    A e^y > e^(2y) / (2y), lies beyond double precision, so a root there
    raises :class:`NoConvergence`.
    """
    lo, hi = 0.0, 1.0
    while residual(hi) > 0.0:
        if hi >= 512.0:
            raise NoConvergence("the saturated gas volume lies beyond double precision")
        lo, hi = hi, 2.0 * hi
    return lo, hi


def _solve_parameter(residual):
    """The y at which ``residual`` (positive at y = 0, falling) vanishes, to a few ulp."""
    lo, hi = descend_to_bracket(residual)
    return find_root_bracketed(residual, lo, hi,
                               RootConfig(abs_tol=1e-300, x_tol=2.0 ** -52 * hi, max_iter=200))


def _bitangent_residual(model, cp, theta, v_l, v_g):
    """Pressure gap over p_c and energy balance over the psi scale, the larger one."""
    p_l = model.pressure(v_l, theta)
    p_g = model.pressure(v_g, theta)
    psi_l = model.psi(v_l, theta)
    balance = model.psi(v_g, theta) - psi_l + (v_g - v_l) * 0.5 * (p_l + p_g)
    return max(abs(p_l - p_g) / cp.p_c, abs(balance) / max(abs(psi_l), cp.p_c * cp.v_c))


def _floor_polish(model, cp, theta, v_l, v_g):
    """Plain Newton on the certified residual pair, keeping the best point seen.

    Near the float floor the residuals jiggle instead of contracting, so
    the loop tracks the metric rather than demanding monotone decrease.
    """
    best, best_metric = (v_l, v_g), _bitangent_residual(model, cp, theta, v_l, v_g)
    for _ in range(8):
        p_l, p_g = model.pressure(v_l, theta), model.pressure(v_g, theta)
        dp_l, dp_g = model.pressure_dv(v_l, theta), model.pressure_dv(v_g, theta)
        balance = model.psi(v_g, theta) - model.psi(v_l, theta) + (v_g - v_l) * 0.5 * (p_l + p_g)
        # Jacobian rows (dp_l, -dp_g) and (j21, j22) in (v_l, v_g)
        half_dp, gap = 0.5 * (p_l - p_g), v_g - v_l
        j21, j22 = half_dp + 0.5 * gap * dp_l, half_dp + 0.5 * gap * dp_g
        det = dp_l * j22 + dp_g * j21
        if det == 0.0:
            break
        v_l, v_g = (v_l + (-(p_l - p_g) * j22 - balance * dp_g) / det,
                    v_g + ((p_l - p_g) * j21 - balance * dp_l) / det)
        if not (model.v_min < v_l < v_g):
            break
        metric = _bitangent_residual(model, cp, theta, v_l, v_g)
        if metric < best_metric:
            best, best_metric = (v_l, v_g), metric
    return best


def maxwell_construction(model, theta):
    """Bitangent endpoints, saturated pressure and latent heat at ``theta``.

    One bracketed root solve of theta(y) = theta on Lekner's curve (see
    the module docstring) gives both volumes.  The returned float point is
    certified: pressures equal to 1e-9 p_c, energy balance
    psi_g - psi_l + (v_g - v_l) (p_l + p_g) / 2 zero to 1e-9 of
    max(|psi_l|, p_c v_c), and v_l < v_c < v_g.  Only a point that fails the
    certificate, which happens only near the double-precision floor below
    about 0.21 theta_c, is polished by a few Newton steps on those
    residuals.  ``p_star`` is the gas-side pressure p(v_g*, theta), which
    the rounding of the liquid volume leaves intact.

    Raises :class:`AboveCritical` above ``NEAR_CRITICAL_FRACTION`` of the
    critical temperature and :class:`NoConvergence` where no certified
    point exists in double precision, the gas volume overflowing included.
    """
    cp = _critical_or_no_transition(model)
    if theta > NEAR_CRITICAL_FRACTION * cp.theta_c:
        raise AboveCritical(
            f"theta={theta} above {NEAR_CRITICAL_FRACTION} * theta_c={cp.theta_c}")
    model.check_state(cp.v_c, theta)

    t = theta / cp.theta_c
    y = _solve_parameter(lambda y: _reduced_temperature(*_coexistence(y)) - t)
    x_l = _coexistence(y)[0]
    try:
        v_g = model.b * (1.0 + x_l * math.exp(2.0 * y))
    except OverflowError:
        v_g = math.inf
    if not math.isfinite(v_g):
        raise NoConvergence(f"saturated gas volume beyond double precision at theta={theta}")
    v_l = model.b * (1.0 + x_l)

    if not _bitangent_residual(model, cp, theta, v_l, v_g) <= 1e-9:
        try:
            v_l, v_g = _floor_polish(model, cp, theta, v_l, v_g)
        except OverflowError:  # dp/dv at a gas volume near the top of the float range
            pass
        residual = _bitangent_residual(model, cp, theta, v_l, v_g)
        if not residual <= 1e-9:
            raise NoConvergence(f"bitangent residual {residual} above 1e-9 at theta={theta}")
    if not model.v_min < v_l < cp.v_c < v_g:
        raise NoConvergence(
            f"bitangent endpoints {v_l}, {v_g} fail to straddle the critical volume")

    eta_l = model.eta(v_l, theta)
    eta_g = model.eta(v_g, theta)
    return SaturationPoint(
        theta=theta, v_l_star=v_l, v_g_star=v_g, p_star=model.pressure(v_g, theta),
        eta_l_star=eta_l, eta_g_star=eta_g, ell=-theta * (eta_g - eta_l))


def _gap_floor(model, v_l):
    try:
        return 1e-12 * model.critical_point().v_c
    except NoCriticalPoint:
        return 1e-12 * max(1.0, v_l)


def f_system(model, v_l, theta, v, Z):
    """Residual pair (f1, f2) of the coupled interface system.

    f1 couples the liquid pressure to the secant slope of the energy
    between the two volumes, f2 the gas pressure; f1 - f2 reproduces the
    momentum balance p_l - p_g - 2 Z (v - v_l) identically.  At Z = 0 both
    vanish on the bitangent through v_l, which :func:`boiling_temperature`
    solves and the branch solve in :mod:`dryout.interface` starts from.
    """
    if Z < 0.0:
        raise InvalidInput("Z must be non-negative")
    gap = v - v_l
    if gap < _gap_floor(model, v_l):
        raise DegenerateGap(f"v - v_l = {gap} too small for the secant slope")
    secant = (model.psi(v_l, theta) - model.psi(v, theta)) / gap
    f1 = model.pressure(v_l, theta) - Z * gap - secant
    f2 = model.pressure(v, theta) + Z * gap - secant
    return f1, f2


def f_jacobian(model, v_l, theta, v, Z):
    """Analytic Jacobian of ``f_system`` in the unknowns (theta, v)."""
    if Z < 0.0:
        raise InvalidInput("Z must be non-negative")
    gap = v - v_l
    if gap < _gap_floor(model, v_l):
        raise DegenerateGap(f"v - v_l = {gap} too small for the secant slope")
    entropy_slope = (model.eta(v_l, theta) - model.eta(v, theta)) / gap
    df1_dtheta = model.eta_dv(v_l, theta) + entropy_slope
    df2_dtheta = model.eta_dv(v, theta) + entropy_slope
    secant = (model.psi(v_l, theta) - model.psi(v, theta)) / gap
    r_term = (secant - model.pressure(v, theta)) / gap
    df1_dv = -Z + r_term
    df2_dv = model.pressure_dv(v, theta) + Z + r_term
    return np.array([[df1_dtheta, df1_dv], [df2_dtheta, df2_dv]])


def boiling_temperature(model, v_l):
    """Temperature at which ``v_l`` is the saturated liquid volume.

    One bracketed root solve of v_l(y) = v_l on Lekner's parametric
    coexistence curve (see the module docstring), whose liquid volume
    falls strictly from v_c as y grows, gives theta_b = theta(y).  A
    temperature above ``NEAR_CRITICAL_FRACTION`` of the critical one raises
    :class:`AboveCritical`.  One Maxwell construction at theta_b then
    certifies the answer; below the double-precision floor it raises
    :class:`NoConvergence`.
    """
    cp = _critical_or_no_transition(model)
    if not (model.v_min * (1.0 + 1e-9) <= v_l < cp.v_c):
        raise OutOfRange(f"v_l={v_l} outside ({model.v_min}, {cp.v_c})")
    # 3 v_l / v_c - 1; rounding can lift it to 2, the critical point y = 0, not past it
    x_l = min((v_l - model.b) / model.b, 2.0)
    y = _solve_parameter(lambda y: _coexistence(y)[0] - x_l)
    theta = cp.theta_c * _reduced_temperature(x_l, _coexistence(y)[1])
    if theta > NEAR_CRITICAL_FRACTION * cp.theta_c:
        raise AboveCritical(
            f"v_l={v_l} boils at theta={theta}, above the supported ceiling "
            f"{NEAR_CRITICAL_FRACTION} * theta_c={cp.theta_c}")
    maxwell_construction(model, theta)
    return theta


def latent_heat(model, sat):
    """Latent heat -theta * (eta_gas - eta_liquid); negative below critical."""
    eta_g = model.eta(sat.v_g_star, sat.theta)
    eta_l = model.eta(sat.v_l_star, sat.theta)
    return -sat.theta * (eta_g - eta_l)


def clausius_clapeyron_residual(model, theta, h):
    """Relative gap between the FD slope of p*(theta) and (-ell)/(theta*(v_g*-v_l*)).

    Both sides are evaluated independently: the left by central differences
    of two extra bitangent constructions, the right from the latent heat.
    """
    if h <= 0.0:
        raise InvalidInput("step h must be positive")
    p_plus = maxwell_construction(model, theta + h).p_star
    p_minus = maxwell_construction(model, theta - h).p_star
    slope_fd = (p_plus - p_minus) / (2.0 * h)
    sat = maxwell_construction(model, theta)
    slope_cc = (-sat.ell) / (theta * (sat.v_g_star - sat.v_l_star))
    return abs(slope_fd - slope_cc) / abs(slope_fd)


def saturation_curve(model, theta_lo, theta_hi, n):
    """``n`` certified saturation points, ordered by temperature."""
    if n < 2:
        raise InvalidInput("n must be at least 2")
    if not 0.0 < theta_lo < theta_hi:
        raise InvalidInput("need 0 < theta_lo < theta_hi")
    cp = _critical_or_no_transition(model)
    if theta_hi >= cp.theta_c:
        raise AboveCritical(f"theta_hi={theta_hi} at or above theta_c={cp.theta_c}")
    return [maxwell_construction(model, float(th))
            for th in np.linspace(theta_lo, theta_hi, n)]
