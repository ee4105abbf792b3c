"""Two-phase coexistence: bitangent construction and the saturation curve.

The coexistence pressure is located robustly by a scalar root solve
between the spinodal pressures (equal specific Gibbs energy on the two
monotone pressure branches) and then polished by a damped 2-D Newton
iteration on the exact bitangent conditions.  The sampled-envelope
construction in :mod:`dryout.numerics` stays independent of this path
and serves as its oracle.

The inverse problem, the boiling temperature of a given liquid volume,
is the same bitangent system with the liquid volume held fixed and the
temperature and gas volume unknown: ``f_system`` at zero flux.  A few
Maxwell constructions bracket the answer and seed it: the supported
ceiling, a halving descent, then two regula-falsi steps in
(v_c - v_l*)^2.  One damped Newton solve in (theta, v_g) then gives the
temperature.  The result is accepted only when the residual is below
1e-13 p_c, the gas volume exceeds v_c and the temperature stays in the
bracket.  Otherwise, and above ``NEWTON_CEILING_FRACTION`` of the
critical temperature, a bracketed scalar solve on v_l*(theta) - v_l, one
Maxwell construction per step, stands in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AboveCritical,
    DegenerateGap,
    InvalidInput,
    NoBracket,
    NoConvergence,
    NoCriticalPoint,
    NoPhaseTransition,
    OutOfRange,
    SingularJacobian,
)
from .numerics import RootConfig, find_root_bracketed, newton2d

#: Fraction of the critical temperature above which the bitangent solve is
#: refused: the two volume roots merge there and the Jacobian degenerates.
NEAR_CRITICAL_FRACTION = 0.999

#: Fraction of the critical temperature above which the boiling temperature
#: comes from the bracketed solve over Maxwell constructions rather than the
#: bitangent Newton solve.  Above it v_l*(theta) is so steep that the float
#: floor of the secant-slope residual leaves the Newton root farther from
#: the exact temperature than the bracketed solve; below it the Newton root
#: is as close or closer.
NEWTON_CEILING_FRACTION = 0.995


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


def _spinodal_volumes(model, cp, theta):
    """Local extrema of the pressure in v: (liquid edge, gas edge)."""
    dp = lambda v: model.pressure_dv(v, theta)
    cfg = RootConfig(abs_tol=1e-10 * cp.p_c / cp.v_c, x_tol=1e-13 * cp.v_c, max_iter=200)
    v_edge = model.v_min * (1.0 + 1e-9)
    v_lo = find_root_bracketed(dp, v_edge, cp.v_c, cfg)
    hi = 2.0 * cp.v_c
    for _ in range(200):
        if dp(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise NoConvergence("could not bracket the gas-side spinodal")
    v_hi = find_root_bracketed(dp, cp.v_c, hi, cfg)
    return v_lo, v_hi


def maxwell_construction(model, theta):
    """Bitangent endpoints, saturated pressure and latent heat at ``theta``.

    The returned point satisfies equal pressures and equal tangent
    intercepts at both volumes (certified to 1e-9 of the critical scales).
    """
    cp = _critical_or_no_transition(model)
    if theta > NEAR_CRITICAL_FRACTION * cp.theta_c:
        raise AboveCritical(
            f"theta={theta} above {NEAR_CRITICAL_FRACTION} * theta_c={cp.theta_c}")
    model.check_state(cp.v_c, theta)

    v_sp_l, v_sp_g = _spinodal_volumes(model, cp, theta)
    p_floor = max(model.pressure(v_sp_l, theta), 0.0)
    p_ceil = model.pressure(v_sp_g, theta)
    if not p_ceil > p_floor:
        raise NoConvergence(f"degenerate spinodal pressure window at theta={theta}")
    span = p_ceil - p_floor
    margin = 1e-8 * span

    branch_cfg = RootConfig(abs_tol=1e-11 * cp.p_c, x_tol=1e-14 * cp.v_c, max_iter=200)
    v_edge = model.v_min * (1.0 + 1e-9)

    def liquid_volume(p):
        return find_root_bracketed(
            lambda v: model.pressure(v, theta) - p, v_edge, v_sp_l, branch_cfg)

    def gas_volume(p):
        hi = 2.0 * v_sp_g
        for _ in range(400):
            if model.pressure(hi, theta) < p:
                break
            hi *= 2.0
        else:
            raise NoConvergence("could not bracket the gas branch volume")
        return find_root_bracketed(
            lambda v: model.pressure(v, theta) - p, v_sp_g, hi, branch_cfg)

    def gibbs_gap(p):
        v_l = liquid_volume(p)
        v_g = gas_volume(p)
        return (model.psi(v_g, theta) + p * v_g) - (model.psi(v_l, theta) + p * v_l)

    # The coexistence pressure can sit many decades below the spinodal
    # ceiling at low temperature; descend the lower bracket edge
    # geometrically until the gas branch becomes the cheaper phase.
    hi_p = p_ceil - margin
    hi_margin = margin
    for _ in range(60):
        if gibbs_gap(hi_p) > 0.0:
            break
        hi_margin *= 0.1
        hi_p = p_ceil - hi_margin
    else:
        raise NoConvergence("gas branch never dearer near the spinodal ceiling")
    lo_p = p_floor + margin
    lo_margin = margin
    for _ in range(300):
        if lo_p <= 5e-300:
            raise NoConvergence("coexistence pressure below double-precision range")
        if gibbs_gap(lo_p) < 0.0:
            break
        if p_floor > 0.0:
            lo_margin *= 0.1
            lo_p = p_floor + lo_margin
        else:
            lo_p *= 0.1
    else:
        raise NoConvergence("failed to bracket the coexistence pressure")
    try:
        # the coexistence pressure spans decades over the temperature range,
        # so the scalar stage solves in log-pressure coordinates
        log_seed = find_root_bracketed(
            lambda u: gibbs_gap(math.exp(u)), math.log(lo_p), math.log(hi_p),
            RootConfig(abs_tol=1e-10 * max(cp.p_c * cp.v_c, 1.0), x_tol=1e-14, max_iter=200))
    except NoBracket as exc:
        raise NoConvergence(f"failed to bracket the coexistence pressure: {exc}") from None
    p_seed = math.exp(log_seed)

    v_l0 = liquid_volume(p_seed)
    v_g0 = gas_volume(p_seed)

    # Newton polish of the bitangent conditions: equal pressure and equal
    # tangent intercept T(v) = -v*p - psi (the best-conditioned float form,
    # since neither side multiplies the liquid pressure noise by v_g).
    scale_p = cp.p_c
    scale_t = cp.p_c * cp.v_c

    def intercept(v):
        return -v * model.pressure(v, theta) - model.psi(v, theta)

    def resid(x):
        v_l, v_g = x
        return np.array([
            (model.pressure(v_l, theta) - model.pressure(v_g, theta)) / scale_p,
            (intercept(v_l) - intercept(v_g)) / scale_t,
        ])

    def jac(x):
        v_l, v_g = x
        dp_l = model.pressure_dv(v_l, theta)
        dp_g = model.pressure_dv(v_g, theta)
        return np.array([
            [dp_l / scale_p, -dp_g / scale_p],
            [-v_l * dp_l / scale_t, v_g * dp_g / scale_t],
        ])

    v_l, v_g = newton2d(resid, jac, (v_l0, v_g0),
                        RootConfig(abs_tol=1e-12, x_tol=1e-15, max_iter=60))

    psi_scale = max(abs(model.psi(v_l, theta)), cp.p_c * cp.v_c)

    def certification_metric(v_l, v_g):
        p_l = model.pressure(v_l, theta)
        p_g = model.pressure(v_g, theta)
        balance = (model.psi(v_g, theta) - model.psi(v_l, theta)
                   + (v_g - v_l) * 0.5 * (p_l + p_g))
        return max(abs(p_l - p_g) / cp.p_c, abs(balance) / psi_scale)

    # Floor polish: plain Newton on the certified residual pair, keeping the
    # best point seen.  Near the float floor the residuals jiggle instead of
    # contracting, so the loop tracks the metric rather than demanding
    # monotone decrease.
    best = (v_l, v_g)
    best_metric = certification_metric(v_l, v_g)
    x = np.array([v_l, v_g])
    for _ in range(8):
        p_l = model.pressure(x[0], theta)
        p_g = model.pressure(x[1], theta)
        dp_l = model.pressure_dv(x[0], theta)
        dp_g = model.pressure_dv(x[1], theta)
        balance = (model.psi(x[1], theta) - model.psi(x[0], theta)
                   + (x[1] - x[0]) * 0.5 * (p_l + p_g))
        half_dp = 0.5 * (p_l - p_g)
        gap = x[1] - x[0]
        jac_cert = np.array([
            [dp_l, -dp_g],
            [half_dp + 0.5 * gap * dp_l, half_dp + 0.5 * gap * dp_g],
        ])
        det = jac_cert[0, 0] * jac_cert[1, 1] - jac_cert[0, 1] * jac_cert[1, 0]
        if det == 0.0:
            break
        rhs = np.array([p_l - p_g, balance])
        step = np.array([
            (-rhs[0] * jac_cert[1, 1] + rhs[1] * jac_cert[0, 1]) / det,
            (rhs[0] * jac_cert[1, 0] - rhs[1] * jac_cert[0, 0]) / det,
        ])
        x = x + step
        if not (model.v_min < x[0] < x[1]):
            break
        metric = certification_metric(x[0], x[1])
        if metric < best_metric:
            best = (float(x[0]), float(x[1]))
            best_metric = metric
    v_l, v_g = best

    p_l = model.pressure(v_l, theta)
    p_g = model.pressure(v_g, theta)
    p_star = 0.5 * (p_l + p_g)
    if abs(p_l - p_g) > 1e-9 * cp.p_c:
        raise NoConvergence(f"bitangent pressures differ by {abs(p_l - p_g)}")
    gt = model.psi(v_g, theta) - model.psi(v_l, theta) + (v_g - v_l) * p_star
    if abs(gt) > 1e-9 * psi_scale:
        raise NoConvergence(f"interfacial energy-balance residual {gt} above tolerance")
    if not model.v_min < v_l < cp.v_c < v_g:
        raise NoConvergence(
            f"bitangent endpoints {v_l}, {v_g} fail to straddle the critical volume")

    eta_l = model.eta(v_l, theta)
    eta_g = model.eta(v_g, theta)
    return SaturationPoint(
        theta=theta,
        v_l_star=float(v_l),
        v_g_star=float(v_g),
        p_star=float(p_star),
        eta_l_star=float(eta_l),
        eta_g_star=float(eta_g),
        ell=float(-theta * (eta_g - eta_l)),
    )


def descend_to_bracket(model, cp, sat_top, v_l):
    """Saturation points (lo, hi) with v_l* below ``v_l`` at lo and not below it at hi.

    Walks down in temperature from ``sat_top`` by halving, retreating upward
    whenever the bitangent construction becomes uncertifiable at double
    precision (very low temperature, where the gas volume grows by many
    decades).
    """
    sat_hi = sat_top
    lo = 0.5 * sat_top.theta
    floor = 0.0
    for _ in range(200):
        try:
            sat = maxwell_construction(model, lo)
        except NoConvergence:
            floor = lo
            lo = 0.5 * (lo + sat_hi.theta)
            if sat_hi.theta - lo < 1e-9 * cp.theta_c:
                break
            continue
        if sat.v_l_star < v_l:
            return sat, sat_hi
        sat_hi = sat
        lo = 0.5 * (lo + floor) if floor > 0.0 else 0.5 * lo
        if sat_hi.theta - lo < 1e-12 * cp.theta_c:
            break
    raise NoConvergence(
        "temperature descent pinched off; the target lies below the "
        "saturation range computable at double precision")


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

    The saturated liquid volume v_l*(theta) rises strictly with
    temperature.  A Maxwell construction at the supported ceiling refuses
    volumes above its range, and :func:`descend_to_bracket` walks down from
    it to the two saturation points that bracket the answer.  Two
    regula-falsi steps on v_l*(theta), each one Maxwell construction, then
    narrow the bracket; they interpolate theta linearly
    in (v_c - v_l*)^2, which the square-root law near the critical point
    makes nearly linear in theta.

    From the last of those points, (theta, v_g*), a single damped Newton
    solve of the bitangent conditions with ``v_l`` held fixed (equal
    pressure, equal secant slope: :func:`f_system` at Z = 0) gives the
    answer directly.  It is accepted when the residual scaled by p_c is
    below 1e-13, the gas volume lies above v_c and theta stays inside the
    bracket.  Otherwise, and when that point lies above
    ``NEWTON_CEILING_FRACTION`` of the critical temperature, the bracket is
    solved by safeguarded secant steps on v_l*(theta) - v_l, each a full
    Maxwell construction, until that gap is below 1e-13 v_c or the bracket
    is narrower than 1e-13 theta_c.
    """
    cp = _critical_or_no_transition(model)
    if not (model.v_min * (1.0 + 1e-9) <= v_l < cp.v_c):
        raise OutOfRange(f"v_l={v_l} outside ({model.v_min}, {cp.v_c})")
    theta_hi = NEAR_CRITICAL_FRACTION * cp.theta_c
    sat_hi = maxwell_construction(model, theta_hi)
    if sat_hi.v_l_star < v_l:
        raise AboveCritical(
            f"v_l={v_l} exceeds the saturated liquid volume {sat_hi.v_l_star} "
            f"at the supported ceiling theta={theta_hi}")
    if sat_hi.v_l_star == v_l:
        return theta_hi

    sat_lo, sat_hi = descend_to_bracket(model, cp, sat_hi, v_l)
    theta_lo, theta_hi = sat_lo.theta, sat_hi.theta

    # (v_c - v_l*)^2 falls strictly and nearly linearly in theta
    target = (cp.v_c - v_l) ** 2
    for _ in range(2):
        g_lo = (cp.v_c - sat_lo.v_l_star) ** 2
        g_hi = (cp.v_c - sat_hi.v_l_star) ** 2
        theta = theta_lo + (target - g_lo) * (theta_hi - theta_lo) / (g_hi - g_lo)
        sat = maxwell_construction(model, theta)
        if sat.v_l_star < v_l:
            theta_lo, sat_lo = theta, sat
        else:
            theta_hi, sat_hi = theta, sat

    if sat.theta <= NEWTON_CEILING_FRACTION * cp.theta_c:
        scale = cp.p_c
        resid = lambda x: np.array(f_system(model, v_l, x[0], x[1], 0.0)) / scale
        jac = lambda x: f_jacobian(model, v_l, x[0], x[1], 0.0) / scale
        try:
            theta, v_g = newton2d(resid, jac, (sat.theta, sat.v_g_star),
                                  RootConfig(abs_tol=1e-13, max_iter=50))
            # v_l already lies in (v_min, v_c); a root with v_g past v_c is the bitangent
            if v_g > cp.v_c and theta_lo <= theta <= theta_hi:
                return float(theta)
        except (NoConvergence, SingularJacobian):
            pass

    gap = lambda th: maxwell_construction(model, th).v_l_star - v_l
    cfg = RootConfig(abs_tol=1e-13 * cp.v_c, x_tol=1e-13 * cp.theta_c, max_iter=200)
    return find_root_bracketed(gap, theta_lo, theta_hi, cfg)


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
