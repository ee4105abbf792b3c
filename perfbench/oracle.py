"""Independent 40-digit oracle for the reduced van der Waals dryout chain.

Nothing here calls ``dryout``: the Helmholtz energy, pressure and entropy
are written out again below and evaluated in a private mpmath context, so
every check compares the program against a separate computation.

Formulation (reduced units, p_c = v_c = theta_c = 1):

* bitangent (Maxwell) conditions at temperature theta: equal pressure and
  equal tangent intercept ``T(v) = -v p - psi`` at the two volumes;
* interface jump conditions at mass flux j, with Z = j^2 / 2:
  momentum ``M = (v_g - v_l) j^2 + p_g - p_l`` and Gibbs-Thomson energy
  ``E = psi_g - psi_l + (v_g^2 - v_l^2) j^2 / 2 + p_g v_g - p_l v_l``;
* the Jacobian of (M, E) in (theta, v_g) factors as
  ``(2 Z + dp/dv(v_g)) * (negative for every v_g > v_l)``, so the branch
  continued from zero flux keeps ``j^2 < -dp/dv(v_g)`` and its fold is
  where ``j^2 = -dp/dv(v_g)``;
* free boundary: the liquid profile ``theta_1 = C1 + C2 exp(alpha x) +
  (r / (kappa1 j)) x`` with ``alpha = kappa1 j / d1`` pinned at
  theta_1(0) = theta_in and theta_1(x*) = theta*, and the heat balance
  ``ell j + d2 theta_2' - d1 theta_1'(x*)`` with ``theta_2' = r / (kappa2 j)``.

Solves are plain Newton iterations seeded from ``seeds.json``, a table
that ``make_seeds.py`` recomputes from scratch.
"""

from __future__ import annotations

import bisect
import json
import math
import os

from mpmath import MPContext

mp = MPContext()
mp.dps = 40

K1 = mp.mpf(1)
K2 = mp.mpf(8) / 3
A = mp.mpf(3)
B = mp.mpf(1) / 3

_TIGHT = mp.mpf(10) ** (-32)
SEEDS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "seeds.json")


def _m(x):
    return x if isinstance(x, type(K1)) else mp.mpf(x)


def psi(v, t):
    return K1 * t * (1 - mp.log(t)) - K2 * t * mp.log(v - B) - A / v


def pressure(v, t):
    return K2 * t / (v - B) - A / (v * v)


def dp_dv(v, t):
    return -K2 * t / (v - B) ** 2 + 2 * A / v ** 3


def d2p_dv2(v, t):
    return 2 * K2 * t / (v - B) ** 3 - 6 * A / v ** 4


def dp_dt(v):
    return K2 / (v - B)


def eta(v, t):
    return K1 * mp.log(t) + K2 * mp.log(v - B)


def intercept(v, t):
    return -v * pressure(v, t) - psi(v, t)


# ----------------------------------------------------------------- residuals

def bitangent_residuals(theta, v_l, v_g):
    """(p_l - p_g, T_l - T_g) at one temperature, as floats in model units."""
    t, vl, vg = _m(theta), _m(v_l), _m(v_g)
    return (float(pressure(vl, t) - pressure(vg, t)),
            float(intercept(vl, t) - intercept(vg, t)))


def saturated_gas_volume(theta, v_l):
    """Largest volume with the pressure of v_l: the cubic p(v) = p(v_l), deflated by v_l.

    Returns None when no second branch exists (the pressure is not positive
    or the deflated quadratic has no real root above v_l).
    """
    t, vl = _m(theta), _m(v_l)
    p0 = pressure(vl, t)
    if p0 <= 0:
        return None
    c2, c1 = -(p0 * B + K2 * t), A
    q1 = c2 + vl * p0
    q0 = c1 + vl * q1
    disc = q1 * q1 - 4 * p0 * q0
    if disc < 0:
        return None
    vg = (-q1 + mp.sqrt(disc)) / (2 * p0)
    return vg if vg > vl else None


def jump_residuals(theta, v_l, v_g, j):
    """Momentum and Gibbs-Thomson energy residuals of the interface, as floats."""
    t, vl, vg, jj = _m(theta), _m(v_l), _m(v_g), _m(j) ** 2
    pl, pg = pressure(vl, t), pressure(vg, t)
    r_m = (vg - vl) * jj + pg - pl
    r_e = psi(vg, t) - psi(vl, t) + (vg * vg - vl * vl) * jj / 2 + pg * vg - pl * vl
    return float(r_m), float(r_e)


def latent_heat(theta, v_l, v_g):
    """ell = -theta (eta_g - eta_l), negative below critical."""
    t = _m(theta)
    return -t * (eta(_m(v_g), t) - eta(_m(v_l), t))


def branch_margin(theta, v_l, v_g, j):
    """-dp/dv(v_g) - j^2: positive on the branch continued from zero flux, zero at its fold."""
    return float(-dp_dv(_m(v_g), _m(theta)) - _m(j) ** 2)


# ---------------------------------------------------------------- free boundary

def liquid_profile(kappa1, d1, r, j, theta_in, theta_star, x_star, x):
    kappa1, d1, r, j = _m(kappa1), _m(d1), _m(r), _m(j)
    alpha = kappa1 * j / d1
    drift = r / (kappa1 * j)
    xs = _m(x_star)
    c2 = (_m(theta_star) - _m(theta_in) - drift * xs) / mp.expm1(alpha * xs)
    return _m(theta_in) - c2 + c2 * mp.exp(alpha * _m(x)) + drift * _m(x)


def liquid_slope_at_front(kappa1, d1, r, j, theta_in, theta_star, x_star):
    kappa1, d1, r, j = _m(kappa1), _m(d1), _m(r), _m(j)
    alpha = kappa1 * j / d1
    drift = r / (kappa1 * j)
    xs = _m(x_star)
    c2 = (_m(theta_star) - _m(theta_in) - drift * xs) / mp.expm1(alpha * xs)
    return drift + alpha * c2 * mp.exp(alpha * xs)


def heat_balance(kappa1, kappa2, d1, d2, r, j, ell, theta_in, theta_star, x_star):
    """ell j + d2 theta_2' - d1 theta_1'(x*) from the closed-form profiles, as a float."""
    slope1 = liquid_slope_at_front(kappa1, d1, r, j, theta_in, theta_star, x_star)
    slope2 = _m(r) / (_m(kappa2) * _m(j))
    return float(_m(ell) * _m(j) + _m(d2) * slope2 - _m(d1) * slope1)


def heat_balance_tolerance(kappa1, d1, r, j, ell, theta_in, theta_star, x_star):
    """The heat-balance tolerance solve_stationary certifies.

    1e-9 |ell j| plus 32 d1 times the round-off floor of the interface
    slope, eps * (c/b + (y0 + (c/b) x*) (b/a) / (1 - exp(-(b/a) x*))) with
    a = d1, b = kappa1 j, c = r, y0 = theta* - theta_in.
    """
    a, b, c, y0 = d1, kappa1 * j, r, theta_star - theta_in
    geom = 1.0 / (-math.expm1(-(b / a) * x_star))
    floor = 2.220446049250313e-16 * (c / b + (abs(y0) + (c / b) * x_star) * (b / a) * geom)
    return 1e-9 * abs(ell * j) + 32.0 * d1 * floor


def dryout_ratio(kappa2, d2, r, j, ell):
    """q = d2 r / (kappa2 j^2 (-ell)); the dryout point exists exactly when q >= 1."""
    return float(_m(d2) * _m(r) / (_m(kappa2) * _m(j) ** 2 * (-_m(ell))))


# -------------------------------------------------------------------- solvers

def _newton(F, J, x, max_iter=60):
    """Damped Newton for small systems; stops when the max-norm residual is below 1e-32."""
    x = [_m(c) for c in x]
    f = F(x)
    norm = max(abs(c) for c in f)
    for _ in range(max_iter):
        if norm < _TIGHT:
            return x
        step = mp.lu_solve(mp.matrix(J(x)), mp.matrix([-c for c in f]))
        lam = mp.mpf(1)
        for _ in range(40):
            trial = [xi + lam * si for xi, si in zip(x, step)]
            try:
                f_trial = F(trial)
            except (ValueError, ZeroDivisionError):
                f_trial = None
            if f_trial is not None:
                t_norm = max(abs(c) for c in f_trial)
                if t_norm < norm or t_norm < _TIGHT:
                    x, f, norm = trial, f_trial, t_norm
                    break
            lam /= 2
        else:
            raise ArithmeticError("oracle Newton step rejected")
    if norm < _TIGHT:
        return x
    raise ArithmeticError(f"oracle Newton residual {mp.nstr(norm, 5)} after {max_iter} iterations")


def _bitangent_system(t):
    def F(x):
        vl, vg = x
        if not B < vl < vg:
            raise ValueError("volumes out of order")
        return [pressure(vl, t) - pressure(vg, t), intercept(vl, t) - intercept(vg, t)]

    def J(x):
        vl, vg = x
        dl, dg = dp_dv(vl, t), dp_dv(vg, t)
        return [[dl, -dg], [-vl * dl, vg * dg]]

    return F, J


def saturation(theta, seed=None):
    """(v_l*, v_g*, p*, ell) at theta, as mpf."""
    t = _m(theta)
    if seed is None:
        s = seeds().at_theta(float(theta))
        seed = (s[0], s[1])
    vl, vg = _newton(*_bitangent_system(t), seed)
    return vl, vg, pressure(vl, t), latent_heat(t, vl, vg)


def boiling(v_l, seed=None):
    """(theta_b, v_g*) with v_l the saturated liquid volume at theta_b, as mpf."""
    vl = _m(v_l)
    if seed is None:
        s = seeds().at_v_l(float(v_l))
        seed = (s[0], s[2])

    def F(x):
        t, vg = x
        if not (t > 0 and vg > vl):
            raise ValueError("outside the domain")
        return [pressure(vl, t) - pressure(vg, t), intercept(vl, t) - intercept(vg, t)]

    def J(x):
        t, vg = x
        dg = dp_dv(vg, t)
        return [[dp_dt(vl) - dp_dt(vg), -dg],
                [(-vl * dp_dt(vl) + eta(vl, t)) - (-vg * dp_dt(vg) + eta(vg, t)), vg * dg]]

    t, vg = _newton(F, J, seed)
    return t, vg


def _interface_system(vl, z):
    def F(x):
        t, vg = x
        if not (t > 0 and vg > vl):
            raise ValueError("outside the domain")
        pl, pg = pressure(vl, t), pressure(vg, t)
        return [2 * z * (vg - vl) + pg - pl,
                psi(vg, t) - psi(vl, t) + z * (vg * vg - vl * vl) + pg * vg - pl * vl]

    def J(x):
        t, vg = x
        kin = 2 * z + dp_dv(vg, t)
        dm_dt = dp_dt(vg) - dp_dt(vl)
        de_dt = eta(vl, t) - eta(vg, t) + vg * dp_dt(vg) - vl * dp_dt(vl)
        return [[dm_dt, kin], [de_dt, vg * kin]]

    return F, J


def interface_branch(v_l, fluxes):
    """Interface states (theta*, v_g) on the zero-flux branch at ascending fluxes.

    Continues in Z = j^2 / 2 from the boiling point, halving a step whenever
    Newton fails or lands off the branch; every flux must lie below the fold.
    """
    vl = _m(v_l)
    t, vg = boiling(vl)
    x, z_cur = [t, vg], mp.mpf(0)
    out = []
    for j in fluxes:
        z_target = _m(j) ** 2 / 2
        if z_target < z_cur:
            raise ValueError("fluxes must ascend")
        dz = z_target - z_cur
        while z_cur < z_target:
            z_next = min(z_cur + dz, z_target)
            try:
                x_new = _newton(*_interface_system(vl, z_next), x)
                if 2 * z_next + dp_dv(x_new[1], x_new[0]) >= 0:
                    raise ArithmeticError("left the zero-flux branch")
            except ArithmeticError:
                dz /= 2
                if dz < mp.mpf(10) ** -12:
                    raise
                continue
            x, z_cur = x_new, z_next
        out.append((x[0], x[1]))
    return out


def fold(v_l, seed=None):
    """Fold of the zero-flux branch at fixed v_l: (theta_f, v_f, j_f), as mpf.

    Solves M = E = 0 together with 2 Z = -dp/dv(v_g), the zero of the
    Jacobian determinant's only vanishing factor.
    """
    vl = _m(v_l)
    if seed is None:
        s = seeds().at_v_l(float(v_l))
        seed = (s[3], s[4])

    def F(x):
        t, vg = x
        if not (t > 0 and vg > vl):
            raise ValueError("outside the domain")
        pl, pg, dg = pressure(vl, t), pressure(vg, t), dp_dv(vg, t)
        return [-(vg - vl) * dg + pg - pl,
                psi(vg, t) - psi(vl, t) - dg * (vg * vg - vl * vl) / 2 + pg * vg - pl * vl]

    def J(x):
        t, vg = x
        ddg = d2p_dv2(vg, t)
        dg_dt = -K2 / (vg - B) ** 2
        return [[-(vg - vl) * dg_dt + dp_dt(vg) - dp_dt(vl), -(vg - vl) * ddg],
                [eta(vl, t) - eta(vg, t) - dg_dt * (vg * vg - vl * vl) / 2
                 + vg * dp_dt(vg) - vl * dp_dt(vl),
                 -ddg * (vg * vg - vl * vl) / 2]]

    t, vg = _newton(F, J, seed)
    return t, vg, mp.sqrt(-dp_dv(vg, t))


# ---------------------------------------------------------------------- seeds

class SeedTable:
    """Linear interpolation in the stored (theta_b, v_l, v_g, theta_f, v_f) rows."""

    def __init__(self, rows):
        self.rows = sorted(rows)
        self.theta = [r[0] for r in self.rows]
        self.v_l = [r[1] for r in self.rows]

    def _interp(self, keys, value):
        i = min(max(bisect.bisect_left(keys, value), 1), len(keys) - 1)
        lo, hi = self.rows[i - 1], self.rows[i]
        w = (value - keys[i - 1]) / (keys[i] - keys[i - 1])
        out = []
        for k, (a, b) in enumerate(zip(lo, hi)):
            if k in (2, 4):  # gas volumes vary geometrically
                out.append(math.exp((1 - w) * math.log(a) + w * math.log(b)))
            else:
                out.append((1 - w) * a + w * b)
        return out

    def at_theta(self, theta):
        """(v_l, v_g, theta_f, v_f) interpolated at boiling temperature theta."""
        return self._interp(self.theta, theta)[1:]

    def at_v_l(self, v_l):
        """(theta_b, v_l, v_g, theta_f, v_f) interpolated at liquid volume v_l."""
        return self._interp(self.v_l, v_l)

    def fold_flux(self, theta):
        _, _, t_f, v_f = self.at_theta(theta)
        return math.sqrt(-float(dp_dv(mp.mpf(v_f), mp.mpf(t_f))))

    def latent_heat(self, theta):
        v_l, v_g, _, _ = self.at_theta(theta)
        return float(latent_heat(theta, v_l, v_g))


_SEEDS = None


def seeds():
    global _SEEDS
    if _SEEDS is None:
        with open(SEEDS_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
        _SEEDS = SeedTable([[float(c) for c in row] for row in data["rows"]])
    return _SEEDS
