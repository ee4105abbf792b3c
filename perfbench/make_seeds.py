"""Recompute ``seeds.json``, the starting points of the oracle's Newton solves.

Run from the repository root:  python3 perfbench/make_seeds.py

Each row is (theta_b, v_l*, v_g*, theta_f, v_f): the saturated volumes at
boiling temperature theta_b and the fold of the interface branch continued
from that zero-flux state.  Nothing here relies on a previous table:

* saturation: bisection on the coexistence pressure between the spinodal
  pressures, taking the outer roots of the van der Waals cubic at each
  trial pressure, then the oracle's Newton polish;
* fold: the branch is parametrised by the gas volume, which stays regular
  through the fold.  The momentum balance gives Z explicitly, the energy
  balance fixes theta, and the fold is the zero of 2 Z + dp/dv(v_g) met
  when walking v_g up from v_g*; the oracle's Newton polishes it.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
from oracle import A, B, K2, dp_dv, mp, pressure, psi  # noqa: E402

GRID = [round(0.50 + 0.01 * i, 2) for i in range(50)] + [0.995, 0.999]


def _outer_roots(p, t):
    # p v^3 - (p b + k2 t) v^2 + a v - a b = 0
    roots = mp.polyroots([p, -(p * B + K2 * t), A, -A * B], maxsteps=200, extraprec=60)
    real = sorted(mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -25 and mp.re(r) > B)
    return real[0], real[-1]


def _spinodals(t):
    # dp/dv = 0  <=>  k2 t v^3 - 2 a v^2 + 4 a b v - 2 a b^2 = 0
    roots = mp.polyroots([K2 * t, -2 * A, 4 * A * B, -2 * A * B * B], maxsteps=200, extraprec=60)
    real = sorted(mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -25 and mp.re(r) > B)
    return real[0], real[-1]


def saturation_from_scratch(theta):
    t = mp.mpf(str(theta))
    v_sl, v_sg = _spinodals(t)
    lo = max(pressure(v_sl, t), pressure(v_sg, t) * mp.mpf(10) ** -12)
    hi = pressure(v_sg, t)

    def gibbs_gap(p):
        vl, vg = _outer_roots(p, t)
        return (psi(vg, t) + p * vg) - (psi(vl, t) + p * vl)

    lo, hi = lo * (1 + mp.mpf(10) ** -20), hi * (1 - mp.mpf(10) ** -20)
    for _ in range(90):
        mid = mp.sqrt(lo * hi)
        if gibbs_gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    vl, vg = _outer_roots(mp.sqrt(lo * hi), t)
    vl, vg, _, _ = oracle.saturation(t, seed=(vl, vg))
    return vl, vg


def _theta_on_branch(vl, vg, t_guess):
    # energy balance with Z eliminated through the momentum balance
    def energy(t):
        pl, pg = pressure(vl, t), pressure(vg, t)
        z = (pl - pg) / (2 * (vg - vl))
        return psi(vg, t) - psi(vl, t) + z * (vg * vg - vl * vl) + pg * vg - pl * vl

    return mp.findroot(energy, t_guess, solver="secant", tol=mp.mpf(10) ** -60)


def fold_from_scratch(theta_b, vl, vg_sat):
    def kinetic(vg, t):
        z = (pressure(vl, t) - pressure(vg, t)) / (2 * (vg - vl))
        return 2 * z + dp_dv(vg, t)

    # the gas volume grows along the branch, from v_g* at Z = 0 to the fold
    t_below, vg_below = mp.mpf(theta_b), vg_sat
    while True:
        vg_next = vg_below * mp.mpf("1.02")
        t_next = _theta_on_branch(vl, vg_next, t_below)
        if kinetic(vg_next, t_next) >= 0:
            break
        t_below, vg_below = t_next, vg_next
    lo, hi = vg_below, vg_next
    for _ in range(60):
        mid = (lo + hi) / 2
        t_mid = _theta_on_branch(vl, mid, t_below)
        if kinetic(mid, t_mid) >= 0:
            hi = mid
        else:
            lo, t_below = mid, t_mid
    t_f, v_f, _ = oracle.fold(vl, seed=(t_below, lo))
    return t_f, v_f


def main():
    rows = []
    for theta in GRID:
        vl, vg = saturation_from_scratch(theta)
        t_f, v_f = fold_from_scratch(theta, vl, vg)
        rows.append([str(theta)] + [mp.nstr(x, 20) for x in (vl, vg, t_f, v_f)])
        print(*rows[-1], flush=True)
    with open(oracle.SEEDS_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"columns": ["theta_b", "v_l", "v_g", "theta_f", "v_f"], "rows": rows},
                  fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
