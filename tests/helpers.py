"""Shared fixtures-by-convention: reference values and small utilities.

The saturation references below were produced by refining sampled-envelope
endpoints with a 40-digit root solve of the bitangent conditions
(equal pressure, equal tangent intercept) in mpmath, independently of the
library's own solver.  The fold and pinch fluxes come from 30-digit solves
of the merged-root system (f1 = f2 = det J = 0) and of the curvature
pinch system (g = g' = 0) for the reduced van der Waals model.
"""

import importlib
import pathlib
import sys

from dryout import EosModel

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def reduced():
    return EosModel(k1=1.0, k2=8.0 / 3.0, a=3.0, b=1.0 / 3.0)


# theta -> (v_l_star, v_g_star, p_star, ell) for the reduced model
SAT_REFS = {
    0.6: (0.43260893142566378, 16.728531357778087, 0.086869282590187381, -8.1709503455178548),
    0.75: (0.48963112951791997, 5.6430540448892055, 0.28245854996709512, -7.0510627574751392),
    0.8: (0.51740931558349436, 4.1724573099955888, 0.38336162368853954, -6.4803218540731821),
    0.9: (0.60340190317800298, 2.3488423762022274, 0.64699835187225122, -4.8238828321605934),
    0.95: (0.68412211365614093, 1.7270711922558935, 0.81187924336447987, -3.494885959606929),
    0.999: (0.9401772252508289, 1.0670410820769819, 0.99600479906677867, -0.50573165164821365),
}

V_L_09 = SAT_REFS[0.9][0]

# largest flux reachable by continuation from the theta_b = 0.9 seed
# (the fold where the two solution branches of the interface system merge)
FOLD_FLUX_09 = 0.297747221899801
# flux at which the modified-curvature sign count drops 3 -> 1 at theta = 0.9
PINCH_FLUX_09 = 0.357622231843111


def rel_err(value, reference, floor=0.0):
    """|value - reference| over the larger magnitude, floored."""
    scale = max(abs(value), abs(reference), floor)
    if scale == 0.0:
        return 0.0
    return abs(value - reference) / scale


def strictly_increasing(seq):
    return all(b > a for a, b in zip(seq, seq[1:]))


def strictly_decreasing(seq):
    return all(b < a for a, b in zip(seq, seq[1:]))


def mp_psi(v, theta, k1=1, k2=None, a=3, b=None):
    """40-digit evaluation of the Helmholtz formula, term by term."""
    import mpmath as mp

    with mp.workdps(40):
        k2 = mp.mpf(8) / 3 if k2 is None else mp.mpf(k2)
        b = mp.mpf(1) / 3 if b is None else mp.mpf(b)
        v, theta, k1, a = mp.mpf(v), mp.mpf(theta), mp.mpf(k1), mp.mpf(a)
        val = k1 * theta * (1 - mp.log(theta)) - k2 * theta * mp.log(v - b) - a / v
        return float(val)


def mp_boiling_temperature(model, v_l, theta0, v_g0):
    """50-digit boiling temperature of the van der Waals liquid volume ``v_l``.

    Solves equal pressure and equal tangent intercept -v p - psi with the
    liquid volume held fixed, from the seed (theta0, v_g0); the heat
    capacity term of psi depends on theta alone and cancels.
    """
    import mpmath as mp

    with mp.workdps(50):
        k2, a, b, vl = mp.mpf(model.k2), mp.mpf(model.a), mp.mpf(model.b), mp.mpf(v_l)
        cp = model.critical_point()
        scale_p, scale_t = mp.mpf(cp.p_c), mp.mpf(cp.p_c) * mp.mpf(cp.v_c)

        def pressure(v, t):
            return k2 * t / (v - b) - a / (v * v)

        def intercept(v, t):
            return -v * pressure(v, t) + k2 * t * mp.log(v - b) + a / v

        def residual(t, vg):
            return [(pressure(vl, t) - pressure(vg, t)) / scale_p,
                    (intercept(vl, t) - intercept(vg, t)) / scale_t]

        theta, _ = mp.findroot(residual, (mp.mpf(theta0), mp.mpf(v_g0)))
        return theta


def log_volume_grid(model, n, v_max=50.0):
    """Log-spaced volume samples hugging the excluded volume, as the envelope oracle uses."""
    import numpy as np

    return np.geomspace(model.b * (1.0 + 1e-6), v_max, n)


def perfbench_module(name):
    """A module of the benchmark, ``perfbench/<name>.py`` (its 40-digit oracle, its tracer)."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(name)
