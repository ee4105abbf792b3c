"""The benchmark's oracle against the independent references in tests/helpers.py."""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "tests"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import make_seeds  # noqa: E402
import oracle  # noqa: E402
from helpers import FOLD_FLUX_09, SAT_REFS, V_L_09  # noqa: E402


def rel(a, b):
    return abs(float(a) - b) / abs(b)


@pytest.mark.parametrize("theta", sorted(SAT_REFS))
def test_saturation_matches_references(theta):
    v_l, v_g, p, ell = SAT_REFS[theta]
    got = oracle.saturation(theta)
    assert [rel(g, r) for g, r in zip(got, (v_l, v_g, p, ell))] == pytest.approx(
        [0.0] * 4, abs=1e-14)


@pytest.mark.parametrize("theta", sorted(SAT_REFS))
def test_references_pass_the_bitangent_residuals(theta):
    v_l, v_g, _, _ = SAT_REFS[theta]
    r_p, r_t = oracle.bitangent_residuals(theta, v_l, v_g)
    assert abs(r_p) < 1e-13 and abs(r_t) < 1e-13
    assert rel(oracle.saturated_gas_volume(theta, v_l), v_g) < 1e-13


def test_fold_matches_reference():
    theta_f, v_f, j_f = oracle.fold(V_L_09)
    assert rel(j_f, FOLD_FLUX_09) < 1e-13
    # the fold is a zero of both jump residuals
    r_m, r_e = oracle.jump_residuals(theta_f, V_L_09, v_f, j_f)
    assert abs(r_m) < 1e-25 and abs(r_e) < 1e-25
    assert abs(oracle.branch_margin(theta_f, V_L_09, v_f, j_f)) < 1e-25


def test_boiling_point_and_branch():
    theta_b, v_g = oracle.boiling(V_L_09)
    assert rel(theta_b, 0.9) < 1e-15
    assert rel(v_g, SAT_REFS[0.9][1]) < 1e-14
    (theta, v), = oracle.interface_branch(V_L_09, [0.9 * FOLD_FLUX_09])
    assert theta > theta_b and v > v_g
    assert oracle.branch_margin(theta, V_L_09, v, 0.9 * FOLD_FLUX_09) > 0.0


def test_heat_balance_vanishes_at_its_root():
    inp = dict(kappa1=1.3, kappa2=0.9, d1=0.7, d2=1.1, r=1.4, j=0.6, ell=-2.0,
               theta_in=-1.0, theta_star=0.5)

    def balance(x):
        return oracle.heat_balance(x_star=x, **inp)

    x_star = oracle.mp.findroot(lambda x: (
        inp["ell"] * inp["j"] + inp["d2"] * inp["r"] / (inp["kappa2"] * inp["j"])
        - inp["d1"] * oracle.liquid_slope_at_front(inp["kappa1"], inp["d1"], inp["r"], inp["j"],
                                                   inp["theta_in"], inp["theta_star"], x)), 1.0)
    assert abs(balance(float(x_star))) < 1e-14
    profile = lambda x: oracle.liquid_profile(inp["kappa1"], inp["d1"], inp["r"], inp["j"],
                                              inp["theta_in"], inp["theta_star"], x_star, x)
    assert abs(profile(0) - inp["theta_in"]) < 1e-30
    assert abs(profile(x_star) - inp["theta_star"]) < 1e-30
    # the profile solves kappa1 j theta' - d1 theta'' = r
    x = oracle.mp.mpf("0.3")
    kappa1, j, d1 = (oracle.mp.mpf(inp[k]) for k in ("kappa1", "j", "d1"))
    ode = kappa1 * j * oracle.mp.diff(profile, x) - d1 * oracle.mp.diff(profile, x, 2) - inp["r"]
    assert abs(ode) < 1e-20


def test_seed_table_rows_are_recomputed_from_scratch():
    row = next(r for r in oracle.seeds().rows if r[0] == 0.9)
    v_l, v_g = make_seeds.saturation_from_scratch(0.9)
    theta_f, v_f = make_seeds.fold_from_scratch(0.9, v_l, v_g)
    assert [rel(a, b) for a, b in zip((v_l, v_g, theta_f, v_f), row[1:])] == pytest.approx(
        [0.0] * 4, abs=1e-15)


def test_seed_interpolation_feeds_newton():
    table = oracle.seeds()
    for theta in (0.61, 0.777, 0.955):
        v_l = float(oracle.saturation(theta)[0])
        assert rel(table.at_theta(theta)[0], v_l) < 1e-3
        assert math.isclose(table.fold_flux(theta), float(oracle.fold(v_l)[2]), rel_tol=1e-2)
