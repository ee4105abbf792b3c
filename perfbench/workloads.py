"""The benchmark's workloads: inputs made from a seed, the operations, their checks.

Every workload is reduced van der Waals (critical point at v = theta = p = 1).
Rounds are drawn afresh from (workload, seed, round index), so no two
operations of a run repeat; round sizes and the mix of operation kinds are
fixed, so every round does the same kinds of work.  Within a round the
temperatures are stratified, which keeps the mix alike across seeds.

An operation is either a *solution* (its correct answer is a result or a
dryout verdict) or a *refusal* (its correct answer is an error with a
documented exit code).  ``check`` compares each outcome with the oracle
and returns the list of problems found; an empty list means correct.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

import oracle

MODEL_TEXT = "k1 = 1.0\nk2 = 2.6666666666666665\na = 3.0\nb = 0.3333333333333333\n"
# documented exit codes of the CLI (README "Exit codes")
EXIT_NAMES_1 = ("NoDryout", "ContinuationFailed")
EXIT_NAMES_2 = ("ParseError", "ValidationError", "InvalidInput", "OutOfRange",
                "AboveCritical", "NoPhaseTransition")
TOL = 1e-9          # residual tolerance, in units of p_c and p_c v_c
CLEAR_OF_EQUALITY = 1e-6
FOLD_OVERSHOOT = 1e-9


def exit_code(exc):
    """Exit code the CLI documents for an exception raised by a command."""
    names = {cls.__name__ for cls in type(exc).__mro__}
    if names & set(EXIT_NAMES_2):
        return 2
    if names & set(EXIT_NAMES_1):
        return 1
    return 3 if "DryoutError" in names else None


def _text(mode, **values):
    lines = [f"mode = {mode}\n"]
    if mode == "eos":
        lines.append(MODEL_TEXT)
    lines.extend(f"{k} = {v!r}\n" for k, v in values.items())
    return "".join(lines)


@dataclass
class Op:
    kind: str                      # "solution" or "refusal"
    command: str                   # CLI command, or "solve_interface"
    text: str = ""                 # config text for CLI commands
    options: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)   # what the checks need


def run_cli(cli, op):
    """One CLI operation in-process: parse the config, run the command, render."""
    config = cli.parse_config(op.text)
    options = cli.RunOptions(**op.options) if op.options else None
    report = cli.run(op.command, config, options)
    report.render()
    return report


# ---------------------------------------------------------------------- checks

def interface_errors(sol, v_l, j):
    """Checks of one converged interface state against the oracle."""
    errs = []
    if sol.v_l != v_l or sol.j != j:
        errs.append(f"solution reports v_l={sol.v_l!r}, j={sol.j!r}; asked {v_l!r}, {j!r}")
    r_m, r_e = oracle.jump_residuals(sol.theta_star, v_l, sol.v_g, j)
    if not abs(r_m) <= TOL:
        errs.append(f"momentum jump residual {r_m:.3g} above {TOL:g} p_c")
    if not abs(r_e) <= TOL:
        errs.append(f"energy jump residual {r_e:.3g} above {TOL:g} p_c v_c")
    v_g_b = oracle.saturated_gas_volume(sol.theta_b, v_l)
    if v_g_b is None:
        errs.append(f"theta_b={sol.theta_b!r}: no coexisting gas volume for v_l")
    else:
        r_p, r_t = oracle.bitangent_residuals(sol.theta_b, v_l, v_g_b)
        if not (abs(r_p) <= TOL and abs(r_t) <= TOL):
            errs.append(f"theta_b={sol.theta_b!r} misses the bitangent: {r_p:.3g}, {r_t:.3g}")
    if not sol.theta_star > sol.theta_b:
        errs.append(f"theta*={sol.theta_star!r} not above theta_b={sol.theta_b!r}")
    if not 1.0 / sol.v_g < 1.0 / v_l:
        errs.append("gas density not below the liquid density")
    if not oracle.branch_margin(sol.theta_star, v_l, sol.v_g, j) > 0.0:
        errs.append("state is not on the branch continued from zero flux")
    return errs


def verdict_errors(exists, x_star, inp, theta_star, ell, c1=None, c2=None):
    """Dryout verdict and, when the point exists, the free-boundary checks."""
    errs = []
    q = oracle.dryout_ratio(inp["kappa2"], inp["d2"], inp["r"], inp["j"], ell)
    if abs(q - 1.0) < CLEAR_OF_EQUALITY:
        errs.append(f"inputs not clear of the dryout threshold (q={q!r})")
    if exists != (q >= 1.0):
        errs.append(f"verdict exists={exists} but the oracle's criterion gives q={q:.6g}")
    if not (exists and q >= 1.0):
        if not exists and x_star is not None and not math.isnan(x_star):
            errs.append("x_star reported without a dryout point")
        return errs
    args = (inp["kappa1"], inp["d1"], inp["r"], inp["j"])
    balance = oracle.heat_balance(inp["kappa1"], inp["kappa2"], inp["d1"], inp["d2"], inp["r"],
                                  inp["j"], ell, inp["theta_in"], theta_star, x_star)
    tol = oracle.heat_balance_tolerance(*args, float(ell), inp["theta_in"], theta_star, x_star)
    if not abs(balance) <= tol:
        errs.append(f"heat balance {balance:.3g} at x*={x_star!r} above {tol:.3g}")
    if c1 is not None:
        span = theta_star - inp["theta_in"]
        alpha = oracle.mp.mpf(inp["kappa1"]) * inp["j"] / inp["d1"]
        drift = oracle.mp.mpf(inp["r"]) / (oracle.mp.mpf(inp["kappa1"]) * inp["j"])
        at0 = float(oracle.mp.mpf(c1) + c2)
        at_front = float(oracle.mp.mpf(c1) + c2 * oracle.mp.exp(alpha * x_star) + drift * x_star)
        if not abs(at0 - inp["theta_in"]) <= TOL * span:
            errs.append(f"theta_1(0)={at0!r} differs from theta_in={inp['theta_in']!r}")
        if not abs(at_front - theta_star) <= TOL * span:
            errs.append(f"theta_1(x*)={at_front!r} differs from theta*={theta_star!r}")
    return errs


def refusal_errors(outcome, code):
    if outcome[0] != "raised":
        return ["answered where a refusal with exit %d is correct" % code]
    got = exit_code(outcome[1])
    if got != code:
        return [f"refused with {type(outcome[1]).__name__} (exit {got}), expected exit {code}"]
    return []


_CEILING = []


def supported_liquid_ceiling():
    """Saturated liquid volume at 0.999 theta_c, the top of the supported range."""
    if not _CEILING:
        _CEILING.append(float(oracle.saturation(0.999)[0]))
    return _CEILING[0]


def out_of_range_errors(v_l):
    if not v_l > supported_liquid_ceiling():
        return [f"v_l={v_l!r} is inside the supported saturation range"]
    return []


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ------------------------------------------------------------------- workloads

class Chain:
    """``dryout`` on eos-mode configs: the user's full chain, nothing shared."""

    name = "chain"
    SOLUTIONS = 28
    REFUSALS = 4

    def __init__(self, seed, scratch):
        self.seed = seed

    def round(self, r):
        rng = random.Random(f"chain:{self.seed}:{r}")
        table = oracle.seeds()
        ops = []
        for k in range(self.SOLUTIONS):
            theta_b = 0.6 + 0.37 * (k + rng.random()) / self.SOLUTIONS
            v_l = table.at_theta(theta_b)[0]
            j = table.fold_flux(theta_b) * rng.uniform(0.1, 0.6)
            # ell at the interface exceeds the zero-flux value by at most ~12%
            # below 0.6 j_fold, so these ratios stay clear of the threshold
            q = rng.uniform(1.5, 4.0) if k % 2 == 0 else rng.uniform(0.25, 0.6)
            d1, d2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
            r_heat = q * j * j * (-table.latent_heat(theta_b)) / d2
            theta_in = theta_b * rng.uniform(0.3, 0.9)
            rho = 1.0 / v_l
            text = _text("eos", rho_liquid=rho, j_flux=j, theta_in=theta_in, r=r_heat,
                         d1=d1, d2=d2)
            inp = dict(kappa1=1.0, kappa2=1.0, d1=d1, d2=d2, r=r_heat, j=j, theta_in=theta_in)
            ops.append(Op("solution", "dryout", text, data=dict(v_l=1.0 / rho, inp=inp)))
        for _ in range(self.REFUSALS):
            rho = 1.0 / rng.uniform(0.945, 0.99)
            text = _text("eos", rho_liquid=rho, j_flux=0.1, theta_in=0.5, r=1.0, d1=1.0, d2=1.0)
            ops.append(Op("refusal", "dryout", text, data=dict(v_l=1.0 / rho)))
        rng.shuffle(ops)
        return ops

    def execute(self, env, op):
        return run_cli(env.cli, op)

    def check(self, op, outcome):
        if op.kind == "refusal":
            return refusal_errors(outcome, 2) + out_of_range_errors(op.data["v_l"])
        report = outcome[1]
        isol, dsol = report.interface, report.dryout
        errs = ["report diagnostics failed"] if report.failed else []
        errs += interface_errors(isol, op.data["v_l"], op.data["inp"]["j"])
        ell = oracle.latent_heat(isol.theta_star, isol.v_l, isol.v_g)
        errs += verdict_errors(dsol.exists, dsol.x_star, op.data["inp"], isol.theta_star, ell,
                               dsol.c1, dsol.c2)
        return errs


class Sweep:
    """Three CLI commands that share work between neighbouring points."""

    name = "sweep"
    SAT_N = 48
    FLUX_N = 8
    THETA_IN_N = 48

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch

    def round(self, r):
        rng = random.Random(f"sweep:{self.seed}:{r}")
        table = oracle.seeds()
        path = lambda tag: os.path.join(self.scratch, f"{tag}-{r}.csv")
        neutral = dict(rho_liquid=2.0, j_flux=0.1, theta_in=0.5, r=1.0, d1=1.0, d2=1.0)
        ops = []

        lo, hi = rng.uniform(0.30, 0.32), rng.uniform(0.97, 0.99)
        ops.append(Op("solution", "saturation", _text("eos", **neutral),
                      dict(from_value=lo, to_value=hi, n=self.SAT_N, out=path("sat")),
                      dict(lo=lo, hi=hi)))

        theta_b = rng.uniform(0.75, 0.95)
        v_l = table.at_theta(theta_b)[0]
        j_fold = table.fold_flux(theta_b)
        j_lo, j_hi = j_fold * rng.uniform(0.12, 0.18), j_fold * rng.uniform(0.55, 0.6)
        grid = np.linspace(j_lo, j_hi, self.FLUX_N)
        j_cross = float(0.5 * (grid[3] + grid[4]))   # verdict flips between the 4th and 5th point
        d1, d2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        r_heat = j_cross ** 2 * (-table.latent_heat(theta_b)) / d2
        theta_in = theta_b * rng.uniform(0.3, 0.9)
        rho = 1.0 / v_l
        inp = dict(kappa1=1.0, kappa2=1.0, d1=d1, d2=d2, r=r_heat, theta_in=theta_in)
        ops.append(Op("solution", "sweep",
                      _text("eos", rho_liquid=rho, j_flux=j_lo, theta_in=theta_in, r=r_heat,
                            d1=d1, d2=d2),
                      dict(param="j_flux", from_value=j_lo, to_value=j_hi, n=self.FLUX_N,
                           out=path("flux")),
                      dict(v_l=1.0 / rho, inp=inp, lo=j_lo, hi=j_hi)))

        theta_star = rng.uniform(0.8, 0.95)
        j = rng.uniform(0.1, 0.4)
        ell = -rng.uniform(3.0, 6.0)
        kappa1, kappa2 = rng.uniform(0.8, 1.5), rng.uniform(0.8, 1.5)
        d1, d2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        r_heat = rng.uniform(1.5, 3.0) * kappa2 * j * j * (-ell) / d2
        t_lo, t_hi = theta_star - rng.uniform(2.0, 3.0), theta_star - rng.uniform(0.05, 0.2)
        values = dict(rho_liquid=rng.uniform(1.5, 2.2), j_flux=j, theta_in=t_lo, r=r_heat,
                      kappa1=kappa1, kappa2=kappa2, d1=d1, d2=d2, theta_star=theta_star,
                      rho_gas=rng.uniform(0.2, 0.6), latent_heat=ell)
        inp = dict(kappa1=kappa1, kappa2=kappa2, d1=d1, d2=d2, r=r_heat, j=j)
        ops.append(Op("solution", "sweep", _text("direct", **values),
                      dict(param="theta_in", from_value=t_lo, to_value=t_hi,
                           n=self.THETA_IN_N, out=path("theta_in")),
                      dict(inp=inp, lo=t_lo, hi=t_hi, theta_star=theta_star, ell=ell)))

        rho = 1.0 / rng.uniform(0.945, 0.99)
        ops.append(Op("refusal", "sweep",
                      _text("eos", rho_liquid=rho, j_flux=0.05, theta_in=0.5, r=1.0,
                            d1=1.0, d2=1.0),
                      dict(param="j_flux", from_value=0.05, to_value=0.1, n=self.FLUX_N,
                           out=path("refused")),
                      dict(v_l=1.0 / rho)))
        return ops

    def execute(self, env, op):
        return run_cli(env.cli, op)

    def check(self, op, outcome):
        if op.kind == "refusal":
            return refusal_errors(outcome, 2) + out_of_range_errors(op.data["v_l"])
        header, rows = read_csv(op.options["out"])
        n = op.options["n"]
        grid = np.linspace(op.data["lo"], op.data["hi"], n)
        if len(rows) != n or any(float(row[0]) != float(g) for row, g in zip(rows, grid)):
            return [f"{op.command} rows do not follow the requested grid"]
        if op.command == "saturation":
            return self._check_saturation(header, rows)
        if op.options["param"] == "j_flux":
            return self._check_flux_sweep(op, rows)
        return self._check_theta_in_sweep(op, rows)

    @staticmethod
    def _check_saturation(header, rows):
        errs = []
        if header != ["theta", "v_l_star", "v_g_star", "p_star", "latent_heat"]:
            errs.append(f"unexpected saturation header {header}")
        table = [[float(c) for c in row] for row in rows]
        for theta, v_l, v_g, p_star, ell in table:
            r_p, r_t = oracle.bitangent_residuals(theta, v_l, v_g)
            psi_scale = max(abs(float(oracle.psi(oracle.mp.mpf(v_l), oracle.mp.mpf(theta)))), 1.0)
            if not (abs(r_p) <= TOL and abs(r_t) <= TOL * psi_scale):
                errs.append(f"theta={theta!r}: bitangent residuals {r_p:.3g}, {r_t:.3g}")
            p_l = float(oracle.pressure(oracle.mp.mpf(v_l), oracle.mp.mpf(theta)))
            if not abs(p_star - p_l) <= TOL:
                errs.append(f"theta={theta!r}: p*={p_star!r} but p(v_l*)={p_l!r}")
            ell_o = float(oracle.latent_heat(theta, v_l, v_g))
            if not abs(ell - ell_o) <= 1e-12 * abs(ell_o):
                errs.append(f"theta={theta!r}: latent heat {ell!r}, oracle {ell_o!r}")
            if not v_l < 1.0 < v_g:
                errs.append(f"theta={theta!r}: volumes do not straddle v_c")
        for (_, vl0, vg0, p0, _), (_, vl1, vg1, p1, _) in zip(table, table[1:]):
            if not (vl1 > vl0 and vg1 < vg0 and p1 > p0):
                errs.append("saturation rows not monotone in theta")
                break
        return errs

    @staticmethod
    def _check_flux_sweep(op, rows):
        errs = []
        v_l, inp = op.data["v_l"], op.data["inp"]
        fluxes = [float(row[0]) for row in rows]
        for row, (theta, v_g) in zip(rows, oracle.interface_branch(v_l, fluxes)):
            j = float(row[0])
            ell = oracle.latent_heat(theta, v_l, v_g)
            errs += verdict_errors(row[2] == "true", float(row[1]), dict(inp, j=j),
                                   float(theta), ell)
        return errs

    @staticmethod
    def _check_theta_in_sweep(op, rows):
        errs = []
        for row in rows:
            inp = dict(op.data["inp"], theta_in=float(row[0]))
            errs += verdict_errors(row[2] == "true", float(row[1]), inp,
                                   op.data["theta_star"], op.data["ell"])
        return errs


class Fold:
    """``solve_interface`` on both sides of the zero-flux branch's fold."""

    name = "fold"
    # the seed temperatures are the centres of six equal slices of [0.6, 0.95],
    # the same for every --seed, which draws the fluxes: how long
    # boiling_temperature takes depends erratically on theta_b, so drawn
    # temperatures would make the cost of a round differ from seed to seed
    TEMPERATURES = tuple(0.6 + 0.35 * (i + 0.5) / 6 for i in range(6))
    BELOW = ((0.15, 0.4), (0.4, 0.65), (0.65, 0.9))
    ABOVE = (1.1, 1.5)

    def __init__(self, seed, scratch):
        self.seed = seed
        self.branches = []
        for theta_b in self.TEMPERATURES:
            v_l = float(oracle.saturation(theta_b)[0])
            j_fold = float(oracle.fold(v_l)[2])
            self.branches.append((v_l, j_fold))

    def round(self, r):
        rng = random.Random(f"fold:{self.seed}:{r}")
        ops = []
        for v_l, j_fold in self.branches:
            for lo, hi in self.BELOW:
                ops.append(Op("solution", "solve_interface",
                              data=dict(v_l=v_l, j=j_fold * rng.uniform(lo, hi), j_fold=j_fold)))
            ops.append(Op("refusal", "solve_interface",
                          data=dict(v_l=v_l, j=j_fold * rng.uniform(*self.ABOVE), j_fold=j_fold)))
        rng.shuffle(ops)
        return ops

    def execute(self, env, op):
        return env.interface.solve_interface(env.model, op.data["v_l"], op.data["j"])

    def check(self, op, outcome):
        j, j_fold = op.data["j"], op.data["j_fold"]
        if op.kind == "refusal":
            if outcome[0] != "raised":
                return [f"converged at j={j!r} above the oracle's fold j_f={j_fold!r}"]
            errs = refusal_errors(outcome, 1)
            # the last certified step may sit past the fold by what the Newton
            # residual tolerance (1e-12 p_c) admits: ~1e-11 relative here
            z, z_fold = getattr(outcome[1], "z_reached", None), 0.5 * j_fold ** 2
            if z is None or not z < z_fold * (1.0 + FOLD_OVERSHOOT):
                errs.append(f"refusal reached Z={z!r}, past the fold's {z_fold!r}")
            return errs
        errs = interface_errors(outcome[1], op.data["v_l"], j)
        if not j < j_fold:
            errs.append(f"converged at j={j!r} above the oracle's fold j_f={j_fold!r}")
        return errs


WORKLOADS = {w.name: w for w in (Chain, Sweep, Fold)}
