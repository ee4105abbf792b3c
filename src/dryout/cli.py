"""Config-driven pipeline: saturation tables, interface states, dryout verdicts.

Config files are plain ``key = value`` text with ``#`` comments.  The
``eos`` mode runs the full chain (energy model -> saturation -> interface
-> free boundary); the ``direct`` mode takes the interface temperature,
gas density and latent heat as given and solves the free boundary only.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import eos
from .errors import (
    AboveCritical,
    ContinuationFailed,
    DryoutError,
    InvalidInput,
    NoDryout,
    NoPhaseTransition,
    OutOfRange,
    ParseError,
    ValidationError,
)
from .interface import f_system, sign_changes_modified, solve_interface
from .saturation import NEAR_CRITICAL_FRACTION, clausius_clapeyron_residual, saturation_curve
from .stefan import StefanInputs, solve_stationary, temperature_profiles

_KNOWN_KEYS = (
    "mode", "k1", "k2", "a", "b",
    "rho_liquid", "j_flux", "u_liquid", "theta_in", "r",
    "kappa1", "kappa2", "d1", "d2",
    "theta_star", "rho_gas", "latent_heat",
)

_SWEEPABLE = (
    "j_flux", "u_liquid", "theta_in", "r", "kappa1", "kappa2", "d1", "d2",
    "rho_liquid", "theta_star", "rho_gas", "latent_heat",
)


@dataclass(frozen=True)
class PipeConfig:
    """Validated run configuration; ``j`` is the resolved mass flux.

    ``u_liquid`` is retained only when the flux was given as a velocity,
    so sweeps over the liquid density can recompute ``j``.
    """

    mode: str
    rho_liquid: float
    j: float
    theta_in: float
    r: float
    kappa1: float
    kappa2: float
    d1: float
    d2: float
    u_liquid: Optional[float] = None
    k1: Optional[float] = None
    k2: Optional[float] = None
    a: Optional[float] = None
    b: Optional[float] = None
    theta_star: Optional[float] = None
    rho_gas: Optional[float] = None
    latent_heat: Optional[float] = None

    def model(self):
        if self.mode != "eos":
            raise ValidationError("this command needs mode = eos (no energy model in direct mode)")
        return eos.EosModel(k1=self.k1, k2=self.k2, a=self.a, b=self.b)


def parse_config(text):
    """Parse and validate ``key = value`` config text into a PipeConfig."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ParseError("expected 'key = value'", line=lineno)
        if key not in _KNOWN_KEYS:
            raise ParseError(f"unknown key '{key}'", line=lineno)
        if key in values:
            raise ParseError(f"duplicate key '{key}'", line=lineno)
        if key == "mode":
            if value not in ("eos", "direct"):
                raise ParseError("mode must be 'eos' or 'direct'", line=lineno)
            values[key] = value
        else:
            try:
                values[key] = float(value)
            except ValueError:
                raise ParseError(f"could not parse number '{value}'", line=lineno) from None
    return _validate(values)


def _require(values, key):
    if key not in values:
        raise ValidationError(f"missing required key '{key}'")
    return values[key]


def _validate(values):
    mode = _require(values, "mode")
    for key, value in values.items():
        if key != "mode" and not math.isfinite(value):
            raise ValidationError(f"{key} must be finite")
    rho_liquid = _require(values, "rho_liquid")
    if rho_liquid <= 0.0:
        raise ValidationError("rho_liquid must be positive")
    if "j_flux" in values and "u_liquid" in values:
        raise ValidationError("give either j_flux or u_liquid, not both")
    if "j_flux" in values:
        j = values["j_flux"]
    elif "u_liquid" in values:
        j = rho_liquid * values["u_liquid"]
    else:
        raise ValidationError("missing mass flux: give j_flux or u_liquid")
    if j <= 0.0:
        raise ValidationError("mass flux must be positive")
    if j * j == 0.0:
        raise ValidationError(f"mass flux j={j} too small: j^2 underflows to zero")
    theta_in = _require(values, "theta_in")
    for key in ("r", "d1", "d2"):
        if _require(values, key) <= 0.0:
            raise ValidationError(f"{key} must be positive")
    r, d1, d2 = values["r"], values["d1"], values["d2"]

    if mode == "eos":
        for key in ("theta_star", "rho_gas", "latent_heat"):
            if key in values:
                raise ValidationError(f"'{key}' is only valid in direct mode")
        k1, k2 = _require(values, "k1"), _require(values, "k2")
        a, b = _require(values, "a"), _require(values, "b")
        if k1 <= 0.0 or k2 <= 0.0:
            raise ValidationError("k1 and k2 must be positive")
        if a < 0.0 or b < 0.0:
            raise ValidationError("a and b must be non-negative")
        if a == 0.0 and b == 0.0:
            raise ValidationError("ideal gas admits no phase transition")
        if a == 0.0 or b == 0.0:
            raise ValidationError("phase transition requires a > 0 and b > 0")
        if theta_in <= 0.0:
            raise ValidationError("theta_in must be positive in eos mode")
        model = eos.EosModel(k1=k1, k2=k2, a=a, b=b)
        cp = model.critical_point()
        if rho_liquid * cp.v_c <= 1.0:
            raise ValidationError("rho_liquid must exceed the critical density 1/v_c")
        if rho_liquid * b >= 1.0:
            raise ValidationError("rho_liquid must stay below the close-packing density 1/b")
        kappa1 = values.get("kappa1", k1)  # van der Waals heat capacity equals k1
        kappa2 = values.get("kappa2", k1)
        if kappa1 <= 0.0 or kappa2 <= 0.0:
            raise ValidationError("kappa1 and kappa2 must be positive")
        return PipeConfig(mode=mode, rho_liquid=rho_liquid, j=j, theta_in=theta_in,
                          r=r, kappa1=kappa1, kappa2=kappa2, d1=d1, d2=d2,
                          u_liquid=values.get("u_liquid"),
                          k1=k1, k2=k2, a=a, b=b)

    for key in ("k1", "k2", "a", "b"):
        if key in values:
            raise ValidationError(f"'{key}' is only valid in eos mode")
    kappa1, kappa2 = _require(values, "kappa1"), _require(values, "kappa2")
    if kappa1 <= 0.0 or kappa2 <= 0.0:
        raise ValidationError("kappa1 and kappa2 must be positive")
    theta_star = _require(values, "theta_star")
    rho_gas = _require(values, "rho_gas")
    latent_heat = _require(values, "latent_heat")
    if not theta_in < theta_star:
        raise ValidationError("theta_in must be below theta_star")
    if rho_gas <= 0.0:
        raise ValidationError("rho_gas must be positive")
    if not rho_gas < rho_liquid:
        raise ValidationError("rho_gas must be below rho_liquid")
    if not latent_heat < 0.0:
        raise ValidationError("latent_heat must be negative")
    return PipeConfig(mode=mode, rho_liquid=rho_liquid, j=j, theta_in=theta_in,
                      r=r, kappa1=kappa1, kappa2=kappa2, d1=d1, d2=d2,
                      u_liquid=values.get("u_liquid"),
                      theta_star=theta_star, rho_gas=rho_gas, latent_heat=latent_heat)


@dataclass
class RunOptions:
    xmax: Optional[float] = None
    n: int = 200
    param: Optional[str] = None
    from_value: Optional[float] = None
    to_value: Optional[float] = None
    out: Optional[str] = None


@dataclass(frozen=True)
class Series:
    header: tuple
    rows: tuple


def _fmt(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def emit_csv(series, path):
    """Write a series as UTF-8 CSV: header row, 17 significant digits, LF endings."""
    if not series.rows:
        raise InvalidInput("refusing to write an empty series")
    lines = [",".join(series.header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in series.rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class RunReport:
    command: str
    lines: list
    diagnostics: list  # (name, value, limit_or_None, ok)
    interface: object = None
    dryout: object = None
    csv_path: Optional[str] = None
    failed: bool = False

    def render(self):
        out = list(self.lines)
        if self.diagnostics:
            out.append("diagnostics:")
            for name, value, limit, ok in self.diagnostics:
                if limit is None:
                    out.append(f"  {name} = {_fmt(value)}")
                else:
                    out.append(f"  {name} = {_fmt(value)} (tol {limit:g}) "
                               f"{'ok' if ok else 'FAIL'}")
        if self.csv_path:
            out.append(f"wrote {self.csv_path}")
        out.append(f"status: {'FAILED' if self.failed else 'OK'}")
        return "\n".join(out) + "\n"


def _interface_state(config):
    """Solve the interface stage and attach the latent heat at the solution."""
    model = config.model()
    v_l = 1.0 / config.rho_liquid
    sol = solve_interface(model, v_l, config.j)
    ell = -sol.theta_star * (model.eta(sol.v_g, sol.theta_star)
                             - model.eta(sol.v_l, sol.theta_star))
    return model, sol, ell


def _interface_diagnostics(model, sol, diags):
    cp = model.critical_point()
    fvals = f_system(model, sol.v_l, sol.theta_star, sol.v_g, sol.Z)
    resid = max(abs(fvals[0]), abs(fvals[1])) / cp.p_c
    diags.append(("interface residual |f|/p_c", resid, 1e-10, resid <= 1e-10))
    rho_l, rho_g = 1.0 / sol.v_l, 1.0 / sol.v_g
    _, dmod_l, pmod_l = eos.modified_quantities(model, rho_l, sol.theta_star, sol.j)
    _, dmod_g, pmod_g = eos.modified_quantities(model, rho_g, sol.theta_star, sol.j)
    p_jump = abs(pmod_g - pmod_l) / cp.p_c
    diags.append(("modified pressure jump /p_c", p_jump, 1e-9, p_jump <= 1e-9))
    mu_scale = max(abs(dmod_l), abs(dmod_g), cp.p_c * cp.v_c)
    mu_jump = abs(dmod_g - dmod_l) / mu_scale
    diags.append(("modified energy-slope jump", mu_jump, 1e-9, mu_jump <= 1e-9))
    if sol.j > 0.0:
        j_sq = (sol.p_l - sol.p_g) / (sol.v_g - sol.v_l)
        rec = abs(j_sq - sol.j ** 2) / sol.j ** 2
        diags.append(("momentum flux recovery", rec, 1e-8, rec <= 1e-8))
    theta_c = cp.theta_c
    h = 1e-4 * theta_c
    if sol.theta_b + h < NEAR_CRITICAL_FRACTION * theta_c:
        cc = clausius_clapeyron_residual(model, sol.theta_b, h)
        diags.append(("coexistence-slope residual", cc, 1e-5, cc <= 1e-5))
    diags.append(("curvature sign changes at interface",
                  sign_changes_modified(model, sol.theta_star, sol.j, 2000), None, True))


def _stefan_inputs(config):
    """Interface stage (eos mode) or config passthrough (direct mode)."""
    if config.mode == "eos":
        model, isol, ell = _interface_state(config)
        inputs = StefanInputs(kappa1=config.kappa1, kappa2=config.kappa2,
                              d1=config.d1, d2=config.d2, r=config.r, j=config.j,
                              ell=ell, theta_in=config.theta_in,
                              theta_star=isol.theta_star, rho_gas=1.0 / isol.v_g)
        return inputs, model, isol
    inputs = StefanInputs(kappa1=config.kappa1, kappa2=config.kappa2,
                          d1=config.d1, d2=config.d2, r=config.r, j=config.j,
                          ell=config.latent_heat, theta_in=config.theta_in,
                          theta_star=config.theta_star, rho_gas=config.rho_gas)
    return inputs, None, None


def _dryout_lines(dsol):
    lines = [f"dryout point exists: {_fmt(dsol.exists)}"]
    if dsol.exists:
        lines.append(f"  x_star = {_fmt(dsol.x_star)}")
        lines.append(f"  gas-branch slope = {_fmt(dsol.slope2)}")
        lines.append(f"  liquid profile constants c1 = {_fmt(dsol.c1)}, c2 = {_fmt(dsol.c2)}")
        if dsol.u2 is not None:
            lines.append(f"  gas velocity u2 = {_fmt(dsol.u2)}")
    else:
        lines.append(f"  reason: {dsol.reason}")
    return lines


def _stefan_diagnostics(dsol, diags):
    if not dsol.exists:
        return
    resid = abs(dsol.heat_balance_residual)
    scale = abs(dsol.inputs.ell * dsol.inputs.j)
    diags.append(("interfacial heat-balance residual", resid / scale, 1e-9,
                  resid <= 1e-9 * scale))


def _run_saturation(config, options):
    model = config.model()
    cp = model.critical_point()
    lo = options.from_value if options.from_value is not None else 0.6 * cp.theta_c
    hi = options.to_value if options.to_value is not None else 0.95 * cp.theta_c
    points = saturation_curve(model, lo, hi, options.n)
    rows = tuple((p.theta, p.v_l_star, p.v_g_star, p.p_star, p.ell) for p in points)
    path = options.out or "saturation.csv"
    emit_csv(Series(("theta", "v_l_star", "v_g_star", "p_star", "latent_heat"), rows), path)
    lines = [f"saturation curve: {len(points)} temperatures in [{_fmt(lo)}, {_fmt(hi)}]"]
    return RunReport(command="saturation", lines=lines, diagnostics=[], csv_path=path)


def _run_interface(config, options):
    model, sol, ell = _interface_state(config)
    lines = [
        "interface solution (flux continuation from the zero-flux seed):",
        f"  theta_star = {_fmt(sol.theta_star)}",
        f"  rho_gas    = {_fmt(1.0 / sol.v_g)}",
        f"  p_liquid   = {_fmt(sol.p_l)}",
        f"  p_gas      = {_fmt(sol.p_g)}",
        f"  ell        = {_fmt(ell)}",
        f"  theta_b    = {_fmt(sol.theta_b)}",
        f"  steps      = {sol.steps}",
    ]
    diags = []
    _interface_diagnostics(model, sol, diags)
    failed = any(limit is not None and not ok for _, _, limit, ok in diags)
    return RunReport(command="interface", lines=lines, diagnostics=diags,
                     interface=sol, failed=failed)


def _run_dryout(config, options):
    inputs, model, isol = _stefan_inputs(config)
    dsol = solve_stationary(inputs)
    lines = []
    diags = []
    if isol is not None:
        lines.append(f"interface: theta_star = {_fmt(isol.theta_star)}, "
                     f"rho_gas = {_fmt(1.0 / isol.v_g)}, ell = {_fmt(inputs.ell)}")
        _interface_diagnostics(model, isol, diags)
    lines.extend(_dryout_lines(dsol))
    _stefan_diagnostics(dsol, diags)
    failed = any(limit is not None and not ok for _, _, limit, ok in diags)
    return RunReport(command="dryout", lines=lines, diagnostics=diags,
                     interface=isol, dryout=dsol, failed=failed)


def _run_profile(config, options):
    inputs, model, isol = _stefan_inputs(config)
    dsol = solve_stationary(inputs)
    if not dsol.exists:
        report = RunReport(command="profile", lines=_dryout_lines(dsol),
                           diagnostics=[], dryout=dsol)
        return report
    xmax = options.xmax if options.xmax is not None else 1.5 * dsol.x_star
    if xmax <= 0.0:
        raise ValidationError("--xmax must be positive")
    xs = [float(x) for x in np.linspace(0.0, xmax, options.n)]
    if dsol.x_star <= xmax and dsol.x_star not in xs:
        xs.append(dsol.x_star)
        xs.sort()
    rows = []
    for x in xs:
        if x < dsol.x_star:
            phase = "liquid"
        elif x == dsol.x_star:
            phase = "interface"
        else:
            phase = "gas"
        rows.append((x, temperature_profiles(dsol, x), phase))
    path = options.out or "profile.csv"
    emit_csv(Series(("x", "theta", "phase"), tuple(rows)), path)
    lines = _dryout_lines(dsol)
    lines.append(f"profile: {len(rows)} rows on [0, {_fmt(xmax)}]")
    return RunReport(command="profile", lines=lines, diagnostics=[],
                     dryout=dsol, csv_path=path)


def _apply_sweep_value(config, param, value):
    if param in ("j_flux", "u_liquid"):
        j = value if param == "j_flux" else config.rho_liquid * value
        if j <= 0.0:
            raise ValidationError("swept mass flux must be positive")
        if param == "u_liquid":
            return dataclasses.replace(config, j=j, u_liquid=value)
        return dataclasses.replace(config, j=j, u_liquid=None)
    if param in ("theta_star", "rho_gas", "latent_heat") and config.mode != "direct":
        raise ValidationError(f"'{param}' is only sweepable in direct mode")
    updated = dataclasses.replace(config, **{param: value})
    if param == "rho_liquid" and config.u_liquid is not None:
        # velocity-specified flux tracks the swept density
        updated = dataclasses.replace(updated, j=value * config.u_liquid)
    return updated


def _run_sweep(config, options):
    if options.param is None or options.from_value is None or options.to_value is None:
        raise ValidationError("sweep needs --param, --from and --to")
    if options.param not in _SWEEPABLE:
        raise ValidationError(f"unknown sweep parameter '{options.param}'")
    if options.n < 2:
        raise ValidationError("sweep needs --n of at least 2")
    rows = []
    for value in np.linspace(options.from_value, options.to_value, options.n):
        point = _apply_sweep_value(config, options.param, float(value))
        try:
            inputs, _, _ = _stefan_inputs(point)
            dsol = solve_stationary(inputs)
        except ContinuationFailed:
            rows.append((float(value), math.nan, False))
            continue
        except InvalidInput as exc:
            raise ValidationError(
                f"sweep value {value} for {options.param}: {exc}") from None
        x_star = dsol.x_star if dsol.exists else math.nan
        rows.append((float(value), x_star, dsol.exists))
    path = options.out or "sweep.csv"
    emit_csv(Series(("param", "x_star", "exists"), tuple(rows)), path)
    lines = [f"sweep of {options.param}: {len(rows)} samples in "
             f"[{_fmt(options.from_value)}, {_fmt(options.to_value)}]"]
    return RunReport(command="sweep", lines=lines, diagnostics=[], csv_path=path)


_COMMANDS = {
    "saturation": _run_saturation,
    "interface": _run_interface,
    "dryout": _run_dryout,
    "profile": _run_profile,
    "sweep": _run_sweep,
}


def run(command, config, options=None):
    """Execute one CLI command against a validated config; returns a RunReport."""
    if command not in _COMMANDS:
        raise InvalidInput(f"unknown command '{command}'")
    return _COMMANDS[command](config, options or RunOptions())


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dryout-solver",
        description="Interface conditions, saturation curves and dryout location "
                    "for a stationary two-phase pipe flow.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="path to a 'key = value' config file")
    parser.add_argument("--xmax", type=float, default=None,
                        help="profile upper position (default 1.5 * x_star)")
    parser.add_argument("--n", type=int, default=200,
                        help="number of grid points for curves and sweeps")
    parser.add_argument("--param", default=None, help="config key swept by 'sweep'")
    parser.add_argument("--from", dest="from_value", type=float, default=None,
                        help="sweep/curve lower bound")
    parser.add_argument("--to", dest="to_value", type=float, default=None,
                        help="sweep/curve upper bound")
    parser.add_argument("--out", default=None, help="output CSV path")
    args = parser.parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    options = RunOptions(xmax=args.xmax, n=args.n, param=args.param,
                         from_value=args.from_value, to_value=args.to_value,
                         out=args.out)
    try:
        config = parse_config(text)
        report = run(args.command, config, options)
    except (ParseError, ValidationError, InvalidInput, OutOfRange,
            AboveCritical, NoPhaseTransition) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoDryout, ContinuationFailed) as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 1
    except DryoutError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    sys.stdout.write(report.render())
    if report.dryout is not None and not report.dryout.exists:
        return 1
    return 3 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
