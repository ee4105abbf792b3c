import contextlib
import io
import math
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dryout import FreeBoundaryProblem, interface, solve_free_boundary, solve_interface
from dryout.cli import (
    RunOptions,
    Series,
    emit_csv,
    main,
    parse_config,
    run,
)
from dryout.errors import ContinuationFailed, InvalidInput, ParseError, ValidationError

DIRECT_CFG = """\
# unit-coefficient suite
mode = direct
rho_liquid = 2.0
j_flux = 1.0
theta_in = -2.0
r = 1.0
kappa1 = 1.0
kappa2 = 1.0
d1 = 1.0
d2 = 1.0
theta_star = 0.0
rho_gas = 0.5
latent_heat = -0.5
"""

EOS_CFG = """\
mode = eos
k1 = 1.0
k2 = 2.6666666666666665
a = 3.0
b = 0.33333333333333331
rho_liquid = 1.6572700954979298
j_flux = 0.1
theta_in = 0.5
r = 1.0
d1 = 1.0
d2 = 1.0
"""


class TestParseConfig:
    def test_minimal_direct_file(self):
        cfg = parse_config(DIRECT_CFG)
        assert cfg.mode == "direct"
        assert cfg.j == 1.0
        assert cfg.latent_heat == -0.5

    def test_u_liquid_converts_to_flux(self):
        text = DIRECT_CFG.replace("j_flux = 1.0", "u_liquid = 0.5")
        assert parse_config(text).j == 1.0

    def test_both_flux_keys_rejected(self):
        text = DIRECT_CFG.replace("j_flux = 1.0", "j_flux = 1.0\nu_liquid = 0.5")
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_inverted_temperatures(self):
        text = DIRECT_CFG.replace("theta_in = -2.0", "theta_in = 0.5")
        with pytest.raises(ValidationError, match="theta_in must be below theta_star"):
            parse_config(text)

    def test_ideal_gas_rejected_at_parse_time(self):
        text = EOS_CFG.replace("a = 3.0", "a = 0.0").replace(
            "b = 0.33333333333333331", "b = 0.0")
        with pytest.raises(ValidationError, match="ideal gas admits no phase transition"):
            parse_config(text)

    def test_unknown_key_cites_line(self):
        with pytest.raises(ParseError) as info:
            parse_config("mode = direct\nbogus = 1\n")
        assert info.value.line == 2

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_config(DIRECT_CFG + "r = 2.0\n")

    def test_malformed_line(self):
        with pytest.raises(ParseError) as info:
            parse_config("mode = direct\nnonsense\n")
        assert info.value.line == 2

    def test_unparsable_number(self):
        with pytest.raises(ParseError):
            parse_config(DIRECT_CFG.replace("r = 1.0", "r = one"))

    def test_mode_block_separation(self):
        with pytest.raises(ValidationError):
            parse_config(DIRECT_CFG + "k1 = 1.0\n")
        with pytest.raises(ValidationError):
            parse_config(EOS_CFG + "theta_star = 0.95\n")

    def test_subcritical_liquid_density_rejected(self):
        text = EOS_CFG.replace("rho_liquid = 1.6572700954979298", "rho_liquid = 0.9")
        with pytest.raises(ValidationError, match="critical density"):
            parse_config(text)

    def test_vdw_heat_capacity_defaults(self):
        cfg = parse_config(EOS_CFG)
        assert cfg.kappa1 == cfg.k1
        assert cfg.kappa2 == cfg.k1

    def test_comments_and_blank_lines_ignored(self):
        assert parse_config("\n# comment\n" + DIRECT_CFG).mode == "direct"


class TestEmitCsv:
    def test_format_contract(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(Series(("x", "theta", "phase"),
                        ((0.0, -2.0, "liquid"), (1.0 / 3.0, 0.25, "gas"))), str(path))
        data = path.read_bytes()
        assert data == (b"x,theta,phase\n"
                        b"0,-2,liquid\n"
                        b"0.33333333333333331,0.25,gas\n")

    def test_seventeen_significant_digits_round_trip(self, tmp_path):
        value = math.pi * 1e-7
        path = tmp_path / "pi.csv"
        emit_csv(Series(("v",), ((value,),)), str(path))
        text = path.read_text().splitlines()[1]
        assert float(text) == value

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(InvalidInput):
            emit_csv(Series(("a",), ()), str(tmp_path / "no.csv"))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCliCommands:
    def test_dryout_direct_matches_module_result(self, tmp_path, capsys):
        code = main(["dryout", write(tmp_path, "d.cfg", DIRECT_CFG)])
        out = capsys.readouterr().out
        assert code == 0
        want = solve_free_boundary(FreeBoundaryProblem(1.0, 1.0, 1.0, 2.0, 0.5))
        assert f"x_star = {format(want, '.17g')}" in out
        assert "status: OK" in out

    def test_dryout_condition_violation_exit_code(self, tmp_path, capsys):
        text = DIRECT_CFG.replace("j_flux = 1.0", "j_flux = 1.5").replace(
            "latent_heat = -0.5", "latent_heat = -1.0")
        code = main(["dryout", write(tmp_path, "bad.cfg", text)])
        out = capsys.readouterr().out
        assert code == 1
        assert "(-ell) > d2*r/(kappa2*j^2)" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["dryout", write(tmp_path, "bad.cfg", "mode = direct\n")])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["dryout", str(tmp_path / "absent.cfg")]) == 2

    def test_continuation_failure_exit_code(self, tmp_path, capsys):
        text = EOS_CFG.replace("j_flux = 0.1", "j_flux = 0.5")
        code = main(["dryout", write(tmp_path, "fast.cfg", text)])
        err = capsys.readouterr().err
        assert code == 1
        assert "no stationary phase transition" in err

    def test_flux_past_the_fold_names_the_located_fold(self, tmp_path, capsys):
        # the fold of this config's branch (40-digit oracle: 0.29774727410281745)
        text = EOS_CFG.replace("j_flux = 0.1", "j_flux = 0.5")
        code = main(["interface", write(tmp_path, "fast.cfg", text)])
        err = capsys.readouterr().err
        assert code == 1
        assert "exceeds the located fold j_f=0.2977472741" in err
        assert "Traceback" not in err

    def test_walk_that_brackets_nothing_is_a_numerical_failure(self, tmp_path, capsys,
                                                                monkeypatch):
        monkeypatch.setattr(interface, "_STRETCH", (1.001, 1.002))
        text = EOS_CFG.replace("j_flux = 0.1", "j_flux = 0.5")
        code = main(["interface", write(tmp_path, "fast.cfg", text)])
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical failure: the branch brackets neither" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("factor", [1.0 - 2e-10, 1.0, 1.0 + 2e-10])
    def test_flux_at_the_fold_is_solved_or_refused(self, tmp_path, capsys, factor):
        model = parse_config(EOS_CFG).model()
        with pytest.raises(ContinuationFailed) as info:
            solve_interface(model, 1.0 / 1.6572700954979298, 0.5)
        text = EOS_CFG.replace("j_flux = 0.1", f"j_flux = {info.value.j_fold * factor!r}")
        code = main(["interface", write(tmp_path, "fold.cfg", text)])
        err = capsys.readouterr().err
        assert code in (0, 1)
        if code == 1:
            assert "the located fold j_f=0.2977472741" in err
        assert "Traceback" not in err

    def test_near_critical_liquid_density_exit_code(self, tmp_path, capsys):
        # passes static validation but the boiling temperature lies above the
        # supported near-critical ceiling
        text = EOS_CFG.replace("rho_liquid = 1.6572700954979298", "rho_liquid = 1.01")
        code = main(["dryout", write(tmp_path, "hot.cfg", text)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_profile_rows(self, tmp_path, capsys):
        out_csv = tmp_path / "prof.csv"
        code = main(["profile", write(tmp_path, "d.cfg", DIRECT_CFG),
                     "--n", "9", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "x,theta,phase"
        assert lines[1] == "0,-2,liquid"
        phases = [ln.split(",")[2] for ln in lines[1:]]
        assert phases.count("interface") == 1
        idx = phases.index("interface")
        assert all(p == "liquid" for p in phases[:idx])
        assert all(p == "gas" for p in phases[idx + 1:])
        want = solve_free_boundary(FreeBoundaryProblem(1.0, 1.0, 1.0, 2.0, 0.5))
        x_if, theta_if = lines[1 + idx].split(",")[:2]
        assert float(x_if) == want
        assert abs(float(theta_if)) < 1e-12

    def test_profile_clipped_before_the_boundary(self, tmp_path):
        # xmax below x_star: every row is liquid and no interface marker appears
        out_csv = tmp_path / "prof.csv"
        code = main(["profile", write(tmp_path, "d.cfg", DIRECT_CFG),
                     "--n", "5", "--xmax", "1.0", "--out", str(out_csv)])
        assert code == 0
        phases = [ln.split(",")[2] for ln in out_csv.read_text().splitlines()[1:]]
        assert set(phases) == {"liquid"}

    def test_interface_command(self, tmp_path, capsys):
        code = main(["interface", write(tmp_path, "e.cfg", EOS_CFG)])
        out = capsys.readouterr().out
        assert code == 0
        assert "theta_star" in out and "rho_gas" in out and "ell" in out
        assert "status: OK" in out

    def test_interface_needs_eos_mode(self, tmp_path, capsys):
        assert main(["interface", write(tmp_path, "d.cfg", DIRECT_CFG)]) == 2

    def test_saturation_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "sat.csv"
        code = main(["saturation", write(tmp_path, "e.cfg", EOS_CFG),
                     "--n", "5", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "theta,v_l_star,v_g_star,p_star,latent_heat"
        assert len(lines) == 6
        pressures = [float(ln.split(",")[3]) for ln in lines[1:]]
        assert all(b > a for a, b in zip(pressures, pressures[1:]))

    def test_sweep_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code = main(["sweep", write(tmp_path, "d.cfg", DIRECT_CFG),
                     "--param", "theta_in", "--from", "-3.0", "--to", "-1.0",
                     "--n", "5", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "param,x_star,exists"
        xs = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert all(b < a for a, b in zip(xs, xs[1:]))  # warmer inlet, earlier boundary

    def test_sweep_records_nonexistence(self, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        text = DIRECT_CFG.replace("latent_heat = -0.5", "latent_heat = -1.0")
        code = main(["sweep", write(tmp_path, "d.cfg", text),
                     "--param", "j_flux", "--from", "0.5", "--to", "1.5",
                     "--n", "5", "--out", str(out_csv)])
        assert code == 0
        rows = [ln.split(",") for ln in out_csv.read_text().splitlines()[1:]]
        flags = [row[2] for row in rows]
        assert "true" in flags and "false" in flags
        for row in rows:
            if row[2] == "false":
                assert row[1] == "nan"

    def test_sweep_requires_arguments(self, tmp_path, capsys):
        assert main(["sweep", write(tmp_path, "d.cfg", DIRECT_CFG)]) == 2

    def test_eos_mode_flux_sweep_crosses_the_fold(self, tmp_path):
        # beyond the continuation fold the interface stage finds no stationary
        # transition; those samples must land as exists=false rows, not aborts
        out_csv = tmp_path / "sweep.csv"
        code = main(["sweep", write(tmp_path, "e.cfg", EOS_CFG),
                     "--param", "j_flux", "--from", "0.05", "--to", "0.45",
                     "--n", "5", "--out", str(out_csv)])
        assert code == 0
        rows = [ln.split(",") for ln in out_csv.read_text().splitlines()[1:]]
        flags = [row[2] for row in rows]
        assert flags[0] == "true"
        assert flags[-1] == "false"
        xs = [float(r[1]) for r in rows if r[2] == "true"]
        assert all(b > a for a, b in zip(xs, xs[1:]))  # downstream with flux

    def test_sweeping_density_tracks_velocity_given_flux(self, tmp_path):
        # with u_liquid given, j = rho * u must follow the swept density
        out_csv = tmp_path / "sweep.csv"
        text = DIRECT_CFG.replace("j_flux = 1.0", "u_liquid = 0.5").replace(
            "latent_heat = -0.5", "latent_heat = -0.1")
        code = main(["sweep", write(tmp_path, "d.cfg", text),
                     "--param", "rho_liquid", "--from", "2.0", "--to", "4.0",
                     "--n", "3", "--out", str(out_csv)])
        assert code == 0
        rows = [ln.split(",") for ln in out_csv.read_text().splitlines()[1:]]
        # j grows with rho, so the dryout point moves downstream
        xs = [float(r[1]) for r in rows]
        assert xs[0] < xs[1] < xs[2]
        # cross-check the last point against a direct j_flux config
        fed = DIRECT_CFG.replace("j_flux = 1.0", "j_flux = 2.0").replace(
            "rho_liquid = 2.0", "rho_liquid = 4.0").replace(
            "latent_heat = -0.5", "latent_heat = -0.1")
        report = run("dryout", parse_config(fed), RunOptions())
        assert float(rows[2][1]) == report.dryout.x_star

    def test_determinism_byte_identical(self, tmp_path, capsys):
        cfg = write(tmp_path, "d.cfg", DIRECT_CFG)
        out_csv = tmp_path / "prof.csv"
        main(["profile", cfg, "--out", str(out_csv)])
        first = capsys.readouterr().out
        first_bytes = out_csv.read_bytes()
        main(["profile", cfg, "--out", str(out_csv)])
        second = capsys.readouterr().out
        assert first == second
        assert first_bytes == out_csv.read_bytes()


def with_value(config, key, value):
    """Config text with ``key`` set to ``value``; u_liquid replaces j_flux."""
    dropped = {key, "j_flux"} if key == "u_liquid" else {key}
    lines = [ln for ln in config.splitlines() if ln.partition("=")[0].strip() not in dropped]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


DIRECT_KEYS = ("rho_liquid", "j_flux", "u_liquid", "theta_in", "r", "kappa1", "kappa2",
               "d1", "d2", "theta_star", "rho_gas", "latent_heat")
EOS_KEYS = ("k1", "k2", "a", "b", "rho_liquid", "j_flux", "u_liquid", "theta_in", "r",
            "kappa1", "kappa2", "d1", "d2")


class TestExitCodeContract:
    """Extreme and non-finite inputs end in a documented exit code, never a traceback."""

    def run_main(self, tmp_path, capsys, text):
        code = main(["dryout", write(tmp_path, "x.cfg", text)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, captured

    def test_direct_huge_flux_is_a_no_dryout_verdict(self, tmp_path, capsys):
        code, captured = self.run_main(tmp_path, capsys, with_value(DIRECT_CFG, "j_flux", "1e200"))
        assert code == 1
        assert "dryout point exists: false" in captured.out

    def test_direct_infinite_heat_source_is_invalid(self, tmp_path, capsys):
        code, captured = self.run_main(tmp_path, capsys, with_value(DIRECT_CFG, "r", "inf"))
        assert code == 2
        assert "r must be finite" in captured.err

    def test_eos_huge_flux_is_invalid(self, tmp_path, capsys):
        code, captured = self.run_main(tmp_path, capsys, with_value(EOS_CFG, "j_flux", "1e200"))
        assert code == 2
        assert "not finite" in captured.err

    @pytest.mark.parametrize("mode", ["direct", "eos"])
    def test_flux_whose_square_underflows_is_invalid(self, tmp_path, capsys, mode):
        config = DIRECT_CFG if mode == "direct" else EOS_CFG
        code, captured = self.run_main(tmp_path, capsys, with_value(config, "j_flux", "1e-300"))
        assert code == 2
        assert "j^2 underflows" in captured.err

    def test_eos_excluded_volume_whose_square_underflows_is_invalid(self, tmp_path, capsys):
        code, captured = self.run_main(tmp_path, capsys, with_value(EOS_CFG, "b", "1e-300"))
        assert code == 2
        assert "underflows" in captured.err

    def test_saturation_below_the_double_precision_floor(self, tmp_path, capsys):
        # at 1e-3 theta_c the saturated gas volume overflows double precision
        code = main(["saturation", write(tmp_path, "e.cfg", EOS_CFG), "--from", "0.001",
                     "--to", "0.5", "--n", "2", "--out", str(tmp_path / "sat.csv")])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert code == 3
        assert "numerical failure" in captured.err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("mode, key", [("direct", k) for k in DIRECT_KEYS]
                             + [("eos", k) for k in EOS_KEYS])
    def test_non_finite_value_is_invalid(self, tmp_path, capsys, mode, key, value):
        config = DIRECT_CFG if mode == "direct" else EOS_CFG
        code, captured = self.run_main(tmp_path, capsys, with_value(config, key, value))
        assert code == 2
        assert f"{key} must be finite" in captured.err


EXTREME_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.5e-162,
                  1e-100, -1.0, 1e100, 1e154, 1e300, 1.7976931348623157e308,
                  -1.7976931348623157e308, math.inf, -math.inf, math.nan)


@st.composite
def extreme_configs(draw):
    """A README config with one to three numeric keys set to extreme values."""
    mode = draw(st.sampled_from(["direct", "eos"]))
    keys = DIRECT_KEYS if mode == "direct" else EOS_KEYS
    config = DIRECT_CFG if mode == "direct" else EOS_CFG
    changes = draw(st.dictionaries(
        st.sampled_from(keys),
        st.one_of(st.sampled_from(EXTREME_VALUES), st.floats()),
        min_size=1, max_size=3))
    for key, value in changes.items():
        config = with_value(config, key, repr(value))
    return config


class TestExitCodeProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(extreme_configs())
    def test_every_config_ends_in_a_documented_exit_code(self, config):
        codes = []
        with tempfile.TemporaryDirectory() as scratch:
            path = write(pathlib.Path(scratch), "x.cfg", config)
            for _ in range(2):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    codes.append(main(["dryout", path]))
                assert "Traceback" not in err.getvalue()
        assert codes[0] in (0, 1, 2, 3)
        assert codes[0] == codes[1]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.floats(1e-12, 1.2), st.floats(1e-12, 1.2))
    def test_every_saturation_range_ends_in_a_documented_exit_code(self, lo, hi):
        # the README eos config has theta_c = 1
        codes = []
        with tempfile.TemporaryDirectory() as scratch:
            path = write(pathlib.Path(scratch), "x.cfg", EOS_CFG)
            argv = ["saturation", path, "--from", repr(lo), "--to", repr(hi), "--n", "3",
                    "--out", str(pathlib.Path(scratch) / "sat.csv")]
            for _ in range(2):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    codes.append(main(argv))
                assert "Traceback" not in err.getvalue()
        assert codes[0] in (0, 1, 2, 3)
        assert codes[0] == codes[1]


class TestPipelineDecoupling:
    def test_eos_mode_equals_composed_direct_mode(self, tmp_path, capsys):
        # run the interface stage, feed its printed values into a direct-mode
        # config, and demand bit-identical dryout locations
        cfg = write(tmp_path, "e.cfg", EOS_CFG)
        assert main(["dryout", cfg]) == 0
        eos_out = capsys.readouterr().out
        x_eos = next(ln.split("=")[1].strip() for ln in eos_out.splitlines()
                     if "x_star" in ln)

        assert main(["interface", cfg]) == 0
        if_out = capsys.readouterr().out
        values = {}
        for ln in if_out.splitlines():
            if "=" in ln:
                key, _, val = ln.partition("=")
                values[key.strip()] = val.strip()
        direct = (
            "mode = direct\n"
            "rho_liquid = 1.6572700954979298\n"
            "j_flux = 0.1\n"
            "theta_in = 0.5\n"
            "r = 1.0\nkappa1 = 1.0\nkappa2 = 1.0\nd1 = 1.0\nd2 = 1.0\n"
            f"theta_star = {values['theta_star']}\n"
            f"rho_gas = {values['rho_gas']}\n"
            f"latent_heat = {values['ell']}\n"
        )
        assert main(["dryout", write(tmp_path, "fed.cfg", direct)]) == 0
        direct_out = capsys.readouterr().out
        x_direct = next(ln.split("=")[1].strip() for ln in direct_out.splitlines()
                        if "x_star" in ln)
        assert x_direct == x_eos


class TestRunApi:
    def test_unknown_command(self):
        cfg = parse_config(DIRECT_CFG)
        with pytest.raises(InvalidInput):
            run("explode", cfg)

    def test_report_marks_breached_tolerances(self):
        from dryout.cli import RunReport
        report = RunReport(command="dryout", lines=["verdict"],
                           diagnostics=[("residual", 1.0, 0.5, False),
                                        ("count", 3, None, True)],
                           failed=True)
        text = report.render()
        assert "FAIL" in text
        assert text.endswith("status: FAILED\n")
        assert "count = 3" in text

    def test_report_carries_solutions(self):
        cfg = parse_config(DIRECT_CFG)
        report = run("dryout", cfg, RunOptions())
        assert report.dryout is not None and report.dryout.exists
        assert not report.failed
        assert report.render().endswith("status: OK\n")
