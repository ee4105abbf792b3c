"""Byte-for-byte CLI output on the README configs.

Each case runs ``cli.main`` inside a scratch directory, so CSV files land
under their default names and the ``wrote <path>`` line is the same on
every machine.  The expected stdout, CSV bytes and exit code live in
``tests/golden``.  After a change that is meant to alter the output,
regenerate them with ``PYTHONPATH=src python tests/test_golden_cli.py``
and review the diff.
"""

import contextlib
import io
import os
import pathlib
import sys
import tempfile

import pytest

from dryout.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# name -> (config file, command, options, CSV file the command writes)
CASES = {
    "eos-interface": ("eos.cfg", "interface", [], None),
    "eos-dryout": ("eos.cfg", "dryout", [], None),
    "eos-profile": ("eos.cfg", "profile", [], "profile.csv"),
    "eos-saturation": ("eos.cfg", "saturation", ["--n", "20"], "saturation.csv"),
    "eos-sweep-j_flux": ("eos.cfg", "sweep",
                         ["--param", "j_flux", "--from", "0.05", "--to", "0.35", "--n", "4"],
                         "sweep.csv"),
    "eos-sweep-rho_liquid": ("eos.cfg", "sweep",
                             ["--param", "rho_liquid", "--from", "1.55", "--to", "1.85",
                              "--n", "4"],
                             "sweep.csv"),
    "direct-dryout": ("direct.cfg", "dryout", [], None),
    "direct-profile": ("direct.cfg", "profile", [], "profile.csv"),
    "direct-sweep-theta_in": ("direct.cfg", "sweep",
                              ["--param", "theta_in", "--from", "-3", "--to", "-1",
                               "--n", "20"],
                              "sweep.csv"),
}


def run_case(name, workdir):
    """Exit code, stdout bytes and CSV bytes (or None) of one case run in ``workdir``."""
    config, command, extra, csv_name = CASES[name]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main([command, str(GOLDEN / config)] + extra)
    finally:
        os.chdir(cwd)
    csv = (pathlib.Path(workdir) / csv_name).read_bytes() if csv_name else None
    return code, stdout.getvalue().encode("utf-8"), csv


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name, tmp_path):
    code, stdout, csv = run_case(name, tmp_path)
    assert f"{code}\n" == (GOLDEN / f"{name}.code").read_text()
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    if csv is not None:
        assert csv == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            code, stdout, csv = run_case(case, scratch)
        (GOLDEN / f"{case}.code").write_text(f"{code}\n")
        (GOLDEN / f"{case}.stdout").write_bytes(stdout)
        if csv is not None:
            (GOLDEN / f"{case}.csv").write_bytes(csv)
        print(f"{case}: exit {code}", file=sys.stderr)
