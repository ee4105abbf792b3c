"""The benchmark's checks pass the program's answers and catch wrong ones."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import dryout  # noqa: E402
import dryout.cli  # noqa: E402
import dryout.interface  # noqa: E402
import workloads  # noqa: E402
from dryout.errors import ContinuationFailed, NoConvergence  # noqa: E402

ENV = SimpleNamespace(cli=dryout.cli, interface=dryout.interface,
                      model=dryout.reduced_van_der_waals())


def outcome(workload, op):
    try:
        return ("ok", workload.execute(ENV, op))
    except dryout.errors.DryoutError as exc:
        return ("raised", exc)


@pytest.fixture(scope="module")
def chain_cases():
    chain = workloads.Chain(seed=7, scratch=None)
    ops = [op for op in chain.round(0) if op.kind == "solution"]
    exists = next(op for op in ops if outcome(chain, op)[1].dryout.exists)
    refused = next(op for op in chain.round(0) if op.kind == "refusal")
    return chain, exists, refused


def test_chain_answers_pass(chain_cases):
    chain, op, refused = chain_cases
    assert chain.check(op, outcome(chain, op)) == []
    assert chain.check(refused, outcome(chain, refused)) == []


def test_chain_catches_perturbed_x_star(chain_cases):
    chain, op, _ = chain_cases
    report = outcome(chain, op)[1]
    dsol = report.dryout
    bad = dataclasses.replace(report, dryout=dataclasses.replace(
        dsol, x_star=dsol.x_star * (1.0 + 1e-6)))
    assert any("heat balance" in e for e in chain.check(op, ("ok", bad)))


def test_chain_catches_swapped_verdict(chain_cases):
    chain, op, _ = chain_cases
    report = outcome(chain, op)[1]
    bad = dataclasses.replace(report, dryout=dataclasses.replace(report.dryout, exists=False))
    assert any("verdict" in e for e in chain.check(op, ("ok", bad)))


def test_chain_catches_a_wrong_refusal(chain_cases):
    chain, op, refused = chain_cases
    assert chain.check(refused, ("raised", NoConvergence("stalled")))
    assert chain.check(refused, ("ok", outcome(chain, op)[1]))


@pytest.fixture(scope="module")
def fold_case():
    fold = workloads.Fold(seed=3, scratch=None)
    v_l, j_fold = fold.branches[1]
    below = workloads.Op("solution", "solve_interface",
                         data=dict(v_l=v_l, j=0.95 * j_fold, j_fold=j_fold))
    above = workloads.Op("refusal", "solve_interface",
                         data=dict(v_l=v_l, j=1.05 * j_fold, j_fold=j_fold))
    return fold, below, above


def test_fold_answers_pass(fold_case):
    fold, below, above = fold_case
    assert fold.check(below, outcome(fold, below)) == []
    assert fold.check(above, outcome(fold, above)) == []


def test_fold_catches_a_solve_reported_above_the_fold(fold_case):
    fold, below, above = fold_case
    sol = outcome(fold, below)[1]
    j_above = above.data["j"]
    reported = dataclasses.replace(sol, j=j_above, Z=0.5 * j_above ** 2)
    assert any("above the oracle's fold" in e for e in fold.check(above, ("ok", reported)))
    as_solution = dataclasses.replace(above, kind="solution")
    errs = fold.check(as_solution, ("ok", reported))
    assert any("above the oracle's fold" in e for e in errs)
    assert any("jump residual" in e for e in errs)


def test_fold_catches_a_refusal_past_the_fold(fold_case):
    fold, _, above = fold_case
    exc = outcome(fold, above)[1]
    late = ContinuationFailed("stalled", z_reached=0.5 * above.data["j_fold"] ** 2 * 1.001)
    assert fold.check(above, ("raised", exc)) == []
    assert any("past the fold" in e for e in fold.check(above, ("raised", late)))


def test_exit_codes_follow_the_cli(tmp_path, fold_case):
    _, _, above = fold_case
    rho = 1.0 / above.data["v_l"]
    text = workloads._text("eos", rho_liquid=rho, j_flux=above.data["j"], theta_in=0.5,
                           r=1.0, d1=1.0, d2=1.0)
    path = tmp_path / "above.cfg"
    path.write_text(text)
    assert dryout.cli.main(["interface", str(path)]) == 1
    with pytest.raises(ContinuationFailed) as info:
        dryout.cli.run("interface", dryout.cli.parse_config(text))
    assert workloads.exit_code(info.value) == 1
    path.write_text(workloads._text("eos", rho_liquid=1.0 / 0.96, j_flux=0.1, theta_in=0.5,
                                    r=1.0, d1=1.0, d2=1.0))
    assert dryout.cli.main(["dryout", str(path)]) == 2


def test_sweep_catches_wrong_rows(tmp_path):
    sweep = workloads.Sweep(seed=5, scratch=str(tmp_path))
    sat, flux, theta_in, refused = sweep.round(0)
    for op in (sat, flux, theta_in, refused):
        assert sweep.check(op, outcome(sweep, op)) == []

    def corrupt(op, row_index, column, change):
        with open(op.options["out"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        cells = lines[row_index + 1].split(",")
        cells[column] = change(cells[column])
        lines[row_index + 1] = ",".join(cells)
        with open(op.options["out"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    corrupt(sat, 5, 2, lambda c: repr(float(c) * (1.0 + 1e-6)))
    assert any("bitangent" in e for e in sweep.check(sat, ("ok", None)))
    corrupt(theta_in, 3, 1, lambda c: repr(float(c) * (1.0 + 1e-6)))
    assert any("heat balance" in e for e in sweep.check(theta_in, ("ok", None)))
    corrupt(flux, 0, 2, lambda c: "false" if c == "true" else "true")
    assert any("verdict" in e for e in sweep.check(flux, ("ok", None)))


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    with pytest.raises(json.JSONDecodeError):
        json.loads(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "")
