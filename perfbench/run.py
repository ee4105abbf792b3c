"""Benchmark of the dryout chain, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and README.md): ``chain``, ``sweep``,
``fold``.  Each run is one process doing one operation at a time (a
closed loop with a single client).  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it measures half the time untraced
and half traced and prints the per-layer metrics.  Every operation is
checked against the oracle after the measured window.  The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from time import perf_counter_ns
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
# the unit of time: the speed probe takes REF_PROBE_NS at reference speed
REF_PROBE_NS = 150_000
PROBE_WINDOW = 20   # operations on either side whose probes set an operation's speed


def measure_setup(ops, samples):
    """Set-up time: from starting a fresh interpreter until the first operation is ready.

    Returns medians over ``samples`` interpreters: the wall time in seconds,
    the same at reference speed, and the import time of ``dryout`` in ms at
    reference speed.
    """
    payload = json.dumps({"src": SRC, "texts": [op.text for op in ops if op.text]})
    walls, scaled, imports = [], [], []
    for _ in range(samples):
        probes = [speed_probe() for _ in range(5)]
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "setup_probe.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            proc.stdin.write(payload)
            proc.stdin.close()
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        fields = line.split()
        if proc.returncode != 0 or not fields or fields[0] != "ready":
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        probes += [speed_probe() for _ in range(5)]
        speed = REF_PROBE_NS / statistics.median(probes)
        walls.append(wall)
        scaled.append(wall * speed)
        imports.append(float(fields[1]) * speed)
    return statistics.median(walls), statistics.median(scaled), statistics.median(imports)


class _Fluid:
    """A van der Waals pressure written apart from ``dryout``, for the speed probe."""

    __slots__ = ("a", "b", "k")

    def __init__(self):
        self.a, self.b, self.k = 3.0, 1.0 / 3.0, 8.0 / 3.0

    def check(self, v):
        if not v > self.b:
            raise ValueError("volume at or below the excluded volume")

    def pressure(self, v, t):
        self.check(v)
        return self.k * t / (v - self.b) - self.a / (v * v)

    def energy(self, v, t):
        self.check(v)
        return t * (1.0 - math.log(t)) - self.k * t * math.log(v - self.b) - self.a / v


def _secant(f, lo, hi):
    f_lo, f_hi = f(lo), f(hi)
    x_prev, f_prev, x, fx = lo, f_lo, hi, f_hi
    for _ in range(60):
        if abs(fx) < 1e-13:
            break
        trial = x - fx * (x - x_prev) / (fx - f_prev) if fx != f_prev else None
        if trial is None or not lo < trial < hi:
            trial = 0.5 * (lo + hi)
        f_trial = f(trial)
        x_prev, f_prev, x, fx = x, fx, trial, f_trial
        if (f_trial > 0.0) == (f_lo > 0.0):
            lo, f_lo = trial, f_trial
        else:
            hi = trial
    return x


def speed_probe(fluid=_Fluid()):
    """Wall time, in ns, of a fixed set of root solves shaped like the program's work.

    Method calls, domain checks, float arithmetic and logarithms inside a
    safeguarded secant loop: this tracks the speed of the shared cores for
    ``dryout`` code better than a plain arithmetic loop does.
    """
    t0 = perf_counter_ns()
    for k in range(16):
        p = 0.3 + 0.02 * k
        v = _secant(lambda v: fluid.pressure(v, 0.9) - p, 1.2, 40.0)
        fluid.energy(v, 0.9)
    return perf_counter_ns() - t0


def at_reference_speed(times_ns, probes_ns):
    """Scale each time by REF_PROBE_NS over the mean probe of its neighbourhood.

    The cores of this machine are shared, and its speed drifts by up to a
    factor of two over minutes; the probe runs between operations and slows
    down with them, so the scaled times stay put while the raw ones drift.
    The mean, not the median, of the probes is used so that short bursts
    of contention, which also lengthen the operations, are corrected on
    average.
    """
    out = []
    for i, t in enumerate(times_ns):
        near = probes_ns[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        out.append(t * REF_PROBE_NS / statistics.fmean(near))
    return out


def measure(workload, env, seconds, tracer=None, after_first_round=None):
    """Whole rounds of operations until ``seconds`` have passed.

    Returns records ``(round, op, outcome, ns, ns at reference speed)``;
    drawing a round's inputs and the speed probes are not timed.
    """
    rows, probes, r = [], [], 0
    started = time.perf_counter()
    while True:
        for op in workload.round(r):
            t0 = perf_counter_ns()
            try:
                if tracer is None:
                    outcome = ("ok", workload.execute(env, op))
                else:
                    outcome = ("ok", tracer.op(len(rows), workload.execute, env, op))
            except Exception as exc:  # an operation's error is its answer; checked below
                outcome = ("raised", exc)
            rows.append((r, op, outcome, perf_counter_ns() - t0))
            probes.append(speed_probe())
        if r == 0 and after_first_round is not None:
            after_first_round(len(rows))
        r += 1
        if time.perf_counter() - started >= seconds:
            scaled = at_reference_speed([row[3] for row in rows], probes)
            return [row + (ns,) for row, ns in zip(rows, scaled)]


def check(workload, records):
    """(failures, problems): solutions that raised, and every check that did not hold."""
    failures, problems = [], []
    for r, op, outcome, *_ in records:
        if op.kind == "solution" and outcome[0] == "raised":
            exc = outcome[1]
            failures.append(f"round {r} {op.command}: raised "
                            + "".join(traceback.format_exception_only(type(exc), exc)).strip())
            continue
        problems.extend(f"round {r} {op.command}: {msg}" for msg in workload.check(op, outcome))
    return failures, problems


def end_to_end(records, setup_s, scaled=True):
    col = 4 if scaled else 3
    solutions = [rec[col] / 1e6 for rec in records if rec[1].kind == "solution"]
    refusals = [rec[col] / 1e6 for rec in records if rec[1].kind == "refusal"]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(records) / (sum(rec[col] for rec in records) / 1e9), "1/s"),
        "op_median_ms": (statistics.median(solutions), "ms"),
        "refusal_median_ms": (statistics.median(refusals), "ms"),
    }


def tail(records):
    """90th percentile of solution latency at reference speed and on the wall clock.

    Printed and kept in the result file, not gated: bursts of contention from
    other tenants move it by up to 70% between repeats of the same inputs.
    """
    return {name: statistics.quantiles([rec[col] / 1e6 for rec in records
                                        if rec[1].kind == "solution"], n=10)[8]
            for name, col in (("op_p90_ms", 4), ("op_p90_wall_ms", 3))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dryout", "__init__.py")):
        print(f"error: no dryout package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import dryout
    import dryout.cli
    import dryout.interface

    if os.path.dirname(os.path.dirname(os.path.abspath(dryout.__file__))) != SRC:
        print(f"error: imported dryout from {dryout.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"csv-{args.workload}-", dir=OUT)
    try:
        result, wall, extra = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, wall_metrics=wall, not_gated=extra), fh, indent=1)
    for name, m in result["metrics"].items():
        raw = f"  (wall clock {wall[name]['value']:.6g})" if name in wall else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{raw}")
    for name, value in extra.items():
        print(f"{name} = {value:.6g} ms (not gated)")
    print(json.dumps(result))
    return 0


def run(args, scratch):
    """Set up, measure and check one run; returns the result and the wall-clock metrics."""
    import dryout
    import dryout.cli
    import dryout.interface
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    env = SimpleNamespace(cli=dryout.cli, interface=dryout.interface,
                          model=dryout.reduced_van_der_waals())
    setup_wall, setup_s, import_ms = measure_setup(workload.round(0),
                                                   3 if args.trace else SETUP_SAMPLES)

    # lazy first-call costs stay out of the window; this operation is not checked
    try:
        workload.execute(env, workload.round(-1)[0])
    except Exception:  # noqa: BLE001 - a refusal is a possible answer
        pass

    wall, extra = {}, {}
    if not args.trace:
        records = measure(workload, env, args.seconds)
        metrics = end_to_end(records, setup_s)
        wall = end_to_end(records, setup_wall, scaled=False)
        extra = tail(records)
    else:
        sampler = tracing.Sampler()
        with sampler:
            plain = measure(workload, env, args.seconds / 2)
        tracer = tracing.Tracer()
        marks = {}
        tracer.install()
        try:
            marks["before"] = tracer.snapshot()
            traced = measure(workload, env, args.seconds / 2, tracer,
                             lambda n: marks.update(after=tracer.snapshot(), n=n))
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz"))
        ms_per_op = sum(rec[4] for rec in plain) / len(plain) / 1e6
        metrics = {k: (v, unit_of(k)) for k, v in tracing.layer_metrics(
            sampler, ms_per_op, marks["before"], marks["after"], marks["n"]).items()}
        metrics["setup.import_ms"] = (import_ms, "ms")
        # the same rounds on both sides, so the inputs match
        rounds = min(plain[-1][0], traced[-1][0]) + 1
        plain_ns = sum(rec[4] for rec in plain if rec[0] < rounds)
        traced_ns = sum(rec[4] for rec in traced if rec[0] < rounds)
        metrics["trace.overhead_pct"] = (100.0 * (traced_ns / plain_ns - 1.0), "%")
        records = plain + traced

    failures, problems = check(workload, records)
    for msg in (failures + problems)[:20]:
        print("check: " + msg, file=sys.stderr)
    if len(failures) + len(problems) > 20:
        print(f"check: ... {len(failures) + len(problems) - 20} more", file=sys.stderr)
    as_json = lambda ms: {k: {"value": v, "unit": u} for k, (v, u) in ms.items()}
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": as_json(metrics),
    }, as_json(wall), extra


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
