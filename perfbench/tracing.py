"""Per-layer measurement of ``dryout``: spans and work counts, plus a sampler for time.

Nothing under ``src/`` is touched.

``Tracer.install`` replaces functions at the module attributes where their
callers look them up (for example ``dryout.interface.boiling_temperature``
or ``dryout.saturation.newton2d``) with wrappers that record a span and
count work, and wraps the ``EosModel`` methods with call counters;
``Tracer.uninstall`` puts the originals back.  A span records its name,
the operation it belongs to, its parent span, and its start and end
(``perf_counter_ns``); spans stay in memory until ``Tracer.write``.

The wrappers add 20-50% to an operation and the extra time lands
unevenly: most of it in the root finders, which call back into the layer
that supplied the residual ~10^4 times per operation, and in the counters
on the EOS methods.  Layer times are therefore taken from ``Sampler`` on
untraced operations.  Every millisecond of CPU time it charges the
innermost ``dryout`` frame on the stack to that frame's module (its *self*
time) and every function of interest found further down to that function
(its inclusive time).  A residual closure that ``saturation`` hands to
``find_root_bracketed`` is ``saturation`` code, so its time is
``saturation`` self time.
"""

from __future__ import annotations

import gzip
import json
import os
import signal
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("eos", "numerics", "saturation", "interface", "stefan", "cli")

# (call site module, attribute, layer of the function)
SPANNED = (
    ("cli", "run", "cli"),
    ("cli", "parse_config", "cli"),
    ("cli", "solve_interface", "interface"),
    ("cli", "f_system", "interface"),
    ("cli", "sign_changes_modified", "interface"),
    ("cli", "clausius_clapeyron_residual", "saturation"),
    ("cli", "saturation_curve", "saturation"),
    ("cli", "solve_stationary", "stefan"),
    ("cli", "temperature_profiles", "stefan"),
    ("interface", "solve_interface", "interface"),
    ("interface", "sign_changes_modified", "interface"),
    ("interface", "boiling_temperature", "saturation"),
    ("interface", "maxwell_construction", "saturation"),
    ("interface", "descend_to_bracket", "saturation"),
    ("saturation", "maxwell_construction", "saturation"),
    ("saturation", "descend_to_bracket", "saturation"),
    ("stefan", "solve_free_boundary", "stefan"),
)
ROOT_SITES = ("saturation", "interface", "stefan")
NEWTON_SITES = ("saturation", "interface")

# functions whose inclusive time the sampler reports: (module, name) -> key
INCLUSIVE = {
    ("saturation", "maxwell_construction"): "maxwell",
    ("saturation", "boiling_temperature"): "boiling",
    ("interface", "solve_interface"): "solve_interface",
    ("interface", "sign_changes_modified"): "sign_changes",
    ("stefan", "solve_stationary"): "solve_stationary",
    ("cli", "parse_config"): "parse",
    ("cli", "_interface_diagnostics"): "diagnostics",
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = [array("q") for _ in range(5)]  # name, op, parent, start, end
        self.counts = Counter()
        self.eos_calls = [0]
        self._stack = []
        self._op = -1
        self._restore = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, args, kwargs):
        stack = self._stack
        sid = len(self.spans[0])
        parent = stack[-1] if stack else -1
        stack.append(sid)
        for col in self.spans:
            col.append(0)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.counts[name] += 1
            name_col, op_col, parent_col, start_col, end_col = self.spans
            name_col[sid] = self._name_id(name)
            op_col[sid] = self._op
            parent_col[sid] = parent
            start_col[sid] = start
            end_col[sid] = end

    def op(self, index, fn, *args):
        """Run one benchmark operation under a root span."""
        self._op = index
        return self.span("bench.op", fn, args, {})

    # ------------------------------------------------------------ wrappers
    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _spanned(self, name, fn):
        span = self.span

        def wrapper(*args, **kwargs):
            return span(name, fn, args, kwargs)
        return wrapper

    def _root_solver(self, site, fn):
        name = f"numerics.find_root_bracketed@{site}"
        counts, span = self.counts, self.span
        site_evals = f"root_evals@{site}"

        def wrapper(f, lo, hi, cfg=None):
            evals = [0]

            def counted(x):
                evals[0] += 1
                return f(x)
            try:
                return span(name, fn, (counted, lo, hi, cfg), {})
            finally:
                counts["root_evals"] += evals[0]
                counts[site_evals] += evals[0]
        return wrapper

    def _newton(self, site, fn):
        name = f"numerics.newton2d@{site}"
        counts, span = self.counts, self.span

        def wrapper(F, J, x0, cfg=None):
            evals = [0, 0]

            def resid(x):
                evals[0] += 1
                return F(x)

            def jac(x):
                evals[1] += 1
                return J(x)
            try:
                return span(name, fn, (resid, jac, x0, cfg), {})
            except Exception:
                counts["newton_rejected"] += 1
                raise
            finally:
                counts["newton_iters"] += evals[1]
                # each iteration tries one full step; further residual evaluations are halvings
                counts["newton_halvings"] += max(evals[0] - 1 - evals[1], 0)
        return wrapper

    def _emit_csv(self, fn):
        counts, span = self.counts, self.span

        def wrapper(series, path):
            out = span("cli.emit_csv@cli", fn, (series, path), {})
            counts["csv_bytes"] += os.path.getsize(path)
            return out
        return wrapper

    def install(self):
        from dryout import cli, eos, interface, saturation, stefan

        modules = {"cli": cli, "interface": interface, "saturation": saturation,
                   "stefan": stefan}
        for site, attr, layer in SPANNED:
            module = modules[site]
            self._replace(module, attr, self._spanned(f"{layer}.{attr}@{site}",
                                                      getattr(module, attr)))
        self._replace(cli, "emit_csv", self._emit_csv(cli.emit_csv))
        for site in ROOT_SITES:
            module = modules[site]
            self._replace(module, "find_root_bracketed",
                          self._root_solver(site, module.find_root_bracketed))
        for site in NEWTON_SITES:
            module = modules[site]
            self._replace(module, "newton2d", self._newton(site, module.newton2d))
        counter = self.eos_calls
        for attr, value in list(vars(eos.EosModel).items()):
            if attr.startswith("_") or not callable(value):
                continue

            def counted(*args, _fn=value):
                counter[0] += 1
                return _fn(*args)
            self._replace(eos.EosModel, attr, counted)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def snapshot(self):
        """Copy of the counts, to difference against a later one."""
        return Counter(self.counts, eos_calls=self.eos_calls[0])

    def write(self, path):
        """Write every span as gzip-compressed JSON."""
        doc = {
            "names": self.names,
            "columns": ["name", "op", "parent", "start_ns", "end_ns"],
            "spans": [list(row) for row in zip(*self.spans)],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class Sampler:
    """Statistical profile by layer: one stack sample per millisecond of CPU time."""

    INTERVAL_S = 0.001

    def __init__(self):
        from dryout import cli, eos, interface, numerics, saturation, stefan

        self.layer_of = {m.__file__: m.__name__.rsplit(".", 1)[1]
                         for m in (cli, eos, interface, numerics, saturation, stefan)}
        self.self_samples = Counter()
        self.incl_samples = Counter()
        self._previous = None

    def _sample(self, signum, frame):
        innermost, seen = None, set()
        while frame is not None:
            code = frame.f_code
            layer = self.layer_of.get(code.co_filename)
            if layer is not None:
                innermost = innermost or layer
                key = INCLUSIVE.get((layer, code.co_name))
                if key:
                    seen.add(key)
            frame = frame.f_back
        if innermost is None:
            return
        self.self_samples[innermost] += 1
        if "sign_changes" in seen and "diagnostics" in seen:
            seen.discard("sign_changes")   # charged to the report's diagnostics instead
        self.incl_samples.update(seen)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False


def layer_metrics(sampler, ms_per_op, before, after, n_counted):
    """Per-operation layer metrics.

    Times come from the sampler (``ms_per_op`` is the mean untraced operation
    time it sampled); counts are the difference of two ``Tracer`` snapshots
    around ``n_counted`` traced operations.
    """
    counts = after - before
    per_op = lambda key: counts[key] / n_counted
    total = sum(sampler.self_samples.values()) or 1
    self_ms = lambda layer: ms_per_op * sampler.self_samples[layer] / total
    incl_ms = lambda key: ms_per_op * sampler.incl_samples[key] / total
    maxwell_calls = sum(v for k, v in counts.items()
                        if k.startswith("saturation.maxwell_construction@")) / n_counted
    m = {
        "eos.calls": per_op("eos_calls"),
        "numerics.root_solves": sum(v for k, v in counts.items()
                                    if k.startswith("numerics.find_root_bracketed@")) / n_counted,
        "numerics.root_evals": per_op("root_evals"),
        "numerics.newton_solves": sum(v for k, v in counts.items()
                                      if k.startswith("numerics.newton2d@")) / n_counted,
        "numerics.newton_iters": per_op("newton_iters"),
        "numerics.newton_halvings": per_op("newton_halvings"),
        "numerics.newton_rejected": per_op("newton_rejected"),
        "saturation.maxwell_calls": maxwell_calls,
        "saturation.maxwell_ms": incl_ms("maxwell") / maxwell_calls if maxwell_calls else 0.0,
        "saturation.boiling_ms": incl_ms("boiling"),
        "saturation.self_ms": self_ms("saturation"),
        "interface.solve_ms": incl_ms("solve_interface"),
        "interface.self_ms": self_ms("interface"),
        "interface.steps": per_op("numerics.newton2d@interface"),
        "interface.sign_changes_ms": incl_ms("sign_changes"),
        "stefan.solve_ms": incl_ms("solve_stationary"),
        "stefan.root_evals": per_op("root_evals@stefan"),
        "cli.parse_ms": incl_ms("parse"),
        "cli.self_ms": self_ms("cli"),
        "cli.diagnostics_ms": incl_ms("diagnostics"),
        "cli.csv_bytes": per_op("csv_bytes"),
    }
    for layer in LAYERS:
        m[f"{layer}.share_pct"] = 100.0 * sampler.self_samples[layer] / total
    return m
