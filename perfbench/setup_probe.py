"""Set-up probe, run in a fresh interpreter by ``run.py``.

Reads ``{"src": ..., "texts": [...]}`` from stdin, imports ``dryout`` and
``dryout.cli``, builds the model and parses every config text of the first
round, then prints ``ready <import milliseconds>``.  The parent times the
interval from starting this interpreter to that line.
"""

import json
import sys
import time

payload = json.loads(sys.stdin.read())
sys.path.insert(0, payload["src"])
t0 = time.perf_counter()
import dryout  # noqa: E402
import dryout.cli  # noqa: E402

import_ms = (time.perf_counter() - t0) * 1e3
model = dryout.reduced_van_der_waals()
configs = [dryout.cli.parse_config(text) for text in payload["texts"]]
print(f"ready {import_ms!r}", flush=True)
