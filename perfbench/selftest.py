"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload, a tiny job list must pass its answer checks untraced
and traced, and a deliberately wrong reference must drive fail_frac above
0.  Every per-layer metric must be nonzero on at least one workload, so a
misspelt metric name cannot hide as a constant 0.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import run

# `auto` never picks sphere_mark, and no job is refused when the library is right
ZERO_BY_DESIGN = {"balancing.q_exact.calls.sphere_mark", "balancing.q_exact.refused"}


def corrupt(value):
    """A wrong value of the same shape as `value`."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "1"
    if isinstance(value, list):
        return [corrupt(value[0])] + value[1:] if value else [0]
    if isinstance(value, dict):
        key = sorted(value)[0]
        return {**value, key: corrupt(value[key])}
    return 0


def main() -> int:
    root = Path.cwd()
    run.import_balset(root)
    import workloads

    errors = []
    layer_seen = {}
    for name in workloads.WORKLOADS:
        t0 = time.perf_counter()
        plain = run.run_workload(name, 1, 0, False, tiny=True)
        traced = run.run_workload(name, 1, 0, True, tiny=True)
        for label, out in (("untraced", plain), ("traced", traced)):
            res = out["result"]
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                errors.append(f"{name} {label}: {res['failed']} of {res['attempted']} failed")
        for key, m in traced["result"]["metrics"].items():
            if m["value"]:
                layer_seen[key] = name
        refs = plain["refs"]
        bad = corrupt(refs[0])
        if bad == refs[0]:
            errors.append(f"{name}: could not corrupt reference {refs[0]!r}")
        wrong = run.run_workload(name, 1, 0, False, tiny=True, refs=[bad] + refs[1:])
        if wrong["extra"]["fail_frac"] <= 0:
            errors.append(f"{name}: a wrong reference left fail_frac at 0")
        print(f"{name}: ok in {time.perf_counter() - t0:.1f} s, wrong reference gives "
              f"fail_frac {wrong['extra']['fail_frac']:.3f}")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for m in spec["per_layer"]:
        if m["name"] not in layer_seen and m["name"] not in ZERO_BY_DESIGN:
            errors.append(f"per-layer metric {m['name']} is 0 on every workload")
    for e in errors:
        print("FAIL", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
