"""Regenerate refs.json, the stored references of the default seeds.

    python3 perfbench/make_refs.py [--workload NAME] [SEED ...]

Run from the root of a checkout; without seeds it stores seeds 0-10, and
without --workload every workload that stores references.
Each reference comes from the workload's independent exact method (see
workloads.py).  A seed is stored only if one pass of the workload agrees
with every one of its references.  Workloads whose references are cheap
to compute (codec_stream) are not stored.  Rerun this whenever a workload's
job list changes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run

DEFAULT_SEEDS = range(11)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="regenerate refs.json")
    parser.add_argument("--workload", default=None)
    parser.add_argument("seeds", type=int, nargs="*")
    args = parser.parse_args(argv)
    seeds = args.seeds or list(DEFAULT_SEEDS)
    run.import_balset(Path.cwd())
    import workloads

    path = run.HERE / "refs.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for name, cls in workloads.WORKLOADS.items():
        if not cls.stores_refs or args.workload not in (None, name):
            continue
        for seed in seeds:
            out = run.run_workload(name, seed, 0, False)
            if out["result"]["failed"]:
                print(f"{name} seed {seed}: {out['result']['failed']} answers disagree; not stored")
                return 1
            table.setdefault(name, {})[str(seed)] = out["refs"]
            print(f"{name} seed {seed}: {len(out['refs'])} references", flush=True)
            path.write_text(json.dumps(table, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
