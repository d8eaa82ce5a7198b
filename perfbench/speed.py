"""Machine-speed calibration for the timed metrics.

On a shared 2-core VM the same code runs at times up to about 2x slower
than at others.  The speed swings within a tenth of a second and drifts
over minutes, set by other tenants.  No steal time shows and CPU time
tracks wall time, so the core itself is slower, and averaging within a
run cannot remove drifts that last longer than the run.

A fixed probe, run between the workload's jobs, measures the current
speed.  The slow state does not slow all code alike, so the probe has two
classes, and a workload names the class of each job kind:

- "calls": Python calls and objects, and numpy calls on tiny arrays, where
  call overhead dominates.  Jobs made of many small steps slow down about
  as much as this class.
- "arrays": a strided numpy pass over a 32 MiB array, beyond L2, so every
  access goes to L3.  Jobs whose time goes to transforms and enumerations
  over large arrays slow down about as much as this class, and about half
  as much as "calls".

`factors()` gives, per class, the geometric mean over its parts of
reference time / measured time: 1 on a machine as fast as the reference,
below 1 when slower.  A job's wall time times its class's factor around it
is its time on the reference machine.
"""

from __future__ import annotations

import math
import time

import numpy as np

_TINY = np.arange(64, dtype=np.int64)
_LARGE = np.arange(1 << 22, dtype=np.uint64)  # 32 MiB: 8x L2, within L3


def _objects() -> int:
    def pair(a, b):
        return a ^ b, a & b

    seen = {}
    for i in range(3000):
        key = pair(i, i >> 3)
        seen[key] = seen.get(key, 0) + len(str(i))
    return len(seen)


def _dispatch() -> int:
    acc = 0
    for i in range(150):
        y = _TINY ^ (i & 63)
        acc += np.flatnonzero(y > 32).size + bool(y[::2].any())
    return acc


def _memory() -> int:
    # one 8-byte load per 512 bytes: bound by L3 latency, not arithmetic
    return int(_LARGE[::64].sum() + _LARGE[5::128].sum())


# (part, seconds it took on the reference machine: a 2-core shared VM in
# its fast state).  Any fixed values work; these keep scaled times close to
# that machine's wall times.
CLASSES = {
    "calls": ((_objects, 1.1e-3), (_dispatch, 0.8e-3)),
    "arrays": ((_memory, 1.6e-3),),
}


def factors(repeats: int = 1) -> dict[str, float]:
    """Per class, the mean over `repeats` probes of its factor."""
    total = dict.fromkeys(CLASSES, 0.0)
    for _ in range(repeats):
        for name, parts in CLASSES.items():
            log_ratio = 0.0
            for part, ref in parts:
                t0 = time.perf_counter()
                part()
                log_ratio += math.log(ref / (time.perf_counter() - t0))
            total[name] += math.exp(log_ratio / len(parts))
    return {name: t / repeats for name, t in total.items()}
