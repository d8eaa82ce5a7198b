"""Run one balset benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact_check --seed 1 --seconds 30 --trace 0

The benchmark imports balset from ./src of the checkout and nothing else.
One run is one client in one process: jobs are issued one after another,
each after the previous one returned.  During set-up, five short-lived
interpreters, run one at a time, time the cold import of balset.  The job
list (a "pass") is fixed by the seed; passes repeat until --seconds would
be exceeded, at least once.

--trace 0 measures the end-to-end metrics listed in BENCHMARK.json.  The
timed phase's times are scaled to a reference machine speed by probes run
between jobs (speed.py); the wall times are printed beside them.
--trace 1 runs one untraced pass, then installs the span wrappers and runs
one traced pass; it reports the per-layer metrics.

Every answer is checked after the timed phase against a reference from an
exact method other than the one the library picked: stored in refs.json for
the seeds listed there, computed (outside every metric) for other seeds.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Spans and a run stamp are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path
from statistics import fmean, median

import speed
from stats import pass_mean, tail

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# a speed probe (speed.py, ~4 ms) follows any job that ends 0.1 s or more
# after the last probe, repeated once per 0.1 s elapsed, up to 10 times:
# the speed swings within a tenth of a second, so a long job needs more
# probes around it to estimate the speed it ran at
PROBE_EVERY_S = 0.1
PROBE_MAX_REPEATS = 10
PROBE_SMOOTHING = 2
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import balset; print(time.perf_counter() - t)"
)


class Failure:
    """A job that raised or was refused instead of answering."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"
        self.trace = traceback.format_exc()


def import_balset(root: Path):
    """Import balset from the checkout's src/ and refuse any other copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import balset

    if Path(balset.__file__).resolve().parent != (src / "balset").resolve():
        raise ImportError(f"balset resolved to {balset.__file__}, not under {src}")
    return balset


class Timed:
    """What one timed phase leaves: pass wall times, per-pass job latencies
    (wall, and scaled to the reference machine by `speed.factors()` probes
    taken between jobs), the first pass's answers, and (job index, answer)
    for every later execution that answered differently from the first (a
    Failure never matches).  Repeated answers are not kept, so memory does
    not grow with the passes."""

    def __init__(self):
        self.passes: list[float] = []
        self.latencies: list[array] = []
        self.scaled: list[array] = []
        self.first: list = []
        self.other: list[tuple[int, object]] = []


def import_seconds(root: Path) -> float:
    """Median over SETUP_REPEATS fresh interpreters of importing balset."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=root, capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(probe.stdout))
    return median(times)


def timed_passes(run, jobs, seconds: float, classes: list[str]) -> Timed:
    """Issue the jobs in order, pass after pass, while another pass fits in
    `seconds`; always at least one pass.  Speed probes run before the
    first job, after the last, and after jobs as PROBE_EVERY_S says; a
    job's scaled latency is its wall latency times the mean smoothed
    factor, for the job's probe class (`classes[i]`), of the probes on
    either side of it.  Probe time counts in no metric."""
    from balset import balancing

    timed = Timed()
    probes = [speed.factors(3)]
    segments = []  # per pass: the index of the probe before each job
    last_probe = start = time.perf_counter()
    while True:
        # every pass starts cold, as a fresh `balset` process would
        balancing.thick_sphere_words.cache_clear()
        t_pass = time.perf_counter()
        lat, seg, probe_s = array("d"), array("l"), 0.0
        for i, job in enumerate(jobs):
            t0 = time.perf_counter()
            try:
                answer = run(job)
            except Exception as exc:  # counted as failed, the run goes on
                answer = Failure(exc)
            t1 = time.perf_counter()
            lat.append(t1 - t0)
            seg.append(len(probes) - 1)
            if not timed.passes:
                timed.first.append(answer)
            elif isinstance(answer, Failure) or answer != timed.first[i]:
                timed.other.append((i, answer))
            if t1 - last_probe >= PROBE_EVERY_S:
                repeats = min(int((t1 - last_probe) / PROBE_EVERY_S), PROBE_MAX_REPEATS)
                probes.append(speed.factors(repeats))
                last_probe = time.perf_counter()
                probe_s += last_probe - t1
        timed.passes.append(time.perf_counter() - t_pass - probe_s)
        timed.latencies.append(lat)
        segments.append(seg)
        if time.perf_counter() - start + median(timed.passes) > seconds:
            break
    probes.append(speed.factors(3))
    smooth = {c: _smoothed([p[c] for p in probes]) for c in set(classes)}
    for lat, seg in zip(timed.latencies, segments):
        timed.scaled.append(array("d", (
            x * (smooth[c][s] + smooth[c][s + 1]) / 2 for x, s, c in zip(lat, seg, classes)
        )))
    return timed


def _smoothed(factors: list[float]) -> list[float]:
    """Each probe's factor averaged with up to PROBE_SMOOTHING probes on
    either side: one probe sees a few ms of a speed that swings within a
    tenth of a second, and a job of seconds runs through many swings."""
    k = PROBE_SMOOTHING
    return [fmean(factors[max(i - k, 0) : i + k + 1]) for i in range(len(factors))]


def _canon(value):
    return json.loads(json.dumps(value))


def stored_refs(name: str, seed: int):
    path = HERE / "refs.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(name, {}).get(str(seed))


def compute_refs(wl, jobs, timed: Timed) -> list:
    """References for every job, from the workload's independent method;
    a job whose first answer failed uses its first later answer, if any."""
    answers = list(timed.first)
    for i, answer in reversed(timed.other):
        if isinstance(answers[i], Failure):
            answers[i] = answer
    refs = []
    for i, (job, answer) in enumerate(zip(jobs, answers)):
        try:
            refs.append(None if isinstance(answer, Failure) else wl.reference(job, _canon(answer)))
        except Exception as exc:  # a broken reference fails its job, not the run
            refs.append(None)
            print(f"reference for job {i} raised {Failure(exc).text}", file=sys.stderr)
    return _canon(refs)


def _passes_check(wl, job, answer, ref) -> bool:
    if isinstance(answer, Failure):
        return False
    try:
        return wl.check(job, _canon(answer), ref)
    except Exception:  # a check that raises fails its job
        return False


def count_failed(wl, jobs, timed: Timed, refs) -> int:
    """Failed job executions.  An execution that repeated the first answer
    shares its verdict; every other one is checked on its own."""
    if len(refs) != len(jobs):
        raise ValueError(f"{len(refs)} references for {len(jobs)} jobs; regenerate refs.json")
    repeats = [len(timed.passes) - 1] * len(jobs)
    for i, _ in timed.other:
        repeats[i] -= 1
    runs = [(i, a, 1 + repeats[i]) for i, a in enumerate(timed.first)]
    runs += [(i, a, 1) for i, a in timed.other]
    failed = shown = 0
    for i, answer, count in runs:
        if _passes_check(wl, jobs[i], answer, refs[i]):
            continue
        failed += count
        shown += 1
        if shown <= 5:
            if isinstance(answer, Failure):
                reason = answer.text + "\n" + answer.trace
            else:
                reason = f"answer {_canon(answer)!r}, reference {refs[i]!r}"
            print(f"job {i} {jobs[i][0]} failed ({count} executions): {reason}", file=sys.stderr)
    return failed


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(name, seed, seconds, trace, *, tiny=False, refs=None):
    """One workload run; returns the result object plus run details.  With
    refs=None the references are computed after the timed phase."""
    import numpy as np

    import balset
    import workloads

    root = Path.cwd()
    out_dir = root / ".bench_out"
    wl = workloads.WORKLOADS[name](seed, out_dir / f"{name}-s{seed}", tiny)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    classes = [wl.probe_class(job) for job in jobs]

    spec = json.loads((root / "BENCHMARK.json").read_text())
    if trace:
        phases = [timed_passes(wl.run, jobs, 0, classes)]
        import tracing

        tracer = tracing.Tracer()
        tracer.install(balset)
        try:
            with tracer.span("bench.setup"):
                jobs = wl.setup()
            phases.append(timed_passes(tracer.wrap_op(wl.run), jobs, 0, classes))
            # the pass began with cache_clear(), which also zeroes these counts
            cache = balset.balancing.thick_sphere_words.cache_info()
        finally:
            tracer.uninstall()
        layer = tracer.layer_metrics()
        calls = cache.hits + cache.misses
        layer["balancing.thick_sphere_words.hit_ratio"] = cache.hits / calls if calls else 0.0
        layer["trace.overhead_s"] = phases[1].passes[0] - phases[0].passes[0]
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}-s{seed}.jsonl")
        metrics = {
            m["name"]: {"value": layer.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        extra = {}
    else:
        import_s = import_seconds(root)
        setup_s = import_s + median(setup_times)
        timed = timed_passes(wl.run, jobs, seconds, classes)
        phases = [timed]
        run_s = fmean(sum(lat) for lat in timed.scaled)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "ops_per_s": len(jobs) / run_s,
            "op_p50_ms": pass_mean(median, timed.scaled) * 1e3,
            "op_tail_ms": pass_mean(lambda lat: tail(lat)[0], timed.scaled) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
        extra = {
            "op_tail_samples_per_pass": len(jobs),
            "op_tail_beyond_per_pass": tail(timed.latencies[0])[1],
            "setup_import_s": import_s,
            "wall_run_s": fmean(timed.passes),
            "wall_op_p50_ms": pass_mean(median, timed.latencies) * 1e3,
            "speed_factor": run_s / fmean(sum(lat) for lat in timed.latencies),
        }
        if hasattr(wl, "figures"):
            extra.update(wl.figures(len(jobs)))

    if refs is None:
        refs = compute_refs(wl, jobs, phases[0])
    failed = sum(count_failed(wl, jobs, t, refs) for t in phases)
    passes = sum(len(t.passes) for t in phases)
    attempted = passes * len(jobs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    stamp = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "BALSET_THREADS": os.environ.get("BALSET_THREADS"),
        "passes": passes,
        "op_counts": {k: v * passes for k, v in Counter(job[0] for job in jobs).items()},
    }
    extra["fail_frac"] = failed / attempted
    return {"result": result, "stamp": stamp, "extra": extra, "refs": refs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 32:
        parser.error("--seed must be in [0, 2^32)")
    root = Path.cwd()
    if not (root / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json in {root}", file=sys.stderr)
        return 2
    try:
        import_balset(root)
    except ImportError as exc:
        print(f"cannot import balset from {root / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       refs=stored_refs(args.workload, args.seed))

    stamp, extra, result = out["stamp"], out["extra"], out["result"]
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"run-{args.workload}-s{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"stamp": stamp, "extra": extra, "result": result}, indent=1) + "\n")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    for key, m in result["metrics"].items():
        print(f"{key:48s} {m['value']:14.6g} {m['unit']}")
    for key, value in extra.items():
        print(f"{key:48s} {value:14.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
