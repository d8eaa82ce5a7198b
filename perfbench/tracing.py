"""Span tracing for the traced benchmark run.

Only the traced run imports this module.  `Tracer.install` replaces each
traced library function, under every name a balset module bound it to (for
example `balset.balancing.span_array` and `balset.ensemble.q_exact`), with a
wrapper that records a span: name, start, end, parent span and operation id,
plus work counts taken from the call's arguments or result.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from statistics import median

from stats import tail

MODULES = ("gf2", "balancing", "constructions", "ensemble", "codec", "reduction", "cli")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# (module, function, counts taken from (args, kwargs, result))
TRACED = (
    ("gf2", "span_array", lambda a, k, r: {"words": r.size}),
    ("gf2", "bulk_syndromes", lambda a, k, r: {"words": _arg(a, k, 1, "words").size}),
    ("balancing", "fwht_inplace", lambda a, k, r: {"elements": _arg(a, k, 0, "a").size}),
    ("balancing", "q_exact", lambda a, k, r: {f"calls.{r.method}": 1}),
    ("balancing", "uncovered_mask", None),
    ("constructions", "figure1_fixture", None),
    ("constructions", "greedy_balancing", lambda a, k, r: {"steps": len(r.trace) - 1}),
    ("ensemble", "estimate_balancing_probability", None),
    ("ensemble", "lemma1_identity_check", None),
    ("ensemble", "sample_random_subspace", None),
    ("ensemble", "weight_concentration_check", None),
    ("codec", "load_codec", None),
    ("codec", "encode", None),
    ("codec", "decode", lambda a, k, r: {"translates": r.component_calls if r else 0}),
    ("reduction", "find_matching", None),
    (
        "reduction",
        "every_coset_has_balanced_word",
        lambda a, k, r: {f"calls.{_arg(a, k, 3, 'method', 'auto')}": 1},
    ),
    ("reduction", "verify_reduction", None),
    ("cli", "main", None),
)

# generator functions: one span per next(), so consumer work is not counted
TRACED_GENERATORS = (("gf2", "weight_words_chunks", "words"),)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, operation id, counts, error type]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._op = None
        self._ops = 0

    def _open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op, None, None])
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.spans[i][6] = type(exc).__name__
                raise
            finally:
                self._close(i)
            if counter is not None:
                self.spans[i][5] = counter(args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(i)
                self.spans[i][5] = {key: len(item)}
                yield item

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span, such as one job or the set-up."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap_op(self, run):
        """Wrap a workload's `run`: each job gets a fresh operation id and a
        root span named after its kind."""

        def traced(job):
            self._op = self._ops
            self._ops += 1
            try:
                with self.span(f"bench.{job[0]}"):
                    return run(job)
            finally:
                self._op = None

        return traced

    def install(self, package) -> None:
        modules = [package] + [getattr(package, m) for m in MODULES]
        plans = [(m, f, self.wrap, c) for m, f, c in TRACED]
        plans += [(m, f, self.wrap_generator, key) for m, f, key in TRACED_GENERATORS]
        for mod_name, fn_name, make, extra in plans:
            original = getattr(getattr(package, mod_name), fn_name)
            wrapper = make(original, f"{mod_name}.{fn_name}", extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, op, counts, error in self.spans:
                rec = {"name": name, "start": start - t0, "end": end - t0,
                       "parent": parent, "op": op}
                if counts:
                    rec["counts"] = counts
                if error:
                    rec["error"] = error
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s, self_s, refused and summed counts for every span
        name; self time is duration minus the union of the children's spans."""
        children = defaultdict(list)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: Counter = Counter()
        durations = defaultdict(list)
        for i, (name, start, end, parent, op, counts, error) in enumerate(self.spans):
            dur = end - start
            durations[name].append(dur)
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += dur
            out[f"{name}.self_s"] += dur - _covered(children[i])
            if error == "CapExceededError":
                out[f"{name}.refused"] += 1
            for key, value in (counts or {}).items():
                out[f"{name}.{key}"] += value
        decodes = out["codec.decode.calls"]
        out["codec.decode.translates_per_word"] = (
            out["codec.decode.translates"] / decodes if decodes else 0.0
        )
        for name in ("codec.encode", "codec.decode"):
            if durations[name]:
                out[f"{name}.p50_us"] = median(durations[name]) * 1e6
        if durations["codec.decode"]:
            out["codec.decode.tail_us"] = tail(durations["codec.decode"])[0] * 1e6
        return dict(out)


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total

