"""Randomized-ensemble experiments over uniformly sampled generator rows.

Covers Monte-Carlo estimation of the probability that a random row list
spans a (lam-almost-)balancing set, the exact shift-averaging identity
mean_x Q(C + Fx) = Q(C)^2 verified in rational arithmetic, and the
weight-concentration experiment for small sampled subspaces.

Every trial draws its randomness from a counter-based philox4x64 stream
keyed by (master_seed, trial_index), both in the int64 range, so runs are
reproducible and trials can execute in any order or in parallel.  The
Monte-Carlo trials reuse one generator per thread, reset to each key.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gf2 import LinearCode, Word, check_budget
from .balancing import (
    BalanceSpec,
    _with_ones,
    coset_counts,
    q_exact,
    serial_transforms,
    shift_overlaps,
)

__all__ = [
    "ConcentrationReport",
    "EnsembleConfig",
    "EnsembleReport",
    "estimate_balancing_probability",
    "lemma1_identity_check",
    "sample_random_subspace",
    "trial_rng",
    "weight_concentration_check",
    "wilson_interval",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class EnsembleConfig:
    n: int
    rows: int
    lam: int = 0
    trials: int = 1
    master_seed: int = 0
    fixed_prefix: LinearCode | None = None

    def __post_init__(self) -> None:
        BalanceSpec(self.n, self.lam)
        if self.rows < 0:
            raise ValueError(f"rows must be >= 0, got {self.rows}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        _check_key(self.master_seed)
        if self.fixed_prefix is not None and self.fixed_prefix.n != self.n:
            raise ValueError("fixed_prefix length mismatch")


@dataclass(frozen=True)
class EnsembleReport:
    config: EnsembleConfig
    successes: int
    fraction: Fraction
    wilson_ci_95: tuple[float, float]
    outcomes: tuple[bool, ...] = field(repr=False)

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "n": cfg.n,
            "rows": cfg.rows,
            "lambda": cfg.lam,
            "trials": cfg.trials,
            "master_seed": cfg.master_seed,
            "successes": self.successes,
            "fraction": float(self.fraction),
            "ci_lo": self.wilson_ci_95[0],
            "ci_hi": self.wilson_ci_95[1],
        }


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval; always contains successes/trials."""
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError(f"bad counts: {successes}/{trials}")
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    # at the boundaries center - half is 0 (resp. center + half is 1)
    # analytically; pin them so the interval always contains p
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _check_key(*parts: int) -> None:
    """Refuse a philox key part outside [-2^63, 2^63).  Philox reads each
    part as an int64 reinterpreted as uint64, so -1 and 2^64 - 1 would be
    one key, and numpy passes a larger part through float64, where
    neighbouring keys collide."""
    for part in parts:
        if not -(1 << 63) <= part < 1 << 63:
            raise ValueError(f"philox key part {part} outside [-2^63, 2^63)")


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """The philox4x64 stream for one trial; streams never overlap across
    distinct (master_seed, trial) keys, each in the int64 range."""
    _check_key(master_seed, trial)
    return np.random.Generator(np.random.Philox(key=[master_seed, trial]))


_local = threading.local()
_U64 = (1 << 64) - 1


def _trial_stream(master_seed: int, trial: int) -> np.random.Generator:
    """trial_rng(master_seed, trial), drawn from this thread's one Philox
    generator: its whole state is set to that of a fresh stream with this
    key (counter 0, nothing buffered), which costs a fraction of building
    a new bit generator."""
    _check_key(master_seed, trial)
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.Philox())
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (master_seed & _U64, trial & _U64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _uniform_words(n: int, count: int, rng: np.random.Generator) -> list[int]:
    """`count` words iid uniform over F_2^n, drawn as one block of uint32.

    Row i is the little-endian value of its ceil(nbytes / 4) draws, nbytes
    = ceil(n / 8), masked to n bits.  Generator.bytes(nbytes) draws that
    many uint32 and keeps their first nbytes little-endian bytes, and philox
    hands out its uint32 halves in order across calls, so the rows and the
    stream position after them are those of one bytes call per row.
    """
    draws = -(-((n + 7) // 8) // 4)  # uint32 draws a row
    raw = rng.integers(0, 1 << 32, size=count * draws, dtype=np.uint32)
    raw = raw.astype("<u4", copy=False).tobytes()
    step, mask = 4 * draws, (1 << n) - 1
    return [
        int.from_bytes(raw[i * step : (i + 1) * step], "little") & mask
        for i in range(count)
    ]


def _uniform_word(n: int, rng: np.random.Generator) -> int:
    return _uniform_words(n, 1, rng)[0]


def sample_random_subspace(
    n: int,
    rows: int,
    rng: np.random.Generator,
    fixed_prefix: LinearCode | None = None,
) -> LinearCode:
    """`rows` words iid uniform over F_2^n, kept as drawn (dependent rows
    permitted, so rank may be below the row count); an optional prefix
    code's basis is prepended before sampling."""
    if rows < 0:
        raise ValueError(f"rows must be >= 0, got {rows}")
    prefix = fixed_prefix.basis if fixed_prefix is not None else ()
    sampled = tuple(Word(n, w) for w in _uniform_words(n, rows, rng))
    return LinearCode(n, prefix + sampled)


def _run_trial(config: EnsembleConfig, spec: BalanceSpec, trial: int) -> bool:
    rng = _trial_stream(config.master_seed, trial)
    code = sample_random_subspace(config.n, config.rows, rng, config.fixed_prefix)
    return q_exact(code, spec).uncovered_count == 0


def estimate_balancing_probability(
    config: EnsembleConfig, threads: int = 1
) -> EnsembleReport:
    """Fraction of sampled row lists whose span covers everything, with a
    Wilson 95% interval.  Deterministic for a fixed config regardless of
    thread count (per-trial streams, order-independent aggregation).  With
    threads > 1 the trials share the cores, so each trial's transform runs
    on its own trial's thread (serial_transforms)."""
    spec = BalanceSpec(config.n, config.lam)
    trials = range(config.trials)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads, initializer=serial_transforms) as pool:
            outcomes = tuple(pool.map(lambda t: _run_trial(config, spec, t), trials))
    else:
        outcomes = tuple(_run_trial(config, spec, t) for t in trials)
    successes = sum(outcomes)
    return EnsembleReport(
        config,
        successes,
        Fraction(successes, config.trials),
        wilson_interval(successes, config.trials),
        outcomes,
    )


def lemma1_identity_check(
    code: LinearCode, spec: BalanceSpec
) -> tuple[Fraction, Fraction, bool]:
    """Exact check of mean_x Q(C + Fx) = Q(C)^2 over all 2^n shifts x.

    Runs in the syndrome space of C + <1>, 1 the all-ones word, which
    leaves the same words uncovered as C (balancing._with_ones gives its
    r' dual rows and dimension k', for 1 in C or not).  With S' its empty
    cosets (those holding no band word), the uncovered words of C + Fx
    number |U . (U + x)| = 2^k' |S' . (S' + s)|, s the syndrome of x, and
    each of the 2^r' syndromes is the syndrome of 2^k' shifts.
    shift_overlaps counts each overlap directly, not through the identity
    under test, so the left side is sum_s |S' . (S' + s)| * 4^k' / 4^n.
    That is 2^r' shifts of ceil(2^r' / 64) packed words each, budgeted
    before the transform runs.
    """
    n = spec.n
    if code.n != n:
        raise ValueError(f"code length {code.n} != spec length {spec.n}")
    rows, k = _with_ones(code)
    r = len(rows)
    check_budget("lemma1_identity_check", (1 << r) * -(-(1 << r) // 64))
    empty = coset_counts(spec, rows) == 0
    unc = int(np.count_nonzero(empty)) << k
    rhs = Fraction(unc, 1 << n) ** 2
    if unc == 0:
        return Fraction(0), rhs, rhs == 0
    total = int(shift_overlaps(empty, np.arange(empty.size)).sum())
    lhs = Fraction(total << (2 * k), 1 << (2 * n))
    return lhs, rhs, lhs == rhs


@dataclass(frozen=True)
class ConcentrationReport:
    """Per-trial weight-concentration outcomes for small random subspaces.

    A trial samples ell = ceil(log2(n)/2) generator rows (minus any fixed
    prefix rank) and records whether every nonzero codeword x satisfies
    |w(x) - n/2| <= delta*n (event E), plus the exact uncovered count.
    """

    n: int
    ell: int
    delta: Fraction
    trials: int
    master_seed: int
    e_holds: tuple[bool, ...] = field(repr=False)
    uncovered: tuple[int, ...] = field(repr=False)

    @property
    def freq_e(self) -> Fraction:
        return Fraction(sum(self.e_holds), self.trials)

    @property
    def freq_q_above_3_4(self) -> Fraction:
        hits = sum(4 * u > 3 * (1 << self.n) for u in self.uncovered)
        return Fraction(hits, self.trials)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ell": self.ell,
            "delta_num": self.delta.numerator,
            "delta_den": self.delta.denominator,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "freq_E": float(self.freq_e),
            "freq_q_above_3_4": float(self.freq_q_above_3_4),
        }


def weight_concentration_check(
    n: int,
    delta: Fraction,
    trials: int,
    seed: int,
    fixed_prefix: LinearCode | None = None,
) -> ConcentrationReport:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    spec = BalanceSpec(n, 0)
    delta = Fraction(delta)
    # ell = ceil(log2(n) / 2), exactly: smallest ell with 4^ell >= n
    ell = 0
    while 1 << (2 * ell) < n:
        ell += 1
    prefix_k = fixed_prefix.k if fixed_prefix is not None else 0
    draw = max(0, ell - prefix_k)
    e_holds: list[bool] = []
    uncovered: list[int] = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        code = sample_random_subspace(n, draw, rng, fixed_prefix)
        ok = all(
            abs(2 * w.weight() - n) * delta.denominator <= 2 * delta.numerator * n
            for w in _nonzero_span(code)
        )
        e_holds.append(ok)
        uncovered.append(q_exact(code, spec).uncovered_count)
    return ConcentrationReport(
        n, ell, delta, trials, seed, tuple(e_holds), tuple(uncovered)
    )


def _nonzero_span(code: LinearCode):
    from .gf2 import enumerate_span

    it = enumerate_span(code)
    next(it)  # the zero word
    return it
