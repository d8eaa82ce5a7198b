"""Exact balancedness machinery.

A word y is balanced when its Hamming weight is exactly n/2, and a set C
balances F_2^n when every y is at distance n/2 from some element of C.  The
relaxed version allows |d(y, x) - n/2| <= lam.  This module computes the
uncovered fraction

    Q(C) = |{y : no x in C has |d(y, x) - n/2| <= lam}| / 2^n

exactly, along with the binomial bounds on the balanced-sphere size and the
sphere-intersection and distance-pair counting formulas.

The count only depends on which cosets of C miss the band, so the engine
(`coset_counts`, the `wht` method, which `auto` always picks) works in the
2^(n-k) syndrome space: one Walsh-Hadamard transform of the band's
Krawtchouk spectrum over the dual code gives the number of band words in
every coset.  The band is closed under complement (weight w <-> n - w), so
y + c is in it exactly when y + c + 1 is, 1 the all-ones word: C and
C + <1> leave the same words uncovered.  `wht` therefore transforms the
cosets of C + <1>, a length of 2^(n-k-1) when 1 is not in C.  `naive`,
`sphere_mark` and `syndrome` stay as independent oracles over words.
Each method states its work and bytes up front and refuses through
gf2.check_budget before it allocates.

The transform (fwht_inplace) runs each block of FWHT_BLOCK values through
all its levels while the block and one block of scratch sit in a core's L2,
two ufunc calls a level; the levels across blocks then run on column
panels.  Transforms longer than one FWHT_BLOCK split their work over a
small thread pool (numpy releases the GIL in the array passes).
BALSET_THREADS is the library's one thread setting: unset or 0 means every
core this process may run on, and no value starts more threads than that.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .gf2 import (
    CapExceededError,
    LinearCode,
    bulk_syndromes,
    check_budget,
    check_packed,
    span_array,
    syndrome_tables,
    weight_words,
    weight_words_chunks,
    xor_span,
)

__all__ = [
    "BalanceSpec",
    "BinomialBounds",
    "CoverageProfile",
    "QReport",
    "binomial_exact",
    "bounds_check",
    "coset_counts",
    "coverage_profile",
    "fwht_inplace",
    "is_balancing_set",
    "pair_distance_count",
    "parse_threads",
    "q_exact",
    "serial_transforms",
    "shift_overlaps",
    "sphere_intersection_size",
    "thick_sphere_words",
    "thread_setting",
    "uncovered_mask",
]

Q_METHODS = ("naive", "sphere_mark", "wht", "syndrome")

WHT_LENGTH_CAP = 62      # 2^r * N_s <= 2^n stays exact in int64
FWHT_BLOCK = 1 << 17     # transform levels below this run block by block,
                         # each block and its scratch in one core's L2; and
                         # longer transforms split over threads
_SMALL = 1 << 13         # blocks up to this length run in constant geometry

# pi truncated to 37 decimal digits; the bracket width 1e-37 < 2^-120 gives
# the binomial bounds comparisons well over 80 bits of precision
_PI_LO = Fraction(31415926535897932384626433832795028841, 10**37)
_PI_HI = _PI_LO + Fraction(1, 10**37)


@dataclass(frozen=True)
class BalanceSpec:
    """Length and tolerance of a balancing check; lam=0 is exact balance."""

    n: int
    lam: int = 0

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2:
            raise ValueError(f"length must be even and >= 2, got {self.n}")
        if not 0 <= self.lam < self.n // 2:
            raise ValueError(f"tolerance {self.lam} out of range [0, {self.n // 2})")

    @property
    def band(self) -> tuple[int, int]:
        """Inclusive weight band [n/2 - lam, n/2 + lam] of covering distances."""
        return self.n // 2 - self.lam, self.n // 2 + self.lam


@dataclass(frozen=True)
class QReport:
    """Exact coverage-deficit report for one (code, spec) check."""

    n: int
    k: int
    lam: int
    uncovered_count: int
    method: str
    elapsed_ms: float

    @property
    def q(self) -> Fraction:
        return Fraction(self.uncovered_count, 1 << self.n)

    def to_json_dict(self) -> dict:
        q = self.q
        return {
            "n": self.n,
            "k": self.k,
            "lambda": self.lam,
            "uncovered": self.uncovered_count,
            "q_num": q.numerator,
            "q_den": q.denominator,
            "method": self.method,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass(frozen=True)
class CoverageProfile:
    """Histogram over y of how many codewords sit at covering distance."""

    n: int
    k: int
    lam: int
    histogram: tuple[int, ...]

    @property
    def uncovered_count(self) -> int:
        return self.histogram[0] if self.histogram else 0


def binomial_exact(n: int, k: int) -> int:
    if not 0 <= k <= n:
        raise ValueError(f"binomial arguments out of range: ({n}, {k})")
    return math.comb(n, k)


@dataclass(frozen=True)
class BinomialBounds:
    """Enclosure 2^n/sqrt(2n) <= C(n, n/2) <= 2^n/sqrt(pi*n/2).

    lower and upper are rational enclosure endpoints rounded toward the
    central value, so `lower <= value <= upper` is a rigorous verification
    of the true inequality.  `holds` is decided by exact cross-multiplied
    integer comparisons (the pi side uses a 123-bit rational bracket).
    """

    n: int
    lower: Fraction
    value: int
    upper: Fraction
    holds: bool


def bounds_check(n: int, precision_bits: int = 128) -> BinomialBounds:
    if n < 2 or n % 2:
        raise ValueError(f"length must be even and >= 2, got {n}")
    c = math.comb(n, n // 2)
    # lower: C >= 2^n/sqrt(2n)  <=>  C^2 * 2n >= 2^(2n), exactly
    lower_ok = c * c * 2 * n >= 1 << (2 * n)
    # upper: C <= 2^n/sqrt(pi*n/2)  <=  C^2 * n * PI_HI <= 2^(2n+1)
    upper_ok = c * c * n * _PI_HI.numerator <= _PI_HI.denominator << (2 * n + 1)

    p = precision_bits
    # isqrt enclosures scaled by 2^p, rounded toward c on both sides
    r_lo = math.isqrt(2 * n << (2 * p))
    lower = Fraction(1 << (n + p), r_lo)
    a_hi = -(-_PI_HI.numerator * n << (2 * p)) // (2 * _PI_HI.denominator)
    r_hi = math.isqrt(a_hi) + 1
    upper = Fraction(1 << (n + p), r_hi)
    return BinomialBounds(n, lower, c, upper, lower_ok and upper_ok)


def _cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parse_threads(raw: str | None, cores: int) -> int:
    """Threads for the BALSET_THREADS value `raw` on a `cores`-core machine.

    Unset (None) or 0 means all cores.  Any other value is clamped to
    [1, cores], so no setting ever starts more threads than cores.
    """
    if raw is None:
        return cores
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"BALSET_THREADS must be an integer, got {raw!r}") from exc
    return cores if value == 0 else min(max(1, value), cores)


def thread_setting() -> int:
    """The library's thread setting: BALSET_THREADS, read at each call."""
    return parse_threads(os.environ.get("BALSET_THREADS"), _cores())


_local = threading.local()
_pool = None  # the ThreadPoolExecutor of _fan_out, made on first use
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """In a forked child: the parent's pool threads do not exist there."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def serial_transforms() -> None:
    """Run every transform that the calling thread starts on that thread.

    A pool whose tasks already use the cores (the ensemble's trial pool)
    passes this as its initializer, so transform pools never nest in it.
    """
    _local.serial = True


def _transform_threads(size: int) -> int:
    """min(setting, size // FWHT_BLOCK): one thread up to one block, and
    in a thread marked by serial_transforms."""
    if size <= FWHT_BLOCK or getattr(_local, "serial", False):
        return 1
    return min(thread_setting(), size // FWHT_BLOCK)


def _in_order(fn, items) -> None:
    fn(0, items)


def _fan_out(threads: int):
    """fan(fn, items): split `items` into `threads` contiguous parts and call
    fn(i, part_i) for each, part 0 on this thread and the others on a pool
    of at most cores - 1 threads kept for the process (starting a thread
    costs a few percent of a 2^19 transform); with one thread, fn(0, items)
    here.  fn must write only part i's data and part i's buffers (row i of
    a scratch array, say).
    """
    if threads == 1:
        return _in_order
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max(1, _cores() - 1), "balset-fan")
        pool = _pool

    def fan(fn, items) -> None:
        size = len(items)
        parts = [items[i * size // threads : (i + 1) * size // threads] for i in range(threads)]
        others = [pool.submit(fn, i, part) for i, part in enumerate(parts) if i]
        try:
            fn(0, parts[0])
        finally:
            for future in others:
                future.result()

    return fan


def fwht_inplace(a: np.ndarray) -> None:
    """Unnormalized in-place Walsh-Hadamard transform (XOR kernel).

    Blocks of FWHT_BLOCK values run all their levels while in cache (see
    _fwht_block); the levels across blocks then run on column panels of the
    blocks, one panel (one block's worth of values) at a time.  Integer
    arrays wrap, so the result is exact whenever the true final values fit
    the dtype.

    A transform longer than one block splits over
    min(thread_setting(), size // FWHT_BLOCK) threads: the blocks, then the
    panels, are independent.  Up to one block, and in a thread marked by
    serial_transforms, it runs on the calling thread.  Either way the result
    is the same, bit for bit.  Scratch is one block per thread.
    """
    size = a.size
    if size < 1 or size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    if a.ndim != 1 or not a.flags.c_contiguous:
        # the kernel works through reshaped views, which would be copies
        raise ValueError("fwht_inplace needs a contiguous 1-D array")
    _transform(a)


def _transform(a: np.ndarray, fill=None, finish=None) -> None:
    """The transform of a: every block of FWHT_BLOCK values, then the
    levels across blocks, a panel of columns at a time.

    fill(view, start, spare), if given, writes the input of the block
    a[start : start + view.size] into view, with the index bits in
    _input_order, just before the block is transformed; spare is free
    scratch of view.size values.  Without fill, a holds its input in natural
    order.  finish(held, out) writes each finished piece into out, its place
    in a, from held, which holds its values and may be out itself (default:
    a copy).
    """
    size = a.size
    scratch = np.empty(_scratch_shape(size), dtype=a.dtype)  # one row per part
    threads, block = scratch.shape
    fan = _fan_out(threads)
    finish = finish or _copy_back

    def blocks(i, starts) -> None:
        for start in starts:
            x = a[start : start + block]
            if fill is not None:
                fill(x, start, scratch[i])
            _fwht_block(x, scratch[i], fill is not None)

    fan(blocks, range(0, size, block))
    if block == size:
        finish(a, a)
        return
    # a as (rows, block): the levels left butterfly the row bits, a panel of
    # columns at a time, alternating between the panel and the scratch row
    rows = size // block
    width = block // rows
    grid = a.reshape(rows, block)

    def panels(i, starts) -> None:
        spare = scratch[i].reshape(rows, width)
        with np.errstate():
            np.setbufsize(_run_buffer(width))
            for c in starts:
                panel = grid[:, c : c + width]
                finish(_row_levels(panel, spare, panel), panel)

    fan(panels, range(0, block, width))


def _scratch_shape(size: int) -> tuple[int, int]:
    """(threads, values) of the scratch of a transform: a block per thread."""
    return _transform_threads(size), min(size, FWHT_BLOCK)


def _copy_back(held: np.ndarray, out: np.ndarray) -> None:
    if held is not out:
        np.copyto(out, held)


def _run_buffer(run: int) -> int:
    """numpy's ufunc buffer size for operands made of contiguous runs of
    `run` values.  numpy copies such operands through its buffer whenever
    a run is shorter than the buffer (8192 values by default), which makes
    a level up to three times slower; a buffer no longer than the run
    avoids the copy."""
    return max(16, min(run, 8192)) // 16 * 16


def _block_shape(size: int) -> tuple[int, int]:
    """(rows, cols) of a block longer than _SMALL: cols = 2^floor(bits/2)."""
    cols = 1 << (size.bit_length() - 1) // 2
    return size // cols, cols


def _input_order(size: int) -> list[int]:
    """The index bits in which _transform's fill writes the input of a
    transform of length `size`: bit j of a position holds bit order[j] of
    the index.  A block longer than _SMALL takes its columns' bits first,
    which saves _fwht_block one transpose; every other bit is in place."""
    bits = size.bit_length() - 1
    block = min(size, FWHT_BLOCK)
    if block <= _SMALL:
        return list(range(bits))
    low = _block_shape(block)[1].bit_length() - 1
    high = block.bit_length() - 1
    return [*range(low, high), *range(low), *range(high, bits)]


def _fwht_block(x: np.ndarray, scratch: np.ndarray, ordered: bool) -> None:
    """All levels of the transform of one block x, in place; scratch holds
    at least x.size values.

    Each level writes x + y and x - y into the other buffer (ping-pong), two
    ufunc calls a level.  Up to _SMALL values every level has the same
    geometry (see _constant_geometry).  Above that the block is laid out as
    in Bailey's four-step method, as (rows, cols): the levels on the row
    bits run on whole rows, a transpose makes the column bits row bits for
    the other levels, and a second transpose restores the order.  With
    `ordered`, x holds its input in _input_order, that is as (cols, rows)
    already, and the first transpose is not needed.
    """
    size = x.size
    scratch = scratch[:size]
    if size <= _SMALL:
        _constant_geometry(x, scratch)
        return
    rows, cols = _block_shape(size)
    shapes = [(cols, rows), (rows, cols)] if ordered else [(rows, cols), (cols, rows)]
    # each level and each transpose writes the other buffer, and the last
    # write must land in x: when their count is odd, the first level after
    # the middle transpose reads the transposed view instead of a copy
    fuse = (size.bit_length() - 1 + ordered) % 2 == 1
    held, spare = x, scratch
    with np.errstate():
        np.setbufsize(_run_buffer(cols))
        for i, shape in enumerate(shapes):
            src = held.reshape(shape)
            if i:
                src = held.reshape(shapes[0]).T
                if not fuse:
                    np.copyto(spare.reshape(shape), src)
                    held, spare = spare, held
                    src = held.reshape(shape)
            _row_levels(src, spare.reshape(shape), held.reshape(shape))
            if (shape[0].bit_length() - 1) % 2:  # an odd number of levels
                held, spare = spare, held
        if not ordered:
            np.copyto(spare.reshape(rows, cols), held.reshape(cols, rows).T)


def _row_levels(src: np.ndarray, dst: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Every level on the row bits of 2-D (rows, cols) arrays; returns the
    one that holds the result.  The first level reads src and writes dst;
    after that dst and other take turns.  src may be other, or a strided
    view of the values in other."""
    rows, cols = dst.shape
    h = 1
    while h < rows:
        x, y = src.reshape(-1, 2, h, cols), dst.reshape(-1, 2, h, cols)
        np.add(x[:, 0], x[:, 1], out=y[:, 0])
        np.subtract(x[:, 0], x[:, 1], out=y[:, 1])
        src, dst, other = dst, other, dst
        h *= 2
    return src


def _constant_geometry(x: np.ndarray, scratch: np.ndarray) -> None:
    """The transform of a short x in place, every level in one geometry
    (Fino and Algazi): read adjacent pairs, write their sums to the first
    half and their differences to the second.  Each level so moves the
    bottom bit of the index to the top, and after log2(size) levels every
    bit is back in place.  The views are made once, so a level costs two
    ufunc calls and nothing else."""
    size = x.size
    half = size // 2
    views = [(v[0::2], v[1::2], v[:half], v[half:]) for v in (x, scratch)]
    held = 0
    for _ in range(size.bit_length() - 1):
        even, odd = views[held][:2]
        low, high = views[1 - held][2:]
        np.add(even, odd, out=low)
        np.subtract(even, odd, out=high)
        held = 1 - held
    if held:
        np.copyto(x, scratch)


@lru_cache(maxsize=1)
def thick_sphere_words(n: int, lam: int) -> np.ndarray:
    """All words with weight in [n/2 - lam, n/2 + lam].  The last band is
    cached, so repeated checks of one (n, lam) build it once; one band at
    n = 28 is 321 MB, so no more are kept."""
    lo, hi = n // 2 - lam, n // 2 + lam
    out = np.concatenate([weight_words(n, w) for w in range(lo, hi + 1)])
    out.flags.writeable = False
    return out


def _validate(code: LinearCode, spec: BalanceSpec) -> None:
    if code.n != spec.n:
        raise ValueError(f"code length {code.n} != spec length {spec.n}")


def _q_naive(code: LinearCode, spec: BalanceSpec) -> int:
    """The early exit makes the work data-dependent, so it is counted as
    the scan goes: each codeword touches every word still uncovered."""
    n = spec.n
    # the uncovered words and their XOR, then the distances and the mask
    check_budget("naive", nbytes=18 << n)
    lo, hi = spec.band
    remaining = np.arange(1 << n, dtype=np.uint64)
    work = 0
    for x in span_array(code):
        work += remaining.size
        check_budget("naive", work)
        d = np.bitwise_count(remaining ^ x)
        remaining = remaining[(d < lo) | (d > hi)]
        if remaining.size == 0:
            break
    return int(remaining.size)


def _band_size(spec: BalanceSpec) -> int:
    lo, hi = spec.band
    return sum(math.comb(spec.n, w) for w in range(lo, hi + 1))


def _q_sphere_mark(code: LinearCode, spec: BalanceSpec) -> int:
    n, band = spec.n, _band_size(spec)
    # one mark per codeword and band word; the bitmap, the band and its XOR
    check_budget("sphere_mark", band << code.k, (1 << n) + 16 * band)
    thick = thick_sphere_words(n, spec.lam)
    covered = np.zeros(1 << n, dtype=bool)
    for x in span_array(code):
        covered[thick ^ x] = True
    return (1 << n) - int(np.count_nonzero(covered))


@lru_cache(maxsize=64)
def _band_spectrum(n: int, lam: int, dtype: type) -> np.ndarray:
    """T[j] = sum over the band's weights w of the Krawtchouk value K_w(j),
    i.e. the sum of (-1)^<u, z> over all band words z, for any u of weight j;
    held in dtype, which wraps."""
    lo, hi = n // 2 - lam, n // 2 + lam
    out = np.array(
        [
            sum(
                (-1) ** i * math.comb(j, i) * math.comb(n - j, w - i)
                for w in range(lo, hi + 1)
                for i in range(w + 1)
            )
            for j in range(n + 1)
        ],
        dtype=np.int64,
    ).astype(dtype)
    out.flags.writeable = False
    return out


def _split_span(
    values: list[int], dtype: type = np.uint64, low_count: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """(low, high) with xor_span(values) = [low ^ u for u in high], low
    spanning at most the first low_count values, so it can be built block
    by block."""
    return xor_span(values[:low_count], dtype), xor_span(values[low_count:], dtype)


def coset_counts(
    spec: BalanceSpec, rows: list[int] | tuple[int, ...]
) -> np.ndarray:
    """Number N_s of band words z with syndrome s, for every s in F_2^r.

    Bit j of s is the parity of z against rows[j]; the r rows may be
    dependent, and then every s outside their image gets N_s = 0.  By the
    MacWilliams identity, 2^r N_s = sum_a (-1)^<a, s> T[wt(u_a)], where u_a
    is the XOR of the rows that a selects and T = _band_spectrum: the dual
    words are weighed, mapped through T and transformed once, at length
    2^r.  Wrapping arithmetic is exact because 0 <= 2^r N_s <= 2^n, so the
    transform runs in int32 for n <= 30 and in int64 above.

    The transform runs as fwht_inplace does, and on its threads, with two
    steps folded in so that the array streams through memory only twice:
    each block is weighed while it is in cache (the rows taken in the block
    kernel's _input_order), and each finished piece is checked and shifted
    by r on its way out.  A value that 2^r does not divide means the
    transform is wrong, and raises RuntimeError.  The budget is r levels over 2^r values,
    plus one block of scratch per thread, held in that dtype.
    """
    n, r = spec.n, len(rows)
    if n > WHT_LENGTH_CAP:
        raise CapExceededError(f"wht capped at n <= {WHT_LENGTH_CAP}, got {n}")
    dtype, words = (np.int32, np.uint32) if n <= 30 else (np.int64, np.uint64)
    size = 1 << r
    values = size + math.prod(_scratch_shape(size))
    check_budget("coset_counts", r << r, np.dtype(dtype).itemsize * values)
    spectrum = _band_spectrum(n, spec.lam, dtype)
    block = min(size, FWHT_BLOCK)
    # one word of the high span per block
    low, high = _split_span(
        [rows[j] for j in _input_order(size)], words, block.bit_length() - 1
    )
    mask = size - 1

    def weigh(view, start, spare) -> None:
        dual = view.view(words)  # the dual words, then their values
        weights = spare.view(np.uint8)[: view.size]
        np.bitwise_xor(low, high[start // block], out=dual)
        np.bitwise_count(dual, out=weights)
        # every weight is in [0, n]; "wrap" skips the copy of out that the
        # default mode makes
        np.take(spectrum, weights, out=view, mode="wrap")

    def finish(held, out) -> None:
        if np.bitwise_or.reduce(held, axis=None) & mask:
            raise RuntimeError(f"coset_counts: a transformed value is not divisible by 2^{r}")
        np.right_shift(held, r, out=out)

    v = np.empty(size, dtype=dtype)
    _transform(v, weigh, finish)
    return v


def _with_ones(code: LinearCode) -> tuple[tuple[int, ...], int]:
    """(dual rows, dimension) of C + <1>, 1 the all-ones word.

    The band is closed under complement, so y + c is in it exactly when
    y + c + 1 is: C + <1> leaves the same words uncovered as C, and each of
    its cosets is two cosets of C with equal counts.  Its dual is the
    even-weight part of C's: with no odd dual row, 1 is in C already;
    otherwise the first odd row is XORed into every other odd row and
    dropped, leaving n - k - 1 rows.  The `wht` engine and
    ensemble.lemma1_identity_check work on these rows;
    constructions.greedy_balancing reaches the same space by starting its
    basis at 1.
    """
    rows = code.dual_rows
    odd = next((i for i, h in enumerate(rows) if h.bit_count() & 1), None)
    if odd is None:
        return rows, code.k
    first = rows[odd]
    rest = tuple(h ^ first if h.bit_count() & 1 else h for h in rows[odd + 1 :])
    return rows[:odd] + rest, code.k + 1


def _q_wht(code: LinearCode, spec: BalanceSpec) -> int:
    rows, k = _with_ones(code)
    counts = coset_counts(spec, rows)
    return (counts.size - int(np.count_nonzero(counts))) << k


def _q_syndrome(code: LinearCode, spec: BalanceSpec) -> int:
    """Coset-collapsed count: y is covered iff its coset meets the sphere.

    The number of codewords at covering distance from y only depends on the
    coset y + C, so it suffices to bucket the thick-sphere words by their
    syndrome and count empty buckets.  Each band word costs one table
    lookup per 16-bit limb plus the scatter; the buckets are 2^r booleans.
    """
    n, k = spec.n, code.k
    check_packed("syndrome", n)
    check_budget("syndrome", _band_size(spec) * ((n + 15) // 16 + 1), 1 << (n - k))
    tables, r = syndrome_tables(code)
    covered = np.zeros(1 << r, dtype=bool)
    lo, hi = spec.band
    for w in range(lo, hi + 1):
        for chunk in weight_words_chunks(n, w):
            covered[bulk_syndromes(tables, chunk)] = True
    return ((1 << r) - int(np.count_nonzero(covered))) << k


def q_exact(code: LinearCode, spec: BalanceSpec, method: str = "auto") -> QReport:
    """Exact uncovered count for the covering band n/2 +- lam.

    Methods (all return identical counts; `auto` picks wht):
      naive:       per-word scan over codewords with early exit.
      sphere_mark: mark every covered word in a 2^n bitmap, codeword by
                   codeword.
      wht:         coset_counts, one Walsh-Hadamard transform over the
                   dual code of C + <1>, then count empty cosets.  Its
                   length is 2^(n-k-1) when 1 is not in C (2^(n-k) when it
                   is): the band is closed under complement, so C + <1>
                   leaves the same words uncovered as C.
      syndrome:    bucket thick-sphere words by syndrome and count empty
                   buckets.
    Each method checks its estimated work and bytes against gf2's WORK_CAP
    and BYTES_CAP before it allocates, and refuses past them.
    """
    _validate(code, spec)
    chosen = "wht" if method == "auto" else method
    t0 = time.perf_counter()
    if chosen == "naive":
        unc = _q_naive(code, spec)
    elif chosen == "sphere_mark":
        unc = _q_sphere_mark(code, spec)
    elif chosen == "wht":
        unc = _q_wht(code, spec)
    elif chosen == "syndrome":
        unc = _q_syndrome(code, spec)
    else:
        raise ValueError(f"unknown method {chosen!r}; expected one of {Q_METHODS}")
    elapsed = (time.perf_counter() - t0) * 1000.0
    return QReport(spec.n, code.k, spec.lam, unc, chosen, elapsed)


def is_balancing_set(code: LinearCode, spec: BalanceSpec, method: str = "auto") -> bool:
    return q_exact(code, spec, method).uncovered_count == 0


def uncovered_mask(code: LinearCode, spec: BalanceSpec) -> np.ndarray:
    """Boolean mask over all 2^n words, True where no codeword covers: the
    empty cosets of coset_counts, read at each word's syndrome.

    A thin word-level view kept for the tests; greedy and Lemma 1 work on
    the empty-coset array of C + <1> directly, 2^(n-k-1) syndromes when 1
    is not in C.
    """
    _validate(code, spec)
    n = spec.n
    # the 2^n booleans, in pieces and then joined
    check_budget("uncovered_mask", nbytes=2 << n)
    duals = code.dual_rows
    empty = coset_counts(spec, duals) == 0
    # the syndrome of coordinate c has bit j set where dual row j has c
    cols = [sum((h >> c & 1) << j for j, h in enumerate(duals)) for c in range(n)]
    low, high = _split_span(cols)
    return np.concatenate([empty[low ^ u] for u in high])


def shift_overlaps(mask: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """|M . (M + s)| for every s in shifts, M the indices where mask holds.

    Counted directly on the mask packed into 64-bit words (its length a
    power of two, 2^r): the high bits of s permute whole words, the low
    min(r, 6) bits permute the bits inside each word.  All in-word
    permutations are built once, by doubling, and the shifts run in blocks
    of about 2^20 words.
    """
    low = min(mask.size.bit_length() - 1, 6)
    words = np.packbits(mask, bitorder="little")
    words = np.pad(words, (0, -words.size % 8)).view("<u8")
    perm = words[None, :]  # perm[l] holds the words of M + l
    for t in range(low):
        d = 1 << t
        keep = np.uint64(((1 << 64) - 1) // ((1 << 2 * d) - 1) * ((1 << d) - 1))
        d = np.uint64(d)
        perm = np.concatenate([perm, ((perm & keep) << d) | ((perm >> d) & keep)])
    shifts = np.asarray(shifts, dtype=np.int64)
    col = np.arange(words.size)
    out = np.empty(shifts.size, dtype=np.int64)
    block = max(1, (1 << 20) // words.size)
    for lo in range(0, shifts.size, block):
        s = shifts[lo : lo + block, None]
        moved = perm[s & ((1 << low) - 1), col ^ (s >> low)]
        out[lo : lo + block] = np.bitwise_count(moved & words).sum(axis=1)
    return out


def coverage_profile(code: LinearCode, spec: BalanceSpec) -> CoverageProfile:
    """hist[j] = number of words with exactly j codewords at covering
    distance; each of the 2^k words of a coset has its coset's count."""
    _validate(code, spec)
    counts = coset_counts(spec, code.dual_rows)
    hist = np.bincount(counts) << code.k
    return CoverageProfile(spec.n, code.k, spec.lam, tuple(int(h) for h in hist))


def sphere_intersection_size(n: int, dist: int) -> int:
    """|B(x) . B(x')| for centers at distance dist: count of y balanced
    relative to both.  Zero whenever dist is odd."""
    if n < 2 or n % 2:
        raise ValueError(f"length must be even and >= 2, got {n}")
    if not 0 <= dist <= n:
        raise ValueError(f"distance {dist} out of range for length {n}")
    if dist % 2:
        return 0
    return math.comb(dist, dist // 2) * math.comb(n - dist, (n - dist) // 2)


def pair_distance_count(n: int, dist: int, i: int, j: int) -> int:
    """Number of words y with d(x, y) = i and d(x', y) = j for any fixed
    pair of centers at distance dist; zero out of range or parity."""
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    for name, v in (("dist", dist), ("i", i), ("j", j)):
        if not 0 <= v <= n:
            raise ValueError(f"{name} = {v} out of range for length {n}")
    a2 = j - i + dist
    b2 = i + j - dist
    if a2 % 2 or b2 % 2:
        return 0
    a, b = a2 // 2, b2 // 2
    if not (0 <= a <= dist and 0 <= b <= n - dist):
        return 0
    return math.comb(dist, a) * math.comb(n - dist, b)
