from __future__ import annotations

import math
import multiprocessing
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from balset import balancing, constructions
from balset.balancing import (
    FWHT_BLOCK,
    BalanceSpec,
    CapExceededError,
    Q_METHODS,
    binomial_exact,
    bounds_check,
    coset_counts,
    coverage_profile,
    fwht_inplace,
    is_balancing_set,
    pair_distance_count,
    parse_threads,
    q_exact,
    shift_overlaps,
    sphere_intersection_size,
    thick_sphere_words,
    uncovered_mask,
)
from balset.constructions import figure1_fixture
from balset.gf2 import LinearCode, Word, enumerate_span, span_array, syndrome_bits


def brute_uncovered(code: LinearCode, spec: BalanceSpec) -> int:
    """Independent oracle: count words with no codeword in the weight band."""
    lo, hi = spec.band
    span = [c.bits for c in enumerate_span(code)]
    return sum(
        1
        for y in range(1 << spec.n)
        if not any(lo <= (y ^ c).bit_count() <= hi for c in span)
    )


codes_and_specs = st.integers(4, 12).filter(lambda n: n % 2 == 0).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n) - 1), max_size=4),
        st.integers(0, n // 2 - 1),
    )
)


# -- spec validation -----------------------------------------------------------

def test_balance_spec_validation() -> None:
    assert BalanceSpec(8).band == (4, 4)
    assert BalanceSpec(8, 2).band == (2, 6)
    for n, lam in [(7, 0), (0, 0), (8, 4), (8, -1)]:
        with pytest.raises(ValueError):
            BalanceSpec(n, lam)


def test_binomial_exact() -> None:
    for n in range(0, 20):
        for k in range(0, n + 1):
            assert binomial_exact(n, k) == math.comb(n, k)


# -- central binomial bounds -----------------------------------------------------

PI_LO = Fraction(31415926535897932384626433832795028841, 10**37)
PI_HI = PI_LO + Fraction(1, 10**37)


def test_bounds_check_bracket_is_exact() -> None:
    rep = bounds_check(8)
    assert rep.value == 70
    assert rep.holds
    # lower bound 256/sqrt(16) = 64 exactly
    assert rep.lower == 64
    assert rep.upper > rep.value > rep.lower
    # upper endpoint sits just below 256/sqrt(4 pi): squaring against a
    # rational pi bracket pins it rigorously on both sides
    sq = rep.upper * rep.upper * 4
    assert sq * PI_HI <= 65536
    assert sq * PI_LO >= 65536 * (1 - Fraction(1, 10**20))


def test_bounds_hold_all_even_n() -> None:
    for n in range(2, 66, 2):
        rep = bounds_check(n)
        assert rep.holds, n
        assert rep.lower <= rep.value <= rep.upper


def test_bounds_enclosure_tightens() -> None:
    # endpoints are rounded toward the central value; more precision moves
    # them outward, toward the true irrational bounds
    a = bounds_check(10, precision_bits=96)
    b = bounds_check(10, precision_bits=200)
    assert a.holds and b.holds
    assert b.lower <= a.lower <= a.value <= a.upper <= b.upper


# -- WHT ------------------------------------------------------------------------

def test_fwht_involution() -> None:
    rng = np.random.default_rng(0)
    a = rng.integers(-50, 50, size=64).astype(np.int64)
    twice = a.copy()
    fwht_inplace(twice)
    fwht_inplace(twice)
    assert np.array_equal(twice, a * 64)


def test_fwht_xor_convolution() -> None:
    # transform of an indicator counts XOR matches after pointwise square
    rng = np.random.default_rng(1)
    mask = (rng.random(32) < 0.4).astype(np.int64)
    spec = mask.copy()
    fwht_inplace(spec)
    spec *= spec
    fwht_inplace(spec)
    assert (spec % 32 == 0).all()
    conv = spec // 32
    idx = np.arange(32)
    for z in range(32):
        assert conv[z] == int((mask * mask[idx ^ z]).sum())


def test_fwht_blocked_levels_match_halves() -> None:
    # past the in-cache block, the top level combines two transformed halves
    size = 1 << 19
    a = np.random.default_rng(3).integers(-1000, 1000, size=size).astype(np.int32)
    lo, hi = a[: size // 2].copy(), a[size // 2 :].copy()
    fwht_inplace(lo)
    fwht_inplace(hi)
    fwht_inplace(a)
    assert np.array_equal(a, np.concatenate([lo + hi, lo - hi]))


def sylvester(size: int) -> np.ndarray:
    """The Sylvester-Hadamard matrix: entry (i, j) is (-1)^popcount(i & j)."""
    i = np.arange(size)
    return 1 - 2 * (np.bitwise_count(i[:, None] & i) & 1).astype(np.int64)


FWHT_SIZES = range(22)  # 2^0 .. 2^21


def test_fwht_sizes_cover_every_layout() -> None:
    # the constant-geometry cutoff, a block, and one and two blocks past it
    sizes = {1 << b for b in FWHT_SIZES}
    assert {balancing._SMALL, FWHT_BLOCK // 2, FWHT_BLOCK, 2 * FWHT_BLOCK} <= sizes


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("bits", FWHT_SIZES)
def test_fwht_matches_definition(fan_widths, monkeypatch, bits, dtype) -> None:
    """Up to 2^10 against the Sylvester matrix product; above that against
    [T(lo) + T(hi), T(lo) - T(hi)] of the transformed halves, which the
    smaller sizes have checked.  int32 values take the full range, so every
    butterfly wraps; BALSET_THREADS = 1 and 2 agree bit for bit."""
    size = 1 << bits
    rng = np.random.default_rng(bits)
    if dtype is np.int32:
        a = rng.integers(-(1 << 31), 1 << 31, size, dtype=np.int32)
    else:
        # the matrix product stays inside int64; the halves run full range
        span = 1 << 52 if bits <= 10 else 1 << 63
        a = rng.integers(-span, span, size, dtype=np.int64)

    def transformed(v: np.ndarray) -> np.ndarray:
        v = v.copy()
        fwht_inplace(v)
        return v

    serial, threaded = transform_by_threads(monkeypatch, transformed, a)
    assert np.array_equal(serial, threaded)
    if bits <= 10:
        expected = (sylvester(size) @ a.astype(np.int64)).astype(dtype)
    else:
        lo, hi = transformed(a[: size // 2]), transformed(a[size // 2 :])
        expected = np.concatenate([lo + hi, lo - hi])
    assert np.array_equal(serial, expected)


def test_fwht_scratch_is_one_block_per_thread(fan_widths, monkeypatch) -> None:
    # a second buffer of the array's length would be 8 MiB here
    monkeypatch.setenv("BALSET_THREADS", "2")
    a = np.ones(1 << 21, dtype=np.int32)
    fwht_inplace(a)  # the pool's threads start on first use
    scratch = 2 * FWHT_BLOCK * a.itemsize
    tracemalloc.start()
    try:
        fwht_inplace(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fan_widths == [2, 2]
    assert scratch <= peak <= scratch + (64 << 10)


def test_coset_counts_refuses_a_broken_transform(monkeypatch) -> None:
    # 2^r divides every transformed value, or the transform is wrong; the
    # check raises, so python -O keeps it (test_..._under_optimize)
    rows = [w.bits for w in seeded_code(16, 6, 16).dual_basis()]
    assert coset_counts(BalanceSpec(16), rows).sum() == math.comb(16, 8)
    block = balancing._fwht_block

    def skip_top_level(x, scratch, ordered) -> None:
        block(x[: x.size // 2], scratch, ordered)
        block(x[x.size // 2 :], scratch, ordered)

    monkeypatch.setattr(balancing, "_fwht_block", skip_top_level)
    with pytest.raises(RuntimeError, match=r"not divisible by 2\^10"):
        coset_counts(BalanceSpec(16), rows)


def test_autocorrelation_refuses_a_broken_transform(monkeypatch) -> None:
    # the first of its two transforms gets one value wrong by 1
    calls = []

    def first_off_by_one(v: np.ndarray) -> None:
        fwht_inplace(v)
        v[1] += not calls
        calls.append(v.size)

    monkeypatch.setattr(constructions, "fwht_inplace", first_off_by_one)
    empty = np.random.default_rng(10).random(1 << 10) < 0.3
    with pytest.raises(RuntimeError, match=r"not divisible by 2\^10"):
        constructions._autocorrelation(empty)
    assert calls == [1 << 10, 1 << 10]


def test_fwht_refuses_arrays_it_would_copy() -> None:
    for size in (0, 12):
        with pytest.raises(ValueError, match="power of two"):
            fwht_inplace(np.zeros(size, dtype=np.int64))
    for a in (np.zeros(16, dtype=np.int64)[::2], np.zeros((4, 4), dtype=np.int64)):
        with pytest.raises(ValueError, match="contiguous 1-D"):
            fwht_inplace(a)


def test_broken_transform_raises_under_optimize() -> None:
    rows = [w.bits for w in seeded_code(16, 6, 16).dual_basis()]
    script = f"""
from balset import balancing
assert not __debug__
block = balancing._fwht_block
def skip_top_level(x, scratch, ordered):
    block(x[: x.size // 2], scratch, ordered)
    block(x[x.size // 2 :], scratch, ordered)
balancing._fwht_block = skip_top_level
try:
    balancing.coset_counts(balancing.BalanceSpec(16), {rows!r})
except RuntimeError as exc:
    print(exc)
"""
    src = os.path.dirname(os.path.dirname(balancing.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert "not divisible by 2^10" in out.stdout


def test_parse_threads_clamps_to_cores() -> None:
    # unset or 0 means every core, and no value asks for more threads than
    # cores; parsing alone starts no thread
    assert parse_threads(None, 2) == 2
    assert parse_threads("0", 3) == 3
    assert parse_threads("1", 2) == 1
    assert parse_threads("2", 4) == 2
    assert parse_threads("64", 2) == 2
    assert parse_threads("-5", 2) == 1
    with pytest.raises(ValueError, match="BALSET_THREADS"):
        parse_threads("many", 2)


def transform_by_threads(monkeypatch, transform, *args) -> list[np.ndarray]:
    """transform(*args) run with BALSET_THREADS = 1, then 2."""
    out = []
    for threads in ("1", "2"):
        monkeypatch.setenv("BALSET_THREADS", threads)
        out.append(transform(*args))
    return out


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("r", [19, 20, 21])
def test_fwht_threads_bit_identical(fan_widths, monkeypatch, r, dtype) -> None:
    # full-range values, so the butterflies wrap
    info = np.iinfo(dtype)
    a = np.random.default_rng(r).integers(info.min, info.max, 1 << r, dtype, endpoint=True)

    def transformed(v: np.ndarray) -> np.ndarray:
        v = v.copy()
        fwht_inplace(v)
        return v

    serial, threaded = transform_by_threads(monkeypatch, transformed, a)
    assert fan_widths == [1, 2]
    assert np.array_equal(serial, threaded)
    assert np.array_equal(transformed(threaded), a * dtype(1 << r))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_runs_threaded_transforms(fan_widths, monkeypatch) -> None:
    # the parent's pool threads do not exist in a forked child; the child
    # must start its own instead of waiting on them forever
    monkeypatch.setenv("BALSET_THREADS", "2")

    def transform_ones() -> None:
        a = np.ones(1 << 19, dtype=np.int32)
        fwht_inplace(a)
        assert a[0] == 1 << 19 and not a[1:].any()

    transform_ones()
    assert fan_widths == [2]
    child = multiprocessing.get_context("fork").Process(target=transform_ones)
    child.start()
    child.join(60)
    hung = child.is_alive()
    if hung:
        child.kill()
    assert not hung and child.exitcode == 0


@pytest.mark.parametrize("lam", [0, 1, 2])
def test_coset_counts_threads_bit_identical_n28(fan_widths, monkeypatch, lam) -> None:
    rows = [h.bits for h in figure1_fixture(28).code.dual_basis()]
    assert len(rows) == 22
    serial, threaded = transform_by_threads(monkeypatch, coset_counts, BalanceSpec(28, lam), rows)
    assert fan_widths == [1, 2]
    assert np.array_equal(serial, threaded)
    assert serial.sum() == sum(math.comb(28, w) for w in range(14 - lam, 15 + lam))


def test_coset_counts_threads_bit_identical_int64(fan_widths, monkeypatch) -> None:
    # n > 30 transforms in int64
    code = seeded_code(34, 14, 34)
    rows = [w.bits for w in code.dual_basis()]
    assert len(rows) == 20
    serial, threaded = transform_by_threads(monkeypatch, coset_counts, BalanceSpec(34, 1), rows)
    assert serial.dtype == np.int64 and 2 in fan_widths
    assert np.array_equal(serial, threaded)


def test_thick_sphere_words_keeps_one_band() -> None:
    # bands are large (321 MB at n = 28) and outside BYTES_CAP, so the cache
    # holds only the last one
    code = seeded_code(12, 3, 12)
    for lam in range(4):
        q_exact(code, BalanceSpec(12, lam), "sphere_mark")
        assert thick_sphere_words.cache_info().currsize <= 1


def test_thick_sphere_words_cached_readonly() -> None:
    words = thick_sphere_words(8, 1)
    assert len(words) == math.comb(8, 3) + math.comb(8, 4) + math.comb(8, 5)
    with pytest.raises(ValueError):
        words[0] = 0


# -- q_exact ----------------------------------------------------------------------

def test_zero_code_example() -> None:
    code = LinearCode(4, ())
    for method in Q_METHODS:
        rep = q_exact(code, BalanceSpec(4), method=method)
        assert rep.uncovered_count == 10
        assert rep.q == Fraction(10, 16)


def test_full_space_covers_everything() -> None:
    code = LinearCode.from_ints(6, [1 << i for i in range(6)])
    for method in Q_METHODS:
        assert q_exact(code, BalanceSpec(6), method=method).uncovered_count == 0
    assert is_balancing_set(code, BalanceSpec(6))


@given(codes_and_specs)
def test_methods_agree_with_brute_force(args) -> None:
    n, rows, lam = args
    code = LinearCode.from_ints(n, rows)
    spec = BalanceSpec(n, lam)
    expected = brute_uncovered(code, spec)
    for method in Q_METHODS:
        assert q_exact(code, spec, method=method).uncovered_count == expected


@given(codes_and_specs, st.integers(0, (1 << 12) - 1))
def test_adding_row_never_uncovers(args, extra: int) -> None:
    n, rows, lam = args
    code = LinearCode.from_ints(n, rows)
    spec = BalanceSpec(n, lam)
    before = q_exact(code, spec).uncovered_count
    after = q_exact(code.extended(Word(n, extra & ((1 << n) - 1))), spec).uncovered_count
    assert after <= before


@given(codes_and_specs)
def test_widening_lambda_never_uncovers(args) -> None:
    n, rows, lam = args
    code = LinearCode.from_ints(n, rows)
    a = q_exact(code, BalanceSpec(n, lam)).uncovered_count
    if lam + 1 < n // 2:
        b = q_exact(code, BalanceSpec(n, lam + 1)).uncovered_count
        assert b <= a


def test_method_caps() -> None:
    big = LinearCode(40, (Word(40, 1),))
    with pytest.raises(CapExceededError):
        q_exact(big, BalanceSpec(40), method="naive")
    with pytest.raises(CapExceededError):
        q_exact(big, BalanceSpec(40), method="wht")
    with pytest.raises(ValueError):
        q_exact(big, BalanceSpec(40), method="nonsense")
    with pytest.raises(ValueError):
        q_exact(LinearCode(6, ()), BalanceSpec(8))
    # 40 rows leave r = 24 check rows, under the row cap, but n = 64 is
    # past the length cap
    rng = np.random.default_rng(64)
    rows = [int(v) for v in rng.integers(0, 1 << 63, size=40, dtype=np.uint64)]
    long_code = LinearCode.from_ints(64, rows)
    assert long_code.n - long_code.k <= 26
    with pytest.raises(CapExceededError, match="n <= 62"):
        q_exact(long_code, BalanceSpec(64))
    with pytest.raises(CapExceededError, match="work 3623878656 exceeds WORK_CAP"):
        coset_counts(BalanceSpec(28), [1] * 27)


def long_codes() -> list[LinearCode]:
    """n = 40, k = 20 (C(40, 20) ~ 1.4e11 band words) and n = 70, k = 50
    (words past uint64): no word-level oracle can run either."""
    rng = random.Random(70)
    wide = LinearCode.from_ints(70, [rng.getrandbits(70) for _ in range(50)])
    assert wide.k == 50
    return [seeded_code(40, 20, 40), wide]


def test_long_codes_answer_or_refuse_within_a_second() -> None:
    """Every method refuses both long codes at once, naming the budget or
    guard that fired, except wht at n = 40: r = 20 is well inside its
    budget, so it answers."""
    for code in long_codes():
        spec = BalanceSpec(code.n)
        for method in Q_METHODS:
            t0 = time.perf_counter()
            if method == "wht" and code.n == 40:
                assert q_exact(code, spec, method).uncovered_count == 0
            else:
                with pytest.raises(CapExceededError, match="exceed|n <= 6[24]"):
                    q_exact(code, spec, method)
            assert time.perf_counter() - t0 < 1.0, (code.n, method)


def test_sphere_mark_refuses_before_allocating() -> None:
    # 2^10 * C(28, 14) marks: within the old 2^36 mark cap, over WORK_CAP
    codes = long_codes() + [seeded_code(28, 10, 28)]
    for code in codes:
        band = math.comb(code.n, code.n // 2)
        t0 = time.perf_counter()
        with pytest.raises(
            CapExceededError, match=f"sphere_mark: estimated work {band << code.k} exceeds WORK_CAP"
        ):
            q_exact(code, BalanceSpec(code.n), "sphere_mark")
        assert time.perf_counter() - t0 < 1.0


def test_syndrome_bounds_its_enumeration() -> None:
    n40, n70 = long_codes()
    t0 = time.perf_counter()
    # C(40, 20) band words, each three limb lookups and one scatter
    with pytest.raises(CapExceededError, match=f"work {137846528820 * 4} exceeds WORK_CAP"):
        q_exact(n40, BalanceSpec(40), "syndrome")
    with pytest.raises(CapExceededError, match="n <= 64"):
        q_exact(n70, BalanceSpec(70), "syndrome")
    assert time.perf_counter() - t0 < 1.0


def test_report_fields_and_json() -> None:
    rep = q_exact(LinearCode(4, ()), BalanceSpec(4))
    d = rep.to_json_dict()
    assert d["n"] == 4 and d["k"] == 0 and d["lambda"] == 0
    assert d["q_num"] == 5 and d["q_den"] == 8
    assert d["uncovered"] == 10 and d["method"] == rep.method


# -- the coset engine -----------------------------------------------------------

def seeded_code(n: int, k: int, seed: int) -> LinearCode:
    """A random code of dimension exactly k."""
    rng = np.random.default_rng(seed)
    code = LinearCode(n, ())
    while code.k < k:
        x = Word(n, int(rng.integers(0, 1 << n)))
        if not code.contains(x):
            code = code.extended(x)
    return code


def with_ones(code: LinearCode) -> LinearCode:
    """code + <1>, 1 the all-ones word."""
    ones = Word(code.n, (1 << code.n) - 1)
    return code if code.contains(ones) else code.extended(ones)


def one_odd_dual_code(n: int, k: int, seed: int) -> LinearCode:
    """A code of dimension k (0 < k < n) whose dual_rows hold exactly one
    odd-weight row.  Its basis is in RREF with pivots 0..k-1, so dual row f
    (f >= k) is e_f plus the pivot of every basis row carrying f: it is odd
    when an even number of rows carry f.  Row 0 sets those counts odd for
    every f but the last."""
    rng = np.random.default_rng(seed)
    rows = [1 << i | int(rng.integers(0, 1 << (n - k))) << k for i in range(k)]
    carried = 0
    for row in rows:
        carried ^= row >> k
    rows[0] ^= (carried ^ ((1 << (n - k - 1)) - 1)) << k
    code = LinearCode.from_ints(n, rows)
    assert code.k == k
    assert [h.bit_count() & 1 for h in code.dual_rows].count(1) == 1
    return code


def shapes(n: int, k: int, seed: int) -> list[LinearCode]:
    """The three cases of _with_ones at (n, k): a seeded code, the same code
    plus 1 (so 1 is in it), and, for 0 < k < n, a code with exactly one odd
    dual row."""
    code = seeded_code(n, k, seed)
    return [code, with_ones(code)] + ([one_odd_dual_code(n, k, seed)] if 0 < k < n else [])


def test_wht_matches_naive_every_shape() -> None:
    for n in range(2, 15, 2):
        for k in range(n + 1):
            for code in shapes(n, k, 100 * n + k):
                for lam in range(n // 2):
                    spec = BalanceSpec(n, lam)
                    want = q_exact(code, spec, "naive").uncovered_count
                    got = q_exact(code, spec, "wht").uncovered_count
                    assert got == want, (n, code.k, lam)


def test_wht_transforms_the_cosets_of_c_plus_ones(monkeypatch) -> None:
    # q_exact hands coset_counts n - k - 1 check rows when 1 is not in C,
    # and n - k when it is
    seen = []

    def spy(spec, rows):
        seen.append(len(rows))
        return coset_counts(spec, rows)

    monkeypatch.setattr(balancing, "coset_counts", spy)
    base = seeded_code(12, 4, 3)
    plus_ones = with_ones(base)
    assert plus_ones.k == 5  # so 1 is not in base
    cases = [(base, 7), (plus_ones, 7), (one_odd_dual_code(12, 5, 3), 6)]
    for code, want in cases:
        seen.clear()
        q_exact(code, BalanceSpec(12, 1))
        assert seen == [want], code.k


def test_wht_matches_syndrome_on_long_codes() -> None:
    for n, k, lam in [(20, 4, 0), (20, 6, 1), (20, 8, 2), (22, 5, 0), (22, 7, 1), (24, 7, 0)]:
        code = seeded_code(n, k, n + k)
        spec = BalanceSpec(n, lam)
        want = q_exact(code, spec, "syndrome").uncovered_count
        assert q_exact(code, spec).uncovered_count == want, (n, k, lam)


def test_coset_counts_dependent_rows() -> None:
    # a duplicated row and a row sum add check bits fixed by the others:
    # each syndrome keeps its count, and the unreachable ones count zero
    code = seeded_code(12, 4, 5)
    spec = BalanceSpec(12, 1)
    h = [w.bits for w in code.dual_basis()]
    r = len(h)
    base = coset_counts(spec, h)
    wide = coset_counts(spec, h + [h[0], h[0] ^ h[1]])
    s = np.arange(1 << r)
    extra = (s & 1) | ((s ^ (s >> 1)) & 1) << 1
    assert np.array_equal(wide[s | extra << r], base)
    assert wide.sum() == base.sum()


def test_coset_counts_each_word_counted_once() -> None:
    # sum over all syndromes of N_s is the band size, here at n = 40
    code = seeded_code(40, 20, 40)
    spec = BalanceSpec(40, 1)
    counts = coset_counts(spec, [w.bits for w in code.dual_basis()])
    lo, hi = spec.band
    assert counts.sum() == sum(math.comb(40, w) for w in range(lo, hi + 1))
    rep = q_exact(code, spec)
    assert rep.method == "wht"
    assert rep.uncovered_count == int((counts == 0).sum()) << 20


def test_coset_counts_match_syndrome_buckets() -> None:
    code = seeded_code(10, 3, 9)
    spec = BalanceSpec(10, 1)
    counts = coset_counts(spec, [w.bits for w in code.dual_basis()])
    lo, hi = spec.band
    want = np.zeros(counts.size, dtype=np.int64)
    for z in range(1 << 10):
        if lo <= z.bit_count() <= hi:
            want[syndrome_bits(code, z)] += 1
    assert np.array_equal(counts, want)


# -- masks and profiles --------------------------------------------------------

def test_uncovered_mask_matches_count() -> None:
    code = LinearCode.from_strings(["110000", "001100"])
    spec = BalanceSpec(6, 0)
    mask = uncovered_mask(code, spec)
    rep = q_exact(code, spec)
    assert int(mask.sum()) == rep.uncovered_count
    lo, hi = spec.band
    span = [c.bits for c in enumerate_span(code)]
    for y in range(64):
        covered = any(lo <= (y ^ c).bit_count() <= hi for c in span)
        assert bool(mask[y]) == (not covered)


def test_shift_overlaps_match_direct_count() -> None:
    # packed words and in-word permutations, r = 0..12 (below, at and above
    # one 64-bit word), against M's indices looked up shift by shift
    rng = np.random.default_rng(8)
    for r in range(13):
        for density in (0.0, 0.2, 0.7, 1.0):
            mask = rng.random(1 << r) < density
            idx = np.flatnonzero(mask)
            shifts = np.arange(1 << r)
            want = [int(np.count_nonzero(mask[idx ^ s])) for s in shifts]
            assert shift_overlaps(mask, shifts).tolist() == want, (r, density)
    mask = rng.random(1 << 16) < 0.5
    shifts = rng.integers(0, 1 << 16, size=100)
    idx = np.flatnonzero(mask)
    want = [int(np.count_nonzero(mask[idx ^ s])) for s in shifts]
    assert shift_overlaps(mask, shifts).tolist() == want


def test_coverage_profile_matches_per_word_histogram() -> None:
    for i, (n, k) in enumerate([(4, 0), (6, 2), (8, 3), (10, 1), (10, 5), (12, 4), (12, 6)]):
        for code in shapes(n, k, 7 + i):
            words = np.arange(1 << n, dtype=np.uint64)
            dist = np.bitwise_count(words[:, None] ^ span_array(code)[None, :])
            for lam in range(n // 2):
                lo, hi = BalanceSpec(n, lam).band
                per_word = ((dist >= lo) & (dist <= hi)).sum(axis=1)
                prof = coverage_profile(code, BalanceSpec(n, lam))
                assert prof.k == code.k
                assert prof.histogram == tuple(int(c) for c in np.bincount(per_word)), (n, code.k, lam)


def test_coverage_profile_double_counting() -> None:
    code = LinearCode.from_strings(["10101010", "01100110"])
    spec = BalanceSpec(8, 1)
    prof = coverage_profile(code, spec)
    hist = prof.histogram
    assert sum(hist) == 1 << 8
    assert hist[0] == q_exact(code, spec).uncovered_count
    lo, hi = spec.band
    band_size = sum(math.comb(8, w) for w in range(lo, hi + 1))
    # every codeword covers exactly |B_lam(0)| words
    assert sum(j * c for j, c in enumerate(hist)) == (1 << code.k) * band_size


# -- sphere intersections ---------------------------------------------------------

def test_sphere_intersection_against_brute_force() -> None:
    for n in (2, 4, 6, 8, 10):
        half = n // 2
        sphere = [y for y in range(1 << n) if y.bit_count() == half]
        for dist in range(n + 1):
            x = sum(1 << p for p in range(dist))
            expected = sum(1 for y in sphere if (y ^ x).bit_count() == half)
            assert sphere_intersection_size(n, dist) == expected, (n, dist)


def test_sphere_intersection_odd_distance_empty() -> None:
    assert sphere_intersection_size(8, 3) == 0
    assert sphere_intersection_size(8, 0) == math.comb(8, 4)


def test_pair_distance_count_small_brute_force() -> None:
    # count words y at distance i from x = 0 and j from a weight-dist x'
    for n in (3, 5, 8):
        for dist in range(n + 1):
            xp = (1 << dist) - 1
            for i in range(n + 1):
                for j in range(n + 1):
                    expected = sum(
                        1
                        for y in range(1 << n)
                        if y.bit_count() == i and (y ^ xp).bit_count() == j
                    )
                    assert pair_distance_count(n, dist, i, j) == expected


def test_pair_distance_count_examples() -> None:
    # centers 0000 and 1100: the four words 1010, 1001, 0110, 0101
    assert pair_distance_count(4, 2, 2, 2) == 4
    assert pair_distance_count(10, 4, 3, 5) == pair_distance_count(10, 4, 5, 3)


def test_pair_distance_count_partitions_space() -> None:
    for n, dist in [(6, 0), (6, 3), (6, 6), (9, 4)]:
        total = sum(
            pair_distance_count(n, dist, i, j)
            for i in range(n + 1)
            for j in range(n + 1)
        )
        assert total == 1 << n


def test_sphere_intersection_consistent_with_pair_counts() -> None:
    # both centers balanced-relative: the definitional coincidence
    for n in (4, 8, 12):
        for dist in range(n + 1):
            assert pair_distance_count(n, dist, n // 2, n // 2) == (
                sphere_intersection_size(n, dist)
            )
