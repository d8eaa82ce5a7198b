from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from balset import constructions
from balset.balancing import (
    BalanceSpec,
    coset_counts,
    fwht_inplace,
    is_balancing_set,
    q_exact,
    thick_sphere_words,
)
from balset.constructions import (
    GreedyStep,
    _adjoin,
    _fold,
    DimensionBounds,
    binary_entropy,
    dimension_bounds,
    figure1_fixture,
    greedy_balancing,
    griesmer_sum,
    knuth_balance,
    knuth_set,
    min_distance,
    repeated_simplex,
    repeated_simplex_tolerance,
    simplex_extended,
    verify_sum_of_squares,
)
from balset.gf2 import CapExceededError, LinearCode, Word, check_rows, enumerate_span


# -- prefix-flip sets -----------------------------------------------------------

def test_knuth_set_shape() -> None:
    ks = knuth_set(6)
    assert [str(w) for w in ks.words] == [
        "100000", "110000", "111000", "111100", "111110", "111111",
    ]


def test_knuth_balance_examples() -> None:
    i, balanced = knuth_balance(Word.from_string("0000"))
    assert (i, str(balanced)) == (2, "1100")
    i, balanced = knuth_balance(Word.from_string("1111"))
    assert (i, str(balanced)) == (2, "0011")


def test_knuth_balance_exhaustive_small() -> None:
    for n in (2, 4, 6, 8, 10):
        ks = knuth_set(n)
        for y in range(1 << n):
            i, balanced = knuth_balance(Word(n, y))
            assert balanced == Word(n, y) + ks.words[i - 1]
            assert balanced.weight() == n // 2
            # i is the smallest working index
            for smaller in range(1, i):
                prev = ks.words[smaller - 1]
                assert (y ^ prev.bits).bit_count() != n // 2


def test_knuth_balance_rejects_odd() -> None:
    with pytest.raises(ValueError):
        knuth_balance(Word(5, 0))


# -- simplex constructions ---------------------------------------------------------

def test_simplex_span_m2() -> None:
    code = simplex_extended(2, 2)
    span = {str(w) for w in enumerate_span(code)}
    assert span == {"0000", "1100", "1010", "0110"}


@pytest.mark.parametrize("m", [2, 3, 4])
def test_simplex_constant_weight(m: int) -> None:
    code = simplex_extended(m, m)
    n = 1 << m
    assert code.k == m
    weights = {w.weight() for w in enumerate_span(code) if w.bits}
    assert weights == {n // 2}
    assert min_distance(code) == n // 2


def test_simplex_prefix_rows() -> None:
    full = simplex_extended(3, 3)
    part = simplex_extended(3, 2)
    assert part.rows == full.rows[:2]


def test_simplex_odd_coset_appends_unit() -> None:
    code = simplex_extended(3, 2, odd_coset=True)
    assert code.rows[-1] == Word(8, 1)
    assert code.k == 3


def test_simplex_validation() -> None:
    with pytest.raises(ValueError):
        simplex_extended(3, 0)
    with pytest.raises(ValueError):
        simplex_extended(3, 4)


def test_repeated_simplex_balanced_span() -> None:
    code = repeated_simplex(2, 3)
    assert code.n == 12 and code.k == 2
    for w in enumerate_span(code):
        if w.bits:
            assert w.weight() == 6


def test_repeated_simplex_tolerance_value() -> None:
    # floor(sqrt(s*n)/2) with n = s * 2^m
    assert repeated_simplex_tolerance(3, 2) == 2
    assert repeated_simplex_tolerance(2, 2) == 2
    assert repeated_simplex_tolerance(2, 1) == 1
    assert repeated_simplex_tolerance(2, 4) == 4


def test_repeated_simplex_almost_balancing_exhaustive() -> None:
    # every instance with total length <= 20
    for m in (1, 2, 3, 4):
        for s in range(1, 21):
            n = s << m
            if n > 20 or n % 2:
                continue
            code = repeated_simplex(m, s)
            lam = repeated_simplex_tolerance(m, s)
            if lam >= n // 2:
                continue
            assert is_balancing_set(code, BalanceSpec(n, lam)), (m, s)


# -- sum of squares ---------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3])
def test_sum_of_squares_exhaustive(m: int) -> None:
    n = 1 << m
    for y in range(1 << n):
        lhs, holds = verify_sum_of_squares(m, Word(n, y))
        assert holds and lhs == (1 << m) ** 2


def test_sum_of_squares_random_m5() -> None:
    rng = np.random.default_rng(11)
    for _ in range(50):
        y = Word(32, int(rng.integers(0, 1 << 32)))
        lhs, holds = verify_sum_of_squares(5, y)
        assert holds and lhs == 1024


# -- greedy construction ------------------------------------------------------------

def test_greedy_full_scan_n8() -> None:
    res = greedy_balancing(8)
    assert res.status == "balanced"
    assert res.final_q == 0
    assert res.code.k == 3  # meets the ceil(log2 n) floor
    size = 1 << 8
    for prev, cur in zip(res.trace, res.trace[1:]):
        assert cur.uncovered_count * size <= prev.uncovered_count**2


def test_greedy_respects_max_dim() -> None:
    res = greedy_balancing(8, max_dim=1)
    assert res.status == "max_dim_reached"
    assert res.code.k <= 1
    assert res.final_q > 0


def test_greedy_sampled_deterministic() -> None:
    a = greedy_balancing(12, mode="sampled", rng_seed=9)
    b = greedy_balancing(12, mode="sampled", rng_seed=9)
    assert a.code.rows == b.code.rows
    assert a.status == "balanced"


def test_greedy_lambda_variant() -> None:
    res = greedy_balancing(12, BalanceSpec(12, 2))
    assert res.status == "balanced"
    assert is_balancing_set(res.code, BalanceSpec(12, 2))


def test_greedy_validation() -> None:
    with pytest.raises(ValueError):
        greedy_balancing(8, BalanceSpec(10))
    with pytest.raises(ValueError):
        greedy_balancing(8, mode="eager")
    with pytest.raises(CapExceededError, match=f"work {2 * 26 << 26} exceeds WORK_CAP"):
        greedy_balancing(28)
    with pytest.raises(ValueError):
        greedy_balancing(8, mode="sampled", batch=0)


@pytest.mark.parametrize("seed", [1 << 63, -(1 << 63) - 1, (1 << 64) - 1])
def test_greedy_refuses_sampled_seed_past_int64(seed: int) -> None:
    with pytest.raises(ValueError, match="outside"):
        greedy_balancing(8, mode="sampled", rng_seed=seed)
    # refused before the first step, also when no stream would be drawn
    with pytest.raises(ValueError, match="outside"):
        greedy_balancing(8, mode="sampled", rng_seed=seed, max_dim=0)


def test_greedy_sampled_seed_at_int64_ends() -> None:
    for seed in (-(1 << 63), (1 << 63) - 1):
        assert greedy_balancing(8, mode="sampled", rng_seed=seed).status == "balanced"


@pytest.mark.parametrize("r", [*range(1, 12), 19])
def test_fold_matches_index_array_definition(r: int) -> None:
    rng = np.random.default_rng(r)
    empty = rng.random(1 << r) < 0.5
    index = np.arange(empty.size)
    # at r = 19: small p with short runs of equal low bits, a large p, and a long low run
    shifts = range(1, 1 << r) if r < 12 else (1, 0b101, 0b1010101, 1 << 14 | 0b10, 0b111111111)
    for s in shifts:
        p = s.bit_length() - 1
        want = (empty & empty[index ^ s]).reshape(-1, 2, 1 << p)[:, 0, :].ravel()
        assert np.array_equal(_fold(empty, s), want), s


# the greedy builder as it ran over all 2^n words: the uncovered mask, an
# autocorrelation argmin over every candidate, a Python loop over a sample

def _word_autocorrelation_argmin(mask: np.ndarray, n: int) -> tuple[int, int]:
    v = mask.astype(np.int64)
    fwht_inplace(v)
    v *= v
    fwht_inplace(v)
    assert not (v & ((1 << n) - 1)).any()
    v >>= n
    best = int(np.argmin(v))
    return best, int(v[best])


def _word_greedy(n, lam, mode, seed, max_dim):
    batch, size = 4 * n, 1 << n
    max_dim = n if max_dim is None else max_dim
    mask = np.ones(size, dtype=bool)
    mask[thick_sphere_words(n, lam)] = False
    uncovered = np.flatnonzero(mask).astype(np.uint64)
    unc = uncovered.size
    rows = []
    trace = [GreedyStep(0, 0, unc, Fraction(unc, size))]
    while unc and len(rows) < max_dim:
        step = len(rows) + 1
        x = -1
        for attempt in range(3 if mode == "sampled" else 0):
            rng = np.random.Generator(np.random.Philox(key=[seed, step * 4 + attempt]))
            cand = rng.integers(1, size, size=batch, dtype=np.uint64)
            best_x, best_count = -1, -1
            for c in cand:
                count = int(np.count_nonzero(mask[uncovered ^ c]))
                if best_x < 0 or (count, int(c)) < (best_count, best_x):
                    best_x, best_count = int(c), count
            if best_count * size <= unc * unc:
                x = best_x
                break
        if x < 0:
            x, _ = _word_autocorrelation_argmin(mask, n)
        keep = mask[uncovered ^ np.uint64(x)]
        mask[uncovered[~keep]] = False
        uncovered = uncovered[keep]
        unc = uncovered.size
        rows.append(x)
        trace.append(GreedyStep(step, len(rows), unc, Fraction(unc, size)))
    status = "balanced" if unc == 0 else "max_dim_reached"
    return rows, tuple(trace), status


@pytest.mark.parametrize("n", range(2, 15, 2))
def test_greedy_matches_word_space_oracle(n: int) -> None:
    for lam in range(min(3, n // 2)):
        for mode in ("full_scan", "sampled"):
            for seed in (0, 1, 5):
                for max_dim in (None, 1, 2):
                    res = greedy_balancing(
                        n, BalanceSpec(n, lam), mode, rng_seed=seed, max_dim=max_dim
                    )
                    got = [w.bits for w in res.code.rows], res.trace, res.status
                    assert got == _word_greedy(n, lam, mode, seed, max_dim), (
                        lam, mode, seed, max_dim,
                    )


def test_greedy_transforms_the_cosets_of_c_plus_ones(monkeypatch) -> None:
    # the one coset_counts call, after step 1 (k = 1, 1 not in C), gets
    # n - k - 1 check rows
    seen = []

    def spy(spec, rows):
        seen.append(len(rows))
        return coset_counts(spec, rows)

    monkeypatch.setattr(constructions, "coset_counts", spy)
    for mode in ("full_scan", "sampled"):
        seen.clear()
        res = greedy_balancing(12, BalanceSpec(12, 1), mode)
        assert res.code.k >= 2
        assert seen == [10], mode


# rows and per-step uncovered counts the word-space builder gave at n = 20
GREEDY_N20 = {
    "full_scan": [1, 1022, 31774, 35942, 14],
    "sampled": [12779, 83133, 157999, 115465, 20350],
}
GREEDY_N20_UNCOVERED = [863820, 679064, 436560, 162560, 21632, 0]


@pytest.mark.parametrize("mode", sorted(GREEDY_N20))
def test_greedy_n20_pinned(mode: str) -> None:
    res = greedy_balancing(20, BalanceSpec(20), mode)
    assert res.status == "balanced"
    assert [w.bits for w in res.code.rows] == GREEDY_N20[mode]
    assert [s.uncovered_count for s in res.trace] == GREEDY_N20_UNCOVERED


def test_packed_syndrome_orders_like_coset_minimum() -> None:
    rng = np.random.default_rng(23)
    for n in range(1, 13):
        for _ in range(3):
            basis: list[int] = []
            span = {0}
            for x in rng.integers(1, 1 << n, size=int(rng.integers(0, n + 1))):
                x = int(x)
                if x in span:
                    continue
                basis, rep = _adjoin(basis, x)
                assert rep == min(x ^ c for c in span)
                span |= {c ^ x for c in span}
            pivots = [b.bit_length() - 1 for b in basis]
            # fully reduced: each pivot is set in its own row only
            assert all((b >> p & 1) == (i == j)
                       for i, b in enumerate(basis) for j, p in enumerate(pivots))
            checks = check_rows(n, basis, pivots)
            assert len(checks) == n - len(basis)
            # f plus the pivot of every row that carries f, per free f
            assert list(checks) == [
                (1 << f) | sum(1 << p for p, b in zip(pivots, basis) if b >> f & 1)
                for f in range(n) if f not in pivots
            ]

            def syndrome(words: np.ndarray) -> np.ndarray:
                return sum(
                    (np.bitwise_count(words & np.uint64(h)).astype(np.int64) & 1) << j
                    for j, h in enumerate(checks)
                ) + np.zeros(words.size, dtype=np.int64)

            words = np.arange(1 << n, dtype=np.uint64)
            syn = syndrome(words)
            for b in basis:
                assert np.array_equal(syndrome(words ^ np.uint64(b)), syn)
            values, first = np.unique(syn, return_index=True)
            # one syndrome per coset, and the first word carrying each is its
            # coset's minimum, so ascending syndromes give ascending minima
            assert values.size == 1 << len(checks)
            assert (np.diff(first) > 0).all()
            spread = [sum(h & -h for j, h in enumerate(checks) if v >> j & 1) for v in values]
            assert spread == first.tolist()


# -- committed bases ------------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 12, 16, 20, 24, 28, 32])
def test_fixture_labels(n: int) -> None:
    fx = figure1_fixture(n)
    assert fx.n == n
    assert fx.code.k == fx.k
    assert min_distance(fx.code) == fx.d


@pytest.mark.parametrize("n", [8, 12, 16])
def test_fixture_balances(n: int) -> None:
    assert is_balancing_set(figure1_fixture(n).code, BalanceSpec(n))


def test_fixture_unknown_size() -> None:
    with pytest.raises(ValueError):
        figure1_fixture(10)


def test_fixture_digest_guards_rows(monkeypatch) -> None:
    import balset.constructions as mod

    monkeypatch.setattr(mod, "_FIXTURES_SHA256", "0" * 64)
    with pytest.raises(RuntimeError):
        figure1_fixture(8)


# -- distance and bound helpers ------------------------------------------------------

def test_min_distance_brute_force() -> None:
    rng = np.random.default_rng(3)
    for _ in range(20):
        rows = [int(rng.integers(1, 1 << 10)) for _ in range(3)]
        code = LinearCode.from_ints(10, rows)
        span = [w.bits for w in enumerate_span(code)]
        expected = min((v.bit_count() for v in span if v), default=math.inf)
        assert min_distance(code) == expected
    assert min_distance(LinearCode(6, ())) == math.inf


def test_binary_entropy_values() -> None:
    assert binary_entropy(Fraction(1, 2)) == 1.0
    assert binary_entropy(0) == 0.0
    assert binary_entropy(1) == 0.0
    assert math.isclose(binary_entropy(0.25), binary_entropy(0.75))


def test_griesmer_sum() -> None:
    # [7,4,3] Hamming meets the bound with equality
    assert griesmer_sum(4, 3) == 3 + 2 + 1 + 1 == 7
    assert griesmer_sum(1, 5) == 5


def test_dimension_bounds_known_values() -> None:
    b = dimension_bounds(16)
    assert b == DimensionBounds(16, 0, 4, 4, 6, 6)
    b2 = dimension_bounds(16, 2)
    assert b2.thm1_lower == 4
    assert b2.thm7_lower == 2   # ceil(log2 (16/5))
    assert b2.thm5_upper == 5


def test_dimension_bounds_lambda_behavior() -> None:
    # the relaxed lower bound decays with lambda; the entropy-corrected
    # upper bound is not monotone (the mass-deficit term grows), so only
    # sanity-order it against the lower bounds
    prev = None
    for lam in range(0, 7):
        b = dimension_bounds(16, lam)
        assert b.thm7_lower <= b.thm1_lower
        if prev is not None:
            assert b.thm7_lower <= prev.thm7_lower
        prev = b
    assert dimension_bounds(16, 3).thm5_upper == 5
    assert dimension_bounds(16, 4).thm5_upper == 6


# thm5_upper for lam = 1, 2, ..., n/2 - 1 on the line of each even n <= 64,
# as the interval-arithmetic (mpmath) evaluation of the entropy formula
# gave them
THM5_UPPER = """
4: 3
6: 3 4
8: 4 4 6
10: 4 4 5 8
12: 5 5 5 7 9
14: 5 5 5 7 8 11
16: 5 5 5 6 8 10 13
18: 5 5 5 6 8 9 12 15
20: 6 5 5 6 7 9 11 14 17
22: 6 5 6 6 7 8 10 12 15 19
24: 6 6 6 6 7 8 10 12 14 17 21
26: 6 6 6 6 7 8 9 11 13 16 19 23
28: 6 6 6 6 7 8 9 11 13 15 17 21 25
30: 6 6 6 6 7 8 9 10 12 14 16 19 23 27
32: 7 6 6 6 7 8 9 10 11 13 15 18 21 24 29
34: 7 6 6 6 7 8 9 10 11 13 15 17 20 23 26 31
36: 7 6 6 6 7 7 8 9 11 12 14 16 19 21 24 28 33
38: 7 6 6 6 7 7 8 9 11 12 14 16 18 20 23 26 30 34
40: 7 6 6 6 7 7 8 9 10 12 13 15 17 19 22 25 28 32 36
42: 7 7 6 7 7 7 8 9 10 11 13 14 16 18 21 23 26 30 34 38
44: 7 7 6 7 7 7 8 9 10 11 12 14 16 18 20 22 25 28 32 36 40
46: 7 7 7 7 7 7 8 9 10 11 12 14 15 17 19 21 24 27 30 33 37 42
48: 7 7 7 7 7 7 8 9 10 11 12 13 15 17 19 21 23 26 28 32 35 39 44
50: 7 7 7 7 7 7 8 9 9 11 12 13 14 16 18 20 22 25 27 30 33 37 41 46
52: 8 7 7 7 7 7 8 9 9 10 11 13 14 16 17 19 21 24 26 29 32 35 39 43 48
54: 8 7 7 7 7 7 8 9 9 10 11 12 14 15 17 19 21 23 25 28 31 34 37 41 45 50
56: 8 7 7 7 7 7 8 8 9 10 11 12 14 15 16 18 20 22 24 27 29 32 35 39 43 47 52
58: 8 7 7 7 7 7 8 8 9 10 11 12 13 15 16 18 19 21 24 26 28 31 34 37 41 45 49 54
60: 8 7 7 7 7 7 8 8 9 10 11 12 13 14 16 17 19 21 23 25 27 30 33 36 39 42 46 51 56
62: 8 7 7 7 7 7 8 8 9 10 11 12 13 14 15 17 19 20 22 24 26 29 31 34 37 41 44 48 53 58
64: 8 7 7 7 7 7 8 8 9 10 11 12 13 14 15 17 18 20 22 24 26 28 30 33 36 39 42 46 50 55 60
"""


def test_thm5_upper_pinned() -> None:
    lines = [line.split(":") for line in THM5_UPPER.strip().splitlines()]
    table = {int(n): [int(v) for v in vals.split()] for n, vals in lines}
    assert sorted(table) == list(range(4, 65, 2))
    for n, values in table.items():
        got = [dimension_bounds(n, lam).thm5_upper for lam in range(1, n // 2)]
        assert got == values, n


@given(st.integers(1, 1 << 14).map(lambda v: 2 * v))
def test_dimension_bounds_ordering(n: int) -> None:
    b = dimension_bounds(n)
    # ceil(log2 n) <= ceil(1.5 log2 n), with equality only at n = 2
    assert b.thm1_lower <= b.thm2_upper
    assert b.thm1_lower == math.ceil(math.log2(n))
    assert b.thm2_upper == math.ceil(1.5 * math.log2(n))


def test_greedy_meets_bounds() -> None:
    for n in (8, 12, 16):
        res = greedy_balancing(n)
        b = dimension_bounds(n)
        assert b.thm1_lower <= res.code.k <= b.thm2_upper
