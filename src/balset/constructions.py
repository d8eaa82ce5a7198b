"""Explicit balancing-set constructions and dimension-bound formulas.

Covers the classical flip-a-prefix balancing set, the zero-extended simplex
codes and their odd cosets, s-fold repeated simplex codes, a greedy builder
that grows a subspace by halving the uncovered fraction (squaring Q at every
step), bit-exact fixture matrices for n = 8..32, and the four dimension
bounds (two lower, two upper) evaluated in exact integer arithmetic.

The greedy builder works in the syndrome space of C + <1>, 1 the all-ones
word, which leaves the same words uncovered as C because the band is
closed under complement.  It keeps the 2^(n-k-1) array of empty cosets,
indexed by a packed syndrome whose order is the order of the coset minima,
so scoring every shift costs one transform of length 2^(n-k-1) and the
smallest best generator is still the one chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf2 import LinearCode, Word, check_budget, check_rows, enumerate_span, span_array
from .balancing import (
    BalanceSpec,
    coset_counts,
    fwht_inplace,
    pair_distance_count,
    shift_overlaps,
)
from .ensemble import _check_key, trial_rng

__all__ = [
    "DimensionBounds",
    "FixtureCode",
    "GreedyResult",
    "GreedyStep",
    "KnuthSet",
    "binary_entropy",
    "dimension_bounds",
    "figure1_fixture",
    "greedy_balancing",
    "griesmer_sum",
    "knuth_balance",
    "knuth_set",
    "min_distance",
    "repeated_simplex",
    "repeated_simplex_tolerance",
    "simplex_extended",
    "verify_sum_of_squares",
]


# -- prefix-flip balancing -------------------------------------------------

@dataclass(frozen=True)
class KnuthSet:
    """The n prefix words 1^i 0^(n-i), i = 1..n; flipping a prefix of y is
    XOR with one of these."""

    n: int
    words: tuple[Word, ...]


def knuth_set(n: int) -> KnuthSet:
    if n < 2 or n % 2:
        raise ValueError(f"length must be even and >= 2, got {n}")
    return KnuthSet(n, tuple(Word(n, (1 << i) - 1) for i in range(1, n + 1)))


def knuth_balance(y: Word) -> tuple[int, Word]:
    """Smallest i >= 1 such that flipping the first i coordinates of y gives
    a balanced word.  The prefix weights step by +-1 from w(y) to n - w(y),
    so they pass through n/2."""
    n = y.n
    if n < 2 or n % 2:
        raise ValueError(f"length must be even and >= 2, got {n}")
    w = y.weight()
    for i in range(1, n + 1):
        w += -1 if (y.bits >> (i - 1)) & 1 else 1
        if w == n // 2:
            return i, Word(n, y.bits ^ ((1 << i) - 1))
    raise AssertionError("unreachable: some prefix weight always hits n/2")


# -- simplex-derived codes -------------------------------------------------

def _simplex_rows(m: int) -> tuple[int, ...]:
    """Generator rows of the zero-extended simplex code of length 2^m.

    Coordinate j (1-indexed) carries the field element 2^m - j, so the last
    coordinate carries 0 and realizes the appended zero coordinate; row i
    reads off bit i of each element.
    """
    top = 1 << m
    return tuple(
        sum(1 << c for c in range(top) if (top - 1 - c) >> i & 1)
        for i in range(m)
    )


def simplex_extended(m: int, ell: int, odd_coset: bool = False) -> LinearCode:
    """First ell generator rows of the length-2^m extended simplex code;
    with odd_coset, the weight-1 word at coordinate 1 is appended so the
    span also contains odd-weight words."""
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= m, got ell={ell}, m={m}")
    n = 1 << m
    rows = [Word(n, bits) for bits in _simplex_rows(m)[:ell]]
    if odd_coset:
        rows.append(Word(n, 1))
    return LinearCode(n, tuple(rows))


def repeated_simplex(m: int, s: int) -> LinearCode:
    """Length s*2^m code whose words are s-fold repetitions of extended
    simplex codewords; dimension m."""
    if m < 1 or s < 1:
        raise ValueError(f"need m, s >= 1, got m={m}, s={s}")
    block = 1 << m
    n = s * block
    rows = tuple(
        Word(n, sum(bits << (t * block) for t in range(s)))
        for bits in _simplex_rows(m)
    )
    return LinearCode(n, rows)


def repeated_simplex_tolerance(m: int, s: int) -> int:
    """The tolerance floor(sqrt(s*n)/2), n = s*2^m, within which the
    repeated simplex code almost-balances every word."""
    return math.isqrt(s * s << m) // 2


def verify_sum_of_squares(m: int, y: Word) -> tuple[int, bool]:
    """Evaluate sum over the M = 2^m extended-simplex codewords x of
    (M - 2 d(y, x))^2 and report whether it equals M^2 (it always does;
    the codewords' +-1 images form orthogonal rows of a Hadamard matrix)."""
    big_m = 1 << m
    if y.n != big_m:
        raise ValueError(f"word length {y.n} != 2^m = {big_m}")
    lhs = 0
    for x in enumerate_span(simplex_extended(m, m)):
        d = (y.bits ^ x.bits).bit_count()
        lhs += (big_m - 2 * d) ** 2
    return lhs, lhs == big_m * big_m


# -- greedy subspace growth ------------------------------------------------

@dataclass(frozen=True)
class GreedyStep:
    step: int
    dim: int
    uncovered_count: int
    q: Fraction

    def to_json_dict(self) -> dict:
        return {
            "step": self.step,
            "dim": self.dim,
            "q_num": self.q.numerator,
            "q_den": self.q.denominator,
        }


@dataclass(frozen=True)
class GreedyResult:
    code: LinearCode
    spec: BalanceSpec
    trace: tuple[GreedyStep, ...]
    status: str  # "balanced" or "max_dim_reached"

    @property
    def final_q(self) -> Fraction:
        return self.trace[-1].q


def _weight_scores(spec: BalanceSpec) -> np.ndarray:
    """|U . (U + x)| for the zero code, by the weight d of x.

    U is the complement of the band B, so the count is
    2^n - 2|B| + |B . (B + x)|, and |B . (B + x)| counts the words at band
    distance from both 0 and x, a function of d alone.
    """
    n = spec.n
    band = range(spec.band[0], spec.band[1] + 1)
    missed = (1 << n) - 2 * sum(math.comb(n, w) for w in band)
    return np.array(
        [
            missed + sum(pair_distance_count(n, d, i, j) for i in band for j in band)
            for d in range(n + 1)
        ],
        dtype=np.int64,
    )


def _autocorrelation(empty: np.ndarray) -> np.ndarray:
    """A[s] = |S . (S + s)| for every syndrome s, S the empty cosets: the
    XOR autocorrelation, one transform pair for all shifts at once."""
    r = empty.size.bit_length() - 1
    v = empty.astype(np.int32)  # |transform| <= 2^r; the greedy budget keeps r <= 24
    fwht_inplace(v)
    v = np.multiply(v, v, dtype=np.int64)
    fwht_inplace(v)
    if np.bitwise_or.reduce(v) & ((1 << r) - 1):
        raise RuntimeError(f"autocorrelation: a value is not divisible by 2^{r}")
    v >>= r
    return v


def _adjoin(basis: list[int], x: int) -> tuple[list[int], int]:
    """Add x, outside the span, to a fully reduced basis whose pivots are
    the rows' top bits.  Returns the new basis and x's coset minimum (x with
    every pivot cleared), which becomes its row; the old rows are reduced by
    it, which keeps their pivots since its top bit lies below them."""
    for b in basis:
        if x >> b.bit_length() - 1 & 1:
            x ^= b
    top = x.bit_length() - 1
    return [b ^ x if b >> top & 1 else b for b in basis] + [x], x


def _fold(empty: np.ndarray, s: int) -> np.ndarray:
    """empty[i] & empty[i ^ s] for every i with bit p of i clear, p the top
    bit of s: the cosets whose minimum has that bit clear and that stay
    empty.  The partner of such an i lies in the half with bit p set, at
    the low bits of i XOR those of s.  With one axis per low bit, that XOR
    reverses the axes of the bits set in s, so the partners are one np.flip
    view of that half (numpy merges adjacent axes back into long runs)."""
    p = s.bit_length() - 1
    shape = (-1,) + (2,) * p  # axis 1 + j holds bit p - 1 - j
    halves = empty.reshape(-1, 2, 1 << p)
    partner = np.flip(
        halves[:, 1, :].reshape(shape), [p - t for t in range(p) if s >> t & 1]
    )
    return np.logical_and(halves[:, 0, :].reshape(shape), partner).ravel()


def greedy_balancing(
    n: int,
    spec: BalanceSpec | None = None,
    mode: str = "full_scan",
    *,
    batch: int | None = None,
    rng_seed: int = 0,
    max_dim: int | None = None,
) -> GreedyResult:
    """Grow a subspace one generator at a time until it covers everything.

    Each accepted generator x satisfies the squaring condition
    uncovered(C + Fx) * 2^n <= uncovered(C)^2; averaging over all x shows a
    witness always exists, so full_scan mode (exact minimum over all 2^n
    candidates, ties to the smallest x) cannot stall.  sampled mode scores
    `batch` random nonzero candidates per attempt, accepts the best (ties to
    the smallest candidate) if it satisfies the squaring condition, and
    falls back to a full scan after 3 failed batches.  Terminates with
    status "balanced" at Q = 0, or "max_dim_reached".

    The work runs in the syndrome space of C + <1>, 1 the all-ones word:
    the band is closed under complement, so the uncovered set U satisfies
    U + 1 = U, and C + <1> has the same uncovered words as C.  Its basis
    starts at 1 and is kept fully reduced with each row's pivot at its
    highest bit, so the coset minimum of y is the representative with
    zeros at every pivot; the syndrome packs its free bits in ascending
    order, which keeps the order of coset minima.  With S' the set of
    empty (uncovered) cosets and k' the dimension of C + <1>,
    |U . (U + x)| = 2^k' |S' . (S' + s)| for the syndrome s of x, so a
    full scan is one 2^(n-k') autocorrelation whose argmin spreads back to
    the smallest best x (every x shares its score with its coset minimum,
    which is no larger), and a sample is scored by counting S' . (S' + s)
    directly for each candidate.  At the first step the score depends on
    the weight of x alone and comes in closed form.  After a step S' keeps
    the cosets that stay empty, folded onto the 2^(n-k'-1) syndromes of
    the larger code.  An accepted x never lies in C + <1>, whose members
    score |U|, so 1 never joins C.

    The largest step transforms 2^(n-2) syndromes twice, so the work is
    budgeted at 2(n-2) 2^(n-2) touches and 13 bytes per syndrome (the
    empty set, the int32 and int64 transforms), checked before the first
    step.  Sampled mode draws from trial_rng(rng_seed, 4 step + attempt)
    and refuses an rng_seed outside the int64 range before the first step.
    """
    if spec is None:
        spec = BalanceSpec(n)
    if spec.n != n:
        raise ValueError(f"spec length {spec.n} != n = {n}")
    if mode not in ("full_scan", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    check_budget("greedy_balancing", 2 * (n - 2) << (n - 2), 13 << (n - 2))
    if batch is None:
        batch = 4 * n
    if mode == "sampled" and batch < 1:
        raise ValueError(f"sampled mode needs batch >= 1, got {batch}")
    if mode == "sampled":
        _check_key(rng_seed)
    if max_dim is None:
        max_dim = n
    if max_dim < 0:
        raise ValueError(f"max_dim must be >= 0, got {max_dim}")

    size = 1 << n
    by_weight = _weight_scores(spec)
    unc = int(by_weight[0])
    rows: list[Word] = []
    # C + <1>, fully reduced, each pivot the row's top bit
    basis: list[int] = [size - 1]
    empty = np.zeros(0, dtype=bool)  # S', indexed by packed syndrome
    trace = [GreedyStep(0, 0, unc, Fraction(unc, size))]

    while unc and len(rows) < max_dim:
        step = len(rows) + 1
        k = len(basis)
        # check h has the free coordinate f and the pivots of the rows that
        # carry f, all above f: h & -h is f, and y's syndrome bit for h is
        # bit f of y's coset minimum
        checks = check_rows(n, basis, [b.bit_length() - 1 for b in basis])
        x = -1
        for attempt in range(3 if mode == "sampled" else 0):
            cand = trial_rng(rng_seed, step * 4 + attempt).integers(
                1, size, size=batch, dtype=np.uint64
            )
            if not rows:
                counts = by_weight[np.bitwise_count(cand)]
            else:
                syn = sum(
                    (np.bitwise_count(cand & np.uint64(h)).astype(np.int64) & 1) << j
                    for j, h in enumerate(checks)
                )
                counts = shift_overlaps(empty, syn) << k
            best = np.lexsort((cand, counts))[0]
            if int(counts[best]) * size <= unc * unc:
                x, new_unc = int(cand[best]), int(counts[best])
                break
        if x < 0 and not rows:
            d = int(np.argmin(by_weight))
            x, new_unc = (1 << d) - 1, int(by_weight[d])
        elif x < 0:
            a = _autocorrelation(empty)
            s = int(np.argmin(a))
            x = sum(h & -h for j, h in enumerate(checks) if s >> j & 1)
            new_unc = int(a[s]) << k
        assert new_unc * size <= unc * unc, "squaring condition violated"

        basis, rep = _adjoin(basis, x)
        if not rows:
            pivots = [b.bit_length() - 1 for b in basis]
            empty = coset_counts(spec, check_rows(n, basis, pivots)) == 0
        else:
            s = sum(1 << j for j, h in enumerate(checks) if rep & h & -h)
            empty = _fold(empty, s)
        unc = int(np.count_nonzero(empty)) << len(basis)
        assert unc == new_unc
        rows.append(Word(n, x))
        trace.append(GreedyStep(step, len(rows), unc, Fraction(unc, size)))

    status = "balanced" if unc == 0 else "max_dim_reached"
    return GreedyResult(LinearCode(n, tuple(rows)), spec, tuple(trace), status)


# -- fixture matrices (n = 8..32) -------------------------------------------

_FIXTURES: dict[int, tuple[int, int, tuple[str, ...]]] = {
    8: (3, 3, (
        "00001111",
        "01110010",
        "10001100",
    )),
    12: (4, 5, (
        "000000111111",
        "000111001110",
        "101001011100",
        "111100001000",
    )),
    16: (5, 7, (
        "0000000011111111",
        "0001111100001110",
        "0110011101111100",
        "1101011011001000",
        "1111111100010000",
    )),
    20: (5, 9, (
        "00000000001111111111",
        "00000111110000111110",
        "01111001110111001100",
        "11100101101100101000",
        "11010111010010010000",
    )),
    24: (6, 9, (
        "000000000000111111111111",
        "000000011111000000111110",
        "000111100111001111011100",
        "001001111011110011111000",
        "111111110100000000010000",
        "110101011010100000100000",
    )),
    28: (6, 11, (
        "0000000000000011111111111111",
        "0000000111111100000011111110",
        "0001111000111100111100111100",
        "0010011011001111001111111000",
        "1111110110111000000000010000",
        "1011011101100110000000100000",
    )),
    32: (7, 13, (
        "00000000000000001111111111111111",
        "00000000011111110000000011111110",
        "00000111100000110000011101111100",
        "01110011001001010101110110101000",
        "01101110100101011111011010110000",
        "10110111000111000110111001100000",
        "10100100100000011101111101000000",
    )),
}

_FIXTURES_SHA256 = "9e57862bf4ab823eb6bdc19754c7abf65a4c10cebf967d6b4e73faa86e0a098f"


@dataclass(frozen=True)
class FixtureCode:
    """A committed generator matrix with its labeled parameters; the labels
    are re-derived in tests, never trusted."""

    code: LinearCode
    k: int
    d: int

    @property
    def n(self) -> int:
        return self.code.n


def _fixture_digest() -> str:
    import hashlib

    blob = "\n".join(
        f"{n}:{k}:{d}:" + ",".join(rows)
        for n, (k, d, rows) in sorted(_FIXTURES.items())
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def figure1_fixture(n: int) -> FixtureCode:
    """The committed [n, k, d] basis for n in {8, 12, 16, 20, 24, 28, 32}."""
    if n not in _FIXTURES:
        raise ValueError(f"no fixture for n={n}; have {sorted(_FIXTURES)}")
    if _fixture_digest() != _FIXTURES_SHA256:
        raise RuntimeError("fixture tables corrupted: checksum mismatch")
    k, d, rows = _FIXTURES[n]
    return FixtureCode(LinearCode.from_strings(rows), k, d)


def min_distance(code: LinearCode) -> int | float:
    """Minimum weight over nonzero codewords; infinity for the zero code."""
    if code.k == 0:
        return math.inf
    # span_array index 0 is the zero word; skip it
    return int(np.bitwise_count(span_array(code)[1:]).min())


# -- dimension bounds --------------------------------------------------------

def binary_entropy(p: float | Fraction) -> float:
    if not 0 <= p <= 1:
        raise ValueError(f"entropy argument {p} outside [0, 1]")
    if p in (0, 1):
        return 0.0
    p = float(p)
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def griesmer_sum(k: int, d: int) -> int:
    """Sum of ceil(d / 2^i) for i < k, the classical length lower bound."""
    if k < 1 or d < 1:
        raise ValueError(f"need k, d >= 1, got k={k}, d={d}")
    return sum(-(-d // (1 << i)) for i in range(k))


@dataclass(frozen=True)
class DimensionBounds:
    """ceil(log2 n) and ceil(log2 n - log2(2*lam+1)) from the averaging
    lower-bound arguments; ceil(3/2 log2 n) from the greedy construction;
    and the entropy-corrected upper bound for lam > 0."""

    n: int
    lam: int
    thm1_lower: int
    thm7_lower: int
    thm2_upper: int
    thm5_upper: int


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def _min_pow(base_mul: int, target: int, step: int) -> int:
    """Smallest e >= 0 with base_mul * 2^(step*e) >= target."""
    e = 0
    while base_mul << (step * e) < target:
        e += 1
    return e


def _entropy_upper(n: int, lam: int) -> int:
    """ceil((3/2) log2 n - log2(2 lam + 1) + n (1 - H(1/2 - lam/n))), in
    integers: with a = n/2 - lam and b = n/2 + lam, n (1 - H(a/n)) equals
    n + log2(a^a b^b) - n log2 n, so this is the least e >= 0 with
    4^e (2 lam + 1)^2 n^(2n) >= n^3 4^n (a^a b^b)^2."""
    a, b = n // 2 - lam, n // 2 + lam
    return _min_pow((2 * lam + 1) ** 2 * n ** (2 * n), n**3 * 4**n * (a**a * b**b) ** 2, 2)


def dimension_bounds(n: int, lam: int = 0) -> DimensionBounds:
    spec = BalanceSpec(n, lam)  # validates parity and tolerance range
    thm1 = _ceil_log2(n)
    thm7 = _min_pow(2 * lam + 1, n, 1)
    # ceil((3/2) log2 n) == min k with 4^k >= n^3, exactly
    thm2 = _min_pow(1, n**3, 2)
    thm5 = thm2 if lam == 0 else _entropy_upper(n, lam)
    return DimensionBounds(spec.n, spec.lam, thm1, thm7, thm2, thm5)
