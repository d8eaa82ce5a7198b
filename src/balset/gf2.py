"""GF(2) words, linear codes, and generator-matrix utilities.

A word of length n lives in F_2^n and is stored as a Python integer:
coordinate j (1-based) sits at bit position j - 1, so coordinate 1 is the
least-significant bit.  Text renderings (and the matrix file format) put
coordinate 1 leftmost.  Integers are arbitrary precision, so n is only
limited by the budgets of the exhaustive algorithms built on top.

Every array path states its cost up front, from (n, k, r, lam) and
binomials, and passes it to `check_budget` before it allocates: WORK_CAP
bounds the element touches of one call, BYTES_CAP the bytes it holds at
once.  Words packed into uint64 also need n <= PACKED_N_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "BYTES_CAP",
    "CapExceededError",
    "LinearCode",
    "PACKED_N_CAP",
    "WORK_CAP",
    "Word",
    "check_budget",
    "check_packed",
    "distance",
    "enumerate_span",
    "load_generator_matrix",
    "parse_generator_matrix",
    "row_reduce",
    "bulk_syndromes",
    "parity_limb_tables",
    "save_generator_matrix",
    "span_array",
    "syndrome_bits",
    "syndrome_tables",
    "weight",
    "weight_words",
    "weight_words_chunks",
    "xor_span",
]

WORK_CAP = 1 << 31   # element touches of one call
BYTES_CAP = 1 << 30  # bytes one call holds at once
PACKED_N_CAP = 64    # words packed into one uint64


class CapExceededError(ValueError):
    """An operation was asked to do more work, or hold more bytes, than its
    budget allows; raised before the work starts."""


def check_budget(what: str, work: int = 0, nbytes: int = 0) -> None:
    """Refuse `what` when its estimated work or bytes exceed WORK_CAP or
    BYTES_CAP; the message names the budget and the estimate."""
    if work > WORK_CAP:
        raise CapExceededError(
            f"{what}: estimated work {work} exceeds WORK_CAP = {WORK_CAP}"
        )
    if nbytes > BYTES_CAP:
        raise CapExceededError(
            f"{what}: estimated {nbytes} bytes exceed BYTES_CAP = {BYTES_CAP}"
        )


def check_packed(what: str, n: int, bits: int = PACKED_N_CAP) -> None:
    """Refuse `what` when words of length n do not fit `bits`-bit integers."""
    if n > bits:
        raise CapExceededError(f"{what} packs words in {bits} bits: n <= {bits}, got n = {n}")


@dataclass(frozen=True)
class Word:
    """An element of F_2^n.

    Attributes:
        n: number of coordinates.
        bits: packed value; bit j - 1 stores coordinate j.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative word length {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits 0x{self.bits:x} out of range for length {self.n}")

    @classmethod
    def from_string(cls, text: str) -> "Word":
        """Parse a '0'/'1' string, leftmost character = coordinate 1."""
        if text and set(text) - {"0", "1"}:
            raise ValueError(f"illegal characters in row {text!r}")
        return cls(len(text), int(text[::-1], 2) if text else 0)

    def weight(self) -> int:
        return self.bits.bit_count()

    def __xor__(self, other: "Word") -> "Word":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        return Word(self.n, self.bits ^ other.bits)

    # addition over F_2 is XOR
    __add__ = __xor__

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b")[::-1] if self.n else ""


def weight(w: Word) -> int:
    """Hamming weight of a word."""
    return w.weight()


def distance(a: Word, b: Word) -> int:
    """Hamming distance; equals weight(a + b)."""
    return (a + b).weight()


def row_reduce(rows: Iterable[Word]) -> tuple[tuple[Word, ...], int]:
    """Bring generator rows to reduced row-echelon form.

    The pivot of a row is its lowest-index set coordinate; pivots come out
    strictly ascending and each pivot coordinate is set in exactly one basis
    row, so the output is the canonical RREF of the row space (idempotent,
    independent of input order up to that canonical form).

    Returns:
        (basis, rank): basis rows sorted by ascending pivot, and their count.
    """
    rows = tuple(rows)
    if not rows:
        return (), 0
    n = rows[0].n
    for r in rows:
        if r.n != n:
            raise ValueError(f"row length mismatch: {r.n} != {n}")
    basis, pivots = _reduce_ints([r.bits for r in rows])
    return tuple(Word(n, b) for b in basis), len(basis)


def _reduce_ints(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """RREF on integer-packed rows; returns (basis, pivots), both ascending.

    The basis is held as a dict from pivot bit to row, plus the OR of the
    pivot bits.  Each pivot is set in its own row only, so an incoming row
    is reduced by exactly the pivots it carries (row & pivmask, lowest
    first), and no other basis row is looked at.
    """
    rowof: dict[int, int] = {}
    pivmask = 0
    for row in rows:
        hit = row & pivmask
        while hit:
            low = hit & -hit
            row ^= rowof[low]
            hit ^= low
        if row == 0:
            continue
        low = row & -row
        # clear the new pivot coordinate from the rows already in the basis
        for bit, b in rowof.items():
            if b & low:
                rowof[bit] = b ^ row
        rowof[low] = row
        pivmask |= low
    order = sorted(rowof)
    return [rowof[bit] for bit in order], [bit.bit_length() - 1 for bit in order]


@dataclass(frozen=True)
class LinearCode:
    """A binary linear code presented by (possibly dependent) generator rows.

    The original rows are retained verbatim; dimension claims always go
    through the row-reduced basis.
    """

    n: int
    rows: tuple[Word, ...]

    def __post_init__(self) -> None:
        for r in self.rows:
            if r.n != self.n:
                raise ValueError(f"row length {r.n} != code length {self.n}")

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "LinearCode":
        words = tuple(Word.from_string(r) for r in rows)
        if not words:
            return cls(0, ())
        return cls(words[0].n, words)

    @classmethod
    def from_ints(cls, n: int, rows: Iterable[int]) -> "LinearCode":
        return cls(n, tuple(Word(n, b) for b in rows))

    @cached_property
    def _reduced(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        basis, pivots = _reduce_ints([r.bits for r in self.rows])
        return tuple(basis), tuple(pivots)

    @property
    def basis(self) -> tuple[Word, ...]:
        return tuple(Word(self.n, b) for b in self._reduced[0])

    @property
    def pivots(self) -> tuple[int, ...]:
        """Pivot coordinates (0-based bit positions) of the RREF basis."""
        return self._reduced[1]

    @property
    def k(self) -> int:
        return len(self._reduced[0])

    def reduce_bits(self, bits: int) -> int:
        """Canonical coset representative: XOR out every matching pivot."""
        for p, b in zip(self._reduced[1], self._reduced[0]):
            if (bits >> p) & 1:
                bits ^= b
        return bits

    def contains(self, w: Word) -> bool:
        if w.n != self.n:
            raise ValueError(f"length mismatch: {w.n} != {self.n}")
        return self.reduce_bits(w.bits) == 0

    def extended(self, x: Word) -> "LinearCode":
        """The code C + Fx (rows keep their order, x appended)."""
        if x.n != self.n:
            raise ValueError(f"length mismatch: {x.n} != {self.n}")
        return LinearCode(self.n, self.rows + (x,))

    @cached_property
    def dual_rows(self) -> tuple[int, ...]:
        """A basis of the dual code (words orthogonal to every codeword),
        as integers.

        One dual row per non-pivot coordinate f, ascending: bit f set, plus
        the pivot of every basis row that carries a 1 at f.  Built by
        walking each basis row's set non-pivot bits once.
        """
        basis, pivots = self._reduced
        carried = [0] * self.n  # carried[f]: the pivots of the rows with f
        for p, b in zip(pivots, basis):
            rest = b ^ (1 << p)
            while rest:
                low = rest & -rest
                carried[low.bit_length() - 1] |= 1 << p
                rest ^= low
        taken = sum(1 << p for p in pivots)
        return tuple(
            carried[f] | 1 << f for f in range(self.n) if not taken >> f & 1
        )

    def dual_basis(self) -> tuple[Word, ...]:
        """dual_rows as words."""
        return tuple(Word(self.n, h) for h in self.dual_rows)


def _check_span(what: str, k: int) -> None:
    """The check span_array and enumerate_span share: 2^k words, budgeted
    at 16 bytes each, the span and one word array of its length derived
    from it."""
    check_budget(what, 1 << k, 16 << k)


def enumerate_span(code: LinearCode) -> Iterator[Word]:
    """Yield all 2^k codewords, successive words differing by one basis row.

    Walks the basis combinations in reflected Gray order so each step is a
    single XOR.
    """
    basis = [b.bits for b in code.basis]
    k = len(basis)
    _check_span("enumerate_span", k)
    acc = 0
    yield Word(code.n, 0)
    for i in range(1, 1 << k):
        acc ^= basis[(i & -i).bit_length() - 1]
        yield Word(code.n, acc)


def xor_span(values: list[int], dtype: type = np.uint64) -> np.ndarray:
    """XOR of every subset of values, indexed by the subset's bit mask;
    every value must fit the unsigned dtype.  The 2^len(values) results are
    allocated once, and the i-th doubling XORs the first 2^i of them with
    values[i] into the next 2^i."""
    width = max(values, default=0).bit_length()
    check_packed("xor_span", width, 8 * np.dtype(dtype).itemsize)
    out = np.empty(1 << len(values), dtype=dtype)
    out[0] = 0
    for i, v in enumerate(values):
        np.bitwise_xor(out[: 1 << i], dtype(v), out=out[1 << i : 2 << i])
    return out


def span_array(code: LinearCode) -> np.ndarray:
    """All 2^k codewords as a uint64 array (binary-counter order)."""
    check_packed("span_array", code.n)
    _check_span("span_array", code.k)
    return xor_span([b.bits for b in code.basis])


def syndrome_bits(code: LinearCode, bits: int) -> int:
    """Syndrome of a word w.r.t. the code's dual basis: bit j is the parity
    of the overlap with dual row j; zero exactly on codewords."""
    return sum(
        ((h & bits).bit_count() & 1) << j for j, h in enumerate(code.dual_rows)
    )


def parity_limb_tables(rows: Iterable[int], n: int) -> list[np.ndarray]:
    """Per-16-bit-limb lookup tables for bulk parity checks against `rows`.

    tables[i][v] is the check-bit contribution of limb i holding value v
    (bit j = parity of the overlap with rows[j]), so the full check vector
    of a word array is the XOR of one table lookup per limb.
    """
    rows = list(rows)
    if len(rows) > 32:
        raise CapExceededError(f"check width {len(rows)} exceeds 32 bits")
    col_syn = [
        sum(((h >> c) & 1) << j for j, h in enumerate(rows)) for c in range(n)
    ]
    return [
        xor_span(col_syn[limb : limb + 16], np.uint32)
        for limb in range(0, n, 16)
    ]


def syndrome_tables(code: LinearCode) -> tuple[list[np.ndarray], int]:
    """parity_limb_tables against the code's dual basis, plus the syndrome
    width r = n - k."""
    duals = code.dual_rows
    return parity_limb_tables(duals, code.n), len(duals)


def bulk_syndromes(tables: list[np.ndarray], words: np.ndarray) -> np.ndarray:
    """Apply syndrome_tables output to a uint64 word array."""
    mask = np.uint64(0xFFFF)
    syn = tables[0][words & mask]
    for limb in range(1, len(tables)):
        syn ^= tables[limb][(words >> np.uint64(16 * limb)) & mask]
    return syn


def parse_generator_matrix(text: str) -> LinearCode:
    """Parse the shared matrix format: '0'/'1' rows, '#' comment lines."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if set(line) - {"0", "1"}:
            raise ValueError(f"line {lineno}: illegal characters in {line!r}")
        rows.append(line)
    if not rows:
        return LinearCode(0, ())
    width = len(rows[0])
    for lineno, r in enumerate(rows, start=1):
        if len(r) != width:
            raise ValueError(f"ragged matrix: row of length {len(r)} vs {width}")
    return LinearCode.from_strings(rows)


def load_generator_matrix(path) -> LinearCode:
    with open(path, "r", encoding="ascii") as fh:
        return parse_generator_matrix(fh.read())


def save_generator_matrix(
    code: LinearCode | Iterable[Word], path, header: str | Iterable[str] | None = None
) -> None:
    """Write rows in the shared matrix format (round-trips bit-exactly)."""
    rows = code.rows if isinstance(code, LinearCode) else tuple(code)
    with open(path, "w", encoding="ascii") as fh:
        if header:
            lines = header.splitlines() if isinstance(header, str) else header
            for line in lines:
                fh.write(f"# {line}\n")
        for r in rows:
            fh.write(f"{r}\n")


# ---------------------------------------------------------------------------
# constant-weight enumeration
#
# Words of fixed weight w are produced in ascending integer order with a
# lane-parallel Gosper step: the rank range is split into lanes, each lane
# start is unranked combinatorially, and all lanes advance one word per
# vectorized step.  This keeps generation fast without materializing more
# than a chunk at a time.

def _unrank_weight_word(n: int, w: int, rank: int) -> int:
    """The rank-th (0-based) smallest n-bit integer with w bits set."""
    bits = 0
    for p in range(n - 1, -1, -1):
        if w == 0:
            break
        c = math.comb(p, w)
        if c <= rank:
            bits |= 1 << p
            rank -= c
            w -= 1
    return bits


def _gosper_step(v: np.ndarray) -> np.ndarray:
    """Next same-weight word for every lane (none may be at the last word)."""
    c = v & (~v + np.uint64(1))
    r = v + c
    shift = np.bitwise_count(c - np.uint64(1)) + np.uint64(2)
    return r | ((v ^ r) >> shift)


def weight_words_chunks(n: int, w: int, chunk: int = 1 << 22) -> Iterator[np.ndarray]:
    """Yield all C(n, w) weight-w words in ascending order, chunk by chunk."""
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} out of range for length {n}")
    check_packed("weight_words_chunks", n)
    total = math.comb(n, w)
    done = 0
    while done < total:
        cnt = min(chunk, total - done)
        yield _fill_weight_words(n, w, done, cnt)
        done += cnt


def weight_words(n: int, w: int) -> np.ndarray:
    """All C(n, w) weight-w words of length n, ascending (uint64)."""
    if not 0 <= w <= n:
        raise ValueError(f"weight {w} out of range for length {n}")
    check_packed("weight_words", n)
    check_budget("weight_words", nbytes=8 * math.comb(n, w))
    return _fill_weight_words(n, w, 0, math.comb(n, w))


def _fill_weight_words(n: int, w: int, start_rank: int, count: int) -> np.ndarray:
    out = np.empty(count, dtype=np.uint64)
    if count == 0:
        return out
    if w == 0:
        out[0] = 0
        return out
    lanes = min(count, 4096)
    bounds = [start_rank + (count * i) // lanes for i in range(lanes + 1)]
    v = np.array([_unrank_weight_word(n, w, b) for b in bounds[:-1]], dtype=np.uint64)
    pos = np.array(bounds[:-1], dtype=np.int64) - start_rank
    remaining = np.diff(bounds)
    step = 0
    max_len = int(remaining.max())
    while step < max_len:
        active = remaining > step
        out[pos[active] + step] = v[active]
        # advance only lanes that still need another word after this one
        more = remaining > step + 1
        if more.any():
            v[more] = _gosper_step(v[more])
        step += 1
    return out
