"""Error-correcting codec over balanced codewords.

The code is a validated direct sum C' (+) C'': messages map to C', and a
per-message exhaustive search over C'' picks the translate that balances
the output.  Decoding enumerates C'' around a bounded-distance syndrome
decoder for C' and keeps the globally closest candidate, which makes the
round trip provably correct up to half the minimum distance of the
balanced subcode.  Volume-bound calculators for parameter planning are
included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .constructions import min_distance
from .gf2 import (
    LinearCode,
    Word,
    bulk_syndromes,
    check_budget,
    enumerate_span,
    load_generator_matrix,
    row_reduce,
    save_generator_matrix,
    span_array,
    syndrome_bits,
    syndrome_tables,
    weight_words_chunks,
)

__all__ = [
    "BalancingSearchError",
    "BoundReport",
    "Codec",
    "DecodeResult",
    "SyndromeTable",
    "balanced_subcode_min_distance",
    "bounds",
    "build_codec",
    "decode",
    "encode",
    "hamming_volume",
    "load_codec",
    "save_codec",
]


class BalancingSearchError(RuntimeError):
    """No translate balances this message; replace the balancing component."""


@dataclass(frozen=True)
class SyndromeTable:
    """Bounded-distance decoder for a linear code: maps every syndrome
    (gf2.syndrome_bits) of a weight <= radius error to its unique
    minimum-weight coset leader."""

    code: LinearCode
    radius: int
    leaders: np.ndarray
    filled: np.ndarray

    def leader(self, syndrome: int) -> int | None:
        """Coset leader for this syndrome, or None beyond the radius."""
        if not self.filled[syndrome]:
            return None
        return int(self.leaders[syndrome])


def _build_syndrome_table(code: LinearCode, radius: int) -> SyndromeTable:
    """The leaders are unique within the radius, so the words scanned
    number at most 2^r; the table holds 9 bytes per syndrome."""
    n, r = code.n, code.n - code.k
    check_budget("syndrome table", nbytes=9 << r)
    tables, _ = syndrome_tables(code)
    leaders = np.zeros(1 << r, dtype=np.uint64)
    filled = np.zeros(1 << r, dtype=bool)
    for w in range(radius + 1):
        for chunk in weight_words_chunks(n, w):
            syn = bulk_syndromes(tables, chunk).astype(np.int64)
            uniq, first = np.unique(syn, return_index=True)
            new = ~filled[uniq]
            leaders[uniq[new]] = chunk[first[new]]
            filled[uniq[new]] = True
    return SyndromeTable(code, radius, leaders, filled)


@dataclass(frozen=True)
class Codec:
    """Immutable direct-sum codec; build via build_codec."""

    n: int
    cprime: LinearCode
    cbal: LinearCode
    t_prime: int
    strict_balance: bool
    d_prime: int
    table: SyndromeTable

    @property
    def k_prime(self) -> int:
        return self.cprime.k

    @property
    def k_bal(self) -> int:
        return self.cbal.k


def build_codec(
    gprime: LinearCode,
    gbal: LinearCode,
    t_prime: int | None = None,
    strict: bool = True,
) -> Codec:
    """Validate the direct sum and attach the component decoder.

    t_prime defaults to the full bounded-distance radius (d' - 1) / 2 of
    the information component; larger values are rejected because the
    leader table is only unambiguous up to that radius.
    """
    if gprime.n != gbal.n:
        raise ValueError(f"length mismatch: {gprime.n} != {gbal.n}")
    n = gprime.n
    if n % 2:
        raise ValueError(f"length must be even, got {n}")
    stacked, rank = row_reduce(gprime.basis + gbal.basis)
    if rank != gprime.k + gbal.k:
        raise ValueError(
            f"components intersect nontrivially: rank {rank} < {gprime.k} + {gbal.k}"
        )
    if gprime.k == 0:
        raise ValueError("information component must have positive dimension")
    d_prime = min_distance(gprime)
    limit = (d_prime - 1) // 2
    if t_prime is None:
        t_prime = limit
    if not 0 <= t_prime <= limit:
        raise ValueError(
            f"correction radius {t_prime} exceeds (d' - 1)/2 = {limit}"
        )
    table = _build_syndrome_table(gprime, t_prime)
    return Codec(n, gprime, gbal, t_prime, strict, d_prime, table)


def _message_to_codeword(codec: Codec, u: int) -> int:
    if not 0 <= u < 1 << codec.k_prime:
        raise ValueError(f"message {u} out of range for k' = {codec.k_prime}")
    bits = 0
    for i, row in enumerate(codec.cprime.basis):
        if u >> i & 1:
            bits ^= row.bits
    return bits


def _codeword_to_message(codec: Codec, bits: int) -> int:
    # RREF basis rows are 1 at their own pivot and 0 at the others', so the
    # coefficient of row i is just the bit at pivot i
    return sum(
        (bits >> p & 1) << i for i, p in enumerate(codec.cprime.pivots)
    )


def encode(codec: Codec, u: int) -> Word:
    """Codeword for message u, translated into balance by the best element
    of the balancing component (smallest weight deviation, then smallest
    translate as an integer).  In strict mode a nonzero deviation raises
    BalancingSearchError instead."""
    n = codec.n
    c = _message_to_codeword(codec, u)
    best_dev, best_x = None, None
    for x in enumerate_span(codec.cbal):
        dev = abs(2 * (c ^ x.bits).bit_count() - n)
        if best_dev is None or (dev, x.bits) < (best_dev, best_x):
            best_dev, best_x = dev, x.bits
    if codec.strict_balance and best_dev:
        raise BalancingSearchError(
            f"message {u}: no translate reaches weight {n // 2}"
        )
    return Word(n, c ^ best_x)


@dataclass(frozen=True)
class DecodeResult:
    message: int
    error_weight: int
    codeword: Word
    component_calls: int


def decode(codec: Codec, y: Word) -> DecodeResult | None:
    """Try the component decoder on y + x for every x in the balancing
    component; keep the candidate minimizing (distance to y, candidate as
    integer).  Strict codecs only accept balanced candidates, which makes
    the result provably correct whenever the channel flipped at most
    min(t', (d_bal - 1)/2) bits.  Returns None when every attempt fails.
    """
    if y.n != codec.n:
        raise ValueError(f"length mismatch: {y.n} != {codec.n}")
    n, half = codec.n, codec.n // 2
    table = codec.table
    calls = 0
    best: tuple[int, int, int] | None = None
    for x in enumerate_span(codec.cbal):
        calls += 1
        shifted = y.bits ^ x.bits
        leader = table.leader(syndrome_bits(table.code, shifted))
        if leader is None:
            continue
        candidate = y.bits ^ leader  # equals (shifted ^ leader) ^ x.bits
        if codec.strict_balance and candidate.bit_count() != half:
            continue
        key = (leader.bit_count(), candidate, shifted ^ leader)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    dist, candidate, information_part = best
    u = _codeword_to_message(codec, information_part)
    return DecodeResult(u, dist, Word(n, candidate), calls)


def balanced_subcode_min_distance(codec: Codec) -> int | float:
    """Minimum pairwise distance among the balanced codewords of the full
    direct sum; infinity when fewer than two codewords are balanced."""
    full = LinearCode(codec.n, codec.cprime.rows + codec.cbal.rows)
    words = span_array(full)
    balanced = words[np.bitwise_count(words) == codec.n // 2]
    if balanced.size < 2:
        return math.inf
    check_budget("balanced pairs", balanced.size**2 // 2)
    best = codec.n + 1
    for i in range(balanced.size - 1):
        d = int(np.bitwise_count(balanced[i + 1 :] ^ balanced[i]).min())
        best = min(best, d)
    return best


def hamming_volume(n: int, t: int) -> int:
    """V(n, t): number of words within distance t of a fixed center."""
    if not 0 <= t <= n:
        raise ValueError(f"radius {t} out of range for length {n}")
    return sum(math.comb(n, i) for i in range(t + 1))


@dataclass(frozen=True)
class BoundReport:
    """Existence premise and decoding-failure bound for the parameters:
    gv_premise_holds is 2^k' V(n, d'-1) <= 2^n; failure_bound is
    2^k'' V(n, d-1) / V(n, d'-1), both in exact arithmetic."""

    n: int
    k_prime: int
    d: int
    d_prime: int
    k_bal: int
    gv_premise_holds: bool
    failure_bound: Fraction


def bounds(n: int, k_prime: int, d: int, d_prime: int, k_bal: int) -> BoundReport:
    if not 1 <= d <= d_prime <= n:
        raise ValueError(f"need 1 <= d <= d' <= n, got d={d}, d'={d_prime}, n={n}")
    if k_prime < 0 or k_bal < 0:
        raise ValueError("dimensions must be nonnegative")
    premise = (1 << k_prime) * hamming_volume(n, d_prime - 1) <= 1 << n
    fail = Fraction(
        (1 << k_bal) * hamming_volume(n, d - 1), hamming_volume(n, d_prime - 1)
    )
    return BoundReport(n, k_prime, d, d_prime, k_bal, premise, fail)


def save_codec(codec: Codec, directory: str | Path, stem: str = "codec") -> Path:
    """Persist as two matrix files plus a JSON manifest; returns the
    manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cprime_file = f"{stem}_cprime.txt"
    cbal_file = f"{stem}_cbal.txt"
    save_generator_matrix(codec.cprime, directory / cprime_file)
    save_generator_matrix(codec.cbal, directory / cbal_file)
    manifest = {
        "n": codec.n,
        "k_prime": codec.k_prime,
        "k_bal": codec.k_bal,
        "t_prime": codec.t_prime,
        "strict": codec.strict_balance,
        "cprime_file": cprime_file,
        "cbal_file": cbal_file,
    }
    import json

    path = directory / f"{stem}_manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return path


def load_codec(manifest_path: str | Path) -> Codec:
    import json

    path = Path(manifest_path)
    manifest = json.loads(path.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {path} is not a JSON object")
    # the keys save_codec writes
    for key in ("n", "k_prime", "k_bal", "t_prime", "strict", "cprime_file", "cbal_file"):
        if key not in manifest:
            raise ValueError(f"manifest {path} has no {key!r}")
    gprime = load_generator_matrix(path.parent / manifest["cprime_file"])
    gbal = load_generator_matrix(path.parent / manifest["cbal_file"])
    codec = build_codec(gprime, gbal, manifest["t_prime"], manifest["strict"])
    for key, have in (("n", codec.n), ("k_prime", codec.k_prime), ("k_bal", codec.k_bal)):
        if manifest[key] != have:
            raise ValueError(f"manifest {key}={manifest[key]} but files give {have}")
    return codec
