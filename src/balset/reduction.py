"""Reduction from tripartite 3-dimensional matching to a balancing decision.

An instance G with part size t and m edges turns into a 3t x 8m matrix H
(one width-8 block per edge, columns enumerating F^3 on the edge's three
incident rows) and then into the (8m+t) x (16m-2t) check matrix
H' = [[0 I], [H 0]].  G has a perfect matching exactly when every coset of
the kernel of H' contains a word of weight 8m - t; both sides are decided
exhaustively here and compared on small instances.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gf2 import CapExceededError, LinearCode, Word, check_budget, columns
from .balancing import BalanceSpec, coset_counts

__all__ = [
    "ReductionReport",
    "TripartiteHypergraph",
    "build_H",
    "build_Hprime",
    "column_sum_reachable",
    "every_coset_has_balanced_word",
    "find_matching",
    "parse_hypergraph",
    "verify_reduction",
]

MATCHING_T_CAP = 6
MATCHING_M_CAP = 20
COLUMN_SEARCH_CAP = 28   # total columns of H for meet-in-the-middle
BUCKET_SYNDROME_CAP = 18  # 8m + t
BUCKET_LENGTH_CAP = 28    # 16m - 2t


@dataclass(frozen=True)
class TripartiteHypergraph:
    """Part size t and hyper-edges (v1, v2, v3), 1-based vertex indices."""

    t: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.t < 1:
            raise ValueError(f"part size must be >= 1, got {self.t}")
        if not self.edges:
            raise ValueError("instance needs at least one edge")
        for e in self.edges:
            if len(e) != 3 or any(not 1 <= v <= self.t for v in e):
                raise ValueError(f"edge {e} out of range for part size {self.t}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def uncovered_vertices(self) -> tuple[tuple[int, int], ...]:
        """(part, vertex) pairs no edge touches; nonempty rules a matching out."""
        out = []
        for part in range(3):
            hit = {e[part] for e in self.edges}
            out.extend((part + 1, v) for v in range(1, self.t + 1) if v not in hit)
        return tuple(out)


def parse_hypergraph(text: str) -> TripartiteHypergraph:
    """Parse 't m' followed by m lines 'a b c'; '#' starts a comment."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty instance")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 't m', got {lines[0]!r}")
    t, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"edge line must have 3 vertices, got {line!r}")
        edges.append(tuple(int(p) for p in parts))
    g = TripartiteHypergraph(t, tuple(edges))
    uncovered = g.uncovered_vertices()
    if uncovered:
        warnings.warn(
            f"uncovered vertices {uncovered}: no matching can exist",
            stacklevel=2,
        )
    return g


def build_H(g: TripartiteHypergraph) -> LinearCode:
    """The 3t x 8m block matrix: block e spans columns 8e..8e+7; within it,
    column c encodes (a1, a2, a3) with a1 the most significant bit, and the
    row of the edge's part-L vertex carries a_L."""
    t, m = g.t, g.m
    rows = [0] * (3 * t)
    for e, (v1, v2, v3) in enumerate(g.edges):
        for part, v in enumerate((v1, v2, v3)):
            row = part * t + (v - 1)
            for c in range(8):
                if c >> (2 - part) & 1:
                    rows[row] |= 1 << (8 * e + c)
    return LinearCode(8 * m, tuple(Word(8 * m, r) for r in rows))


def build_Hprime(h: LinearCode, t: int, m: int) -> LinearCode:
    """[[0 I], [H 0]]: (8m - 2t) identity rows over the right columns, then
    the 3t rows of H over the left 8m columns; shape (8m+t) x (16m-2t)."""
    if len(h.rows) != 3 * t or h.n != 8 * m:
        raise ValueError(
            f"H must be 3t x 8m = {3 * t} x {8 * m}, got {len(h.rows)} x {h.n}"
        )
    if 8 * m < 2 * t:
        raise ValueError(
            f"identity block has negative order: need 8m >= 2t, got m={m}, t={t}"
        )
    n = 16 * m - 2 * t
    top = [Word(n, 1 << (8 * m + i)) for i in range(8 * m - 2 * t)]
    bottom = [Word(n, r.bits) for r in h.rows]
    return LinearCode(n, tuple(top + bottom))


def find_matching(g: TripartiteHypergraph) -> tuple[int, ...] | None:
    """A set of t pairwise-disjoint edges (0-based indices) or None,
    by backtracking over the V1 vertices in order."""
    if g.t > MATCHING_T_CAP or g.m > MATCHING_M_CAP:
        raise CapExceededError(
            f"matching search capped at t <= {MATCHING_T_CAP}, m <= {MATCHING_M_CAP}"
        )
    t = g.t
    by_v1: list[list[int]] = [[] for _ in range(t + 1)]
    for i, e in enumerate(g.edges):
        by_v1[e[0]].append(i)
    used2 = [False] * (t + 1)
    used3 = [False] * (t + 1)
    picked: list[int] = []

    def place(v1: int) -> bool:
        if v1 > t:
            return True
        for i in by_v1[v1]:
            _, v2, v3 = g.edges[i]
            if not used2[v2] and not used3[v3]:
                used2[v2] = used3[v3] = True
                picked.append(i)
                if place(v1 + 1):
                    return True
                picked.pop()
                used2[v2] = used3[v3] = False
        return False

    return tuple(picked) if place(1) else None


def column_sum_reachable(
    h: LinearCode, s: int, w: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Can `s` be written as the XOR of exactly `w` distinct columns of h?
    Meet-in-the-middle over the two column halves; the witness is a valid
    index set, deterministic for fixed input but not otherwise canonical."""
    if h.n > COLUMN_SEARCH_CAP:
        raise CapExceededError(f"column search capped at {COLUMN_SEARCH_CAP} columns")
    if not 0 <= w <= h.n:
        return False, None
    cols = columns([r.bits for r in h.rows], h.n)
    half = len(cols) // 2
    left, right = cols[:half], cols[half:]
    # first-found subset mask per (size, xor), masks ascending => lex-first
    table: dict[tuple[int, int], int] = {}
    for mask in range(1 << len(left)):
        size = mask.bit_count()
        if size > w:
            continue
        acc = 0
        for j in range(len(left)):
            if mask >> j & 1:
                acc ^= left[j]
        table.setdefault((size, acc), mask)
    for mask in range(1 << len(right)):
        size = mask.bit_count()
        if size > w:
            continue
        acc = 0
        for j in range(len(right)):
            if mask >> j & 1:
                acc ^= right[j]
        found = table.get((w - size, s ^ acc))
        if found is not None:
            witness = [j for j in range(len(left)) if found >> j & 1]
            witness += [half + j for j in range(len(right)) if mask >> j & 1]
            return True, tuple(witness)
    return False, None


def _split_blocks(hprime: LinearCode, t: int, m: int) -> LinearCode:
    """Validate the [[0 I], [H 0]] shape and return the embedded H."""
    i8 = 8 * m - 2 * t
    n = 16 * m - 2 * t
    if hprime.n != n or len(hprime.rows) != 8 * m + t:
        raise ValueError(
            f"expected {8 * m + t} x {n}, got {len(hprime.rows)} x {hprime.n}"
        )
    left_mask = (1 << (8 * m)) - 1
    for i, row in enumerate(hprime.rows[:i8]):
        if row.bits != 1 << (8 * m + i):
            raise ValueError(f"row {i + 1} is not the expected identity row")
    bottom = []
    for i, row in enumerate(hprime.rows[i8:]):
        if row.bits & ~left_mask:
            raise ValueError(f"row {i8 + i + 1} spills outside the H block")
        bottom.append(Word(8 * m, row.bits))
    return LinearCode(8 * m, tuple(bottom))


def _reachability_masks(h: LinearCode, top: int) -> np.ndarray:
    """masks[:, s] has bit w set (bit w % 64 of limb w // 64) iff s is a XOR
    of exactly w distinct columns of h, for every count w <= top.

    Adding a column col to the pool moves every syndrome's counts from s to
    s ^ col, one up: one gather of all limbs, one shift up by one bit with
    the carry between limbs, one OR.  Refuses with CapExceededError before
    allocating anything when the passes exceed WORK_CAP or the working set
    exceeds BYTES_CAP.
    """
    width, limbs = len(h.rows), top // 64 + 1
    # masks, the gathered copy and its shift, the index and its XOR, per syndrome
    check_budget("structural", h.n * limbs << width, (3 * limbs + 2) * 8 << width)
    masks = np.zeros((limbs, 1 << width), dtype=np.uint64)
    masks[0, 0] = 1
    idx = np.arange(1 << width)
    for col in columns([r.bits for r in h.rows], h.n):
        moved = masks[:, idx ^ col]
        up = moved << 1
        moved[:-1] >>= 63
        up[1:] |= moved[:-1]
        masks |= up
    return masks


def _resolve_method(n: int, t: int, m: int, method: str) -> str:
    if method != "auto":
        return method
    in_caps = 8 * m + t <= BUCKET_SYNDROME_CAP and n <= BUCKET_LENGTH_CAP
    return "bucket" if in_caps else "structural"


def every_coset_has_balanced_word(
    hprime: LinearCode, t: int, m: int, method: str = "auto"
) -> tuple[bool, int | None]:
    """Does every coset of the kernel of hprime contain a word of weight
    8m - t?  Returns (answer, counterexample syndrome or None).

    bucket: count the weight-(8m-t) words of length 16m-2t in every bucket
    of check vectors, all 2^(8m+t) of them, and report the smallest empty
    one.  8m - t is half the length, so this is coset_counts at lam = 0
    with the rows of hprime, one transform of length 2^(8m+t).
    structural: a word (zL, zR) has checks (zR, H zL), so the coset of
    (s_top, s_bot) has a weight-(8m-t) word iff s_bot is a XOR of exactly
    8m - t - weight(s_top) distinct columns of H.  One table decides every
    syndrome at once: for each s_bot in 2^(3t), a bitmask whose bit w says
    "s_bot is a XOR of exactly w distinct columns", built with one gather
    and one shift per column (_reachability_masks).  The answer is no iff
    some count w in [t, 8m - t] is missing from some mask; the
    counterexample takes the smallest such w, then the smallest such s_bot,
    with s_top = 2^(8m-t-w) - 1.  The table's passes and working set are
    checked against WORK_CAP and BYTES_CAP before it is allocated.

    Both methods agree; bucket is capped at 8m + t <= 18 and 16m - 2t <= 28.
    """
    h = _split_blocks(hprime, t, m)
    i8 = 8 * m - 2 * t
    target = 8 * m - t
    method = _resolve_method(hprime.n, t, m, method)
    if method == "bucket":
        if 8 * m + t > BUCKET_SYNDROME_CAP or hprime.n > BUCKET_LENGTH_CAP:
            raise CapExceededError(
                f"bucket method capped at 8m+t <= {BUCKET_SYNDROME_CAP}, "
                f"16m-2t <= {BUCKET_LENGTH_CAP}"
            )
        counts = coset_counts(BalanceSpec(hprime.n), [r.bits for r in hprime.rows])
        missing = np.flatnonzero(counts == 0)
        if missing.size == 0:
            return True, None
        return False, int(missing[0])
    if method != "structural":
        raise ValueError(f"unknown method {method!r}")
    masks = _reachability_masks(h, target)
    limbs = np.bitwise_and.reduce(masks, axis=1).tolist()
    everywhere = sum(v << 64 * i for i, v in enumerate(limbs))
    missing = ~everywhere & ((1 << (target + 1)) - (1 << t))
    if not missing:
        return True, None
    w = (missing & -missing).bit_length() - 1
    s_bot = int(np.argmin(masks[w >> 6] >> (w & 63) & 1))
    return False, (1 << (target - w)) - 1 | s_bot << i8


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of checking the matching side against the coset side.

    Fields degrade to None when the corresponding side exceeds its
    verification cap (matrices can still be emitted); equivalent is None
    unless both sides were decided."""

    t: int
    m: int
    matching: tuple[int, ...] | None
    matching_found: bool | None
    cosets_ok: bool | None
    counterexample_syndrome: int | None
    equivalent: bool | None
    method: str | None

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "m": self.m,
            "matching": list(self.matching) if self.matching is not None else None,
            "matching_found": self.matching_found,
            "cosets_ok": self.cosets_ok,
            "counterexample_syndrome": self.counterexample_syndrome,
            "equivalent": self.equivalent,
            "method": self.method,
            "verified": self.equivalent is not None,
        }


def verify_reduction(g: TripartiteHypergraph, method: str = "auto") -> ReductionReport:
    """Decide both sides of the reduction and compare them; oversized
    searches degrade to a partial (unverified) report."""
    try:
        matching = find_matching(g)
    except CapExceededError:
        return ReductionReport(g.t, g.m, None, None, None, None, None, None)
    hprime = build_Hprime(build_H(g), g.t, g.m)
    used = _resolve_method(hprime.n, g.t, g.m, method)
    try:
        ok, counter = every_coset_has_balanced_word(hprime, g.t, g.m, used)
    except CapExceededError:
        return ReductionReport(
            g.t, g.m, matching, matching is not None, None, None, None, None
        )
    return ReductionReport(
        g.t,
        g.m,
        matching,
        matching is not None,
        ok,
        counter,
        (matching is not None) == ok,
        used,
    )
