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
    """Parse 't m' followed by m lines 'a b c'; '#' starts a comment.
    Errors name the line (1-based, counting comments and blank lines)."""
    lines = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((no, line))
    if not lines:
        raise ValueError("empty instance")

    def ints(no: int, tokens: list[str]) -> list[int]:
        out = []
        for tok in tokens:
            try:
                out.append(int(tok))
            except ValueError:
                raise ValueError(f"line {no}: {tok!r} is not an integer") from None
        return out

    (no, line), edge_lines = lines[0], lines[1:]
    head = line.split()
    if len(head) != 2:
        raise ValueError(f"line {no}: header must be 't m', got {line!r}")
    t, m = ints(no, head)
    if len(edge_lines) != m:
        raise ValueError(f"expected {m} edge lines, found {len(edge_lines)}")
    edges = []
    for no, line in edge_lines:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {no}: edge line must have 3 vertices, got {line!r}")
        edges.append(tuple(ints(no, parts)))
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


def _split_blocks(hprime: LinearCode, t: int, m: int) -> list[tuple[int, int, int]]:
    """Validate the [[0 I], [H 0]] shape and the edge blocks of H; return
    each block's unit columns (u0, u1, u2) as their rows of H.

    Block e of H is columns 8e..8e+7.  Its columns 4, 2 and 1 must be unit
    vectors on one row of part 1, 2 and 3 (rows [0, t), [t, 2t), [2t, 3t)),
    and its column c the XOR of those whose bit is set in c.  So in each
    part exactly one row carries the part's byte (0xF0, 0xCC or 0xAA: bit c
    set iff c has a_L = 1) in the block, and the part's other rows carry 0.
    """
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
    for i, row in enumerate(hprime.rows[i8:]):
        if row.bits & ~left_mask:
            raise ValueError(f"row {i8 + i + 1} spills outside the H block")
    h = [r.bits for r in hprime.rows[i8:]]
    every_block = left_mask // 0xFF  # bit 0 of each block
    blocks = [[0, 0, 0] for _ in range(m)]
    bad = 0  # a set bit marks a column of a malformed block
    for part, pattern in enumerate((0xF0, 0xCC, 0xAA)):
        low = pattern & -pattern
        seen = 0
        for j in range(part * t, (part + 1) * t):
            # the row's lowest pattern bit in each block it carries the pattern in
            lead = h[j] & low * every_block
            bad |= h[j] ^ lead * (pattern // low) | seen & lead
            seen |= lead
            while lead:
                bit = lead & -lead
                blocks[(bit.bit_length() - 1) >> 3][part] = j
                lead ^= bit
        bad |= low * every_block & ~seen
    if bad:
        e = ((bad & -bad).bit_length() - 1) >> 3
        raise ValueError(
            f"columns {8 * e + 1}..{8 * e + 8} of H are not the block of edge {e + 1}"
        )
    return [tuple(b) for b in blocks]


# array passes one edge step makes over the table: five to OR the flips,
# fourteen to shift and OR the sizes
_EDGE_PASSES = 19


def _shift_up(x: np.ndarray, k: int, out: np.ndarray) -> None:
    """out = x << k for 0 < k < 64, limbs on axis -2, the top k bits of each
    limb carried into the next; out may be x."""
    carry = x[..., :-1, :] >> np.uint64(64 - k) if x.shape[-2] > 1 else None
    np.left_shift(x, np.uint64(k), out=out)
    if carry is not None:
        out[..., 1:, :] |= carry


def _reachability_masks(
    blocks: list[tuple[int, int, int]], width: int, top: int
) -> np.ndarray:
    """masks[:, s] has bit w set (bit w % 64 of limb w // 64) iff s is a XOR
    of exactly w distinct columns of H, for every count w <= top; H has
    `width` rows and one edge block per entry of `blocks`, the rows of its
    unit columns (u0, u1, u2).

    The 8 columns of an edge block are all of span(u0, u1, u2).  Their
    subsets XOR to 0 with sizes M0 = {0, 1, 3, 4, 5, 7, 8} and to each
    nonzero a of the span with sizes M1 = {1, ..., 7}, so one step per edge
    takes the table to

        new[s] = old[s] . M0 | R[s] . M1,  R[s] = OR over a != 0 of old[s ^ a],

    where x . M is the OR of x << j over j in M.  R comes from flips of
    the syndrome axis, as views: A = flip_u0(old), V1 = old | A,
    B = flip_u1(V1), V2 = V1 | B, C = flip_u2(V2), R = A | B | C.  The
    shifts double up: old . M0 is old . {0, 1} . {0, 3} . {0, 4} and R . M1
    is (R << 1) . {0, 1} . {0, 3} . {0, 2}; the first two factors run on
    both at once.  Refuses with CapExceededError before allocating anything
    when the passes exceed WORK_CAP or the working set exceeds BYTES_CAP.
    """
    limbs = top // 64 + 1
    # two rows of limbs (old and R), two of scratch, and the carries of a
    # two-row shift
    check_budget(
        "structural",
        _EDGE_PASSES * len(blocks) * limbs << width,
        8 * (4 * limbs + 2 * (limbs - 1)) << width,
    )
    state = np.zeros((2, limbs, 1 << width), dtype=np.uint64)
    spare = np.empty_like(state)
    old, reach = state
    v1, v2 = spare
    old[0, 0] = 1

    def flips(r: int, *arrays: np.ndarray) -> list[np.ndarray]:
        """Views with bit r of the syndrome as axis 2 (flip it with ::-1)."""
        return [a.reshape(limbs, -1, 2, 1 << r) for a in arrays]

    for r0, r1, r2 in blocks:
        o, a, r = flips(r0, old, v1, reach)
        np.bitwise_or(o, o[:, :, ::-1], out=a)
        np.copyto(r, o[:, :, ::-1])
        a, b, r = flips(r1, v1, v2, reach)
        r |= a[:, :, ::-1]
        np.bitwise_or(a, a[:, :, ::-1], out=b)
        b, r = flips(r2, v2, reach)
        r |= b[:, :, ::-1]
        _shift_up(reach, 1, reach)
        _shift_up(state, 1, spare)
        state |= spare
        _shift_up(state, 3, spare)
        state |= spare
        _shift_up(old, 4, v1)
        old |= v1
        _shift_up(reach, 2, v2)
        reach |= v2
        old |= reach
    return old


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
    "s_bot is a XOR of exactly w distinct columns", built one edge block
    at a time (_reachability_masks): the block's subsets reach XOR 0 with
    sizes M0 = {0, 1, 3, 4, 5, 7, 8} and every nonzero XOR of its span
    with sizes M1 = {1, ..., 7}, so each step is three axis flips and a
    few shifts of the whole table.  Both methods first check that hprime
    is [[0 I], [H 0]] with H made of edge blocks.  The answer is no iff
    some count w in [t, 8m - t] is missing from some mask; the
    counterexample takes the smallest such w, then the smallest such s_bot,
    with s_top = 2^(8m-t-w) - 1.  The table's passes and working set are
    checked against WORK_CAP and BYTES_CAP before it is allocated.

    Both methods agree; bucket is capped at 8m + t <= 18 and 16m - 2t <= 28.
    """
    blocks = _split_blocks(hprime, t, m)
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
    masks = _reachability_masks(blocks, 3 * t, target)
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
