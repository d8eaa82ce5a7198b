"""Tests for the matching-to-balancing reduction and its verifiers."""

import itertools
import time
import warnings

import numpy as np
import pytest

from balset import (
    CapExceededError,
    LinearCode,
    Word,
    build_H,
    build_Hprime,
    column_sum_reachable,
    every_coset_has_balanced_word,
    find_matching,
    parse_hypergraph,
    verify_reduction,
)
from balset.gf2 import columns as gf2_columns
from balset.reduction import (
    BUCKET_LENGTH_CAP,
    BUCKET_SYNDROME_CAP,
    MATCHING_M_CAP,
    MATCHING_T_CAP,
    TripartiteHypergraph,
    _reachability_masks,
    _split_blocks,
)

ALL_EDGES_T2 = [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)]


def graph(t: int, *edges) -> TripartiteHypergraph:
    return TripartiteHypergraph(t, tuple(edges))


def columns(h: LinearCode) -> list[int]:
    return [
        sum((r.bits >> c & 1) << j for j, r in enumerate(h.rows))
        for c in range(h.n)
    ]


def acc_xor(cols: list[int], combo) -> int:
    acc = 0
    for j in combo:
        acc ^= cols[j]
    return acc


def bool_reachability_table(h: LinearCode) -> np.ndarray:
    """dp[w, s] = can s be a XOR of exactly w distinct columns of h: one
    bool row per count, each column scattered into every row in turn."""
    cols = columns(h)
    dp = np.zeros((len(cols) + 1, 1 << len(h.rows)), dtype=bool)
    dp[0, 0] = True
    idx = np.arange(1 << len(h.rows))
    for col in cols:
        shuffled = idx ^ col
        for w in range(len(cols) - 1, -1, -1):
            dp[w + 1][shuffled] |= dp[w]
    return dp


def per_column_masks(h: LinearCode, top: int) -> np.ndarray:
    """The column-at-a-time table _reachability_masks replaced: adding a
    column col moves every syndrome's counts from s to s ^ col, one up
    (one gather, one shift with the carry between limbs, one OR)."""
    masks = np.zeros((top // 64 + 1, 1 << len(h.rows)), dtype=np.uint64)
    masks[0, 0] = 1
    idx = np.arange(1 << len(h.rows))
    for col in columns(h):
        moved = masks[:, idx ^ col]
        up = moved << np.uint64(1)
        moved[:-1] >>= np.uint64(63)
        up[1:] |= moved[:-1]
        masks |= up
    return masks


def edge_block_masks(g: TripartiteHypergraph, top: int) -> np.ndarray:
    hp = build_Hprime(build_H(g), g.t, g.m)
    return _reachability_masks(_split_blocks(hp, g.t, g.m), 3 * g.t, top)


def structural_from_masks(masks: np.ndarray, t: int, m: int):
    """The coset-side verdict read off a count table, smallest missing
    count first, then the smallest syndrome missing it."""
    target = 8 * m - t
    for w in range(t, target + 1):
        bad = np.flatnonzero((masks[w >> 6] >> np.uint64(w & 63) & np.uint64(1)) == 0)
        if bad.size:
            return False, (1 << (target - w)) - 1 | int(bad[0]) << (8 * m - 2 * t)
    return True, None


def structural_from_bool_table(h: LinearCode, t: int, m: int):
    """The coset-side verdict read row by row off the bool table."""
    dp = bool_reachability_table(h)
    target = 8 * m - t
    for w in range(t, target + 1):
        bad = np.flatnonzero(~dp[w])
        if bad.size:
            s_top = (1 << (target - w)) - 1
            return False, s_top | int(bad[0]) << (8 * m - 2 * t)
    return True, None


def seeded_graph(rng, t: int, m: int, planted: bool) -> TripartiteHypergraph:
    edges = [tuple(int(v) for v in rng.integers(1, t + 1, size=3)) for _ in range(m)]
    if planted and m >= t:
        p2, p3 = rng.permutation(t) + 1, rng.permutation(t) + 1
        edges[:t] = [(v + 1, int(p2[v]), int(p3[v])) for v in range(t)]
    return TripartiteHypergraph(t, tuple(edges))


def matching_oracle(g: TripartiteHypergraph) -> bool:
    for combo in itertools.combinations(range(g.m), g.t):
        picked = [g.edges[i] for i in combo]
        if all(
            len({e[part] for e in picked}) == g.t for part in range(3)
        ):
            return True
    return False


class TestParsing:
    def test_single_edge(self):
        g = parse_hypergraph("1 1\n1 1 1")
        assert (g.t, g.m, g.edges) == (1, 1, ((1, 1, 1),))

    def test_perfect_matching_instance_parses_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = parse_hypergraph("2 2\n1 1 1\n2 2 2")
        assert g.edges == ((1, 1, 1), (2, 2, 2))

    def test_uncovered_vertex_warns(self):
        with pytest.warns(UserWarning, match="uncovered"):
            g = parse_hypergraph("2 2\n1 1 1\n1 2 2")
        assert g.uncovered_vertices() == ((1, 2),)

    def test_comments_and_blank_lines_ignored(self):
        text = "# instance\n2 2\n\n1 1 1  # first\n2 2 2\n"
        assert parse_hypergraph(text).m == 2

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n1 1 1",
            "2 2\n1 1 1",
            "1 1\n1 1",
            "1 1\n1 1 1 1",
            "1 1\n0 1 1",
            "1 1\n1 1 2",
        ],
    )
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(ValueError):
            parse_hypergraph(text)

    def test_type_validation(self):
        with pytest.raises(ValueError):
            TripartiteHypergraph(0, ((1, 1, 1),))
        with pytest.raises(ValueError):
            TripartiteHypergraph(1, ())

    def test_uncovered_vertices_all_parts(self):
        g = graph(2, (1, 2, 1))
        assert g.uncovered_vertices() == ((1, 2), (2, 1), (3, 2))


class TestBuildH:
    def test_single_edge_columns_enumerate_all_patterns(self):
        h = build_H(graph(1, (1, 1, 1)))
        assert (len(h.rows), h.n) == (3, 8)
        # column c carries (a1 a2 a3) with a1 on the part-1 row
        for c, col in enumerate(columns(h)):
            expected = (c >> 2 & 1) | (c >> 1 & 1) << 1 | (c & 1) << 2
            assert col == expected

    def test_two_disjoint_edges_full_rank(self):
        h = build_H(graph(2, (1, 1, 1), (2, 2, 2)))
        assert (len(h.rows), h.n) == (6, 16)
        assert h.k == 6

    def test_rank_3t_when_covered(self):
        g = graph(2, (1, 1, 1), (2, 2, 2), (1, 2, 2))
        assert build_H(g).k == 6

    def test_block_structure(self):
        g = graph(2, (1, 2, 1), (2, 1, 2), (1, 1, 1))
        h = build_H(g)
        for e, (v1, v2, v3) in enumerate(g.edges):
            support = {v1 - 1, 2 + v2 - 1, 4 + v3 - 1}
            block = [
                sum((r.bits >> (8 * e + c) & 1) << j for j, r in enumerate(h.rows))
                for c in range(8)
            ]
            seen = set()
            for c, col in enumerate(block):
                assert all(col >> j & 1 == 0 for j in range(6) if j not in support)
                seen.add(col)
            assert len(seen) == 8

    def test_duplicate_edges_keep_rank(self):
        assert build_H(graph(1, (1, 1, 1), (1, 1, 1))).k == 3


class TestBuildHprime:
    def test_smallest_shape(self):
        g = graph(1, (1, 1, 1))
        hp = build_Hprime(build_H(g), 1, 1)
        assert (len(hp.rows), hp.n) == (9, 14)

    def test_t2_m2_shape(self):
        g = graph(2, (1, 1, 1), (2, 2, 2))
        hp = build_Hprime(build_H(g), 2, 2)
        assert (len(hp.rows), hp.n) == (18, 28)

    def test_identity_block_on_the_right(self):
        g = graph(1, (1, 1, 1))
        hp = build_Hprime(build_H(g), 1, 1)
        for i in range(6):
            assert hp.rows[i].bits == 1 << (8 + i)

    def test_h_block_on_the_left(self):
        g = graph(1, (1, 1, 1))
        h = build_H(g)
        hp = build_Hprime(h, 1, 1)
        left = (1 << 8) - 1
        assert [r.bits & left for r in hp.rows[6:]] == [r.bits for r in h.rows]

    def test_rank_additivity(self):
        for g in (graph(1, (1, 1, 1)), graph(2, (1, 1, 1), (2, 2, 2), (1, 2, 2))):
            h = build_H(g)
            hp = build_Hprime(h, g.t, g.m)
            assert hp.k == (8 * g.m - 2 * g.t) + h.k

    def test_shape_mismatch_rejected(self):
        h = build_H(graph(1, (1, 1, 1)))
        with pytest.raises(ValueError, match="3t x 8m"):
            build_Hprime(h, 2, 1)

    def test_negative_identity_order_rejected(self):
        # 8m < 2t leaves no room for the identity block
        g = graph(5, (1, 2, 3))
        with pytest.raises(ValueError, match="8m >= 2t"):
            build_Hprime(build_H(g), 5, 1)


class TestFindMatching:
    def test_single_edge(self):
        assert find_matching(graph(1, (1, 1, 1))) == (0,)

    def test_uncovered_vertex_means_none(self):
        assert find_matching(graph(2, (1, 1, 1), (1, 2, 2))) is None

    def test_three_edge_instance(self):
        got = find_matching(graph(2, (1, 1, 1), (2, 2, 2), (1, 2, 2)))
        assert got == (0, 1)

    def test_witness_is_a_matching(self):
        g = graph(2, (1, 2, 2), (2, 1, 1), (2, 2, 2), (1, 1, 1))
        got = find_matching(g)
        assert got is not None and len(got) == 2
        for part in range(3):
            assert len({g.edges[i][part] for i in got}) == 2

    def test_agrees_with_brute_oracle_on_pairs(self):
        for pair in itertools.combinations(ALL_EDGES_T2, 2):
            g = graph(2, *pair)
            assert (find_matching(g) is not None) == matching_oracle(g)

    def test_caps(self):
        with pytest.raises(CapExceededError):
            find_matching(graph(MATCHING_T_CAP + 1, (1, 1, 1)))
        edges = [(1, 1, 1)] * (MATCHING_M_CAP + 1)
        with pytest.raises(CapExceededError):
            find_matching(graph(1, *edges))


class TestColumns:
    def test_matches_per_bit_loop(self):
        rng = np.random.default_rng(11)
        # up to 160 columns (m = 20) and past 64 rows (two weight chunks)
        for n, k in [(0, 3), (5, 0), (8, 3), (24, 6), (72, 9), (160, 18), (30, 70)]:
            for _ in range(3):
                rows = [int.from_bytes(rng.bytes(n // 8 + 1), "little") % (1 << n)
                        for _ in range(k)]
                h = LinearCode.from_ints(n, rows)
                assert gf2_columns(rows, n) == columns(h), (n, k)


class TestColumnSumReachable:
    def test_all_ones_single_column(self):
        h = build_H(graph(1, (1, 1, 1)))
        assert column_sum_reachable(h, 0b111, 1) == (True, (7,))

    def test_empty_sum(self):
        h = build_H(graph(1, (1, 1, 1)))
        assert column_sum_reachable(h, 0, 0) == (True, ())
        assert column_sum_reachable(h, 1, 0) == (False, None)

    def test_against_naive_enumeration(self):
        h = build_H(graph(1, (1, 1, 1)))
        cols = columns(h)
        for s in range(8):
            for w in range(9):
                naive = any(
                    acc_xor(cols, combo) == s
                    for combo in itertools.combinations(range(8), w)
                )
                got_ok, got_witness = column_sum_reachable(h, s, w)
                assert got_ok == naive
                assert column_sum_reachable(h, s, w) == (got_ok, got_witness)
                if got_ok:
                    assert len(got_witness) == w
                    assert list(got_witness) == sorted(set(got_witness))
                    assert acc_xor(cols, got_witness) == s
                else:
                    assert got_witness is None

    def test_zero_sum_sizes_within_one_block(self):
        # exactly the sizes {0,1,3,4,5,7,8} can cancel; 2 and 6 cannot
        h = build_H(graph(1, (1, 1, 1)))
        reachable = {w for w in range(9) if column_sum_reachable(h, 0, w)[0]}
        assert reachable == {0, 1, 3, 4, 5, 7, 8}

    def test_witness_properties_two_blocks(self):
        h = build_H(graph(2, (1, 1, 1), (2, 2, 2)))
        cols = columns(h)
        for s, w in [(0b111111, 2), (0b101010, 4), (0, 6)]:
            ok, witness = column_sum_reachable(h, s, w)
            assert ok and len(witness) == w
            assert list(witness) == sorted(set(witness))
            acc = 0
            for j in witness:
                acc ^= cols[j]
            assert acc == s

    def test_out_of_range_weights(self):
        h = build_H(graph(1, (1, 1, 1)))
        assert column_sum_reachable(h, 0, -1) == (False, None)
        assert column_sum_reachable(h, 0, 9) == (False, None)

    def test_column_cap(self):
        h = build_H(graph(1, *([(1, 1, 1)] * 4)))
        with pytest.raises(CapExceededError):
            column_sum_reachable(h, 0, 1)


def uncovered_by_independent_search(g, syndrome: int) -> bool:
    """Check a counterexample syndrome against the subset-sum view: the
    coset is uncovered iff the H part is not a sum of exactly
    8m - t - weight(top part) distinct columns."""
    h = build_H(g)
    i8 = 8 * g.m - 2 * g.t
    s_top = syndrome & ((1 << i8) - 1)
    s_bot = syndrome >> i8
    w = 8 * g.m - g.t - bin(s_top).count("1")
    return not column_sum_reachable(h, s_bot, w)[0]


class TestEveryCoset:
    def test_single_edge_instance_has_uncovered_cosets(self):
        g = graph(1, (1, 1, 1))
        hp = build_Hprime(build_H(g), 1, 1)
        for method in ("bucket", "structural"):
            ok, counter = every_coset_has_balanced_word(hp, 1, 1, method)
            assert not ok
            assert uncovered_by_independent_search(g, counter)

    def test_single_edge_uncovered_census(self):
        # exhaustively: 12 of the 512 cosets lack a weight-7 word, and all
        # of them put zero on the H checks with top weight 1 or 5
        g = graph(1, (1, 1, 1))
        hp = build_Hprime(build_H(g), 1, 1)
        rows = [r.bits for r in hp.rows]
        covered = set()
        for word_bits in itertools.combinations(range(14), 7):
            bits = sum(1 << b for b in word_bits)
            covered.add(
                sum(((r & bits).bit_count() & 1) << j for j, r in enumerate(rows))
            )
        missing = set(range(512)) - covered
        assert len(missing) == 12
        for s in missing:
            assert s >> 6 == 0
            assert bin(s & 0b111111).count("1") in (1, 5)
        assert every_coset_has_balanced_word(hp, 1, 1, "bucket") == (False, min(missing))

    def test_methods_agree_on_matching_pair(self):
        g = graph(2, (1, 1, 1), (2, 2, 2))
        hp = build_Hprime(build_H(g), 2, 2)
        assert every_coset_has_balanced_word(hp, 2, 2, "structural") == (True, None)
        assert every_coset_has_balanced_word(hp, 2, 2, "bucket") == (True, None)

    def test_bucket_agrees_with_structural_on_all_pairs(self):
        for pair in itertools.combinations(ALL_EDGES_T2, 2):
            g = graph(2, *pair)
            hp = build_Hprime(build_H(g), 2, 2)
            ok, counter = every_coset_has_balanced_word(hp, 2, 2, "bucket")
            assert ok == every_coset_has_balanced_word(hp, 2, 2, "structural")[0]
            assert ok == (counter is None), pair
            if not ok:
                assert uncovered_by_independent_search(g, counter), pair

    def test_counterexample_when_no_matching(self):
        g = graph(2, (1, 1, 1), (1, 2, 2))
        hp = build_Hprime(build_H(g), 2, 2)
        ok, counter = every_coset_has_balanced_word(hp, 2, 2, "structural")
        assert not ok
        assert uncovered_by_independent_search(g, counter)

    def test_count_masks_match_bool_table(self):
        rng = np.random.default_rng(2009)
        for t in (1, 2, 3, 4):
            for m in (1, 2, 5, 9, 10):  # 8m - t >= 64 needs two limbs
                for planted in (True, False):
                    g = seeded_graph(rng, t, m, planted)
                    h = build_H(g)
                    top = 8 * m - t
                    masks = edge_block_masks(g, top)
                    assert masks.shape == (top // 64 + 1, 1 << 3 * t)
                    dp = bool_reachability_table(h)
                    for w in range(top + 1):
                        bits = masks[w >> 6] >> (w & 63) & 1
                        assert np.array_equal(bits.astype(bool), dp[w]), (g, w)
                    hp = build_Hprime(h, t, m)
                    assert every_coset_has_balanced_word(
                        hp, t, m, "structural"
                    ) == structural_from_bool_table(h, t, m), g

    @pytest.mark.parametrize("t", range(1, 6))
    def test_edge_block_step_equals_per_column_passes(self, t):
        # seeded instances up to m = 10 (8m - t >= 64 needs two limbs):
        # random edges, which repeat at small t, a planted matching, and
        # one edge repeated m times
        rng = np.random.default_rng(24 + t)
        for m in range(1, 11):
            if 8 * m < 2 * t:
                continue
            edge = tuple(int(v) for v in rng.integers(1, t + 1, size=3))
            for g in (
                seeded_graph(rng, t, m, planted=False),
                seeded_graph(rng, t, m, planted=True),
                graph(t, *[edge] * m),
            ):
                h = build_H(g)
                top = 8 * m - t
                got, want = edge_block_masks(g, top), per_column_masks(h, top)
                assert got.shape == want.shape == (top // 64 + 1, 1 << 3 * t)
                last = np.uint64((1 << top % 64 + 1) - 1)  # bits <= top
                assert np.array_equal(got[:-1], want[:-1]), g
                assert np.array_equal(got[-1] & last, want[-1] & last), g
                hp = build_Hprime(h, t, m)
                assert every_coset_has_balanced_word(
                    hp, t, m, "structural"
                ) == structural_from_masks(want, t, m), g

    def test_t2_census_matching_agrees_with_structural(self):
        negatives = 0
        for size in range(1, len(ALL_EDGES_T2) + 1):
            for edges in itertools.combinations(ALL_EDGES_T2, size):
                g = graph(2, *edges)
                hp = build_Hprime(build_H(g), 2, g.m)
                ok, counter = every_coset_has_balanced_word(hp, 2, g.m, "structural")
                assert ok == (find_matching(g) is not None), edges
                assert ok == (counter is None)
                if not ok:
                    negatives += 1
                    if g.m <= 3:
                        assert uncovered_by_independent_search(g, counter), edges
        assert negatives == 80

    def test_structural_work_cap_refuses_before_allocating(self):
        g = graph(9, (1, 2, 3), (4, 5, 6), (7, 8, 9))
        hp = build_Hprime(build_H(g), 9, 3)
        start = time.perf_counter()
        # 19 passes for each of 3 edges over one limb of 2^27 syndromes
        # (and 32 bytes per syndrome, also over BYTES_CAP)
        with pytest.raises(CapExceededError, match=f"structural: estimated work {57 << 27} exceeds WORK_CAP"):
            every_coset_has_balanced_word(hp, 9, 3, "structural")
        assert time.perf_counter() - start < 1.0

    def test_auto_routes_by_caps(self):
        small = graph(1, (1, 1, 1))
        assert 8 * 1 + 1 <= BUCKET_SYNDROME_CAP and 14 <= BUCKET_LENGTH_CAP
        assert verify_reduction(small).method == "bucket"
        wide = graph(1, (1, 1, 1), (1, 1, 1))  # length 30 exceeds the cap
        assert verify_reduction(wide).method == "structural"

    def test_bucket_cap_enforced(self):
        g = graph(1, (1, 1, 1), (1, 1, 1), (1, 1, 1))
        hp = build_Hprime(build_H(g), 1, 3)
        with pytest.raises(CapExceededError):
            every_coset_has_balanced_word(hp, 1, 3, "bucket")

    def test_unknown_method_rejected(self):
        g = graph(1, (1, 1, 1))
        hp = build_Hprime(build_H(g), 1, 1)
        with pytest.raises(ValueError, match="unknown method"):
            every_coset_has_balanced_word(hp, 1, 1, "middle-out")

    def test_malformed_block_structure_rejected(self):
        g = graph(1, (1, 1, 1))
        hp = build_Hprime(build_H(g), 1, 1)
        bad_identity = LinearCode(14, (Word(14, 1),) + hp.rows[1:])
        with pytest.raises(ValueError, match="identity"):
            every_coset_has_balanced_word(bad_identity, 1, 1)
        spilled = LinearCode(14, hp.rows[:8] + (Word(14, 1 << 13),))
        with pytest.raises(ValueError, match="spills"):
            every_coset_has_balanced_word(spilled, 1, 1)
        with pytest.raises(ValueError, match="expected"):
            every_coset_has_balanced_word(hp, 2, 2)
        # H' with columns 3 and 4 of H swapped: the block still holds all of
        # F_2^3, but column 4 is no unit vector
        swapped = [r.bits ^ ((r.bits >> 3 ^ r.bits >> 4) & 1) * 0b11000 for r in hp.rows[6:]]
        swapped_hp = LinearCode(14, hp.rows[:6] + tuple(Word(14, r) for r in swapped))
        with pytest.raises(ValueError, match=r"columns 1\.\.8 of H are not the block of edge 1"):
            every_coset_has_balanced_word(swapped_hp, 1, 1)

    @pytest.mark.parametrize("method", ["bucket", "structural"])
    def test_malformed_edge_blocks_rejected(self, method):
        g = graph(2, (1, 2, 1), (2, 1, 2))
        hp = build_Hprime(build_H(g), 2, 2)
        i8 = 8 * 2 - 2 * 2

        def with_h(rows):
            return LinearCode(hp.n, hp.rows[:i8] + tuple(Word(hp.n, r) for r in rows))

        h = [r.bits for r in hp.rows[i8:]]
        assert _split_blocks(hp, 2, 2) == [(0, 3, 4), (1, 2, 5)]

        # columns 7 and 8 swapped, across blocks: the first block it breaks
        swapped = [r ^ ((r >> 7 ^ r >> 8) & 1) * 0x180 for r in h]
        with pytest.raises(ValueError, match="block of edge 1"):
            every_coset_has_balanced_word(with_h(swapped), 2, 2, method)
        # parts 1 and 2 swapped: the units sit in the wrong rows
        with pytest.raises(ValueError, match="block of edge 1"):
            every_coset_has_balanced_word(with_h(h[2:4] + h[:2] + h[4:]), 2, 2, method)
        # a part with two rows on one block, or none, in the second block
        with pytest.raises(ValueError, match="block of edge 2"):
            every_coset_has_balanced_word(with_h([h[0] | 0xF0 << 8] + h[1:]), 2, 2, method)
        with pytest.raises(ValueError, match="block of edge 2"):
            every_coset_has_balanced_word(with_h(h[:5] + [h[5] ^ 0xAA << 8]), 2, 2, method)
        # a stray bit in a row that carries no pattern there
        with pytest.raises(ValueError, match="block of edge 2"):
            every_coset_has_balanced_word(with_h([h[0] | 1 << 9] + h[1:]), 2, 2, method)


class TestFactOneInvariant:
    def test_all_ones_needs_exactly_t_columns_iff_matching(self):
        # t = 1: any number of copies of the only edge
        for m in (1, 2, 3):
            g = graph(1, *([(1, 1, 1)] * m))
            h = build_H(g)
            assert column_sum_reachable(h, 0b111, 1)[0]
            assert find_matching(g) is not None
        # t = 2: all pairs and a sample of triples of distinct edges
        instances = [
            graph(2, *pair) for pair in itertools.combinations(ALL_EDGES_T2, 2)
        ]
        instances += [
            graph(2, *triple)
            for triple in itertools.islice(
                itertools.combinations(ALL_EDGES_T2, 3), 0, None, 3
            )
        ]
        for g in instances:
            h = build_H(g)
            ok = column_sum_reachable(h, (1 << 6) - 1, 2)[0]
            assert ok == (find_matching(g) is not None)


class TestFullReachabilityRange:
    def test_matching_pair_reaches_every_target_at_every_weight(self):
        g = graph(2, (1, 1, 1), (2, 2, 2))
        h = build_H(g)
        for s in range(1 << 6):
            for w in range(2, 15):
                assert column_sum_reachable(h, s, w)[0]


class TestVerifyReduction:
    def test_single_edge_sides_disagree(self):
        # matching exists but 12 cosets stay uncovered at this size
        rep = verify_reduction(graph(1, (1, 1, 1)))
        assert rep.matching_found and rep.matching == (0,)
        assert rep.cosets_ok is False
        assert rep.equivalent is False
        assert uncovered_by_independent_search(
            graph(1, (1, 1, 1)), rep.counterexample_syndrome
        )

    def test_duplicated_edge_sides_agree(self):
        for m in (2, 3):
            rep = verify_reduction(graph(1, *([(1, 1, 1)] * m)))
            assert rep.matching_found and rep.cosets_ok and rep.equivalent
            assert rep.method == "structural"

    def test_disjoint_pair_equivalent(self):
        rep = verify_reduction(graph(2, (1, 1, 1), (2, 2, 2)), method="structural")
        assert rep.matching_found and rep.cosets_ok and rep.equivalent

    def test_uncovered_vertex_equivalent_with_both_sides_false(self):
        rep = verify_reduction(graph(2, (1, 1, 1), (1, 2, 2)), method="structural")
        assert not rep.matching_found and rep.cosets_ok is False
        assert rep.equivalent is True

    def test_oversized_bucket_degrades_to_partial_report(self):
        g = graph(1, (1, 1, 1), (1, 1, 1), (1, 1, 1))
        rep = verify_reduction(g, method="bucket")
        assert rep.matching_found
        assert rep.cosets_ok is None and rep.equivalent is None
        assert rep.method is None
        assert rep.to_json_dict()["verified"] is False

    def test_oversized_matching_search_degrades_too(self):
        g = graph(MATCHING_T_CAP + 1, (1, 1, 1))
        rep = verify_reduction(g)
        assert rep.matching is None and rep.matching_found is None
        assert rep.equivalent is None
        assert rep.to_json_dict()["verified"] is False

    def test_json_shape(self):
        d = verify_reduction(graph(1, (1, 1, 1))).to_json_dict()
        assert d["t"] == 1 and d["m"] == 1
        assert d["matching"] == [0]
        assert d["verified"] is True and d["equivalent"] is False
