from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from balset.gf2 import (
    BYTES_CAP,
    CapExceededError,
    LinearCode,
    Word,
    bulk_syndromes,
    distance,
    enumerate_span,
    load_generator_matrix,
    parse_generator_matrix,
    parity_limb_tables,
    row_reduce,
    save_generator_matrix,
    span_array,
    syndrome_bits,
    syndrome_tables,
    weight_words,
    weight_words_chunks,
    xor_span,
)


def random_code(rng: np.random.Generator, n: int, rows: int) -> LinearCode:
    return LinearCode.from_ints(n, [int(rng.integers(0, 1 << n)) for _ in range(rows)])


# -- words -------------------------------------------------------------------

def test_word_string_roundtrip() -> None:
    w = Word.from_string("1100101")
    assert str(w) == "1100101"
    # leftmost character is coordinate 1 = bit 0
    assert w.bits & 1 == 1
    assert w.bits >> 6 & 1 == 1
    assert w.weight() == 4


def test_word_empty_and_validation() -> None:
    assert str(Word.from_string("")) == ""
    with pytest.raises(ValueError):
        Word(4, 16)
    with pytest.raises(ValueError):
        Word(-1, 0)
    with pytest.raises(ValueError):
        Word.from_string("10x1")


def test_word_xor_checks_length() -> None:
    assert (Word(4, 0b1010) + Word(4, 0b0110)).bits == 0b1100
    with pytest.raises(ValueError):
        Word(4, 1) ^ Word(5, 1)


def test_distance() -> None:
    assert distance(Word.from_string("1010"), Word.from_string("0110")) == 2


@given(st.integers(1, 40), st.data())
def test_word_string_involution(n: int, data) -> None:
    bits = data.draw(st.integers(0, (1 << n) - 1))
    w = Word(n, bits)
    assert Word.from_string(str(w)) == w


# -- row reduction -----------------------------------------------------------

def test_row_reduce_canonical() -> None:
    rows = [Word.from_string(s) for s in ("1110", "0110", "1000")]
    basis, rank = row_reduce(rows)
    assert rank == 2
    # pivots ascending, each pivot set in exactly one row
    pivots = [(b.bits & -b.bits).bit_length() - 1 for b in basis]
    assert pivots == sorted(pivots)
    for p in pivots:
        assert sum(b.bits >> p & 1 for b in basis) == 1


def test_row_reduce_order_independent() -> None:
    rows = [Word(6, v) for v in (0b101010, 0b011001, 0b110011)]
    a, _ = row_reduce(rows)
    b, _ = row_reduce(rows[::-1])
    assert a == b


@given(st.integers(2, 12), st.data())
def test_row_reduce_preserves_span(n: int, data) -> None:
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    code = LinearCode.from_ints(n, rows)
    reduced = LinearCode(n, code.basis)
    span = {w.bits for w in enumerate_span(code)}
    assert span == {w.bits for w in enumerate_span(reduced)}
    assert len(span) == 1 << code.k


# -- linear codes ------------------------------------------------------------

def test_code_rejects_mixed_lengths() -> None:
    with pytest.raises(ValueError):
        LinearCode(4, (Word(5, 1),))


def test_code_contains_and_reduce() -> None:
    code = LinearCode.from_strings(["1100", "0011"])
    assert code.k == 2
    assert code.contains(Word.from_string("1111"))
    assert not code.contains(Word.from_string("1000"))
    # reduce_bits is constant on cosets
    for y in range(16):
        rep = code.reduce_bits(y)
        for c in enumerate_span(code):
            assert code.reduce_bits(y ^ c.bits) == rep


def test_extended_appends_row() -> None:
    code = LinearCode.from_strings(["1100"])
    ext = code.extended(Word.from_string("0011"))
    assert ext.k == 2 and ext.rows[-1] == Word.from_string("0011")


@given(st.integers(2, 10), st.data())
def test_span_closed_under_xor(n: int, data) -> None:
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
    code = LinearCode.from_ints(n, rows)
    words = list(enumerate_span(code))
    assert code.contains(words[0] + words[-1])


@given(st.integers(2, 10), st.data())
def test_dual_basis_orthogonal(n: int, data) -> None:
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
    code = LinearCode.from_ints(n, rows)
    duals = code.dual_basis()
    assert len(duals) == n - code.k
    for h in duals:
        for c in code.basis:
            assert (h.bits & c.bits).bit_count() % 2 == 0
    _, dual_rank = row_reduce(duals)
    assert dual_rank == n - code.k


def reduce_by_scan(rows: list[int]) -> tuple[list[int], list[int]]:
    """RREF that scans the whole basis for every row and every new pivot,
    the reference for the pivot-mask reduction."""
    basis: list[int] = []
    pivots: list[int] = []
    for row in rows:
        for p, b in zip(pivots, basis):
            if (row >> p) & 1:
                row ^= b
        if row == 0:
            continue
        p = (row & -row).bit_length() - 1
        pos = next((i for i, q in enumerate(pivots) if q > p), len(pivots))
        for i, b in enumerate(basis):
            if (b >> p) & 1:
                basis[i] = b ^ row
        basis.insert(pos, row)
        pivots.insert(pos, p)
    return basis, pivots


def dual_by_scan(n: int, basis: list[int], pivots: list[int]) -> list[int]:
    """Dual rows found by testing every coordinate against every pivot row,
    the reference for dual_rows."""
    out = []
    for f in range(n):
        if f in pivots:
            continue
        h = 1 << f
        for p, b in zip(pivots, basis):
            if (b >> f) & 1:
                h |= 1 << p
        out.append(h)
    return out


def messy_rows(gen: random.Random, n: int) -> list[int]:
    """Random rows of length n with zero, repeated and dependent rows mixed
    in."""
    rows: list[int] = []
    for _ in range(gen.randrange(0, min(n, 24) + 4)):
        kind = gen.randrange(6)
        if kind == 0 or not rows:
            rows.append(gen.getrandbits(n) if kind else 0)
        elif kind == 1:
            rows.append(gen.choice(rows))
        elif kind == 2:
            rows.append(gen.choice(rows) ^ gen.choice(rows))
        else:
            rows.append(gen.getrandbits(n))
    return rows


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 17, 31, 64, 65, 100, 130])
def test_pivot_mask_reduction_matches_full_scan(n: int) -> None:
    gen = random.Random(n)
    for _ in range(60):
        rows = messy_rows(gen, n)
        basis, pivots = reduce_by_scan(rows)
        code = LinearCode.from_ints(n, rows)
        assert [w.bits for w in code.basis] == basis
        assert list(code.pivots) == pivots
        reduced, rank = row_reduce(code.rows)
        assert [w.bits for w in reduced] == basis and rank == len(basis)
        assert list(code.dual_rows) == dual_by_scan(n, basis, pivots)
        assert [w.bits for w in code.dual_basis()] == list(code.dual_rows)
        for h in code.dual_rows:
            for b in basis:
                assert (h & b).bit_count() % 2 == 0


@given(st.integers(2, 10), st.data())
def test_syndrome_zero_iff_member(n: int, data) -> None:
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
    code = LinearCode.from_ints(n, rows)
    y = data.draw(st.integers(0, (1 << n) - 1))
    assert (syndrome_bits(code, y) == 0) == code.contains(Word(n, y))


def test_span_cap_enforced() -> None:
    # 16 bytes for each of 2^28 words: refused before anything is built
    code = LinearCode.from_ints(28, [1 << i for i in range(28)])
    assert 16 << code.k > BYTES_CAP
    with pytest.raises(CapExceededError, match=f"enumerate_span: .*{16 << 28} bytes exceed BYTES_CAP"):
        list(enumerate_span(code))
    with pytest.raises(CapExceededError, match=f"span_array: .*{16 << 28} bytes exceed BYTES_CAP"):
        span_array(code)


@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
def test_xor_span_matches_concatenate_definition(dtype) -> None:
    bits = np.iinfo(dtype).bits
    gen = random.Random(bits)
    for length in range(21):
        values = [gen.getrandbits(bits) for _ in range(length)]
        want = np.zeros(1, dtype=dtype)
        for v in values:
            want = np.concatenate([want, want ^ dtype(v)])
        got = xor_span(values, dtype)
        assert got.dtype == dtype and np.array_equal(got, want), length


def test_span_array_matches_enumeration() -> None:
    code = LinearCode.from_strings(["10110", "01011", "00101"])
    from_iter = sorted(w.bits for w in enumerate_span(code))
    from_arr = sorted(int(v) for v in span_array(code))
    assert from_iter == from_arr
    assert span_array(code)[0] == 0


# -- matrix file format ------------------------------------------------------

def test_matrix_roundtrip(tmp_path) -> None:
    code = LinearCode.from_strings(["110010", "001101"])
    path = tmp_path / "m.txt"
    save_generator_matrix(code, path, header="two rows\nof six")
    text = path.read_text()
    assert text.startswith("# two rows\n# of six\n")
    loaded = load_generator_matrix(path)
    assert loaded.rows == code.rows


def test_matrix_header_lines(tmp_path) -> None:
    path = tmp_path / "m.txt"
    save_generator_matrix([Word.from_string("0101")], path, header=["a", "b"])
    assert path.read_text() == "# a\n# b\n0101\n"


def test_parse_skips_comments_and_blanks() -> None:
    code = parse_generator_matrix("# note\n\n 1100 \n0110\n")
    assert [str(r) for r in code.rows] == ["1100", "0110"]


def test_parse_rejects_ragged() -> None:
    with pytest.raises(ValueError):
        parse_generator_matrix("110\n10\n")


def test_parse_rejects_garbage() -> None:
    with pytest.raises(ValueError):
        parse_generator_matrix("12a\n")


def test_parse_empty_is_zero_code() -> None:
    assert parse_generator_matrix("# nothing\n").k == 0


# -- constant-weight enumeration ----------------------------------------------

@pytest.mark.parametrize("n,w", [(1, 0), (5, 2), (8, 4), (10, 0), (10, 10), (12, 5)])
def test_weight_words_exact(n: int, w: int) -> None:
    words = weight_words(n, w)
    assert len(words) == math.comb(n, w)
    assert all(int(v).bit_count() == w for v in words)
    assert list(words) == sorted(words)
    expected = sorted(
        sum(1 << p for p in pos) for pos in combinations(range(n), w)
    )
    assert [int(v) for v in words] == expected


def test_weight_words_chunks_concatenate() -> None:
    full = weight_words(14, 7)
    parts = list(weight_words_chunks(14, 7, chunk=1000))
    assert sum(len(p) for p in parts) == len(full)
    assert np.array_equal(np.concatenate(parts), full)


# -- bulk syndromes -----------------------------------------------------------

def test_parity_limb_tables_match_scalar() -> None:
    rng = np.random.default_rng(5)
    n = 37
    code = random_code(rng, n, 7)
    tables, r = syndrome_tables(code)
    assert r == n - code.k
    words = rng.integers(0, 1 << n, size=300, dtype=np.uint64)
    got = bulk_syndromes(tables, words)
    for w, s in zip(words, got):
        assert int(s) == syndrome_bits(code, int(w))


def test_parity_limb_tables_width_cap() -> None:
    with pytest.raises(CapExceededError):
        parity_limb_tables(range(1, 34), 40)


@given(st.integers(2, 16), st.data())
def test_bulk_syndromes_zero_on_codewords(n: int, data) -> None:
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5))
    code = LinearCode.from_ints(n, rows)
    tables, _ = syndrome_tables(code)
    span = span_array(code)
    assert not bulk_syndromes(tables, span).any()
