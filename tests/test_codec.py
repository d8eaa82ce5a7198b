"""Tests for the balanced direct-sum codec and its volume bounds."""

import itertools
import json
import math
from fractions import Fraction
from importlib.resources import files

import pytest

from balset import (
    BalancingSearchError,
    CapExceededError,
    LinearCode,
    Word,
    balanced_subcode_min_distance,
    bounds,
    build_codec,
    decode,
    encode,
    enumerate_span,
    hamming_volume,
    load_codec,
    save_codec,
    weight_words,
)

FIXTURE_MANIFEST = files("balset") / "fixtures" / "codec16_manifest.json"


def word(s: str) -> Word:
    return Word.from_string(s)


def code(*rows: str) -> LinearCode:
    return LinearCode(len(rows[0]), tuple(word(r) for r in rows))


@pytest.fixture(scope="module")
def codec16():
    return load_codec(str(FIXTURE_MANIFEST))


def toy_codec(strict: bool = True):
    # [4] direct sum: information span {1111}, balancing span {0011}
    return build_codec(code("1111"), code("0011"), strict=strict)


class TestBuildValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            build_codec(code("1111"), code("00110011"))

    def test_odd_length(self):
        with pytest.raises(ValueError, match="even"):
            build_codec(code("111"), code("001"))

    def test_intersecting_components(self):
        with pytest.raises(ValueError, match="intersect"):
            build_codec(code("1100", "0011"), code("1111"))

    def test_zero_dimension_information_component(self):
        with pytest.raises(ValueError, match="positive dimension"):
            build_codec(LinearCode(4, ()), code("0011"))

    def test_radius_beyond_half_distance(self):
        # d' = 4 allows at most t' = 1
        with pytest.raises(ValueError, match="radius"):
            build_codec(code("1111"), code("0011"), t_prime=2)
        with pytest.raises(ValueError, match="radius"):
            build_codec(code("1111"), code("0011"), t_prime=-1)

    def test_radius_defaults_to_limit(self):
        assert toy_codec().t_prime == 1

    def test_zero_dimension_balancing_component_allowed(self):
        codec = build_codec(code("0110"), LinearCode(4, ()), strict=True)
        assert codec.k_bal == 0
        assert encode(codec, 1) == word("0110")


class TestSyndromeTable:
    def test_every_small_error_is_its_own_leader(self, codec16):
        table = codec16.table
        for w in range(codec16.t_prime + 1):
            for e in weight_words(16, w):
                assert table.leader(table.syndrome(int(e))) == int(e)

    def test_fill_count_is_ball_volume(self, codec16):
        assert int(codec16.table.filled.sum()) == hamming_volume(16, 3)

    def test_some_syndrome_is_out_of_range(self, codec16):
        missing = [s for s in range(1 << 11) if codec16.table.leader(s) is None]
        assert missing
        assert codec16.table.leader(missing[0]) is None


class TestEncode:
    def test_message_range_checked(self, codec16):
        with pytest.raises(ValueError, match="out of range"):
            encode(codec16, -1)
        with pytest.raises(ValueError, match="out of range"):
            encode(codec16, 1 << codec16.k_prime)

    def test_strict_output_always_balanced(self, codec16):
        for u in range(1 << codec16.k_prime):
            assert encode(codec16, u).weight() == 8

    def test_translate_choice_is_brute_force_optimum(self):
        codec = toy_codec()
        for u in (0, 1):
            got = encode(codec, u)
            c = 0 if u == 0 else 0b1111
            best = min(
                (abs(2 * ((c ^ x.bits).bit_count()) - 4), c ^ x.bits)
                for x in enumerate_span(codec.cbal)
            )
            assert (abs(2 * got.weight() - 4), got.bits) == best

    def test_strict_failure_raises(self):
        # no translate of 0110 by {0000, 1111} has weight 2... both do; use
        # an information word of odd weight instead
        codec = build_codec(code("1000"), code("1111"), strict=True)
        with pytest.raises(BalancingSearchError):
            encode(codec, 1)

    def test_relaxed_mode_returns_best_effort(self):
        codec = build_codec(code("1000"), code("1111"), strict=False)
        got = encode(codec, 1)
        assert abs(2 * got.weight() - 4) == 2

    def test_direct_sum_injectivity(self, codec16):
        relaxed = build_codec(
            codec16.cprime, codec16.cbal, codec16.t_prime, strict=False
        )
        seen = set()
        for u in range(1 << codec16.k_prime):
            for x in enumerate_span(codec16.cbal):
                seen.add(encode(relaxed, u).bits ^ x.bits)
        assert len(seen) == 1 << (codec16.k_prime + codec16.k_bal)


class TestDecode:
    def test_roundtrip_within_guaranteed_radius(self, codec16):
        # d_bal = 4 and t' = 3 guarantee radius min(3, 1) = 1
        errors = [0] + [1 << i for i in range(16)]
        cases = ok = 0
        for u in range(1 << codec16.k_prime):
            sent = encode(codec16, u)
            for e in errors:
                cases += 1
                res = decode(codec16, Word(16, sent.bits ^ e))
                if res is not None and res.message == u:
                    assert res.codeword == sent
                    assert res.error_weight == bin(e).count("1")
                    ok += 1
        assert (cases, ok) == (544, 544)

    def test_component_call_count(self, codec16):
        res = decode(codec16, encode(codec16, 7))
        assert res.component_calls == 1 << codec16.k_bal

    def test_weight_two_errors_can_defeat_decoding(self, codec16):
        # beyond the guaranteed radius failures must exist since d_bal = 4
        sent = {u: encode(codec16, u) for u in range(4)}
        failures = 0
        for u, tx in sent.items():
            for e in weight_words(16, 2):
                res = decode(codec16, Word(16, tx.bits ^ int(e)))
                if res is None or res.message != u:
                    failures += 1
        assert failures > 0

    def test_far_word_returns_none(self, codec16):
        assert decode(codec16, Word(16, 0)) is None

    def test_deterministic(self, codec16):
        y = Word(16, 0b1010011001011100)
        assert decode(codec16, y) == decode(codec16, y)

    def test_length_mismatch(self, codec16):
        with pytest.raises(ValueError, match="length mismatch"):
            decode(codec16, Word(8, 0))

    def test_toy_roundtrip_all_single_errors(self):
        codec = toy_codec()
        for u in (0, 1):
            sent = encode(codec, u)
            for e in [0, 1, 2, 4, 8]:
                res = decode(codec, Word(4, sent.bits ^ e))
                if res is not None:
                    # t' = 1 but d_bal = 2: only weight 0 is guaranteed
                    assert e or res.message == u


class TestBalancedSubcodeDistance:
    def test_fixture_value(self, codec16):
        assert balanced_subcode_min_distance(codec16) == 4

    def test_full_space_gives_two(self):
        codec = build_codec(
            code("1000", "0100"), code("0010", "0001"), strict=False
        )
        assert balanced_subcode_min_distance(codec) == 2

    def test_single_balanced_word_is_infinite(self):
        codec = build_codec(code("01"), LinearCode(2, ()), t_prime=0, strict=False)
        assert balanced_subcode_min_distance(codec) == math.inf

    def test_pairwise_cap(self):
        # all of F_2^20: C(20, 10) = 184756 > 2^16 balanced words, so the
        # B^2 / 2 pairs exceed WORK_CAP
        rows = [Word(20, 1 << i) for i in range(20)]
        codec = build_codec(
            LinearCode(20, tuple(rows[:10])),
            LinearCode(20, tuple(rows[10:])),
            strict=False,
        )
        pairs = 184756**2 // 2
        with pytest.raises(CapExceededError, match=f"pairs: estimated work {pairs} exceeds WORK_CAP"):
            balanced_subcode_min_distance(codec)


class TestVolumeAndBounds:
    def test_hamming_volume_matches_binomials(self):
        for n in (1, 5, 16):
            for t in range(n + 1):
                assert hamming_volume(n, t) == sum(
                    math.comb(n, i) for i in range(t + 1)
                )
        assert hamming_volume(16, 0) == 1
        assert hamming_volume(16, 16) == 1 << 16

    def test_volume_range_checked(self):
        with pytest.raises(ValueError):
            hamming_volume(8, -1)
        with pytest.raises(ValueError):
            hamming_volume(8, 9)

    def test_known_reports(self):
        rep = bounds(16, 4, 3, 5, 6)
        assert rep.gv_premise_holds
        assert rep.failure_bound == Fraction(8768, 2517)
        assert not bounds(16, 5, 3, 5, 6).gv_premise_holds
        # d = d' collapses the ratio to the balancing-component size
        assert bounds(16, 4, 5, 5, 6).failure_bound == 64

    def test_bound_recomputed_independently(self, codec16):
        n, kp, kb = 16, 5, 5
        for d in (2, 3, 4):
            for dp in (d, d + 2, 8):
                rep = bounds(n, kp, d, dp, kb)
                vol_d = sum(math.comb(n, i) for i in range(d))
                vol_dp = sum(math.comb(n, i) for i in range(dp))
                assert rep.gv_premise_holds == ((1 << kp) * vol_dp <= 1 << n)
                assert rep.failure_bound == Fraction((1 << kb) * vol_d, vol_dp)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bounds(16, 4, 6, 5, 6)  # d > d'
        with pytest.raises(ValueError):
            bounds(16, 4, 0, 5, 6)
        with pytest.raises(ValueError):
            bounds(16, -1, 3, 5, 6)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        codec = toy_codec()
        manifest = save_codec(codec, tmp_path, stem="toy")
        loaded = load_codec(manifest)
        assert (loaded.n, loaded.k_prime, loaded.k_bal) == (4, 1, 1)
        assert loaded.t_prime == codec.t_prime
        assert loaded.strict_balance == codec.strict_balance
        assert loaded.cprime.basis == codec.cprime.basis
        assert loaded.cbal.basis == codec.cbal.basis

    def test_manifest_tamper_detected(self, tmp_path):
        manifest = save_codec(toy_codec(), tmp_path, stem="toy")
        data = json.loads(manifest.read_text())
        data["k_prime"] = 3
        manifest.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="manifest"):
            load_codec(manifest)

    def test_packaged_fixture_consistent(self, codec16):
        manifest = json.loads(FIXTURE_MANIFEST.read_text())
        assert manifest["n"] == codec16.n == 16
        assert manifest["strict"] and codec16.strict_balance
        assert manifest["k_prime"] == codec16.k_prime
        assert manifest["k_bal"] == codec16.k_bal
        # the information component is distance 8, so t' = 3 is the limit
        assert codec16.d_prime == 8 and codec16.t_prime == 3
