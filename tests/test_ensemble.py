"""Tests for randomized-ensemble experiments and the shift-averaging identity."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from balset import (
    BalanceSpec,
    CapExceededError,
    ConcentrationReport,
    EnsembleConfig,
    LinearCode,
    Word,
    enumerate_span,
    estimate_balancing_probability,
    figure1_fixture,
    lemma1_identity_check,
    q_exact,
    sample_random_subspace,
    simplex_extended,
    trial_rng,
    weight_concentration_check,
    wilson_interval,
)
from balset import ensemble
from balset.balancing import coset_counts
from balset.cli import main
from balset.ensemble import _trial_stream, _uniform_words
from test_balancing import one_odd_dual_code, seeded_code, with_ones


def random_code(n: int, rows: int, seed: int, trial: int = 0) -> LinearCode:
    return sample_random_subspace(n, rows, trial_rng(seed, trial))


class TestWilsonInterval:
    @given(st.integers(1, 500), st.data())
    def test_contains_point_estimate(self, trials, data):
        successes = data.draw(st.integers(0, trials))
        lo, hi = wilson_interval(successes, trials)
        p = successes / trials
        assert 0.0 <= lo <= p <= hi <= 1.0

    def test_degenerate_counts_stay_clamped(self):
        assert wilson_interval(0, 10)[0] == 0.0
        assert wilson_interval(10, 10)[1] == 1.0

    @pytest.mark.parametrize("successes,trials", [(-1, 10), (11, 10), (0, 0)])
    def test_bad_counts_rejected(self, successes, trials):
        with pytest.raises(ValueError):
            wilson_interval(successes, trials)

    def test_narrows_with_more_trials(self):
        lo1, hi1 = wilson_interval(5, 10)
        lo2, hi2 = wilson_interval(500, 1000)
        assert hi2 - lo2 < hi1 - lo1


class TestTrialStreams:
    def test_same_key_same_stream(self):
        assert trial_rng(9, 4).bytes(32) == trial_rng(9, 4).bytes(32)

    def test_distinct_trials_distinct_streams(self):
        draws = {trial_rng(0, t).bytes(16) for t in range(64)}
        assert len(draws) == 64

    def test_uniform_word_respects_length(self):
        rng = trial_rng(1, 0)
        for _ in range(50):
            assert 0 <= _uniform_words(11, 1, rng)[0] < 1 << 11

    def test_reused_generator_matches_trial_rng(self):
        # trials draw from one Philox per thread, its state reset for each
        # key; the trial before each one leaves a uint32 half word buffered
        keys = [(0, 0), (3, 11), (-(1 << 63), 0), ((1 << 63) - 1, 5), (-1, (1 << 63) - 1)]
        for key in keys:
            for n, rows in ((16, 4), (33, 3), (70, 2)):
                left = _trial_stream(1, 2)
                left.integers(0, 1 << 32, size=3, dtype=np.uint32)
                assert left.bit_generator.state["has_uint32"] == 1
                ref, rng = trial_rng(*key), _trial_stream(*key)
                assert rng is left
                got = sample_random_subspace(n, rows, rng)
                assert got == sample_random_subspace(n, rows, ref), (key, n)
                assert next_draws(rng) == next_draws(ref), (key, n)

    @pytest.mark.parametrize(
        "key", [(1 << 63, 0), (-(1 << 63) - 1, 0), (0, 1 << 63), ((1 << 64) - 1, 0)]
    )
    def test_keys_outside_int64_refused(self, key):
        # numpy would read 2^64 - 1 as key 0 and 2^63 + 1 as 2^63
        with pytest.raises(ValueError, match="outside"):
            trial_rng(*key)
        with pytest.raises(ValueError, match="outside"):
            _trial_stream(*key)


def per_row_words(n: int, rows: int, rng) -> list[int]:
    """The sampler as one Generator.bytes call per row, which the block
    draw of sample_random_subspace must reproduce."""
    nbytes = (n + 7) // 8
    return [
        int.from_bytes(rng.bytes(nbytes), "little") & ((1 << n) - 1)
        for _ in range(rows)
    ]


def next_draws(rng) -> tuple:
    """The next uint32 draws (which read philox's buffered half word) and
    the next uint64 draw: equal draws pin the stream position."""
    return (
        tuple(rng.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist()),
        int(rng.integers(0, 1 << 64, dtype=np.uint64)),
    )


class TestBlockDraw:
    @pytest.mark.parametrize("n", [*range(1, 71), 100, 128])
    def test_rows_and_stream_match_per_row_bytes(self, n):
        prefix = LinearCode.from_ints(n, [1, (1 << n) - 1, 1])
        for key in ((0, 0), (3, 11), ((1 << 62) + 5, 1 << 40)):
            for rows in range(18):
                for fixed in (None, prefix):
                    ref, rng = trial_rng(*key), trial_rng(*key)
                    want = per_row_words(n, rows, ref)
                    code = sample_random_subspace(n, rows, rng, fixed_prefix=fixed)
                    head = fixed.basis if fixed is not None else ()
                    assert code.rows[: len(head)] == head
                    assert [w.bits for w in code.rows[len(head) :]] == want
                    assert next_draws(rng) == next_draws(ref), (key, rows)

    def test_uniform_word_is_one_row(self):
        for n in (1, 11, 32, 33, 64, 100):
            ref, rng = trial_rng(4, n), trial_rng(4, n)
            for _ in range(5):
                assert _uniform_words(n, 1, rng)[0] == per_row_words(n, 1, ref)[0]
            assert next_draws(rng) == next_draws(ref)


# stdout of the two commands as the per-row sampler printed it
ENSEMBLE_N16_SEED1 = "".join(
    line + "\r\n"  # the csv module's line ends
    for line in [
        "rows,fraction,ci_lo,ci_hi",
        "4,0.0,0.0,0.07134759913335872",
        "5,0.92,0.8116175308165717,0.968450485911407",
        "6,0.98,0.8950455641036219,0.9964607407283539",
        *(f"{rows},1.0,0.9286524008666414,1.0" for rows in range(7, 17)),
    ]
)
LEMMA1_N14_SEED1 = (
    '{"all_equal": true, "cases": ['
    + ", ".join(
        f'{{"equal": true, "k": 3, "lambda": 0, "lhs_den": {den}, "lhs_num": {num}, '
        f'"n": 14, "rhs_den": {den}, "rhs_num": {num}}}'
        for num, den in (
            (67081, 262144), (1849, 262144), (6889, 1048576), (1089, 65536), (5329, 262144),
        )
    )
    + "]}\n"
)


@pytest.mark.parametrize(
    "argv, want",
    [
        ("ensemble --n 16 --rows 4..16 --trials 50 --seed 1", ENSEMBLE_N16_SEED1),
        ("lemma1 --n 14 --rows 3 --random 5 --seed 1", LEMMA1_N14_SEED1),
    ],
    ids=["ensemble", "lemma1"],
)
def test_cli_stdout_pinned(argv, want, capsys):
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == want


class TestSampleRandomSubspace:
    def test_zero_rows_gives_zero_code(self):
        code = sample_random_subspace(6, 0, trial_rng(0, 0))
        assert code.k == 0 and code.rows == ()

    def test_seeded_reproducibility(self):
        a = sample_random_subspace(10, 4, trial_rng(5, 3))
        b = sample_random_subspace(10, 4, trial_rng(5, 3))
        assert a == b

    def test_row_count_kept_even_when_dependent(self):
        # dependent draws must not be silently dropped
        rng = trial_rng(2, 0)
        code = sample_random_subspace(8, 20, rng)
        assert len(code.rows) == 20 and code.k <= 8

    def test_prefix_rows_prepended_and_spanned(self):
        prefix = simplex_extended(3, 2)
        code = sample_random_subspace(8, 3, trial_rng(1, 1), fixed_prefix=prefix)
        assert code.rows[: len(prefix.basis)] == prefix.basis
        for w in prefix.basis:
            assert code.contains(w)

    def test_prefix_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EnsembleConfig(8, 2, fixed_prefix=simplex_extended(4, 2))

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            sample_random_subspace(8, -1, trial_rng(0, 0))


class TestEstimateBalancingProbability:
    def test_report_is_deterministic(self):
        cfg = EnsembleConfig(8, 3, trials=30, master_seed=3)
        a = estimate_balancing_probability(cfg)
        b = estimate_balancing_probability(cfg)
        assert a == b

    def test_thread_count_does_not_change_outcomes(self):
        cfg = EnsembleConfig(8, 3, trials=30, master_seed=3)
        assert (
            estimate_balancing_probability(cfg, threads=1).outcomes
            == estimate_balancing_probability(cfg, threads=4).outcomes
        )

    def test_trial_pool_runs_transforms_serially(self, fan_widths, monkeypatch):
        # one row at n = 20 leaves r >= 19 check rows, a transform of two
        # blocks: on its own it fans out, in the trial pool it must not
        monkeypatch.setenv("BALSET_THREADS", "2")
        cfg = EnsembleConfig(20, 1, trials=4, master_seed=5)
        alone = estimate_balancing_probability(cfg, threads=1)
        assert 2 in fan_widths
        fan_widths.clear()
        pooled = estimate_balancing_probability(cfg, threads=2)
        assert fan_widths == [1, 1, 1, 1]
        assert pooled == alone

    def test_trials_extend_as_a_prefix(self):
        # per-trial keying: a shorter run is a prefix of a longer one
        short = estimate_balancing_probability(EnsembleConfig(8, 3, trials=10, master_seed=3))
        long = estimate_balancing_probability(EnsembleConfig(8, 3, trials=30, master_seed=3))
        assert long.outcomes[:10] == short.outcomes

    def test_pinned_counts(self):
        rep = estimate_balancing_probability(EnsembleConfig(16, 5, trials=40, master_seed=1))
        assert rep.successes == 36
        rep = estimate_balancing_probability(EnsembleConfig(8, 3, trials=30, master_seed=3))
        assert rep.successes == 14
        assert rep.outcomes[:8] == (True, False, False, True, True, False, False, False)

    def test_outcomes_match_direct_recomputation(self):
        cfg = EnsembleConfig(8, 3, trials=12, master_seed=6, lam=1)
        rep = estimate_balancing_probability(cfg)
        spec = BalanceSpec(8, 1)
        for t, got in enumerate(rep.outcomes):
            code = sample_random_subspace(8, 3, trial_rng(6, t))
            assert got == (q_exact(code, spec).uncovered_count == 0)

    def test_per_trial_superset_monotonicity(self):
        # trial t at rows r+1 re-draws the same first r rows, so a success
        # at r forces a success at r+1
        lo = estimate_balancing_probability(EnsembleConfig(8, 2, trials=30, master_seed=4))
        hi = estimate_balancing_probability(EnsembleConfig(8, 3, trials=30, master_seed=4))
        for a, b in zip(lo.outcomes, hi.outcomes):
            assert b or not a
        code2 = sample_random_subspace(8, 2, trial_rng(4, 0))
        code3 = sample_random_subspace(8, 3, trial_rng(4, 0))
        assert code3.rows[:2] == code2.rows

    def test_balancing_prefix_always_succeeds(self):
        prefix = figure1_fixture(8).code
        cfg = EnsembleConfig(8, 0, trials=5, master_seed=0, fixed_prefix=prefix)
        rep = estimate_balancing_probability(cfg)
        assert rep.successes == 5 and rep.fraction == 1

    def test_summary_fields_consistent(self):
        rep = estimate_balancing_probability(EnsembleConfig(8, 3, trials=30, master_seed=3))
        assert rep.successes == sum(rep.outcomes)
        assert rep.fraction == Fraction(rep.successes, 30)
        assert rep.wilson_ci_95 == wilson_interval(rep.successes, 30)
        d = rep.to_json_dict()
        assert d["successes"] == rep.successes
        assert d["ci_lo"] == rep.wilson_ci_95[0]
        assert d["lambda"] == 0

    @pytest.mark.parametrize(
        "kwargs",
        [{"rows": -1}, {"trials": 0}, {"lam": 9},
         {"master_seed": 1 << 63}, {"master_seed": -(1 << 63) - 1}],
    )
    def test_config_validation(self, kwargs):
        base = {"n": 8, "rows": 2, "trials": 1, "lam": 0}
        with pytest.raises(ValueError):
            EnsembleConfig(**{**base, **kwargs})


class TestLemma1Identity:
    def test_zero_code_n4(self):
        lhs, rhs, ok = lemma1_identity_check(LinearCode(4, ()), BalanceSpec(4, 0))
        assert ok and lhs == rhs == Fraction(100, 256)

    def test_full_space_both_sides_vanish(self):
        code = LinearCode(4, tuple(Word(4, 1 << i) for i in range(4)))
        lhs, rhs, ok = lemma1_identity_check(code, BalanceSpec(4, 0))
        assert ok and lhs == 0 and rhs == 0

    def test_holds_on_random_codes(self):
        for n in (6, 8, 10):
            for t in range(16):
                code = random_code(n, 2, seed=11, trial=t)
                lhs, rhs, ok = lemma1_identity_check(code, BalanceSpec(n, 0))
                assert ok and lhs == rhs

    def test_holds_with_positive_tolerance(self):
        for t in range(8):
            code = random_code(8, 2, seed=13, trial=t)
            assert lemma1_identity_check(code, BalanceSpec(8, 1))[2]

    def test_matches_naive_shift_average(self):
        # oracle: average Q(C + Fx) over every shift x by the naive word
        # scan, no coset folding; each code also with 1 adjoined and one
        # with exactly one odd dual row
        for n, lam in ((6, 0), (8, 0), (8, 1), (10, 0), (10, 1)):
            for t in range(2):
                code = random_code(n, 2, seed=17, trial=t)
                for c in (code, with_ones(code), one_odd_dual_code(n, 2, 17 + t)):
                    spec = BalanceSpec(n, lam)
                    total = Fraction(0)
                    for x in range(1 << n):
                        total += q_exact(c.extended(Word(n, x)), spec, method="naive").q
                    lhs = lemma1_identity_check(c, spec)[0]
                    assert lhs == total / (1 << n), (n, lam, t, c.k)

    def test_transforms_the_cosets_of_c_plus_ones(self, monkeypatch):
        # coset_counts gets n - k - 1 check rows when 1 is not in C, and
        # n - k when it is
        seen = []

        def spy(spec, rows):
            seen.append(len(rows))
            return coset_counts(spec, rows)

        monkeypatch.setattr(ensemble, "coset_counts", spy)
        base = seeded_code(12, 4, 3)
        plus_ones = with_ones(base)
        assert plus_ones.k == 5  # so 1 is not in base
        cases = [(base, 7), (plus_ones, 7), (one_odd_dual_code(12, 5, 3), 6)]
        for code, want in cases:
            seen.clear()
            assert lemma1_identity_check(code, BalanceSpec(12, 1))[2]
            assert seen == [want], code.k

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lemma1_identity_check(LinearCode(6, ()), BalanceSpec(4, 0))

    def test_cap_enforced(self):
        # r' = 19 (C + <1> = <1>): 2^19 shifts of 2^13 packed words each
        with pytest.raises(CapExceededError, match=f"work {1 << 32} exceeds WORK_CAP"):
            lemma1_identity_check(LinearCode(20, ()), BalanceSpec(20, 0))


class TestWeightConcentration:
    def test_ell_is_half_log(self):
        for n, ell in [(4, 1), (8, 2), (16, 2), (20, 3)]:
            rep = weight_concentration_check(n, Fraction(1, 2), 1, 0)
            assert (rep.n, rep.ell) == (n, ell)

    def test_pinned_small_run(self):
        rep = weight_concentration_check(16, Fraction(1, 4), 20, 7)
        assert rep.freq_e == 1
        assert rep.freq_q_above_3_4 == 0
        assert rep.uncovered[0] == 24136

    def test_uncovered_matches_direct_check(self):
        rep = weight_concentration_check(8, Fraction(1, 4), 6, 5)
        spec = BalanceSpec(8, 0)
        for t in range(6):
            code = sample_random_subspace(8, rep.ell, trial_rng(5, t))
            assert rep.uncovered[t] == q_exact(code, spec).uncovered_count

    def test_e_holds_matches_direct_check(self):
        rep = weight_concentration_check(8, Fraction(1, 8), 10, 5)
        for t in range(10):
            code = sample_random_subspace(8, rep.ell, trial_rng(5, t))
            words = [w for w in enumerate_span(code) if w.bits != 0]
            ok = all(abs(w.weight() - 4) <= Fraction(1, 8) * 8 for w in words)
            assert rep.e_holds[t] == ok

    def test_constant_weight_prefix_never_fails_event(self):
        # rank-2 prefix of weight-n/2 rows absorbs the whole draw budget
        prefix = simplex_extended(4, 2)
        rep = weight_concentration_check(16, Fraction(0), 5, 0, fixed_prefix=prefix)
        assert rep.freq_e == 1

    def test_rank_zero_draw_is_vacuously_balanced(self):
        # seed 12 draws the zero word first for n = 4
        assert _uniform_words(4, 1, trial_rng(12, 0))[0] == 0
        rep = weight_concentration_check(4, Fraction(0), 1, 12)
        assert rep.e_holds == (True,)
        assert rep.uncovered == (10,)

    def test_frequency_arithmetic(self):
        rep = ConcentrationReport(
            n=4,
            ell=1,
            delta=Fraction(0),
            trials=4,
            master_seed=0,
            e_holds=(True, False, True, True),
            uncovered=(0, 13, 12, 16),
        )
        assert rep.freq_e == Fraction(3, 4)
        # threshold is strict: 4*12 == 3*16 does not count
        assert rep.freq_q_above_3_4 == Fraction(2, 4)
        d = rep.to_json_dict()
        assert d["freq_E"] == 0.75 and d["delta_den"] == 1

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            weight_concentration_check(8, Fraction(1, 4), 0, 0)
