"""The two budgets, WORK_CAP and BYTES_CAP, and the paths that check them.

Every array path states its work and bytes up front and refuses through
gf2.check_budget before it allocates.  The table test reads only those
estimates, at each boundary the budgets were set to keep: the call is
stopped at its check, so nothing behind it runs.
"""

from __future__ import annotations

import math
import time

import pytest

from balset import balancing, codec, constructions, ensemble, gf2, reduction
from balset.balancing import BalanceSpec, coset_counts, q_exact, uncovered_mask
from balset.codec import build_codec
from balset.constructions import figure1_fixture, greedy_balancing
from balset.ensemble import lemma1_identity_check
from balset.gf2 import (
    BYTES_CAP,
    WORK_CAP,
    CapExceededError,
    LinearCode,
    Word,
    check_budget,
    enumerate_span,
    span_array,
    weight_words,
)
from balset.reduction import build_H, build_Hprime, every_coset_has_balanced_word
from balset.reduction import TripartiteHypergraph


class _Stop(Exception):
    """Raised in place of the work behind a recorded check."""


@pytest.fixture
def verdict(monkeypatch):
    """verdict(what, fn, *args): run fn up to the budget check named `what`
    (earlier checks run as usual), stop it there, and say whether the real
    budgets pass that check's estimate."""
    seen: list[bool] = []
    target = [""]

    def record(what: str, work: int = 0, nbytes: int = 0) -> None:
        if what != target[0]:
            return check_budget(what, work, nbytes)
        seen.append(work <= WORK_CAP and nbytes <= BYTES_CAP)
        raise _Stop

    for module in (gf2, balancing, constructions, ensemble, codec, reduction):
        monkeypatch.setattr(module, "check_budget", record)

    def run(what, fn, *args) -> bool:
        seen.clear()
        target[0] = what
        with pytest.raises(_Stop):
            fn(*args)
        return seen[0]

    return run


def units(n: int, k: int) -> LinearCode:
    """The k unit vectors of F_2^n: a code of dimension k, r = n - k."""
    return LinearCode.from_ints(n, [1 << i for i in range(k)])


def hprime(t: int, m: int) -> LinearCode:
    g = TripartiteHypergraph(t, tuple((1 + i % t, 1, 1) for i in range(m)))
    return build_Hprime(build_H(g), t, m)


# (path, check name, call answering at the boundary, call refused past it)
BOUNDARIES = [
    ("coset_counts: r = 26 | 27", "coset_counts",
     lambda: coset_counts(BalanceSpec(28), [1] * 26),
     lambda: coset_counts(BalanceSpec(28), [1] * 27)),
    ("coset_counts int64: r = 26 | 27", "coset_counts",
     lambda: coset_counts(BalanceSpec(62), [1] * 26),
     lambda: coset_counts(BalanceSpec(62), [1] * 27)),
    ("q_exact wht n = 28, k = 1: 1 not in C | 1 in C", "coset_counts",
     lambda: q_exact(units(28, 1), BalanceSpec(28), "wht"),
     lambda: q_exact(LinearCode.from_ints(28, [(1 << 28) - 1]), BalanceSpec(28), "wht")),
    ("syndrome n = 32: lam = 0 | 1", "syndrome",
     lambda: q_exact(figure1_fixture(32).code, BalanceSpec(32, 0), "syndrome"),
     lambda: q_exact(figure1_fixture(32).code, BalanceSpec(32, 1), "syndrome")),
    ("naive: n = 24 | 26", "naive",
     lambda: q_exact(units(24, 20), BalanceSpec(24), "naive"),
     lambda: q_exact(units(26, 1), BalanceSpec(26), "naive")),
    ("sphere_mark n = 28: k = 5 | 6", "sphere_mark",
     lambda: q_exact(units(28, 5), BalanceSpec(28), "sphere_mark"),
     lambda: q_exact(units(28, 6), BalanceSpec(28), "sphere_mark")),
    ("span_array: k = 26 | 27", "span_array",
     lambda: span_array(units(27, 26)),
     lambda: span_array(units(27, 27))),
    ("enumerate_span: k = 26 | 27", "enumerate_span",
     lambda: next(enumerate_span(units(27, 26))),
     lambda: next(enumerate_span(units(27, 27)))),
    ("codec syndrome table: r = 26 | 27", "syndrome table",
     lambda: build_codec(units(28, 2), LinearCode(28, ())),
     lambda: build_codec(units(28, 1), LinearCode(28, ()))),
    ("greedy: n = 26 | 28", "greedy_balancing",
     lambda: greedy_balancing(26),
     lambda: greedy_balancing(28)),
    ("lemma 1: r' = 18 | 19", "lemma1_identity_check",
     lambda: lemma1_identity_check(units(20, 1), BalanceSpec(20)),
     lambda: lemma1_identity_check(units(20, 0), BalanceSpec(20))),
    ("lemma 1, 1 in C: r' = 18 | 19", "lemma1_identity_check",
     lambda: lemma1_identity_check(LinearCode.from_ints(20, [1, (1 << 20) - 1]), BalanceSpec(20)),
     lambda: lemma1_identity_check(LinearCode.from_ints(20, [(1 << 20) - 1]), BalanceSpec(20))),
    ("structural: t = 6, m = 20 | t = 9, m = 3", "structural",
     lambda: every_coset_has_balanced_word(hprime(6, 20), 6, 20, "structural"),
     lambda: every_coset_has_balanced_word(hprime(9, 3), 9, 3, "structural")),
    ("uncovered_mask: n = 28 | 30", "uncovered_mask",
     lambda: uncovered_mask(units(28, 4), BalanceSpec(28)),
     lambda: uncovered_mask(units(30, 4), BalanceSpec(30))),
]


@pytest.mark.parametrize("case", BOUNDARIES, ids=[b[0] for b in BOUNDARIES])
def test_boundary_estimates(verdict, case) -> None:
    _, what, inside, outside = case
    assert verdict(what, inside)
    assert not verdict(what, outside)


# (n, r, BALSET_THREADS, bytes coset_counts states): the array plus one
# block of scratch per thread of its transform, in the transform's dtype
COSET_BYTES = [
    (16, 12, "2", 4 * ((1 << 12) + (1 << 12))),
    (28, 22, "1", 4 * ((1 << 22) + balancing.FWHT_BLOCK)),
    (28, 22, "2", 4 * ((1 << 22) + 2 * balancing.FWHT_BLOCK)),
    (62, 26, "2", 8 * ((1 << 26) + 2 * balancing.FWHT_BLOCK)),
]


@pytest.mark.parametrize("n, r, threads, nbytes", COSET_BYTES)
def test_coset_counts_bytes_count_the_scratch(monkeypatch, n, r, threads, nbytes) -> None:
    monkeypatch.setattr(balancing, "_cores", lambda: 2)
    monkeypatch.setenv("BALSET_THREADS", threads)
    seen: list[int] = []

    def record(what: str, work: int = 0, nbytes: int = 0) -> None:
        seen.append(nbytes)
        raise _Stop

    monkeypatch.setattr(balancing, "check_budget", record)
    with pytest.raises(_Stop):
        coset_counts(BalanceSpec(n), [1] * r)
    assert seen == [nbytes]


def test_check_budget_names_budget_and_estimate() -> None:
    check_budget("x", WORK_CAP, BYTES_CAP)
    with pytest.raises(CapExceededError, match=f"x: estimated work {WORK_CAP + 1} exceeds WORK_CAP"):
        check_budget("x", WORK_CAP + 1)
    with pytest.raises(CapExceededError, match=f"x: estimated {BYTES_CAP + 1} bytes exceed BYTES_CAP"):
        check_budget("x", nbytes=BYTES_CAP + 1)


# (path, call, message naming the budget and the estimate); every call is
# refused at the real budgets before it allocates
REFUSALS = [
    ("naive bytes",
     lambda: q_exact(units(26, 1), BalanceSpec(26), "naive"),
     f"naive: estimated {18 << 26} bytes exceed BYTES_CAP"),
    ("sphere_mark bytes",
     lambda: q_exact(units(30, 0), BalanceSpec(30), "sphere_mark"),
     f"sphere_mark: estimated {(1 << 30) + 16 * math.comb(30, 15)} bytes exceed BYTES_CAP"),
    ("wht",
     lambda: q_exact(units(56, 0), BalanceSpec(56), "wht"),
     f"coset_counts: estimated work {55 << 55} exceeds WORK_CAP"),
    ("syndrome",
     lambda: q_exact(units(34, 2), BalanceSpec(34), "syndrome"),
     f"syndrome: estimated work {math.comb(34, 17) * 4} exceeds WORK_CAP"),
    ("weight_words",
     lambda: weight_words(40, 20),
     f"weight_words: estimated {8 * math.comb(40, 20)} bytes exceed BYTES_CAP"),
    ("codec syndrome table",
     lambda: build_codec(units(28, 1), LinearCode(28, ())),
     f"syndrome table: estimated {9 << 27} bytes exceed BYTES_CAP"),
    ("uncovered_mask",
     lambda: uncovered_mask(units(30, 4), BalanceSpec(30)),
     f"uncovered_mask: estimated {2 << 30} bytes exceed BYTES_CAP"),
]


@pytest.mark.parametrize("case", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusal_names_budget_and_estimate(case) -> None:
    _, call, message = case
    t0 = time.perf_counter()
    with pytest.raises(CapExceededError, match=message):
        call()
    assert time.perf_counter() - t0 < 1.0


def test_packed_paths_refuse_past_uint64() -> None:
    wide = LinearCode(66, (Word(66, 1 << 65),))
    for call in (
        lambda: span_array(wide),
        lambda: gf2.xor_span([1 << 65]),
        lambda: weight_words(66, 1),
        lambda: next(gf2.weight_words_chunks(66, 1)),
    ):
        with pytest.raises(CapExceededError, match="n <= 64, got n = 66"):
            call()


def test_naive_counts_its_work_as_it_scans(monkeypatch) -> None:
    """An even-weight code never covers an odd-weight word at n = 24, so the
    early exit never fires; the scan stops once its count passes WORK_CAP
    (lowered here so the test takes a few codewords, not 256)."""
    code = LinearCode.from_ints(24, [3 << i for i in range(20)])
    assert code.k == 20
    monkeypatch.setattr(gf2, "WORK_CAP", 1 << 25)
    with pytest.raises(CapExceededError, match=r"naive: estimated work \d+ exceeds WORK_CAP = 33554432"):
        q_exact(code, BalanceSpec(24), "naive")
