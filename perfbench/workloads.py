"""The four benchmark workloads.

Each workload turns a seed into a fixed job list (its inputs), runs one job
at a time through the library's public functions (a closed loop with one
client), and checks every answer against a reference computed by an exact
method other than the one the library picks.

A job is a tuple whose first element names the operation kind.  `run`
returns a JSON-able answer, `reference` the JSON-able expected answer, and
`check` decides whether they agree (plus any invariant the answer must
satisfy on its own).  `reference` is called after the timed phase only.

The library is reached through module attributes (`balancing.q_exact`, not a
name bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import time
from array import array
from fractions import Fraction
from pathlib import Path
from statistics import median

import numpy as np

import balset
from balset import balancing, cli, codec, constructions, ensemble, gf2, reduction
from stats import pass_mean, tail


def _oracle_uncovered(code, n: int, lam: int) -> int:
    """Exact uncovered count by a method `auto` does not pick for this code:
    `auto` picks naive for n <= 16, k <= 8, and wht above that up to n = 26."""
    if n <= 16:
        method = "wht" if code.k <= 8 else "naive"
    else:
        method = "syndrome"
    return balancing.q_exact(code, balancing.BalanceSpec(n, lam), method).uncovered_count


class Workload:
    """A seed's job list with `run`, `reference` and `check` (see above);
    `tiny` shrinks the job list for the self-test."""

    stores_refs = True
    # job kinds whose time goes to numpy passes over large arrays; their
    # latencies are scaled by the "arrays" probe class (speed.py), every
    # other job's by "calls"
    array_jobs: frozenset[str] = frozenset()

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed, self.workdir, self.tiny = seed, workdir, tiny

    def probe_class(self, job) -> str:
        return "arrays" if job[0] in self.array_jobs else "calls"

    def check(self, job, answer, ref) -> bool:
        return answer == ref


class ExactCheck(Workload):
    """`balset check --matrix ... --lambda ...` through the in-process CLI.

    The committed n=20/24 fixtures at lambda 0..2 run `wht` over 2^n; the
    n=28 fixture runs `syndrome` over C(28, 14) words; three seeded random
    codes at n=20/22, k=4..10, sometimes leave words uncovered.
    """

    name = "exact_check"
    array_jobs = frozenset({"fixture", "random"})

    def setup(self) -> list[tuple]:
        mdir = self.workdir / "matrices"
        mdir.mkdir(parents=True, exist_ok=True)
        # (n, lambda) of the random codes is fixed, so that every seed does
        # the same amount of work; the seed picks the codes
        if self.tiny:
            fixtures, randoms = ((16, (0,)), (20, (0,)), (28, (0,))), ((18, 1),)
        else:
            fixtures = ((20, (0, 1, 2)), (24, (0, 1, 2)), (28, (0,)))
            randoms = ((20, 2), (22, 0), (22, 1))
        jobs = []
        for n, lams in fixtures:
            path = mdir / f"figure1_n{n}.txt"
            gf2.save_generator_matrix(constructions.figure1_fixture(n).code, path)
            jobs += [("fixture", n, lam, str(path)) for lam in lams]
        rng = np.random.default_rng(self.seed)
        for i, (n, lam) in enumerate(randoms):
            rows = int(rng.integers(4, 11))
            code = ensemble.sample_random_subspace(n, rows, ensemble.trial_rng(self.seed, i))
            path = mdir / f"random{i}_n{n}.txt"
            gf2.save_generator_matrix(code, path)
            jobs.append(("random", n, lam, str(path)))
        return jobs

    def run(self, job):
        _, _, lam, path = job
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(["check", "--matrix", path, "--lambda", str(lam)])
        if rc != 0:
            raise RuntimeError(f"balset check exited with {rc}")
        return json.loads(out.getvalue().splitlines()[-1])["uncovered"]

    def reference(self, job, answer):
        kind, n, lam, path = job
        if n == 28:
            # the committed n=28 basis balances at lambda=0, hence at every lambda
            return 0
        return _oracle_uncovered(gf2.load_generator_matrix(path), n, lam)

class EnsembleSweep(Workload):
    """Thousands of small exact decisions at n=14..20.

    Single Monte-Carlo trials (n=16, rows 4..16, lambda 0/1), greedy growth in
    both modes at n=16/20, the Lemma 1 identity at n=14/16 and the weight
    concentration experiment at n=16.  The counts put the median job among
    the `wht` trials and the per-pass tail among the ~40 ms jobs (greedy at
    n=16, Lemma 1 at n=14), each well inside its group; n=16 Lemma 1 codes
    have 6 rows because 5 rows make their cost vary fivefold with the seed.
    """

    name = "ensemble_sweep"
    array_jobs = frozenset({"greedy"})

    def setup(self) -> list[tuple]:
        tiny = self.tiny
        jobs = []
        rows_range = (4, 10) if tiny else range(4, 17)
        for rows in rows_range:
            for lam in (0, 1):
                for _ in range(1 if tiny else 8):
                    # one trial per call; every trial gets its own philox key
                    key = (self.seed << 16) | len(jobs)
                    jobs.append(("trial", 16, rows, lam, key))
        greedy = (
            ((12, "full_scan", 0), (12, "sampled", 0))
            if tiny
            else ((16, "full_scan", 0), (16, "full_scan", 1), (16, "sampled", 0),
                  (20, "full_scan", 0), (20, "sampled", 0))
        )
        jobs += [("greedy", n, mode, lam, self.seed) for n, mode, lam in greedy]
        lemma = ((10, 2, 2),) if tiny else ((14, 3, 12), (16, 6, 4))
        for n, rows, count in lemma:
            for _ in range(count):
                rng = ensemble.trial_rng(self.seed, 1000 + len(jobs))
                code = ensemble.sample_random_subspace(n, rows, rng)
                jobs.append(("lemma1", n, 0, [w.bits for w in code.rows]))
        for i in range(1 if tiny else 2):
            jobs.append(("concentration", 8 if tiny else 16, "1/4", 3 if tiny else 10,
                         (self.seed << 8) | i))
        return jobs

    def run(self, job):
        kind = job[0]
        if kind == "trial":
            _, n, rows, lam, key = job
            config = ensemble.EnsembleConfig(n, rows, lam, 1, key)
            return ensemble.estimate_balancing_probability(config).outcomes[0]
        if kind == "greedy":
            _, n, mode, lam, seed = job
            r = constructions.greedy_balancing(n, balancing.BalanceSpec(n, lam), mode, rng_seed=seed)
            return {
                "status": r.status,
                "rows": [w.bits for w in r.code.rows],
                "uncovered": [s.uncovered_count for s in r.trace],
            }
        if kind == "lemma1":
            _, n, lam, rows = job
            code = gf2.LinearCode.from_ints(n, rows)
            lhs, rhs, equal = ensemble.lemma1_identity_check(code, balancing.BalanceSpec(n, lam))
            return [str(lhs), str(rhs), equal]
        _, n, delta, trials, seed = job
        rep = ensemble.weight_concentration_check(n, Fraction(delta), trials, seed)
        return [list(rep.e_holds), list(rep.uncovered)]

    def reference(self, job, answer):
        kind = job[0]
        if kind == "trial":
            _, n, rows, lam, key = job
            code = ensemble.sample_random_subspace(n, rows, ensemble.trial_rng(key, 0))
            return _oracle_uncovered(code, n, lam) == 0
        if kind == "greedy":
            # greedy rows have no other source; the reference recomputes the
            # uncovered count of every prefix of the answer's rows
            _, n, mode, lam, seed = job
            rows = answer["rows"]
            counts = [
                _oracle_uncovered(gf2.LinearCode.from_ints(n, rows[:i]), n, lam)
                for i in range(len(rows) + 1)
            ]
            return {"status": "balanced", "rows": rows, "uncovered": counts}
        if kind == "lemma1":
            _, n, lam, rows = job
            unc = _oracle_uncovered(gf2.LinearCode.from_ints(n, rows), n, lam)
            return str(Fraction(unc, 1 << n) ** 2)
        _, n, delta, trials, seed = job
        delta = Fraction(delta)
        ell = next(e for e in range(n) if 4**e >= n)
        e_holds, uncovered = [], []
        for t in range(trials):
            code = ensemble.sample_random_subspace(n, ell, ensemble.trial_rng(seed, t))
            dev = np.abs(2 * np.bitwise_count(gf2.span_array(code)[1:]).astype(np.int64) - n)
            e_holds.append(bool((dev * delta.denominator <= 2 * delta.numerator * n).all()))
            uncovered.append(_oracle_uncovered(code, n, 0))
        return [e_holds, uncovered]

    def check(self, job, answer, ref) -> bool:
        if job[0] == "greedy":
            counts, size = answer["uncovered"], 1 << job[1]
            squaring = all(b * size <= a * a for a, b in zip(counts, counts[1:]))
            return squaring and counts[-1] == 0 and answer == ref
        if job[0] == "lemma1":
            return answer[2] is True and answer[0] == answer[1] == ref
        return answer == ref


class CodecStream(Workload):
    """A seeded stream of (message, error) pairs on the committed codec16.

    One job is one pair: a scalar `encode`, then one `decode` of the word with
    the error pattern (weight 0..2) added.  A pass is kept short (1000 pairs,
    a quarter second) so that a run averages its figures over many passes.
    """

    name = "codec_stream"
    stores_refs = False  # brute force over the 1024 codewords is cheap

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        super().__init__(seed, workdir, tiny)
        # array("d"), not lists of floats, so memory barely grows with passes
        self.encode_s = array("d")
        self.decode_s = array("d")

    def setup(self) -> list[tuple]:
        manifest = Path(balset.__file__).parent / "fixtures" / "codec16_manifest.json"
        self.codec = codec.load_codec(manifest)
        n, k = self.codec.n, self.codec.k_prime
        rng = np.random.default_rng(self.seed)
        jobs = []
        for _ in range(60 if self.tiny else 1000):
            u, w = int(rng.integers(0, 1 << k)), int(rng.integers(0, 3))
            e = sum(1 << int(p) for p in rng.choice(n, size=w, replace=False))
            jobs.append(("pair", u, e))
        return jobs

    def run(self, job):
        _, u, e = job
        c = self.codec
        t0 = time.perf_counter()
        word = codec.encode(c, u)
        t1 = time.perf_counter()
        y = gf2.Word(c.n, word.bits ^ e)
        t2 = time.perf_counter()
        got = codec.decode(c, y)
        t3 = time.perf_counter()
        self.encode_s.append(t1 - t0)
        self.decode_s.append(t3 - t2)
        if got is None:
            return [word.bits, None, None]
        return [word.bits, got.message, got.codeword.bits]

    def figures(self, pass_len: int) -> dict[str, float]:
        """Encode and decode latencies of the untraced run, in us."""
        def per_pass(xs):
            return [xs[i : i + pass_len] for i in range(0, len(xs), pass_len)]

        enc, dec = per_pass(self.encode_s), per_pass(self.decode_s)
        return {
            "encode_p50_us": pass_mean(median, enc) * 1e6,
            "decode_p50_us": pass_mean(median, dec) * 1e6,
            "decode_tail_us": pass_mean(lambda lat: tail(lat)[0], dec) * 1e6,
        }

    @functools.cached_property
    def _tables(self):
        """C' codewords by message, C'' translates, and every codeword of
        C' + C'' with the message of its C' part."""
        c = self.codec
        msgs = np.arange(1 << c.k_prime)
        info = np.zeros(msgs.size, dtype=np.int64)
        for i, row in enumerate(c.cprime.basis):
            info ^= np.where(msgs >> i & 1, row.bits, 0)
        trans = np.zeros(1 << c.k_bal, dtype=np.int64)
        for i, row in enumerate(c.cbal.basis):
            trans ^= np.where(np.arange(trans.size) >> i & 1, row.bits, 0)
        words = (info[:, None] ^ trans[None, :]).ravel()
        return info, trans, words, np.repeat(msgs, trans.size)

    def reference(self, job, answer):
        _, u, e = job
        n = self.codec.n
        info, trans, words, msgs = self._tables
        # encode: the balancing translate with the smallest integer value
        dev = np.abs(2 * np.bitwise_count(info[u] ^ trans).astype(np.int64) - n)
        x = int(trans[np.lexsort((trans, dev))[0]])
        sent = int(info[u]) ^ x
        # decode: the nearest balanced codeword, ties to the smallest integer
        y = sent ^ e
        bal = np.bitwise_count(words) == n // 2
        dist = np.bitwise_count(words[bal] ^ y)
        best = np.lexsort((words[bal], dist))[0]
        return [sent, int(msgs[bal][best]), int(words[bal][best])]

    def check(self, job, answer, ref) -> bool:
        _, u, e = job
        n = self.codec.n
        sent, message, word = answer
        full = self._tables[2]
        if sent.bit_count() != n // 2 or sent not in full:
            return False
        if e.bit_count() <= 1:
            return message == u and answer == ref
        near = word is not None and word.bit_count() == n // 2 and (word ^ sent ^ e).bit_count() <= 2
        return near and answer == ref


def _embed(t: int, edge, a: int) -> int:
    """Check vector of column a of the edge's block in H (a1 most significant)."""
    return sum(((a >> (2 - part)) & 1) << (part * t + v - 1) for part, v in enumerate(edge))


def _all_cosets_reached(t: int, edges) -> bool:
    """Oracle for every_coset_has_balanced_word, independent of its column DP.

    A word (zL, zR) of ker-H' coset (s_top, s_bot) has weight 8m - t iff s_bot
    is a XOR of exactly 8m - t - wt(s_top) distinct columns of H.  Here the
    reachable (count, XOR) pairs are built block by block: a block's 8
    columns are F_2^3 placed on the edge's three rows, so a subset of them
    contributes (size, embedded XOR of its elements).
    """
    m, width = len(edges), 1 << (3 * t)
    top = 8 * m
    block = sorted({(s.bit_count(), _xor_of(s)) for s in range(256)})
    idx = np.arange(width)
    dp = np.zeros((top + 1, width), dtype=bool)
    dp[0, 0] = True
    for edge in edges:
        shifted = [dp[:, idx ^ _embed(t, edge, a)] for a in range(8)]
        new = np.zeros_like(dp)
        for size, a in block:
            new[size:] |= shifted[a][: top + 1 - size]
        dp = new
    return bool(dp[t : 8 * m - t + 1].all())


def _xor_of(subset: int) -> int:
    acc = 0
    for a in range(8):
        if subset >> a & 1:
            acc ^= a
    return acc


def _has_matching(t: int, edges) -> bool:
    """Brute force over every t-subset of edges."""
    return any(
        all(len({e[p] for e in pick}) == t for p in range(3))
        for pick in itertools.combinations(edges, t)
    )


class ReductionSweep(Workload):
    """verify_reduction on a seeded t=2, m=2 distinct-edge pair (auto ->
    bucket over C(28, 14) words) and seeded t=3..5 instances (auto ->
    structural), half of them with a planted perfect matching.

    Counts are chosen so that the median job is a t=3 instance and the
    per-pass tail a t=4 one, each well inside its group.
    """

    name = "reduction_sweep"
    array_jobs = frozenset({"bucket"})

    def setup(self) -> list[tuple]:
        rng = np.random.default_rng(self.seed)
        pairs = list(itertools.combinations(itertools.product((1, 2), repeat=3), 2))
        jobs = [("bucket", 2, [list(e) for e in pairs[rng.integers(len(pairs))]])]
        shapes = ((3, 5, 4),) if self.tiny else ((3, 5, 30), (4, 6, 16), (5, 8, 1))
        for t, m, count in shapes:
            for j in range(count):
                jobs.append(("structural", t, self._hypergraph(rng, t, m, planted=j % 2 == 0)))
        return jobs

    @staticmethod
    def _hypergraph(rng, t: int, m: int, planted: bool) -> list[list[int]]:
        edges = [[int(v) for v in rng.integers(1, t + 1, size=3)] for _ in range(m)]
        if planted:
            p2, p3 = rng.permutation(t) + 1, rng.permutation(t) + 1
            edges[:t] = [[v + 1, int(p2[v]), int(p3[v])] for v in range(t)]
            edges = [edges[i] for i in rng.permutation(m)]
        return edges

    def run(self, job):
        _, t, edges = job
        g = reduction.TripartiteHypergraph(t, tuple(tuple(e) for e in edges))
        report = reduction.verify_reduction(g)
        if report.equivalent is None:
            raise RuntimeError("verify_reduction left the instance unverified")
        return [report.matching_found, report.cosets_ok]

    def reference(self, job, answer):
        kind, t, edges = job
        edges = [tuple(e) for e in edges]
        if kind == "bucket":
            g = reduction.TripartiteHypergraph(t, tuple(edges))
            hprime = reduction.build_Hprime(reduction.build_H(g), t, g.m)
            cosets = reduction.every_coset_has_balanced_word(hprime, t, g.m, "structural")[0]
        else:
            cosets = _all_cosets_reached(t, edges)
        return [_has_matching(t, edges), cosets]


WORKLOADS = {w.name: w for w in (ExactCheck, EnsembleSweep, CodecStream, ReductionSweep)}
