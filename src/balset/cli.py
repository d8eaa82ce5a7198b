"""Command-line interface: reproducible checks and experiments.

Machine-readable results go to stdout as JSON (one object per line);
human-oriented tables and warnings go to stderr.  Exit codes: 0 = verdict
holds (or nothing to verify), 1 = verdict fails, 2 = input/usage error.
Every run is fully determined by its flags; wall-clock timings live in
dedicated elapsed_ms fields only.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .gf2 import (
    CapExceededError,
    Word,
    load_generator_matrix,
    save_generator_matrix,
)
from .balancing import FWHT_BLOCK, BalanceSpec, Q_METHODS, q_exact, thread_setting
from .constructions import figure1_fixture, greedy_balancing, min_distance
from .ensemble import (
    EnsembleConfig,
    estimate_balancing_probability,
    lemma1_identity_check,
    sample_random_subspace,
    trial_rng,
)
from .codec import (
    BalancingSearchError,
    balanced_subcode_min_distance,
    build_codec,
    decode,
    encode,
    load_codec,
    save_codec,
)
from .reduction import build_H, build_Hprime, parse_hypergraph, verify_reduction

__all__ = ["entry", "main"]

FIXTURE_SIZES = (8, 12, 16, 20, 24)
LONG_FIXTURE_SIZES = (28, 32)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _note(text: str) -> None:
    print(text, file=sys.stderr)


def _parse_word(text: str, n: int) -> Word:
    if set(text) <= {"0", "1"} and len(text) == n:
        return Word.from_string(text)
    return Word(n, int(text, 0))


# -- check -------------------------------------------------------------------

def cmd_check(args: argparse.Namespace) -> int:
    code = load_generator_matrix(args.matrix)
    spec = BalanceSpec(code.n, args.lam)
    report = q_exact(code, spec, args.method)
    _emit(report.to_json_dict())
    _note(
        f"[check] n={report.n} k={report.k} lambda={report.lam} "
        f"uncovered={report.uncovered_count} ({report.method})"
    )
    if args.expect_balancing and report.uncovered_count:
        return 1
    return 0


# -- greedy --------------------------------------------------------------------

def cmd_greedy(args: argparse.Namespace) -> int:
    spec = BalanceSpec(args.n, args.lam)
    result = greedy_balancing(
        args.n,
        spec,
        args.mode,
        batch=args.batch,
        rng_seed=args.seed,
        max_dim=args.max_dim,
    )
    for step in result.trace:
        _emit(step.to_json_dict())
    _emit(
        {
            "n": args.n,
            "lambda": args.lam,
            "mode": args.mode,
            "status": result.status,
            "dim": result.code.k,
            "q_num": result.final_q.numerator,
            "q_den": result.final_q.denominator,
            "rows": [str(w) for w in result.code.rows],
        }
    )
    if args.out:
        save_generator_matrix(result.code, args.out)
        _note(f"[greedy] wrote basis to {args.out}")
    return 0 if result.status == "balanced" else 1


# -- fixtures --------------------------------------------------------------------

def cmd_fixtures(args: argparse.Namespace) -> int:
    sizes = FIXTURE_SIZES + (LONG_FIXTURE_SIZES if args.long else ())
    all_ok = True
    for n in sizes:
        fx = figure1_fixture(n)
        report = q_exact(fx.code, BalanceSpec(n, 0))
        ok = (
            fx.code.k == fx.k
            and min_distance(fx.code) == fx.d
            and report.uncovered_count == 0
        )
        all_ok &= ok
        _emit(
            {
                "n": n,
                "k": fx.k,
                "d": fx.d,
                "rank": fx.code.k,
                "min_distance": min_distance(fx.code),
                "uncovered": report.uncovered_count,
                "method": report.method,
                "ok": ok,
                "elapsed_ms": report.elapsed_ms,
            }
        )
        if args.write:
            Path(args.write).mkdir(parents=True, exist_ok=True)
            path = Path(args.write) / f"figure1_n{n}.txt"
            save_generator_matrix(
                fx.code, path, header=f"[{n},{fx.k},{fx.d}] committed balancing basis"
            )
            _note(f"[fixtures] wrote {path}")
    return 0 if all_ok else 1


# -- ensemble --------------------------------------------------------------------

def _parse_rows_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        rows = list(range(int(lo), int(hi) + 1))
        if not rows:
            raise ValueError(f"empty row range {text!r}")
        return rows
    return [int(text)]


def _trial_threads(config: EnsembleConfig, threads: int) -> int:
    """Size of the trial pool: one thread when 2^(n - k) fits in one
    FWHT_BLOCK.  A full-rank trial then transforms at most half a block
    (the 2^(n - k - 1) cosets of C + <1>; a random code rarely holds 1), a
    chain of short numpy calls, and trials on two threads mostly wait on
    each other for the interpreter lock.  At one full block (n - k = 18),
    two threads still ran trials about twice as fast on two cores."""
    k = config.rows + (config.fixed_prefix.k if config.fixed_prefix else 0)
    return threads if 1 << max(config.n - k, 0) > FWHT_BLOCK else 1


def cmd_ensemble(args: argparse.Namespace) -> int:
    prefix = load_generator_matrix(args.prefix) if args.prefix else None
    rows_list = _parse_rows_range(args.rows)
    threads = thread_setting()
    reports = []
    for rows in rows_list:
        config = EnsembleConfig(
            args.n, rows, args.lam, args.trials, args.seed, prefix
        )
        reports.append(estimate_balancing_probability(config, _trial_threads(config, threads)))
    if len(reports) == 1:
        _emit(reports[0].to_json_dict())
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["rows", "fraction", "ci_lo", "ci_hi"])
        for rep in reports:
            writer.writerow(
                [
                    rep.config.rows,
                    float(rep.fraction),
                    rep.wilson_ci_95[0],
                    rep.wilson_ci_95[1],
                ]
            )
    return 0


# -- lemma1 --------------------------------------------------------------------

def cmd_lemma1(args: argparse.Namespace) -> int:
    cases = []
    if args.matrix:
        codes = [load_generator_matrix(args.matrix)]
    else:
        if args.n is None:
            raise ValueError("lemma1 needs --matrix or --n with --random")
        if args.random < 1:
            raise ValueError(f"--random must be >= 1, got {args.random}")
        codes = [
            sample_random_subspace(args.n, args.rows, trial_rng(args.seed, i))
            for i in range(args.random)
        ]
    all_equal = True
    for code in codes:
        spec = BalanceSpec(code.n, args.lam)
        lhs, rhs, equal = lemma1_identity_check(code, spec)
        all_equal &= equal
        cases.append(
            {
                "n": code.n,
                "k": code.k,
                "lambda": args.lam,
                "lhs_num": lhs.numerator,
                "lhs_den": lhs.denominator,
                "rhs_num": rhs.numerator,
                "rhs_den": rhs.denominator,
                "equal": equal,
            }
        )
    _emit({"cases": cases, "all_equal": all_equal})
    return 0 if all_equal else 1


# -- codec --------------------------------------------------------------------

def _verify_all_messages(codec) -> None:
    for u in range(1 << codec.k_prime):
        encode(codec, u)


def _cmd_codec_build(args: argparse.Namespace) -> int:
    if not args.cprime or not args.cbal:
        raise ValueError("codec build needs --cprime and --cbal matrix files")
    gprime = load_generator_matrix(args.cprime)
    gbal = load_generator_matrix(args.cbal)
    codec = None
    for attempt in range(args.reseed_retries + 1):
        try:
            candidate = build_codec(gprime, gbal, args.t_prime, not args.relaxed)
            if not args.relaxed:
                _verify_all_messages(candidate)
            codec = candidate
            break
        except CapExceededError:
            raise  # no reseeding of C'' makes C' fit the budgets
        except (BalancingSearchError, ValueError) as exc:
            if attempt == args.reseed_retries:
                _note(f"[codec] giving up after {attempt + 1} attempts: {exc}")
                return 1
            rng = trial_rng(args.seed, attempt)
            gbal = sample_random_subspace(gprime.n, len(gbal.rows), rng)
            _note(f"[codec] attempt {attempt + 1} failed ({exc}); reseeding C''")
    manifest = save_codec(codec, args.out, args.stem)
    _emit(
        {
            "manifest": str(manifest),
            "n": codec.n,
            "k_prime": codec.k_prime,
            "k_bal": codec.k_bal,
            "d_prime": codec.d_prime,
            "t_prime": codec.t_prime,
            "strict": codec.strict_balance,
        }
    )
    return 0


def _require_manifest(args: argparse.Namespace):
    if not args.manifest:
        raise ValueError(f"codec {args.action} needs --manifest")
    return load_codec(args.manifest)


def _cmd_codec_encode(args: argparse.Namespace) -> int:
    codec = _require_manifest(args)
    u = int(args.message, 0)
    try:
        word = encode(codec, u)
    except BalancingSearchError as exc:
        _emit({"encoded": False, "message": u, "error": str(exc)})
        return 1
    _emit(
        {
            "encoded": True,
            "message": u,
            "word": str(word),
            "word_hex": hex(word.bits),
            "weight": word.weight(),
        }
    )
    return 0


def _cmd_codec_decode(args: argparse.Namespace) -> int:
    codec = _require_manifest(args)
    if args.word is None:
        raise ValueError("codec decode needs --word")
    y = _parse_word(args.word, codec.n)
    result = decode(codec, y)
    if result is None:
        _emit({"decoded": False})
        return 1
    _emit(
        {
            "decoded": True,
            "message": result.message,
            "error_weight": result.error_weight,
            "codeword": str(result.codeword),
            "component_calls": result.component_calls,
        }
    )
    return 0


def _error_patterns(n: int, max_weight: int):
    yield 0
    if max_weight >= 1:
        stack = [(0, 0)]
        while stack:
            bits, low = stack.pop()
            for c in range(low, n):
                e = bits | 1 << c
                yield e
                if e.bit_count() < max_weight:
                    stack.append((e, c + 1))


def _cmd_codec_roundtrip(args: argparse.Namespace) -> int:
    codec = _require_manifest(args)
    d_bal = balanced_subcode_min_distance(codec)
    guaranteed = (
        min(codec.t_prime, (int(d_bal) - 1) // 2)
        if d_bal != float("inf")
        else codec.t_prime
    )
    cases = successes = failures_within = 0
    for e in _error_patterns(codec.n, args.errors):
        we = e.bit_count()
        for u in range(1 << codec.k_prime):
            cases += 1
            sent = encode(codec, u)
            got = decode(codec, Word(codec.n, sent.bits ^ e))
            ok = got is not None and got.message == u
            successes += ok
            if not ok and we <= guaranteed:
                failures_within += 1
    _emit(
        {
            "messages": 1 << codec.k_prime,
            "max_error_weight": args.errors,
            "cases": cases,
            "successes": successes,
            "d_bal": None if d_bal == float("inf") else d_bal,
            "guaranteed_radius": guaranteed,
            "failures_within_radius": failures_within,
            "ok": failures_within == 0,
        }
    )
    return 0 if failures_within == 0 else 1


def cmd_codec(args: argparse.Namespace) -> int:
    return {
        "build": _cmd_codec_build,
        "encode": _cmd_codec_encode,
        "decode": _cmd_codec_decode,
        "roundtrip": _cmd_codec_roundtrip,
    }[args.action](args)


# -- reduce --------------------------------------------------------------------

def cmd_reduce(args: argparse.Namespace) -> int:
    text = Path(args.hypergraph).read_text()
    g = parse_hypergraph(text)
    h = build_H(g)
    hprime = build_Hprime(h, g.t, g.m)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.hypergraph).stem
    save_generator_matrix(h, out / f"{stem}_H.txt", header=[f"H: t={g.t} m={g.m}"])
    save_generator_matrix(
        hprime, out / f"{stem}_Hprime.txt", header=[f"Hprime: t={g.t} m={g.m}"]
    )
    _note(f"[reduce] wrote {stem}_H.txt and {stem}_Hprime.txt to {out}")
    if not args.verify:
        _emit({"t": g.t, "m": g.m, "verified": False})
        return 0
    report = verify_reduction(g)
    _emit(report.to_json_dict())
    if report.equivalent is None:
        _note("[reduce] instance exceeds verification caps; left unverified")
        return 0
    return 0 if report.equivalent else 1


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balset",
        description="Exact balancing-set checks, constructions, and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="exact uncovered fraction of a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=0)
    p.add_argument("--method", default="auto", choices=("auto",) + Q_METHODS)
    p.add_argument("--expect-balancing", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("greedy", help="grow a balancing basis greedily")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=0)
    p.add_argument("--mode", default="full_scan", choices=("full_scan", "sampled"))
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-dim", type=int, default=None)
    p.add_argument("--out", default=None, help="write the basis matrix here")
    p.set_defaults(func=cmd_greedy)

    p = sub.add_parser("fixtures", help="verify (and optionally write) the committed bases")
    p.add_argument("--write", default=None, help="directory for matrix files")
    p.add_argument("--long", action="store_true", help="include n=28 and n=32")
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("ensemble", help="Monte-Carlo balancing probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rows", required=True, help="row count R or range A..B (CSV out)")
    p.add_argument("--lambda", dest="lam", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prefix", default=None, help="matrix file prepended to samples")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("lemma1", help="exact shift-averaging identity check")
    p.add_argument("--matrix", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--random", type=int, default=1, help="number of random codes")
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--lambda", dest="lam", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lemma1)

    p = sub.add_parser("codec", help="balanced error-correcting codec")
    p.add_argument("action", choices=("build", "encode", "decode", "roundtrip"))
    p.add_argument("--manifest", default=None)
    p.add_argument("--cprime", default=None)
    p.add_argument("--cbal", default=None)
    p.add_argument("--t-prime", dest="t_prime", type=int, default=None)
    p.add_argument("--relaxed", action="store_true")
    p.add_argument("--out", default=".")
    p.add_argument("--stem", default="codec")
    p.add_argument("--reseed-retries", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--message", default="0")
    p.add_argument("--word", default=None)
    p.add_argument("--errors", type=int, default=0)
    p.set_defaults(func=cmd_codec)

    p = sub.add_parser("reduce", help="3-dimensional-matching reduction matrices")
    p.add_argument("--hypergraph", required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        _note(f"error: {exc}")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
