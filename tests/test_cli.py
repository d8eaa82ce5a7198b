"""End-to-end tests for the command-line interface.

Commands run in-process through main(argv); stdout carries one JSON object
(or CSV table) per result and timings stay in dedicated elapsed_ms fields,
so determinism checks compare everything except those fields.
"""

import json
import re
import subprocess
import sys
from fractions import Fraction
from importlib.resources import files

import pytest

from balset import (
    LinearCode,
    Word,
    figure1_fixture,
    load_generator_matrix,
    save_generator_matrix,
    simplex_extended,
)
from balset.cli import main

CODEC_DIR = files("balset") / "fixtures"


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main([str(a) for a in argv])
        out = capsys.readouterr()
        return code, out.out, out.err

    return invoke


def json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line]


def strip_timing(obj: dict) -> dict:
    return {k: v for k, v in obj.items() if k != "elapsed_ms"}


@pytest.fixture(scope="module")
def matrices(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrices")
    save_generator_matrix(figure1_fixture(8).code, root / "fig8.txt")
    save_generator_matrix(simplex_extended(4, 4), root / "c044.txt")
    save_generator_matrix(LinearCode(4, (Word(4, 0),)), root / "zero4.txt")
    return root


class TestExitCodeContract:
    def test_missing_file_is_a_usage_error(self, run, tmp_path):
        code, _, err = run("check", "--matrix", tmp_path / "absent.txt")
        assert code == 2 and "error:" in err

    def test_garbage_matrix_is_a_usage_error(self, run, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("01x0\n")
        assert run("check", "--matrix", bad)[0] == 2

    def test_failed_expectation_is_exit_one(self, run, matrices):
        code, out, _ = run(
            "check", "--matrix", matrices / "zero4.txt", "--expect-balancing"
        )
        assert code == 1 and json_lines(out)[0]["uncovered"] == 10

    def test_holding_expectation_is_exit_zero(self, run, matrices):
        code, _, _ = run(
            "check", "--matrix", matrices / "fig8.txt", "--expect-balancing"
        )
        assert code == 0


class TestCheck:
    def test_committed_basis_is_balancing(self, run, matrices):
        code, out, err = run("check", "--matrix", matrices / "fig8.txt")
        rep = json_lines(out)[0]
        assert code == 0 and rep["q_num"] == 0
        assert "[check]" in err

    def test_zero_row_fraction(self, run, matrices):
        _, out, _ = run("check", "--matrix", matrices / "zero4.txt")
        rep = json_lines(out)[0]
        assert Fraction(rep["q_num"], rep["q_den"]) == Fraction(10, 16)

    def test_tolerance_two_covers_everything(self, run, matrices):
        code, out, _ = run(
            "check", "--matrix", matrices / "c044.txt", "--lambda", 2,
            "--expect-balancing",
        )
        assert code == 0 and json_lines(out)[0]["q_num"] == 0

    def test_methods_agree(self, run, matrices):
        reports = []
        for method in ("naive", "sphere_mark", "wht", "syndrome"):
            _, out, _ = run(
                "check", "--matrix", matrices / "fig8.txt", "--method", method
            )
            rep = json_lines(out)[0]
            assert rep["method"] == method
            reports.append((rep["q_num"], rep["q_den"], rep["uncovered"]))
        assert len(set(reports)) == 1

    def test_thread_setting_does_not_change_output(self, run, fan_widths, monkeypatch, tmp_path):
        # the n = 28 fixture transforms 2^22 values, so two threads split it
        path = tmp_path / "fig28.txt"
        save_generator_matrix(figure1_fixture(28).code, path)
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("BALSET_THREADS", threads)
            outputs[threads] = [
                re.sub(r'"elapsed_ms": [^,}]+', "", run("check", "--matrix", path, "--lambda", lam)[1])
                for lam in range(3)
            ]
        assert 2 in fan_widths
        assert outputs["1"] == outputs["2"]

    def test_output_identical_up_to_timing(self, run, matrices):
        _, out1, _ = run("check", "--matrix", matrices / "fig8.txt")
        _, out2, _ = run("check", "--matrix", matrices / "fig8.txt")
        a, b = json_lines(out1)[0], json_lines(out2)[0]
        assert "elapsed_ms" in a
        assert strip_timing(a) == strip_timing(b)


class TestGreedy:
    def test_full_scan_reaches_balance(self, run, tmp_path):
        out_file = tmp_path / "basis.txt"
        code, out, _ = run("greedy", "--n", 8, "--out", out_file)
        lines = json_lines(out)
        summary = lines[-1]
        assert code == 0
        assert summary["status"] == "balanced" and summary["dim"] == 3
        assert summary["q_num"] == 0
        dims = [step["dim"] for step in lines[:-1]]
        assert dims == sorted(dims)
        built = load_generator_matrix(out_file)
        assert built.k == 3

    def test_max_dim_stops_early(self, run):
        code, out, _ = run("greedy", "--n", 8, "--max-dim", 1)
        assert code == 1
        assert json_lines(out)[-1]["status"] == "max_dim_reached"

    def test_sampled_mode_deterministic(self, run):
        args = ("greedy", "--n", 12, "--mode", "sampled", "--seed", 5)
        assert run(*args)[1] == run(*args)[1]

    @pytest.mark.parametrize("max_dim", [(), ("--max-dim", 0)])
    def test_seed_past_int64_is_usage_error(self, run, max_dim):
        code, out, err = run(
            "greedy", "--n", 8, "--mode", "sampled", "--seed", (1 << 64) - 1, *max_dim
        )
        assert code == 2 and out == "" and "outside" in err


class TestFixtures:
    def test_default_sizes_verify_and_write(self, run, tmp_path):
        code, out, err = run("fixtures", "--write", tmp_path)
        lines = json_lines(out)
        assert code == 0
        assert [rep["n"] for rep in lines] == [8, 12, 16, 20, 24]
        assert all(rep["ok"] and rep["uncovered"] == 0 for rep in lines)
        assert all("elapsed_ms" in rep for rep in lines)
        for rep in lines:
            path = tmp_path / f"figure1_n{rep['n']}.txt"
            assert load_generator_matrix(path).n == rep["n"]
        assert "[fixtures] wrote" in err


class TestEnsemble:
    def test_single_point_json(self, run):
        args = ("ensemble", "--n", 8, "--rows", 3, "--trials", 20, "--seed", 3)
        code, out, _ = run(*args)
        rep = json_lines(out)[0]
        assert code == 0
        assert rep["trials"] == 20 and 0 <= rep["successes"] <= 20
        assert rep["ci_lo"] <= rep["fraction"] <= rep["ci_hi"]
        assert run(*args)[1] == out

    def test_rows_range_emits_csv(self, run):
        code, out, _ = run(
            "ensemble", "--n", 8, "--rows", "2..4", "--trials", 10, "--seed", 1
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "rows,fraction,ci_lo,ci_hi"
        assert [row.split(",")[0] for row in lines[1:]] == ["2", "3", "4"]

    def test_balancing_prefix_forces_success(self, run, matrices):
        _, out, _ = run(
            "ensemble", "--n", 8, "--rows", 0, "--trials", 5,
            "--prefix", matrices / "fig8.txt",
        )
        assert json_lines(out)[0]["fraction"] == 1.0

    def test_thread_env_does_not_change_output(self, run, monkeypatch):
        args = ("ensemble", "--n", 8, "--rows", 3, "--trials", 10, "--seed", 2)
        _, base, _ = run(*args)
        monkeypatch.setenv("BALSET_THREADS", "4")
        assert run(*args)[1] == base
        monkeypatch.setenv("BALSET_THREADS", "0")
        assert run(*args)[1] == base

    def test_trial_pool_sized_by_transform(self, run, monkeypatch):
        # trials whose transform fits in one FWHT_BLOCK (2^17) run on one
        # thread, longer ones on the thread setting; stdout is the same
        from balset import balancing, cli

        pools = []
        estimate = cli.estimate_balancing_probability

        def spy(config, threads=1):
            pools.append((config.rows, threads))
            return estimate(config, threads)

        monkeypatch.setattr(cli, "estimate_balancing_probability", spy)
        monkeypatch.setattr(balancing, "_cores", lambda: 2)
        args = ("ensemble", "--n", 20, "--rows", "1..3", "--trials", 2, "--seed", 1)
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("BALSET_THREADS", threads)
            outputs.append(run(*args)[1])
        assert outputs[0] == outputs[1]
        assert pools == [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 1)]

    @pytest.mark.parametrize("seed", [(1 << 64) - 1, 1 << 63, -(1 << 63) - 1])
    def test_seed_past_int64_is_usage_error(self, run, seed):
        # 2^64 - 1 would draw the streams of seed 0
        code, out, err = run("ensemble", "--n", 8, "--rows", 3, "--trials", 5, "--seed", seed)
        assert code == 2 and out == "" and "outside" in err

    def test_bad_thread_env_is_usage_error(self, run, monkeypatch):
        monkeypatch.setenv("BALSET_THREADS", "many")
        code, _, err = run("ensemble", "--n", 8, "--rows", 1)
        assert code == 2 and "BALSET_THREADS" in err


class TestLemma1:
    def test_zero_row_matrix(self, run, matrices):
        code, out, _ = run("lemma1", "--matrix", matrices / "zero4.txt")
        rep = json_lines(out)[0]
        assert code == 0 and rep["all_equal"]
        case = rep["cases"][0]
        assert (case["rhs_num"], case["rhs_den"]) == (25, 64)
        assert (case["lhs_num"], case["lhs_den"]) == (25, 64)

    def test_random_codes(self, run):
        code, out, _ = run(
            "lemma1", "--n", 6, "--random", 5, "--rows", 2, "--seed", 9
        )
        rep = json_lines(out)[0]
        assert code == 0 and rep["all_equal"] and len(rep["cases"]) == 5

    def test_needs_matrix_or_n(self, run):
        assert run("lemma1")[0] == 2

    def test_seed_past_int64_is_usage_error(self, run):
        code, out, _ = run("lemma1", "--n", 6, "--random", 2, "--seed", 1 << 63)
        assert code == 2 and out == ""


class TestCodec:
    def test_build_from_component_files(self, run, tmp_path):
        code, out, _ = run(
            "codec", "build",
            "--cprime", CODEC_DIR / "codec16_cprime.txt",
            "--cbal", CODEC_DIR / "codec16_cbal.txt",
            "--out", tmp_path, "--stem", "built", "--t-prime", 3,
        )
        rep = json_lines(out)[0]
        assert code == 0
        assert (rep["k_prime"], rep["k_bal"], rep["d_prime"]) == (5, 5, 8)
        assert (tmp_path / "built_manifest.json").exists()

    def test_build_conflict_gives_up_without_retries(self, run, tmp_path):
        code, _, err = run(
            "codec", "build",
            "--cprime", CODEC_DIR / "codec16_cprime.txt",
            "--cbal", CODEC_DIR / "codec16_cprime.txt",
            "--out", tmp_path,
        )
        assert code == 1 and "giving up" in err

    def test_build_conflict_recovers_by_reseeding(self, run, tmp_path):
        code, out, err = run(
            "codec", "build",
            "--cprime", CODEC_DIR / "codec16_cprime.txt",
            "--cbal", CODEC_DIR / "codec16_cprime.txt",
            "--out", tmp_path, "--reseed-retries", 1, "--seed", 0,
        )
        assert code == 0 and "reseeding" in err
        assert json_lines(out)[0]["k_prime"] == 5

    def test_build_past_uint64_is_input_error(self, run, tmp_path):
        # n = 66 words do not fit the packed uint64 paths: a refusal that
        # names the guard, exit 2, not a traceback
        cprime, cbal = tmp_path / "cprime66.txt", tmp_path / "cbal66.txt"
        save_generator_matrix([Word(66, (1 << 66) - 1)], cprime)
        save_generator_matrix([Word(66, 1)], cbal)
        code, out, err = run(
            "codec", "build", "--cprime", cprime, "--cbal", cbal,
            "--out", tmp_path, "--reseed-retries", 2,
        )
        assert code == 2 and not out.strip()
        assert "n <= 64, got n = 66" in err and "reseeding" not in err

    def test_encode_decode_pair(self, run):
        manifest = CODEC_DIR / "codec16_manifest.json"
        code, out, _ = run(
            "codec", "encode", "--manifest", manifest, "--message", 5
        )
        rep = json_lines(out)[0]
        assert code == 0 and rep["encoded"] and rep["weight"] == 8
        code, out, _ = run(
            "codec", "decode", "--manifest", manifest, "--word", rep["word_hex"]
        )
        dec = json_lines(out)[0]
        assert code == 0 and dec["decoded"]
        assert dec["message"] == 5 and dec["error_weight"] == 0

    def test_decode_failure_exits_one(self, run):
        code, out, _ = run(
            "codec", "decode",
            "--manifest", CODEC_DIR / "codec16_manifest.json",
            "--word", "0x0",
        )
        assert code == 1 and json_lines(out)[0] == {"decoded": False}

    def test_roundtrip_error_free(self, run):
        code, out, _ = run(
            "codec", "roundtrip",
            "--manifest", CODEC_DIR / "codec16_manifest.json",
        )
        rep = json_lines(out)[0]
        assert code == 0 and rep["ok"]
        assert (rep["cases"], rep["successes"]) == (32, 32)
        assert rep["d_bal"] == 4 and rep["guaranteed_radius"] == 1

    def test_roundtrip_single_bit_errors(self, run):
        code, out, _ = run(
            "codec", "roundtrip",
            "--manifest", CODEC_DIR / "codec16_manifest.json",
            "--errors", 1,
        )
        rep = json_lines(out)[0]
        assert code == 0
        assert (rep["cases"], rep["successes"]) == (544, 544)
        assert rep["failures_within_radius"] == 0

    def test_missing_manifest_is_usage_error(self, run):
        assert run("codec", "encode", "--message", "1")[0] == 2


class TestReduce:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_single_edge_sides_disagree(self, run, tmp_path):
        path = self.write(tmp_path, "t1m1.txt", "1 1\n1 1 1\n")
        code, out, _ = run(
            "reduce", "--hypergraph", path, "--verify", "--out", tmp_path
        )
        rep = json_lines(out)[0]
        assert code == 1
        assert rep["matching"] == [0] and rep["cosets_ok"] is False
        assert rep["equivalent"] is False
        h = load_generator_matrix(tmp_path / "t1m1_H.txt")
        hp = load_generator_matrix(tmp_path / "t1m1_Hprime.txt")
        assert (len(h.rows), h.n) == (3, 8)
        assert (len(hp.rows), hp.n) == (9, 14)

    @pytest.mark.filterwarnings("ignore:uncovered")
    def test_no_matching_instance_is_equivalent(self, run, tmp_path):
        path = self.write(tmp_path, "t2none.txt", "2 2\n1 1 1\n1 2 2\n")
        code, out, _ = run(
            "reduce", "--hypergraph", path, "--verify", "--out", tmp_path
        )
        rep = json_lines(out)[0]
        assert code == 0
        assert rep["matching"] is None and rep["cosets_ok"] is False
        assert rep["equivalent"] is True

    def test_matrices_only_without_verify(self, run, tmp_path):
        path = self.write(tmp_path, "t2m2.txt", "2 2\n1 1 1\n2 2 2\n")
        code, out, _ = run("reduce", "--hypergraph", path, "--out", tmp_path)
        assert code == 0
        assert json_lines(out)[0] == {"t": 2, "m": 2, "verified": False}

    def test_triple_instance_verified_structurally(self, run, tmp_path):
        path = self.write(tmp_path, "t3.txt", "3 3\n1 1 1\n2 2 2\n3 3 3\n")
        code, out, _ = run(
            "reduce", "--hypergraph", path, "--verify", "--out", tmp_path
        )
        rep = json_lines(out)[0]
        assert code == 0 and rep["equivalent"] is True
        assert rep["method"] == "structural"

    @pytest.mark.filterwarnings("ignore:uncovered")
    def test_capped_instance_left_unverified(self, run, tmp_path):
        path = self.write(tmp_path, "t7.txt", "7 2\n1 1 1\n2 2 2\n")
        code, out, err = run(
            "reduce", "--hypergraph", path, "--verify", "--out", tmp_path
        )
        rep = json_lines(out)[0]
        assert code == 0
        assert rep["verified"] is False and rep["equivalent"] is None
        assert "unverified" in err
        assert (tmp_path / "t7_Hprime.txt").exists()

    def test_malformed_instance_is_usage_error(self, run, tmp_path):
        path = self.write(tmp_path, "bad.txt", "2 2\n1 1 1\n")
        assert run("reduce", "--hypergraph", path, "--out", tmp_path)[0] == 2


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "balset.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and "balset" in proc.stdout
