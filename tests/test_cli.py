"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gsvdcap import (FactorCheck, PowerAllocation, cli, experiments, linalg,
                     read_trial_csv)
from gsvdcap.cli import build_parser, main, parse_range

DATA = Path(__file__).resolve().parent / "data"
README = (DATA.parents[1] / "README.md").read_text(encoding="utf-8")
# The benchmark's own copies of the reference campaigns.
BENCH_REFERENCE = DATA.parents[1] / "perfbench" / "reference"


def assert_printed_in_readme(out):
    """Every line of out is in README.md verbatim, as a "# " comment line
    of a command's example."""
    for line in out.splitlines():
        assert f"# {line}\n" in README, line


class TestParseRange:
    def test_unit_grid(self):
        values = parse_range("0:0.01:1")
        assert len(values) == 101
        assert values[0] == 0.0
        assert values[-1] == 1.0

    def test_snr_grid(self):
        assert parse_range("0:5:30") == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)

    def test_singleton(self):
        assert parse_range("1:1:1") == (1.0,)

    def test_stop_not_on_grid(self):
        values = parse_range("0:0.3:1")
        assert values == pytest.approx((0.0, 0.3, 0.6, 0.9))

    def test_quotient_rounding_low_adds_a_point(self):
        # (stop + RANGE_EPS - start) / step is just under 2.
        assert parse_range("100000:0.1:100000.2") == (
            100000.0, 100000.1, 100000.2)

    @pytest.mark.parametrize("text, count, last", [
        ("-10:0.01:-1.0001e-12", 1000, -0.009999999999999787),
        ("-10:0.01:-1e-12", 1001, -1e-12)])
    def test_quotient_on_the_count_removes_a_point(self, text, count, last):
        # The quotient is 1000.0 for both, but -10 + 1000 * 0.01 = 0 lies
        # past stop + RANGE_EPS for the first stop: it loses that point.
        values = parse_range(text)
        assert (len(values), values[-1]) == (count, last)

    @pytest.mark.parametrize("bad", ["0:0:1", "1:2", "a:b:c", "2:1:1", "",
                                     "0:5:inf", "nan:1:2", "0:inf:1",
                                     "0:1e-9:1"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_range(bad)


def identity_files(tmp_path, n=2):
    hr = tmp_path / "hr.json"
    he = tmp_path / "he.json"
    linalg.save_matrix(np.eye(n, dtype=np.complex128), hr)
    linalg.save_matrix(np.eye(n, dtype=np.complex128), he)
    return str(hr), str(he)


class TestGsvdCheck:
    def test_passes_on_random_pairs(self, capsys):
        code = main(["gsvd-check", "--nt", "5", "--nr", "5", "--ne", "4",
                     "--trials", "5", "--seed", "7"])
        assert code == 0
        assert "worst residual" in capsys.readouterr().out

    def test_impossible_tolerance_fails(self, capsys):
        code = main(["gsvd-check", "--nt", "5", "--nr", "5", "--ne", "4",
                     "--trials", "2", "--seed", "7", "--tol", "1e-300"])
        assert code == 1
        assert "failed" in capsys.readouterr().err

    def test_nan_residual_stays_the_worst(self, monkeypatch, capsys):
        checks = iter([FactorCheck(np.nan, 0.0, 0.0, 0.0, 0.0, True),
                       FactorCheck(1e-15, 0.0, 0.0, 0.0, 0.0, True)])
        monkeypatch.setattr(cli, "verify_factors",
                            lambda factors, channels: next(checks))
        code = main(["gsvd-check", "--nt", "3", "--nr", "2", "--ne", "2",
                     "--trials", "2", "--seed", "0"])
        assert code == 1
        assert capsys.readouterr().out == "checked 2 pairs: worst residual nan\n"

    def test_seeded_worst_residual_bytes(self, capsys):
        # CI compares the installed entry point's output on these shapes
        # with the same bytes.
        for nt, nr, ne in (("16", "16", "12"), ("3", "2", "5"), ("5", "5", "4")):
            assert main(["gsvd-check", "--nt", nt, "--nr", nr, "--ne", ne,
                         "--trials", "50", "--seed", "1"]) == 0
        out = capsys.readouterr().out.encode()
        assert out == (DATA / "gsvd_check.txt").read_bytes()


class TestAllocate:
    def test_identity_channels_silent(self, tmp_path, capsys):
        hr, he = identity_files(tmp_path)
        code = main(["allocate", "--hr", hr, "--he", he, "--power", "10",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "c", "d", "a", "p", "mu", "effective_power", "rate_bits"
        }
        assert payload["p"] == [0.0, 0.0]
        assert payload["rate_bits"] == 0.0

    def test_table_output(self, tmp_path, capsys):
        hr, he = identity_files(tmp_path)
        code = main(["allocate", "--hr", hr, "--he", he, "--power", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "secrecy rate" in out
        assert "mu = " in out

    def test_seeded_pair_table_bytes(self, capsys):
        # CI compares the installed entry point's output on these files
        # with the same bytes.
        code = main(["allocate", "--hr", str(DATA / "allocate_hr.json"),
                     "--he", str(DATA / "allocate_he.json"), "--power", "10"])
        assert code == 0
        out = capsys.readouterr().out.encode()
        assert out == (DATA / "allocate_power10.txt").read_bytes()

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        hr, _ = identity_files(tmp_path)
        code = main(["allocate", "--hr", hr, "--he",
                     str(tmp_path / "nope.json"), "--power", "10"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_undecodable_file_names_its_path(self, tmp_path, capsys):
        hr, _ = identity_files(tmp_path)
        he = tmp_path / "bytes.json"
        he.write_bytes(b"\xff")
        assert main(["allocate", "--hr", hr, "--he", str(he),
                     "--power", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {he}: not valid JSON: 'utf-8' codec can't decode byte "
            "0xff in position 0: invalid start byte\n")


class TestSweeps:
    def test_fraction_writes_csv_pair(self, tmp_path, capsys):
        out = tmp_path / "frac"
        code = main([
            "sweep-fraction", "--nt", "5", "--nr", "5", "--ne", "4",
            "--power", "100", "--trials", "3", "--seed", "5",
            "--rho-grid", "0:0.5:1", "--out", str(out), "--threads", "1",
        ])
        assert code == 0
        records = read_trial_csv(out / "fraction_trials.csv")
        assert len(records) == 9
        assert {r.trial for r in records} == {0, 1, 2}
        agg = (out / "fraction_aggregate.csv").read_text(encoding="utf-8")
        assert agg.startswith("param,mean_uniform,se_uniform,")
        assert "wrote" in capsys.readouterr().err

    def test_nullspace_warning_is_one_stable_line(self, tmp_path, capsys):
        code = main([
            "sweep-fraction", "--nt", "3", "--nr", "2", "--ne", "4",
            "--power", "10", "--trials", "3", "--seed", "5",
            "--rho-grid", "0:0.5:1", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert err.splitlines()[0] == (
            "warning: n_t <= n_e leaves no eavesdropper nullspace; the rho "
            "sweep degenerates to the all-S2 split")
        assert "cli.py" not in err

    def test_snr_writes_csv_pair(self, tmp_path):
        out = tmp_path / "snr"
        code = main([
            "sweep-snr", "--nt", "4", "--nr", "4", "--ne", "4",
            "--snr-db", "0:10:20", "--trials", "2", "--seed", "5",
            "--out", str(out), "--threads", "1",
        ])
        assert code == 0
        records = read_trial_csv(out / "snr_trials.csv")
        assert len(records) == 6
        assert (out / "snr_aggregate.csv").exists()

    def test_rerun_on_a_shrinking_grid_leaves_no_stale_bytes(self, tmp_path):
        # As CI's rerun step: a 7-point grid, then a 4-point one over it,
        # must give the bytes of the 4-point grid written fresh.
        argv = ["sweep-snr", "--nt", "4", "--nr", "4", "--ne", "4",
                "--trials", "10", "--seed", "1"]
        rerun, fresh = str(tmp_path / "rerun"), str(tmp_path / "fresh")
        assert main(argv + ["--snr-db", "0:5:30", "--out", rerun]) == 0
        assert main(argv + ["--snr-db", "0:10:30", "--out", rerun]) == 0
        assert main(argv + ["--snr-db", "0:10:30", "--out", fresh]) == 0
        for name in ("snr_trials.csv", "snr_aggregate.csv"):
            assert ((tmp_path / "rerun" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())

    def test_thread_count_leaves_bytes_unchanged(self, tmp_path):
        args = ["sweep-fraction", "--nt", "5", "--nr", "5", "--ne", "4",
                "--power", "100", "--trials", "4", "--seed", "11",
                "--rho-grid", "0:0.25:1"]
        out1, out4 = tmp_path / "t1", tmp_path / "t4"
        assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
        assert main(args + ["--out", str(out4), "--threads", "4"]) == 0
        for name in ("fraction_trials.csv", "fraction_aggregate.csv"):
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes()

    def test_campaign_out_of_memory_is_one_error_line(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 149. GiB")

        monkeypatch.setattr(experiments, "_run_campaign", no_memory)
        code = main(["sweep-fraction", "--nt", "2", "--nr", "2", "--ne", "1",
                     "--power", "10", "--rho-grid", "0:0.25:1",
                     "--trials", "200000", "--seed", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "200000 trials x 5 grid points" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, run, config", [
        (["sweep-fraction", "--power", "100", "--rho-grid", "0:0.25:1"],
         experiments.run_fraction_experiment,
         dict(budget=100.0, rho_grid=(0.0, 0.25, 0.5, 0.75, 1.0))),
        (["sweep-snr", "--snr-db", "0:10:30"], experiments.run_snr_sweep,
         dict(snr_db_grid=(0.0, 10.0, 20.0, 30.0)))], ids=["fraction", "snr"])
    def test_aggregate_file_is_write_aggregate_csv(self, argv, run, config,
                                                   tmp_path):
        assert main(argv + ["--nt", "5", "--nr", "4", "--ne", "3",
                            "--trials", "6", "--seed", "8",
                            "--out", str(tmp_path)]) == 0
        result = run(experiments.ExperimentConfig(n_t=5, n_r=4, n_e=3,
                                                  trials=6, seed=8, **config))
        experiments.write_aggregate_csv(result.aggregates, tmp_path / "rows.csv")
        name = argv[0].removeprefix("sweep-") + "_aggregate.csv"
        assert ((tmp_path / name).read_bytes()
                == (tmp_path / "rows.csv").read_bytes())

    def test_unreachable_budget_is_one_error_line(self, tmp_path):
        # Out of process, so that stderr is what a user sees, with no
        # warning filter of the test session in between.
        env = dict(os.environ, PYTHONPATH=str(DATA.parents[1] / "src"))
        env.pop("PYTHONWARNINGS", None)
        run = subprocess.run(
            [sys.executable, "-m", "gsvdcap.cli", "sweep-fraction", "--nt",
             "3", "--nr", "2", "--ne", "2", "--power", "1e308", "--rho-grid",
             "0:0.5:1", "--trials", "2", "--seed", "1", "--out",
             str(tmp_path / "out")], capture_output=True, text=True, env=env)
        assert run.returncode == 1
        assert run.stderr == (
            "error: power budget 1e+308 is beyond what any representable "
            "multiplier reaches on these gains\n")

    def test_snr_sweep_at_300_db(self, tmp_path):
        # Budget 1e30: the multiplier bracket needs over 200 halvings.
        assert main(["sweep-snr", "--nt", "2", "--nr", "2", "--ne", "2",
                     "--snr-db", "300:1:300", "--trials", "20", "--seed", "0",
                     "--out", str(tmp_path), "--threads", "1"]) == 0
        records = read_trial_csv(tmp_path / "snr_trials.csv")
        assert len(records) == 20
        assert all(r.optimal_rate >= r.uniform_rate - 1e-9 for r in records)


# SHA-256 of the CSVs of the 10-trial, seed-1 reference campaigns: the same
# bytes as tests/data/reference/, which CI compares with the installed entry
# point's output.
REFERENCE_CAMPAIGNS = [
    (["sweep-fraction", "--nt", "5", "--nr", "5", "--ne", "4", "--power",
      "100", "--rho-grid", "0:0.01:1"],
     {"fraction_trials.csv": "56e3f903dfd2550688135ea0f2a7a91b"
                             "5b221fe774e157948554bb00946c7b14",
      "fraction_aggregate.csv": "00ebe9aaa92764105bb56daa5b1e972c"
                                "42e1df307c1f71e14f662378e656a104"}),
    (["sweep-snr", "--nt", "4", "--nr", "4", "--ne", "4", "--snr-db",
      "0:5:30"],
     {"snr_trials.csv": "55cf2ce0a8b272513840b5693067583f"
                        "55ce0a7813039b96aeef045d2f90a059",
      "snr_aggregate.csv": "906ea7ab3d00553b609a2cb4178a7e79"
                           "4c3eb69ba3edcfaa50c01e1ec6acc5aa"}),
]
# The README's two campaigns, --trials 100 --seed 1. The SNR campaign solves
# its 700 (trial, budget) rows in one batch.
README_CAMPAIGNS = [
    (REFERENCE_CAMPAIGNS[0][0],
     {"fraction_trials.csv": "cdd40aba51b243aca6ebeafe14e1c38f"
                             "06cf90db9e941b3b4508a746e4af6a9e",
      "fraction_aggregate.csv": "ff82bc497a867bb9564947cc27efc655"
                                "905bfba914054ff24b882424af0d0f5a"}),
    (REFERENCE_CAMPAIGNS[1][0],
     {"snr_trials.csv": "24f458513da26c37cb5443924a392448"
                        "d7784dad5d6d0b4dc6e09ee35bed5302",
      "snr_aggregate.csv": "059737e00528b4ffe39bc61d3763bdb3"
                           "e3e46b49b82551161577244b38d658e5"}),
]


class TestReferenceBytes:
    @pytest.mark.parametrize("argv, digests", REFERENCE_CAMPAIGNS)
    def test_reference_campaign_csv_digests(self, argv, digests, tmp_path):
        assert main(argv + ["--trials", "10", "--seed", "1",
                            "--out", str(tmp_path)]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in digests} == digests

    @pytest.mark.parametrize("argv", [argv for argv, _ in REFERENCE_CAMPAIGNS],
                             ids=["fraction", "snr"])
    def test_reference_campaigns_stay_near_the_benchmark(self, argv, tmp_path):
        # perfbench accepts a run within 1e-8 bits of its reference CSVs on
        # every field; the package keeps within 1e-9 of them.
        assert main(argv + ["--trials", "10", "--seed", "1",
                            "--out", str(tmp_path)]) == 0
        campaign = argv[0].removeprefix("sweep-")
        references = sorted((BENCH_REFERENCE / campaign).glob("*.csv"))
        assert len(references) == 2
        for reference in references:
            want, got = (list(csv.reader(path.open(newline="")))
                         for path in (reference, tmp_path / reference.name))
            assert got[0] == want[0] and len(got) == len(want)
            assert max(abs(float(x) - float(y))
                       for w, g in zip(want[1:], got[1:])
                       for x, y in zip(w, g, strict=True)) <= 1e-9

    @pytest.mark.parametrize("argv, digests", README_CAMPAIGNS)
    def test_readme_campaign_csv_digests(self, argv, digests, tmp_path,
                                         capsys):
        assert main(argv + ["--trials", "100", "--seed", "1",
                            "--out", str(tmp_path)]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in digests} == digests
        # sweep-fraction's summary line; sweep-snr prints none.
        assert_printed_in_readme(capsys.readouterr().out)

    def test_unequal_variance_symbol_mode_csv_bytes(self, tmp_path):
        # Unequal variances and symbol mode, which the perfbench references
        # do not reach. CI compares the installed entry point's output with
        # the same files.
        assert main(["sweep-snr", "--nt", "5", "--nr", "4", "--ne", "4",
                     "--snr-db", "0:10:30", "--trials", "20", "--seed", "3",
                     "--sigma-r2", "2", "--sigma-e2", "0.5",
                     "--uniform-mode", "symbol", "--out", str(tmp_path)]) == 0
        for name in ("snr_trials.csv", "snr_aggregate.csv"):
            assert ((tmp_path / name).read_bytes()
                    == (DATA / "snr_symbol" / name).read_bytes())

    def test_wide_snr_grid_csv_bytes(self, tmp_path):
        # -60 to 90 dB, where the solver's start level has the most ground
        # to cover. CI compares the installed entry point's output
        # with the same files.
        assert main(["sweep-snr", "--nt", "4", "--nr", "4", "--ne", "4",
                     "--snr-db=-60:10:90", "--trials", "10", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        for name in ("snr_trials.csv", "snr_aggregate.csv"):
            assert ((tmp_path / name).read_bytes()
                    == (DATA / "snr_wide" / name).read_bytes())


class TestReadmeOutput:
    @pytest.mark.parametrize("command", [
        "gsvd-check --nt 4 --nr 3 --ne 3 --trials 20 --seed 7",
        "oracle-verify --q 3 --trials 10 --budget 10 --seed 5 --resolution 60",
        "allocate --hr tests/data/allocate_hr.json "
        "--he tests/data/allocate_he.json --power 10",
    ], ids=["gsvd-check", "oracle-verify", "allocate"])
    def test_printed_lines_are_in_readme(self, command, monkeypatch, capsys):
        assert f"gsvdcap {command}\n" in README
        monkeypatch.chdir(DATA.parents[1])  # the README's paths are relative
        assert main(command.split()) == 0
        assert_printed_in_readme(capsys.readouterr().out)


class TestParserReuse:
    def test_reused_parser_matches_fresh_parsers(self, tmp_path, capsys):
        dims = ["--nt", "3", "--nr", "2", "--ne", "2", "--trials", "3",
                "--seed", "2"]
        argvs = [
            ["sweep-fraction", *dims, "--power", "10", "--rho-grid", "0:0.25:1"],
            ["sweep-fraction", *dims, "--power", "10"],
            ["sweep-snr", *dims, "--snr-db", "0:10:20"],
        ]

        def run(argv, out):
            status = main(argv + ["--out", str(out)])
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            return (status, captured.out,
                    captured.err.replace(str(out), "<out>"), files)

        build_parser.cache_clear()
        reused = [run(argv, tmp_path / "reused" / str(i))
                  for i, argv in enumerate(argvs)]
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        fresh = []
        for i, argv in enumerate(argvs):
            build_parser.cache_clear()
            fresh.append(run(argv, tmp_path / "fresh" / str(i)))
        assert reused == fresh
        assert [r[0] for r in reused] == [0, 0, 0]


class TestOracleVerify:
    def test_agreement(self, capsys):
        code = main(["oracle-verify", "--q", "2", "--trials", "5",
                     "--budget", "10", "--seed", "1", "--resolution", "60"])
        assert code == 0
        assert "worst |closed - grid|" in capsys.readouterr().out

    def test_seeded_worst_deviation_bytes(self, capsys):
        # CI compares the installed entry point's output for q = 1 to 4
        # with the same bytes.
        for q in ("1", "2", "3", "4"):
            assert main(["oracle-verify", "--q", q, "--trials", "6",
                         "--budget", "10", "--seed", "5",
                         "--resolution", "60"]) == 0
        out = capsys.readouterr().out.encode()
        assert out == (DATA / "oracle_verify.txt").read_bytes()

    def test_silent_closed_form_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "solve_mu", lambda gains, budget:
                            PowerAllocation(p=np.zeros(len(gains.c)), mu=None,
                                            effective_power=0.0))
        assert main(["oracle-verify", "--q", "2", "--trials", "2",
                     "--budget", "10", "--seed", "5",
                     "--resolution", "50"]) == 1
        assert capsys.readouterr().err == (
            "verification failed: worst deviation 1.098e+00, 1 instances "
            "where the grid beat the closed form\n")


class TestOneParse:
    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate"],
        ["sweep-snr", "--nt", "4", "--nr", "4", "--ne", "4", "--trials", "1",
         "--seed", "0"],
        ["sweep-snr", "--nt", "4", "--nr", "4", "--ne", "4", "--trials", "1",
         "--seed", "0", "--snr-db", "0:10:20", "--bogus"],
        ["sweep-fraction", "-h"],
    ], ids=["no-argument", "unknown-command", "missing-flag",
            "unrecognized-argument", "subcommand-help"])
    def test_main_prints_what_the_two_level_parse_prints(self, argv, tmp_path,
                                                        monkeypatch, capsys):
        # main parses a subcommand with its own parser; its usage errors and
        # help must stay those of the top-level parser's parse_args.
        monkeypatch.setenv("COLUMNS", "80")
        if argv and argv[0] == "sweep-snr":
            argv = argv + ["--out", str(tmp_path)]

        def run(parse):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        assert run(main) == run(build_parser().parse_args)
        assert not any(tmp_path.iterdir())


class TestUsageErrors:
    def assert_usage_exit(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        self.assert_usage_exit([])

    def test_unknown_flag(self):
        self.assert_usage_exit(["gsvd-check", "--nt", "4", "--nr", "4",
                                "--ne", "4", "--trials", "1", "--seed", "0",
                                "--frobnicate"])

    def test_missing_required_flag(self):
        self.assert_usage_exit(["gsvd-check", "--nt", "4"])

    def test_rho_grid_outside_unit_interval(self):
        self.assert_usage_exit([
            "sweep-fraction", "--nt", "5", "--nr", "5", "--ne", "4",
            "--power", "100", "--trials", "1", "--seed", "0",
            "--rho-grid", "0:0.5:2", "--out", "x",
        ])

    def test_nonpositive_dimension(self):
        self.assert_usage_exit(["gsvd-check", "--nt", "0", "--nr", "4",
                                "--ne", "4", "--trials", "1", "--seed", "0"])

    def test_negative_seed(self):
        self.assert_usage_exit(["gsvd-check", "--nt", "4", "--nr", "4",
                                "--ne", "4", "--trials", "1", "--seed", "-1"])

    @pytest.mark.parametrize("argv, message", [
        (["oracle-verify", "--q", "2", "--trials", "2", "--budget", "10",
          "--seed", "1", "--resolution", "10"],
         "argument --resolution: resolution must be an integer at least 50, "
         "got 10"),
        (["oracle-verify", "--q", "5", "--trials", "2", "--budget", "10",
          "--seed", "1"],
         "argument --q: q must be an integer from 1 to 4, got 5"),
        (["gsvd-check", "--nt", "4", "--nr", "4", "--ne", "4", "--trials",
          "1", "--seed", "18446744073709551616"],
         "argument --seed: seed must be an integer from 0 to 2**64 - 1, got "
         "18446744073709551616"),
        (["sweep-snr", "--nt", "4", "--nr", "4", "--ne", "4", "--snr-db",
          "0:5:30", "--seed", "1", "--trials", "72057594037927937"],
         "argument --trials: trials must be an integer from 1 to 2**56, got "
         "72057594037927937"),
    ], ids=["resolution", "q", "seed", "trials"])
    def test_library_integer_range(self, argv, message, tmp_path, capsys):
        # The library refuses these values too, but only once the command
        # runs; out-of-range flags are usage errors.
        self.assert_usage_exit(argv + ["--out", str(tmp_path)]
                               if argv[0] == "sweep-snr" else argv)
        err = capsys.readouterr().err
        assert err.startswith("usage: gsvdcap " + argv[0])
        assert err.endswith(f"gsvdcap {argv[0]}: error: {message}\n")
        assert not any(tmp_path.iterdir())

    def test_negative_range_needs_the_equals_form(self, tmp_path, capsys):
        argv = ["sweep-snr", "--nt", "3", "--nr", "2", "--ne", "2",
                "--trials", "2", "--seed", "0", "--out", str(tmp_path)]
        self.assert_usage_exit(argv + ["--snr-db", "-10:10:10"])
        assert capsys.readouterr().err.endswith(
            "error: argument --snr-db: expected one argument\n")
        assert not any(tmp_path.iterdir())
        assert main(argv + ["--snr-db=-10:10:10"]) == 0
        rows = (tmp_path / "snr_aggregate.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["-10", "0", "10"]

    @pytest.mark.parametrize("flag, value", [
        ("--trials", "0"), ("--trials", "x"), ("--power", "0"),
        ("--power", "nan"), ("--power", "inf"), ("--sigma-r2", "-1"),
        ("--sigma-r2", "inf"), ("--tol", "abc"), ("--snr-db", "0:1e-12:30")])
    def test_out_of_range_number(self, flag, value, tmp_path):
        argv = ["--nt", "4", "--nr", "4", "--ne", "4", "--trials", "1",
                "--seed", "0"]
        if flag == "--tol":
            argv = ["gsvd-check"] + argv
        elif flag == "--snr-db":
            argv = ["sweep-snr", "--out", str(tmp_path)] + argv
        else:
            argv = ["sweep-fraction", "--power", "1", "--out", str(tmp_path)] + argv
        self.assert_usage_exit(argv + [flag, value])
        assert not any(tmp_path.iterdir())
