"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import hashlib
import json

import numpy as np
import pytest

from gsvdcap import experiments, linalg, read_trial_csv
from gsvdcap.cli import build_parser, main, parse_range


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

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        hr, _ = identity_files(tmp_path)
        code = main(["allocate", "--hr", hr, "--he",
                     str(tmp_path / "nope.json"), "--power", "10"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


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

    def test_snr_sweep_at_300_db(self, tmp_path):
        # Budget 1e30: the multiplier bracket needs over 200 halvings.
        assert main(["sweep-snr", "--nt", "2", "--nr", "2", "--ne", "2",
                     "--snr-db", "300:1:300", "--trials", "20", "--seed", "0",
                     "--out", str(tmp_path), "--threads", "1"]) == 0
        records = read_trial_csv(tmp_path / "snr_trials.csv")
        assert len(records) == 20
        assert all(r.optimal_rate >= r.uniform_rate - 1e-9 for r in records)


# SHA-256 of the CSVs of the 10-trial, seed-1 reference campaigns: the same
# bytes as perfbench/reference/.
REFERENCE_CAMPAIGNS = [
    (["sweep-fraction", "--nt", "5", "--nr", "5", "--ne", "4", "--power",
      "100", "--rho-grid", "0:0.01:1"],
     {"fraction_trials.csv": "33a85f52a0b5cd78bfc5f71554ef17c3"
                             "d83d38753cf7e5fb3d20beca51e773d8",
      "fraction_aggregate.csv": "6eec4f68e584c82824310f3e76c9caaf"
                                "0ab030a312ba94b9701bd03aa7fb46aa"}),
    (["sweep-snr", "--nt", "4", "--nr", "4", "--ne", "4", "--snr-db",
      "0:5:30"],
     {"snr_trials.csv": "251253e5bdab04d3751b683badfd0660"
                        "4cbaa1b1939f7057737f1aae2ffa991d",
      "snr_aggregate.csv": "b57aad86032f518cb31ac8f473ada43d"
                           "3b718bcd618f7988bc5c257f517dc124"}),
]


class TestReferenceBytes:
    @pytest.mark.parametrize("argv, digests", REFERENCE_CAMPAIGNS)
    def test_reference_campaign_csv_digests(self, argv, digests, tmp_path):
        assert main(argv + ["--trials", "10", "--seed", "1",
                            "--out", str(tmp_path)]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in digests} == digests


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
