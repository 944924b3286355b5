"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import json

import numpy as np
import pytest

from gsvdcap import linalg, read_trial_csv
from gsvdcap.cli import main, parse_range


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

    @pytest.mark.parametrize("bad", ["0:0:1", "1:2", "a:b:c", "2:1:1", ""])
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
        ("--power", "nan"), ("--sigma-r2", "-1"), ("--tol", "abc")])
    def test_out_of_range_number(self, flag, value, tmp_path):
        argv = ["--nt", "4", "--nr", "4", "--ne", "4", "--trials", "1",
                "--seed", "0"]
        if flag == "--tol":
            argv = ["gsvd-check"] + argv
        else:
            argv = ["sweep-fraction", "--power", "1", "--out", str(tmp_path)] + argv
        self.assert_usage_exit(argv + [flag, value])
        assert not any(tmp_path.iterdir())
