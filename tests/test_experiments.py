"""Unit tests for channel sampling, campaigns, and CSV plumbing."""

import numpy as np
import pytest

import gsvdcap.experiments as experiments
from gsvdcap import (
    DegenerateChannelError,
    ExperimentConfig,
    TrialRecord,
    load_config,
    read_trial_csv,
    run_fraction_experiment,
    run_snr_sweep,
    sample_channel,
    save_config,
    write_aggregate_csv,
    write_csv,
)

from conftest import pair_from_arrays


def fraction_config(**overrides):
    base = dict(
        n_t=5, n_r=5, n_e=4, budget=100.0, trials=4, seed=3,
        rho_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_valid(self):
        cfg = fraction_config()
        assert cfg.rho_grid == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_t=0, n_r=2, n_e=2)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            fraction_config(trials=0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            fraction_config(seed=2**64)
        assert fraction_config(seed=2**64 - 1).seed == 2**64 - 1

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            fraction_config(rho_grid=(0.0, 0.5, 0.5))

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            fraction_config(budget=0.0)

    @pytest.mark.parametrize("field, value", [
        ("trials", 2.5), ("n_t", 4.5), ("n_r", "4"), ("n_e", True),
        ("seed", 1.0)])
    def test_integer_fields_reject_non_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            fraction_config(**{field: value})

    def test_zero_variance_allowed(self):
        assert fraction_config(sigma_e2=0.0).sigma_e2 == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            fraction_config(sigma_r2=-1.0)


class TestSampleChannel:
    def test_deterministic(self):
        cfg = fraction_config()
        p1 = sample_channel(cfg, 7)
        p2 = sample_channel(cfg, 7)
        assert np.array_equal(p1.hr, p2.hr)
        assert np.array_equal(p1.he, p2.he)

    def test_trials_differ(self):
        cfg = fraction_config()
        p1 = sample_channel(cfg, 0)
        p2 = sample_channel(cfg, 1)
        assert not np.array_equal(p1.hr, p2.hr)

    def test_streams_differ(self):
        cfg = fraction_config(n_r=4)
        pair = sample_channel(cfg, 0)
        assert not np.array_equal(pair.hr, pair.he)

    def test_shapes(self):
        pair = sample_channel(fraction_config(), 0)
        assert pair.hr.shape == (5, 5)
        assert pair.he.shape == (4, 5)

    def test_zero_variance_gives_zero_matrix(self):
        pair = sample_channel(fraction_config(sigma_e2=0.0), 0)
        assert np.all(pair.he == 0.0)
        assert not np.all(pair.hr == 0.0)

    def test_entry_second_moment(self):
        # 50 x 200 = 10^4 entries; the sample mean of |h|^2 must sit within
        # 5% of the configured variance.
        cfg = ExperimentConfig(n_t=200, n_r=50, n_e=1, trials=1, seed=12)
        pair = sample_channel(cfg, 0)
        mean_sq = float(np.mean(np.abs(pair.hr) ** 2))
        assert abs(mean_sq - 1.0) <= 0.05

    def test_variance_scaling(self):
        cfg = ExperimentConfig(n_t=200, n_r=50, n_e=1, sigma_r2=4.0,
                               trials=1, seed=13)
        pair = sample_channel(cfg, 0)
        assert abs(float(np.mean(np.abs(pair.hr) ** 2)) - 4.0) <= 0.2

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError):
            sample_channel(fraction_config(), -1)


class TestFractionExperiment:
    def test_records_and_invariants(self):
        cfg = fraction_config()
        result = run_fraction_experiment(cfg)
        assert len(result.records) == cfg.trials * len(cfg.rho_grid)
        for rec in result.records:
            assert rec.optimal_rate >= rec.uniform_rate - 1e-9
            assert rec.optimal_rate >= 0 and rec.uniform_rate >= 0
            assert rec.q == 5
            assert rec.dim_s1 == 1
            assert rec.dim_s1 + rec.dim_s2 <= rec.q
        mean_optimal = result.aggregates[0].mean_optimal
        assert all(row.mean_optimal == mean_optimal for row in result.aggregates)
        assert mean_optimal >= float(np.max(result.curve.rate_bits)) - 1e-9
        assert np.array_equal(result.curve.param, cfg.rho_grid)
        assert all(row.trials == cfg.trials for row in result.aggregates)

    def test_requires_budget_and_grid(self):
        with pytest.raises(ValueError, match="budget"):
            run_fraction_experiment(fraction_config(budget=None))
        with pytest.raises(ValueError, match="budget"):
            run_fraction_experiment(fraction_config(rho_grid=None))

    def test_warns_without_nullspace(self):
        cfg = fraction_config(n_t=4, n_e=4, trials=1)
        with pytest.warns(UserWarning, match="nullspace"):
            run_fraction_experiment(cfg)

    def test_identical_channels_give_zero_rates(self, monkeypatch):
        rng = np.random.default_rng(40)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        fixed = pair_from_arrays(h, h)
        monkeypatch.setattr(experiments, "sample_channel", lambda cfg, t: fixed)
        cfg = fraction_config(n_t=4, n_r=4, n_e=4, trials=1,
                              rho_grid=(0.0, 1.0))
        with pytest.warns(UserWarning):
            result = run_fraction_experiment(cfg)
        for rec in result.records:
            assert rec.uniform_rate <= 1e-12
            assert rec.optimal_rate <= 1e-12

    def test_degenerate_draw_resampled_from_private_substream(self, monkeypatch):
        cfg = fraction_config(trials=2, rho_grid=(0.0, 0.5, 1.0))
        real_gsvd = experiments.gsvd
        calls = {"n": 0}

        def flaky(channels):
            calls["n"] += 1
            if calls["n"] == 1:
                raise DegenerateChannelError(1, 2)
            return real_gsvd(channels)

        monkeypatch.setattr(experiments, "gsvd", flaky)
        result = run_fraction_experiment(cfg)
        assert result.resampled == 1

        # Trial 0 must have used substream trial + trials*1 = 2, leaving
        # trial 1 untouched on substream 1.
        import gsvdcap as g

        def optimal_for(t):
            gains = g.subchannel_gains(real_gsvd(sample_channel(cfg, t)))
            return g.secrecy_rate(gains, g.solve_mu(gains, cfg.budget))

        trial0 = [r for r in result.records if r.trial == 0][0]
        trial1 = [r for r in result.records if r.trial == 1][0]
        assert trial0.optimal_rate == pytest.approx(optimal_for(2), abs=1e-12)
        assert trial1.optimal_rate == pytest.approx(optimal_for(1), abs=1e-12)

    def test_thread_count_does_not_change_results(self):
        cfg = fraction_config(trials=6)
        serial = run_fraction_experiment(cfg, threads=1)
        parallel = run_fraction_experiment(cfg, threads=4)
        assert [vars(r) for r in serial.records] == [
            vars(r) for r in parallel.records
        ]


class TestSnrSweep:
    def test_records_and_gap(self):
        cfg = ExperimentConfig(n_t=4, n_r=4, n_e=4, trials=5, seed=9,
                               snr_db_grid=(0.0, 10.0, 20.0))
        result = run_snr_sweep(cfg)
        assert len(result.records) == 15
        for rec in result.records:
            assert rec.optimal_rate >= rec.uniform_rate - 1e-9
        for row in result.aggregates:
            assert row.mean_optimal > row.mean_uniform
        assert np.array_equal(result.curve.param, cfg.snr_db_grid)
        assert np.array_equal(result.curve.rate_bits,
                              [row.mean_uniform for row in result.aggregates])

    def test_vanishing_power(self):
        cfg = ExperimentConfig(n_t=4, n_r=4, n_e=4, trials=2, seed=10,
                               snr_db_grid=(-90.0,))
        result = run_snr_sweep(cfg)
        for rec in result.records:
            assert rec.optimal_rate <= 1e-8
            assert rec.uniform_rate <= 1e-8

    def test_requires_grid(self):
        with pytest.raises(ValueError, match="snr"):
            run_snr_sweep(fraction_config())


class TestCsv:
    def records(self):
        return [
            TrialRecord(trial=0, parameter=0.25, uniform_rate=1.2345678901,
                        optimal_rate=2.0, q=5, dim_s1=1, dim_s2=4),
            TrialRecord(trial=1, parameter=0.5, uniform_rate=0.0,
                        optimal_rate=1e-9, q=5, dim_s1=1, dim_s2=3),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "trials.csv"
        write_csv(self.records(), path, param_column="rho")
        back = read_trial_csv(path)
        assert back == self.records()

    def test_header_and_endings(self, tmp_path):
        path = tmp_path / "trials.csv"
        write_csv(self.records(), path, param_column="rho")
        data = path.read_bytes()
        assert b"\r" not in data
        first = data.split(b"\n", 1)[0].decode()
        assert first == "trial,rho,uniform_rate_bits,optimal_rate_bits,q,dim_s1,dim_s2"

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path, param_column="snr_db")
        assert path.read_text(encoding="utf-8") == (
            "trial,snr_db,uniform_rate_bits,optimal_rate_bits,q,dim_s1,dim_s2\n"
        )

    def test_param_column_validated(self, tmp_path):
        with pytest.raises(ValueError, match="column"):
            write_csv([], tmp_path / "x.csv", param_column="epsilon")

    def test_aggregate_format(self, tmp_path):
        from gsvdcap.experiments import AggregateRow

        path = tmp_path / "agg.csv"
        write_aggregate_csv(
            [AggregateRow(param=0.5, mean_uniform=1.0, se_uniform=0.1,
                          mean_optimal=2.0, se_optimal=0.2, trials=100)],
            path,
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "param,mean_uniform,se_uniform,mean_optimal,se_optimal,trials"
        assert lines[1] == "0.5,1,0.1,2,0.2,100"

    def test_read_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trial,rho\n0,0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.csv"):
            read_trial_csv(path)

    def test_read_missing(self, tmp_path):
        with pytest.raises(OSError, match="absent"):
            read_trial_csv(tmp_path / "absent.csv")


class TestConfigIo:
    def test_round_trip(self, tmp_path):
        cfg = fraction_config()
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_round_trip_with_snr_grid(self, tmp_path):
        cfg = ExperimentConfig(n_t=4, n_r=4, n_e=4, trials=3, seed=1,
                               snr_db_grid=(0.0, 10.0))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_t": 4, "n_r": 4, "n_e": 4, "gamma": 1}',
                        encoding="utf-8")
        with pytest.raises(ValueError, match="gamma"):
            load_config(path)

    def test_scalar_grid_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_t": 4, "n_r": 4, "n_e": 4, "rho_grid": 5}',
                        encoding="utf-8")
        with pytest.raises(ValueError, match="bad config"):
            load_config(path)

    def test_fractional_trials_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_t": 4, "n_r": 4, "n_e": 4, "trials": 2.5}',
                        encoding="utf-8")
        with pytest.raises(ValueError, match="trials"):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON"):
            load_config(path)
