"""Unit tests for channel sampling, campaigns, and CSV plumbing."""

import contextlib
import hashlib
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import gsvdcap.experiments as experiments
from gsvdcap import (
    ChannelPair,
    DegenerateChannelError,
    ExperimentConfig,
    PowerAllocation,
    SubchannelGains,
    TrialRecord,
    classify_subspaces,
    fraction_sweep,
    gsvd,
    load_config,
    read_trial_csv,
    run_fraction_experiment,
    run_snr_sweep,
    sample_channel,
    save_config,
    secrecy_rate,
    solve_mu,
    subchannel_gains,
    uniform_secure_allocation,
    write_aggregate_csv,
    write_csv,
)
from gsvdcap.capacity import _uniform_powers
from gsvdcap.gsvd import _stacked_gains

from conftest import reference_uniform_p


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

    def test_trials_fit_the_key(self):
        assert fraction_config(trials=2**56).trials == 2**56
        with pytest.raises(ValueError, match="trials"):
            fraction_config(trials=2**56 + 1)

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

    @pytest.mark.parametrize("field, value", [
        ("sigma_r2", float("nan")), ("sigma_e2", float("inf")),
        ("budget", float("inf")), ("rho_grid", (0.0, 1.5)),
        ("snr_db_grid", (0.0, 4000.0)), ("snr_db_grid", (float("nan"),)),
        # Strings: iterated, each would give a grid of its characters or
        # byte values.
        ("rho_grid", "01"), ("snr_db_grid", "159"), ("snr_db_grid", b"12"),
        ("rho_grid", bytearray(b"0"))])
    def test_rejects_values_that_would_fail_later(self, field, value):
        with pytest.raises(ValueError, match=field):
            fraction_config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("sigma_r2", True), ("sigma_e2", False), ("budget", True),
        ("rho_grid", (False, True)), ("snr_db_grid", (0.0, np.True_))])
    def test_float_fields_reject_booleans(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} .*bools?$"):
            fraction_config(**{field: value})


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

    def test_last_trial_below_the_key_limit_draws(self):
        cfg = ExperimentConfig(n_t=2, n_r=2, n_e=2, seed=0)
        pair = sample_channel(cfg, 2**56 - 1)
        assert np.all(np.isfinite(pair.hr)) and np.all(np.isfinite(pair.he))

    @pytest.mark.parametrize("trial", [2**56, 2**120])
    def test_trial_that_would_spill_into_the_seed_rejected(self, trial):
        # 2**56 used to draw seed 1's trial 0; 2**120 overflowed the key.
        cfg = ExperimentConfig(n_t=2, n_r=2, n_e=2, seed=0)
        with pytest.raises(ValueError, match="2\\*\\*56"):
            sample_channel(cfg, trial)

    @pytest.mark.parametrize("shape, trial, variances, digest", [
        ((5, 5, 4), 0, {},
         "0aea7e7cedba27a037b70497a8124b493c8b334cba5c58deb95e40ed442cc087"),
        ((3, 2, 5), 7, {},
         "737ddd87e1c3ad8356a9bee5db74ff4c8da849322e59a4dde6c5170d672fbe0a"),
        ((16, 16, 12), 49, {},
         "e6be501a3a7b34caf65824e5487ed4a1ba3e729894e1cca8e4280966a9b3d99f"),
        ((4, 3, 2), 5, {"sigma_r2": 0.25, "sigma_e2": 3.0},
         "965a49871852210f065ad4a3c98748004f69ba8a1e25ae0bfcba5461b303388c"),
        ((3, 2, 5), 1, {"sigma_r2": 0.0},
         "951f1f0c5cf3e1daf579f72c533cff32df0a30ac3bb08bbaa652197e5f9dc684"),
    ], ids=["5x5x4-t0", "3x2x5-t7", "16x16x12-t49", "4x3x2-t5-unequal",
            "3x2x5-t1-zero"])
    def test_draws_are_pinned(self, shape, trial, variances, digest):
        # Campaign CSVs depend on these bytes; a sampler change shows here
        # first. The scaled cases pin the variance scaling, the signs of
        # the zeros that a zero variance leaves included.
        n_t, n_r, n_e = shape
        pair = sample_channel(
            ExperimentConfig(n_t=n_t, n_r=n_r, n_e=n_e, seed=1, **variances),
            trial)
        data = pair.hr.tobytes() + pair.he.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestConcurrentSampling:
    def test_two_threads_draw_the_serial_bytes(self):
        # Each thread restarts its own generator at every key; a shared one
        # would mix the streams whenever the threads interleave.
        configs = (ExperimentConfig(n_t=5, n_r=5, n_e=4, seed=1),
                   ExperimentConfig(n_t=3, n_r=2, n_e=5, seed=7))

        def draws(config):
            return [pair.hr.tobytes() + pair.he.tobytes()
                    for pair in (sample_channel(config, t) for t in range(200))]

        serial = [draws(config) for config in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(draws, configs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


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

    def test_wide_grid_memory_is_bounded_by_grid_cells(self):
        # 64 trials x 2001 rho points on 16x12x8 traced a 64 MB peak when
        # all 64 trials were swept as one (trials, grid, q) stack; chunks
        # of _CHUNK_CELLS cells keep it near 18 MB.
        cfg = ExperimentConfig(n_t=16, n_r=12, n_e=8, budget=100.0,
                               trials=64, seed=1,
                               rho_grid=tuple(k / 2000 for k in range(2001)))
        tracemalloc.start()
        try:
            run_fraction_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

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
        fixed = np.vstack([h, h])
        monkeypatch.setattr(experiments, "_draw",
                            lambda cfg, substreams: np.stack(
                                [fixed] * len(substreams)))
        cfg = fraction_config(n_t=4, n_r=4, n_e=4, trials=1,
                              rho_grid=(0.0, 1.0))
        with pytest.warns(UserWarning):
            result = run_fraction_experiment(cfg)
        for rec in result.records:
            assert rec.uniform_rate <= 1e-12
            assert rec.optimal_rate <= 1e-12

    def test_degenerate_draw_raises_naming_the_trial(self, monkeypatch):
        self.check_degenerate(monkeypatch, trials=2, degenerate=0)

    def test_degenerate_draw_in_a_later_chunk_raises_naming_the_trial(
            self, monkeypatch):
        chunk = experiments._TRIAL_CHUNK
        self.check_degenerate(monkeypatch, trials=chunk + 2,
                              degenerate=chunk + 1)

    @staticmethod
    def check_degenerate(monkeypatch, trials, degenerate):
        cfg = fraction_config(trials=trials, rho_grid=(0.0, 0.5, 1.0))
        real_draw = experiments._draw

        def flaky(config, substreams):
            # The degenerate trial's draw is all zeros: stacked rank 0.
            h = real_draw(config, substreams)
            h[np.asarray(substreams) == degenerate] = 0.0
            return h

        monkeypatch.setattr(experiments, "_draw", flaky)
        with pytest.raises(DegenerateChannelError) as info:
            run_fraction_experiment(cfg)
        assert str(info.value) == (f"trial {degenerate}: degenerate channel: "
                                   "stacked rank 0, expected 5")
        assert (info.value.detected_rank, info.value.expected_rank) == (0, 5)

    def test_zero_variance_receiver_raises_on_the_first_draw(self, monkeypatch):
        # A silent receiver leaves [hr; he] with rank n_e < q on every draw.
        cfg = fraction_config(n_t=5, n_r=2, n_e=2, trials=5, sigma_r2=0.0)
        with pytest.raises(DegenerateChannelError) as one_pair:
            gsvd(sample_channel(cfg, 0))
        draws = []
        real_draw = experiments._draw

        def counted(config, substreams):
            draws.append(list(substreams))
            return real_draw(config, substreams)

        monkeypatch.setattr(experiments, "_draw", counted)
        with pytest.raises(DegenerateChannelError) as info:
            run_fraction_experiment(cfg)
        assert str(info.value) == f"trial 0: {one_pair.value}"
        assert str(one_pair.value).endswith("stacked rank 2, expected 4")
        assert draws == [[0, 1, 2, 3, 4]]

    def test_aggregates_are_built_on_each_access(self):
        result = run_fraction_experiment(fraction_config(trials=1))
        rows = result.aggregates
        assert rows == result.aggregates and rows is not result.aggregates
        assert [row.param for row in rows] == list(result.grid)
        assert all(row.se_uniform == 0.0 and row.se_optimal == 0.0
                   and row.trials == 1 for row in rows)
        assert [row.mean_uniform for row in rows] == result.uniform[0].tolist()
        assert {row.mean_optimal for row in rows} == {result.optimal[0, 0]}

    def test_curve_is_the_aggregate_mean(self):
        # At 100 trials the two summation orders of one across-trial mean
        # disagree in the last bits at most grid points; the curve and the
        # aggregate CSV must show the same mean.
        cfg = ExperimentConfig(n_t=5, n_r=5, n_e=4, budget=100.0,
                               trials=100, seed=1,
                               rho_grid=tuple(k / 100 for k in range(101)))
        result = run_fraction_experiment(cfg)
        assert np.array_equal(result.curve.rate_bits, result.mean_uniform)

    def test_thread_count_does_not_change_results(self):
        cfg = fraction_config(trials=6)
        serial = run_fraction_experiment(cfg, threads=1)
        parallel = run_fraction_experiment(cfg, threads=4)
        assert [vars(r) for r in serial.records] == [
            vars(r) for r in parallel.records
        ]


class TestAggregates:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_columns_are_numpy_mean_and_standard_error(self, data):
        # The reference is numpy's mean and std over the rows of the
        # contiguous (grid, trials) table, broadcast over the grid for the
        # budget-fixed optimum, with zero standard errors at one trial.
        trials = data.draw(st.integers(1, 300), label="trials")
        points = data.draw(st.integers(1, 12), label="points")
        rate = st.floats(min_value=0.0, max_value=1e6)
        uniform = data.draw(arrays(float, (trials, points), elements=rate))
        optimal = data.draw(arrays(float, (trials, 1), elements=rate))
        grid = np.arange(points, dtype=float)
        columns = experiments._aggregates(grid, uniform, optimal)
        for name, rates in (("uniform", uniform), ("optimal", optimal)):
            by_point = np.ascontiguousarray(rates.T)
            mean = by_point.mean(axis=1)
            se = (by_point.std(axis=1, ddof=1) / math.sqrt(trials)
                  if trials > 1 else np.zeros(mean.shape))
            for key, want in (("mean_", mean), ("se_", se)):
                got = columns[key + name]
                assert got.shape == grid.shape
                assert got.tobytes() == np.broadcast_to(
                    want, grid.shape).tobytes()
        if trials == 1:
            assert not columns["se_uniform"].any()
            assert not columns["se_optimal"].any()


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


def scalar_reference(cfg, mode):
    """Per-trial (uniform, optimal) rate arrays and (q, dim_s1, dim_s2)
    from the public scalar calls, each rate clamped with max(0, .).

    The fraction sweep's rates are also rebuilt from reference_uniform_p,
    which sums each set's a on its own, apart from the shared array code.
    """
    uniform, optimal, dims = [], [], []
    for t in range(cfg.trials):
        gains = subchannel_gains(gsvd(sample_channel(cfg, t)))
        partition = classify_subspaces(gains)
        dims.append((gains.q, partition.dim_s1, partition.dim_s2))
        if cfg.rho_grid is not None:
            uniform.append(fraction_sweep(gains, cfg.budget,
                                          cfg.rho_grid, mode).rate_bits)
            looped = [max(0.0, secrecy_rate(gains, PowerAllocation(
                p=reference_uniform_p(gains, partition, cfg.budget, rho,
                                      mode, True), mu=None, effective_power=0.0)))
                      for rho in cfg.rho_grid]
            assert np.array_equal(uniform[-1], looped)
            optimal.append(
                [max(0.0, secrecy_rate(gains, solve_mu(gains, cfg.budget)))])
            continue
        budgets = [10.0 ** (snr / 10.0) for snr in cfg.snr_db_grid]
        uniform.append([max(0.0, secrecy_rate(
            gains, uniform_secure_allocation(gains, b, mode))) for b in budgets])
        optimal.append([max(0.0, secrecy_rate(gains, solve_mu(gains, b)))
                        for b in budgets])
    return np.array(uniform), np.array(optimal), np.array(dims).T


SNR_GRID = (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0, 60.0)


class TestScalarReference:
    @pytest.mark.parametrize("campaign, shape, mode, extra", [
        ("fraction", (5, 5, 4), "transmit", {}),
        ("fraction", (8, 3, 2), "symbol", {}),
        ("fraction", (3, 2, 5), "transmit", {}),
        ("fraction", (4, 3, 4), "symbol", {}),
        ("fraction", (5, 5, 4), "symbol", {"sigma_e2": 0.0}),
        ("snr", (4, 4, 4), "transmit", {}),
        ("snr", (8, 3, 2), "symbol", {}),
        ("snr", (3, 2, 5), "transmit", {}),
        ("snr", (5, 5, 4), "transmit", {"sigma_e2": 0.0}),
        # q >= 8: symbol mode sums each trial's own subset of a, which a
        # masked row sum would regroup.
        ("fraction", (12, 4, 4), "symbol", {}),
        ("fraction", (16, 12, 8), "symbol", {}),
    ])
    def test_campaign_equals_scalar_calls(self, campaign, shape, mode, extra):
        n_t, n_r, n_e = shape
        grid = ({"budget": 10.0, "rho_grid": (0.0, 0.3, 0.5, 0.9, 1.0)}
                if campaign == "fraction" else {"snr_db_grid": SNR_GRID})
        cfg = ExperimentConfig(n_t=n_t, n_r=n_r, n_e=n_e, trials=12, seed=21,
                               **grid, **extra)
        self.check(cfg, mode)

    def test_snr_campaign_across_solve_chunks(self):
        trials = experiments._SOLVE_CHUNK // len(SNR_GRID) + 2
        cfg = ExperimentConfig(n_t=4, n_r=3, n_e=3, trials=trials, seed=22,
                               snr_db_grid=SNR_GRID)
        assert trials * len(SNR_GRID) > experiments._SOLVE_CHUNK
        self.check(cfg, "transmit")

    def test_fraction_campaign_across_trial_chunks(self):
        cfg = ExperimentConfig(n_t=4, n_r=3, n_e=2, budget=10.0,
                               rho_grid=(0.0, 0.5, 1.0), seed=24,
                               trials=experiments._TRIAL_CHUNK + 3)
        self.check(cfg, "symbol")

    @pytest.mark.parametrize("campaign", ["fraction", "snr"])
    @pytest.mark.parametrize("cells", [16, 2])
    def test_wide_grid_spans_trial_chunks(self, campaign, cells, monkeypatch):
        # 16 cells hold 3 trials of a 5-point rho grid or 2 of the 7-point
        # SNR grid; 2 cells hold fewer than a grid, so one trial a chunk.
        monkeypatch.setattr(experiments, "_CHUNK_CELLS", cells)
        grid = ({"budget": 10.0, "rho_grid": (0.0, 0.3, 0.5, 0.9, 1.0)}
                if campaign == "fraction" else {"snr_db_grid": SNR_GRID})
        cfg = ExperimentConfig(n_t=5, n_r=4, n_e=3, trials=7, seed=25, **grid)
        self.check(cfg, "transmit")

    @staticmethod
    def check(cfg, mode):
        run = run_fraction_experiment if cfg.rho_grid else run_snr_sweep
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = run(cfg, mode=mode)
        uniform, optimal, dims = scalar_reference(cfg, mode)
        assert np.array_equal(result.uniform, uniform)
        assert np.array_equal(result.optimal, optimal)
        assert np.array_equal([result.q, result.dim_s1, result.dim_s2], dims)
        # Aggregates equal the per-column numpy calls.
        optimal = np.broadcast_to(optimal, uniform.shape)
        for j, row in enumerate(result.aggregates):
            for rates, mean, se in ((uniform, row.mean_uniform, row.se_uniform),
                                    (optimal, row.mean_optimal, row.se_optimal)):
                column = np.array(rates[:, j])
                assert mean == float(column.mean())
                assert se == float(column.std(ddof=1) / math.sqrt(cfg.trials))
        if cfg.rho_grid is not None:
            TestScalarReference.check_stacked_powers(cfg, mode)

    @staticmethod
    def check_stacked_powers(cfg, mode):
        """The stacked sweep's powers, not only its rates, equal the looped
        reference: a last-bit change of p can vanish in the rate."""
        rank, c, d, a = _stacked_gains(
            experiments._draw(cfg, np.arange(cfg.trials)), cfg.n_r)
        assert np.all(rank == min(cfg.n_t, cfg.n_r + cfg.n_e))
        p = _uniform_powers(c, d, a, cfg.budget,
                            np.asarray(cfg.rho_grid), mode, True)
        for t in range(cfg.trials):
            gains = SubchannelGains(c=c[t], d=d[t], a=a[t])
            partition = classify_subspaces(gains)
            for row, rho in zip(p[t], cfg.rho_grid):
                assert np.array_equal(row, reference_uniform_p(
                    gains, partition, cfg.budget, rho, mode, True))


class TestChunkInvariance:
    """The chunk constants decide only how the engine batches its work:
    every split of the trials, grid cells and solve rows gives the one-pair
    bits, and a fault in a later chunk raises what that trial raises alone.
    """

    GRIDS = {"fraction": {"budget": 10.0,
                          "rho_grid": (0.0, 0.3, 0.5, 0.9, 1.0)},
             "snr": {"snr_db_grid": SNR_GRID}}
    CHUNKS = (st.integers(1, 5), st.integers(1, 40), st.integers(1, 8))

    @staticmethod
    @contextlib.contextmanager
    def chunked(trial_chunk, cells, solve_chunk):
        """The three chunk constants, patched until the context exits."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_TRIAL_CHUNK", trial_chunk)
            mp.setattr(experiments, "_CHUNK_CELLS", cells)
            mp.setattr(experiments, "_SOLVE_CHUNK", solve_chunk)
            yield mp

    @pytest.mark.parametrize("mode", ["transmit", "symbol"])
    @pytest.mark.parametrize("campaign", ["fraction", "snr"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(*CHUNKS, st.integers(2, 9))
    def test_every_split_gives_the_one_pair_bits(
            self, campaign, mode, trial_chunk, cells, solve_chunk, trials):
        cfg = ExperimentConfig(n_t=5, n_r=4, n_e=3, trials=trials, seed=26,
                               **self.GRIDS[campaign])
        with self.chunked(trial_chunk, cells, solve_chunk):
            TestScalarReference.check(cfg, mode)

    @pytest.mark.parametrize("fault, scale", [("degenerate", 0.0),
                                              ("unreachable", 1e150)])
    @pytest.mark.parametrize("campaign", ["fraction", "snr"])
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(*CHUNKS, st.integers(1, 4), st.integers(0, 3))
    def test_a_fault_in_a_later_chunk_raises_as_alone(
            self, campaign, fault, scale, trial_chunk, cells, solve_chunk,
            after, offset):
        # Budget 1e30 is reachable on a unit-variance draw. A draw scaled
        # by 1e150 has column powers near 1e-300, and no representable
        # multiplier radiates 1e30 on them; a zero draw has rank 0.
        grid = ({"budget": 1e30, "rho_grid": (0.0, 1.0)}
                if campaign == "fraction" else {"snr_db_grid": (0.0, 300.0)})
        # Both grids have two points, so a chunk holds this many trials.
        chunk = max(1, min(trial_chunk, cells // 2))
        bad = chunk + offset % after
        cfg = ExperimentConfig(n_t=4, n_r=3, n_e=2, trials=chunk + after,
                               seed=27, **grid)
        real_draw = experiments._draw

        def planted(config, trials):
            h = real_draw(config, trials)
            h[np.asarray(trials) == bad] *= scale
            return h

        h = planted(cfg, [bad])[0]
        with pytest.raises(ValueError) as alone:
            gains = subchannel_gains(gsvd(ChannelPair(hr=h[:3], he=h[3:])))
            solve_mu(gains, 1e30)
        expected = (f"trial {bad}: {alone.value}" if fault == "degenerate"
                    else str(alone.value))
        assert type(alone.value) is (DegenerateChannelError
                                     if fault == "degenerate" else ValueError)
        run = run_fraction_experiment if campaign == "fraction" else run_snr_sweep
        with self.chunked(trial_chunk, cells, solve_chunk) as mp:
            mp.setattr(experiments, "_draw", planted)
            with pytest.raises(type(alone.value)) as info:
                run(cfg)
        assert type(info.value) is type(alone.value)
        assert str(info.value) == expected


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

    def test_rewrite_with_shorter_content_leaves_only_the_new_bytes(
            self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_bytes(b"x" * 10000)
        write_csv(self.records(), path, param_column="rho")
        fresh = tmp_path / "fresh.csv"
        write_csv(self.records(), fresh, param_column="rho")
        assert path.read_bytes() == fresh.read_bytes()

    def test_chunks_that_raise_leave_only_what_was_written(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_bytes(b"old bytes " * 1000)

        def chunks():
            yield "first\n"
            raise KeyError("chunk 2")

        with pytest.raises(KeyError, match="chunk 2"):
            experiments._write_chunks(path, chunks())
        assert path.read_bytes() == b"first\n"

    @pytest.mark.skipif(sys.platform == "win32",
                        reason="symlinks need privileges on Windows")
    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"y" * 5000)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        write_csv(self.records(), link, param_column="rho")
        assert link.is_symlink()
        assert read_trial_csv(target) == self.records()

    @pytest.mark.skipif(sys.platform == "win32",
                        reason="POSIX permission bits")
    def test_existing_file_keeps_its_permission_bits(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_bytes(b"z" * 5000)
        path.chmod(0o640)
        inode = path.stat().st_ino
        write_csv(self.records(), path, param_column="rho")
        assert path.stat().st_mode & 0o777 == 0o640
        assert path.stat().st_ino == inode
        assert read_trial_csv(path) == self.records()

    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX FIFOs")
    def test_fifo_reader_receives_the_whole_file(self, tmp_path):
        # A pipe takes the bytes and cannot be truncated.
        fifo = tmp_path / "trials.fifo"
        os.mkfifo(fifo)
        received = []
        # A daemon, so a writer that fails before it opens the FIFO leaves
        # the reader blocked in its open without holding up the run.
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            write_csv(self.records(), fifo, param_column="rho")
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        fresh = tmp_path / "fresh.csv"
        write_csv(self.records(), fresh, param_column="rho")
        assert received == [fresh.read_bytes()]

    def test_new_file_is_created(self, tmp_path):
        path = tmp_path / "new.csv"
        write_csv(self.records(), path, param_column="rho")
        assert read_trial_csv(path) == self.records()
        # With the permission bits open(path, "w") gives under this umask.
        plain = tmp_path / "plain.csv"
        plain.write_text("")
        assert path.stat().st_mode == plain.stat().st_mode

    def test_unwritable_path_names_the_path(self, tmp_path):
        with pytest.raises(OSError, match=f"^cannot write {re.escape(str(tmp_path))}"):
            write_csv(self.records(), tmp_path, param_column="rho")

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

    @pytest.mark.parametrize("cfg", [
        fraction_config(trials=3),
        ExperimentConfig(n_t=4, n_r=4, n_e=4, trials=3, seed=9,
                         snr_db_grid=(0.0, 10.0, 20.0)),
        # 300 trials: past _TRIAL_CHUNK, so the rows come from two chunks.
        pytest.param(fraction_config(trials=300), id="fraction-300-trials"),
        pytest.param(ExperimentConfig(n_t=4, n_r=4, n_e=4, trials=300, seed=9,
                                      snr_db_grid=(0.0, 10.0, 20.0)),
                     id="snr-300-trials")])
    def test_campaign_writer_matches_record_writer(self, cfg, tmp_path):
        run = run_fraction_experiment if cfg.rho_grid else run_snr_sweep
        result = run(cfg)
        column = "rho" if cfg.rho_grid else "snr_db"
        write_csv(result.records, tmp_path / "records.csv", column)
        experiments.write_campaign_csv(result, tmp_path / "columns.csv", column)
        data = (tmp_path / "columns.csv").read_bytes()
        assert data == (tmp_path / "records.csv").read_bytes()
        assert data.count(b"\n") == 1 + cfg.trials * len(result.grid)

    def test_campaign_writer_streams_one_trial_at_a_time(self, tmp_path):
        # Converting every trial's rates up front holds about 4.6 MB for
        # this 5.4 MB file; one trial at a time stays near 0.5 MB.
        cfg = ExperimentConfig(n_t=4, n_r=3, n_e=2, budget=10.0, trials=64,
                               seed=1,
                               rho_grid=tuple(k / 2000 for k in range(2001)))
        result = run_fraction_experiment(cfg)
        path = tmp_path / "trials.csv"
        tracemalloc.start()
        try:
            experiments.write_campaign_csv(result, path, "rho")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4

    @settings(max_examples=500)
    @given(st.floats())
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072014e-308)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    @example(1e300)
    @example(2.0**60)
    def test_template_rule_is_the_format_rule(self, x):
        # The writers format floats with "%.12g" % x, the bytes of
        # format(float(x), ".12g"), and never write a "%".
        assert "%.12g" % x == format(float(x), ".12g")
        assert "%" not in "%.12g" % x

    def test_numpy_integers_and_integral_floats_keep_their_bytes(
            self, tmp_path):
        path = tmp_path / "trials.csv"
        write_csv([TrialRecord(trial=np.int64(3), parameter=20.0,
                               uniform_rate=np.float64(0.1),
                               optimal_rate=1e-320, q=np.int64(5),
                               dim_s1=np.int64(1), dim_s2=np.int64(4)),
                   TrialRecord(trial=4, parameter=-0.0, uniform_rate=2.0**60,
                               optimal_rate=math.inf, q=5, dim_s1=0,
                               dim_s2=np.int32(5))],
                  path, param_column="snr_db")
        assert path.read_text(encoding="utf-8").splitlines()[1:] == [
            "3,20,0.1,9.99988867183e-321,5,1,4",
            "4,-0,1.15292150461e+18,inf,5,0,5"]

    def test_read_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trial,rho\n0,0.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.csv"):
            read_trial_csv(path)
        # A non-numeric field and a one-column header are reported with the
        # path, as a missing column is; an empty file keeps its own message.
        header = "trial,rho,uniform_rate_bits,optimal_rate_bits,q,dim_s1,dim_s2"
        path.write_text(header + "\n0,0.5,abc,1.0,5,1,4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.csv: malformed trial CSV: "
                                             ".*'abc'"):
            read_trial_csv(path)
        path.write_text("trial\n0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.csv: malformed trial CSV"):
            read_trial_csv(path)
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.csv: empty CSV$"):
            read_trial_csv(path)

    def test_read_missing(self, tmp_path):
        with pytest.raises(OSError, match="absent"):
            read_trial_csv(tmp_path / "absent.csv")


class TestConfigIo:
    def test_round_trip(self, tmp_path):
        cfg = fraction_config()
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        back = load_config(path)
        assert back == cfg
        assert type(back.rho_grid) is tuple and back.snr_db_grid is None

    def test_round_trip_with_snr_grid(self, tmp_path):
        cfg = ExperimentConfig(n_t=4, n_r=4, n_e=4, trials=3, seed=1,
                               snr_db_grid=(0.0, 10.0))
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        back = load_config(path)
        assert back == cfg
        assert type(back.snr_db_grid) is tuple and back.rho_grid is None

    @pytest.mark.parametrize("text, reason", [
        ('{"n_t": 4, "n_r": 4, "n_e": 4, "gamma": 1}', "unknown config fields"),
        ("[4, 4, 4]", "config must be a JSON object"),
        ("{", "not valid JSON"),
        ('{"n_r": 4, "n_e": 4}', "bad config: .*n_t"),
        ('{"n_t": 4, "n_r": 4, "n_e": 4, "trials": 2.5}',
         "bad config: trials must be an integer"),
        ('{"n_t": 4, "n_r": 4, "n_e": 4, "rho_grid": "abc"}',
         "bad config: rho_grid must be a sequence of numbers, not str 'abc'"),
        ('{"n_t": 4, "n_r": 4, "n_e": 4, "rho_grid": "01"}',
         "bad config: rho_grid must be a sequence of numbers, not str '01'"),
    ], ids=["unknown-field", "not-an-object", "invalid-json", "missing-n_t",
            "fractional-trials", "string-grid", "numeric-string-grid"])
    def test_rejection_names_the_path(self, text, reason, tmp_path):
        path = tmp_path / "named.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {reason}"):
            load_config(path)

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

    @pytest.mark.parametrize("field, text", [
        ("sigma_r2", "NaN"), ("sigma_e2", "Infinity"), ("budget", "1e999"),
        ("snr_db_grid", "[0, 4000]")])
    def test_nonfinite_values_rejected(self, field, text, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"n_t": 4, "n_r": 4, "n_e": 4, "{field}": {text}}}',
                        encoding="utf-8")
        with pytest.raises(ValueError, match=field):
            load_config(path)

    @pytest.mark.parametrize("field, text", [
        ("sigma_r2", "true"), ("sigma_e2", "false"), ("budget", "true"),
        ("rho_grid", "[false, true]"), ("snr_db_grid", "[0, true]")])
    def test_booleans_rejected(self, field, text, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"n_t": 3, "n_r": 2, "n_e": 2, "{field}": {text}}}',
                        encoding="utf-8")
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: bad config: {field} ")):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON"):
            load_config(path)
