"""Unit tests for the brute-force oracle and the optimality checker."""

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from gsvdcap import (
    PowerAllocation,
    SubchannelGains,
    grid_maximize,
    gsvd,
    kkt_check,
    random_gains,
    secrecy_rate,
    solve_mu,
    subchannel_gains,
)

from conftest import random_pair


class TestGridMaximize:
    def test_single_secure_channel_takes_whole_budget(self):
        gains = SubchannelGains(c=[0.8], d=[0.2], a=[2.0])
        alloc, rate = grid_maximize(gains, budget=10.0, resolution=200)
        assert alloc.effective_power == pytest.approx(10.0, rel=1e-9)
        assert rate == pytest.approx(secrecy_rate(gains, alloc), abs=1e-12)

    def test_all_insecure_silent(self):
        gains = SubchannelGains(c=[0.2, 0.5], d=[0.8, 0.5], a=[1.0, 1.0])
        alloc, rate = grid_maximize(gains, budget=5.0, resolution=60)
        assert rate == pytest.approx(0.0, abs=1e-15)
        assert np.all(alloc.p <= 1e-12)

    def test_no_subchannel_is_silent(self):
        gains = SubchannelGains(c=[], d=[], a=[])
        alloc, rate = grid_maximize(gains, budget=5.0, resolution=60)
        assert alloc.p.shape == (0,) and alloc.mu is None
        assert alloc.effective_power == 0.0 and rate == 0.0
        assert type(rate) is float
        # The argument checks still come first.
        with pytest.raises(ValueError, match="resolution"):
            grid_maximize(gains, budget=5.0, resolution=10)
        with pytest.raises(ValueError, match="budget"):
            grid_maximize(gains, budget=0.0, resolution=60)

    def test_matches_closed_form(self):
        worst = 0.0
        for trial in range(8):
            gains = random_gains(3, seed=91, trial=trial)
            alloc = solve_mu(gains, 10.0)
            closed = secrecy_rate(gains, alloc)
            _, grid_rate = grid_maximize(gains, 10.0, resolution=60)
            assert closed >= grid_rate - 1e-9
            worst = max(worst, abs(closed - grid_rate))
        assert worst <= 1e-3

    def test_deterministic(self):
        gains = random_gains(3, seed=92)
        a1, r1 = grid_maximize(gains, 10.0, resolution=60)
        a2, r2 = grid_maximize(gains, 10.0, resolution=60)
        assert np.array_equal(a1.p, a2.p)
        assert r1 == r2

    def test_budget_respected(self):
        gains = random_gains(2, seed=93)
        alloc, _ = grid_maximize(gains, 1.0, resolution=80)
        assert alloc.effective_power <= 1.0 * (1.0 + 1e-9)

    def test_refuses_large_q(self):
        gains = random_gains(5, seed=94)
        with pytest.raises(ValueError, match="q <= 4"):
            grid_maximize(gains, 1.0)

    def test_refuses_coarse_resolution(self):
        gains = random_gains(2, seed=95)
        with pytest.raises(ValueError, match="resolution"):
            grid_maximize(gains, 1.0, resolution=10)

    def test_refuses_bad_budget(self):
        gains = random_gains(2, seed=96)
        for budget in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="budget"):
                grid_maximize(gains, budget)

    def test_refuses_a_budget_whose_axis_overflows(self):
        # budget / a = 1e310 is not a float; the grid would be inf and NaN.
        gains = SubchannelGains(c=[0.8], d=[0.2], a=[1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="budget 1e\\+10 is too large"):
                grid_maximize(gains, 1e10, resolution=50)

    def test_oracle_has_no_multiplier(self):
        gains = random_gains(2, seed=97)
        alloc, _ = grid_maximize(gains, 2.0, resolution=60)
        assert alloc.mu is None

    def test_outputs_are_pinned(self):
        # p, rate and effective power for q = 1 to 4 and an all-insecure
        # q = 1 pair, at three budgets, hashed byte for byte.
        cases = [random_gains(q, seed=7) for q in (1, 2, 3, 4)]
        cases.append(SubchannelGains(c=[0.3], d=[0.7], a=[1.5]))
        digest = hashlib.sha256()
        for gains in cases:
            for budget in (0.1, 10.0, 1000.0):
                alloc, rate = grid_maximize(gains, budget, resolution=60)
                digest.update(alloc.p.tobytes())
                digest.update(np.float64(rate).tobytes())
                digest.update(np.float64(alloc.effective_power).tobytes())
        assert digest.hexdigest() == (
            "b66d76b174609221b5120b8e1202a0f0645be1bac58a6fb0b532871ee27e1d6f")


class TestKktCheck:
    def test_closed_form_passes_on_synthetic_instances(self):
        for trial in range(10):
            for budget in (1.0, 10.0, 100.0):
                gains = random_gains(1 + trial % 5, seed=101, trial=trial)
                alloc = solve_mu(gains, budget)
                report = kkt_check(gains, alloc, budget)
                assert report.passed(1e-6), (trial, budget, vars(report))

    def test_closed_form_passes_on_channel_instances(self):
        for k, shape in enumerate([(5, 5, 4), (6, 3, 3), (4, 4, 4)]):
            gains = subchannel_gains(gsvd(random_pair(*shape, seed=110 + k)))
            alloc = solve_mu(gains, 10.0)
            assert kkt_check(gains, alloc, 10.0).passed(1e-6)

    def test_moved_power_fails(self):
        # Shift budget from an active secure channel onto an insecure one.
        gains = SubchannelGains(
            c=[0.9, 0.1], d=[0.1, 0.9], a=[1.0, 1.0]
        )
        good = solve_mu(gains, 4.0)
        assert kkt_check(gains, good, 4.0).passed(1e-6)
        bad = PowerAllocation(
            p=[good.p[0] - 1.0, 1.0], mu=good.mu, effective_power=4.0
        )
        report = kkt_check(gains, bad, 4.0)
        assert not report.passed(1e-6)
        assert not report.insecure_zero

    def test_rescaled_power_fails_stationarity(self):
        gains = random_gains(3, seed=112)
        alloc = solve_mu(gains, 10.0)
        bad = PowerAllocation(
            p=alloc.p * 1.05, mu=alloc.mu,
            effective_power=alloc.effective_power * 1.05,
        )
        report = kkt_check(gains, bad, 10.0)
        assert not report.passed(1e-6)

    def test_silence_with_secure_channels_fails_budget(self):
        gains = SubchannelGains(c=[0.8], d=[0.2], a=[1.0])
        silent = PowerAllocation(p=[0.0], mu=0.8, effective_power=0.0)
        report = kkt_check(gains, silent, 5.0)
        assert report.budget_dev > 1e-6
        assert not report.passed(1e-6)

    def test_silence_without_secure_channels_passes(self):
        gains = SubchannelGains(c=[0.2], d=[0.8], a=[1.0])
        alloc = solve_mu(gains, 5.0)
        assert kkt_check(gains, alloc, 5.0).passed(1e-6)

    def test_requires_multiplier(self):
        gains = SubchannelGains(c=[0.8], d=[0.2], a=[1.0])
        alloc = PowerAllocation(p=[1.0], mu=None, effective_power=1.0)
        with pytest.raises(ValueError, match="multiplier"):
            kkt_check(gains, alloc, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_refuses_wrong_length(self, n):
        # The same length rule as secrecy_rate, named in the message.
        gains = random_gains(3, seed=113)
        alloc = PowerAllocation(p=np.ones(n), mu=1.0, effective_power=1.0)
        with pytest.raises(ValueError,
                           match=f"^allocation has {n} powers, gains have 3$"):
            kkt_check(gains, alloc, 1.0)

    def test_requires_positive_budget(self):
        gains = SubchannelGains(c=[0.8], d=[0.2], a=[1.0])
        alloc = solve_mu(gains, 1.0)
        for budget in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="budget"):
                kkt_check(gains, alloc, budget)


class TestRandomGains:
    def test_deterministic(self):
        g1 = random_gains(4, seed=7, trial=3)
        g2 = random_gains(4, seed=7, trial=3)
        assert np.array_equal(g1.c, g2.c)
        assert np.array_equal(g1.a, g2.a)

    def test_trials_differ(self):
        g1 = random_gains(4, seed=7, trial=0)
        g2 = random_gains(4, seed=7, trial=1)
        assert not np.array_equal(g1.c, g2.c)

    def test_valid_gain_tuples(self):
        g = random_gains(6, seed=8)
        assert np.all(g.c > 0) and np.all(g.c < 1)
        assert np.array_equal(g.c + g.d, np.ones(6))
        assert np.all(g.a >= 0.2) and np.all(g.a <= 5.0)

    @pytest.mark.parametrize("q", [1, 3, 4, 9])
    @pytest.mark.parametrize("seed", [0, 5, 2**63])
    @pytest.mark.parametrize("trial", [0, 1, 77])
    def test_draws_from_its_own_philox_key(self, q, seed, trial):
        # Stream 2 of the (seed, trial) key layout the channel draws use.
        gen = np.random.Generator(
            np.random.Philox(key=(seed << 64) | (trial << 8) | 2))
        c = np.sort(0.02 + 0.96 * gen.random(q))
        a = np.exp(gen.random(q) * math.log(25.0)) * 0.2
        g = random_gains(q, seed=seed, trial=trial)
        assert np.array_equal(g.c, c)
        assert np.array_equal(g.d, 1.0 - c)
        assert np.array_equal(g.a, a)

    @pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (2**64, 0)])
    def test_rejects_a_key_philox_rejects(self, seed, trial):
        # The seed and trial ranges keep every key below Philox's 2**128.
        bound = ("seed .* 2\\*\\*64 - 1" if trial == 0
                 else "trial .* 2\\*\\*56 - 1")
        with pytest.raises(ValueError, match=bound):
            random_gains(2, seed=seed, trial=trial)

    def test_last_trial_below_the_key_limit_draws(self):
        g = random_gains(3, seed=0, trial=2**56 - 1)
        assert g.q == 3

    @pytest.mark.parametrize("q, seed, trial, digest", [
        (1, 0, 0,
         "362502ea3723745697f51b6889e33c101db29ffdccd78a82a59b226ebff20c0a"),
        (1, 0, 2**56 - 1,
         "7815d38650744d579516494a2b3a6af953bdb9e75b333b93821486932f0cf0e2"),
        (1, 2**64 - 1, 0,
         "9ddb4fe3a6ff22064e15e6e900c7e6e0f208ea4d667b1e0f3bf80aec7683f4d4"),
        (1, 2**64 - 1, 2**56 - 1,
         "61001001f6c52357e7fc88205f6e79f3e9a79411365cf92c00023cd11f4e831b"),
        (4, 0, 0,
         "45fbc702170bd788f203b0c374d1155f6a5fb4f5128d43064f9a052331b2e25f"),
        (4, 0, 2**56 - 1,
         "d00f80b43ed5ebdf0c467d5ac43d879317689e6776b135cc6530f978bfe6a7d4"),
        (4, 2**64 - 1, 0,
         "4578e3b71ab22bcfe2d863a53e2ada049cb3e6fcd32368753d694db92c5af19f"),
        (4, 2**64 - 1, 2**56 - 1,
         "310eb9dee8c864ab3fc838cbd94dfb264beac3130e3ff7842e31737938870015"),
        (16, 0, 0,
         "c9097f046dec2166640a17cf4e23fa97214f7da00df285a0a4bbba018174b910"),
        (16, 0, 2**56 - 1,
         "baaf5e4e83f79fa9b6b989f956fbd4598fef3f6a36a637996c98ffb3d8dd3bfe"),
        (16, 2**64 - 1, 0,
         "24776539ae3f95003f481c81ba15eda987a42704bb1d820e807e153c5a19096e"),
        (16, 2**64 - 1, 2**56 - 1,
         "729b88185b6619e0e2bd527dd828353d4d70726b589829838edd504f4330447f"),
    ])
    def test_draws_are_pinned(self, q, seed, trial, digest):
        # The bytes of c, d and a at both ends of the seed and trial
        # ranges: random_gains shares the channel draws' generator, so a
        # sampler change that moves these shows here.
        g = random_gains(q, seed=seed, trial=trial)
        data = g.c.tobytes() + g.d.tobytes() + g.a.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("trial", [2**56, 2**120])
    def test_rejects_a_trial_that_would_spill_into_the_seed(self, trial):
        with pytest.raises(ValueError, match="2\\*\\*56"):
            random_gains(2, seed=0, trial=trial)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_gains(0, seed=1)
