"""Unit tests for the closed-form power allocation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsvdcap import (
    PowerAllocation,
    SubchannelGains,
    gsvd,
    input_covariance,
    largest_root,
    power_for_mu,
    solve_mu,
)

from conftest import random_pair

# Reference values computed with an independent high-precision bisection on
# the marginal-rate function before the closed form existed.
ROOT_08_02 = 0.1939795118379382
BUDGET_FOR_HALF_MU = 0.19397951183793835


def single_gain(c=0.8, a=1.0):
    return SubchannelGains(c=[c], d=[1.0 - c], a=[a])


class TestPowerAllocation:
    def test_fields(self):
        alloc = PowerAllocation(p=[1.0, 0.0], mu=0.5, effective_power=2.0)
        assert alloc.p.shape == (2,)
        assert alloc.mu == 0.5

    def test_uniform_style_allocation_allows_no_multiplier(self):
        alloc = PowerAllocation(p=[1.0], mu=None, effective_power=1.0)
        assert alloc.mu is None

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            PowerAllocation(p=[-1e-3], mu=1.0, effective_power=0.0)

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError):
            PowerAllocation(p=[1.0], mu=0.0, effective_power=1.0)


class TestLargestRoot:
    def test_reference_instance(self):
        assert largest_root(0.8, 0.2, 1.0, 0.5) == pytest.approx(
            ROOT_08_02, abs=1e-13
        )

    def test_zero_eavesdropper_reduces_to_water_filling(self):
        # With d = 0 the root is the classical water level 1/(mu*a) - 1.
        for mu, a in [(0.1, 1.0), (0.5, 2.0), (0.05, 0.3)]:
            assert largest_root(1.0, 0.0, a, mu) == pytest.approx(
                1.0 / (mu * a) - 1.0, rel=1e-14
            )

    def test_negative_root_when_marginal_negative_at_origin(self):
        # mu above the origin slope (c - d)/a puts the stationary point at
        # negative power; the raw root is reported and callers clamp it.
        assert largest_root(0.8, 0.2, 1.0, 0.7) < 0.0

    def test_rejects_insecure_pair(self):
        with pytest.raises(ValueError):
            largest_root(0.3, 0.7, 1.0, 0.1)

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            largest_root(0.8, 0.2, 1.0, 0.0)

    def test_rejects_unnormalized_pair(self):
        with pytest.raises(ValueError):
            largest_root(0.8, 0.3, 1.0, 0.1)

    @settings(max_examples=80, derandomize=True)
    @given(
        c=st.floats(min_value=0.5005, max_value=0.999),
        a=st.floats(min_value=0.05, max_value=20.0),
        frac=st.floats(min_value=1e-5, max_value=1.0 - 1e-9),
    )
    def test_root_satisfies_stationarity(self, c, a, frac):
        # Any mu below the origin slope must give a strictly positive root
        # where the marginal rate per radiated watt equals mu exactly.
        d = 1.0 - c
        mu = frac * (c - d) / a
        x = largest_root(c, d, a, mu)
        assert x > 0
        marginal = (c / (1.0 + x * c) - d / (1.0 + x * d)) / a
        assert marginal == pytest.approx(mu, rel=1e-7)


class TestPowerForMu:
    def test_insecure_channels_get_zero(self):
        gains = SubchannelGains(c=[0.2, 0.8], d=[0.8, 0.2], a=[1.0, 1.0])
        alloc = power_for_mu(gains, 0.5)
        assert alloc.p[0] == 0.0
        assert alloc.p[1] == pytest.approx(ROOT_08_02, abs=1e-13)

    def test_clamps_negative_roots(self):
        gains = SubchannelGains(c=[0.8], d=[0.2], a=[1.0])
        alloc = power_for_mu(gains, 0.7)
        assert alloc.p[0] == 0.0
        assert alloc.effective_power == 0.0

    def test_monotone_in_mu(self):
        gains = SubchannelGains(
            c=[0.6, 0.8, 0.95], d=[0.4, 0.2, 0.05], a=[1.0, 0.5, 2.0]
        )
        grid = np.logspace(-3, 0.5, 50)
        prev = None
        for mu in grid:
            alloc = power_for_mu(gains, mu)
            if prev is not None:
                assert np.all(alloc.p <= prev + 1e-12)
            prev = alloc.p


class TestSolveMu:
    def test_budget_met(self):
        gains = SubchannelGains(
            c=[0.6, 0.8, 0.95], d=[0.4, 0.2, 0.05], a=[1.0, 0.5, 2.0]
        )
        for budget in (0.1, 1.0, 10.0, 100.0):
            alloc = solve_mu(gains, budget)
            assert alloc.effective_power == pytest.approx(budget, rel=1e-9)
            assert float(gains.a @ alloc.p) == pytest.approx(budget, rel=1e-9)

    def test_reference_multiplier(self):
        alloc = solve_mu(single_gain(), BUDGET_FOR_HALF_MU)
        assert alloc.mu == pytest.approx(0.5, abs=1e-9)
        assert alloc.p[0] == pytest.approx(ROOT_08_02, abs=1e-10)

    def test_no_secure_channel_gives_silence(self):
        gains = SubchannelGains(c=[0.2, 0.5], d=[0.8, 0.5], a=[1.0, 1.0])
        alloc = solve_mu(gains, 10.0)
        assert np.array_equal(alloc.p, np.zeros(2))
        assert alloc.effective_power == 0.0
        assert alloc.mu == 1.0

    def test_rate_monotone_in_budget(self):
        from gsvdcap import secrecy_rate

        gains = SubchannelGains(
            c=[0.55, 0.7, 0.9], d=[0.45, 0.3, 0.1], a=[2.0, 1.0, 0.25]
        )
        rates = [
            secrecy_rate(gains, solve_mu(gains, b))
            for b in np.logspace(-1, 3, 40)
        ]
        assert np.all(np.diff(rates) >= -1e-12)

    def test_tiny_budget(self):
        alloc = solve_mu(single_gain(), 1e-9)
        assert alloc.effective_power == pytest.approx(1e-9, rel=1e-5)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            solve_mu(single_gain(), 0.0)

    def test_insecure_entries_stay_silent(self):
        gains = SubchannelGains(
            c=[0.1, 0.4, 0.9], d=[0.9, 0.6, 0.1], a=[1.0, 1.0, 1.0]
        )
        alloc = solve_mu(gains, 50.0)
        assert alloc.p[0] == 0.0 and alloc.p[1] == 0.0
        assert alloc.p[2] > 0


class TestInputCovariance:
    def test_trace_matches_effective_power(self):
        pair = random_pair(5, 5, 4, seed=61)
        factors = gsvd(pair)
        from gsvdcap import subchannel_gains

        gains = subchannel_gains(factors)
        alloc = solve_mu(gains, 10.0)
        qx = input_covariance(factors, alloc)
        assert qx.shape == (5, 5)
        assert np.linalg.norm(qx - qx.conj().T) <= 1e-12 * max(
            1.0, np.linalg.norm(qx)
        )
        assert np.trace(qx).real == pytest.approx(alloc.effective_power, rel=1e-9)
        eigs = np.linalg.eigvalsh(qx)
        assert np.all(eigs >= -1e-10 * max(1.0, eigs.max()))

    def test_length_mismatch_rejected(self):
        factors = gsvd(random_pair(4, 3, 3, seed=62))
        alloc = PowerAllocation(p=[1.0], mu=1.0, effective_power=1.0)
        with pytest.raises(ValueError):
            input_covariance(factors, alloc)
