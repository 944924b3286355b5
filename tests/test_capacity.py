"""Unit tests for rate evaluation and the uniform baselines."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gsvdcap import (
    PowerAllocation,
    RateCurve,
    SubchannelGains,
    classify_subspaces,
    fraction_sweep,
    gsvd,
    input_covariance,
    matrix_rate,
    secrecy_rate,
    solve_mu,
    subchannel_gains,
    uniform_allocation,
    uniform_secure_allocation,
)

from gsvdcap.capacity import _subset_sums

from conftest import (gains_st, pair_from_arrays, random_pair,
                      reference_uniform_p)

RATE_AT_REFERENCE_POWER = 0.15322472820876368


def mixed_gains():
    return SubchannelGains(
        c=[0.0, 0.3, 0.8, 1.0],
        d=[1.0, 0.7, 0.2, 0.0],
        a=[1.0, 2.0, 0.5, 1.5],
    )


class TestSecrecyRate:
    def test_reference_single_channel(self):
        # Reference value frozen from an independent evaluation at the
        # four-decimal power level 0.1940.
        gains = SubchannelGains(c=[0.8], d=[0.2], a=[1.0])
        alloc = PowerAllocation(p=[0.1940], mu=0.5, effective_power=0.1940)
        assert secrecy_rate(gains, alloc) == pytest.approx(
            RATE_AT_REFERENCE_POWER, abs=1e-15
        )

    def test_zero_allocation_zero_rate(self):
        alloc = PowerAllocation(p=np.zeros(4), mu=1.0, effective_power=0.0)
        assert secrecy_rate(mixed_gains(), alloc) == 0.0

    def test_signed_for_arbitrary_allocations(self):
        # Power on an insecure direction drives the sum negative; the rate
        # function reports it raw.
        gains = SubchannelGains(c=[0.2], d=[0.8], a=[1.0])
        alloc = PowerAllocation(p=[5.0], mu=None, effective_power=5.0)
        assert secrecy_rate(gains, alloc) < 0

    def test_length_mismatch(self):
        alloc = PowerAllocation(p=[1.0], mu=None, effective_power=1.0)
        with pytest.raises(ValueError):
            secrecy_rate(mixed_gains(), alloc)


class TestMatrixRate:
    def test_agrees_with_diagonal_form(self):
        pair = random_pair(5, 5, 4, seed=71)
        factors = gsvd(pair)
        gains = subchannel_gains(factors)
        alloc = solve_mu(gains, 100.0)
        diag = secrecy_rate(gains, alloc)
        full = matrix_rate(pair, input_covariance(factors, alloc))
        assert full == pytest.approx(diag, abs=1e-10)

    def test_rejects_wrong_shape(self):
        pair = random_pair(3, 2, 2, seed=72)
        with pytest.raises(ValueError, match="3 x 3"):
            matrix_rate(pair, np.eye(2))

    def test_rejects_non_hermitian(self):
        pair = random_pair(3, 2, 2, seed=73)
        qx = np.eye(3, dtype=np.complex128)
        qx[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            matrix_rate(pair, qx)

    def test_zero_covariance_zero_rate(self):
        pair = random_pair(3, 2, 2, seed=74)
        assert matrix_rate(pair, np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("qx, reason", [
        (-0.5 * np.eye(3), "positive semidefinite"),
        (np.diag([5.0, -0.2, 1.0]), "positive semidefinite"),
        (np.full((3, 3), np.nan), "finite"),
        (np.full((3, 3), np.inf), "finite"),
    ], ids=["negative", "one-negative-eigenvalue", "nan", "inf"])
    def test_rejects_non_psd_and_non_finite(self, qx, reason):
        pair = pair_from_arrays(np.eye(3), 0.5 * np.eye(3)[:2])
        with pytest.raises(ValueError, match=reason):
            matrix_rate(pair, qx)

    def test_accepts_roundoff_below_psd_tol(self):
        pair = pair_from_arrays(np.eye(3), 0.5 * np.eye(3)[:2])
        qx = np.diag([2.0, 1.0, -1e-12])
        assert matrix_rate(pair, qx) == pytest.approx(
            math.log2(3.0 * 2.0 / (1.25 * 1.5)), abs=1e-10)


class TestClassifySubspaces:
    def test_mixed_instance(self):
        part = classify_subspaces(mixed_gains())
        assert np.array_equal(part.excluded, [0])
        assert np.array_equal(part.s2, [1, 2])
        assert np.array_equal(part.s1, [3])
        assert part.dim_s1 == 1 and part.dim_s2 == 2

    def test_partition_covers_everything(self):
        pair = random_pair(8, 3, 3, seed=75)
        gains = subchannel_gains(gsvd(pair))
        part = classify_subspaces(gains)
        merged = np.sort(np.concatenate([part.s1, part.s2, part.excluded]))
        assert np.array_equal(merged, np.arange(gains.q))

    def test_generic_dims(self):
        # Generic draws put max(0, n_t - n_e) directions in the
        # eavesdropper's nullspace and hide max(0, q - n_r) from the
        # receiver entirely.
        for n_t, n_r, n_e, seed in [(5, 5, 4, 76), (6, 3, 3, 77), (3, 2, 5, 78)]:
            gains = subchannel_gains(gsvd(random_pair(n_t, n_r, n_e, seed=seed)))
            part = classify_subspaces(gains)
            q = gains.q
            assert part.dim_s1 == max(0, q - n_e)
            assert part.excluded.size == max(0, q - n_r)
            assert part.dim_s1 + part.dim_s2 + part.excluded.size == q


class TestUniformAllocation:
    def test_all_power_to_nullspace_at_rho_zero(self):
        gains = mixed_gains()
        part = classify_subspaces(gains)
        alloc = uniform_allocation(gains, part, budget=10.0, rho=0.0)
        assert alloc.p[3] == pytest.approx(10.0 / 1.5)
        assert np.all(alloc.p[:3] == 0.0)
        # The eavesdropper hears nothing, so the rate is pure receiver log
        # of the symbol power 10/1.5 on the one nullspace direction.
        assert secrecy_rate(gains, alloc) == pytest.approx(
            math.log2(1.0 + 10.0 / 1.5)
        )

    def test_rho_one_spreads_over_s2(self):
        gains = mixed_gains()
        part = classify_subspaces(gains)
        alloc = uniform_allocation(gains, part, budget=6.0, rho=1.0)
        # transmit mode: equal radiated power per S2 direction.
        assert gains.a[1] * alloc.p[1] == pytest.approx(3.0)
        assert gains.a[2] * alloc.p[2] == pytest.approx(3.0)
        assert alloc.effective_power == pytest.approx(6.0)

    def test_secure_only_narrows_s2(self):
        gains = mixed_gains()
        part = classify_subspaces(gains)
        alloc = uniform_allocation(
            gains, part, budget=6.0, rho=1.0, secure_only=True
        )
        # Index 1 is insecure (c < d); only index 2 is a secure S2 member.
        assert alloc.p[1] == 0.0
        assert gains.a[2] * alloc.p[2] == pytest.approx(6.0)

    def test_secure_only_falls_back_when_nothing_secure(self):
        gains = SubchannelGains(c=[0.3, 1.0], d=[0.7, 0.0], a=[1.0, 1.0])
        part = classify_subspaces(gains)
        alloc = uniform_allocation(
            gains, part, budget=4.0, rho=0.5, secure_only=True
        )
        assert alloc.p[0] == pytest.approx(2.0)
        assert alloc.effective_power == pytest.approx(4.0)

    def test_empty_s1_forces_rho_one(self):
        gains = SubchannelGains(c=[0.6, 0.4], d=[0.4, 0.6], a=[1.0, 1.0])
        part = classify_subspaces(gains)
        assert part.dim_s1 == 0
        alloc = uniform_allocation(gains, part, budget=2.0, rho=0.25)
        assert alloc.effective_power == pytest.approx(2.0)
        assert np.all(alloc.p > 0)

    def test_empty_s2_forces_rho_zero(self):
        gains = SubchannelGains(c=[1.0, 1.0], d=[0.0, 0.0], a=[1.0, 2.0])
        part = classify_subspaces(gains)
        assert part.dim_s2 == 0
        alloc = uniform_allocation(gains, part, budget=2.0, rho=0.9)
        assert alloc.effective_power == pytest.approx(2.0)

    def test_symbol_mode_equalizes_symbol_power(self):
        gains = mixed_gains()
        part = classify_subspaces(gains)
        alloc = uniform_allocation(
            gains, part, budget=6.0, rho=1.0, mode="symbol"
        )
        assert alloc.p[1] == pytest.approx(alloc.p[2])
        assert alloc.effective_power == pytest.approx(6.0)

    def test_unknown_mode_rejected(self):
        gains = mixed_gains()
        part = classify_subspaces(gains)
        with pytest.raises(ValueError, match="mode"):
            uniform_allocation(gains, part, budget=1.0, rho=1.0, mode="even")

    def test_rho_out_of_range(self):
        gains = mixed_gains()
        part = classify_subspaces(gains)
        with pytest.raises(ValueError):
            uniform_allocation(gains, part, budget=1.0, rho=1.5)

    def test_no_usable_directions(self):
        gains = SubchannelGains(c=[0.0, 1e-12], d=[1.0, 1.0 - 1e-12],
                                a=[1.0, 1.0])
        part = classify_subspaces(gains)
        with pytest.raises(ValueError, match="usable"):
            uniform_allocation(gains, part, budget=1.0, rho=0.5)


class TestUniformSecureAllocation:
    def test_spreads_over_secure_set(self):
        gains = mixed_gains()
        alloc = uniform_secure_allocation(gains, budget=3.0)
        assert np.all(alloc.p[[0, 1]] == 0.0)
        assert gains.a[2] * alloc.p[2] == pytest.approx(1.5)
        assert gains.a[3] * alloc.p[3] == pytest.approx(1.5)

    def test_silence_when_nothing_secure(self):
        gains = SubchannelGains(c=[0.2], d=[0.8], a=[1.0])
        alloc = uniform_secure_allocation(gains, budget=3.0)
        assert np.array_equal(alloc.p, [0.0])
        assert alloc.effective_power == 0.0

    def test_baselines_reject_a_bad_budget(self):
        gains = mixed_gains()
        part = classify_subspaces(gains)
        baselines = (
            lambda b: uniform_secure_allocation(gains, b),
            lambda b: uniform_allocation(gains, part, b, 0.5),
            lambda b: fraction_sweep(gains, part, b, [0.0, 1.0]))
        for baseline in baselines:
            for budget in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(ValueError,
                                   match="^budget must be positive and finite$"):
                    baseline(budget)


class TestSubsetSums:
    @pytest.mark.parametrize("q", [3, 8, 12, 16, 40])
    def test_each_row_sums_its_own_subset(self, q):
        # A masked sum over whole rows regroups numpy's pairwise summation
        # once rows reach 8 entries; each row must equal np.sum(a[mask]).
        rng = np.random.default_rng(q)
        a = rng.uniform(0.05, 20.0, size=(200, q))
        mask = rng.random((200, q)) < 0.6
        sums = _subset_sums(a, mask)
        for x, m, total in zip(a, mask, sums):
            assert total == (np.sum(x[m]) if m.any() else 1.0)


class TestFractionSweep:
    def test_domination_on_seeded_instance(self):
        pair = random_pair(5, 5, 4, seed=81)
        gains = subchannel_gains(gsvd(pair))
        part = classify_subspaces(gains)
        optimal = secrecy_rate(gains, solve_mu(gains, 100.0))
        curve = fraction_sweep(gains, part, 100.0, np.linspace(0, 1, 101))
        assert np.all(curve.rate_bits <= optimal + 1e-9)

    def test_rates_clamped_nonnegative(self):
        # Insecure S2 spread (secure_only off) can go negative in raw form;
        # the sweep reports the achievable zero instead.
        gains = SubchannelGains(c=[1.0, 0.3], d=[0.0, 0.7], a=[1.0, 1.0])
        part = classify_subspaces(gains)
        curve = fraction_sweep(
            gains, part, 50.0, [0.0, 0.5, 1.0], secure_only=False
        )
        assert np.all(curve.rate_bits >= 0.0)
        assert curve.rate_bits[-1] == 0.0

    def test_smooth_away_from_boundaries(self):
        # The log terms make the curve steep where a power share vanishes
        # (rho near 0 or 1), so only the interior is held to a step bound.
        pair = random_pair(5, 5, 4, seed=82)
        gains = subchannel_gains(gsvd(pair))
        part = classify_subspaces(gains)
        curve = fraction_sweep(gains, part, 100.0, np.linspace(0, 1, 101))
        interior = np.diff(curve.rate_bits)[20:80]
        assert np.all(np.abs(interior) < 0.3)

    def test_grid_validation(self):
        gains = mixed_gains()
        part = classify_subspaces(gains)
        with pytest.raises(ValueError):
            fraction_sweep(gains, part, 1.0, [])
        with pytest.raises(ValueError):
            fraction_sweep(gains, part, 1.0, [0.0, 1.2])

    @settings(max_examples=150, derandomize=True)
    @given(
        gains=gains_st(),
        budget=st.floats(min_value=1e-6, max_value=1e6),
        rhos=st.lists(st.floats(min_value=0.0, max_value=1.0),
                      min_size=1, max_size=12, unique=True),
        mode=st.sampled_from(["transmit", "symbol"]),
        secure_only=st.booleans(),
    )
    def test_each_point_is_the_uniform_allocation_rate(
            self, gains, budget, rhos, mode, secure_only):
        part = classify_subspaces(gains)
        assume(part.dim_s1 + part.dim_s2 > 0)
        grid = sorted(rhos)
        curve = fraction_sweep(gains, part, budget, grid, mode, secure_only)
        for j, rho in enumerate(grid):
            alloc = uniform_allocation(gains, part, budget, rho, mode,
                                       secure_only)
            assert np.array_equal(alloc.p, reference_uniform_p(
                gains, part, budget, rho, mode, secure_only))
            assert curve.rate_bits[j] == max(0, secrecy_rate(gains, alloc))


class TestRateCurve:
    def test_requires_increasing_param(self):
        with pytest.raises(ValueError, match="increasing"):
            RateCurve(param=[0.0, 0.0, 1.0], rate_bits=[0.0, 0.0, 0.0])

    def test_requires_nonnegative_rates(self):
        with pytest.raises(ValueError):
            RateCurve(param=[0.0, 1.0], rate_bits=[0.1, -0.1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            RateCurve(param=[0.0, 1.0], rate_bits=[0.1])
