"""Unit tests for the closed-form power allocation."""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsvdcap import (
    ChannelPair,
    ExperimentConfig,
    PowerAllocation,
    SubchannelGains,
    gsvd,
    input_covariance,
    largest_root,
    power_for_mu,
    run_fraction_experiment,
    run_snr_sweep,
    sample_channel,
    secrecy_rate,
    solve_mu,
    subchannel_gains,
)

from gsvdcap import allocation
from gsvdcap.allocation import _solve_batch

from conftest import gains_st, random_pair

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

    def test_two_dimensional_power_rejected(self):
        with pytest.raises(ValueError, match="p must be a 1-D array"):
            PowerAllocation(p=[[1.0]], mu=1.0, effective_power=1.0)

    def test_negative_effective_power_rejected(self):
        with pytest.raises(ValueError,
                           match="effective_power must be nonnegative"):
            PowerAllocation(p=[1.0], mu=1.0, effective_power=-1.0)


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

    def test_rejects_column_power_that_gains_reject(self):
        # The same rule as SubchannelGains: a must be positive and finite.
        for a in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="column power"):
                largest_root(0.8, 0.2, a, 0.1)

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_python_and_numpy_scalars(self, kind):
        root = largest_root(kind(0.8), kind(0.2), kind(1.0), kind(0.5))
        assert root == allocation._root(0.8 - 0.2, 4.0 * 0.8 * 0.2, 0.5 * 1.0)

    # (c, d, a) breaking each of _check_gains' rules, and its message.
    BAD_GAINS = [((1.25, -0.25, 1.0), r"gains must lie in \[0, 1\]"),
                 ((0.8, 0.3, 1.0), r"must satisfy c \+ d = 1"),
                 ((0.8, 0.2, -1.0), "column power a must be positive")]

    @pytest.mark.parametrize("gains, message", BAD_GAINS)
    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_each_gain_check_fires_on_scalars(self, gains, message, kind):
        with pytest.raises(ValueError, match=message):
            largest_root(*map(kind, gains), 0.1)

    @pytest.mark.parametrize("gains, message", BAD_GAINS)
    def test_each_gain_check_fires_on_arrays(self, gains, message):
        c, d, a = gains
        with pytest.raises(ValueError, match=message):
            SubchannelGains(c=[0.9, c], d=[0.1, d], a=[1.0, a])

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

    @settings(max_examples=300, derandomize=True)
    @given(cd=st.floats(min_value=0.0, max_value=1.0),
           fcd=st.one_of(st.just(0.0), st.floats(min_value=0.0,
                                                  max_value=1.0)),
           mu_a=st.one_of(st.sampled_from([5e-324, 2.2250738585072014e-308,
                                           1e300]),
                          st.floats(min_value=5e-324, max_value=1e300)))
    def test_scalar_and_array_layouts_agree_bit_for_bit(self, cd, fcd, mu_a):
        # _root serves the one-pair path and _roots the arrays; both write
        # the one closed form, so any drift between them shows here.
        x = allocation._root(cd, fcd, mu_a)
        with np.errstate(all="ignore"):
            y = float(allocation._roots(np.array([cd]), np.array([fcd]),
                                        np.array([mu_a]))[0])
        if math.isnan(x) or math.isnan(y):
            assert math.isnan(x) and math.isnan(y)
        else:
            assert struct.pack("<d", x) == struct.pack("<d", y)


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

    @pytest.mark.parametrize("mu", [1e-320, 1e-300])
    def test_root_that_is_not_finite_rejected(self, mu):
        # mu * a underflows to zero at 1e-320 and is subnormal at 1e-300,
        # where the lead overflows: neither root is a number to clamp.
        gains = SubchannelGains(c=[0.8], d=[0.2], a=[1e-10])
        with pytest.raises(ValueError, match=f"mu = {mu:g}"):
            power_for_mu(gains, mu)

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan])
    def test_nonpositive_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="mu must be positive"):
            power_for_mu(single_gain(), mu)

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

    def test_nonfinite_budget_rejected(self):
        for budget in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="budget"):
                solve_mu(single_gain(), budget)

    def test_huge_budget_met(self):
        # Every direction is heard by the eavesdropper, so power grows only
        # like mu**-1/2 and the bracket needs far more than 200 halvings.
        gains = SubchannelGains(
            c=[0.6, 0.8, 0.95], d=[0.4, 0.2, 0.05], a=[1.0, 0.5, 2.0]
        )
        alloc = solve_mu(gains, 1e30)
        assert alloc.effective_power == pytest.approx(1e30, rel=1e-10)

    def test_unreachable_budget_named(self):
        # With a = 1e-300 the largest finite root radiates far below 1e10.
        gains = SubchannelGains(c=[0.8], d=[0.2], a=[1e-300])
        with pytest.raises(ValueError, match="1e\\+10"):
            solve_mu(gains, 1e10)

    def test_insecure_entries_stay_silent(self):
        gains = SubchannelGains(
            c=[0.1, 0.4, 0.9], d=[0.9, 0.6, 0.1], a=[1.0, 1.0, 1.0]
        )
        alloc = solve_mu(gains, 50.0)
        assert alloc.p[0] == 0.0 and alloc.p[1] == 0.0
        assert alloc.p[2] > 0


class TestOneCore:
    @settings(max_examples=150, derandomize=True)
    @given(gains=gains_st(),
           budget=st.floats(min_value=1e-6, max_value=1e12))
    def test_solve_mu_matches_power_for_mu(self, gains, budget):
        alloc = solve_mu(gains, budget)
        assert np.array_equal(alloc.p, power_for_mu(gains, alloc.mu).p)
        assert alloc.effective_power == float(gains.a @ alloc.p)
        # The checked scalar root, entry by entry on numpy scalars.
        c, d, a = gains.c, gains.d, gains.a
        reference = [max(0.0, largest_root(c[i], d[i], a[i], alloc.mu))
                     if c[i] > d[i] else 0.0 for i in range(gains.q)]
        assert np.array_equal(alloc.p, reference)


def solve_outcome(gains, budget):
    """solve_mu's (p, mu, effective_power), or its exception's type and
    message."""
    try:
        alloc = solve_mu(gains, budget)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return alloc.p, alloc.mu, alloc.effective_power


def full_bisection_outcome(gains, budget):
    """solve_outcome of the same loop with no anchors: every midpoint of the
    bracket and the bisection is evaluated."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allocation, "_anchors",
                   lambda *args: (0.0, math.inf, math.inf))
        return solve_outcome(gains, budget)


def assert_same_as_full_bisection(gains, budget):
    got = solve_outcome(gains, budget)
    want = full_bisection_outcome(gains, budget)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1] and got[2] == want[2]
    return got


class TestSkipAhead:
    """The skip-ahead solve_mu against its own loop run with no anchors."""

    @settings(max_examples=200, derandomize=True)
    @given(gains=gains_st(),
           log_budget=st.floats(min_value=-9.0, max_value=29.0))
    def test_equals_full_bisection(self, gains, log_budget):
        assert_same_as_full_bisection(gains, 10.0 ** log_budget)

    def test_ulp_exit_runs_again_without_anchors(self, monkeypatch):
        # No double near mu_hi radiates 1e-100, so the bracket collapses to
        # the ulp with every gap above the tolerance; a skipped midpoint
        # could have had the best gap, so the loop runs again.
        calls = []
        replay = allocation._replay

        def counted(*args):
            calls.append(args[3:])
            return replay(*args)

        monkeypatch.setattr(allocation, "_replay", counted)
        got = assert_same_as_full_bisection(single_gain(), 1e-100)
        assert got[2] > 0.0
        assert len(calls) == 3  # anchored, again without, and the reference
        assert calls[0] != () and calls[1] == ()

    def test_unreachable_budget_matches(self):
        gains = SubchannelGains(c=[0.8], d=[0.2], a=[1e-300])
        got = assert_same_as_full_bisection(gains, 1e10)
        assert got[0] is ValueError and "1e+10" in got[1]

    def test_wide_scales_match(self):
        gains = SubchannelGains(c=[1.0, 0.9, 0.5, 0.7], d=[0.0, 0.1, 0.5, 0.3],
                                a=[1e-3, 1e3, 1.0, 1e-250])
        for budget in (1e-300, 1e-9, 1.0, 1e29, 1e300):
            assert_same_as_full_bisection(gains, budget)


class TestEvaluationCount:
    """Exact power evaluations per solve. The full bisection needs 37 to 75
    on these, so a silent fall-back to it fails here. The two small budgets
    put the root near the last threshold, far from the water-filling start
    of the anchor estimate."""

    def test_readme_and_allocate_shapes(self, monkeypatch):
        evaluated = []
        curve = allocation._power_curve

        def counted_curve(gains):
            power = curve(gains)

            def counted(mu):
                evaluated.append(mu)
                return power(mu)

            return counted

        monkeypatch.setattr(allocation, "_power_curve", counted_curve)
        # The README's library example.
        rng = np.random.default_rng(0)
        hr = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        he = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        readme = subchannel_gains(gsvd(ChannelPair(hr, he)))
        tall = subchannel_gains(gsvd(random_pair(8, 3, 2, seed=1)))
        cases = [(readme, 1.0, 5), (readme, 100.0, 5), (readme, 1e4, 5),
                 (tall, 10.0, 5),
                 (subchannel_gains(gsvd(random_pair(4, 6, 6, seed=2))), 1e3, 5),
                 (readme, 1e-3, 13), (tall, 1e-4, 11)]
        counts = []
        for gains, budget, _ in cases:
            evaluated.clear()
            solve_mu(gains, budget)
            counts.append(len(evaluated))
        assert counts == [n for _, _, n in cases]
        assert max(counts) <= 15


class TestAllocateBits:
    """The one-pair allocate path gsvd -> subchannel_gains -> solve_mu ->
    secrecy_rate, byte for byte: factors, gains, powers, multiplier,
    effective power and rate must not move when the path gets faster."""

    # perfbench's allocate shapes (n_t, n_r, n_e) and budgets in dB.
    SHAPES = ((2, 2, 2), (4, 4, 4), (8, 8, 6), (8, 3, 2), (4, 6, 6))
    BUDGETS_DB = (0, 5, 10, 15, 20, 25, 30)
    DIGEST = "7a21c45fa93b8f257b43bd1f4a0773281837293f30bb975ba668e54dca937699"

    def test_factors_gains_and_solves_are_pinned(self):
        digest = hashlib.sha256()
        for n_t, n_r, n_e in self.SHAPES:
            config = ExperimentConfig(n_t=n_t, n_r=n_r, n_e=n_e, seed=7)
            for trial in range(5):
                f = gsvd(sample_channel(config, trial))
                gains = subchannel_gains(f)
                for x in (f.a, f.psi_r, f.psi_e, f.cdiag, f.ddiag, gains.c,
                          gains.d, gains.a):
                    digest.update(x.tobytes())
                for db in self.BUDGETS_DB:
                    alloc = solve_mu(gains, 10.0 ** (db / 10.0))
                    digest.update(alloc.p.tobytes())
                    digest.update(np.array(
                        [alloc.mu, alloc.effective_power,
                         secrecy_rate(gains, alloc)]).tobytes())
        assert digest.hexdigest() == self.DIGEST


def batch_outcome(c, d, a, budgets):
    """_solve_batch's (p, mu, effective), or its exception's type and
    message."""
    try:
        return _solve_batch(c, d, a, budgets)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def full_batch_outcome(c, d, a, budgets):
    """batch_outcome with no batch anchors: every midpoint of every row's
    bracket and bisection is evaluated."""
    n = budgets.size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allocation, "_batch_anchors", lambda *args: (
            np.zeros(n), np.full(n, math.inf), np.full(n, math.inf)))
        return batch_outcome(c, d, a, budgets)


def assert_batch_same_as_full_bisection(c, d, a, budgets):
    got = batch_outcome(c, d, a, budgets)
    want = full_batch_outcome(c, d, a, budgets)
    if isinstance(want[0], type):
        assert got == want
    else:
        for x, y in zip(got, want):
            assert np.array_equal(x, y)
    return got


def stack(rows):
    return tuple(np.array([getattr(g, name) for g in rows]) for name in "cda")


class TestBatchSolve:
    """_solve_batch against solve_mu row by row, and against its own replay
    with no anchors."""

    @settings(max_examples=60, derandomize=True)
    @given(data=st.data())
    def test_each_row_equals_solve_mu(self, data):
        q = data.draw(st.integers(min_value=1, max_value=16))
        rows = data.draw(st.lists(gains_st(min_q=q, max_q=q), min_size=1,
                                  max_size=40))
        budgets = np.array(data.draw(st.lists(
            st.floats(min_value=-9.0, max_value=29.0),
            min_size=len(rows), max_size=len(rows))))
        budgets = 10.0 ** budgets
        c, d, a = (np.array([getattr(g, name) for g in rows])
                   for name in "cda")
        p, mu, effective = _solve_batch(c, d, a, budgets)
        for r, gains in enumerate(rows):
            alloc = solve_mu(gains, budgets[r])
            assert np.array_equal(p[r], alloc.p)
            assert mu[r] == alloc.mu
            assert effective[r] == alloc.effective_power

    @pytest.mark.parametrize("budget", [1.49e-85, 1.0, 1e10])
    def test_extreme_column_powers_equal_solve_mu(self, budget):
        # mu * a overflows on the widest columns; the batch must not warn
        # where solve_mu's float products do not.
        c = np.array([0.6, 0.7, 0.8, 0.9, 0.95])
        gains = SubchannelGains(c=c, d=1.0 - c,
                                a=[6.5e-139, 1e-50, 1.0, 1e80, 1.3e172])
        p, mu, effective = _solve_batch(gains.c[None], gains.d[None],
                                        gains.a[None], np.array([budget]))
        alloc = solve_mu(gains, budget)
        assert np.array_equal(p[0], alloc.p)
        assert mu[0] == alloc.mu
        assert effective[0] == alloc.effective_power

    def test_unreachable_budget_named(self):
        # Row 1 is TestSolveMu's unreachable case; row 0 solves.
        c = np.array([[0.8], [0.8]])
        a = np.array([[1.0], [1e-300]])
        with pytest.raises(ValueError, match="1e\\+10"):
            _solve_batch(c, 1.0 - c, a, np.array([1.0, 1e10]))

    @settings(max_examples=60, derandomize=True)
    @given(data=st.data())
    def test_equals_full_bisection(self, data):
        q = data.draw(st.integers(min_value=1, max_value=16))
        rows = data.draw(st.lists(gains_st(min_q=q, max_q=q), min_size=1,
                                  max_size=40))
        budgets = 10.0 ** np.array(data.draw(st.lists(
            st.floats(min_value=-9.0, max_value=29.0),
            min_size=len(rows), max_size=len(rows))))
        assert_batch_same_as_full_bisection(*stack(rows), budgets)

    def test_only_ulp_exit_rows_run_again(self, monkeypatch):
        # Rows 0 and 1 are TestSkipAhead's ulp exit (c = 0.8, d = 0.2,
        # a = 1, padded with silent entries) at 1e-100 and 1e-17; row 2 has
        # no secure entry; rows 3-5 are the extreme column powers; row 6 is
        # an ordinary row.
        ulp = SubchannelGains(c=[0.8, 0.3, 0.3, 0.3, 0.3],
                              d=[0.2, 0.7, 0.7, 0.7, 0.7], a=[1.0] * 5)
        c = np.array([0.6, 0.7, 0.8, 0.9, 0.95])
        extreme = SubchannelGains(c=c, d=1.0 - c,
                                  a=[6.5e-139, 1e-50, 1.0, 1e80, 1.3e172])
        rows = [ulp, ulp,
                SubchannelGains(c=[0.1, 0.2, 0.3, 0.4, 0.5],
                                d=[0.9, 0.8, 0.7, 0.6, 0.5], a=[1.0] * 5),
                extreme, extreme, extreme,
                SubchannelGains(c=c, d=1.0 - c, a=[0.5, 1.0, 2.0, 1.0, 3.0])]
        budgets = np.array([1e-100, 1e-17, 1.0, 1.49e-85, 1.0, 1e10, 10.0])
        replayed = []
        replay = allocation._replay_batch

        def counted(*args):
            replayed.append(np.flatnonzero(args[3]).tolist())
            return replay(*args)

        monkeypatch.setattr(allocation, "_replay_batch", counted)
        p, mu, effective = assert_batch_same_as_full_bisection(*stack(rows),
                                                               budgets)
        # Anchored, again without anchors, and the reference's one replay.
        assert replayed == [[0, 1, 3, 4, 5, 6], [0, 1], [0, 1, 3, 4, 5, 6]]
        for r, gains in enumerate(rows):
            alloc = solve_mu(gains, budgets[r])
            assert np.array_equal(p[r], alloc.p)
            assert mu[r] == alloc.mu
            assert effective[r] == alloc.effective_power
        assert effective[0] > 0.0 and effective[2] == 0.0 and mu[2] == 1.0

    def test_unreachable_row_raises_the_same_error(self):
        # Row 1 is TestSolveMu's unreachable case between two that solve.
        c = np.array([[0.8], [0.8], [0.9]])
        a = np.array([[1.0], [1e-300], [2.0]])
        budgets = np.array([1.0, 1e10, 5.0])
        got = assert_batch_same_as_full_bisection(c, 1.0 - c, a, budgets)
        assert got == (ValueError, "power budget 1e+10 is beyond what any "
                       "representable multiplier reaches on these gains")
        assert got == solve_outcome(SubchannelGains(c=[0.8], d=[0.2],
                                                    a=[1e-300]), 1e10)


class TestBatchEvaluationCount:
    """Exact _batch_power calls and rows per campaign solve. The full
    bisection takes 76 calls of 35 rows on the S5 batch and 53 of 10 on
    the F10 one, so a silent fall-back to it fails here."""

    def counted_run(self, monkeypatch, run, config):
        """Run a campaign; return its _batch_power row counts, having
        checked that every live row found both anchors at the first width."""
        sizes = []
        power = allocation._batch_power

        def counted(cd, fcd, a_den, a, mu):
            sizes.append(mu.size)
            return power(cd, fcd, a_den, a, mu)

        windows = []
        anchors = allocation._batch_anchors

        def recorded(c, d, gains, budgets, mu_hi, live):
            x_lo, x_hi, gap = anchors(c, d, gains, budgets, mu_hi, live)
            windows.append((x_lo[live], x_hi[live]))
            return x_lo, x_hi, gap

        monkeypatch.setattr(allocation, "_batch_power", counted)
        monkeypatch.setattr(allocation, "_batch_anchors", recorded)
        run(config)
        # A first-width window is at most est / (1 + w) to est (1 + w),
        # each pulled out by _SEP.
        w, sep = allocation._WIDTH, allocation._SEP
        widest = (1.0 + w) ** 2 * (1.0 + sep) / (1.0 - sep) * (1.0 + 1e-15)
        (x_lo, x_hi), = windows
        assert 2 * x_lo.size == sizes[0]  # both sides of every live row
        assert np.all((x_lo > 0.0) & (x_hi <= widest * x_lo))
        return sizes

    @pytest.mark.parametrize("run, config, calls, rows", [
        (run_snr_sweep, ExperimentConfig(
            n_t=4, n_r=4, n_e=4, trials=5, snr_db_grid=(0, 5, 10, 15, 20,
                                                        25, 30)), 5, 210),
        (run_fraction_experiment, ExperimentConfig(
            n_t=5, n_r=5, n_e=4, trials=10, budget=100.0,
            rho_grid=(0.0, 0.5, 1.0)), 5, 60),
    ], ids=["S5", "F10"])
    def test_campaign_batches(self, monkeypatch, run, config, calls, rows):
        sizes = self.counted_run(monkeypatch, run, config)
        assert (len(sizes), sum(sizes)) == (calls, rows)
        assert len(sizes) <= 15

    def test_wide_snr_grid(self, monkeypatch):
        # 320 rows from -60 to 90 dB, whose budgets span 15 decades: the
        # estimate must still bring every row within the first width.
        sizes = self.counted_run(monkeypatch, run_snr_sweep, ExperimentConfig(
            n_t=4, n_r=4, n_e=4, trials=20, seed=0,
            snr_db_grid=tuple(range(-60, 91, 10))))
        assert (len(sizes), sum(sizes)) == (24, 8000)


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
