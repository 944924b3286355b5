"""Unit tests for the closed-form power allocation."""

import copy
import dataclasses
import hashlib
import importlib
import math
import pickle
import struct
import sys
from pathlib import Path

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
    load_matrix,
    power_for_mu,
    run_fraction_experiment,
    run_snr_sweep,
    sample_channel,
    secrecy_rate,
    solve_mu,
    subchannel_gains,
)

from gsvdcap import allocation, experiments
from gsvdcap.allocation import _solve_batch
from gsvdcap.gsvd import _stacked_gains

from conftest import gains_st, random_pair

DATA = Path(__file__).resolve().parent / "data"

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_power_rejected(self, bad):
        with pytest.raises(ValueError,
                           match="^powers must be finite and nonnegative$"):
            PowerAllocation(p=[1.0, bad], mu=1.0, effective_power=1.0)

    def test_negative_zero_power_accepted(self):
        alloc = PowerAllocation(p=[-0.0], mu=1.0, effective_power=0.0)
        assert alloc.p.tobytes() == np.array([-0.0]).tobytes()

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


class TestCheckedResult:
    """solve_mu's PowerAllocation runs the constructor's checks on the
    powers it evaluated."""

    @pytest.mark.parametrize("bad", [-1e-3, math.nan, math.inf])
    def test_a_bad_evaluated_power_is_refused(self, monkeypatch, bad):
        power = allocation._power

        def corrupt(secure, a, cd, mu):
            p, f, slope = power(secure, a, cd, mu)
            p = p.copy()
            p[0] = bad
            return p, f, slope

        monkeypatch.setattr(allocation, "_power", corrupt)
        gains = SubchannelGains(c=[0.6, 0.8], d=[0.4, 0.2], a=[1.0, 2.0])
        with pytest.raises(ValueError,
                           match="^powers must be finite and nonnegative$"):
            solve_mu(gains, 10.0)


def _allocate_chain(hr_file, he_file):
    """The allocate command's library calls at a 10 W budget."""
    pair = ChannelPair(load_matrix(DATA / hr_file), load_matrix(DATA / he_file))
    gains = subchannel_gains(gsvd(pair))
    alloc = solve_mu(gains, 10.0)
    secrecy_rate(gains, alloc)
    return gains, alloc


def _fields(obj):
    return [(type(v), v.tobytes() if isinstance(v, np.ndarray) else v)
            for v in dataclasses.astuple(obj)]


class TestBuiltWithoutConstructor:
    """subchannel_gains checks once and then builds its result with
    object.__new__: the one-pair chain runs no second gain check, and the
    results behave as constructed ones do."""

    HE = ["allocate_he.json", "allocate_hr.json"]  # secure, and all tied

    @pytest.mark.parametrize("he_file", HE, ids=["secure", "tied"])
    def test_allocate_chain_checks_nothing_twice(self, monkeypatch, he_file):
        gsvd_module = importlib.import_module("gsvdcap.gsvd")
        checks, check = [], gsvd_module._check_gains

        def counted_check(*args):
            checks.append(None)
            return check(*args)

        monkeypatch.setattr(gsvd_module, "_check_gains", counted_check)
        _allocate_chain("allocate_hr.json", he_file)
        assert len(checks) == 0

    @pytest.mark.parametrize("he_file", HE, ids=["secure", "tied"])
    @pytest.mark.parametrize("clone", [
        lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy,
        dataclasses.replace], ids=["pickle", "deepcopy", "replace"])
    def test_copies_keep_every_bit(self, clone, he_file):
        for obj in _allocate_chain("allocate_hr.json", he_file):
            copied = clone(obj)
            assert type(copied) is type(obj)
            assert _fields(copied) == _fields(obj)

    def test_fields_stay_frozen(self):
        gains, alloc = _allocate_chain("allocate_hr.json", "allocate_he.json")
        with pytest.raises(dataclasses.FrozenInstanceError):
            gains.c = np.zeros(gains.q)
        with pytest.raises(dataclasses.FrozenInstanceError):
            alloc.mu = 2.0


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


def counted_solves(monkeypatch):
    """The list to which every later solve_mu evaluation appends its mu."""
    evaluated = []
    power = allocation._power

    def counted(secure, a, cd, mu):
        evaluated.append(mu)
        return power(secure, a, cd, mu)

    monkeypatch.setattr(allocation, "_power", counted)
    return evaluated


def assert_root(gains, budget, alloc):
    """alloc's mu is the root to working precision: power at 2**-48 of mu
    (16 to 32 ulp) below it reaches the budget, and power as far above it
    does not exceed the budget."""
    step = 16.0 * sys.float_info.epsilon * alloc.mu
    assert power_for_mu(gains, alloc.mu - step).effective_power >= budget
    assert power_for_mu(gains, alloc.mu + step).effective_power <= budget


class TestNewtonSolve:
    """Where solve_mu's Newton iteration on 1/mu stops, and what it
    returns there."""

    @settings(max_examples=200, derandomize=True)
    @given(gains=gains_st(),
           log_budget=st.floats(min_value=-9.0, max_value=29.0))
    def test_meets_the_budget_or_resolves_the_root(self, gains, log_budget):
        budget = 10.0 ** log_budget
        alloc = solve_mu(gains, budget)
        if alloc.effective_power > 0.0:  # else nothing is secure
            assert_root(gains, budget, alloc)

    def test_tiny_budget_ends_below_the_top_threshold(self, monkeypatch):
        # No double radiates 1e-100: the largest one below mu_hi = c - d
        # radiates the smallest positive power, 2**-52, and the search
        # closes in on it from the start level mu_hi / 2.
        evaluated = counted_solves(monkeypatch)
        alloc = solve_mu(single_gain(), 1e-100)
        assert alloc.mu == math.nextafter(0.8 - 0.2, 0.0)
        assert alloc.effective_power == 2.0 ** -52
        assert len(evaluated) == 28

    def test_unreachable_budget_raises_at_the_floor(self, monkeypatch):
        # With a = 1e-300 the largest finite root radiates far below 1e10.
        # The start level lies below the floor mu_hi 2**-_HALVING_CAP, so
        # the floor is the one point evaluated.
        evaluated = counted_solves(monkeypatch)
        gains = SubchannelGains(c=[0.8], d=[0.2], a=[1e-300])
        with pytest.raises(ValueError, match="1e\\+10"):
            solve_mu(gains, 1e10)
        assert evaluated == [math.ldexp((0.8 - 0.2) / 1e-300,
                                        -allocation._HALVING_CAP)]

    def test_wide_scales_resolve_the_root(self):
        gains = SubchannelGains(c=[1.0, 0.9, 0.5, 0.7], d=[0.0, 0.1, 0.5, 0.3],
                                a=[1e-3, 1e3, 1.0, 1e-250])
        for budget in (1e-300, 1e-9, 1.0, 1e29):
            alloc = solve_mu(gains, budget)
            assert np.array_equal(alloc.p, power_for_mu(gains, alloc.mu).p)
            assert_root(gains, budget, alloc)
        with pytest.raises(ValueError, match="1e\\+300"):
            solve_mu(gains, 1e300)


class TestEvaluationCount:
    """Exact power evaluations per solve. A bisection of mu needs 37 to 75
    on these, so a slower search fails here. The two small budgets put the
    root near the last threshold, far from the water-filling start level;
    the tall pair's secure entries are all water-filling ones (d = 0), so
    its start level is the root."""

    def test_readme_and_allocate_shapes(self, monkeypatch):
        evaluated = counted_solves(monkeypatch)
        # The README's library example.
        rng = np.random.default_rng(0)
        hr = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        he = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        readme = subchannel_gains(gsvd(ChannelPair(hr, he)))
        tall = subchannel_gains(gsvd(random_pair(8, 3, 2, seed=1)))
        cases = [(readme, 1.0, 4), (readme, 100.0, 5), (readme, 1e4, 4),
                 (tall, 10.0, 1),
                 (subchannel_gains(gsvd(random_pair(4, 6, 6, seed=2))), 1e3, 8),
                 (readme, 1e-3, 4), (tall, 1e-4, 4)]
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
    DIGEST = "e75297faa98439dfb5e367733250109aa5ecd1f7eb07a962b08042e1a3ec2bb8"

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


def stack(rows):
    return tuple(np.array([getattr(g, name) for g in rows]) for name in "cda")


class TestBatchSolve:
    """_solve_batch against solve_mu row by row."""

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

    @pytest.mark.parametrize("budget", [1e307, 1e308])
    def test_subnormal_anchor_windows_equal_solve_mu(self, budget):
        # The root lies below 1e-314, where the anchors are 8 ulp apart or
        # less: a decided step could then pass the collapse rule unchecked.
        gains = single_gain(0.5 + 2.0 ** -20, a=1e305)
        p, mu, effective = _solve_batch(gains.c[None], gains.d[None],
                                        gains.a[None], np.array([budget]))
        alloc = solve_mu(gains, budget)
        assert np.array_equal(p[0], alloc.p)
        assert mu[0] == alloc.mu < 1e-314
        assert effective[0] == alloc.effective_power

    def test_unreachable_budget_named(self):
        # Row 1 is TestSolveMu's unreachable case; row 0 solves.
        c = np.array([[0.8], [0.8]])
        a = np.array([[1.0], [1e-300]])
        with pytest.raises(ValueError, match="1e\\+10"):
            _solve_batch(c, 1.0 - c, a, np.array([1.0, 1e10]))

    def test_edge_rows_equal_solve_mu(self):
        # Rows 0 and 1 are TestNewtonSolve's tiny budget (c = 0.8, d = 0.2,
        # a = 1, padded with silent entries) at 1e-100 and 1e-17; row 2 has
        # no secure entry; rows 3-5 are the extreme column powers; rows 6-9
        # its wide scales, padded, at 1e-300 to 1e29; row 10 is ordinary.
        ulp = SubchannelGains(c=[0.8, 0.3, 0.3, 0.3, 0.3],
                              d=[0.2, 0.7, 0.7, 0.7, 0.7], a=[1.0] * 5)
        c = np.array([0.6, 0.7, 0.8, 0.9, 0.95])
        extreme = SubchannelGains(c=c, d=1.0 - c,
                                  a=[6.5e-139, 1e-50, 1.0, 1e80, 1.3e172])
        wide = SubchannelGains(c=[1.0, 0.9, 0.5, 0.7, 0.3],
                               d=[0.0, 0.1, 0.5, 0.3, 0.7],
                               a=[1e-3, 1e3, 1.0, 1e-250, 1.0])
        rows = [ulp, ulp,
                SubchannelGains(c=[0.1, 0.2, 0.3, 0.4, 0.5],
                                d=[0.9, 0.8, 0.7, 0.6, 0.5], a=[1.0] * 5),
                extreme, extreme, extreme, wide, wide, wide, wide,
                SubchannelGains(c=c, d=1.0 - c, a=[0.5, 1.0, 2.0, 1.0, 3.0])]
        budgets = np.array([1e-100, 1e-17, 1.0, 1.49e-85, 1.0, 1e10, 1e-300,
                            1e-9, 1.0, 1e29, 10.0])
        p, mu, effective = _solve_batch(*stack(rows), budgets)
        for r, gains in enumerate(rows):
            alloc = solve_mu(gains, budgets[r])
            assert np.array_equal(p[r], alloc.p)
            assert mu[r] == alloc.mu
            assert effective[r] == alloc.effective_power
        assert effective[0] > 0.0 and effective[2] == 0.0 and mu[2] == 1.0

    def test_unreachable_row_raises_the_same_error(self):
        # Rows 1 and 3 are TestSolveMu's unreachable case at two budgets,
        # between rows that solve: the first of them is named, in
        # solve_mu's words.
        c = np.array([[0.8], [0.8], [0.9], [0.8]])
        a = np.array([[1.0], [1e-300], [2.0], [1e-300]])
        budgets = np.array([1.0, 1e10, 5.0, 1e11])
        got = batch_outcome(c, 1.0 - c, a, budgets)
        assert got == (ValueError, "power budget 1e+10 is beyond what any "
                       "representable multiplier reaches on these gains")
        assert got == solve_outcome(SubchannelGains(c=[0.8], d=[0.2],
                                                    a=[1e-300]), 1e10)


class TestBatchEvaluationCount:
    """Exact _batch_power calls and rows per campaign solve, the final
    evaluation at each row's best mu included. A batched bisection of mu
    takes 76 calls of 35 rows on the S5 batch and 53 of 10 on the F10 one,
    so a slower search fails here."""

    def counted_power(self, monkeypatch):
        """The list to which every later _batch_power call appends its row
        count."""
        sizes = []
        power = allocation._batch_power

        def counted(cd, fcd, a_den, a, mu):
            sizes.append(mu.size)
            return power(cd, fcd, a_den, a, mu)

        monkeypatch.setattr(allocation, "_batch_power", counted)
        return sizes

    @pytest.mark.parametrize("run, config, calls, rows", [
        (run_snr_sweep, ExperimentConfig(
            n_t=4, n_r=4, n_e=4, trials=5, snr_db_grid=(0, 5, 10, 15, 20,
                                                        25, 30)), 9, 265),
        (run_fraction_experiment, ExperimentConfig(
            n_t=5, n_r=5, n_e=4, trials=10, budget=100.0,
            rho_grid=(0.0, 0.5, 1.0)), 6, 60),
    ], ids=["S5", "F10"])
    def test_campaign_batches(self, monkeypatch, run, config, calls, rows):
        sizes = self.counted_power(monkeypatch)
        run(config)
        assert (len(sizes), sum(sizes)) == (calls, rows)
        assert len(sizes) <= 15

    def test_wide_snr_grid(self, monkeypatch):
        # 320 rows from -60 to 90 dB, whose budgets span 15 decades; the
        # lowest put the root just below a row's top threshold mu_hi.
        sizes = self.counted_power(monkeypatch)
        run_snr_sweep(ExperimentConfig(
            n_t=4, n_r=4, n_e=4, trials=20, seed=0,
            snr_db_grid=tuple(range(-60, 91, 10))))
        assert (len(sizes), sum(sizes)) == (14, 2749)

    def test_extreme_row_adds_few_batch_rounds(self, monkeypatch):
        # S5's 35 rows, which take 9 calls over 265 rows alone, and one
        # whose column powers span 222 decades.
        config = ExperimentConfig(n_t=4, n_r=4, n_e=4, trials=5,
                                  snr_db_grid=(0, 5, 10, 15, 20, 25, 30))
        budgets = experiments._snr_budgets(config.snr_db_grid)
        _, *gains = _stacked_gains(experiments._draw(config, np.arange(5)),
                                   config.n_r)
        extreme = SubchannelGains(c=[0.7, 0.8, 0.9, 0.95],
                                  d=[0.3, 0.2, 0.1, 0.05],
                                  a=[1e-50, 1.0, 1e80, 1.3e172])
        c, d, a = (np.vstack([np.repeat(x, budgets.size, axis=0),
                              getattr(extreme, name)])
                   for x, name in zip(gains, "cda"))
        sizes = self.counted_power(monkeypatch)
        p, mu, effective = _solve_batch(c, d, a,
                                        np.append(np.tile(budgets, 5), 1.0))
        assert (len(sizes), sum(sizes)) == (13, 278)
        alloc = solve_mu(extreme, 1.0)
        assert np.array_equal(p[-1], alloc.p)
        assert mu[-1] == alloc.mu
        assert effective[-1] == alloc.effective_power

    def test_water_filling_row_stops_at_its_start(self, monkeypatch):
        # Row 0 (c = 1, d = 0) radiates exactly its budget at its start
        # level 1 / (1 + 1) = mu_hi / 2, and leaves after one evaluation;
        # row 1 is an ordinary row.
        sizes = self.counted_power(monkeypatch)
        c = np.array([[1.0], [0.8]])
        p, mu, effective = _solve_batch(c, 1.0 - c, np.ones((2, 1)),
                                        np.ones(2))
        assert sizes == [2, 1, 1, 1, 1, 2]
        assert mu[0] == 0.5 and effective[0] == 1.0
        for r in range(2):
            alloc = solve_mu(single_gain(c[r, 0]), 1.0)
            assert np.array_equal(p[r], alloc.p)
            assert mu[r] == alloc.mu
            assert effective[r] == alloc.effective_power


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
