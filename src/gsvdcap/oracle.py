"""Brute-force verification tools, independent of the closed form.

grid_maximize searches the secrecy objective directly on a product grid
(with golden-section polish), using nothing but objective evaluations; it
exists so tests can corroborate the closed-form allocation without sharing
its math. kkt_check certifies first-order optimality of an allocation.
Desk-scale on purpose: the grid is exponential in q.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import experiments, linalg
from .allocation import LN2, PowerAllocation, _check_budget, _check_powers
from .gsvd import SubchannelGains

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MAX_GRID_Q = 4
# Philox stream id; experiments keys channel draws with streams 0 and 1.
_RNG_STREAM = 2


def _chan_rate(x, c, d):
    """Secrecy rate (bits) of one subchannel at symbol power x."""
    return (math.log1p(x * c) - math.log1p(x * d)) / LN2


def _rate_of(p, c, d):
    return float(np.sum(np.log1p(p * c) - np.log1p(p * d)) / LN2)


def _golden_max(fn, lo, hi, iters=80):
    """Golden-section maximizer on [lo, hi]; deterministic, derivative-free."""
    if hi <= lo:
        return lo
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
    mid = 0.5 * (a + b)
    # The bracket may have slid off the true peak in the last comparisons;
    # keep whichever endpoint evaluation won.
    best_x, best_f = mid, fn(mid)
    for x, f in ((x1, f1), (x2, f2), (lo, fn(lo)), (hi, fn(hi))):
        if f > best_f:
            best_x, best_f = x, f
    return best_x


def _refine(p0, c, d, a, budget, sweeps=3):
    """Polish a grid point: per-coordinate line searches, then pairwise
    transfers of radiated power (coordinate moves alone stall once the
    budget face is active)."""
    p = p0.copy()
    q = p.size
    for _ in range(sweeps):
        for i in range(q):
            slack = budget - float(a @ p) + a[i] * p[i]
            hi = max(0.0, slack / a[i])
            p[i] = _golden_max(lambda x: _chan_rate(x, c[i], d[i]), 0.0, hi)
        for i in range(q):
            for j in range(i + 1, q):
                lo_t, hi_t = -a[i] * p[i], a[j] * p[j]
                if hi_t - lo_t <= 0:
                    continue
                pi, pj = p[i], p[j]

                def pair_rate(t):
                    return _chan_rate(pi + t / a[i], c[i], d[i]) + _chan_rate(
                        pj - t / a[j], c[j], d[j])

                t = _golden_max(pair_rate, lo_t, hi_t)
                p[i] = max(0.0, pi + t / a[i])
                p[j] = max(0.0, pj - t / a[j])
    effective = float(a @ p)
    if effective > budget:
        p *= budget / effective
    return p


def grid_maximize(gains, budget, resolution=200):
    """Maximize the secrecy rate over the budget simplex by exhaustive grid
    search plus golden-section polish.

    Independent path: only rate evaluations, no multiplier math. Grid ties
    resolve to the lexicographically smallest index tuple. Returns
    (PowerAllocation with mu=None, rate_bits).

    Args:
        gains: SubchannelGains with q <= 4.
        budget: radiated power bound (sum a_i p_i <= budget); a budget
            whose axis budget / a_i is not a finite number is refused.
        resolution: points per axis, >= 50.
    """
    if gains.q > _MAX_GRID_Q:
        raise ValueError(f"grid oracle handles q <= {_MAX_GRID_Q}, got {gains.q}")
    linalg._check_int("resolution", resolution, 50)
    _check_budget(budget)
    c, d, a = gains.c, gains.d, gains.a
    q = gains.q
    with np.errstate(over="ignore"):
        tops = budget / a
    if not np.isfinite(tops).all():
        raise ValueError(f"budget {budget:g} is too large for these gains: "
                         "budget / a_i is not a finite number")
    axes = [np.linspace(0.0, tops[i], resolution) for i in range(q)]
    rate_tab = [np.log1p(axes[i] * c[i]) - np.log1p(axes[i] * d[i]) for i in range(q)]
    power_tab = [a[i] * axes[i] for i in range(q)]
    cap = budget * (1.0 + linalg.BUDGET_SLACK)

    # Scan blocks over the trailing min(q, 2) axes, iterating the leading
    # axes in C order so the first maximum found is the lexicographically
    # smallest. Every axis is finite and starts at 0, so the first block's
    # first point (all zero: power 0, rate 0) is feasible.
    tail = min(q, 2)
    tail_rate = functools.reduce(np.add.outer, rate_tab[q - tail:])
    tail_power = functools.reduce(np.add.outer, power_tab[q - tail:])
    best_rate = -math.inf
    for lead in np.ndindex(*[resolution] * (q - tail)):
        base_rate = sum(rate_tab[i][lead[i]] for i in range(q - tail))
        base_power = sum(power_tab[i][lead[i]] for i in range(q - tail))
        block = np.where(tail_power <= cap - base_power,
                         tail_rate + base_rate, -math.inf)
        k = int(np.argmax(block))
        r = float(block.flat[k])
        if r > best_rate:
            best_rate = r
            best_idx = lead + np.unravel_index(k, block.shape)

    p0 = np.array([axes[i][best_idx[i]] for i in range(q)])
    p = _refine(p0, c, d, a, budget)
    alloc = PowerAllocation(p=p, mu=None, effective_power=float(a @ p))
    return alloc, _rate_of(p, c, d)


@dataclass(frozen=True)
class KktReport:
    """First-order optimality diagnostics for a budget-tight allocation.

    insecure_zero: power is zero, up to linalg.ACTIVE_EPS, wherever
        c <= d.
    stationarity_dev: worst relative deviation of the marginal rate per unit
        radiated power from mu on active subchannels.
    inactive_ok: inactive secure subchannels have marginal value <= mu,
        up to the relative linalg.KKT_SLACK.
    budget_dev: relative budget mismatch of the radiated power.
    """

    insecure_zero: bool
    stationarity_dev: float
    inactive_ok: bool
    budget_dev: float

    def passed(self, tol):
        return (self.insecure_zero and self.inactive_ok
                and self.stationarity_dev <= tol and self.budget_dev <= tol)


def kkt_check(gains, alloc, budget):
    """Check the first-order conditions of the secrecy water-filling optimum.

    Requires an allocation produced with a multiplier (alloc.mu set), with
    one power per subchannel as secrecy_rate does. The marginal here uses
    the ln2-free convention matching the closed form:
    (c/(1+pc) - d/(1+pd))/a compared against mu.
    """
    if alloc.mu is None:
        raise ValueError("kkt_check needs a multiplier-generated allocation")
    _check_budget(budget)
    _check_powers(alloc, gains.q, "gains")
    c, d, a, p, mu = gains.c, gains.d, gains.a, alloc.p, alloc.mu

    insecure = c <= d
    insecure_zero = bool(np.all(np.abs(p[insecure]) <= linalg.ACTIVE_EPS))

    marginal = (c / (1.0 + p * c) - d / (1.0 + p * d)) / a
    active = (p > linalg.ACTIVE_EPS) & ~insecure
    stationarity = 0.0
    if np.any(active):
        stationarity = float(np.max(np.abs(marginal[active] - mu)) / mu)

    inactive = ~active & ~insecure
    inactive_ok = bool(np.all(marginal[inactive] <= mu * (1.0 + linalg.KKT_SLACK)))

    secure_any = bool(np.any(~insecure))
    effective = float(a @ p)
    if secure_any:
        budget_dev = abs(effective - budget) / budget
    else:
        budget_dev = 0.0 if effective == 0.0 else math.inf

    return KktReport(
        insecure_zero=insecure_zero,
        stationarity_dev=stationarity,
        inactive_ok=inactive_ok,
        budget_dev=budget_dev,
    )


def random_gains(q, seed, trial=0):
    """Seeded synthetic gain tuples for oracle and KKT exercises.

    Counter-based (Philox) so instances are reproducible and independent
    across (seed, trial) pairs: c uniform in (0.02, 0.98), d = 1 - c, and
    a log-uniform in [0.2, 5]. q is at least 1; seed and trial are
    integers in ExperimentConfig's and sample_channel's ranges.
    """
    linalg._check_int("q", q, 1)
    linalg._check_int("seed", seed, 0, 2**64)
    linalg._check_int("trial", trial, 0, experiments._TRIAL_LIMIT)
    gen = experiments._generator(experiments._key(seed, trial, _RNG_STREAM))
    c = 0.02 + 0.96 * gen.random(q)
    a = np.exp(gen.random(q) * math.log(25.0)) * 0.2
    return SubchannelGains(c=np.sort(c), d=1.0 - np.sort(c), a=a)
