"""Closed-form secrecy power allocation over GSVD subchannels.

The optimum over diagonal symbol powers p_i puts power only where the
receiver gain beats the eavesdropper gain (c_i > d_i), filling each such
subchannel to the largest root of its marginal-rate condition. A single
multiplier mu prices radiated power; bisecting it matches the budget
sum_i a_i p_i = P. Power is strictly decreasing in mu, which makes the
bisection bracket trivial to find.

Validation happens at the boundary, once per call: SubchannelGains checks
the gains when it is built, and power_for_mu and solve_mu check the
multiplier or budget on entry. solve_mu evaluates the closed form through a
check-free scalar core (_root, _power_curve) that builds no objects and
builds one PowerAllocation at the end; largest_root is the checked scalar
form of the same root. _roots is the same arithmetic over arrays: it serves
power_for_mu and _solve_batch, which replays solve_mu over the rows of a
whole campaign at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)
_GAIN_SUM_TOL = 1e-8
_REL_TOL = 1e-10
# Bracketing halves mu from mu_hi = max (c - d)/a at most k times. Then every
# lead (c - d)/(mu a) is at most about 2**k and every mu a at least
# (c - d) 2**-k >= 2**-(mant_dig + 1 + k), since secure pairs with c + d = 1
# differ by at least 2**-(mant_dig + 1). The cap keeps that above the
# smallest subnormal 2**(min_exp - mant_dig), so the roots stay finite and no
# product underflows to zero: 1019 halvings for IEEE doubles.
_HALVING_CAP = -sys.float_info.min_exp - 2
# Bisection steps beyond k: the bracket [mu_hi 2**-k, mu_hi] collapses to
# 4 ulp of its low end after k + mant_dig - 2 halvings.
_BISECT_EXTRA = 60


@dataclass(frozen=True)
class PowerAllocation:
    """Diagonal symbol powers plus the multiplier that produced them.

    mu is None for allocations that no multiplier generated (uniform
    baselines, grid search); effective_power is sum_i a_i p_i, the radiated
    total.
    """

    p: np.ndarray
    mu: float | None
    effective_power: float

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1:
            raise ValueError("p must be a 1-D array")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("powers must be finite and nonnegative")
        if self.mu is not None and not self.mu > 0:
            raise ValueError("mu must be positive when present")
        if not self.effective_power >= 0:
            raise ValueError("effective_power must be nonnegative")
        object.__setattr__(self, "p", p)


def _check_gain_pair(c, d, a):
    if not 0.0 <= c <= 1.0 or not 0.0 <= d <= 1.0:
        raise ValueError("gains must lie in [0, 1]")
    if abs(c + d - 1.0) > _GAIN_SUM_TOL:
        raise ValueError("gain pair must satisfy c + d = 1")
    if not a > 0:
        raise ValueError("beamformer column power a must be positive")


def _root(c, d, a, mu):
    """largest_root's arithmetic with no checks."""
    lead = (c - d) / (mu * a)
    radicand = max(1.0 - 4.0 * c * d + 4.0 * c * d * lead, 0.0)
    return 2.0 * (lead - 1.0) / (1.0 + math.sqrt(radicand))


def largest_root(c, d, a, mu):
    """Largest root of c/(1+xc) - d/(1+xd) = mu*a for a secure pair c > d.

    Uses the rationalized quadratic root
        x = 2 ((c - d)/(mu a) - 1) / (1 + sqrt(1 - 4cd + 4(c-d)cd/(mu a)))
    which avoids the 0/0 cancellation of the textbook (-1 + sqrt(.))/(2cd)
    form as d -> 0 and reduces there to the plain water-filling level
    1/(mu a) - 1. The radicand is nonnegative for any mu > 0 because
    (1 - 2d)^2 >= 0. May return a negative value (power clamping is the
    caller's job).
    """
    _check_gain_pair(c, d, a)
    if not c > d:
        raise ValueError("largest_root needs a secure pair (c > d)")
    if not mu > 0:
        raise ValueError("mu must be positive")
    return _root(c, d, a, mu)


def _power_curve(gains):
    """power(mu) -> (p, sum_i a_i p_i) for gains that SubchannelGains checked.

    Secure entries are kept as Python floats; insecure ones get exactly zero.
    The radiated total is the full-length dot product a @ p: a Python sum
    over the secure entries rounds differently.
    """
    c, d, a = gains.c, gains.d, gains.a
    secure = [(i, float(c[i]), float(d[i]), float(a[i]))
              for i in np.flatnonzero(c > d).tolist()]
    q = gains.q

    def power(mu):
        p = np.zeros(q)
        for i, ci, di, ai in secure:
            p[i] = max(0.0, _root(ci, di, ai, mu))
        return p, float(a.dot(p))

    return power


def _roots(cd, fcd, mu_a):
    """_root's arithmetic over arrays of cd = c - d, fcd = 4.0 * c * d and
    mu_a = mu * a, in the same operation order."""
    lead = cd / mu_a
    radicand = np.maximum(1.0 - fcd + fcd * lead, 0.0)
    return 2.0 * (lead - 1.0) / (1.0 + np.sqrt(radicand))


def power_for_mu(gains, mu):
    """Evaluate the closed-form allocation at a fixed multiplier.

    Insecure subchannels (c <= d) get exactly zero; secure ones get the
    largest root of their marginal condition, clamped at zero. A multiplier
    so small that some secure root is not a finite number raises ValueError.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    c, d, a = gains.c, gains.d, gains.a
    secure = c > d
    cs, ds = c[secure], d[secure]
    # mu * a may underflow to zero or the lead overflow; both show as a
    # root that is not finite, which is reported rather than clamped.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = _roots(cs - ds, 4.0 * cs * ds, mu * a[secure])
    if not np.all(np.isfinite(root)):
        raise ValueError(
            f"mu = {mu:g} is too small for these gains: the power of a "
            "secure subchannel is not a finite number")
    p = np.zeros(gains.q)
    p[secure] = np.where(root > 0.0, root, 0.0)
    return PowerAllocation(p=p, mu=float(mu), effective_power=float(a.dot(p)))


def solve_mu(gains, budget):
    """Find mu so the closed-form allocation radiates the whole budget.

    Returns the matching PowerAllocation. With no secure subchannel the
    optimum is silence and any multiplier certifies it; mu = 1.0 is stored.
    Bisection stops when |effective - budget| <= 1e-10 * budget, or when
    the mu bracket collapses to floating-point resolution (for extreme
    budgets the power evaluation's own rounding noise exceeds the relative
    criterion; the returned mu is then the best representable double).
    A finite budget that no representable multiplier reaches raises
    ValueError.
    """
    if not 0 < budget < math.inf:
        raise ValueError("budget must be positive and finite")
    c, d, a = gains.c, gains.d, gains.a
    secure = c > d
    if not np.any(secure):
        return PowerAllocation(p=np.zeros(gains.q), mu=1.0, effective_power=0.0)
    power = _power_curve(gains)

    # Power hits zero at mu_hi = max marginal rate per unit radiated power
    # (ln2-free convention) and grows without bound as mu -> 0+.
    mu_hi = float(np.max((c[secure] - d[secure]) / a[secure]))
    mu_lo, halvings = mu_hi, 0
    while True:
        mu_lo *= 0.5
        halvings += 1
        if halvings > _HALVING_CAP or mu_lo == 0.0:
            raise ValueError(
                f"power budget {budget:g} is beyond what any representable "
                "multiplier reaches on these gains")
        if power(mu_lo)[1] >= budget:
            break

    lo, hi = mu_lo, mu_hi
    best = None
    best_gap = math.inf
    for _ in range(halvings + _BISECT_EXTRA):
        mid = 0.5 * (lo + hi)
        p, effective = power(mid)
        gap = abs(effective - budget)
        if gap < best_gap:
            best, best_gap = (p, mid, effective), gap
        if gap <= _REL_TOL * budget:
            break
        if effective > budget:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * math.ulp(mid):
            break
    else:
        raise RuntimeError("power-budget bisection failed to converge")
    p, mu, effective = best
    return PowerAllocation(p=p, mu=mu, effective_power=effective)


def _batch_power(cd, fcd, a_den, a, mu):
    """Clamped powers and radiated totals of gain rows at a column of mu.

    The total is the stacked matmul a @ p per row: it rounds as the 1-D
    a.dot(p) of _power_curve does, where a row sum would not.
    """
    root = _roots(cd, fcd, mu[:, None] * a_den)
    p = np.where(root > 0.0, root, 0.0)  # clamps NaN to 0 like max(0.0, .)
    return p, (a[:, None, :] @ p[:, :, None])[:, 0, 0]


def _solve_batch(c, d, a, budgets):
    """solve_mu over every row of (n, q) gains, row r at budgets[r].

    Rows must be gains that SubchannelGains accepts and budgets positive
    and finite. Each row replays solve_mu's bracket, caps, midpoints, stop
    rule, ulp exit and best-gap choice in array arithmetic, so p, mu and the
    effective power equal solve_mu's bit for bit; rows leave the arrays as
    they finish. Returns (p, mu, effective), shaped (n, q), (n,), (n,). The
    first row that solve_mu would reject raises its error.
    """
    secure = c > d
    # Insecure entries get a zero lead at unit column power: their roots are
    # negative, clamp to zero, and never overflow.
    cd = np.where(secure, c - d, 0.0)
    fcd = np.where(secure, 4.0 * c * d, 0.0)
    a_den = np.where(secure, a, 1.0)
    mu = np.ones(c.shape[0])  # silence's multiplier, as in solve_mu

    # Bracket each row with a secure entry: halve mu from mu_hi until the
    # power reaches the budget.
    rows = np.flatnonzero(secure.any(axis=1))
    mu_hi = np.max(cd[rows] / a[rows], axis=1)
    lo = np.empty_like(mu)
    cap = np.empty(c.shape[0], dtype=int)
    state = [rows, mu_hi, budgets[rows], cd[rows], fcd[rows], a_den[rows], a[rows]]
    halvings, unreachable = 0, []
    while state[0].size:
        state[1] = state[1] * 0.5
        halvings += 1
        live = (state[1] != 0.0) & (halvings <= _HALVING_CAP)
        if not live.all():
            unreachable.extend(state[0][~live].tolist())
            state = [x[live] for x in state]
        at, mu_lo, budget, *gains = state
        reached = _batch_power(*gains, mu_lo)[1] >= budget
        if reached.any():
            lo[at[reached]] = mu_lo[reached]
            cap[at[reached]] = halvings + _BISECT_EXTRA
            state = [x[~reached] for x in state]
    if unreachable:
        raise ValueError(
            f"power budget {float(budgets[min(unreachable)]):g} is beyond "
            "what any representable multiplier reaches on these gains")

    # Bisect each row's bracket; mu takes a row's best midpoint as it ends.
    best_gap = np.full(rows.size, math.inf)
    state = [rows, lo[rows], mu_hi, budgets[rows], cap[rows], mu_hi, best_gap,
             cd[rows], fcd[rows], a_den[rows], a[rows]]
    steps = 0
    while state[0].size:
        at, lo_, hi, budget, cap_, best_mu, best_gap, *gains = state
        mid = 0.5 * (lo_ + hi)
        effective = _batch_power(*gains, mid)[1]
        gap = np.abs(effective - budget)
        better = gap < best_gap
        best_mu = np.where(better, mid, best_mu)
        best_gap = np.where(better, gap, best_gap)
        over = effective > budget
        lo_ = np.where(over, mid, lo_)
        hi = np.where(over, hi, mid)
        done = (gap <= _REL_TOL * budget) | (hi - lo_ <= 4.0 * np.spacing(mid))
        steps += 1
        if np.any(~done & (steps >= cap_)):
            raise RuntimeError("power-budget bisection failed to converge")
        state = [at, lo_, hi, budget, cap_, best_mu, best_gap, *gains]
        if done.any():
            mu[at[done]] = best_mu[done]
            state = [x[~done] for x in state]

    p, effective = _batch_power(cd, fcd, a_den, a, mu)
    return p, mu, effective


def input_covariance(factors, alloc):
    """Transmit covariance A diag(p) A^H realizing an allocation.

    Hermitian PSD by construction; its trace equals the allocation's
    effective power up to roundoff.
    """
    if alloc.p.shape[0] != factors.q:
        raise ValueError(
            f"allocation has {alloc.p.shape[0]} powers, factors have {factors.q}"
        )
    qx = (factors.a * alloc.p) @ factors.a.conj().T
    return 0.5 * (qx + qx.conj().T)
