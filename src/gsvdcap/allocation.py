"""Closed-form secrecy power allocation over GSVD subchannels.

The optimum over diagonal symbol powers p_i puts power only where the
receiver gain beats the eavesdropper gain (c_i > d_i), filling each such
subchannel to the largest root of its marginal-rate condition. A single
multiplier mu prices radiated power; bisecting it matches the budget
sum_i a_i p_i = P. Power is strictly decreasing in mu, which makes the
bisection bracket trivial to find.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)
_GAIN_SUM_TOL = 1e-8
_BISECT_CAP = 200
_REL_TOL = 1e-10


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
    lead = (c - d) / (mu * a)
    radicand = max(1.0 - 4.0 * c * d + 4.0 * c * d * lead, 0.0)
    return 2.0 * (lead - 1.0) / (1.0 + math.sqrt(radicand))


def power_for_mu(gains, mu):
    """Evaluate the closed-form allocation at a fixed multiplier.

    Insecure subchannels (c <= d) get exactly zero; secure ones get the
    largest root of their marginal condition, clamped at zero.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    c, d, a = gains.c, gains.d, gains.a
    p = np.zeros(gains.q)
    secure = np.flatnonzero(c > d)
    for i in secure:
        p[i] = max(0.0, largest_root(c[i], d[i], a[i], mu))
    return PowerAllocation(p=p, mu=float(mu), effective_power=float(a @ p))


def solve_mu(gains, budget):
    """Find mu so the closed-form allocation radiates the whole budget.

    Returns the matching PowerAllocation. With no secure subchannel the
    optimum is silence and any multiplier certifies it; mu = 1.0 is stored.
    Bisection stops when |effective - budget| <= 1e-10 * budget, or when
    the mu bracket collapses to floating-point resolution (for extreme
    budgets the power evaluation's own rounding noise exceeds the relative
    criterion; the returned mu is then the best representable double).
    """
    if not budget > 0:
        raise ValueError("budget must be positive")
    c, d, a = gains.c, gains.d, gains.a
    secure = c > d
    if not np.any(secure):
        return PowerAllocation(p=np.zeros(gains.q), mu=1.0, effective_power=0.0)

    # Power hits zero at mu_hi = max marginal rate per unit radiated power
    # (ln2-free convention) and grows without bound as mu -> 0+.
    mu_hi = float(np.max((c[secure] - d[secure]) / a[secure]))
    mu_lo = mu_hi
    for _ in range(_BISECT_CAP):
        mu_lo *= 0.5
        if power_for_mu(gains, mu_lo).effective_power >= budget:
            break
    else:
        raise RuntimeError("could not bracket the power budget from below")

    lo, hi = mu_lo, mu_hi
    best = None
    best_gap = math.inf
    for _ in range(_BISECT_CAP):
        mid = 0.5 * (lo + hi)
        cand = power_for_mu(gains, mid)
        gap = abs(cand.effective_power - budget)
        if gap < best_gap:
            best, best_gap = cand, gap
        if gap <= _REL_TOL * budget:
            return cand
        if cand.effective_power > budget:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * math.ulp(mid):
            return best
    raise RuntimeError("power-budget bisection failed to converge")


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
