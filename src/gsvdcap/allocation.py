"""Closed-form secrecy power allocation over GSVD subchannels.

The optimum over diagonal symbol powers p_i puts power only where the
receiver gain beats the eavesdropper gain (c_i > d_i), filling each such
subchannel to the largest root of its marginal-rate condition. A single
multiplier mu prices radiated power, and one root finder matches the
budget sum_i a_i p_i = P. Power is zero at mu_hi = max (c - d)/a and
strictly decreasing in mu below it.

Validation happens at the boundary, once per call: gains are checked once
where they are made (SubchannelGains' constructor, or subchannel_gains on
Python floats), and power_for_mu and solve_mu check the multiplier or
budget on entry. solve_mu turns the gains into Python floats once, keeps
the secure entries, and builds one PowerAllocation at the end, whose
constructor checks the powers on Python floats; between, nothing is
checked.

The closed-form root is written twice, once per layout, on the same terms
cd = c - d, fcd = 4.0 * c * d and mu_a = mu * a in the same operation order:
_root on Python floats, for largest_root (which checks its arguments first)
and solve_mu's evaluations (_power); and _roots on arrays, for power_for_mu
and _solve_batch's evaluations (_batch_power). The array callers share
_terms, which gives insecure entries inert terms whose root clamps to zero.

The root finder is Newton's method on the water level s = 1/mu. The
marginal condition c/(1+xc) - d/(1+xd) = mu a reads
    (1 + xc)(1 + xd) = (c - d) s / a,
so with c + d = 1 an active root rises at dx/ds = (c - d)/(a (1 + 2cdx)),
and the radiated power f at
    D = df/ds = sum over active entries of (c - d)/(1 + 2cdx),
a sum of positive terms. A Newton step in s is, in mu,
    mu' = mu / (1 + mu (P - f) / D),
a form in which no product of two small numbers underflows. It is exact in
one step on water-filling entries (d = 0), whose power is linear in s once
the set of active entries is right. The iteration starts at the
water-filling level min(n / (P + sum a/(c - d)), mu_hi / 2), n the number
of secure entries, and never goes below the floor mu_hi 2**-_HALVING_CAP.
A Newton step that leaves the bracket of evaluated points (lo over the
budget, hi under it) takes the bracket's geometric midpoint instead: the
floor, while no point over the budget is known. The iteration stops at
|f - P| <= BUDGET_TOL * P, or when the Newton step or the step taken moves
mu by 4 ulp or less (_FOUR_ULP). It returns the evaluated mu with the
smallest gap |f - P| and the powers evaluated there, so p equals
power_for_mu(mu).p. A budget still out of reach at the floor is out of
reach of every representable multiplier: ValueError.

solve_mu runs the iteration on Python floats for one pair, and _solve_batch
on arrays over the rows of a campaign. Both do the same IEEE operations in
the same order, and each sum that feeds the iteration (f, D and the start
level) is a dot product through one kernel: 1-D x.dot(y) in solve_mu, the
stacked x[:, None, :] @ y[:, :, None] per row in _solve_batch. (A row sum
would not do: numpy regroups a sum of 8 or more entries.) So every batch
row equals solve_mu's result bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .gsvd import SubchannelGains, _check_gains

LN2 = math.log(2.0)
# The search floor is mu_hi halved k times. At or above it every lead
# (c - d)/(mu a) is at most about 2**k and every mu a at least
# (c - d) 2**-k >= 2**-(mant_dig + 1 + k), since secure pairs with c + d = 1
# differ by at least 2**-(mant_dig + 1). The cap keeps that above the
# smallest subnormal 2**(min_exp - mant_dig), so the roots stay finite and no
# product underflows to zero: k = 1019 for IEEE doubles. It also bounds the
# Newton iterations, far above the handful that a solve takes.
_HALVING_CAP = -sys.float_info.min_exp - 2
# A step that moves mu by at most this fraction of it (4 to 8 ulp) ends the
# search: mu is then resolved to working precision. It is relative so that
# it holds among subnormals too, where 4 ulp would be a large part of mu.
_FOUR_ULP = 4.0 * sys.float_info.epsilon


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
        # One entry per subchannel, so the check runs on Python floats.
        if not all(0.0 <= x < math.inf for x in p.tolist()):
            raise ValueError("powers must be finite and nonnegative")
        if self.mu is not None and not self.mu > 0:
            raise ValueError("mu must be positive when present")
        if not self.effective_power >= 0:
            raise ValueError("effective_power must be nonnegative")
        object.__setattr__(self, "p", p)


def _check_budget(budget):
    """The one budget rule: raise unless budget is positive and finite."""
    if not 0 < budget < math.inf:
        raise ValueError("budget must be positive and finite")


def _check_powers(alloc, q, owner):
    """The one length rule: raise unless alloc has q powers, one per
    subchannel of owner, the gains or factors named in the message."""
    if alloc.p.shape[0] != q:
        raise ValueError(f"allocation has {alloc.p.shape[0]} powers, {owner} have {q}")


def _root(cd, fcd, mu_a):
    """largest_root's arithmetic with no checks, on cd = c - d,
    fcd = 4.0 * c * d and mu_a = mu * a: _roots on one entry."""
    lead = cd / mu_a
    r = 1.0 - fcd + fcd * lead
    return 2.0 * (lead - 1.0) / (1.0 + math.sqrt(0.0 if r < 0.0 else r))


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
    _check_gains(np.float64(c), np.float64(d), np.float64(a))
    if not c > d:
        raise ValueError("largest_root needs a secure pair (c > d)")
    if not mu > 0:
        raise ValueError("mu must be positive")
    return _root(c - d, 4.0 * c * d, mu * a)


def _power(secure, a, cd, mu):
    """solve_mu's evaluation at mu: (p, f, D) for its secure entries
    (i, a_i, c_i - d_i, 4.0 c_i d_i) and the full-length arrays a and cd
    (c - d on secure entries, 0 elsewhere).

    p holds each secure entry's _root clamped at zero; f = a @ p is the
    radiated power and D = cd @ w, w = 1/(1 + 0.5 fcd x) on active entries,
    its slope in s = 1/mu.
    """
    p = np.zeros(a.shape[0])
    w = np.zeros(a.shape[0])
    for i, ai, cdi, fcdi in secure:
        x = _root(cdi, fcdi, mu * ai)
        if x > 0.0:  # max(0.0, x): zero for NaN too
            p[i] = x
            w[i] = 1.0 / (1.0 + 0.5 * fcdi * x)
    return p, float(a.dot(p)), float(cd.dot(w))


def _roots(cd, fcd, mu_a):
    """_root's arithmetic over arrays, in the same operation order."""
    lead = cd / mu_a
    radicand = np.maximum(1.0 - fcd + fcd * lead, 0.0)
    return 2.0 * (lead - 1.0) / (1.0 + np.sqrt(radicand))


def _terms(c, d, a):
    """_roots' (cd, fcd, a) for gain arrays: c - d, 4.0 * c * d and a on
    secure entries, and 0, 0 and 1 on the rest. An inert entry has a zero
    lead at unit column power, so its root is -1 at every mu > 0: it clamps
    to zero and never overflows."""
    secure = c > d
    return (np.where(secure, c - d, 0.0), np.where(secure, 4.0 * c * d, 0.0),
            np.where(secure, a, 1.0))


def power_for_mu(gains, mu):
    """Evaluate the closed-form allocation at a fixed multiplier.

    Insecure subchannels (c <= d) get exactly zero; secure ones get the
    largest root of their marginal condition, clamped at zero. A multiplier
    so small that some secure root is not a finite number raises ValueError.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    cd, fcd, a_den = _terms(gains.c, gains.d, gains.a)
    # mu * a may underflow to zero or the lead overflow; both show as a
    # root that is not finite, which is reported rather than clamped.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = _roots(cd, fcd, mu * a_den)
    if not np.isfinite(root).all():
        raise ValueError(
            f"mu = {mu:g} is too small for these gains: the power of a "
            "secure subchannel is not a finite number")
    p = np.where(root > 0.0, root, 0.0)
    return PowerAllocation(p, float(mu), float(gains.a.dot(p)))


def _unreachable(budget):
    """The error of a budget that power at the floor still falls short of."""
    return ValueError(f"power budget {budget:g} is beyond what any "
                      "representable multiplier reaches on these gains")


def solve_mu(gains, budget):
    """Find mu so the closed-form allocation radiates the whole budget.

    Returns the matching PowerAllocation. With no secure subchannel the
    optimum is silence and any multiplier certifies it; mu = 1.0 is stored.
    The safeguarded Newton iteration on 1/mu (module docstring) stops when
    |effective - budget| <= linalg.BUDGET_TOL * budget, or when its step
    shrinks to 4 ulp of mu: for extreme budgets one ulp of mu moves the
    power by more than the relative criterion. It returns the evaluated
    multiplier with the smallest gap. A finite budget that no representable
    multiplier reaches raises ValueError.
    """
    _check_budget(budget)
    q = gains.q
    # The secure entries (i, a, c - d, 4.0 * c * d) as Python floats, each
    # product in _root's operation order.
    secure = [(i, a, c - d, 4.0 * c * d) for i, (c, d, a) in
              enumerate(zip(gains.c.tolist(), gains.d.tolist(),
                            gains.a.tolist())) if c > d]
    if not secure:
        return PowerAllocation(p=np.zeros(q), mu=1.0, effective_power=0.0)
    a, cd, inverse = gains.a, np.zeros(q), np.zeros(q)
    for i, _, cdi, _ in secure:
        cd[i], inverse[i] = cdi, 1.0 / cdi
    mu_hi = max(cdi / ai for _, ai, cdi, _ in secure)
    floor = math.ldexp(mu_hi, -_HALVING_CAP) or math.ulp(0.0)
    tol = linalg.BUDGET_TOL * budget
    with np.errstate(over="ignore"):  # a dot may overflow to inf
        level = float(a.dot(inverse))
        mu = max(min(len(secure) / (budget + level), 0.5 * mu_hi), floor)
        lo, hi, best_gap = 0.0, mu_hi, math.inf
        for _ in range(_HALVING_CAP):
            p, f, slope = _power(secure, a, cd, mu)
            gap = abs(f - budget)
            if gap <= best_gap:
                best, best_gap = (p, mu, f), gap
            if f < budget and mu == floor:
                raise _unreachable(budget)
            if gap <= tol:
                break
            if f > budget:
                lo = mu
            else:
                hi = mu
            den = 1.0 + mu * (budget - f) / slope if slope > 0.0 else math.inf
            newton = mu / den if den > 0.0 else 0.0
            # The bracket's geometric midpoint is the floor while lo is 0.0.
            step = max(newton if lo < newton < hi
                       else math.sqrt(lo) * math.sqrt(hi), floor)
            if min(abs(newton - mu), abs(step - mu)) <= _FOUR_ULP * mu:
                break
            mu = step
        else:
            raise RuntimeError("power-budget solve failed to converge")
    p, mu, effective = best
    return PowerAllocation(p=p, mu=mu, effective_power=effective)


def _rowdot(x, y):
    """x[r] @ y[r] for every row r, through the kernel of the 1-D x.dot(y)."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _batch_power(cd, fcd, a_den, a, mu):
    """_power over gain rows at a column of mu: (p, f, D), shaped (n, q),
    (n,), (n,)."""
    x = _roots(cd, fcd, mu[:, None] * a_den)
    active = x > 0.0  # clamps NaN to 0 like max(0.0, .)
    p = np.where(active, x, 0.0)
    w = np.where(active, 1.0 / (1.0 + 0.5 * fcd * x), 0.0)
    return p, _rowdot(a, p), _rowdot(cd, w)


# _batch_power's mu * a_den may overflow to inf, and the Newton step divide
# by zero, as solve_mu's Python floats do without a warning.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _solve_batch(c, d, a, budgets):
    """solve_mu over every row of (n, q) gains, row r at budgets[r].

    Rows must be gains that SubchannelGains accepts and budgets positive
    and finite. Every row runs solve_mu's iteration in array form, in the
    same operations, until it stops; each step evaluates power once over
    the rows still open. So p, mu and the effective power equal solve_mu's
    bit for bit. Returns (p, mu, effective), shaped (n, q), (n,), (n,).
    Rows whose budget no representable multiplier reaches raise solve_mu's
    ValueError for the first of them, once every row has stopped.
    """
    cd, fcd, a_den = _terms(c, d, a)
    secure = cd > 0.0
    # Rows with no secure entry never open: silence at mu = 1.0, as in
    # solve_mu.
    live = secure.any(axis=1)
    mu_hi = np.where(live, (cd / a).max(axis=1), 1.0)
    floor = np.ldexp(mu_hi, -_HALVING_CAP)
    floor[floor == 0.0] = math.ulp(0.0)
    tol = linalg.BUDGET_TOL * budgets
    level = _rowdot(a, np.where(secure, 1.0 / cd, 0.0))
    mu = np.maximum(np.minimum(secure.sum(axis=1) / (budgets + level),
                               0.5 * mu_hi), floor)
    lo, hi = np.zeros(mu.shape), mu_hi.copy()
    best, best_gap = mu_hi.copy(), np.full(mu.shape, math.inf)
    unreachable = np.zeros(mu.shape, dtype=bool)
    rows = live.nonzero()[0]
    for _ in range(_HALVING_CAP):
        if not rows.size:
            break
        m, budget = mu[rows], budgets[rows]
        _, f, slope = _batch_power(cd[rows], fcd[rows], a_den[rows], a[rows],
                                   m)
        gap = np.abs(f - budget)
        better = gap <= best_gap[rows]
        best[rows[better]], best_gap[rows[better]] = m[better], gap[better]
        stuck = (f < budget) & (m == floor[rows])
        over = f > budget
        lo[rows] = l = np.where(over, m, lo[rows])
        hi[rows] = h = np.where(over, hi[rows], m)
        den = 1.0 + m * (budget - f) / slope
        newton = np.where(den > 0.0, m / den, 0.0)
        step = np.maximum(np.where((l < newton) & (newton < h), newton,
                                   np.sqrt(l) * np.sqrt(h)), floor[rows])
        settled = (np.minimum(np.abs(newton - m), np.abs(step - m))
                   <= _FOUR_ULP * m)
        unreachable[rows[stuck]] = True
        mu[rows] = step
        rows = rows[~(stuck | (gap <= tol[rows]) | settled)]
    else:
        raise RuntimeError("power-budget solve failed to converge")
    if unreachable.any():
        raise _unreachable(budgets[unreachable.argmax()])
    p, effective, _ = _batch_power(cd, fcd, a_den, a, best)
    return p, best, effective


def input_covariance(factors, alloc):
    """Transmit covariance A diag(p) A^H realizing an allocation.

    Hermitian PSD by construction; its trace equals the allocation's
    effective power up to roundoff.
    """
    _check_powers(alloc, factors.q, "factors")
    qx = (factors.a * alloc.p) @ factors.a.conj().T
    return 0.5 * (qx + qx.conj().T)
