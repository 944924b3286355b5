"""Closed-form secrecy power allocation over GSVD subchannels.

The optimum over diagonal symbol powers p_i puts power only where the
receiver gain beats the eavesdropper gain (c_i > d_i), filling each such
subchannel to the largest root of its marginal-rate condition. A single
multiplier mu prices radiated power; bisecting it matches the budget
sum_i a_i p_i = P. Power is strictly decreasing in mu, which makes the
bisection bracket trivial to find.

Validation happens at the boundary, once per call: SubchannelGains checks
the gains when it is built, and power_for_mu and solve_mu check the
multiplier or budget on entry. solve_mu turns the gains into Python floats
once, keeps the secure entries, and builds one PowerAllocation at the end;
between, nothing is checked.

The closed-form root is written twice, once per layout, on the same terms
cd = c - d, fcd = 4.0 * c * d and mu_a = mu * a in the same operation order:
_root on Python floats, for largest_root (which checks its arguments first),
solve_mu's power curve (_power_curve, the one hook through which it
evaluates power) and the Newton estimate in _anchors; and _roots on arrays,
for power_for_mu and _solve_batch, which replays solve_mu over the rows of a
whole campaign at once. The array callers share _terms, which gives insecure
entries inert terms whose root clamps to zero.

solve_mu's bisection is evaluated only near the root. A safeguarded Newton
iteration estimates the root: with A the total a of the entries that get
power, it steps log mu by (log(f + A) - log(budget + A)) (f + A) / g, where
g = -mu df/dmu = sum a / (c/(1+pc) + d/(1+pd)) comes from the marginal
condition itself, so water-filling entries land in one step. Power is
evaluated at anchors est / (1 + w) and est (1 + w), w from
_WIDTH = 4 BUDGET_TOL widened x100 until one anchor is over the budget and
one under it by more than the stop rule's tolerance. The bisection is then replayed
midpoint for midpoint, and a midpoint at or beyond an anchor pulled out by
the relative margin _SEP = 2**-34 takes the anchor's comparison without an
evaluation: power is monotone across such gaps even in floating point. If
the replay ends at the ulp exit with a best gap that a skipped midpoint
could have beaten, the loop runs again with no anchors. Either way p, mu and
the effective power equal the full bisection's bit for bit: anchors only
place evaluations. _solve_batch does the same over the rows of a batch:
anchors for every row at once, then one replay of the rows with both
anchors, in which a decided step costs a few comparisons on (n,) arrays and
each evaluation round is one power evaluation over every row, whose results
only the open rows keep. A row that this does not settle (an anchor
missing, a window of 8 ulp or less, a bracket candidate inside the window,
or the ulp exit) takes solve_mu itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .gsvd import SubchannelGains, _check_gains

LN2 = math.log(2.0)
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
# Why a comparison decided by an anchor needs no evaluation. Take mu < mu'
# whose relative gap is at least _SEP. mu * a rounds monotonically, so the
# computed lead (c - d)/(mu a) is at least that at mu'; it is either equal,
# giving equal roots, or larger by at least about _SEP relative: subnormal
# products round to a grid coarser than that or finer than _SEP / 2. The
# root 2 (lead - 1) / (1 + sqrt(1 - 4cd + 4cd lead)) then has a numerator
# larger by at least that relative gap and a denominator larger by at most
# half of it, each up to a few ulp u of rounding, so every clamped p_i is at
# least its value at mu'. The radiated total a @ p adds nonnegative terms
# with a > 0 in a fixed order, with relative rounding at most q u, and every
# rounding is monotone, so it is at least its value at mu' too. All of this
# needs _SEP well above (q + 6) u, u = 2**-53: _SEP = 2**-34 = 2**19 u, so
# every q with q + 6 <= 2**13 leaves a 64x margin, (q + 6) u <= _SEP / 64.
# Hence a point at or below an over-budget anchor pulled down by _SEP is
# over budget by at least as much, and one at or above an under-budget
# anchor pulled up by _SEP falls short by at least as much.
_SEP = 2.0 ** -34
# The anchors' first half-width. Every power curve falls at least as fast as
# mu**-1/2, so anchors est / (1 + w) and est (1 + w) around the exact root
# miss the budget by at least w / 2 relative: w = 2 BUDGET_TOL is the
# narrowest width whose anchors clear the stop rule, and _WIDTH twice that.
_WIDTH = 4.0 * linalg.BUDGET_TOL


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
        if (p < 0).any() or not np.isfinite(p).all():
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


def _power_curve(gains):
    """power(mu) -> (p, sum_i a_i p_i) for gains = (a, secure): the column
    powers of gains that SubchannelGains checked and their secure entries
    as solve_mu builds them.

    Each secure entry gets its _root clamped at zero; insecure entries get
    exactly zero. The radiated total is the full-length dot product
    a @ p: a Python sum over the secure entries rounds differently.
    """
    a, secure = gains
    q = a.shape[0]

    def power(mu):
        p = np.zeros(q)
        for i, _, _, ai, cd, fcd in secure:
            x = _root(cd, fcd, mu * ai)
            if x > 0.0:  # max(0.0, x): zero for NaN too
                p[i] = x
        return p, float(a.dot(p))

    return power


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


def _anchors(power, entries, budget, mu_hi):
    """Evaluated multipliers on both sides of the root, pulled out by _SEP.

    entries are solve_mu's secure entries. Returns
    (x_lo, x_hi, gap): x_lo is the largest evaluated mu whose effective
    power exceeds the budget by more than the stop rule's tolerance, x_hi
    the smallest one that falls short by more than it (0.0 and inf stand
    for none), and gap the smaller of their two gaps |effective - budget|.

    Where to look comes from an estimate: Newton on log (f + A) against
    log mu, f the radiated power and A the total a of the entries with
    positive power, from the water-filling level
    n / (budget + sum a/(c - d)) capped at mu_hi / 2, with at most 12 steps
    each clipped to +-8 in log mu and kept inside the bracket its own
    evaluations have found (a step that leaves it takes the bracket's
    geometric midpoint). At a positive root u - v = mu a for
    u = c/(1+xc) and v = d/(1+xd), so m'(x) = v^2 - u^2 = -mu a (u + v) and
    g = -mu df/dmu = sum a / (u + v), a sum of positive terms with no
    cancellation. The step (log(f + A) - log(budget + A)) (f + A) / g is
    exact in one iteration for water-filling entries (d = 0), whose
    f + A = n / mu, once the set with positive power is right. Anchors are
    then evaluated at est / (1 + w) and est (1 + w) for w = _WIDTH, widened
    x100 up to 6 times until both sides are found. Nothing rests on the
    estimate: the anchors are real evaluations of power.
    """
    # Below mu_hi 2**-_HALVING_CAP a lead may overflow and its root turn NaN,
    # which clamps to 0: power stops growing there, so nothing is evaluated
    # below it. At or above it every mu a is positive and every root finite.
    floor = math.ldexp(mu_hi, -_HALVING_CAP) or math.ulp(0.0)
    tol = linalg.BUDGET_TOL * budget
    lo, hi = 0.0, mu_hi
    level = sum(a / cd for _, _, _, a, cd, _ in entries)
    mu = min(len(entries) / (budget + level), 0.5 * mu_hi)
    for _ in range(12):
        mu = max(mu, floor)
        f = active = g = 0.0
        for _, c, d, a, cd, fcd in entries:
            x = _root(cd, fcd, mu * a)
            if x > 0.0:
                f += a * x
                active += a
                g += a / (c / (1.0 + x * c) + d / (1.0 + x * d))
        if f > budget:
            lo = mu
        else:
            hi = mu
        step = 8.0 if f > budget else -8.0
        if f > 0.0:
            newton = ((math.log(f + active) - math.log(budget + active))
                      * (f + active) / g)
            if math.isfinite(newton):
                step = max(-8.0, min(8.0, newton))
        est = mu * math.exp(step)
        if abs(est - mu) <= 1e-7 * mu:
            break
        if not lo < est < hi:  # then lo > 0: an overshoot past a bound
            est = math.sqrt(lo) * math.sqrt(hi)
        mu = est
    mu = max(est, floor)

    x_lo, x_hi, w = 0.0, math.inf, _WIDTH
    gap_lo = gap_hi = math.inf
    for _ in range(7):
        for low, x in ((True, mu / (1.0 + w)), (False, mu * (1.0 + w))):
            if (x_lo > 0.0 if low else x_hi < math.inf) or x < floor:
                continue
            effective = power(x)[1]
            if effective - budget > tol and x > x_lo:
                x_lo, gap_lo = x, effective - budget
            elif budget - effective > tol and x < x_hi:
                x_hi, gap_hi = x, budget - effective
        if x_lo > 0.0 and x_hi < math.inf:
            break
        w *= 100.0
    return x_lo * (1.0 - _SEP), x_hi * (1.0 + _SEP), min(gap_lo, gap_hi)


def _replay(power, budget, mu_hi, x_lo=0.0, x_hi=math.inf):
    """solve_mu's bracket and bisection, evaluating power only strictly
    between x_lo and x_hi.

    A point at or below x_lo is taken as over the budget and not done, one
    at or above x_hi as under it and not done (see solve_mu). Returns the
    best-gap (p, mu, effective) among the evaluated midpoints and its gap;
    with the default bounds that is the full bisection's result.
    """
    mu_lo, halvings = mu_hi, 0
    while True:
        mu_lo *= 0.5
        halvings += 1
        if halvings > _HALVING_CAP or mu_lo == 0.0:
            raise ValueError(
                f"power budget {budget:g} is beyond what any representable "
                "multiplier reaches on these gains")
        if mu_lo <= x_lo or mu_lo < x_hi and power(mu_lo)[1] >= budget:
            break

    lo, hi = mu_lo, mu_hi
    best = None
    best_gap = math.inf
    tol = linalg.BUDGET_TOL * budget
    for _ in range(halvings + _BISECT_EXTRA):
        mid = 0.5 * (lo + hi)
        over = mid <= x_lo
        if not over and mid < x_hi:
            p, effective = power(mid)
            gap = abs(effective - budget)
            if gap < best_gap:
                best, best_gap = (p, mid, effective), gap
            if gap <= tol:
                break
            over = effective > budget
        if over:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * math.ulp(mid):
            break
    else:
        raise RuntimeError("power-budget bisection failed to converge")
    return best, best_gap


def solve_mu(gains, budget):
    """Find mu so the closed-form allocation radiates the whole budget.

    Returns the matching PowerAllocation. With no secure subchannel the
    optimum is silence and any multiplier certifies it; mu = 1.0 is stored.
    Bisection stops when |effective - budget| <= linalg.BUDGET_TOL * budget,
    or when the mu bracket collapses to floating-point resolution (for
    extreme budgets the power evaluation's own rounding noise exceeds the
    relative criterion; the returned mu is then the best representable
    double).
    A finite budget that no representable multiplier reaches raises
    ValueError.

    The bisection is evaluated only near the root. A Newton estimate of mu
    places anchor evaluations on both sides of it (_anchors), and the
    bisection is replayed midpoint for midpoint, taking every comparison
    that an anchor decides without evaluating power (_replay). A midpoint
    beyond an anchor pulled out by the relative margin _SEP compares as the
    anchor does (see _SEP), and its gap is at least the anchor's. So the
    result equals the full bisection's bit for bit whenever the best
    evaluated gap beats the anchors' gaps, which the stop rule always
    gives; otherwise (the ulp exit) the loop runs again with no anchors,
    which is the full bisection.
    """
    _check_budget(budget)
    # The secure entries (i, c, d, a, c - d, 4.0 * c * d) as Python floats,
    # each product in _root's operation order.
    secure = [(i, c, d, a, c - d, 4.0 * c * d) for i, (c, d, a) in
              enumerate(zip(gains.c.tolist(), gains.d.tolist(),
                            gains.a.tolist())) if c > d]
    if not secure:
        return PowerAllocation(p=np.zeros(gains.q), mu=1.0, effective_power=0.0)
    power = _power_curve((gains.a, secure))

    # Power hits zero at mu_hi = max marginal rate per unit radiated power
    # (ln2-free convention) and grows without bound as mu -> 0+.
    mu_hi = max(cd / a for _, _, _, a, cd, _ in secure)
    x_lo, x_hi, anchor_gap = _anchors(power, secure, budget, mu_hi)
    best, best_gap = _replay(power, budget, mu_hi, x_lo, x_hi)
    if not best_gap < anchor_gap:
        best, _ = _replay(power, budget, mu_hi)
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


# Decided steps taken between checks for whether any row still moves.
_BLOCK = 8


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _batch_anchors(c, d, gains, budgets, mu_hi, live):
    """_anchors over the rows of a batch: (x_lo, x_hi, gap), each (n,).

    The same two stages in array form. _anchors' Newton step on log (f + A)
    against log mu runs on every row at once from the water-filling level,
    each step clipped to +-8 and kept inside the bracket the row's own
    estimates have found, at most 12 times or until every live row moves by
    1e-7 relative or less. Power is then evaluated at est / (1 + w) and est
    (1 + w), w = _WIDTH widened x100 up to 6 times on the rows that still
    lack a side, in one _batch_power call per width. Only these are
    evaluations of power, so the estimate need not be _anchors': any real
    anchor pulled out by _SEP keeps the replay exact, and a row with none
    gets 0.0 and inf. The estimate's own overflows and 0/0s go unreported: a
    bad estimate only widens w.
    """
    cd, fcd, a_den, a = gains
    secure = cd > 0.0
    floor = np.ldexp(mu_hi, -_HALVING_CAP)
    floor[floor == 0.0] = math.ulp(0.0)
    level = np.where(secure, a / cd, 0.0).sum(axis=1)
    mu = np.minimum(secure.sum(axis=1) / (budgets + level), 0.5 * mu_hi)
    lo, hi = np.zeros_like(mu), mu_hi.copy()
    for _ in range(12):
        mu = np.maximum(mu, floor)
        x = _roots(cd, fcd, mu[:, None] * a_den)
        rising = x > 0.0
        f = np.where(rising, a * x, 0.0).sum(axis=1)
        active = np.where(rising, a, 0.0).sum(axis=1)
        g = np.where(rising, a / (c / (1.0 + x * c) + d / (1.0 + x * d)),
                     0.0).sum(axis=1)
        over = f > budgets
        lo, hi = np.where(over, mu, lo), np.where(over, hi, mu)
        newton = ((np.log(f + active) - np.log(budgets + active))
                  * (f + active) / g)
        step = np.where((f > 0.0) & np.isfinite(newton),
                        np.clip(newton, -8.0, 8.0), np.where(over, 8.0, -8.0))
        est = mu * np.exp(step)
        settled = np.abs(est - mu) <= 1e-7 * mu
        mu = np.where(settled | (lo < est) & (est < hi), est,
                      np.sqrt(lo) * np.sqrt(hi))
        if np.all(settled | ~live):
            break
    mu = np.maximum(mu, floor)

    tol = linalg.BUDGET_TOL * budgets
    x_lo, x_hi = np.zeros_like(mu), np.full_like(mu, math.inf)
    gap_lo, gap_hi = np.full_like(mu, math.inf), np.full_like(mu, math.inf)
    w = _WIDTH
    for _ in range(7):
        down, up = mu / (1.0 + w), mu * (1.0 + w)
        low = np.flatnonzero(live & (x_lo == 0.0) & (down >= floor))
        high = np.flatnonzero(live & (x_hi == math.inf) & (up >= floor))
        if low.size + high.size == 0:
            break
        rows = np.concatenate((low, high))
        xs = np.concatenate((down[low], up[high]))
        excess = _batch_power(cd[rows], fcd[rows], a_den[rows], a[rows],
                              xs)[1] - budgets[rows]
        # A row may hold one point of each side: take the low side first.
        for part in (slice(0, low.size), slice(low.size, None)):
            r, x, e = rows[part], xs[part], excess[part]
            over = (e > tol[r]) & (x > x_lo[r])
            under = ~over & (-e > tol[r]) & (x < x_hi[r])
            x_lo[r[over]], gap_lo[r[over]] = x[over], e[over]
            x_hi[r[under]], gap_hi[r[under]] = x[under], -e[under]
        w *= 100.0
    return x_lo * (1.0 - _SEP), x_hi * (1.0 + _SEP), np.minimum(gap_lo, gap_hi)


def _replay_batch(gains, budgets, mu_hi, anchored, x_lo, x_hi):
    """_replay over the anchored rows of a batch: each row's bracket and
    bisection, using power only strictly between its x_lo and x_hi.

    A point at or below x_lo is decided as over the budget and one at or
    above x_hi as under it, by comparison alone, in place on (n,) arrays;
    x_lo < x_hi, since no point is both (see _SEP), and the caller anchors
    only rows with x_hi - x_lo > 8 ulp(x_hi). The bracket halves mu from
    mu_hi while its candidate is decided as under; a row whose candidate
    then lies above x_lo (it would need an evaluation) or that passed
    _HALVING_CAP (solve_mu raises there) is parked for the caller.
    In the bisection a row whose midpoint lies inside its window does not
    move: it waits there until every row waits, and then one evaluation
    round runs: power is evaluated once over every row, at mu_hi on the
    rows that are not open (where every power is finite), and each open row
    takes its result through a mask. So decided steps run in unchecked
    blocks of _BLOCK, and an evaluation round is one _batch_power call with
    no gathers. A closed row is parked at x_lo = 0.0 and x_hi = inf, where
    no step is decided, and no result is taken for it again. A decided step
    keeps [x_lo, x_hi] inside the bracket, so while lo <= x_lo < x_hi <= hi
    the collapse rule hi - lo <= 4 ulp(mid) cannot fire on it: mid below
    2 x_hi has an ulp of at most 2 ulp(x_hi), and one above it leaves a
    bracket of over mid / 2. Only the other rows check the rule on decided
    steps; every evaluated step checks it.
    Returns (mu, gap): each row's best-gap midpoint and its gap, mu_hi and
    inf on rows that are not anchored, parked in the bracket or never
    evaluated.
    """
    x_lo = np.where(anchored, x_lo, 0.0)
    x_hi = np.where(anchored, x_hi, math.inf)
    n = budgets.size
    move, over, under = (np.empty(n, dtype=bool) for _ in range(3))

    def park(mask):
        open_[mask] = False
        x_lo[mask], x_hi[mask] = 0.0, math.inf

    # Bracket: halve mu from mu_hi while the candidate is at or above x_hi.
    lo = np.where(anchored, 0.5 * mu_hi, mu_hi)
    halvings = anchored.astype(int)
    while True:
        for k in range(_BLOCK):
            np.greater_equal(lo, x_hi, out=move)
            np.multiply(lo, 0.5, out=lo, where=move)
            halvings += move
            if k == 0 and not move.any():
                break
        if not move.any():
            break
    open_ = anchored & (lo <= x_lo) & (halvings <= _HALVING_CAP)
    park(anchored & ~open_)

    # Bisect each row's bracket, keeping its best midpoint.
    cap = halvings + _BISECT_EXTRA
    steps = np.zeros(n, dtype=int)
    hi = mu_hi.copy()
    mu, best_gap = mu_hi.copy(), np.full(n, math.inf)
    tol = linalg.BUDGET_TOL * budgets
    mid = np.empty(n)
    while open_.any():
        room = np.min(cap[open_] - steps[open_])
        if room <= 0:
            raise RuntimeError("power-budget bisection failed to converge")
        watch = open_ & ~((lo <= x_lo) & (x_hi <= hi))
        watched = watch.any()
        for k in range(min(_BLOCK, room)):
            np.add(lo, hi, out=mid)
            mid *= 0.5
            np.less_equal(mid, x_lo, out=over)
            np.greater_equal(mid, x_hi, out=under)
            np.copyto(lo, mid, where=over)
            np.copyto(hi, mid, where=under)
            np.logical_or(over, under, out=move)
            steps += move
            if watched:
                park(watch & move & (hi - lo <= 4.0 * np.spacing(mid)))
            if k == 0 and not move.any():
                break
        if move.any():
            continue
        total = _batch_power(*gains, np.where(open_, mid, mu_hi))[1]
        gap = np.abs(total - budgets)
        better = open_ & (gap < best_gap)
        np.copyto(mu, mid, where=better)
        np.copyto(best_gap, gap, where=better)
        np.greater(total, budgets, out=over)
        np.copyto(lo, mid, where=open_ & over)
        np.copyto(hi, mid, where=open_ & ~over)
        steps += open_
        park(open_ & ((gap <= tol) | (hi - lo <= 4.0 * np.spacing(mid))))
    return mu, best_gap


# _batch_power's mu * a_den may overflow to inf, as solve_mu's Python-float
# product does without a warning; the rows stay equal.
@np.errstate(over="ignore")
def _solve_batch(c, d, a, budgets):
    """solve_mu over every row of (n, q) gains, row r at budgets[r].

    Rows must be gains that SubchannelGains accepts and budgets positive
    and finite. The rows follow solve_mu's design together: batched anchors
    (_batch_anchors), then one batched replay of the bracket and the
    bisection on the rows with both anchors, using power only inside each
    row's anchor window (_replay_batch). A row that this does not settle
    takes solve_mu itself: it lacks an anchor, its anchors are 8 ulp apart
    or less, its bracket needs an evaluation, or its best gap does not beat
    its anchors' (the ulp exit).
    So p, mu and the effective power equal solve_mu's bit for bit. Returns
    (p, mu, effective), shaped (n, q), (n,), (n,). A row that solve_mu
    would reject raises its error.
    """
    cd, fcd, a_den = _terms(c, d, a)
    gains = (cd, fcd, a_den, a)
    # Rows with no secure entry never open: silence at mu = 1.0, as in
    # solve_mu.
    live = (cd > 0.0).any(axis=1)
    mu_hi = np.where(live, np.max(cd / a, axis=1), 1.0)

    x_lo, x_hi, anchor_gap = _batch_anchors(c, d, gains, budgets, mu_hi, live)
    # Anchors are about 2 _SEP apart, far above 8 ulp, except where they
    # are subnormal: there a decided step could pass the collapse rule.
    anchored = (live & (x_lo > 0.0) & (x_hi < math.inf)
                & (x_hi - x_lo > 8.0 * np.spacing(x_hi)))
    mu, best_gap = _replay_batch(gains, budgets, mu_hi, anchored, x_lo, x_hi)
    for r in np.flatnonzero(live & ~(best_gap < anchor_gap)):
        mu[r] = solve_mu(SubchannelGains(c[r], d[r], a[r]),
                         float(budgets[r])).mu
    p, effective = _batch_power(*gains, mu)
    return p, mu, effective


def input_covariance(factors, alloc):
    """Transmit covariance A diag(p) A^H realizing an allocation.

    Hermitian PSD by construction; its trace equals the allocation's
    effective power up to roundoff.
    """
    _check_powers(alloc, factors.q, "factors")
    qx = (factors.a * alloc.p) @ factors.a.conj().T
    return 0.5 * (qx + qx.conj().T)
