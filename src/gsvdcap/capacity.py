"""Secrecy rates, subspace bookkeeping, and the uniform baselines.

Rates come in two equivalent forms: the diagonal sum over subchannel gains
(fast path used everywhere) and the matrix log-det difference evaluated on
an explicit transmit covariance (cross-check path). The uniform baselines
split the budget between the eavesdropper's nullspace (S1, where d = 0) and
the remaining live directions (S2) according to a fraction rho.

The uniform baselines take the gains alone: S1 and S2 come from the one
rule _subspace_masks, which classify_subspaces reports as index sets. The
baselines check their inputs once per call. fraction_sweep validates the
budget and the whole rho grid once, then computes every grid point's
powers and rates as array expressions, with no per-point allocation
object; the secure-set baseline spreads a column of budgets over {c > d}
through the same _spread. Both work on boolean set masks over the last
axis, so one pair's gains and a stack of trials' gains run the same
code. _rate_bits is the one rate expression, over the last axis of any
stack of allocations, and _clamp the one rule that floors rates at zero.
A budget whose even spread overflows the power of a direction that gets
power is refused by name (_finite), with no RuntimeWarning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .allocation import LN2, PowerAllocation, _check_budget, _check_powers


@dataclass(frozen=True)
class SubspacePartition:
    """Index sets of the GSVD directions, by eavesdropper visibility.

    s1: receiver-visible but eavesdropper-null (d < eps, c >= eps).
    s2: visible to both (c >= eps, d >= eps).
    excluded: receiver-null (c < eps); transmitting there is wasted power.
    eps is linalg.NULL_EPS.
    """

    s1: np.ndarray
    s2: np.ndarray
    excluded: np.ndarray

    @property
    def dim_s1(self):
        return self.s1.shape[0]

    @property
    def dim_s2(self):
        return self.s2.shape[0]


@dataclass(frozen=True)
class RateCurve:
    """Rates sampled along a strictly increasing parameter grid."""

    param: np.ndarray
    rate_bits: np.ndarray

    def __post_init__(self):
        param = np.asarray(self.param, dtype=float)
        rates = np.asarray(self.rate_bits, dtype=float)
        if param.shape != rates.shape or param.ndim != 1:
            raise ValueError("param and rate_bits must be 1-D of equal length")
        if not (np.isfinite(param).all() and (param[1:] > param[:-1]).all()):
            raise ValueError("param grid must be finite and strictly increasing")
        if (rates < 0).any() or not np.isfinite(rates).all():
            raise ValueError("rates must be finite and nonnegative")
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "rate_bits", rates)


def _rate_bits(p, c, d):
    """Sum over the last axis of log2(1 + p c) - log2(1 + p d)."""
    return (np.log1p(p * c) - np.log1p(p * d)).sum(axis=-1) / LN2


def _clamp(rates):
    """max(0.0, r) per entry: negative, zero and NaN rates become 0."""
    return np.where(rates > 0.0, rates, 0.0)


def secrecy_rate(gains, alloc):
    """Sum of log2(1 + p c) - log2(1 + p d) over subchannels, in bits.

    For closed-form allocations this is nonnegative (power sits only where
    c > d); arbitrary allocations can push it negative.
    """
    _check_powers(alloc, gains.q, "gains")
    return float(_rate_bits(alloc.p, gains.c, gains.d))


def matrix_rate(channels, qx):
    """log2 det(I + Hr Qx Hr^H) - log2 det(I + He Qx He^H).

    The covariance qx must be finite, Hermitian and PSD with n_t rows (its
    smallest eigenvalue at least -linalg.PSD_TOL * max(1, ||qx||_F)); this
    is the slow-path cross-check for secrecy_rate.
    """
    qx = linalg.as_matrix(qx)
    n_t = channels.n_t
    if qx.shape != (n_t, n_t):
        raise ValueError(f"covariance must be {n_t} x {n_t}, got {qx.shape}")
    scale = max(1.0, np.linalg.norm(qx))
    if np.linalg.norm(qx - qx.conj().T) > linalg.HERMITIAN_TOL * scale:
        raise ValueError("covariance must be Hermitian")
    if np.linalg.eigvalsh(qx)[0] < -linalg.PSD_TOL * scale:
        raise ValueError("covariance is not positive semidefinite")
    hr, he = channels.hr, channels.he
    sign_r, logdet_r = np.linalg.slogdet(
        np.eye(channels.n_r) + hr @ qx @ hr.conj().T)
    sign_e, logdet_e = np.linalg.slogdet(
        np.eye(channels.n_e) + he @ qx @ he.conj().T)
    if sign_r.real <= 0 or sign_e.real <= 0:
        raise ValueError("covariance is not positive semidefinite")
    return float((logdet_r - logdet_e) / LN2)


def classify_subspaces(gains):
    """Partition subchannel indices by which receivers can see them."""
    s1, s2 = _subspace_masks(gains.c, gains.d)
    return SubspacePartition(s1=np.flatnonzero(s1), s2=np.flatnonzero(s2),
                             excluded=np.flatnonzero(~(s1 | s2)))


def _subspace_masks(c, d):
    """The one S1/S2 rule: classify_subspaces' S1 and S2 as boolean masks
    over the last axis of c and d, for one pair's gains or a stack of them.
    Entries in neither mask are receiver-null (c < eps)."""
    eps = linalg.NULL_EPS
    seen = c >= eps
    return seen & (d < eps), seen & (d >= eps)


def _spread(mask, share, a, mode):
    """Powers that radiate `share` evenly over the entries of mask, zero
    elsewhere. mask and a run over the last axis and may carry leading
    axes; share holds one share per row, shaped (..., rows, 1). Returns
    (..., rows, q). A share too large for its columns leaves inf on the
    entries it overflows, with no warning: see _finite."""
    with np.errstate(over="ignore"):
        if mode == "transmit":
            # Equal radiated power per direction.
            count = np.maximum(mask.sum(axis=-1), 1)
            p = share / count[..., None, None] / a[..., None, :]
        elif mode == "symbol":
            # Equal symbol power per direction, scaled to radiate `share`.
            p = share / _subset_sums(a, mask)[..., None, None]
        else:
            raise ValueError(f"unknown uniform mode {mode!r}")
    return np.where(mask[..., None, :], p, 0.0)


def _finite(p, budget):
    """p, unless a power that _spread kept overflowed: then the ValueError
    of a budget too large for these gains, naming it. Powers are never
    negative, so one max, with no temporary array, finds an inf or NaN."""
    if not p.max(initial=0.0) < np.inf:
        raise ValueError(f"power budget {budget:g} is too large for these "
                         "gains: a uniform power is not a finite number")
    return p


def _subset_sums(a, mask):
    """np.sum(a[mask]) per row of the last axis, and 1 for an empty mask.

    Each row sums its own subset: a masked sum over whole rows would let
    numpy's pairwise summation group the terms differently.
    """
    q = a.shape[-1]
    sums = [np.sum(x[m]) if m.any() else 1.0
            for x, m in zip(a.reshape(-1, q), mask.reshape(-1, q))]
    return np.reshape(sums, mask.shape[:-1])


def _uniform_powers(c, d, a, budget, rho, mode, secure_only):
    """Checked once, the powers of uniform_allocation for each entry of the
    1-D array rho, over the last axis of the gains, which may carry leading
    axes: (..., rho, q). S1 and S2 are the gains' own _subspace_masks."""
    s1, s2 = _subspace_masks(c, d)
    _check_budget(budget)
    if not ((rho >= 0.0) & (rho <= 1.0)).all():
        raise ValueError("rho must lie in [0, 1]")
    has1, has2 = s1.any(axis=-1), s2.any(axis=-1)
    if not (has1 | has2).all():
        raise ValueError("no usable transmit directions")
    target2 = s2
    if secure_only:
        secure = s2 & (c > d)
        target2 = np.where(secure.any(axis=-1, keepdims=True), secure, s2)
    rho = np.where(has1[..., None], np.where(has2[..., None], rho, 0.0), 1.0)
    rho = rho[..., None]
    # A zero share spreads to exact zeros, so every row can fill both sets.
    p1 = _spread(s1, (1.0 - rho) * budget, a, mode)
    p2 = _spread(target2, rho * budget, a, mode)
    return _finite(np.where(target2[..., None, :], p2, p1), budget)


def uniform_allocation(gains, budget, rho, mode="transmit",
                       secure_only=False):
    """Uniform baseline: fraction rho of the budget to S2, the rest to S1.

    S1 and S2 are classify_subspaces(gains)' sets, worked out from the gains.

    With an empty S1 the whole budget goes to S2 (and the other way round),
    whatever rho says; excluded directions never get power. The budget is in
    radiated (effective) power. secure_only narrows the S2 spread to its
    secure members {c > d}: that is the scheme whose peak over rho meets the
    capacity at high SNR, since the optimum never radiates on a direction
    the eavesdropper hears better. (Falls back to all of S2 when none of it
    is secure, so the budget is always radiated in full.)
    """
    p = _uniform_powers(gains.c, gains.d, gains.a, budget,
                        np.array([rho], dtype=float), mode, secure_only)[0]
    return PowerAllocation(p=p, mu=None, effective_power=float(gains.a @ p))


def uniform_secure_allocation(gains, budget, mode="transmit"):
    """Uniform baseline over the secure set {c > d} only.

    This is the fair comparison when the eavesdropper nullspace is empty:
    silence on every direction the eavesdropper hears at least as well as
    the receiver, the budget spread evenly across the rest. Returns the
    all-zero allocation when nothing is secure.
    """
    _check_budget(budget)
    p = _finite(_spread(gains.c > gains.d, np.array([[budget]], dtype=float),
                        gains.a, mode)[0], budget)
    return PowerAllocation(p=p, mu=None, effective_power=float(gains.a @ p))


def fraction_sweep(gains, budget, rho_grid, mode="transmit",
                   secure_only=True):
    """Uniform-baseline rate as a function of the S2 power fraction rho.

    The S2 share goes to its secure members by default (see
    uniform_allocation); that is the curve whose peak tracks the capacity.
    Negative sums are clamped to zero: silence always achieves zero secrecy,
    so a negative value is never the achievable rate of the scheme. Each
    point equals max(0, secrecy_rate) of that rho's uniform_allocation.
    """
    grid = np.asarray(rho_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("rho grid must be a nonempty 1-D array")
    p = _uniform_powers(gains.c, gains.d, gains.a, budget, grid, mode,
                        secure_only)
    return RateCurve(param=grid,
                     rate_bits=_clamp(_rate_bits(p, gains.c, gains.d)))
