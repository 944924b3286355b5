"""Secrecy rates, subspace bookkeeping, and the uniform baselines.

Rates come in two equivalent forms: the diagonal sum over subchannel gains
(fast path used everywhere) and the matrix log-det difference evaluated on
an explicit transmit covariance (cross-check path). The uniform baselines
split the budget between the eavesdropper's nullspace (S1, where d = 0) and
the remaining live directions (S2) according to a fraction rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocation import PowerAllocation

LN2 = math.log(2.0)
NULL_EPS = 1e-9


@dataclass(frozen=True)
class SubspacePartition:
    """Index sets of the GSVD directions, by eavesdropper visibility.

    s1: receiver-visible but eavesdropper-null (d < eps, c >= eps).
    s2: visible to both (c >= eps, d >= eps).
    excluded: receiver-null (c < eps); transmitting there is wasted power.
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
        if param.size and np.any(np.diff(param) <= 0):
            raise ValueError("param grid must be strictly increasing")
        if np.any(rates < 0) or not np.all(np.isfinite(rates)):
            raise ValueError("rates must be finite and nonnegative")
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "rate_bits", rates)


def secrecy_rate(gains, alloc):
    """Sum of log2(1 + p c) - log2(1 + p d) over subchannels, in bits.

    For closed-form allocations this is nonnegative (power sits only where
    c > d); arbitrary allocations can push it negative.
    """
    p = alloc.p
    if p.shape[0] != gains.q:
        raise ValueError(f"allocation has {p.shape[0]} powers, gains have {gains.q}")
    return float(np.sum(np.log1p(p * gains.c) - np.log1p(p * gains.d)) / LN2)


def matrix_rate(channels, qx):
    """log2 det(I + Hr Qx Hr^H) - log2 det(I + He Qx He^H).

    The covariance qx must be Hermitian PSD with n_t rows; this is the
    slow-path cross-check for secrecy_rate.
    """
    qx = np.asarray(qx, dtype=np.complex128)
    n_t = channels.n_t
    if qx.shape != (n_t, n_t):
        raise ValueError(f"covariance must be {n_t} x {n_t}, got {qx.shape}")
    if np.linalg.norm(qx - qx.conj().T) > 1e-8 * max(1.0, np.linalg.norm(qx)):
        raise ValueError("covariance must be Hermitian")
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
    c, d = gains.c, gains.d
    excluded = np.flatnonzero(c < NULL_EPS)
    s1 = np.flatnonzero((c >= NULL_EPS) & (d < NULL_EPS))
    s2 = np.flatnonzero((c >= NULL_EPS) & (d >= NULL_EPS))
    return SubspacePartition(s1=s1, s2=s2, excluded=excluded)


def _spread(p, indices, share, a, mode):
    """Distribute radiated power `share` evenly over `indices`."""
    if mode == "transmit":
        # Equal radiated power per direction.
        p[indices] = share / indices.size / a[indices]
    elif mode == "symbol":
        # Equal symbol power per direction, scaled to radiate `share`.
        p[indices] = share / float(np.sum(a[indices]))
    else:
        raise ValueError(f"unknown uniform mode {mode!r}")


def uniform_allocation(gains, partition, budget, rho, mode="transmit",
                       secure_only=False):
    """Uniform baseline: fraction rho of the budget to S2, the rest to S1.

    With an empty S1 the whole budget goes to S2 (and the other way round),
    whatever rho says; excluded directions never get power. The budget is in
    radiated (effective) power. secure_only narrows the S2 spread to its
    secure members {c > d}: that is the scheme whose peak over rho meets the
    capacity at high SNR, since the optimum never radiates on a direction
    the eavesdropper hears better. (Falls back to all of S2 when none of it
    is secure, so the budget is always radiated in full.)
    """
    if not budget > 0:
        raise ValueError("budget must be positive")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    s1, s2 = partition.s1, partition.s2
    if s1.size == 0 and s2.size == 0:
        raise ValueError("no usable transmit directions")
    target2 = s2
    if secure_only and s2.size:
        secure = s2[gains.c[s2] > gains.d[s2]]
        if secure.size:
            target2 = secure
    if s1.size == 0:
        rho = 1.0
    elif s2.size == 0:
        rho = 0.0
    p = np.zeros(gains.q)
    if s1.size and rho < 1.0:
        _spread(p, s1, (1.0 - rho) * budget, gains.a, mode)
    if s2.size and rho > 0.0:
        _spread(p, target2, rho * budget, gains.a, mode)
    return PowerAllocation(p=p, mu=None, effective_power=float(gains.a @ p))


def uniform_secure_allocation(gains, budget, mode="transmit"):
    """Uniform baseline over the secure set {c > d} only.

    This is the fair comparison when the eavesdropper nullspace is empty:
    silence on every direction the eavesdropper hears at least as well as
    the receiver, the budget spread evenly across the rest. Returns the
    all-zero allocation when nothing is secure.
    """
    if not budget > 0:
        raise ValueError("budget must be positive")
    secure = np.flatnonzero(gains.c > gains.d)
    p = np.zeros(gains.q)
    if secure.size:
        _spread(p, secure, budget, gains.a, mode)
    return PowerAllocation(p=p, mu=None, effective_power=float(gains.a @ p))


def fraction_sweep(gains, partition, budget, rho_grid, mode="transmit",
                   secure_only=True):
    """Uniform-baseline rate as a function of the S2 power fraction rho.

    The S2 share goes to its secure members by default (see
    uniform_allocation); that is the curve whose peak tracks the capacity.
    Negative sums are clamped to zero: silence always achieves zero secrecy,
    so a negative value is never the achievable rate of the scheme.
    """
    grid = np.asarray(rho_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("rho grid must be a nonempty 1-D array")
    if np.any(grid < 0) or np.any(grid > 1):
        raise ValueError("rho grid must lie in [0, 1]")
    rates = np.empty(grid.size)
    for j, rho in enumerate(grid):
        alloc = uniform_allocation(gains, partition, budget, float(rho), mode,
                                   secure_only=secure_only)
        rates[j] = max(0.0, secrecy_rate(gains, alloc))
    return RateCurve(param=grid, rate_bits=rates)
