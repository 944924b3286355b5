"""Generalized SVD of a two-receiver channel pair.

The factorization writes Hr A = Psi_r C and He A = Psi_e D where Psi_r and
Psi_e are unitary, A is square invertible (n_t x q when the stacked channel
is tall), and C, D are nonnegative diagonal-shaped with C^T C + D^T D = I.
The nonzero diagonal of C ascends while D descends, so early subchannels
favor the eavesdropper and late ones the legitimate receiver. Built from two
dense SVDs: a thin SVD of the stacked channel followed by a full SVD of the
receiver block of its left factor (Van Loan 1976; Paige & Saunders 1981).

gsvd factors one pair. Campaigns take _stacked_gains instead, which keeps
only the subchannel gains of a whole stack of pairs, with the same checks,
in array calls. Both run the second SVD and what follows from it through
one shared step, _cosine_sine, written on stacks; each keeps its own first
SVD, rank test and Psi_e orthonormalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

_RANK_LOSS = "eavesdropper block lost rank while orthonormalizing"


class DegenerateChannelError(ValueError):
    """Stacked channel [Hr; He] is rank deficient, so the subchannel
    bookkeeping (q = min(n_t, n_r + n_e) directions) is undefined."""

    def __init__(self, detected_rank, expected_rank):
        super().__init__(
            f"degenerate channel: stacked rank {detected_rank}, expected {expected_rank}"
        )
        self.detected_rank = detected_rank
        self.expected_rank = expected_rank


@dataclass(frozen=True)
class ChannelPair:
    """Receiver channel hr (n_r x n_t) and eavesdropper channel he (n_e x n_t)."""

    hr: np.ndarray
    he: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hr", linalg.as_matrix(self.hr))
        object.__setattr__(self, "he", linalg.as_matrix(self.he))
        if self.hr.shape[1] != self.he.shape[1]:
            raise ValueError(
                f"channel column mismatch: hr has {self.hr.shape[1]} transmit "
                f"antennas, he has {self.he.shape[1]}"
            )
        if min(self.n_t, self.n_r + self.n_e) == 0:
            raise ValueError(
                f"channel pair has no subchannels: hr is {self.hr.shape}, "
                f"he is {self.he.shape}, so q = min(n_t, n_r + n_e) = 0")

    @property
    def n_r(self):
        return self.hr.shape[0]

    @property
    def n_e(self):
        return self.he.shape[0]

    @property
    def n_t(self):
        return self.hr.shape[1]


@dataclass(frozen=True)
class GsvdFactors:
    """Joint factors of a channel pair.

    a: n_t x q beamforming matrix (columns are transmit directions).
    psi_r: n_r x n_r unitary.
    psi_e: n_e x n_e unitary.
    cdiag: length-q receiver diagonal, ascending, entries in [0, 1].
    ddiag: length-q eavesdropper diagonal, descending, cdiag**2 + ddiag**2 = 1.
    C and D are not built; verify_factors places the diagonals in them.
    """

    a: np.ndarray
    psi_r: np.ndarray
    psi_e: np.ndarray
    cdiag: np.ndarray
    ddiag: np.ndarray

    @property
    def q(self):
        return self.cdiag.shape[0]


@dataclass(frozen=True)
class SubchannelGains:
    """Per-subchannel scalars the allocation works on.

    c: squared receiver diagonal (ascending, in [0, 1]).
    d: squared eavesdropper diagonal (descending, c + d = 1 per entry).
    a: diagonal of A^H A, i.e. squared column norms of the beamformer;
       converts symbol power p_i into radiated power a_i * p_i.
    """

    c: np.ndarray
    d: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        d = np.asarray(self.d, dtype=float)
        a = np.asarray(self.a, dtype=float)
        if not (c.shape == d.shape == a.shape) or c.ndim != 1:
            raise ValueError("c, d, a must be 1-D arrays of equal length")
        _check_gains(c, d, a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", a)

    @property
    def q(self):
        return self.c.shape[0]


def _check_gains(c, d, a):
    """SubchannelGains' bounds, over arrays of any equal shape or numpy
    scalars."""
    if not ((c >= 0) & (c <= 1) & (d >= 0) & (d <= 1)).all():
        raise ValueError("gains must lie in [0, 1]")
    if (np.abs(c + d - 1.0) > linalg.GAIN_SUM_TOL).any():
        raise ValueError("gain pairs must satisfy c + d = 1")
    if not ((a > 0) & (a < np.inf)).all():
        raise ValueError("beamformer column power a must be positive and finite")


@dataclass(frozen=True)
class FactorCheck:
    """Residuals of the five factor invariants plus the ordering flag."""

    residual_receiver: float
    residual_eavesdropper: float
    unitarity_receiver: float
    unitarity_eavesdropper: float
    cs_identity: float
    ordering_ok: bool

    @property
    def max_residual(self):
        """The largest residual, or NaN when any residual is NaN."""
        fields = (self.residual_receiver, self.residual_eavesdropper,
                  self.unitarity_receiver, self.unitarity_eavesdropper,
                  self.cs_identity)
        # Python's max keeps a NaN only when it comes first.
        return math.nan if any(map(math.isnan, fields)) else max(fields)

    def passed(self, tol):
        return self.ordering_ok and self.max_residual <= tol


def _cosine_sine(u, sig, v, n_r):
    """The cosine-sine step shared by gsvd and _stacked_gains.

    u, sig, v are the thin SVD factors of [hr; he] with full rank q, for
    one pair (u is rows x q) or for a stack (..., rows, q). Splits u at
    row n_r and diagonalizes the receiver block u1: its singular values
    are the cosines, reversed into ascending order and zero-padded to q.
    Returns (pmat, cdiag, m, ddiag, live, a): pmat the left factor of u1's
    full SVD, m = u2 W the rotated eavesdropper block whose column norms
    give ddiag (zeroed below linalg.NULLSPACE_TOL, so live marks the
    directions the eavesdropper hears), and a = (V / sig) W.

    Raises:
        FactorizationError: the SVD of u1 did not converge, or a live
            entry of ddiag lies beyond the eavesdropper's row count.
    """
    q = sig.shape[-1]
    u1, u2 = u[..., :n_r, :], u[..., n_r:, :]
    pmat, sdesc, wh = linalg._svd(u1, True, "SVD of the receiver block")
    w = wh.conj().swapaxes(-1, -2)[..., ::-1]
    cdiag = np.zeros(sig.shape)
    cdiag[..., q - sdesc.shape[-1]:] = np.minimum(sdesc[..., ::-1], 1.0)
    m = u2 @ w
    # np.linalg.norm(m, axis=-2)'s own expression, bit for bit.
    ddiag = np.sqrt((m.conj() * m).real.sum(axis=-2))
    np.minimum(ddiag, 1.0, out=ddiag)
    live = ddiag > linalg.NULLSPACE_TOL
    ddiag[~live] = 0.0  # below the threshold is a null direction
    if live[..., min(u2.shape[-2], q):].any():
        raise linalg.FactorizationError(
            "eavesdropper diagonal has live entries beyond its row count")
    a = (v / sig[..., None, :]) @ w
    return pmat, cdiag, m, ddiag, live, a


def gsvd(channels):
    """Factor a channel pair; see the module docstring for the identities.

    Args:
        channels: ChannelPair with full-rank stacked matrix [hr; he]; the
            rank test uses the relative threshold linalg.RANK_TOL.

    Raises:
        DegenerateChannelError: stacked rank below q = min(n_t, n_r + n_e).
        FactorizationError: an SVD failed, or the computed eavesdropper
            diagonal is not a clean descending prefix.
    """
    hr, he = channels.hr, channels.he
    n_r, n_t = hr.shape
    n_e = he.shape[0]
    q = min(n_t, n_r + n_e)

    u, sig, v = linalg.svd(np.concatenate([hr, he]))
    # The thin SVD returns exactly q values, sorted descending, so the rank
    # is full when the last one clears linalg.rank_with_tol's threshold.
    if not sig[q - 1] > linalg.RANK_TOL * max(sig[0], linalg.RANK_FLOOR):
        raise DegenerateChannelError(
            linalg.rank_with_tol(sig, linalg.RANK_TOL), q)

    pmat, cdiag, m, ddiag, live, a = _cosine_sine(u, sig, v, n_r)
    t = min(n_r, q)
    psi_r = (pmat[:, ::-1].copy() if t == n_r else
             np.concatenate([pmat[:, :t][:, ::-1], pmat[:, t:]], axis=1))

    # The rotated eavesdropper block m has exactly orthogonal columns with
    # norms sqrt(1 - cdiag**2); the live ones, orthonormalized, give Psi_e.
    # QR with the R diagonal rotated positive equals plain normalization up
    # to roundoff for well-separated columns but stays an isometry even when
    # the norms sit near the noise floor (then the directions carry little
    # information and any orthonormal choice reconstructs equally well). A
    # complete QR also spans the complement: its trailing columns fill the
    # dead slots.
    k = np.count_nonzero(live)
    prefix = live[:k].all()  # ddiag descends, so the live slots come first
    qfac, rfac = np.linalg.qr(m[:, :k] if prefix else m[:, live],
                              mode="complete")
    phases = rfac.diagonal()
    mags = np.abs(phases)
    if (mags == 0).any():
        raise linalg.FactorizationError(_RANK_LOSS)
    qfac[:, :k] *= phases / mags
    psi_e = qfac
    if not prefix:  # a dead slot before a live one
        slot = np.zeros(n_e, dtype=bool)
        slot[np.flatnonzero(live)] = True
        psi_e = np.empty_like(qfac)
        psi_e[:, slot] = qfac[:, :k]
        psi_e[:, ~slot] = qfac[:, k:]

    return GsvdFactors(a=a, psi_r=psi_r, psi_e=psi_e, cdiag=cdiag, ddiag=ddiag)


def _gains(cdiag, ddiag, a):
    """subchannel_gains' (c, d, a) arrays, over the last axis of the
    diagonals and the beamformer columns, for one pair or a stack."""
    c = np.minimum(cdiag**2, 1.0)
    d = np.minimum(ddiag**2, 1.0)
    # Clean up roundoff so pairs sum to 1 exactly where one side dominates.
    low = c < 0.5
    d = np.where(low, d, 1.0 - c)
    c = np.where(low, 1.0 - d, c)
    # A direction the eavesdropper cannot hear gets exactly c = 1 and d = 0,
    # not the 1 - c that a cosine a rounding short of 1 would leave.
    null = ddiag == 0.0
    c = np.where(null, 1.0, c)
    d = np.where(null, 0.0, d)
    # Snap noise-level ties to an exact draw. Both parties hearing a
    # direction equally well (identical channels, for instance) must not
    # let sub-ulp ordering noise mark it secure: a tie carries no secrecy
    # value, and radiating on it would burn the whole budget for nothing.
    tie = np.abs(c - d) <= linalg.TIE_TOL
    c = np.where(tie, 0.5, c)
    d = np.where(tie, 0.5, d)
    return c, d, (np.abs(a) ** 2).sum(axis=-2)


def subchannel_gains(factors):
    """Squared diagonals and beamformer column powers of a factorization."""
    return SubchannelGains(*_gains(factors.cdiag, factors.ddiag, factors.a))


def _stacked_gains(h, n_r):
    """subchannel_gains(gsvd(pair)) for every pair of a stack, in array calls.

    h is a (T, n_r + n_e, n_t) stack of [hr; he]. Returns (rank, c, d, a):
    rank holds the T stacked ranks gsvd's rank test counts, and c, d, a the
    gains of the pairs of full rank q, one row each, equal bit for bit to
    the one-pair calls. A pair that fails the rank test is dropped where gsvd
    raises DegenerateChannelError; every other check of gsvd and
    SubchannelGains raises its own exception for the whole stack.

    This is gsvd's arithmetic, operation for operation, written on stacks:
    the cosine-sine step is the same _cosine_sine call, and the grouped QR
    below stands in for gsvd's Psi_e construction.
    """
    if not np.isfinite(h).all():
        raise ValueError("matrix entries must be finite")
    u, sig, v = linalg._stacked_svd(h)
    rank = linalg.rank_with_tol(sig, linalg.RANK_TOL)
    full = rank == sig.shape[1]
    if not full.all():
        u, sig, v = u[full], sig[full], v[full]
    cdiag, m, ddiag, live, a = _cosine_sine(u, sig, v, n_r)[1:]
    # gsvd orthonormalizes the live columns of m by QR, so a zero R
    # diagonal there is a rank loss. QR runs per group of equal live masks.
    todo = live.any(axis=1)
    while todo.any():
        mask = live[todo.argmax()]
        group = todo & (live == mask).all(axis=1)
        todo &= ~group
        r = np.linalg.qr(m[group][:, :, mask], mode="r")
        if (r.diagonal(axis1=1, axis2=2) == 0).any():
            raise linalg.FactorizationError(_RANK_LOSS)
    c, d, a = _gains(cdiag, ddiag, a)
    _check_gains(c, d, a)
    return rank, c, d, a


def verify_factors(factors, channels, tol=None):
    """Measure the factor invariants against the originating channels.

    Residuals are relative (scaled by max(1, norm of the reconstructed
    quantity)); ordering checks monotonicity of both diagonals, up to
    linalg.ORDER_SLACK. tol is accepted and not read: the pass/fail
    tolerance is the argument of FactorCheck.passed.
    """
    hr, he = channels.hr, channels.he
    n_r, n_e, q = channels.n_r, channels.n_e, factors.q
    psi_r, psi_e, cdiag, ddiag = (factors.psi_r, factors.psi_e,
                                  factors.cdiag, factors.ddiag)
    if factors.a.shape != (channels.n_t, q) or psi_r.shape != (n_r, n_r) \
            or psi_e.shape != (n_e, n_e) or ddiag.shape != cdiag.shape:
        raise ValueError("factor shapes do not match the channel pair")

    fro = linalg._fro

    def rel(delta, ref):
        return float(fro(delta) / max(1.0, fro(ref)))

    def unitarity(psi):
        gram = psi.conj().T @ psi  # a fresh product, so ravel is a view
        gram.ravel()[::gram.shape[0] + 1] -= 1
        return float(fro(gram))

    # Psi_r C and Psi_e D column by column: C holds cdiag[i] at row
    # i - shift of column i, D holds ddiag[i] at (i, i) for i < k, and
    # every product with one of their zeros is an exact zero.
    shift, k = max(0, q - n_r), min(n_e, q)
    delta_r, delta_e = hr @ factors.a, he @ factors.a
    delta_r[:, shift:] -= psi_r[:, :q - shift] * cdiag[shift:]
    delta_e[:, :k] -= psi_e[:, :k] * ddiag[:k]
    res_r, res_e = rel(delta_r, hr), rel(delta_e, he)
    uni_r, uni_e = unitarity(psi_r), unitarity(psi_e)
    cs = float(np.abs(cdiag**2 + ddiag**2 - 1.0).max())
    slack = linalg.ORDER_SLACK
    ordering = bool((cdiag[1:] - cdiag[:-1] >= -slack).all()
                    and (ddiag[1:] - ddiag[:-1] <= slack).all())
    return FactorCheck(
        residual_receiver=res_r,
        residual_eavesdropper=res_e,
        unitarity_receiver=uni_r,
        unitarity_eavesdropper=uni_e,
        cs_identity=cs,
        ordering_ok=ordering,
    )
