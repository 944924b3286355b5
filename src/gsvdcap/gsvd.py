"""Generalized SVD of a two-receiver channel pair.

The factorization writes Hr A = Psi_r C and He A = Psi_e D where Psi_r and
Psi_e are unitary, A is square invertible (n_t x q when the stacked channel
is tall), and C, D are nonnegative diagonal-shaped with C^T C + D^T D = I.
The nonzero diagonal of C ascends while D descends, so early subchannels
favor the eavesdropper and late ones the legitimate receiver. Built from two
dense SVDs: a thin SVD of the stacked channel followed by a full SVD of the
receiver block of its left factor (Van Loan 1976; Paige & Saunders 1981).

gsvd factors one pair. Campaigns take _stacked_gains instead, which runs
the same arithmetic, with the same checks, on a whole stack of pairs in
array calls and keeps only the subchannel gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

NULLSPACE_TOL = 1e-8
TIE_TOL = 1e-12
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
    """

    a: np.ndarray
    psi_r: np.ndarray
    psi_e: np.ndarray
    cdiag: np.ndarray
    ddiag: np.ndarray

    @property
    def q(self):
        return self.cdiag.shape[0]

    def c_matrix(self):
        """Embed cdiag as the n_r x q receiver diagonal factor.

        cdiag ascends, so when q exceeds n_r the leading (zero) entries have
        no row to live on: entry i sits at row i - max(0, q - n_r).
        """
        n_r = self.psi_r.shape[0]
        c = np.zeros((n_r, self.q))
        shift = max(0, self.q - n_r)
        for i in range(shift, self.q):
            c[i - shift, i] = self.cdiag[i]
        return c

    def d_matrix(self):
        """Embed ddiag as the n_e x q eavesdropper diagonal factor.

        ddiag descends, so entries beyond the row count (which are zero up
        to roundoff) are dropped: entry i sits at (i, i) for i < n_e.
        """
        n_e = self.psi_e.shape[0]
        d = np.zeros((n_e, self.q))
        for i in range(min(n_e, self.q)):
            d[i, i] = self.ddiag[i]
        return d


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
    """SubchannelGains' bounds, over arrays of any equal shape."""
    if not np.all((c >= 0) & (c <= 1) & (d >= 0) & (d <= 1)):
        raise ValueError("gains must lie in [0, 1]")
    if np.any(np.abs(c + d - 1.0) > 1e-8):
        raise ValueError("gain pairs must satisfy c + d = 1")
    if not np.all((a > 0) & (a < np.inf)):
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
        return max(
            self.residual_receiver,
            self.residual_eavesdropper,
            self.unitarity_receiver,
            self.unitarity_eavesdropper,
            self.cs_identity,
        )

    def passed(self, tol):
        return self.ordering_ok and self.max_residual <= tol


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

    stacked = np.vstack([hr, he])
    u, sig, v = linalg.svd(stacked)
    rank = linalg.rank_with_tol(sig, linalg.RANK_TOL)
    if rank < q:
        raise DegenerateChannelError(rank, q)
    u, sig, v = u[:, :q], sig[:q], v[:, :q]

    # Split the stacked left factor and diagonalize the receiver block. Its
    # singular values are the cosines; reversing puts them in ascending order.
    u1, u2 = u[:n_r], u[n_r:]
    try:
        pmat, sdesc, wh = np.linalg.svd(u1, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise linalg.FactorizationError(
            f"SVD of the receiver block did not converge: {exc}"
        ) from exc
    t = min(n_r, q)
    w = wh.conj().T[:, ::-1]
    cdiag = np.concatenate([np.zeros(q - t), np.minimum(sdesc[::-1], 1.0)])
    psi_r = np.concatenate([pmat[:, :t][:, ::-1], pmat[:, t:]], axis=1)

    # The rotated eavesdropper block has exactly orthogonal columns with
    # norms sqrt(1 - cdiag**2); the nonzero ones, orthonormalized, give
    # Psi_e. QR with the R diagonal rotated positive equals plain
    # normalization up to roundoff for well-separated columns but stays an
    # isometry even when the norms sit near the noise floor (then the
    # directions carry little information and any orthonormal choice
    # reconstructs equally well). A complete QR also spans the complement:
    # its trailing columns fill the dead slots.
    m = u2 @ w
    ddiag = np.minimum(np.linalg.norm(m, axis=0), 1.0)
    live = ddiag > NULLSPACE_TOL
    ddiag = np.where(live, ddiag, 0.0)  # below the threshold is a null direction
    if np.any(live[min(n_e, q):]):
        raise linalg.FactorizationError(
            "eavesdropper diagonal has live entries beyond its row count")
    idx = np.flatnonzero(live)
    qfac, rfac = np.linalg.qr(m[:, idx], mode="complete")
    phases = rfac.diagonal().copy()
    mags = np.abs(phases)
    if np.any(mags == 0):
        raise linalg.FactorizationError(_RANK_LOSS)
    slot = np.zeros(n_e, dtype=bool)
    slot[idx] = True
    psi_e = np.empty_like(qfac)
    psi_e[:, slot] = qfac[:, :idx.size] * (phases / mags)
    psi_e[:, ~slot] = qfac[:, idx.size:]

    a = (v / sig) @ w
    return GsvdFactors(a=a, psi_r=psi_r, psi_e=psi_e, cdiag=cdiag, ddiag=ddiag)


def _gains(cdiag, ddiag, a):
    """subchannel_gains' (c, d, a) arrays, over the last axis of the
    diagonals and the beamformer columns, for one pair or a stack."""
    c = np.minimum(cdiag**2, 1.0)
    d = np.minimum(ddiag**2, 1.0)
    # Clean up roundoff so pairs sum to 1 exactly where one side dominates.
    d = np.where(c < 0.5, d, 1.0 - c)
    c = np.where(c < 0.5, 1.0 - d, c)
    # Snap noise-level ties to an exact draw. Both parties hearing a
    # direction equally well (identical channels, for instance) must not
    # let sub-ulp ordering noise mark it secure: a tie carries no secrecy
    # value, and radiating on it would burn the whole budget for nothing.
    tie = np.abs(c - d) <= TIE_TOL
    c = np.where(tie, 0.5, c)
    d = np.where(tie, 0.5, d)
    return c, d, np.sum(np.abs(a) ** 2, axis=-2)


def subchannel_gains(factors):
    """Squared diagonals and beamformer column powers of a factorization."""
    return SubchannelGains(*_gains(factors.cdiag, factors.ddiag, factors.a))


def _stacked_gains(h, n_r):
    """subchannel_gains(gsvd(pair)) for every pair of a stack, in array calls.

    h is a (T, n_r + n_e, n_t) stack of [hr; he]. Returns (full, c, d, a):
    full is the length-T mask of the pairs that pass gsvd's rank test, and
    c, d, a hold those pairs' gains, one row each, equal bit for bit to the
    one-pair calls. A pair that fails the rank test is dropped where gsvd
    raises DegenerateChannelError; every other check of gsvd and
    SubchannelGains raises its own exception for the whole stack.

    This is gsvd's arithmetic, operation for operation, written on stacks.
    gsvd keeps its own copy because the stacked indexing slows a single
    pair; tests hold the two to equal rows.
    """
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix entries must be finite")
    u, sig, v = linalg._stacked_svd(h)
    # linalg.rank_with_tol's test, row by row: full rank keeps every value.
    floor = np.maximum(sig.max(axis=-1, keepdims=True), 1e-300)
    full = np.all(sig > linalg.RANK_TOL * floor, axis=-1)
    if not np.all(full):
        u, sig, v = u[full], sig[full], v[full]
    q = sig.shape[1]
    u1, u2 = u[:, :n_r], u[:, n_r:]
    try:
        sdesc, wh = np.linalg.svd(u1, full_matrices=True)[1:]
    except np.linalg.LinAlgError as exc:
        raise linalg.FactorizationError(
            f"SVD of the receiver block did not converge: {exc}"
        ) from exc
    w = wh.conj().swapaxes(1, 2)[:, :, ::-1]
    zeros = np.zeros((sig.shape[0], q - sdesc.shape[1]))
    cdiag = np.concatenate([zeros, np.minimum(sdesc[:, ::-1], 1.0)], axis=1)
    m = u2 @ w
    ddiag = np.minimum(np.linalg.norm(m, axis=1), 1.0)
    live = ddiag > NULLSPACE_TOL
    ddiag = np.where(live, ddiag, 0.0)
    if np.any(live[:, min(u2.shape[1], q):]):
        raise linalg.FactorizationError(
            "eavesdropper diagonal has live entries beyond its row count")
    # gsvd orthonormalizes the live columns of m by QR, so a zero R
    # diagonal there is a rank loss. QR runs per group of equal live masks.
    todo = np.any(live, axis=1)
    while np.any(todo):
        mask = live[np.argmax(todo)]
        group = todo & np.all(live == mask, axis=1)
        todo &= ~group
        r = np.linalg.qr(m[group][:, :, mask], mode="r")
        if np.any(np.diagonal(r, axis1=1, axis2=2) == 0):
            raise linalg.FactorizationError(_RANK_LOSS)
    a = (v / sig[:, None, :]) @ w
    c, d, a = _gains(cdiag, ddiag, a)
    _check_gains(c, d, a)
    return full, c, d, a


def verify_factors(factors, channels, tol=1e-8):
    """Measure the factor invariants against the originating channels.

    Residuals are relative (scaled by max(1, norm of the reconstructed
    quantity)); ordering checks monotonicity of both diagonals.
    """
    hr, he = channels.hr, channels.he
    n_r, n_e, q = channels.n_r, channels.n_e, factors.q
    if factors.a.shape != (channels.n_t, q) or factors.psi_r.shape != (n_r, n_r) \
            or factors.psi_e.shape != (n_e, n_e):
        raise ValueError("factor shapes do not match the channel pair")

    def rel(delta, ref):
        return float(np.linalg.norm(delta) / max(1.0, np.linalg.norm(ref)))

    c, d = factors.c_matrix(), factors.d_matrix()
    res_r = rel(hr @ factors.a - factors.psi_r @ c, hr)
    res_e = rel(he @ factors.a - factors.psi_e @ d, he)
    uni_r = float(np.linalg.norm(
        factors.psi_r.conj().T @ factors.psi_r - np.eye(n_r)))
    uni_e = float(np.linalg.norm(
        factors.psi_e.conj().T @ factors.psi_e - np.eye(n_e)))
    cs = float(np.max(np.abs(factors.cdiag**2 + factors.ddiag**2 - 1.0)))
    ordering = bool(
        np.all(np.diff(factors.cdiag) >= -1e-12)
        and np.all(np.diff(factors.ddiag) <= 1e-12)
    )
    return FactorCheck(
        residual_receiver=res_r,
        residual_eavesdropper=res_e,
        unitarity_receiver=uni_r,
        unitarity_eavesdropper=uni_e,
        cs_identity=cs,
        ordering_ok=ordering,
    )
