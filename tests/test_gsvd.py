"""Unit tests for the joint channel factorization."""

import dataclasses
import hashlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import gsvdcap.experiments as experiments
from gsvdcap import (
    ChannelPair,
    DegenerateChannelError,
    ExperimentConfig,
    FactorizationError,
    classify_subspaces,
    gsvd,
    sample_channel,
    subchannel_gains,
    verify_factors,
)
from gsvdcap.capacity import _subspace_masks
from gsvdcap.gsvd import _stacked_gains
from gsvdcap.linalg import NULLSPACE_TOL

from conftest import pair_from_arrays, random_pair


def tied_cosine_pair(seed, scale):
    """Hr = I3 and He = scale times two rows of a seeded random unitary."""
    rng = np.random.default_rng(seed)
    unitary = np.linalg.qr(rng.standard_normal((3, 3))
                           + 1j * rng.standard_normal((3, 3)))[0]
    return pair_from_arrays(np.eye(3), scale * unitary[:2])


class TestChannelPair:
    def test_properties(self):
        pair = random_pair(5, 3, 4, seed=11)
        assert (pair.n_t, pair.n_r, pair.n_e) == (5, 3, 4)

    def test_column_mismatch(self):
        with pytest.raises(ValueError, match="column mismatch"):
            pair_from_arrays(np.ones((2, 3)), np.ones((2, 4)))

    def test_nonfinite_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            pair_from_arrays(bad, np.ones((2, 2)))


class TestFactorizationInvariants:
    def test_seeded_pairs_verify(self, shape_classes):
        worst = 0.0
        for k, (n_t, n_r, n_e) in enumerate(shape_classes):
            for trial in range(10):
                pair = random_pair(n_t, n_r, n_e, seed=100 + k, trial=trial)
                factors = gsvd(pair)
                check = verify_factors(factors, pair)
                assert check.passed(1e-8), (n_t, n_r, n_e, trial, vars(check))
                worst = max(worst, check.max_residual)
        assert worst <= 1e-8

    def test_factor_shapes(self):
        pair = random_pair(6, 3, 3, seed=12)
        f = gsvd(pair)
        q = min(6, 3 + 3)
        assert f.q == q
        assert f.a.shape == (6, q)
        assert f.psi_r.shape == (3, 3)
        assert f.psi_e.shape == (3, 3)
        assert f.cdiag.shape == (q,) and f.ddiag.shape == (q,)

    def test_diagonal_ordering_and_range(self, shape_classes):
        for k, (n_t, n_r, n_e) in enumerate(shape_classes):
            f = gsvd(random_pair(n_t, n_r, n_e, seed=200 + k))
            assert np.all(f.cdiag >= 0) and np.all(f.cdiag <= 1)
            assert np.all(f.ddiag >= 0) and np.all(f.ddiag <= 1)
            assert np.all(np.diff(f.cdiag) >= -1e-12)
            assert np.all(np.diff(f.ddiag) <= 1e-12)

    def test_embedded_diagonal_reconstruction(self):
        pair = random_pair(8, 3, 3, seed=13)
        f = gsvd(pair)
        lhs_r = pair.hr @ f.a
        lhs_e = pair.he @ f.a
        assert np.linalg.norm(lhs_r - f.psi_r @ f.c_matrix()) <= 1e-10 * max(
            1.0, np.linalg.norm(pair.hr)
        )
        assert np.linalg.norm(lhs_e - f.psi_e @ f.d_matrix()) <= 1e-10 * max(
            1.0, np.linalg.norm(pair.he)
        )

    def test_embedded_diagonals_place_each_entry(self, shape_classes):
        # Entry i of cdiag sits at row i - max(0, q - n_r), entry i of ddiag
        # at (i, i) for i < n_e; every other entry is zero. The shapes
        # include q > n_r and q > n_e.
        for k, (n_t, n_r, n_e) in enumerate(shape_classes):
            f = gsvd(random_pair(n_t, n_r, n_e, seed=400 + k))
            c, d = np.zeros((n_r, f.q)), np.zeros((n_e, f.q))
            shift = max(0, f.q - n_r)
            for i in range(f.q):
                if i >= shift:
                    c[i - shift, i] = f.cdiag[i]
                if i < n_e:
                    d[i, i] = f.ddiag[i]
            assert np.array_equal(f.c_matrix(), c)
            assert np.array_equal(f.d_matrix(), d)

    def test_nullspace_counts(self, shape_classes):
        for k, (n_t, n_r, n_e) in enumerate(shape_classes):
            f = gsvd(random_pair(n_t, n_r, n_e, seed=300 + k))
            q = f.q
            assert int(np.sum(f.ddiag < 1e-12)) == max(0, q - n_e)
            assert int(np.sum(f.cdiag < 1e-12)) == max(0, q - n_r)

    def test_zero_forcing_regime_supports_disjoint(self):
        # With enough transmit antennas every direction is seen by exactly
        # one party, so the diagonals become exact 0/1 indicators.
        f = gsvd(random_pair(8, 3, 3, seed=14))
        on_r = f.cdiag > 0.5
        on_e = f.ddiag > 0.5
        assert not np.any(on_r & on_e)
        assert np.all(np.abs(f.cdiag[on_r] - 1.0) <= 1e-12)
        assert np.all(np.abs(f.ddiag[on_e] - 1.0) <= 1e-12)


class TestSpectrumCrossCheck:
    """The squared gain ratios must match the generalized eigenvalues of
    (hr^H hr, he^H he), an independent route to the same spectrum."""

    @pytest.mark.parametrize("shape,seed", [((3, 3, 4), 21), ((3, 2, 5), 22),
                                            ((4, 4, 6), 23)])
    def test_against_generalized_eigenvalues(self, shape, seed):
        n_t, n_r, n_e = shape
        pair = random_pair(n_t, n_r, n_e, seed=seed)
        f = gsvd(pair)
        gram_r = pair.hr.conj().T @ pair.hr
        gram_e = pair.he.conj().T @ pair.he
        eig = scipy.linalg.eigvals(gram_r, gram_e)
        eig = np.sort(np.real(eig))
        ratios = np.sort((f.cdiag / f.ddiag) ** 2)
        assert np.allclose(ratios, eig, rtol=1e-6, atol=1e-9)

    def test_weak_eavesdropper_matches_scaled_svd(self):
        # he = eps * I makes the gain ratios the receiver singular values
        # divided by eps, which is computable without the joint factorization.
        eps = 1e-3
        rng = np.random.default_rng(24)
        hr = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        pair = pair_from_arrays(hr, eps * np.eye(3))
        f = gsvd(pair)
        expected = np.sort(np.linalg.svd(hr, compute_uv=False)) / eps
        got = np.sort(f.cdiag / f.ddiag)
        assert np.allclose(got, expected, rtol=1e-8)
        assert verify_factors(f, pair).passed(1e-8)


class TestDegeneracy:
    def test_rank_deficient_stack_rejected(self):
        rng = np.random.default_rng(31)
        hr = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        pair = pair_from_arrays(hr, np.zeros((2, 3)))
        with pytest.raises(DegenerateChannelError) as exc:
            gsvd(pair)
        assert exc.value.detected_rank == 2
        assert exc.value.expected_rank == 3

    def test_duplicated_column_rejected(self):
        rng = np.random.default_rng(32)
        hr = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        he = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        hr[:, 2] = hr[:, 0]
        he[:, 2] = he[:, 0]
        with pytest.raises(DegenerateChannelError):
            gsvd(pair_from_arrays(hr, he))

    def test_error_is_value_error(self):
        assert issubclass(DegenerateChannelError, ValueError)


class TestSubchannelGains:
    def test_identity_pair_splits_evenly(self):
        pair = pair_from_arrays(np.eye(2), np.eye(2))
        g = subchannel_gains(gsvd(pair))
        assert np.array_equal(g.c, [0.5, 0.5])
        assert np.array_equal(g.d, [0.5, 0.5])

    def test_pairs_sum_to_one_exactly(self, shape_classes):
        for k, (n_t, n_r, n_e) in enumerate(shape_classes):
            g = subchannel_gains(gsvd(random_pair(n_t, n_r, n_e, seed=400 + k)))
            assert np.array_equal(g.c + g.d, np.ones(g.q))
            assert np.all(g.a > 0)

    def test_validation(self):
        from gsvdcap import SubchannelGains

        with pytest.raises(ValueError, match="c \\+ d"):
            SubchannelGains(c=[0.7], d=[0.2], a=[1.0])
        with pytest.raises(ValueError, match="positive"):
            SubchannelGains(c=[0.7], d=[0.3], a=[0.0])
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            SubchannelGains(c=[1.2], d=[-0.2], a=[1.0])
        with pytest.raises(ValueError, match="equal length"):
            SubchannelGains(c=[0.7, 0.3], d=[0.3], a=[1.0])

    @pytest.mark.parametrize("c, d, a", [
        (float("nan"), 0.3, 1.0), (0.7, float("nan"), 1.0),
        (0.7, 0.3, float("inf")), (0.7, 0.3, float("nan"))])
    def test_rejects_nonfinite_entries(self, c, d, a):
        from gsvdcap import SubchannelGains

        with pytest.raises(ValueError):
            SubchannelGains(c=[c], d=[d], a=[a])


class TestVerifyFactors:
    def test_detects_wrong_unitary(self):
        pair = random_pair(4, 3, 3, seed=41)
        f = gsvd(pair)
        broken = dataclasses.replace(f, psi_r=np.eye(3, dtype=np.complex128))
        check = verify_factors(broken, pair)
        assert not check.passed(1e-8)
        assert check.residual_receiver > 1e-4

    def test_detects_perturbed_diagonal(self):
        pair = random_pair(4, 3, 3, seed=42)
        f = gsvd(pair)
        broken = dataclasses.replace(f, cdiag=np.minimum(f.cdiag + 1e-3, 1.0))
        check = verify_factors(broken, pair)
        assert check.cs_identity > 1e-4
        assert not check.passed(1e-8)

    def test_detects_broken_ordering(self):
        pair = random_pair(4, 3, 3, seed=43)
        f = gsvd(pair)
        broken = dataclasses.replace(
            f,
            cdiag=f.cdiag[::-1].copy(),
            ddiag=f.ddiag[::-1].copy(),
        )
        check = verify_factors(broken, pair)
        assert not check.ordering_ok

    def test_max_residual_reflects_fields(self):
        pair = random_pair(3, 2, 2, seed=44)
        check = verify_factors(gsvd(pair), pair)
        fields = [
            check.residual_receiver,
            check.residual_eavesdropper,
            check.unitarity_receiver,
            check.unitarity_eavesdropper,
            check.cs_identity,
        ]
        assert check.max_residual == max(fields)


class TestNearNullEavesdropper:
    @pytest.mark.parametrize("eps", [1e-6, 1e-12])
    def test_tiny_eavesdropper_still_verifies(self, eps):
        rng = np.random.default_rng(51)
        hr = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        he = eps * (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
        pair = pair_from_arrays(hr, he)
        f = gsvd(pair)
        check = verify_factors(f, pair)
        assert check.passed(1e-8), vars(check)

    def test_silent_eavesdropper_gets_unitary_psi_e(self):
        rng = np.random.default_rng(53)
        hr = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        pair = pair_from_arrays(hr, np.zeros((3, 4)))
        f = gsvd(pair)
        assert np.linalg.norm(f.psi_e.conj().T @ f.psi_e - np.eye(3)) <= 1e-12
        assert verify_factors(f, pair).passed(1e-8)

    def test_dead_directions_zeroed(self):
        rng = np.random.default_rng(52)
        hr = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        he = 1e-12 * (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
        f = gsvd(pair_from_arrays(hr, he))
        below = f.ddiag < NULLSPACE_TOL
        assert np.all(f.ddiag[below] == 0.0)

    def test_tied_cosines_keep_each_live_column_in_its_slot(self):
        # With Hr = I every cosine rounds to 1, so LAPACK may return the
        # eavesdropper's column norms in any order, a dead entry before a
        # live one included. Whatever order comes back, each live column of
        # Psi_e must sit in the slot of its own direction. Pairs the weak
        # eavesdropper makes gsvd reject are passed over.
        factored = 0
        for seed in range(60):
            pair = tied_cosine_pair(seed, 1e-8)
            try:
                f = gsvd(pair)
            except FactorizationError:
                continue
            factored += 1
            assert verify_factors(f, pair).unitarity_eavesdropper <= 1e-12
            for j in np.flatnonzero(f.ddiag > 0):
                column = pair.he @ f.a[:, j]
                assert np.linalg.norm(column - f.psi_e[:, j] * f.ddiag[j]) \
                    <= 1e-12 * f.ddiag[j]
        assert factored > 0


class TestOnePairBits:
    """The one-pair path sample_channel -> gsvd -> verify_factors, byte for
    byte: draws, factors and residuals must not move when the path gets
    faster."""

    # perfbench's factor-check shapes (n_t, n_r, n_e).
    SHAPES = ((5, 5, 4), (4, 3, 3), (6, 3, 3), (8, 3, 3), (3, 2, 5),
              (5, 4, 2), (5, 3, 4), (2, 2, 2), (16, 16, 12), (12, 4, 4))
    DIGEST = "d8c48c1751ad7ff00b8f673e2f03822fd702f3b7788383f32f1b28f587c44bea"

    def test_draws_factors_and_checks_are_pinned(self):
        digest = hashlib.sha256()
        for n_t, n_r, n_e in self.SHAPES:
            config = ExperimentConfig(n_t=n_t, n_r=n_r, n_e=n_e, seed=1)
            for trial in range(5):
                pair = sample_channel(config, trial)
                f = gsvd(pair)
                check = verify_factors(f, pair)
                for x in (pair.hr, pair.he, f.a, f.psi_r, f.psi_e, f.cdiag,
                          f.ddiag):
                    digest.update(x.tobytes())
                digest.update(np.array(dataclasses.astuple(check),
                                       dtype=np.float64).tobytes())
        assert digest.hexdigest() == self.DIGEST


class TestStackGains:
    """Every row of the stacked front end equals the one-pair path
    sample_channel -> gsvd -> subchannel_gains -> classify_subspaces,
    bit for bit."""

    @staticmethod
    def check(cfg):
        trials = np.arange(cfg.trials)
        h = experiments._draw(cfg, trials)
        expected, ranks, error = [], [], None
        for t in trials:
            pair = sample_channel(cfg, t)
            assert np.array_equal(h[t], np.vstack([pair.hr, pair.he]))
            try:
                expected.append(subchannel_gains(gsvd(pair)))
                ranks.append(min(cfg.n_t, cfg.n_r + cfg.n_e))
            except DegenerateChannelError as exc:
                expected.append(None)
                ranks.append(exc.detected_rank)
            except (FactorizationError, ValueError) as exc:
                error = error or exc
        if error is not None:
            with pytest.raises(type(error)):
                _stacked_gains(h, cfg.n_r)
            return
        rank, c, d, a = _stacked_gains(h, cfg.n_r)
        assert np.array_equal(rank, ranks)
        s1, s2 = _subspace_masks(c, d)
        kept = [g for g in expected if g is not None]
        assert c.shape[0] == len(kept)
        for row, gains in enumerate(kept):
            part = classify_subspaces(gains)
            assert np.array_equal(c[row], gains.c)
            assert np.array_equal(d[row], gains.d)
            assert np.array_equal(a[row], gains.a)
            assert np.array_equal(np.flatnonzero(s1[row]), part.s1)
            assert np.array_equal(np.flatnonzero(s2[row]), part.s2)

    @pytest.mark.parametrize("shape, extra", [
        ((12, 3, 4), {}),  # wide: n_t > n_r + n_e
        ((3, 4, 4), {}),  # tall
        ((12, 4, 4), {}),  # q = 8
        ((16, 12, 8), {}),  # q = 16
        ((5, 5, 4), {"sigma_e2": 0.0}),
        ((5, 2, 2), {"sigma_r2": 0.0}),  # every pair is rank deficient
        ((3, 2, 4), {"sigma_r2": 0.0}),  # full rank, all receiver-null
    ])
    def test_rows_equal_one_pair_calls(self, shape, extra):
        n_t, n_r, n_e = shape
        self.check(ExperimentConfig(n_t=n_t, n_r=n_r, n_e=n_e, trials=30,
                                    seed=23, **extra))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(n_t=st.integers(1, 12), n_r=st.integers(1, 8),
           n_e=st.integers(1, 8), seed=st.integers(0, 2**64 - 1),
           sigma_e2=st.sampled_from([0.0, 1e-12, 1.0, 1e6]))
    def test_rows_equal_one_pair_calls_on_any_shape(self, n_t, n_r, n_e,
                                                    seed, sigma_e2):
        self.check(ExperimentConfig(n_t=n_t, n_r=n_r, n_e=n_e, trials=6,
                                    seed=seed, sigma_e2=sigma_e2))

    def test_partly_degenerate_stack_keeps_the_full_rank_rows(self):
        cfg = ExperimentConfig(n_t=3, n_r=2, n_e=2, trials=4, seed=5)
        h = experiments._draw(cfg, np.arange(cfg.trials))
        h[[0, 2], :, 2] = h[[0, 2], :, 0]  # a duplicated column: rank 2 < 3
        rank, c, _, _ = _stacked_gains(h, cfg.n_r)
        assert np.array_equal(rank, [2, 3, 2, 3])
        expected = subchannel_gains(gsvd(ChannelPair(h[3, :2], h[3, 2:])))
        assert np.array_equal(c[1], expected.c)

    @pytest.mark.parametrize("scale", [1e-8, 3e-8, 1e-7])
    def test_tied_cosines_give_the_one_pair_answer(self, scale):
        # Hr = I ties every cosine at 1, so the weak eavesdropper's columns
        # come back in LAPACK's order, and gsvd may reject the pair. The
        # stacked path must give the same gains or raise the same type.
        for seed in range(60):
            pair = tied_cosine_pair(seed, scale)
            h = np.vstack([pair.hr, pair.he])[None]
            try:
                gains = subchannel_gains(gsvd(pair))
            except (FactorizationError, ValueError) as exc:
                with pytest.raises(Exception) as stacked:
                    _stacked_gains(h, 3)
                assert stacked.type is type(exc)
                continue
            rank, c, d, a = _stacked_gains(h, 3)
            assert np.array_equal(rank, [3])
            for got, want in ((c, gains.c), (d, gains.d), (a, gains.a)):
                assert np.array_equal(got[0], want)

    def test_nonfinite_entries_rejected(self):
        h = np.ones((2, 3, 2), dtype=complex)
        h[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            _stacked_gains(h, 1)
