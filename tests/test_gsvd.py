"""Unit tests for the joint channel factorization."""

import copy
import dataclasses
import hashlib
import math
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import gsvdcap.experiments as experiments
from gsvdcap import (
    ChannelPair,
    DegenerateChannelError,
    ExperimentConfig,
    FactorCheck,
    FactorizationError,
    GsvdFactors,
    SubchannelGains,
    classify_subspaces,
    cli,
    gsvd,
    input_covariance,
    linalg,
    load_matrix,
    sample_channel,
    secrecy_rate,
    solve_mu,
    subchannel_gains,
    verify_factors,
)
from gsvdcap.capacity import _subspace_masks
from gsvdcap.gsvd import _RANK_LOSS, _gains, _stacked_gains
from gsvdcap.linalg import NULLSPACE_TOL, TIE_TOL

from conftest import pair_from_arrays, random_pair

DATA = Path(__file__).resolve().parent / "data"


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

    @pytest.mark.parametrize("hr_shape, he_shape", [
        ((2, 0), (1, 0)), ((0, 3), (0, 3))], ids=["no-antennas", "no-rows"])
    def test_no_subchannels_rejected(self, hr_shape, he_shape):
        with pytest.raises(ValueError, match="no subchannels"):
            ChannelPair(np.zeros(hr_shape), np.zeros(he_shape))

    @pytest.mark.parametrize("n_r, n_e", [(0, 2), (2, 0)])
    def test_one_empty_receiver_still_factors(self, n_r, n_e):
        rng = np.random.default_rng(41)
        h = rng.standard_normal((n_r + n_e, 3))
        pair = ChannelPair(h[:n_r], h[n_r:])
        factors = gsvd(pair)
        assert factors.q == 2
        assert verify_factors(factors, pair).passed(1e-10)


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
        # verify_factors places cdiag and ddiag in C and D and measures
        # Hr A - Psi_r C and He A - Psi_e D relative to max(1, ||H||_F).
        pair = random_pair(8, 3, 3, seed=13)
        check = verify_factors(gsvd(pair), pair)
        assert check.residual_receiver <= 1e-10
        assert check.residual_eavesdropper <= 1e-10

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


def _zero_r_diagonal(monkeypatch, which=slice(None)):
    """Make np.linalg.qr return an R with a zero diagonal, as it would for
    an eavesdropper block that lost rank: every diagonal entry, or the
    entries which picks."""
    qr = np.linalg.qr

    def fake(a, mode="reduced"):
        out = qr(a, mode=mode)
        r = out if mode == "r" else out[1]
        k = np.arange(min(r.shape[-2:]))[which]
        r[..., k, k] = 0.0
        return out

    monkeypatch.setattr(np.linalg, "qr", fake)


class TestRankLoss:
    """The QR that orthonormalizes Psi_e runs on the first read of psi_r or
    psi_e, so that read, verify_factors and gsvd-check raise its rank loss.
    gsvd returns normally, and campaigns, which read no Psi, never see it."""

    def test_first_read_and_verify_raise(self, monkeypatch):
        pair = random_pair(5, 5, 4, seed=42)
        _zero_r_diagonal(monkeypatch)
        f = gsvd(pair)
        with pytest.raises(FactorizationError, match=_RANK_LOSS):
            f.psi_e
        with pytest.raises(FactorizationError, match=_RANK_LOSS):
            verify_factors(f, pair)

    @pytest.mark.parametrize("which", [0, -1], ids=["first", "last"])
    def test_one_zero_diagonal_entry_raises(self, monkeypatch, which):
        pair = random_pair(5, 5, 4, seed=42)
        _zero_r_diagonal(monkeypatch, which)
        with pytest.raises(FactorizationError, match=_RANK_LOSS):
            gsvd(pair).psi_e

    def test_gsvd_check_exits_with_the_message(self, monkeypatch, capsys):
        _zero_r_diagonal(monkeypatch)
        code = cli.main(["gsvd-check", "--nt", "5", "--nr", "5", "--ne", "4",
                         "--trials", "1", "--seed", "42"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {_RANK_LOSS}\n"

    def test_campaign_writes_the_same_bytes(self, monkeypatch, tmp_path):
        argv = ["sweep-snr", "--nt", "4", "--nr", "4", "--ne", "4",
                "--snr-db", "0:10:20", "--trials", "2", "--seed", "5", "--out"]
        assert cli.main(argv + [str(tmp_path / "plain")]) == 0
        _zero_r_diagonal(monkeypatch)
        assert cli.main(argv + [str(tmp_path / "fake")]) == 0
        for name in ("snr_trials.csv", "snr_aggregate.csv"):
            assert ((tmp_path / "fake" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())


def _count_qr(monkeypatch):
    """A list that gains one entry per np.linalg.qr call."""
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(None)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


def _field_bytes(f):
    return [(x.dtype, x.shape, x.tobytes()) for x in
            (f.a, f.psi_r, f.psi_e, f.cdiag, f.ddiag)]


class TestOnDemandUnitaries:
    """gsvd builds Psi_r and Psi_e, one QR, on the first read of either:
    the allocate chain and the campaigns' stacked gains never pay for it."""

    def test_allocate_chain_makes_no_qr_call(self, monkeypatch):
        calls = _count_qr(monkeypatch)
        pair = ChannelPair(load_matrix(DATA / "allocate_hr.json"),
                           load_matrix(DATA / "allocate_he.json"))
        f = gsvd(pair)
        gains = subchannel_gains(f)
        alloc = solve_mu(gains, 10.0)
        secrecy_rate(gains, alloc)
        input_covariance(f, alloc)
        assert calls == []

    def test_stacked_gains_make_no_qr_call(self, monkeypatch):
        calls = _count_qr(monkeypatch)
        cfg = ExperimentConfig(n_t=5, n_r=5, n_e=4, trials=20, seed=1)
        _stacked_gains(experiments._draw(cfg, np.arange(cfg.trials)), cfg.n_r)
        assert calls == []

    def test_first_read_builds_both(self, monkeypatch):
        calls = _count_qr(monkeypatch)
        f = gsvd(random_pair(5, 5, 4, seed=1))
        assert calls == []
        f.psi_r
        assert len(calls) == 1
        f.psi_e
        f.psi_r
        assert len(calls) == 1

    def test_verify_factors_builds_once(self, monkeypatch):
        calls = _count_qr(monkeypatch)
        pair = random_pair(5, 5, 4, seed=1)
        verify_factors(gsvd(pair), pair)
        assert len(calls) == 1

    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    @pytest.mark.parametrize("clone", [
        lambda f: pickle.loads(pickle.dumps(f)),
        copy.deepcopy,
        dataclasses.replace,
        lambda f: GsvdFactors(**{k.name: getattr(f, k.name)
                                 for k in dataclasses.fields(f)}),
    ], ids=["pickle", "deepcopy", "replace", "constructor"])
    def test_copies_keep_every_bit(self, clone, read):
        pair = random_pair(4, 3, 3, seed=2)
        f = gsvd(pair)
        if read:
            f.psi_e
        assert _field_bytes(clone(f)) == _field_bytes(gsvd(pair))

    def test_threads_reading_first_see_the_same_bits(self):
        # Threads that read at once may each build; all must see one value.
        pairs = [random_pair(5, 5, 4, seed=1, trial=t) for t in range(50)]
        expected = [_field_bytes(gsvd(pair)) for pair in pairs]
        shared = [gsvd(pair) for pair in pairs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                seen = list(pool.map(lambda _: [_field_bytes(f) for f in shared],
                                     range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert seen == [expected] * 4

    def test_fields_stay_frozen(self):
        f = gsvd(random_pair(4, 3, 3, seed=2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.psi_r = np.eye(3)


def _svd_fails(monkeypatch, failing):
    """Make np.linalg.svd raise LAPACK's LinAlgError on the calls whose
    full_matrices equals failing: the thin calls (False) or the full ones
    (True) only."""
    svd = np.linalg.svd

    def fake(a, full_matrices=True, **kwargs):
        if full_matrices == failing:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, full_matrices=full_matrices, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fake)


THIN = "SVD did not converge: SVD did not converge"
RECEIVER = ("SVD of the receiver block did not converge: "
            "SVD did not converge")


class TestSvdNonConvergence:
    @pytest.mark.parametrize("full_matrices, text", [
        (False, THIN), (True, RECEIVER)], ids=["thin", "receiver-block"])
    def test_one_pair_and_stacked_paths_raise(self, monkeypatch,
                                              full_matrices, text):
        pair = random_pair(5, 5, 4, seed=42)
        h = np.vstack([pair.hr, pair.he])[None]
        _svd_fails(monkeypatch, full_matrices)
        calls = [lambda: gsvd(pair), lambda: _stacked_gains(h, pair.n_r)]
        if not full_matrices:
            calls.append(lambda: linalg.svd(h[0]))
        for call in calls:
            with pytest.raises(FactorizationError) as info:
                call()
            assert str(info.value) == text
            assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_campaign_exits_with_one_error_line(self, monkeypatch, tmp_path,
                                                capsys):
        _svd_fails(monkeypatch, False)
        code = cli.main(["sweep-snr", "--nt", "4", "--nr", "4", "--ne", "4",
                         "--snr-db", "0:10:20", "--trials", "2", "--seed", "5",
                         "--out", str(tmp_path / "snr")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {THIN}\n"


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

    def test_eavesdropper_null_direction_has_exact_gains(self):
        # The allocate example pair: gsvd cuts ddiag[3] to zero, while its
        # cosine rounds a little short of 1. Both paths give that direction
        # c = 1 and d = 0 exactly, not d = 1 - c = 2.2e-16.
        pair = ChannelPair(hr=load_matrix(DATA / "allocate_hr.json"),
                           he=load_matrix(DATA / "allocate_he.json"))
        factors = gsvd(pair)
        assert factors.ddiag[3] == 0.0
        g = subchannel_gains(factors)
        _, c, d, _ = _stacked_gains(np.vstack([pair.hr, pair.he])[None],
                                    pair.n_r)
        for cs, ds in ((g.c, g.d), (c[0], d[0])):
            assert cs[3] == 1.0 and ds[3] == 0.0

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

    @pytest.mark.parametrize("ddiag", [
        np.array([0.5]), np.array([0.5, 0.6]), np.array([0.5, 0.6, 0.7, 0.8]),
        np.array([[0.8, 0.6, 0.44]])], ids=["1", "2", "4", "2-D"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rejects_diagonals_of_unequal_length(self, ddiag, dtype):
        # A length-1 ddiag once broadcast over a length-3 cdiag into gains
        # of a factorization that does not exist.
        f = GsvdFactors(a=np.eye(3), psi_r=np.eye(2), psi_e=np.eye(2),
                        cdiag=np.array([0.6, 0.8, 0.9], dtype=dtype),
                        ddiag=ddiag.astype(dtype))
        with pytest.raises(ValueError,
                           match="^c, d, a must be 1-D arrays of equal length$"):
            subchannel_gains(f)


def _gains_outcome(make):
    """The dtype, shape and bytes of make()'s c, d and a, or its
    exception's type and message."""
    try:
        g = make()
    except ValueError as exc:
        return type(exc), str(exc)
    return [(x.dtype, x.shape, x.tobytes()) for x in (g.c, g.d, g.a)]


def _both_rules(cdiag, ddiag, a):
    """subchannel_gains' outcome and the array rule's, on factors with
    these diagonals and beamformer."""
    f = GsvdFactors(a=a, psi_r=np.eye(1), psi_e=np.eye(1), cdiag=cdiag,
                    ddiag=ddiag)
    return (_gains_outcome(lambda: subchannel_gains(f)),
            _gains_outcome(lambda: SubchannelGains(*_gains(cdiag, ddiag, a))))


_HALF = math.sqrt(0.5)
# Diagonal entries at the rule's edges: 0, 1, 0.5 and sqrt(0.5) (where
# c = x**2 meets the complement's 0.5 threshold) one ulp either side, -0.0
# and NaN.
_diagonal_entry = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, -0.0, 1.0, 0.5, math.nextafter(0.5, 0.0),
                     math.nextafter(0.5, 1.0), _HALF,
                     math.nextafter(_HALF, 0.0), math.nextafter(_HALF, 1.0),
                     math.nan]))


@st.composite
def _diagonal_pair(draw):
    """(cdiag, ddiag) entries: free, on the unit circle, with squares about
    TIE_TOL apart, or with an eavesdropper-null ddiag of exactly 0."""
    kind = draw(st.sampled_from(["free", "unit", "tie", "null"]))
    if kind == "free":
        return draw(_diagonal_entry), draw(_diagonal_entry)
    if kind == "unit":
        x = draw(_diagonal_entry)
        return x, math.sqrt(1.0 - x * x)
    if kind == "tie":
        gap = draw(st.floats(min_value=0.0, max_value=3.0)) * TIE_TOL
        pair = math.sqrt(0.5 + 0.5 * gap), math.sqrt(0.5 - 0.5 * gap)
        return pair[::-1] if draw(st.booleans()) else pair
    return draw(st.floats(min_value=0.99, max_value=1.0)), 0.0


# Beamformer columns (two rows each): generic, zero, infinite or NaN.
_column = st.one_of(
    st.tuples(st.floats(min_value=-3.0, max_value=3.0),
              st.floats(min_value=-3.0, max_value=3.0)),
    st.sampled_from([(0.0, 0.0), (math.inf, 0.0), (0.5, -math.inf),
                     (math.nan, 1.0)]))


class TestGainRuleOnFloats:
    """subchannel_gains writes _gains' rule and _check_gains' checks on
    Python floats; the two must agree bit for bit, or raise the same error."""

    @settings(max_examples=400, derandomize=True)
    @given(data=st.data(),
           pairs=st.lists(_diagonal_pair(), min_size=1, max_size=8))
    def test_python_floats_equal_the_array_rule(self, data, pairs):
        columns = data.draw(st.lists(_column, min_size=len(pairs),
                                     max_size=len(pairs)))
        cdiag, ddiag = np.array(pairs).T.copy()
        ours, arrays = _both_rules(cdiag, ddiag, np.array(columns).T.copy())
        assert ours == arrays

    @pytest.mark.parametrize("cdiag, ddiag, columns, message", [
        # A NaN diagonal at entry 1 outranks a zero column at entry 0.
        ([0.6, math.nan], [0.8, 0.3], [(0.0, 0.0), (1.0, 0.0)], "[0, 1]"),
        ([0.6, 0.9], [math.nan, 0.1], [(math.inf, 0.0), (1.0, 0.0)], "[0, 1]"),
        ([0.6, 0.8], [0.8, 0.6], [(1.0, 0.0), (math.nan, 0.0)], "positive"),
        ([0.6, 0.8], [0.8, 0.6], [(1.0, 0.0), (0.0, 0.0)], "positive"),
        ([0.6, 0.8], [0.8, 0.6], [(1.0, 0.0), (2.0, 0.0)], None),
    ])
    def test_multi_entry_faults_keep_their_order(self, cdiag, ddiag, columns,
                                                 message):
        ours, arrays = _both_rules(np.array(cdiag), np.array(ddiag),
                                   np.array(columns).T.copy())
        assert ours == arrays
        assert (message is None) == isinstance(ours, list)
        if message is not None:
            assert message in ours[1]

    def test_sum_check_runs_between_the_bounds_and_a(self, monkeypatch):
        # After the complement every finite pair sums to 1 within an ulp,
        # so only a negative tolerance shows the sum check and its place.
        monkeypatch.setattr(linalg, "GAIN_SUM_TOL", -1.0)
        zero = np.array([(1.0, 0.0), (0.0, 0.0)]).T.copy()
        cases = [(np.array([0.6, 0.8]), np.array([0.8, 0.6]),
                  "gain pairs must satisfy c + d = 1"),
                 (np.array([0.6, math.nan]), np.array([0.8, 0.6]),
                  "gains must lie in [0, 1]")]
        for cdiag, ddiag, message in cases:
            ours, arrays = _both_rules(cdiag, ddiag, zero)
            assert ours == arrays == (ValueError, message)

    @pytest.mark.parametrize("convert", [
        list, lambda x: x.astype(np.float32), lambda x: x.astype(np.int64)],
        ids=["list", "float32", "int64"])
    def test_diagonals_are_taken_as_float64(self, convert):
        cdiag = convert(np.array([0.0, 0.6, 1.0]))
        ddiag = convert(np.array([1.0, 0.8, 0.0]))
        f = GsvdFactors(a=np.eye(3), psi_r=np.eye(1), psi_e=np.eye(1),
                        cdiag=cdiag, ddiag=ddiag)
        wide = [np.asarray(x, dtype=float) for x in (cdiag, ddiag)]
        assert (_gains_outcome(lambda: subchannel_gains(f))
                == _both_rules(*wide, np.eye(3))[1])

    def test_seeded_pairs_equal_the_array_rule(self, shape_classes):
        for k, (n_t, n_r, n_e) in enumerate(shape_classes):
            for trial in range(5):
                f = gsvd(random_pair(n_t, n_r, n_e, seed=7, trial=trial))
                ours, arrays = _both_rules(f.cdiag, f.ddiag, f.a)
                assert ours == arrays


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

    def test_check_pickles_compares_and_stays_frozen(self):
        # verify_factors builds its check without the constructor; it must
        # still be the dataclass the constructor makes.
        pair = random_pair(5, 5, 4, seed=46)
        check = verify_factors(gsvd(pair), pair)
        built = FactorCheck(**dataclasses.asdict(check))
        assert vars(check) == vars(built)
        types = [type(v) for v in dataclasses.astuple(check)]
        assert types == [float] * 5 + [bool]
        for clone in (pickle.loads(pickle.dumps(check)), copy.deepcopy(check),
                      dataclasses.replace(check)):
            assert clone == check == built
            assert pickle.dumps(clone) == pickle.dumps(built)
        assert hash(check) == hash(built)
        assert check != dataclasses.replace(check, ordering_ok=False)
        with pytest.raises(dataclasses.FrozenInstanceError):
            check.cs_identity = 0.0

    @pytest.mark.parametrize("field", range(5))
    def test_any_nan_residual_is_the_max(self, field):
        residuals = [1e-15] * 5
        residuals[field] = np.nan
        check = FactorCheck(*residuals, ordering_ok=True)
        assert np.isnan(check.max_residual)
        assert not check.passed(1e-8)

    def test_nan_psi_e_fails(self):
        pair = random_pair(4, 3, 3, seed=44)
        f = gsvd(pair)
        broken = dataclasses.replace(f, psi_e=np.full_like(f.psi_e, np.nan))
        check = verify_factors(broken, pair)
        assert np.isnan(check.max_residual)
        assert not check.passed(1e-8)

    @pytest.mark.parametrize("slot", [0, 3])
    def test_nan_diagonal_entry_stays_nan(self, slot):
        pair = random_pair(4, 3, 3, seed=44)
        f = gsvd(pair)
        ddiag = f.ddiag.copy()
        ddiag[slot] = np.nan
        check = verify_factors(dataclasses.replace(f, ddiag=ddiag), pair)
        assert np.isnan(check.cs_identity)
        assert not check.ordering_ok

    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_ddiag_length_must_match_cdiag(self, length):
        pair = random_pair(4, 3, 3, seed=45)
        f = gsvd(pair)
        assert f.q == 4
        broken = dataclasses.replace(f, ddiag=np.zeros(length))
        with pytest.raises(ValueError, match="factor shapes do not match"):
            verify_factors(broken, pair)


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


def _edge_factors(case):
    """(factors, pair) of each edge case TestEdgeCaseBits pins."""
    if case == "tied cosines":
        for seed in range(60):
            pair = tied_cosine_pair(seed, 1e-8)
            try:
                yield gsvd(pair), pair
            except FactorizationError:
                continue
    elif case == "silent eavesdropper":
        rng = np.random.default_rng(53)
        hr = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        pair = pair_from_arrays(hr, np.zeros((3, 4)))
        yield gsvd(pair), pair
    elif case.startswith("eavesdropper x"):
        # TestNearNullEavesdropper's faint eavesdropper.
        rng = np.random.default_rng(51)
        hr = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        he = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        pair = pair_from_arrays(hr, float(case.split("x")[1]) * he)
        yield gsvd(pair), pair
    else:
        seed = {"wrong unitary": 41, "float psi_r": 41, "int psi_r": 41,
                "perturbed diagonal": 42, "broken ordering": 43}[case]
        pair = random_pair(4, 3, 3, seed=seed)
        f = gsvd(pair)
        yield dataclasses.replace(f, **{
            "wrong unitary": {"psi_r": np.eye(3, dtype=np.complex128)},
            "float psi_r": {"psi_r": np.eye(3)},
            "int psi_r": {"psi_r": np.eye(3, dtype=np.int64)},
            "perturbed diagonal": {"cdiag": np.minimum(f.cdiag + 1e-3, 1.0)},
            "broken ordering": {"cdiag": f.cdiag[::-1].copy(),
                                "ddiag": f.ddiag[::-1].copy()},
        }[case]), pair


class TestEdgeCaseBits:
    """FactorCheck fields and Psi_e, byte for byte, on the cases the
    Rayleigh draws of TestOnePairBits never reach: a dead slot before a
    live one (tied cosines), a silent or faint eavesdropper, broken
    factorizations, and a real or integer Psi_r."""

    DIGESTS = {
        "tied cosines":
            "7e561cd2654587f86aca4da56453b4853895f88ee3b7d99a5c25871739f26ba6",
        "silent eavesdropper":
            "c2bc929c010c5d14a367dcd58c3073380feae35f2c206a277ab840a1f8671074",
        "eavesdropper x1e-6":
            "a15f8eef077dc3e196203735776d0d87c9e767fc843b300fa36f169c36811c47",
        "eavesdropper x1e-12":
            "6848199e28c6b1458522430d83f0fa6e0c4bd9f1327adc8ea87f821d7be439fb",
        "wrong unitary":
            "9040a554f91ef3cb507058147e9ecabb498a8c8afd9c03b28543245e90685f9e",
        "perturbed diagonal":
            "2b44ae78302c1ae76e0c6596fc8c70d68eab46caff6e92048911a4938c87d3fe",
        "broken ordering":
            "11b9a466b6cec67259966881613842b4f5fcdcac30fb24c42b38f3f83ac248e9",
        "float psi_r":
            "9040a554f91ef3cb507058147e9ecabb498a8c8afd9c03b28543245e90685f9e",
        "int psi_r":
            "9040a554f91ef3cb507058147e9ecabb498a8c8afd9c03b28543245e90685f9e",
    }

    @pytest.mark.parametrize("case", list(DIGESTS))
    def test_checks_and_psi_e_are_pinned(self, case):
        digest = hashlib.sha256()
        for f, pair in _edge_factors(case):
            check = verify_factors(f, pair)
            digest.update(np.array(dataclasses.astuple(check),
                                   dtype=np.float64).tobytes())
            digest.update(f.psi_e.tobytes())
        assert digest.hexdigest() == self.DIGESTS[case]

    def test_tied_cosines_reach_a_dead_slot_before_a_live_one(self):
        masks = [f.ddiag > 0 for f, _ in _edge_factors("tied cosines")]
        assert any(not live[:np.count_nonzero(live)].all() for live in masks)


class TestSvdCalls:
    """perfbench counts linalg.svd calls through the module attribute, so a
    one-pair factorization must make exactly one call through it."""

    @pytest.mark.parametrize("shape", [(2, 2, 2), (4, 4, 4), (8, 3, 2),
                                       (4, 6, 6)])
    def test_one_gsvd_makes_one_svd_call(self, monkeypatch, shape):
        calls = []
        svd = linalg.svd

        def counted(m):
            calls.append(m.shape)
            return svd(m)

        monkeypatch.setattr(linalg, "svd", counted)
        n_t, n_r, n_e = shape
        gsvd(random_pair(n_t, n_r, n_e, seed=3))
        assert calls == [(n_r + n_e, n_t)]


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
