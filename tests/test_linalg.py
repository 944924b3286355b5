"""Unit tests for the matrix utility layer."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gsvdcap import (ExperimentConfig, SubchannelGains, grid_maximize, linalg,
                     load_config, random_gains, read_trial_csv, sample_channel,
                     save_config, write_csv)


def seeded(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestAsMatrix:
    def test_accepts_nested_lists(self):
        m = linalg.as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128
        assert m.shape == (2, 2)
        assert m[1, 0] == 3.0

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            linalg.as_matrix([1, 2, 3])

    def test_rejects_nonfinite(self):
        nan, inf = np.nan, np.inf
        for bad in (nan, complex(nan, 0.0), complex(0.0, nan),
                    complex(0.0, inf), complex(0.0, -inf)):
            with pytest.raises(ValueError, match="finite"):
                linalg.as_matrix([[bad, 0.0], [0.0, 1.0]])


class TestSvd:
    def test_reconstruction_and_orientation(self):
        m = seeded(5, 3, 1)
        u, s, v = linalg.svd(m)
        # v holds right singular vectors as columns, so m = u diag(s) v^H
        rebuilt = (u * s) @ v.conj().T
        assert np.linalg.norm(rebuilt - m) <= 1e-12 * np.linalg.norm(m)
        assert u.shape == (5, 3) and v.shape == (3, 3)
        assert np.all(np.diff(s) <= 0)

    def test_unitary_factors(self):
        m = seeded(4, 6, 2)
        u, s, v = linalg.svd(m)
        assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1])) <= 1e-12
        assert np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])) <= 1e-12

    def test_rejects_nonfinite(self):
        bad = np.array([[1.0, np.inf], [0.0, 1.0]], dtype=np.complex128)
        with pytest.raises(ValueError):
            linalg.svd(bad)


class TestFro:
    @staticmethod
    def same_bits(x):
        # Both overflow to inf with the same warning; compare the values.
        with np.errstate(over="ignore"):
            return linalg._fro(x).tobytes() == np.linalg.norm(x).tobytes()

    @settings(max_examples=100, derandomize=True)
    @given(shape=st.one_of(st.tuples(st.integers(1, 40)),
                           st.tuples(st.integers(1, 8), st.integers(1, 8))),
           exponent=st.integers(-300, 300), seed=st.integers(0, 2**32 - 1))
    def test_equals_numpy_norm_bit_for_bit(self, shape, exponent, seed):
        rng = np.random.default_rng(seed)
        parts = rng.standard_normal((2,) + shape)
        parts[rng.random(parts.shape) < 0.2] = 0.0
        # 1e-300 squares to zero and 1e300 overflows to an infinite norm.
        re, im = 10.0**exponent * parts
        x = re + 1j * im
        assert self.same_bits(x)
        assert self.same_bits(x.T)
        assert self.same_bits(np.zeros(shape, dtype=complex))

    def test_overflow_gives_inf(self):
        x = np.full((2, 2), 1e300 + 1e300j)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert linalg._fro(x) == np.inf
        assert self.same_bits(x)


class TestRankWithTol:
    def test_counts_above_relative_threshold(self):
        s = np.array([10.0, 1.0, 1e-12])
        assert linalg.rank_with_tol(s, 1e-9) == 2

    def test_all_zero(self):
        assert linalg.rank_with_tol(np.zeros(3), 1e-9) == 0

    def test_full_rank(self):
        assert linalg.rank_with_tol(np.array([3.0, 2.0, 1.0]), 1e-9) == 3

    def test_empty(self):
        assert linalg.rank_with_tol(np.array([]), 1e-9) == 0


class TestMatrixIo:
    def test_round_trip(self, tmp_path):
        m = seeded(3, 4, 9)
        path = tmp_path / "m.json"
        linalg.save_matrix(m, path)
        back = linalg.load_matrix(path)
        assert np.array_equal(back, m)

    def test_real_matrix_round_trip(self, tmp_path):
        m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.complex128)
        path = tmp_path / "r.json"
        linalg.save_matrix(m, path)
        assert np.array_equal(linalg.load_matrix(path), m)

    def test_missing_file_has_path_context(self, tmp_path):
        target = tmp_path / "absent.json"
        with pytest.raises(OSError, match="absent.json"):
            linalg.load_matrix(target)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="bad.json"):
            linalg.load_matrix(path)

    def test_inconsistent_payload(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(
            '{"rows": 2, "cols": 2, "re": [1.0, 2.0], "im": [0.0, 0.0]}',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="short.json"):
            linalg.load_matrix(path)


CONFIG = dict(n_t=2, n_r=2, n_e=2, trials=1, seed=0)


def _matrix_file(path, field, value):
    obj = {"rows": 1, "cols": 1, "re": [1.0], "im": [0.0]}
    obj[field] = int(value) if isinstance(value, np.integer) else value
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


# Every count or index the package takes from outside: (field, lo, hi,
# call(value, tmp_path)) with the value in that field.
BOUNDARIES = {
    "config.n_t": ("n_t", 1, None,
                   lambda v, _: ExperimentConfig(**{**CONFIG, "n_t": v})),
    "config.n_r": ("n_r", 1, None,
                   lambda v, _: ExperimentConfig(**{**CONFIG, "n_r": v})),
    "config.n_e": ("n_e", 1, None,
                   lambda v, _: ExperimentConfig(**{**CONFIG, "n_e": v})),
    "config.trials": ("trials", 1, 2**56 + 1,
                      lambda v, _: ExperimentConfig(**{**CONFIG, "trials": v})),
    "config.seed": ("seed", 0, 2**64,
                    lambda v, _: ExperimentConfig(**{**CONFIG, "seed": v})),
    "sample_channel.trial": (
        "trial", 0, 2**56,
        lambda v, _: sample_channel(ExperimentConfig(**CONFIG), v)),
    "random_gains.q": ("q", 1, None, lambda v, _: random_gains(v, 0, 0)),
    "random_gains.seed": ("seed", 0, 2**64, lambda v, _: random_gains(2, v)),
    "random_gains.trial": ("trial", 0, 2**56,
                           lambda v, _: random_gains(2, 0, v)),
    "grid_maximize.resolution": (
        "resolution", 50, None,
        lambda v, _: grid_maximize(
            SubchannelGains(c=[0.8], d=[0.2], a=[1.0]), 1.0, v)),
    "load_matrix.rows": (
        "rows", 1, None,
        lambda v, tmp: linalg.load_matrix(_matrix_file(tmp / "m.json", "rows", v))),
    "load_matrix.cols": (
        "cols", 1, None,
        lambda v, tmp: linalg.load_matrix(_matrix_file(tmp / "m.json", "cols", v))),
}


class TestIntegerRule:
    """linalg._check_int, the one integer rule, at every boundary. A float
    or a bool must raise, not be truncated: a truncated trial 1.7 or True
    draws trial 1, resolution 60.5 runs 60 points, and rows true reads a
    1-row matrix."""

    @pytest.mark.parametrize("boundary, value", [
        (boundary, value) for boundary, (_, lo, hi, _) in BOUNDARIES.items()
        for value in [1.7, 2.0, True, "3", lo + 10.5, lo - 1, hi]
        if value is not None])
    def test_rejects_all_but_an_integer_in_range(self, boundary, value,
                                                 tmp_path):
        field, _, _, call = BOUNDARIES[boundary]
        with pytest.raises(ValueError, match=f"(^|: ){field} must be an integer"):
            call(value, tmp_path)

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_accepts_numpy_integers_at_both_ends(self, boundary, tmp_path):
        _, lo, hi, call = BOUNDARIES[boundary]
        call(np.int64(lo), tmp_path)
        if hi is not None:
            call(hi - 1, tmp_path)

    @pytest.mark.parametrize("hi, text", [
        (51, "from 0 to 50"), (2**56, "from 0 to 2**56 - 1"),
        (2**56 + 1, "from 0 to 2**56"), (2**64, "from 0 to 2**64 - 1"),
        (2**56 - 1, "from 0 to 72057594037927934")])
    def test_message_names_the_range(self, hi, text):
        message = f"n must be an integer {text}, got -1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            linalg._check_int("n", -1, 0, hi)


# Every function that opens a path: (what its OSError says it could not do,
# call(path)). _write_chunks serves all four CSV writers.
FILE_SITES = {
    "load_matrix": ("read matrix file", linalg.load_matrix),
    "save_matrix": ("write matrix file",
                    lambda path: linalg.save_matrix(np.eye(1), path)),
    "load_config": ("read config", load_config),
    "save_config": ("write config",
                    lambda path: save_config(ExperimentConfig(**CONFIG), path)),
    "read_trial_csv": ("read", read_trial_csv),
    "write_csv": ("write", lambda path: write_csv([], path, "rho")),
}


class TestFileRule:
    """linalg._opened and _load_json, the one file rule: every failure
    names the path."""

    @pytest.mark.parametrize("site", FILE_SITES)
    def test_missing_directory_names_the_path(self, site, tmp_path):
        action, call = FILE_SITES[site]
        path = tmp_path / "absent" / "f"
        with pytest.raises(OSError, match=(
                f"^cannot {action} {re.escape(str(path))}: \\[Errno 2\\] ")):
            call(path)

    def test_error_in_the_body_names_the_path(self, tmp_path):
        path = tmp_path / "f.csv"
        with pytest.raises(OSError,
                           match=f"^cannot write {re.escape(str(path))}: boom$"):
            with linalg._opened(path, "w", ""):
                raise OSError("boom")

    @pytest.mark.parametrize("load", [linalg.load_matrix, load_config],
                             ids=["load_matrix", "load_config"])
    def test_undecodable_bytes_name_the_path(self, load, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff{")
        with pytest.raises(ValueError, match=(
                f"^{re.escape(str(path))}: not valid JSON: "
                "'utf-8' codec can't decode byte 0xff in position 0")):
            load(path)
