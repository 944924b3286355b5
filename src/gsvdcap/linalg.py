"""Dense complex-matrix primitives shared by the factorization code, and
the package's tolerance table.

Matrices are plain 2-D ``numpy.ndarray`` values with dtype complex128; use
:func:`as_matrix` to validate anything crossing an API boundary. Everything
here is pure and thread-safe.

_fro is ``np.linalg.norm(x)`` of a complex array without the dispatch: the
same ravel, the same two real dot products and a correctly rounded root,
so the same bits. The one-pair residuals (svd's reconstruction check and
gsvd.verify_factors) take it. _stacked_svd's residuals take _stacked_fro,
which is ``np.linalg.norm(x, axis=(-2, -1))``'s own expression written
out, so the same bits again.

Every SVD the package computes (svd, _stacked_svd and gsvd's receiver
block) is one _svd call, so a LAPACK convergence failure follows one
rule: FactorizationError naming the SVD, chained to the LinAlgError.

Every threshold the package applies on its own (to count rank, classify
a direction, stop the budget search or accept an input) is defined
once, in the table below, and read from here by the module that applies
it. Each entry says what it compares, against what, and whether it is
absolute or relative. Three known defects each sit on one entry; each fix
changes outputs, so none is made yet:

- NULLSPACE_TOL and NULL_EPS disagree. gsvd cuts the amplitude ddiag at
  1e-8; classify_subspaces cuts its square d at 1e-9, which is ddiag at
  about 3.2e-5. A direction in between (Hr 3x3 and He 1e-6 times one right
  singular vector of Hr give ddiag 3e-7) stays live in Psi_e but is counted
  in S1 as eavesdropper-null.
- BUDGET_TOL is relative, and solve_mu misses budgets below what the
  closed form resolves next to mu_hi: on c = 0.8, d = 0.2, a = 1 a budget
  of 1e-14 ends at 9.99e-15 and one of 1e-17 at 2.22e-16.
- NULLSPACE_TOL cuts between near-equal norms on a weak eavesdropper:
  with Hr = I3 and He = s times two orthonormal rows, every cosine rounds
  to 1 and the receiver block's SVD spreads the eavesdropper's energy over
  all q columns. For s from 1e-8 to 1e-7 gsvd mostly raises, returns an
  unordered ddiag, or returns factors that miss a 1e-8 residual.

Not in the table: pass/fail limits a caller chooses (FactorCheck.passed's
and KktReport.passed's tol, gsvd-check's --tol, oracle-verify's limits),
and the budget search's stop on a step of 4 ulp (allocation._FOUR_ULP),
which is the resolution of a double, not a choice.

Every count or index the package takes from outside (ExperimentConfig's
dimensions, trials and seed, sample_channel's and random_gains' trial,
random_gains' q and seed, grid_maximize's resolution, load_matrix's rows
and cols) passes one rule, _check_int beside the table: an integer that is
not a bool, within a range, or a ValueError naming the field and the
range. Nothing truncates: 1.7, 2.0, True and "3" are all refused.

Every file the package reads or writes (matrices, configs, campaign CSVs)
passes one rule too, _opened beside _check_int: UTF-8 text with
newline="", and an OSError from the open or the body becomes one naming
the path. A write rewrites the file in place: opened without truncation,
then truncated at the end of what was written, and only if it is a
regular file, so a device or FIFO takes the bytes as open(path, "w")
gives them. _load_json adds the decode rule: bytes that are not UTF-8 or
not JSON are a ValueError naming the path.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
import stat

import numpy as np

# The tolerance table. abs: compared as is; rel: scaled by the reference.
# Rank and factorization (svd, _stacked_svd, rank_with_tol, gsvd):
RANK_TOL = 1e-9  # rel: a singular value counts if above RANK_TOL * the largest
RANK_FLOOR = 1e-300  # abs: floor of that largest value, so zero has rank 0
FACTOR_TOL = 1e-10  # rel: SVD reconstruction residual to max(1, ||M||_F)
# Directions and gains (gsvd, SubchannelGains, classify_subspaces):
NULLSPACE_TOL = 1e-8  # abs: eavesdropper amplitude ddiag at or below is null
GAIN_SUM_TOL = 1e-8  # abs: largest allowed |c + d - 1| of a gain pair
TIE_TOL = 1e-12  # abs: |c - d| at or below snaps the pair to c = d = 0.5
NULL_EPS = 1e-9  # abs: a squared gain c or d below it is null (S1, excluded)
# Checks on factors and covariances (verify_factors, matrix_rate):
ORDER_SLACK = 1e-12  # abs: allowed step against cdiag's ascent, ddiag's descent
HERMITIAN_TOL = 1e-8  # rel: ||Q - Q^H||_F to max(1, ||Q||_F)
PSD_TOL = 1e-8  # rel: accept min eig(Q) >= -PSD_TOL * max(1, ||Q||_F)
# Power allocation and its oracle (solve_mu, _solve_batch, oracle):
BUDGET_TOL = 2.0 ** -50  # rel: the solve stops at |sum a p - P| <= BUDGET_TOL * P
BUDGET_SLACK = 1e-12  # rel: grid points radiating up to P (1 + slack) count
ACTIVE_EPS = 1e-15  # abs: kkt_check's power above it is active, at most it zero
KKT_SLACK = 1e-6  # rel: an inactive marginal may exceed mu by this fraction
# Command line (cli.parse_range):
RANGE_EPS = 1e-12  # abs: stop is included within this of a grid point


def _check_int(name, value, lo, hi=None):
    """Require value to be an integer (numbers.Integral, not bool) with
    lo <= value < hi, or with lo <= value if hi is None; a ValueError
    naming name and the range otherwise."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < lo or (hi is not None and value >= hi)):
        span = (f"at least {lo}" if hi is None
                else f"from {lo} to {_int_text(hi - 1)}")
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")


def _int_text(n):
    """n as an error message writes it: a large 2**k or 2**k - 1 by k."""
    k = (n + 1).bit_length() - 1
    if n < 2**16 or (1 << k) - n not in (0, 1):
        return str(n)
    return f"2**{k}" if n == 1 << k else f"2**{k} - 1"


@contextlib.contextmanager
def _opened(path, mode, what):
    """path opened for mode "r" or "w" as UTF-8 text with newline="".

    "w" rewrites the file in place: it is opened (created with 0o666 less
    the umask if absent) without truncation, and after the body, even one
    that raises, a regular file is truncated at the final position. The
    inode, permission bits and symlink target stay, and the bytes are
    those of open(path, "w"), without ext4's flush of a file truncated
    to zero at its close. A device or FIFO, which cannot be truncated,
    takes the bytes as written. An OSError from the open or the body
    becomes "cannot read|write {what}{path}: {exc}".
    """
    try:
        # The opener takes open()'s own flags for mode, less O_TRUNC.
        with open(path, mode, encoding="utf-8", newline="",
                  opener=lambda name, flags: os.open(
                      name, flags & ~os.O_TRUNC, 0o666)) as fh:
            try:
                yield fh
            finally:
                if mode == "w" and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                    fh.truncate()
    except OSError as exc:
        verb = "read" if mode == "r" else "write"
        raise OSError(f"cannot {verb} {what}{path}: {exc}") from exc


def _load_json(path, what):
    """The JSON value in path, read through _opened; a ValueError naming
    path for bytes that are not UTF-8 or not JSON."""
    with _opened(path, "r", what) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc


class FactorizationError(RuntimeError):
    """A matrix factorization failed to converge or verify."""


def as_matrix(values):
    """Coerce to a 2-D complex128 array with finite entries.

    Args:
        values: anything ``np.asarray`` accepts.

    Raises:
        ValueError: wrong dimensionality or non-finite entries.
    """
    m = np.asarray(values, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _svd(m, full_matrices=False, name="SVD"):
    """numpy's (U, s, V^H) of one matrix or a stack, thin unless
    full_matrices, unchecked; a LAPACK convergence failure becomes
    FactorizationError("{name} did not converge: ...")."""
    try:
        return np.linalg.svd(m, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"{name} did not converge: {exc}") from exc


def svd(m):
    """Thin SVD ``M = U diag(s) V^H``, singular values descending.

    Returns (U, s, V); note V, not V^H. The reconstruction is verified to
    FACTOR_TOL relative to max(1, ||M||_F) and a backend convergence failure
    surfaces as FactorizationError.
    """
    m = as_matrix(m)
    u, s, vh = _svd(m)
    residual = _fro(m - (u * s) @ vh)
    if residual > FACTOR_TOL * max(1.0, _fro(m)):
        raise FactorizationError(
            f"SVD reconstruction residual {residual:.3e} exceeds tolerance"
        )
    return u, s, vh.conj().T


def _fro(x):
    """Frobenius norm of a complex array, np.linalg.norm's axis=None
    branch with the root taken by math.sqrt, which rounds as np.sqrt."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return np.float64(math.sqrt(re.dot(re) + im.dot(im)))


def _stacked_fro(x):
    """Frobenius norms of a (..., rows, cols) complex stack,
    np.linalg.norm(x, axis=(-2, -1))'s own expression."""
    return np.sqrt((x.conj() * x).real.sum(axis=(-2, -1)))


def _stacked_svd(m):
    """svd of every matrix of a (..., rows, cols) stack of finite complex
    matrices, which are not re-validated: U, s and V gain the stack's
    leading axes, and one matrix that misses the tolerance fails the
    stack."""
    u, s, vh = _svd(m)
    residual = _stacked_fro(m - (u * s[..., None, :]) @ vh)
    bad = residual > FACTOR_TOL * np.maximum(1.0, _stacked_fro(m))
    if bad.any():
        raise FactorizationError(
            f"SVD reconstruction residual {residual[bad].max():.3e} "
            "exceeds tolerance"
        )
    return u, s, vh.conj().swapaxes(-1, -2)


def rank_with_tol(s, tol):
    """Count singular values above tol * max(s), the max floored at
    RANK_FLOOR, along the last axis: an int for one set of values, an
    array of counts for a stack of them."""
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        return 0
    top = np.maximum(s.max(axis=-1, keepdims=True), RANK_FLOOR)
    count = (s > tol * top).sum(axis=-1)
    return int(count) if s.ndim == 1 else count


def load_matrix(path):
    """Read a matrix from JSON: {"rows", "cols", "re", "im"}, row-major."""
    obj = _load_json(path, "matrix file ")
    try:
        rows, cols = obj["rows"], obj["cols"]
        _check_int("rows", rows, 1)
        _check_int("cols", cols, 1)
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed matrix object: {exc}") from exc
    if re.shape != (rows * cols,) or im.shape != (rows * cols,):
        raise ValueError(f"{path}: 're' and 'im' must each hold rows*cols values")
    return as_matrix((re + 1j * im).reshape(rows, cols))


def save_matrix(m, path):
    """Write a matrix as the JSON format load_matrix reads."""
    m = as_matrix(m)
    obj = {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": m.real.ravel().tolist(),
        "im": m.imag.ravel().tolist(),
    }
    with _opened(path, "w", "matrix file ") as fh:
        json.dump(obj, fh)
