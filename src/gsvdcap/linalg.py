"""Dense complex-matrix primitives shared by the factorization code.

Matrices are plain 2-D ``numpy.ndarray`` values with dtype complex128; use
:func:`as_matrix` to validate anything crossing an API boundary. Everything
here is pure and thread-safe.

_fro is ``np.linalg.norm(x)`` of a complex array without the dispatch: the
same ravel and the same two real dot products, so the same bits. The
one-pair residuals (svd's reconstruction check and gsvd.verify_factors)
take it.
"""

from __future__ import annotations

import json

import numpy as np

FACTOR_TOL = 1e-10
RANK_TOL = 1e-9


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


def svd(m):
    """Thin SVD ``M = U diag(s) V^H``, singular values descending.

    Returns (U, s, V); note V, not V^H. The reconstruction is verified to
    FACTOR_TOL relative to max(1, ||M||_F) and a backend convergence failure
    surfaces as FactorizationError.
    """
    m = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD did not converge: {exc}") from exc
    residual = _fro(m - (u * s) @ vh)
    if residual > FACTOR_TOL * max(1.0, _fro(m)):
        raise FactorizationError(
            f"SVD reconstruction residual {residual:.3e} exceeds tolerance"
        )
    return u, s, vh.conj().T


def _fro(x):
    """Frobenius norm of a complex array, np.linalg.norm's axis=None
    branch verbatim."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return np.sqrt(re.dot(re) + im.dot(im))


def _stacked_svd(m):
    """svd of every matrix of a (..., rows, cols) stack of finite complex
    matrices, which are not re-validated: U, s and V gain the stack's
    leading axes, and one matrix that misses the tolerance fails the
    stack."""
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"SVD did not converge: {exc}") from exc
    frob = (-2, -1)
    residual = np.linalg.norm(m - (u * s[..., None, :]) @ vh, axis=frob)
    bad = residual > FACTOR_TOL * np.maximum(1.0, np.linalg.norm(m, axis=frob))
    if np.any(bad):
        raise FactorizationError(
            f"SVD reconstruction residual {np.max(residual[bad]):.3e} "
            "exceeds tolerance"
        )
    return u, s, vh.conj().swapaxes(-1, -2)


def rank_with_tol(s, tol):
    """Count singular values above tol * max(s, floored at 1e-300)."""
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > tol * max(float(s.max()), 1e-300)))


def load_matrix(path):
    """Read a matrix from JSON: {"rows", "cols", "re", "im"}, row-major."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read matrix file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed matrix object: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError(f"{path}: rows and cols must be positive")
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
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    except OSError as exc:
        raise OSError(f"cannot write matrix file {path}: {exc}") from exc
