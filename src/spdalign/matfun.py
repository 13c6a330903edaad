"""Matrix functions on symmetric matrices.

log/exp/sqrt/inverse-sqrt are computed through the eigendecomposition of the
(symmetric) input. The directional (Frechet) derivative of the matrix log
comes from the same eigendecomposition through the Daleckii-Krein formula:
with X = Q diag(l) Q^T,

    dlog(X)[H] = Q (Gamma o Q^T H Q) Q^T,
    Gamma_ij = (log l_i - log l_j) / (l_i - l_j),   Gamma_ii = 1 / l_i

(Higham, Functions of Matrices, SIAM 2008, ch. 3). `dlog`, `dlog_eig` (the
same formula from eigenpairs the caller already holds) and the helpers they
validate with (check_symmetric, symmetrize, pd_floor, require_pd, sym_eig,
spd_eig, eig_apply) take one matrix (n, n) or a stack (..., n, n) and treat
each matrix on its own; a failed check on a stack names the first failing
matrix. The spd_* functions take one matrix.
"""

import numpy as np

from .errors import NonSymmetricError, NotPositiveDefiniteError, NoConvergenceError

SYM_RTOL = 1e-10


def _mT(A):
    """Transpose of the last two axes: A.T for one matrix, per matrix for a stack."""
    return A.swapaxes(-1, -2)


def check_symmetric(A, name="matrix"):
    """Raise NonSymmetricError unless A is square and symmetric to tolerance.

    A stack is checked matrix by matrix, each against its own scale.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise NonSymmetricError(f"{name} must be square, got shape {A.shape}")
    scale = np.maximum(np.abs(A).max(axis=(-2, -1), keepdims=True), 1.0)
    bad = (np.abs(A - _mT(A)) / scale).max(axis=(-2, -1)) > SYM_RTOL
    if bad.any():
        raise NonSymmetricError(
            f"{name}{_first(bad)} is not symmetric within tolerance"
        )
    return A


def _first(bad, ids=None):
    """' <index>' of the first flagged matrix of a stack, '' for one matrix.

    ids, when given, maps stack positions to the index to report.
    """
    if bad.ndim == 0:
        return ""
    where = tuple(int(k) for k in np.argwhere(bad)[0])
    label = where[0] if len(where) == 1 else where
    return f" {label if ids is None else ids[label]}"


def symmetrize(A):
    return 0.5 * (A + _mT(A))


def pd_floor(X):
    """Scale-aware eigenvalue floor below which X is rejected as non-PD.

    For a stack, one floor per matrix.
    """
    return 1e-12 * np.maximum(X.trace(axis1=-2, axis2=-1) / X.shape[-1], 1.0)


def require_pd(w, X, name="matrix", ids=None):
    """Raise NotPositiveDefiniteError unless every smallest eigenvalue clears
    its matrix's PD floor.

    w holds the ascending eigenvalues of X, one matrix or a stack. A NaN
    eigenvalue fails the check too. The error names the first failing matrix
    of a stack, by position or through ids.
    """
    low = w[..., 0]
    bad = ~(low > pd_floor(X))
    if bad.any():
        raise NotPositiveDefiniteError(
            f"{name}{_first(bad, ids)} has min eigenvalue {low[bad].flat[0]:.3e} "
            "at or below the PD floor"
        )


def sym_eig(A):
    """Eigendecomposition of a symmetric matrix or stack.

    Returns (w, Q) with eigenvalues w ascending and orthogonal Q such that
    A = Q diag(w) Q^T. A failed solve or a non-finite spectrum (NaN input)
    raises NoConvergenceError.
    """
    A = check_symmetric(A)
    try:
        w, Q = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    if not np.isfinite(w).all():
        raise NoConvergenceError("symmetric eigensolver returned non-finite values")
    return w, Q


def _one_matrix(A, name="matrix"):
    """Reject stacks where the eigenvalues would scale the wrong axis."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise NonSymmetricError(f"{name} must be one matrix, got shape {A.shape}")
    return A


def spd_eig(X, name="matrix"):
    """sym_eig of a positive definite matrix or stack, rejecting floored spectra."""
    w, Q = sym_eig(X)
    require_pd(w, X, name)
    return w, Q


def eig_apply(Q, values):
    """Q diag(values) Q^T, symmetrized: a spectral function from its eigenpairs.

    Q and values are one eigendecomposition or a stack of them.
    """
    return symmetrize((Q * values[..., None, :]) @ _mT(Q))


def spd_log(X):
    """Principal matrix logarithm of a positive definite matrix."""
    w, Q = spd_eig(_one_matrix(X))
    return symmetrize((Q * np.log(w)) @ Q.T)


def spd_exp(H):
    """Matrix exponential of a symmetric matrix."""
    w, Q = sym_eig(_one_matrix(H))
    return symmetrize((Q * np.exp(w)) @ Q.T)


def spd_sqrt(X):
    """Principal square root of a positive definite matrix."""
    w, Q = spd_eig(_one_matrix(X))
    return symmetrize((Q * np.sqrt(w)) @ Q.T)


def spd_inv_sqrt(X):
    """Inverse of the principal square root of a positive definite matrix."""
    w, Q = spd_eig(_one_matrix(X))
    return symmetrize((Q / np.sqrt(w)) @ Q.T)


def spd_sqrt_pair(X):
    """(X^{1/2}, X^{-1/2}) from a single eigendecomposition."""
    w, Q = spd_eig(_one_matrix(X))
    s = np.sqrt(w)
    return symmetrize((Q * s) @ Q.T), symmetrize((Q / s) @ Q.T)


def _log_divided_differences(w):
    """Gamma_ij = (log w_i - log w_j) / (w_i - w_j), with 1 / w_i on ties.

    Written as log1p(t) / (b t) with b = min(w_i, w_j) and t = |w_i - w_j| / b,
    which stays accurate as the gap closes: nearby eigenvalues subtract
    exactly, and log1p avoids the cancelling difference of two logs. Exactly
    symmetric in i and j.
    """
    wi, wj = w[..., :, None], w[..., None, :]
    b = np.minimum(wi, wj)
    t = np.abs(wi - wj) / b
    tied = t == 0.0
    t_safe = np.where(tied, 1.0, t)
    return np.where(tied, 1.0, np.log1p(t_safe) / t_safe) / b


def dlog(X, H):
    """Directional derivative of the matrix log at X along a symmetric H.

    X and H are one matrix each or stacks of the same shape (..., n, n); a
    stack gives the derivative of every X_k along its own H_k. One
    eigendecomposition of X, then `dlog_eig`.
    """
    X = np.asarray(X, dtype=float)
    H = check_symmetric(H, "direction")
    if H.shape != X.shape:
        raise NonSymmetricError(
            f"direction shape {H.shape} does not match base point {X.shape}"
        )
    w, Q = spd_eig(X, "base point")
    return dlog_eig(w, Q, H)


def dlog_eig(w, Q, H):
    """dlog at X = Q diag(w) Q^T along H, given the eigenpairs of a positive
    definite X: Q (Gamma o Q^T H Q) Q^T with the divided differences Gamma
    of the log at the eigenvalues.

    For callers that already hold the eigenpairs; `dlog` checks its inputs
    and decomposes X first.
    """
    inner = _log_divided_differences(w) * (_mT(Q) @ H @ Q)
    D = symmetrize(Q @ inner @ _mT(Q))
    if not np.isfinite(D).all():
        raise NoConvergenceError("matrix log derivative is not finite")
    return D
