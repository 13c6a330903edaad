"""Matrix functions on symmetric matrices.

log and exp are computed through the eigendecomposition of the
(symmetric) input. The directional (Frechet) derivative of the matrix log
comes from the same eigendecomposition through the Daleckii-Krein formula:
with X = Q diag(l) Q^T,

    dlog(X)[H] = Q (Gamma o Q^T H Q) Q^T,
    Gamma_ij = (log l_i - log l_j) / (l_i - l_j),   Gamma_ii = 1 / l_i

(Higham, Functions of Matrices, SIAM 2008, ch. 3). `dlog`, `dlog_eig` (the
same formula from eigenpairs the caller already holds) and the helpers they
validate with (check_finite, check_symmetric, symmetrize, pd_floor,
require_pd, sym_eig, spd_eig, eig_apply) take one matrix (n, n) or a stack
(..., n, n) and treat each matrix on its own; a failed check on a stack
names the first failing matrix. The spd_* functions take one matrix.
`chol_inv` inverts positive definite matrices, one or a stack, from Cholesky
factors the caller holds.
"""

import numpy as np

from .errors import (
    NonSymmetricError,
    NotPositiveDefiniteError,
    NoConvergenceError,
    ValidationError,
)

SYM_RTOL = 1e-10


def _mT(A):
    """Transpose of the last two axes: A.T for one matrix, per matrix for a stack."""
    return A.swapaxes(-1, -2)


def check_finite(A, name="matrix"):
    """Raise ValidationError unless every entry of A is finite.

    Checked before any symmetry check or factorization, which would
    otherwise fail as whatever they make of a non-finite matrix; the first
    non-finite matrix of a stack is named by its position.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim >= 2:
        finite = np.isfinite(A).all(axis=(-2, -1))
        if not finite.all():
            label = "" if finite.ndim == 0 else f" {int(np.argmin(finite))}"
            raise ValidationError(f"{name}{label} holds a non-finite value")
    return A


def check_symmetric(A, name="matrix"):
    """Raise NonSymmetricError unless A is square and symmetric to tolerance.

    A stack is checked matrix by matrix, each against its own scale. A
    non-finite matrix is left to `check_finite`: the skew of a mirrored inf
    pair, or its ratio to an infinite scale, is NaN, which passes.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise NonSymmetricError(f"{name} must be square, got shape {A.shape}")
    scale = np.maximum(np.maximum(A.max((-2, -1)), -A.min((-2, -1))), 1.0)
    # |A - A^T| in one stack-sized temporary, scaled after its maximum
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf
        skew = A - _mT(A)
        np.abs(skew, out=skew)
        bad = skew.max((-2, -1)) / scale > SYM_RTOL
    if bad.any():
        index, label = _first(bad)
        raise NonSymmetricError(
            f"{name}{label} is not symmetric within tolerance", index
        )
    return A


def _first(bad, ids=None):
    """(index, label) of the first flagged matrix of a stack: its position
    (a tuple for a stack of more than one axis) and ' <position>' for a
    message; (None, '') for one matrix.

    ids, when given, is a tuple of index arrays over the positions of a 1-D
    stack: position k is reported as [ids[0][k] ids[1][k] ...]. Only the
    failing position is looked up, so a caller passes its index arrays as
    they are.
    """
    if bad.ndim == 0:
        return None, ""
    where = tuple(int(k) for k in np.argwhere(bad)[0])
    index = where[0] if len(where) == 1 else where
    return index, f" {index if ids is None else np.array([a[index] for a in ids])}"


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
    of a stack, by position or through ids, and carries its position as
    `index` (`_first`).
    """
    low = w[..., 0]
    bad = ~(low > pd_floor(X))
    if bad.any():
        index, label = _first(bad, ids)
        raise NotPositiveDefiniteError(
            f"{name}{label} has min eigenvalue {low[bad].flat[0]:.3e} "
            "at or below the PD floor", index
        )


def sym_eig(A):
    """Eigendecomposition of a symmetric matrix or stack.

    Returns (w, Q) with eigenvalues w ascending and orthogonal Q such that
    A = Q diag(w) Q^T. A failed solve or a non-finite spectrum (NaN input)
    raises NoConvergenceError. Symmetry is checked where the input enters
    the package, not here: the kernels call this on matrices they have just
    symmetrized.
    """
    try:
        w, Q = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigensolver failed: {exc}") from exc
    if not np.isfinite(w).all():
        raise NoConvergenceError("symmetric eigensolver returned non-finite values")
    return w, Q


def _one_matrix(A, name="matrix"):
    """A checked symmetric matrix; stacks are rejected, since the eigenvalues
    would scale the wrong axis."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise NonSymmetricError(f"{name} must be one matrix, got shape {A.shape}")
    return check_symmetric(A, name)


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


def chol_inv(L):
    """A^{-1} = L^{-T} L^{-1} from the lower Cholesky factor L of a positive
    definite A = L L^T, one matrix or a stack.

    L^{-1} comes by forward substitution, one row per step and each step
    vectorized over the stack, then A^{-1} from one batched product.
    """
    inv = np.zeros_like(L)
    recip = 1.0 / np.diagonal(L, axis1=-2, axis2=-1)
    for k in range(L.shape[-1]):
        inv[..., k, k] = recip[..., k]
        if k:
            inv[..., k, :k] = -recip[..., k, None] * np.einsum(
                "...j,...jc->...c", L[..., k, :k], inv[..., :k, :k]
            )
    return _mT(inv) @ inv


def spd_log(X):
    """Principal matrix logarithm of a positive definite matrix."""
    w, Q = spd_eig(_one_matrix(X))
    return symmetrize((Q * np.log(w)) @ Q.T)


def spd_exp(H):
    """Matrix exponential of a symmetric matrix."""
    w, Q = sym_eig(_one_matrix(H))
    return symmetrize((Q * np.exp(w)) @ Q.T)


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
    stack gives the derivative of every X_k along its own H_k. Both are
    checked finite first, then symmetric; then one eigendecomposition of X
    and `dlog_eig`.
    """
    X = check_finite(X, "base point")
    H = check_finite(H, "direction")
    X = check_symmetric(X, "base point")
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
