"""Matrix functions on symmetric matrices.

A spectral function f(X) = Q diag(f(l)) Q^T comes from the eigenpairs of
the (symmetric) input: `sym_eig` or `spd_eig`, then `eig_apply`. The
directional (Frechet) derivative of the matrix log comes from the same
eigendecomposition through the Daleckii-Krein formula: with
X = Q diag(l) Q^T,

    dlog(X)[H] = Q (Gamma o Q^T H Q) Q^T,
    Gamma_ij = (log l_i - log l_j) / (l_i - l_j),   Gamma_ii = 1 / l_i

(Higham, Functions of Matrices, SIAM 2008, ch. 3). `dlog`, `dlog_eig` (the
same formula from eigenpairs the caller already holds) and the helpers they
validate with (check_symmetric, symmetrize, pd_floor, require_pd, check_pd,
sym_eig, spd_eig, eig_apply) take one matrix (n, n) or a stack (..., n, n)
and treat each matrix on its own; a failed check on a stack names the first
failing matrix. `check_symmetric` is the one check that a matrix or stack
is square, finite and symmetric, and `check_pd` is the one stacked
positive definiteness check, called where samples enter the package: a
Cholesky screen, with `eigvalsh` and `require_pd` only for a stack the
screen cannot clear. `spd_chol` only decomposes: it guards its Cholesky
factorization against breakdown alone, and names the failing member by
the same `eigvalsh` and `require_pd` fallback. `qr_orthonormal`
gives the sign-fixed orthonormal factor of a QR factorization, for seeded
random frames.

`tri_inv` inverts lower Cholesky factors, one or a stack, by forward
substitution on the factors held entry-major, one (m, m, P) array, and
`chol_inv` builds A^{-1} = L^{-T} L^{-1} from it. Both give a matrix the same
bits whatever stack it comes in. Stein inverts its samples and midpoints
through `chol_inv`; the affine-invariant kernel whitens by `tri_inv`'s
L^{-1}, which it holds transposed.
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


def check_symmetric(A, name="matrix"):
    """Raise unless A is square, n >= 1, finite and symmetric: the one check
    of all three.

    A mis-shaped A raises NonSymmetricError. A matrix whose scale
    max |A| is not finite (max and min carry any inf or NaN entry through)
    holds a non-finite value and raises ValidationError. A is symmetric when
    max |A - A^T| <= SYM_RTOL * max |A|. A stack is checked matrix by
    matrix, each at its own scale with no floor, as the PD floor
    (`pd_floor`) is relative to each matrix too; the first failing matrix
    is named by its position.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] == 0:
        raise NonSymmetricError(f"{name} must be square, n >= 1, got shape {A.shape}")
    scale = np.maximum(A.max((-2, -1)), -A.min((-2, -1)))
    finite = np.isfinite(scale)
    if not finite.all():
        _, label = _first(~finite)
        raise ValidationError(f"{name}{label} holds a non-finite value")
    # |A - A^T| in one stack-sized temporary
    skew = A - _mT(A)
    np.abs(skew, out=skew)
    bad = skew.max((-2, -1)) > SYM_RTOL * scale
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
    """(A + A^T) / 2 of a float matrix or stack, halved in place in the one
    new array: bit for bit 0.5 * (A + A^T), and A is left as it is."""
    S = A + _mT(A)
    S *= 0.5
    return S


def pd_floor(X):
    """Eigenvalue floor below which X is rejected as non-PD: 1e-12 times the
    mean eigenvalue tr X / n, so the test is invariant to a common scaling.
    A matrix whose trace is zero or negative fails it, as its smallest
    eigenvalue is at most tr X / n, which then lies at or below the floor.

    For a stack, one floor per matrix.
    """
    return 1e-12 * (X.trace(axis1=-2, axis2=-1) / X.shape[-1])


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


# Backward-error factor of the PD screen (`check_pd`). A Cholesky
# factorization of A = X - s I that runs to completion in floating point is
# exact for A + E with |E| <= gamma_{n+1} |L||L^T| (Higham 2002, Thm 10.3).
# As || |L||L^T| ||_2 <= ||L||_F^2 = tr(A + E) and gamma_{n+1} is about
# (n + 1) eps / 2, lambda_min(X) >= s - n eps tr X. eigvalsh is backward
# stable: each computed eigenvalue is within p(n) eps ||X||_2 <= p(n) eps tr X
# of the exact one (LAPACK Users' Guide, sec. 4.7, takes p(n) = 1; the
# worst-case bound of Householder tridiagonalization grows like n^2 eps).
# A margin of SCREEN_K n eps tr X above the PD floor covers both terms for
# any p(n) up to (SCREEN_K - 1) n.
SCREEN_K = 256


def check_pd(X, name="matrix"):
    """Raise NotPositiveDefiniteError unless the smallest eigenvalue of X,
    one matrix or each of a stack, clears its PD floor (`require_pd`).

    One stacked Cholesky of X - (pd_floor(X) + delta) I, delta = SCREEN_K n
    eps tr X, screens X: finite factors show that every matrix clears its
    floor by more than the rounding of both Cholesky and `eigvalsh`, so it
    passes `require_pd` on its `eigvalsh` spectrum. A factor exists only
    when tr X > 0, so delta is then positive. Only X the screen cannot clear
    takes `eigvalsh`, and `require_pd` decides it and names its first
    failing matrix; the screen never contradicts that check.

    First, a matrix whose trace is above half of float64's largest value in
    magnitude, or overflows, is rejected as out of range, with no numpy
    warning: under that limit no entry of a positive definite matrix, no
    sum of two such entries (a Stein midpoint, `symmetrize`) and no trace
    overflows.

    It runs once per sample stack, where the stack enters the package:
    `LabeledDataset` and the raw-array distance entry points of `metrics`.
    """
    n = X.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        trace = X.trace(axis1=-2, axis2=-1)
    huge = ~(np.abs(trace) <= np.finfo(float).max / 2)
    if huge.any():
        index, label = _first(huge)
        raise NotPositiveDefiniteError(
            f"{name}{label} has trace {trace[huge].flat[0]:.3e}: its scale is "
            "out of range for float64", index
        )
    shift = pd_floor(X) + SCREEN_K * n * np.finfo(float).eps * trace
    try:
        chol = np.linalg.cholesky(X - shift[..., None, None] * np.eye(n))
        cleared = np.isfinite(chol).all()
    except np.linalg.LinAlgError:
        cleared = False
    if not cleared:
        require_pd(np.linalg.eigvalsh(X), X, name)
    return X


def spd_chol(X, name="matrix", ids=None):
    """Lower Cholesky factor L, X = L L^T, of a positive definite matrix or
    stack: the one guard of a Cholesky breakdown.

    It decides no PD floor of its own; `check_pd` does that where samples
    enter. A factorization that breaks down, or gives a diagonal that is not
    finite (an infinite input entry), is decided by the spectrum:
    `require_pd` names the first failing member, by position or through ids
    (`_first`), and a stack whose spectrum clears the floor still has no
    factor to give.
    """
    try:
        chol = np.linalg.cholesky(X)
        if np.isfinite(np.diagonal(chol, axis1=-2, axis2=-1)).all():
            return chol
    except np.linalg.LinAlgError:
        pass
    require_pd(np.linalg.eigvalsh(X), X, name, ids)
    raise NotPositiveDefiniteError(f"{name} has no finite Cholesky factor")


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


def qr_orthonormal(A):
    """Q of the QR factorization A = QR, each column's sign flipped so that
    R's diagonal is nonnegative; a column whose diagonal entry is zero keeps
    its sign. Of a Gaussian A, a Haar-distributed orthonormal frame."""
    Q, R = np.linalg.qr(A)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def tri_inv(L):
    """L^{-1} of the lower Cholesky factor L of a positive definite matrix,
    one factor or a stack.

    Forward substitution, one row per step, on the factors held
    entry-major: a contiguous (m, m, P) copy of the P factors of size
    m x m, so each row step is one product over all P matrices at once.
    Each step treats every matrix alike, so a factor's inverse does not
    depend on the stack it came in. The result is a new contiguous array.
    """
    m = L.shape[-1]
    factor = L.reshape(-1, m, m).transpose(1, 2, 0).copy()
    inv = np.zeros_like(factor)
    recip = 1.0 / np.diagonal(factor).T
    for k in range(m):
        inv[k, k] = recip[k]
        if k:
            inv[k, :k] = -recip[k] * np.einsum(
                "jp,jcp->cp", factor[k, :k], inv[:k, :k]
            )
    return inv.transpose(2, 0, 1).copy().reshape(L.shape)


def chol_inv(L):
    """A^{-1} = L^{-T} L^{-1} from the lower Cholesky factor L of a positive
    definite A = L L^T, one matrix or a stack.

    L^{-1} comes from `tri_inv`, and A^{-1} from one batched product of two
    distinct contiguous arrays, which numpy computes matrix by matrix as a
    general product (of one array with itself it takes a symmetric rank-k
    update, slower on stacks of small matrices; ROADMAP.md's floors), so a
    matrix's inverse does not depend on the stack it came in either.
    """
    inv = tri_inv(L).reshape(-1, L.shape[-1], L.shape[-1])
    return (_mT(inv) @ inv.copy()).reshape(L.shape)


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
    checked finite and symmetric (`check_symmetric`); then one
    eigendecomposition of X and `dlog_eig`.
    """
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
    and decomposes X first. A derivative that overflows raises
    NoConvergenceError, with no numpy warning ahead of it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        inner = _log_divided_differences(w) * (_mT(Q) @ H @ Q)
        D = symmetrize(Q @ inner @ _mT(Q))
    if not np.isfinite(D).all():
        raise NoConvergenceError("matrix log derivative is not finite")
    return D
