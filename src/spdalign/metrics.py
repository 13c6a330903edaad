"""SPD geometries: squared distances, Gaussian similarities, and the
dimension-reducing congruence map.

Three squared distances are supported on positive definite matrices:

- affine-invariant: ||log(X1^{-1/2} X2 X1^{-1/2})||_F^2
- Stein divergence: ln det((X1+X2)/2) - (1/2) ln det(X1 X2)
- log-Euclidean:    ||log X1 - log X2||_F^2

The Stein divergence is used directly as a squared distance (no square root
is ever taken). Distances below DIST_CLAMP are treated as exact coincidence
before exponentiation so that identical samples get similarity exactly 1.

Each geometry is one batched kernel (`Geometry`), and `dist2`,
`pairwise_dist2`, `cross_dist2` and the alignment objective and gradient all
go through it. Inputs are validated once where they enter; the positive
definiteness checks inside the kernel run on whole stacks and blocks and
name the first failing member.

Training needs the original-manifold distances twice, for the neighbor
graphs and for the bandwidth; both take one `pairwise_dist2` matrix
(`graphs.neighbor_graphs(data, D, ...)`, `bandwidth(D)`), so a command
computes it once. `indexed_dist2` computes the distances of any set of
pairs of one stack, which lets repeated evaluation splits share theirs.
"""

from enum import Enum

import numpy as np

from . import matfun
from .errors import (
    DegenerateInputError,
    DimMismatchError,
    NotPositiveDefiniteError,
    RankDeficientError,
    ValidationError,
)

RANK_RTOL = 1e-10
DIST_CLAMP = 1e-14
# matrix entries (pairs x n x n) per batched kernel call; bounds the working
# memory of a block of pairs whatever the pair count and sample dimension
BLOCK_ENTRIES = 16384


class MetricKind(Enum):
    """Closed enumeration of the supported SPD geometries."""

    AIM = "aim"
    STEIN = "stein"
    LEM = "lem"

    @classmethod
    def parse(cls, name):
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValidationError(
                f"unknown metric {name!r}; expected one of: {valid}"
            ) from None


def check_transform(W, n=None):
    """Validate a reducing transform: 2-D, tall, full column rank."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2:
        raise ValidationError(f"transform must be a 2-D array, got shape {W.shape}")
    rows, cols = W.shape
    if cols < 1 or rows < cols:
        raise ValidationError(
            f"transform must have at least as many rows as columns, got {W.shape}"
        )
    if n is not None and rows != n:
        raise DimMismatchError(f"transform has {rows} rows, samples have dim {n}")
    sv = np.linalg.svd(W, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise RankDeficientError(
            f"transform is rank deficient (sv ratio {sv[-1]:.3e}/{sv[0]:.3e})"
        )
    return W


def map_down(X, W):
    """Congruence W^T X W taking an SPD matrix, or each of a stack, to the
    target dimension."""
    X = matfun.check_symmetric(X, "sample")
    W = check_transform(W, n=X.shape[-1])
    return matfun.symmetrize(W.T @ (X @ W))


def _blocks(count, n):
    """Slices covering range(count) in blocks of BLOCK_ENTRIES // n^2 pairs."""
    step = max(1, BLOCK_ENTRIES // (n * n))
    return (slice(s, s + step) for s in range(0, count, step))


def _chol_logdet(stack, name, ids=None):
    """log det of every matrix of a stack from one stacked Cholesky."""
    try:
        diag = np.diagonal(np.linalg.cholesky(stack), axis1=-2, axis2=-1)
    except np.linalg.LinAlgError:
        diag = np.full(stack.shape[:-1], np.nan)
    logdet = 2.0 * np.sum(np.log(diag), axis=-1)
    if not np.isfinite(logdet).all():
        # name the first failing member when its spectrum shows it
        matfun.require_pd(np.linalg.eigvalsh(stack), stack, name, ids)
        raise NotPositiveDefiniteError(f"{name} is not positive definite")
    return logdet


class Geometry:
    """Batched kernel of one SPD geometry.

    Each geometry gives three parts. `factors` is the per-sample factor of a
    whole stack (inverse square root, Cholesky log-det or log), from one
    stacked decomposition. `block_dist2` is the squared distance of one block
    of pairs, given as two index arrays into a left and a right
    (stack, factors) side. `grad_factors`, `block_grad` and `finish` are the
    pair gradient term: `block_grad` gives a pair's terms T_i and T_j for its
    two ends, and `finish` is a map phi_s, linear in its argument, such that
    with Y_p = W^T X_p W and B_p = X_p W the gradient of
    k_ij = exp(-beta d_ij) with respect to W is

        -grad_scale * beta * k_ij * (B_i phi_i(T_i) + B_j phi_j(T_j)).

    Since phi_s is linear, `grad_pairs` sums the weighted terms per sample
    and finishes each sample once. The drivers feed pairs through in blocks
    of BLOCK_ENTRIES matrix entries, which bounds the working memory whatever
    the pair count.
    """

    grad_scale = 4.0

    def dist2_pairs(self, left, right, i, j):
        """Squared distances between left sample i[p] and right sample j[p]."""
        out = np.empty(len(i))
        for blk in _blocks(len(i), left[0].shape[-1]):
            out[blk] = self.block_dist2(left, right, i[blk], j[blk])
        return out

    def grad_pairs(self, B, mapped, factors, i, j, weights):
        """sum_p weights_p * (B_i phi_i(T_i) + B_j phi_j(T_j)) over the pairs
        (i[p], j[p]).

        The pair terms are accumulated per sample in pair order, then reduced
        with B in one product, so the summation order is fixed.
        """
        acc = np.zeros_like(mapped)
        for blk in _blocks(len(i), mapped.shape[-1]):
            end_i, end_j = self.block_grad(mapped, factors, i[blk], j[blk])
            w = weights[blk, None, None]
            np.add.at(acc, i[blk], w * end_i)
            np.add.at(acc, j[blk], w * end_j)
        F = self.finish(mapped, factors, acc)
        return np.tensordot(B, F, axes=([0, 2], [0, 1]))


class AffineInvariant(Geometry):
    """||log(X_i^{-1/2} X_j X_i^{-1/2})||_F^2, whitened by the left sample.

    Pair gradient terms T_i = E and T_j = -E with
    E = log(Y_i Y_j^{-1}) = -Y_i^{1/2} log(Y_i^{-1/2} Y_j Y_i^{-1/2}) Y_i^{-1/2},
    finished by phi_s(T) = Y_s^{-1} T.
    """

    @staticmethod
    def factors(stack, name):
        w, Q = matfun.spd_eig(stack, name)
        return matfun.symmetrize((Q / np.sqrt(w)[..., None, :]) @ Q.swapaxes(-1, -2))

    @staticmethod
    def block_dist2(left, right, i, j):
        P = left[1][i]
        M = matfun.symmetrize(P @ right[0][j] @ P)
        w = np.linalg.eigvalsh(M)
        matfun.require_pd(w, M, "whitened pair", np.column_stack((i, j)))
        return np.sum(np.log(w) ** 2, axis=-1)

    @staticmethod
    def grad_factors(mapped):
        w, Q = matfun.spd_eig(mapped, "transformed sample")
        s = np.sqrt(w)
        return tuple(matfun.eig_apply(Q, v) for v in (s, 1.0 / s, 1.0 / w))

    @staticmethod
    def block_grad(mapped, factors, i, j):
        sqrt, inv_sqrt, _ = factors
        P = inv_sqrt[i]
        M = matfun.symmetrize(P @ mapped[j] @ P)
        w, Q = matfun.sym_eig(M)
        matfun.require_pd(w, M, "whitened pair", np.column_stack((i, j)))
        E = -(sqrt[i] @ matfun.eig_apply(Q, np.log(w)) @ P)
        return E, -E

    @staticmethod
    def finish(mapped, factors, acc):
        return factors[2] @ acc


class Stein(Geometry):
    """ln det((X_i+X_j)/2) - (ln det X_i + ln det X_j)/2, clamped at zero.

    Pair gradient terms T_i = A^{-1} - Y_i^{-1} and T_j = A^{-1} - Y_j^{-1}
    with A = (Y_i + Y_j)/2, finished by the identity.
    """

    grad_scale = 1.0

    @staticmethod
    def factors(stack, name):
        return _chol_logdet(stack, name)

    @staticmethod
    def block_dist2(left, right, i, j):
        mid = _chol_logdet(0.5 * (left[0][i] + right[0][j]), "midpoint",
                           np.column_stack((i, j)))
        # symmetric form: the value is exactly invariant to argument order
        return np.maximum(mid - 0.5 * (left[1][i] + right[1][j]), 0.0)

    @staticmethod
    def grad_factors(mapped):
        w, Q = matfun.spd_eig(mapped, "transformed sample")
        return (matfun.eig_apply(Q, 1.0 / w),)

    @staticmethod
    def block_grad(mapped, factors, i, j):
        inv = factors[0]
        w, Q = matfun.spd_eig(0.5 * (mapped[i] + mapped[j]), "transformed midpoint")
        mid_inv = matfun.eig_apply(Q, 1.0 / w)
        return mid_inv - inv[i], mid_inv - inv[j]

    @staticmethod
    def finish(mapped, factors, acc):
        return acc


class LogEuclidean(Geometry):
    """||log X_i - log X_j||_F^2.

    Pair gradient terms T_i = D and T_j = -D with D = log Y_i - log Y_j,
    finished by phi_s(T) = dlog(Y_s)[T]: one stacked `dlog_eig` call
    differentiates every sample along its summed direction, from the
    eigenpairs that gave the logs.
    """

    @staticmethod
    def factors(stack, name):
        w, Q = matfun.spd_eig(stack, name)
        return matfun.eig_apply(Q, np.log(w))

    @staticmethod
    def block_dist2(left, right, i, j):
        D = left[1][i] - right[1][j]
        return np.sum(D * D, axis=(-2, -1))

    @staticmethod
    def grad_factors(mapped):
        w, Q = matfun.spd_eig(mapped, "transformed sample")
        return matfun.eig_apply(Q, np.log(w)), w, Q

    @staticmethod
    def block_grad(mapped, factors, i, j):
        logs = factors[0]
        D = logs[i] - logs[j]
        return D, -D

    @staticmethod
    def finish(mapped, factors, acc):
        _, w, Q = factors
        return matfun.dlog_eig(w, Q, matfun.symmetrize(acc))


_GEOMETRIES = {
    MetricKind.AIM: AffineInvariant(),
    MetricKind.STEIN: Stein(),
    MetricKind.LEM: LogEuclidean(),
}


def geometry(metric):
    """The batched kernel of a metric given by name or MetricKind."""
    return _GEOMETRIES[MetricKind.parse(metric)]


def _side(geom, stack, name):
    """A validated (stack, factors) operand of `Geometry.dist2_pairs`."""
    stack = matfun.check_symmetric(np.asarray(stack, dtype=float), name)
    return stack, geom.factors(stack, name)


def dist2(metric, X1, X2):
    """Squared distance between two SPD matrices under the chosen geometry."""
    geom = geometry(metric)
    X1 = matfun.check_symmetric(X1, "first operand")
    X2 = matfun.check_symmetric(X2, "second operand")
    if X1.shape != X2.shape:
        raise DimMismatchError(f"operand dims differ: {X1.shape} vs {X2.shape}")
    left = (X1[None], geom.factors(X1, "first operand")[None])
    if np.array_equal(X1, X2):
        # coincident operands are exactly at distance zero; the AIM route
        # would otherwise leave rounding noise from the whitening product
        return 0.0
    right = (X2[None], geom.factors(X2, "second operand")[None])
    first = np.zeros(1, dtype=int)
    return float(geom.dist2_pairs(left, right, first, first)[0])


def transformed_dist2(metric, X_i, X_j, W):
    """dist2 between the two samples after mapping both through W."""
    return dist2(metric, map_down(X_i, W), map_down(X_j, W))


def kernel_sim(metric, X_i, X_j, W, beta):
    """Gaussian similarity exp(-beta * transformed_dist2) in (0, 1]."""
    if not beta > 0:
        raise ValidationError(f"beta must be positive, got {beta}")
    d = transformed_dist2(metric, X_i, X_j, W)
    if d < DIST_CLAMP:
        d = 0.0
    return float(np.exp(-beta * d))


def pairwise_dist2(metric, samples):
    """All pairwise squared distances within a stack of SPD matrices.

    Per-sample factors come from one stacked decomposition, and the
    N(N-1)/2 pairs i < j go through the batched kernel.
    """
    N = len(samples)
    i, j = np.triu_indices(N, k=1)
    D = np.zeros((N, N))
    D[i, j] = D[j, i] = indexed_dist2(metric, samples, i, j)
    return D


def cross_dist2(metric, rows, cols):
    """Squared distances between every row-stack and column-stack sample."""
    geom = geometry(metric)
    rows = np.asarray(rows, dtype=float)
    cols = np.asarray(cols, dtype=float)
    if rows.shape[1:] != cols.shape[1:]:
        raise DimMismatchError(
            f"sample dims differ: {rows.shape[1:]} vs {cols.shape[1:]}"
        )
    R, C = rows.shape[0], cols.shape[0]
    i, j = np.divmod(np.arange(R * C), C)
    d = geom.dist2_pairs(_side(geom, rows, "row sample"),
                         _side(geom, cols, "col sample"), i, j)
    return d.reshape(R, C)


def indexed_dist2(metric, samples, i, j):
    """Squared distances between samples i[p] and j[p] of one stack.

    The stack is factored once however many pairs share a sample, and i is
    the left operand of every pair (the affine-invariant whitening side).
    """
    geom = geometry(metric)
    side = _side(geom, samples, "sample")
    return geom.dist2_pairs(side, side, np.asarray(i), np.asarray(j))


def bandwidth(D):
    """Similarity bandwidth 1/sigma^2 with sigma the mean pairwise distance,
    from a `pairwise_dist2` matrix.

    sigma is fixed once from the training samples on their original manifold
    and is not recomputed as the transform changes.
    """
    N = D.shape[0]
    if N < 2:
        raise ValidationError("need at least two samples to set the bandwidth")
    iu = np.triu_indices(N, k=1)
    sigma = float(np.mean(np.sqrt(D[iu])))
    if sigma <= 0.0:
        raise DegenerateInputError(
            "all training samples coincide; similarity bandwidth is undefined"
        )
    return 1.0 / sigma**2


def default_beta(metric, samples):
    """`bandwidth` of the pairwise distances of a stack of samples."""
    return bandwidth(pairwise_dist2(metric, samples))
