"""Centered kernel target alignment over selected sample pairs, and its
Euclidean gradient with respect to the reducing transform.

The objective is

    J(W) = <L, T>_F / ||L||_F,   L = U (G o K(W)) U,   T = G o S,

where K holds Gaussian similarities of transformed sample pairs, G is the
union neighbor mask, S is the doubly centered label Gram matrix, and
U = I - 11^T/N. Differentiating through the normalized inner product gives a
coefficient for every selected pair; the gradient of J is the
coefficient-weighted sum of per-pair similarity gradients.

Every evaluation works on the pair list `graphs.pairs` alone and costs
O(|E| + N) beyond the pair kernels, never an N x N array. With A = G o K,
its row sums r and total s (Cortes, Mohri & Rostamizadeh, JMLR 2012):

    L_ij    = A_ij - (r_i + r_j)/N + s/N^2
    ||L||^2 = ||A||^2 - 2 ||r||^2/N + s^2/N^2

T is supported on G, so <L, T> needs L on the support only, and S on the
support follows from class counts. The coefficients U (T/||L|| - J L/||L||^2) U
restricted to G are the same centering applied to T, minus a multiple of L.

Per-pair similarity gradients for the three geometries (k = k_ij, B_p = X_p W,
Y_p = W^T X_p W):

- affine-invariant: -4 beta k (B_i Y_i^{-1} - B_j Y_j^{-1}) log(Y_i Y_j^{-1})
- Stein:            -beta k ((B_i+B_j) A^{-1} - B_i Y_i^{-1} - B_j Y_j^{-1}),
                    A = (Y_i + Y_j)/2
- log-Euclidean:    -4 beta k (B_i dlog(Y_i)[D] - B_j dlog(Y_j)[D]),
                    D = log Y_i - log Y_j

`metrics.Geometry` evaluates them in blocks of pairs. Each formula matches
central finite differences of k_ij; the finite-difference check is the
authoritative ground truth for operand order and signs.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import DegenerateAlignmentError, DimMismatchError, ValidationError
from .graphs import label_similarity  # noqa: F401  (traced by perfbench)
from .metrics import DIST_CLAMP, MetricKind, check_transform, geometry

L_NORM_FLOOR = 1e-14


@dataclass(frozen=True)
class AlignmentState:
    """Objective value plus the pair similarities and gradient coefficients.

    K, L and coeff are per-pair arrays aligned with `graphs.pairs`: the
    similarity k_p, the centered entry L_p, and the sensitivity dJ/dK_ij of
    one of the two symmetric entries of the pair. norm_L is ||L||_F over the
    full N x N centered matrix.
    """

    J: float
    K: np.ndarray
    L: np.ndarray
    norm_L: float
    coeff: np.ndarray


@dataclass(frozen=True)
class GradContext:
    """Per-sample quantities reused by every pair gradient at a fixed W.

    B holds X_p W and mapped the transformed samples W^T X_p W. factors is
    the metric's `Geometry.grad_factors` of mapped, from one stacked
    eigendecomposition: square roots, inverse square roots and inverses for
    the affine-invariant metric, inverses for Stein, logs and the
    eigenpairs (w, Q) they come from for log-Euclidean.
    """

    metric: MetricKind
    W: np.ndarray
    B: np.ndarray
    mapped: np.ndarray
    factors: tuple

    def require_fresh(self, W):
        if self.W.shape != W.shape or not np.array_equal(self.W, W):
            raise ValidationError("gradient context was built for a different W")


def _map_samples(samples, W):
    """B_p = X_p W and the symmetrized transformed stack W^T X_p W."""
    B = samples @ W
    return B, matfun.symmetrize(np.matmul(W.T, B))


def _center(values, i, j, N):
    """Support entries and Frobenius norm of U A U, for the symmetric N x N
    A that holds values at the pairs (i, j) and (j, i) and zeros elsewhere."""
    r = np.bincount(i, values, N) + np.bincount(j, values, N)
    s = float(r.sum())
    centered = values - (r[i] + r[j]) / N + s / N**2
    norm2 = 2.0 * float(values @ values) - 2.0 * float(r @ r) / N + s * s / N**2
    return centered, math.sqrt(max(norm2, 0.0))


def _label_target(labels, i, j, N):
    """S_ij = [y_i = y_j] - n_{y_i}/N - n_{y_j}/N + sum_c n_c^2/N^2 on the pairs,
    the doubly centered one-hot label Gram matrix from class counts."""
    counts = np.bincount(labels).astype(float)
    n_i, n_j = counts[labels[i]], counts[labels[j]]
    same = (labels[i] == labels[j]).astype(float)
    return same - (n_i + n_j) / N + float(counts @ counts) / N**2


def alignment_objective(data, graphs, W, metric, beta):
    """Evaluate J(W) and cache everything the gradient assembly needs."""
    metric = MetricKind.parse(metric)
    if not beta > 0:
        raise ValidationError(f"beta must be positive, got {beta}")
    W = check_transform(W, n=data.dim)
    N = data.size
    if graphs.Gw.shape[0] != N:
        raise DimMismatchError(
            f"graphs built for {graphs.Gw.shape[0]} samples, dataset has {N}"
        )
    geom = geometry(metric)
    _, mapped = _map_samples(data.samples, W)
    side = (mapped, geom.factors(mapped, "transformed sample"))
    i, j = graphs.pairs.T
    d = geom.dist2_pairs(side, side, i, j)
    K = np.exp(-beta * np.where(d < DIST_CLAMP, 0.0, d))
    L, norm_L = _center(K, i, j, N)
    if norm_L < L_NORM_FLOOR:
        raise DegenerateAlignmentError(
            "centered pair-similarity matrix vanished; objective undefined"
        )
    T = _label_target(data.labels, i, j, N)
    J = 2.0 * float(L @ T) / norm_L
    centered_T, _ = _center(T, i, j, N)
    coeff = centered_T / norm_L - (J / norm_L**2) * L
    return AlignmentState(J=J, K=K, L=L, norm_L=norm_L, coeff=coeff)


def build_grad_context(data, W, metric):
    """Precompute per-sample factors for pair-gradient evaluation at W."""
    metric = MetricKind.parse(metric)
    W = check_transform(W, n=data.dim)
    B, mapped = _map_samples(data.samples, W)
    factors = geometry(metric).grad_factors(mapped)
    return GradContext(metric, W.copy(), B, mapped, factors)


def _checked_context(metric, W, ctx):
    if metric is not ctx.metric:
        raise ValidationError("gradient context was built for a different metric")
    ctx.require_fresh(W)


def kernel_entry_gradient(metric, i, j, W, ctx, beta, k_ij):
    """Gradient of one pair similarity k_ij with respect to W."""
    metric = MetricKind.parse(metric)
    _checked_context(metric, W, ctx)
    geom = geometry(metric)
    ends = np.array([i, j])
    return geom.grad_pairs(
        ctx.B[ends],
        ctx.mapped[ends],
        tuple(f[ends] for f in ctx.factors),
        np.array([0]),
        np.array([1]),
        np.array([-geom.grad_scale * beta * k_ij]),
    )


def alignment_gradient(data, graphs, W, metric, beta, state, ctx=None):
    """Euclidean gradient of J at W, assembled over the selected pairs.

    Every unordered support pair contributes twice its coefficient times the
    pair-similarity gradient. The pair terms are summed per sample in
    lexicographic pair order, then reduced against B in one product; for the
    log-Euclidean metric the per-sample sums are directions of one stacked
    `dlog_eig` call on the context's eigenpairs. The reduction order is fixed, keeping repeated runs
    bit-identical.
    """
    metric = MetricKind.parse(metric)
    if ctx is None:
        ctx = build_grad_context(data, W, metric)
    W = check_transform(W, n=data.dim)
    _checked_context(metric, W, ctx)
    geom = geometry(metric)
    weights = (-2.0 * geom.grad_scale * beta) * state.coeff * state.K
    i, j = graphs.pairs.T
    return geom.grad_pairs(ctx.B, ctx.mapped, ctx.factors, i, j, weights)


def fd_gradient(func, W, h=1e-5):
    """Entrywise central finite differences of a scalar function of W."""
    grad = np.zeros_like(W)
    for idx in np.ndindex(*W.shape):
        bumped = W.copy()
        bumped[idx] = W[idx] + h
        upper = func(bumped)
        bumped[idx] = W[idx] - h
        lower = func(bumped)
        grad[idx] = (upper - lower) / (2.0 * h)
    return grad
