"""Centered kernel target alignment over selected sample pairs, and its
Euclidean gradient with respect to the reducing transform.

The objective is

    J(W) = <L, T>_F / ||L||_F,   L = U (G o K(W)) U,   T = G o S,

where K holds Gaussian similarities of transformed sample pairs, G is the
union neighbor mask, S is the doubly centered label Gram matrix, and
U = I - 11^T/N. Differentiating through the normalized inner product gives a
coefficient for every selected pair; the gradient of J is the
coefficient-weighted sum of per-pair similarity gradients.

Per-pair similarity gradients for the three geometries (k = k_ij, B_p = X_p W,
Y_p = W^T X_p W):

- affine-invariant: -4 beta k (B_i Y_i^{-1} - B_j Y_j^{-1}) log(Y_i Y_j^{-1})
- Stein:            -beta k ((B_i+B_j) A^{-1} - B_i Y_i^{-1} - B_j Y_j^{-1}),
                    A = (Y_i + Y_j)/2
- log-Euclidean:    -4 beta k (B_i dlog(Y_i)[D] - B_j dlog(Y_j)[D]),
                    D = log Y_i - log Y_j

Each formula matches central finite differences of k_ij; the finite-difference
check is the authoritative ground truth for operand order and signs. The
non-symmetric log above is evaluated through the congruence
log(Y_i Y_j^{-1}) = Y_j^{1/2} log(Y_j^{-1/2} Y_i Y_j^{-1/2}) Y_j^{-1/2}, which
needs only the symmetric matrix log.
"""

from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import DegenerateAlignmentError, DimMismatchError, ValidationError
from .graphs import label_similarity
from .metrics import (
    DIST_CLAMP,
    MetricKind,
    check_transform,
    chol_logdet,
    pd_eigvalsh,
)

L_NORM_FLOOR = 1e-14


@dataclass(frozen=True)
class AlignmentState:
    """Objective value plus the pair similarities and gradient coefficients.

    K is dense with zeros off the selected support; coeff is the symmetric
    matrix of per-pair sensitivities dJ/dK restricted to the support.
    """

    J: float
    K: np.ndarray
    L: np.ndarray
    coeff: np.ndarray


@dataclass(frozen=True)
class GradContext:
    """Per-sample quantities reused by every pair gradient at a fixed W.

    Only the fields needed by the chosen geometry are populated: inverse
    square roots and square roots of the transformed samples for the
    affine-invariant metric, matrix logs for the log-Euclidean one.
    Transformed inverses serve both of the first two.
    """

    metric: MetricKind
    W: np.ndarray
    B: np.ndarray
    mapped: np.ndarray
    mapped_inv: np.ndarray | None = None
    sqrt: np.ndarray | None = None
    inv_sqrt: np.ndarray | None = None
    logs: np.ndarray | None = None

    def require_fresh(self, W):
        if self.W.shape != W.shape or not np.array_equal(self.W, W):
            raise ValidationError("gradient context was built for a different W")


def _map_samples(samples, W):
    """B_p = X_p W and the symmetrized transformed stack W^T X_p W."""
    B = samples @ W
    mapped = np.matmul(W.T, B)
    return B, 0.5 * (mapped + np.transpose(mapped, (0, 2, 1)))


def _pair_dist2(metric, mapped, caches, i, j):
    if metric is MetricKind.AIM:
        S = caches[j]
        M = matfun.symmetrize(S @ mapped[i] @ S)
        return float(np.sum(np.log(pd_eigvalsh(M, "transformed pair")) ** 2))
    if metric is MetricKind.STEIN:
        mid = chol_logdet(0.5 * (mapped[i] + mapped[j]), "transformed midpoint")
        return max(mid - 0.5 * (caches[i] + caches[j]), 0.0)
    E = caches[i] - caches[j]
    return float(np.sum(E * E))


def _kernel_caches(metric, mapped):
    if metric is MetricKind.AIM:
        return [matfun.spd_inv_sqrt(M) for M in mapped]
    if metric is MetricKind.STEIN:
        return [chol_logdet(M, f"transformed sample {p}") for p, M in enumerate(mapped)]
    return [matfun.spd_log(M) for M in mapped]


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
    _, mapped = _map_samples(data.samples, W)
    caches = _kernel_caches(metric, mapped)
    K = np.zeros((N, N))
    for i, j in graphs.pairs:
        d = _pair_dist2(metric, mapped, caches, i, j)
        if d < DIST_CLAMP:
            d = 0.0
        K[i, j] = K[j, i] = np.exp(-beta * d)
    G = graphs.union
    L = _double_center(G * K)
    norm_L = float(np.linalg.norm(L))
    if norm_L < L_NORM_FLOOR:
        raise DegenerateAlignmentError(
            "centered pair-similarity matrix vanished; objective undefined"
        )
    T = G * label_similarity(data)
    J = float(np.sum(L * T)) / norm_L
    coeff = G * _double_center(T / norm_L - (J / norm_L**2) * L)
    return AlignmentState(J=J, K=K, L=L, coeff=matfun.symmetrize(coeff))


def _double_center(M):
    """U M U without forming U: subtract row/column means, add grand mean."""
    return M - M.mean(axis=1, keepdims=True) - M.mean(axis=0, keepdims=True) + M.mean()


def build_grad_context(data, W, metric):
    """Precompute per-sample factors for pair-gradient evaluation at W."""
    metric = MetricKind.parse(metric)
    W = check_transform(W, n=data.dim)
    B, mapped = _map_samples(data.samples, W)
    ctx = {"metric": metric, "W": W.copy(), "B": B, "mapped": mapped}
    if metric is MetricKind.LEM:
        ctx["logs"] = np.stack([matfun.spd_log(M) for M in mapped])
        return GradContext(**ctx)
    pairs = [matfun.spd_sqrt_pair(M) for M in mapped]
    inv_sqrt = np.stack([p[1] for p in pairs])
    ctx["mapped_inv"] = np.stack([S @ S for S in inv_sqrt])
    if metric is MetricKind.AIM:
        ctx["sqrt"] = np.stack([p[0] for p in pairs])
        ctx["inv_sqrt"] = inv_sqrt
    return GradContext(**ctx)


def kernel_entry_gradient(metric, i, j, W, ctx, beta, k_ij):
    """Gradient of one pair similarity k_ij with respect to W."""
    metric = MetricKind.parse(metric)
    if metric is not ctx.metric:
        raise ValidationError("gradient context was built for a different metric")
    ctx.require_fresh(W)
    if metric is MetricKind.AIM:
        S = ctx.inv_sqrt[j]
        inner = matfun.spd_log(matfun.symmetrize(S @ ctx.mapped[i] @ S))
        E = ctx.sqrt[j] @ inner @ S
        lead = ctx.B[i] @ ctx.mapped_inv[i] - ctx.B[j] @ ctx.mapped_inv[j]
        return (-4.0 * beta * k_ij) * (lead @ E)
    if metric is MetricKind.STEIN:
        A = matfun.symmetrize(0.5 * (ctx.mapped[i] + ctx.mapped[j]))
        A_inv = matfun.spd_inv_sqrt(A)
        A_inv = A_inv @ A_inv
        lead = (
            (ctx.B[i] + ctx.B[j]) @ A_inv
            - ctx.B[i] @ ctx.mapped_inv[i]
            - ctx.B[j] @ ctx.mapped_inv[j]
        )
        return (-beta * k_ij) * lead
    delta = ctx.logs[i] - ctx.logs[j]
    term = ctx.B[i] @ matfun.dlog(ctx.mapped[i], delta) - ctx.B[j] @ matfun.dlog(
        ctx.mapped[j], delta
    )
    return (-4.0 * beta * k_ij) * term


def alignment_gradient(data, graphs, W, metric, beta, state, ctx=None):
    """Euclidean gradient of J at W, assembled over the selected pairs.

    Every unordered support pair contributes twice its coefficient times the
    pair-similarity gradient. For the log-Euclidean metric the contributions
    are regrouped per sample first: the log derivative is linear in its
    direction, so summing weighted directions before differentiating gives the
    same value, and one stacked `dlog` call per gradient then differentiates
    every sample at once. Reduction order is fixed (lexicographic pairs, then sample
    index), keeping repeated runs bit-identical.
    """
    metric = MetricKind.parse(metric)
    if ctx is None:
        ctx = build_grad_context(data, W, metric)
    if metric is not ctx.metric:
        raise ValidationError("gradient context was built for a different metric")
    W = check_transform(W, n=data.dim)
    ctx.require_fresh(W)
    C = state.coeff
    grad = np.zeros_like(W)
    if metric is MetricKind.LEM:
        weights = -8.0 * beta * C * state.K
        row = weights.sum(axis=1)
        directions = row[:, None, None] * ctx.logs - np.tensordot(
            weights, ctx.logs, axes=1
        )
        derivs = matfun.dlog(ctx.mapped, matfun.symmetrize(directions))
        for term in np.matmul(ctx.B, derivs):
            grad += term
        return grad
    for i, j in graphs.pairs:
        entry = kernel_entry_gradient(metric, i, j, W, ctx, beta, state.K[i, j])
        grad += (2.0 * C[i, j]) * entry
    return grad


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
