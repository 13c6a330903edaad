"""SPD geometries: squared distances, a lower bound on the affine-invariant
one, and the dimension-reducing congruence map.

Three squared distances are supported on positive definite matrices:

- affine-invariant: ||log(X1^{-1/2} X2 X1^{-1/2})||_F^2
- Stein divergence: ln det((X1+X2)/2) - (1/2) ln det(X1 X2)
- log-Euclidean:    ||log X1 - log X2||_F^2

The Stein divergence is used directly as a squared distance (no square root
is ever taken). Distances below DIST_CLAMP are treated as exact coincidence
before exponentiation so that identical samples get similarity exactly 1.

Each geometry is one batched kernel (`Geometry`), and `dist2`,
`pairwise_dist2`, `cross_dist2` and the alignment objective and gradient all
go through it: `Geometry.dist2_pairs` is the one loop over blocks of
distance pairs. Inputs are validated once where they enter; the positive
definiteness checks inside the kernel run on whole stacks and blocks and
name the first failing member.

The affine-invariant kernel runs the blocks of a pass of more than one
block on one thread per CPU the process may use, the calling thread and a
pool of workers (`_threaded_map`): each block is a stacked eigensolve,
which releases the GIL. The calling thread writes each block's result in
block order, so every value, and the error of the first failing block, is
the serial loop's, whatever the CPU count. The pool is built, and
`concurrent.futures` imported, on the first pass that uses it, and a
forked child drops its parent's pool and builds its own.

Training needs the original-manifold distances twice, for the neighbor
graphs and for the bandwidth; both take one `pairwise_dist2` matrix
(`graphs.neighbor_graphs(data, D, ...)`, `bandwidth(D)`), so a command
computes it once. `indexed_dist2` computes the distances of any set of
pairs of one stack, which lets repeated evaluation splits share theirs.
Every distance-only pass is exactly invariant to argument order, for the
affine-invariant distance too: it whitens each pair by whichever of its two
matrices sorts first by entries. The alignment objective's pass
(`dist2_pairs(..., keep=True)`) also keeps what the gradient reads of each
pair's decomposition: the log of each pair whitened by its left sample for
the affine-invariant distance, the Cholesky factor of each midpoint for
Stein. The log-Euclidean gradient reads only per-sample factors, so it keeps
nothing.

The log-Euclidean kernel holds each sample's log as its upper triangle, the
diagonal and the strict upper part in `np.triu_indices(n)` order: a
symmetric difference D has n(n+1)/2 distinct entries, and ||D||_F^2 is the
sum of the squared diagonal plus twice that of the strict upper part. The
difference of two triangles is entrywise the difference of the two logs,
formed exactly as from the full matrices; no entry is scaled before it, so
coincident logs still give exactly zero and the value is still exactly
invariant to argument order.

The affine-invariant distance has a cheap lower bound: the log-Euclidean
one, ||log A - log B||_F <= ||log(A^{-1/2} B A^{-1/2})||_F (the exponential
metric increasing property; Bhatia, Positive Definite Matrices, 2007, Thm
6.1.4). It is tight as both matrices approach the identity, and the
affine-invariant distance is unchanged by any congruence C X C (Pennec,
Fillard & Ayache, IJCV 2006), so `AffineInvariant.lower_bound` takes it in
the stack's own whitened frame. With G = mean_k log X_k, the stack's
log-Euclidean mean, built from the eigenpairs the affine-invariant factors
already hold, and C = exp(-G/2), it is the log-Euclidean kernel's distance
between Z_a = C X_a C and Z_b = C X_b C; on clustered data that is far
tighter than the bound on the samples themselves. Each pair gets a rounding
margin tau = BOUND_MARGIN n^{3/2} eps (k_a k_b + k_G k'_a k'_b), with k the
eigenvalue spread w_max / w_min of each sample, k' that of each whitened
sample and k_G that of exp(G). The first term covers the rounding of the
affine-invariant distance, the second that of the congruence and of the
whitened eigensolve; C needs none, since any symmetric positive definite C
gives a valid bound. A whitened sample whose spectrum is not positive and
finite gets an infinite margin. sqrt(bound) - tau is a floor under the
square root of the pair's computed distance, so a pair whose floor exceeds
the square root of another pair's computed distance is strictly farther,
in floating point too. The margin grows with the conditioning of both
samples; on ill-conditioned data it exceeds every bound and the floor rules
out nothing. Stein and the log-Euclidean distance have no such bound.
"""

import os
from enum import Enum
from functools import cache

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
# B of the rounding margin B n^{3/2} eps (k_a k_b + k_G k'_a k'_b) of the
# affine-invariant lower bound: orders of magnitude above the rounding of the
# pair whitening and eigensolve, the congruence by exp(-G/2) and the whitened
# samples' logs, which all grow with n eps k
BOUND_MARGIN = 1e4


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


def check_beta(beta):
    """Validate a similarity bandwidth: positive and finite."""
    if not 0 < beta < np.inf:
        raise ValidationError(f"beta must be positive and finite, got {beta}")


def check_transform(W, n=None):
    """Validate a reducing transform: 2-D, tall, finite, full column rank."""
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
    if not np.all(np.isfinite(W)):
        raise ValidationError("transform holds non-finite values")
    sv = np.linalg.svd(W, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise RankDeficientError(
            f"transform is rank deficient (sv ratio {sv[-1]:.3e}/{sv[0]:.3e})"
        )
    return W


def map_down(X, W):
    """Congruence W^T X W taking an SPD matrix, or each of a stack, to the
    target dimension."""
    X = _checked(X, "sample")
    W = check_transform(W, n=X.shape[-1])
    return matfun.symmetrize(W.T @ (X @ W))


def _blocks(count, n):
    """Slices covering range(count) in blocks of BLOCK_ENTRIES // n^2 pairs."""
    step = max(1, BLOCK_ENTRIES // (n * n))
    return [slice(s, s + step) for s in range(0, count, step)]


def _workers():
    """The CPUs this process may run on: the threads of a pooled pass."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


@cache
def _pool(size):
    """A thread pool of `size` workers, built on first use: a process whose
    passes all have one block never imports concurrent.futures (about 6 ms of
    `logging` in a fresh process)."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(size)


if hasattr(os, "register_at_fork"):
    # a forked child holds its parent's pools but none of their threads, so
    # work it queued there would never run
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _threaded_map(fn, items, threads):
    """fn(item) for each item, yielded in order, on `threads` threads: the
    calling thread computes every `threads`-th item from the first, and a
    pool of threads - 1 workers the rest. Each pool thread costs about 1 MB
    of peak memory (its own malloc arena), so the calling thread takes a
    share rather than wait.

    An item's error is raised when its turn comes, so the first failing
    item in order is the one reported; the pool's items not yet started
    are then cancelled.
    """
    pool = _pool(threads - 1)
    futures = [None if k % threads == 0 else pool.submit(fn, item)
               for k, item in enumerate(items)]
    try:
        for item, future in zip(items, futures):
            yield fn(item) if future is None else future.result()
    finally:
        for future in futures:
            if future is not None:
                future.cancel()


@cache
def _upper(n):
    """(rows, cols, weights) of the upper triangle of an n x n matrix in
    `np.triu_indices(n)` order, weights 1 on the diagonal and 2 above it:
    ||S||_F^2 = (S[rows, cols]**2) @ weights for a symmetric S. Read-only,
    since every caller shares them."""
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1.0, 2.0)
    for a in (rows, cols, weights):
        a.setflags(write=False)
    return rows, cols, weights


def _sorts_before(a, ia, b, ib):
    """Where matrix a[ia[p]] comes strictly before b[ib[p]] in the
    lexicographic order of their entries, row by row.

    The (0, 0) entries decide almost every pair; only the pairs that tie
    there are compared in full.
    """
    first_a, first_b = a[:, 0, 0][ia], b[:, 0, 0][ib]
    before = first_a < first_b
    tie = np.flatnonzero(first_a == first_b)
    if tie.size:
        u = a[ia[tie]].reshape(tie.size, -1)
        v = b[ib[tie]].reshape(tie.size, -1)
        k = np.argmax(u != v, axis=1)
        rows = np.arange(tie.size)
        before[tie] = u[rows, k] < v[rows, k]
    return before


def _chol_logdet(stack, name, ids=None):
    """(log det, lower Cholesky factor) of every matrix of a stack, from one
    stacked Cholesky."""
    try:
        chol = np.linalg.cholesky(stack)
        diag = np.diagonal(chol, axis1=-2, axis2=-1)
    except np.linalg.LinAlgError:
        diag = np.full(stack.shape[:-1], np.nan)
    logdet = 2.0 * np.sum(np.log(diag), axis=-1)
    if not np.isfinite(logdet).all():
        # name the first failing member when its spectrum shows it
        matfun.require_pd(np.linalg.eigvalsh(stack), stack, name, ids)
        raise NotPositiveDefiniteError(f"{name} is not positive definite")
    return logdet, chol


class Geometry:
    """Batched kernel of one SPD geometry.

    Each geometry gives these parts. `factors` is the per-sample factor of a
    whole stack: a tuple of stacked arrays from one stacked decomposition,
    holding what the pair distance reads plus the decomposition it came from
    and nothing else, so distance-only passes build no gradient factor.
    `block_dist2` gives (squared distances, kept factors) of one block of
    pairs, given as two index arrays into a left and a right (stack,
    factors) side. Without `keep` it keeps nothing and its distance is
    exactly invariant to the order of a pair's two matrices. With `keep`,
    the objective's pass, it also returns the per-pair factors the gradient
    reads, so no support pair is decomposed twice (AIM each left-whitened
    pair's log, Stein each midpoint's Cholesky factor; LEM keeps nothing
    and returns None). `grad_factors` derives, once per gradient, the
    per-sample matrices the pair gradient reads from `factors`; the pair
    gradient hooks read these factors only.
    `block_grad` and `finish` are the pair gradient term:
    `block_grad` gives a pair's terms T_i and T_j for its two ends, and
    `finish` is a map phi_s, linear in its argument, from a sum of terms
    to an m x m matrix, such that with
    Y_p = W^T X_p W and B_p = X_p W the gradient of
    k_ij = exp(-beta d_ij) with respect to W is

        -grad_scale * beta * k_ij * (B_i phi_i(T_i) + B_j phi_j(T_j)).

    Since phi_s is linear, `grad_pairs` sums the weighted terms per sample
    and finishes each sample once. A term has the shape of one sample's
    entry of the first gradient factor: m x m for AIM and Stein, the
    m(m+1)/2 upper-triangle entries for LEM. `dist2_pairs` and `grad_pairs`
    feed pairs through in blocks of BLOCK_ENTRIES matrix entries, which
    bounds the working memory whatever the pair count. A `pooled` geometry's
    `dist2_pairs` computes the blocks of one pass on several threads
    (`_threaded_map`), so its `block_dist2` only reads its operands.
    """

    grad_scale = 4.0
    # whether `dist2_pairs` runs a pass's blocks on one thread per CPU; only
    # AIM's eigensolves gain. Stein stays serial: two threads each running
    # stacked np.linalg.cholesky took 1.75-2.9x one thread's time for twice
    # the work. LEM stays serial: its blocks are a gather and a dot product,
    # mostly interpreter time, and pooled they made `wide` train 1-8% slower.
    pooled = False

    @staticmethod
    def lower_bound(side, i, j):
        """(squared lower bounds, rounding margins) of the pairs (i[p],
        j[p]) within one side, or None for a geometry with no cheap bound."""
        return None

    def dist2_pairs(self, left, right, i, j, keep=False):
        """(squared distances, kept factors) between left sample i[p] and
        right sample j[p]: the one loop over blocks of distance pairs.

        The kept factors stack what `block_dist2` keeps of each pair with
        `keep` set, and are None when it keeps nothing, so a distance-only
        pass allocates no per-pair factor. A `pooled` geometry's pass of
        more than one block, in a process that may use more than one CPU,
        computes its blocks on one thread per CPU (`_threaded_map`); they
        are written here in block order either way, so the values and the
        first failing block's error are the same.
        """
        blocks = _blocks(len(i), left[0].shape[-1])

        def block(blk):
            return self.block_dist2(left, right, i[blk], j[blk], keep)

        threads = _workers() if self.pooled and len(blocks) > 1 else 1
        parts = (map(block, blocks) if threads == 1
                 else _threaded_map(block, blocks, threads))
        out, kept = np.empty(len(i)), None
        for blk, (d, part) in zip(blocks, parts):
            out[blk] = d
            if part is not None:
                if kept is None:
                    kept = np.empty((len(i),) + part.shape[1:])
                kept[blk] = part
        return out, kept

    @staticmethod
    def grad_factors(factors):
        """The per-sample matrices the pair gradient reads; by default the
        factors themselves."""
        return factors

    def grad_pairs(self, B, factors, pair_factors, i, j, weights):
        """sum_p weights_p * (B_i phi_i(T_i) + B_j phi_j(T_j)) over the pairs
        (i[p], j[p]), with factors and pair_factors as `factors` and
        `dist2_pairs(..., keep=True)` gave them, for the N samples B_p = X_p W
        of the (N, n, m) stack B.

        A 1-D `np.add.at` at sample * size + entry, with size the entries of
        one term, sums the weighted terms per sample entry in pair order
        (block by block, i-ends before j-ends); B reduces the sums in one
        product, so the summation order is fixed.
        """
        N, _, m = B.shape
        factors = self.grad_factors(factors)
        shape = factors[0].shape[1:]
        entries = np.arange(np.prod(shape, dtype=int))
        acc = np.zeros(N * entries.size)
        for blk in _blocks(len(i), m):
            pair = None if pair_factors is None else pair_factors[blk]
            end_i, end_j = self.block_grad(factors, pair, i[blk], j[blk])
            w = weights[blk, None]
            for ends, terms in ((i[blk], end_i), (j[blk], end_j)):
                np.add.at(acc, (ends[:, None] * entries.size + entries).ravel(),
                          (w * terms.reshape(len(ends), -1)).ravel())
        F = self.finish(factors, acc.reshape((N,) + shape))
        return np.tensordot(B, F, axes=([0, 2], [0, 1]))


class AffineInvariant(Geometry):
    """||log(X_a^{-1/2} X_b X_a^{-1/2})||_F^2.

    The distance-only pass whitens each pair by whichever of its two
    matrices sorts first (`_sorts_before`) and takes eigenvalues only, so
    its value depends on the two matrices alone and is exactly invariant to
    argument order, as Stein's and LEM's are. The objective's pass (`keep`)
    whitens by the left sample, whose factors its gradient reads, and keeps
    the log of each whitened pair from the same eigendecomposition.

    `lower_bound` gives the log-Euclidean squared distance of each pair in
    the frame whitened by the stack's log-Euclidean mean
    (`whiten_by_log_mean`), never above the affine-invariant one, and the
    rounding margin tau that makes sqrt(bound) - tau a floor under the
    computed distance's square root (module docstring). It costs one
    eigendecomposition per sample, not per pair, and one gathered
    difference per pair against a pair whitening and eigensolve.

    Pair gradient terms T_i = E and T_j = -E with
    E = log(Y_i Y_j^{-1}) = -Y_i^{1/2} log(Y_i^{-1/2} Y_j Y_i^{-1/2}) Y_i^{-1/2},
    finished by phi_s(T) = Y_s^{-1} T. The objective's distance pass keeps
    each support pair's log(Y_i^{-1/2} Y_j Y_i^{-1/2}), so E costs two
    products per pair.

    Pooled (`Geometry.pooled`): a block's time is its stacked eigensolve,
    which releases the GIL.
    """

    pooled = True

    @staticmethod
    def factors(stack, name):
        """(X^{-1/2}, w, Q) with X = Q diag(w) Q^T, from one eigendecomposition."""
        w, Q = matfun.spd_eig(stack, name)
        s = np.sqrt(w)
        inv_sqrt = matfun.symmetrize((Q / s[..., None, :]) @ Q.swapaxes(-1, -2))
        return inv_sqrt, w, Q

    @staticmethod
    def whiten_by_log_mean(side):
        """(Z, log Z, spreads of Z, spread of exp(G)) with Z_k = C X_k C,
        C = exp(-G/2) and G = mean_k log X_k, the stack's log-Euclidean mean.

        A whitened sample whose spectrum is not positive and finite gets log
        zero and an infinite spread, so its margin rules out nothing.
        """
        stack, (_, w, Q) = side
        g, V = matfun.sym_eig(np.mean(matfun.eig_apply(Q, np.log(w)), axis=0))
        C = matfun.eig_apply(V, np.exp(-0.5 * g))
        Z = matfun.symmetrize(C @ stack @ C)
        finite = np.isfinite(Z).all(axis=(-2, -1))
        Z[~finite] = np.eye(Z.shape[-1])
        wz, Qz = np.linalg.eigh(Z)
        ok = finite & (wz[:, 0] > 0.0)
        wz[~ok] = 1.0
        spread = np.where(ok, wz[:, -1] / wz[:, 0], np.inf)
        return Z, matfun.eig_apply(Qz, np.log(wz)), spread, np.exp(g[-1] - g[0])

    @staticmethod
    def lower_bound(side, i, j):
        stack, (_, w, _) = side
        Z, logs, spread_z, spread_g = AffineInvariant.whiten_by_log_mean(side)
        rows, cols, _ = _upper(Z.shape[-1])
        whitened = (Z, (logs[:, rows, cols],))
        bound, _ = geometry(MetricKind.LEM).dist2_pairs(whitened, whitened, i, j)
        spread = w[:, -1] / w[:, 0]
        scale = BOUND_MARGIN * stack.shape[-1] ** 1.5 * np.finfo(float).eps
        return bound, scale * (spread[i] * spread[j]
                               + spread_g * (spread_z[i] * spread_z[j]))

    @staticmethod
    def block_dist2(left, right, i, j, keep=False):
        """sum log(w)^2 over the spectrum w of each whitened pair P X P, P =
        X_a^{-1/2}, once it clears the PD floor; a failing pair is named
        (i[p], j[p])."""
        if keep:
            # the gradient reads the pair whitened by its left sample
            P, X = left[1][0][i], right[0][j]
        else:
            swap = _sorts_before(right[0], j, left[0], i)
            if left is right:
                # one stack: exchange the indices, which costs less than
                # moving the gathered matrices
                a, b = np.where(swap, j, i), np.where(swap, i, j)
                P, X = left[1][0][a], left[0][b]
            else:
                P, X = left[1][0][i], right[0][j]
                P[swap], X[swap] = right[1][0][j[swap]], left[0][i[swap]]
        M = matfun.symmetrize(P @ X @ P)
        del P, X  # the eigensolve's working memory need not hold them too
        w, Q = matfun.sym_eig(M) if keep else (np.linalg.eigvalsh(M), None)
        matfun.require_pd(w, M, "whitened pair", (i, j))
        log_w = np.log(w)
        d = np.sum(log_w**2, axis=-1)
        return d, matfun.eig_apply(Q, log_w) if keep else None

    @staticmethod
    def grad_factors(factors):
        """(X^{-1/2}, X^{1/2}, X^{-1}) from the factors' eigenpairs."""
        inv_sqrt, w, Q = factors
        return inv_sqrt, matfun.eig_apply(Q, np.sqrt(w)), matfun.eig_apply(Q, 1.0 / w)

    @staticmethod
    def block_grad(factors, pair, i, j):
        inv_sqrt, sqrt, _ = factors
        E = -(sqrt[i] @ pair @ inv_sqrt[i])
        return E, -E

    @staticmethod
    def finish(factors, acc):
        return factors[2] @ acc


class Stein(Geometry):
    """ln det((X_i+X_j)/2) - (ln det X_i + ln det X_j)/2, clamped at zero.

    Pair gradient terms T_i = A^{-1} - Y_i^{-1} and T_j = A^{-1} - Y_j^{-1}
    with A = (Y_i + Y_j)/2, finished by the identity. The gradient needs
    inverses only, and builds each from a Cholesky factor already at hand
    (`matfun.chol_inv`): the samples' from `factors`, and the midpoints'
    from the objective's distance pass, which keeps each support pair's.
    """

    grad_scale = 1.0

    @staticmethod
    def factors(stack, name):
        """(ln det X, L) with X = L L^T, from one stacked Cholesky, which
        checks positive definiteness."""
        return _chol_logdet(stack, name)

    @staticmethod
    def block_dist2(left, right, i, j, keep=False):
        """Distances, plus each midpoint's Cholesky factor when kept."""
        # summed in place into the gathered left ends: bit-identical to
        # 0.5 * (a + b), with one temporary fewer per block
        mid = left[0][i]
        mid += right[0][j]
        mid *= 0.5
        logdet, chol = _chol_logdet(mid, "midpoint", (i, j))
        # symmetric form: the value is exactly invariant to argument order
        d = np.maximum(logdet - 0.5 * (left[1][0][i] + right[1][0][j]), 0.0)
        return d, chol if keep else None

    @staticmethod
    def grad_factors(factors):
        """(X^{-1},) from the samples' Cholesky factors."""
        return (matfun.chol_inv(factors[1]),)

    @staticmethod
    def block_grad(factors, pair, i, j):
        inv = factors[0]
        mid_inv = matfun.chol_inv(pair)
        return mid_inv - inv[i], mid_inv - inv[j]

    @staticmethod
    def finish(factors, acc):
        return acc


class LogEuclidean(Geometry):
    """||log X_i - log X_j||_F^2, on the upper triangles of the logs.

    `factors` holds each log as its n(n+1)/2 upper-triangle entries (module
    docstring). A pair's distance is d = sum_diag D^2 + 2 sum_upper D^2 for
    the difference D of its two triangles, which is exact, entry for entry,
    as the difference of the full logs would be; squaring and one product
    with the weights 1 and 2 finish it, so d depends on the squared
    entries alone and is the same in either order, and exactly zero for
    coincident logs.

    Pair gradient terms T_i = D and T_j = -D, in triangle form, finished by
    phi_s(T) = dlog(Y_s)[S(T)] with S(T) the symmetric matrix whose upper
    triangle is T: one stacked `dlog_eig` call differentiates every sample
    along its summed direction, from the eigenpairs that gave the logs.
    """

    @staticmethod
    def factors(stack, name):
        """(upper triangle of log X, w, Q) with X = Q diag(w) Q^T, from one
        eigendecomposition."""
        w, Q = matfun.spd_eig(stack, name)
        rows, cols, _ = _upper(stack.shape[-1])
        return matfun.eig_apply(Q, np.log(w))[..., rows, cols], w, Q

    @staticmethod
    def block_dist2(left, right, i, j, keep=False):
        D = left[1][0][i]
        D -= right[1][0][j]
        D *= D
        return D @ _upper(left[0].shape[-1])[2], None

    @staticmethod
    def block_grad(factors, pair, i, j):
        upper = factors[0]
        D = upper[i] - upper[j]
        return D, -D

    @staticmethod
    def finish(factors, acc):
        _, w, Q = factors
        rows, cols, _ = _upper(Q.shape[-1])
        S = np.empty(Q.shape)
        S[:, rows, cols] = acc
        S[:, cols, rows] = acc
        return matfun.dlog_eig(w, Q, S)


_GEOMETRIES = {
    MetricKind.AIM: AffineInvariant(),
    MetricKind.STEIN: Stein(),
    MetricKind.LEM: LogEuclidean(),
}


def geometry(metric):
    """The batched kernel of a metric given by name or MetricKind."""
    return _GEOMETRIES[MetricKind.parse(metric)]


def _checked(A, name):
    """A symmetric matrix or stack with finite entries, checked finite first
    (`matfun.check_finite`)."""
    return matfun.check_symmetric(matfun.check_finite(A, name), name)


def _stack(stack, name):
    """A validated (k, n, n) stack of finite symmetric matrices."""
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValidationError(
            f"{name} operand must be a (k, n, n) stack of matrices, "
            f"got shape {stack.shape}"
        )
    return _checked(stack, name)


def _side(geom, stack, name):
    """A validated (stack, factors) operand of `Geometry.dist2_pairs` and
    `Geometry.lower_bound`."""
    stack = _stack(stack, name)
    return stack, geom.factors(stack, name)


def dist2(metric, X1, X2):
    """Squared distance between two SPD matrices under the chosen geometry."""
    geom = geometry(metric)
    X1 = _checked(X1, "first operand")
    X2 = _checked(X2, "second operand")
    if X1.shape != X2.shape:
        raise DimMismatchError(f"operand dims differ: {X1.shape} vs {X2.shape}")
    left = (X1[None], tuple(f[None] for f in geom.factors(X1, "first operand")))
    if np.array_equal(X1, X2):
        # coincident operands are exactly at distance zero; the AIM route
        # would otherwise leave rounding noise from the whitening product
        return 0.0
    right = (X2[None], tuple(f[None] for f in geom.factors(X2, "second operand")))
    first = np.zeros(1, dtype=int)
    return float(geom.dist2_pairs(left, right, first, first)[0][0])


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
    rows, cols = _stack(rows, "row sample"), _stack(cols, "col sample")
    if rows.shape[1:] != cols.shape[1:]:
        raise DimMismatchError(
            f"sample dims differ: {rows.shape[1:]} vs {cols.shape[1:]}"
        )
    left = (rows, geom.factors(rows, "row sample"))
    right = (cols, geom.factors(cols, "col sample"))
    R, C = rows.shape[0], cols.shape[0]
    i, j = np.divmod(np.arange(R * C), C)
    return geom.dist2_pairs(left, right, i, j)[0].reshape(R, C)


def factored(metric, samples):
    """(geometry, side) of one validated stack: the metric's kernel and the
    (stack, factors) operand its `dist2_pairs` and `lower_bound` take, so a
    caller that needs several passes over pairs of the stack factors it once."""
    geom = geometry(metric)
    return geom, _side(geom, samples, "sample")


def indexed_dist2(metric, samples, i, j):
    """Squared distances between samples i[p] and j[p] of one stack.

    The stack is factored once however many pairs share a sample. Each value
    is exactly the same with i and j exchanged, so a caller that needs both
    orders of a pair computes it once.
    """
    geom, side = factored(metric, samples)
    return geom.dist2_pairs(side, side, np.asarray(i), np.asarray(j))[0]


def bandwidth(D):
    """Similarity bandwidth 1/sigma^2 with sigma the mean pairwise distance,
    from a `pairwise_dist2` matrix.

    sigma is fixed once from the training samples on their original manifold
    and is not recomputed as the transform changes. A D with a non-finite or
    negative entry is rejected: it would give a NaN or infinite bandwidth.
    """
    N = D.shape[0]
    if N < 2:
        raise ValidationError("need at least two samples to set the bandwidth")
    if not (np.isfinite(D) & (D >= 0.0)).all():
        raise ValidationError("distance matrix holds non-finite or negative values")
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
