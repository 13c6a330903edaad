"""SPD geometries: squared distances, a lower bound on the affine-invariant
one, and the dimension-reducing congruence map.

Three squared distances are supported on positive definite matrices:

- affine-invariant: ||log(X1^{-1/2} X2 X1^{-1/2})||_F^2
- Stein divergence: ln det((X1+X2)/2) - (1/2) ln det(X1 X2)
- log-Euclidean:    ||log X1 - log X2||_F^2

The Stein divergence is used directly as a squared distance (no square root
is ever taken). Two equal matrices are at distance exactly 0 under every
geometry and through every entry point, so identical samples get
similarity exactly 1 and a gradient term of exactly 0. Stein's midpoint and
the log-Euclidean difference give that exactly by themselves; the
affine-invariant kernel finds the pairs whose matrices are equal entry for
entry (`_sorts_before`) and sets their whitened spectrum's log to zero, so
rounding in the whitening product leaves no residue.

Each geometry is one batched kernel (`Geometry`), and `dist2`,
`pairwise_dist2`, `cross_dist2` and the alignment objective and gradient all
go through it: `Geometry.dist2_pairs` is the one loop over blocks of
distance pairs, on one operand, a factored stack (stack, factors), with the
pairs as two index arrays into it; `dist2` and `cross_dist2` factor each of
their two operands under its own name, then stack both.

Inputs are validated once where they enter: finite and symmetric
(`matfun.check_symmetric`), and clear of the PD floor (`matfun.check_pd`),
in a `LabeledDataset` or in the raw-array entry points `dist2`,
`cross_dist2` and `indexed_dist2` (so `pairwise_dist2` too), each operand
after every shape, dimension and index check and right before it is
factored. `Geometry.factors` only
decomposes, so a stack computed inside the package (an objective trial,
`map_down`'s output) is not screened against the floor. A Cholesky that
breaks down is named through `matfun.spd_chol`, the log-Euclidean factors
reject a floored spectrum they read anyway, and the affine-invariant
kernel applies the floor to each whitened pair; each of these runs on a
whole stack or block and names the first failing member.

Every pass runs its blocks in order on the calling thread. Each block
writes its distances, and any per-pair factors it keeps, into its own
slice of arrays allocated before the pass, and the first failing block
ends the pass. Nothing reads the CPU count, so no value or error depends
on it.
The blocks are not split over threads, although the affine-invariant
kernel's stacked eigensolves release the GIL: a threaded pass did not beat
this loop, and each of its threads costs peak memory (ROADMAP.md,
"Measured floors and closed questions").

The affine-invariant lower bound's Gram product runs in numpy's own loop
(`np.einsum`), not in the BLAS, so neither the bound nor its time depends
on the BLAS thread count (timings in ROADMAP.md's floors).

Training needs the original-manifold distances of the neighbor graphs'
support pairs only: the graphs carry them (`graphs.build_graphs`), and the
bandwidth is their mean (`default_beta`), so nothing is computed twice.
The graphs and the evaluation splits compute their pairs through one
screen (`PairScreen`) under every metric; it holds its bound, floor and
distances as N x N matrices and takes the pairs to compute as N x N masks
(`unordered_pairs`). Under the affine-invariant distance it computes only
the pairs the lower bound below cannot rule out, under Stein and the
log-Euclidean distance every pair asked for. `indexed_dist2` computes the
distances of any set of pairs of one stack.
Every distance-only pass is exactly invariant to argument order, for the
affine-invariant distance too: it whitens each pair by whichever of its two
matrices sorts first by entries. The alignment objective's pass
(`dist2_pairs(..., keep=True)`) also keeps what the gradient reads of each
pair's decomposition: the log of each pair whitened by its i-end sample for
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

The affine-invariant distance is unchanged by any congruence X -> C X C^T
(Pennec, Fillard & Ayache, IJCV 2006), and both its kernel and its lower
bound use that. The kernel whitens a pair by a Cholesky factor: with
X_a = L_a L_a^T, M = L_a^{-1} X_b L_a^{-T} has the spectrum of
X_a^{-1/2} X_b X_a^{-1/2}, and the factors take one stacked Cholesky and
its triangular inverse (`matfun.tri_inv`), so no sample stack is
eigendecomposed. The lower bound is the log-Euclidean distance,
||log A - log B||_F <= ||log(A^{-1/2} B A^{-1/2})||_F (the exponential
metric increasing property; Bhatia, Positive Definite Matrices, 2007, Thm
6.1.4), which is tight as both matrices approach the identity, so
`AffineInvariant.lower_bound` takes it in the stack's own whitened frame.
With M = mean_k X_k, the stack's arithmetic mean, and C = M^{-1/2} from one
n x n eigendecomposition, it is ||log Z_a - log Z_b||_F^2 for
Z_a = C X_a C and Z_b = C X_b C, from one stacked eigendecomposition of the
Z_k, for every pair at once: one Gram product of the flattened logs, less a
rounding term that keeps it under the exact value (`lower_bound`). On
clustered data that is far tighter than the bound on the samples
themselves. Each pair gets a rounding margin
tau = BOUND_MARGIN n^{3/2} eps k_M (k_M + 1) k_a k_b, with k_M the
eigenvalue spread w_max / w_min of M and k_a, k_b those of the whitened
samples. As X_a = M^{1/2} Z_a M^{1/2}, k_M k_a bounds the spread of X_a: the
term k_M^2 k_a k_b covers the rounding of the affine-invariant distance, and
k_M k_a k_b that of the congruence and of the whitened eigensolve; C needs
none, since any symmetric positive definite C gives a valid bound. A
whitened sample whose spectrum is not positive and finite, and every sample
of a stack whose mean is not, gets an infinite margin. sqrt(bound) - tau is
a floor under the square root of the pair's computed distance, so a pair
whose floor exceeds the square root of another pair's computed distance is
strictly farther, in floating point too. The margin grows with the
conditioning of the samples; on ill-conditioned data it exceeds every bound
and the floor rules out nothing. Stein and the log-Euclidean distance have
no such bound.
"""

import math
from enum import Enum
from functools import cache

import numpy as np

from . import matfun
from .dataset import LabeledDataset
from .errors import (
    DegenerateInputError,
    DimMismatchError,
    NotPositiveDefiniteError,
    NumericalError,
    RankDeficientError,
    ValidationError,
)

RANK_RTOL = 1e-10
# matrix entries (pairs x n x n) per batched kernel call; bounds the working
# memory of a block of pairs whatever the pair count and sample dimension
BLOCK_ENTRIES = 16384
# B of the rounding margin B n^{3/2} eps k_M (k_M + 1) k_a k_b of the
# affine-invariant lower bound: orders of magnitude above the rounding of the
# pair whitening and eigensolve, the congruence by the mean's M^{-1/2} and the
# whitened samples' logs, which all grow with n eps k
BOUND_MARGIN = 1e4
# c of the rounding term c n^2 eps (s_a + s_b) that the affine-invariant lower
# bound takes off its Gram form (`AffineInvariant.lower_bound`): it covers the
# Gram form's own rounding and, for n >= 2, the log-Euclidean kernel's too
GRAM_ROUNDING = 8


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
    check_rank(np.linalg.svd(W, compute_uv=False))
    return W


def check_rank(sv):
    """Raise RankDeficientError unless a transform's singular values sv, in
    descending order, are of full rank: the least above RANK_RTOL times the
    greatest."""
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise RankDeficientError(
            f"transform is rank deficient (sv ratio {sv[-1]:.3e}/{sv[0]:.3e})"
        )


def map_down(X, W):
    """Congruence W^T X W taking an SPD matrix, or each of a stack, to the
    target dimension.

    A finite W can still overflow the product; a mapped matrix that is not
    finite raises NumericalError, naming the transform and the first such
    sample, rather than reaching a later check as an infinite eigenvalue.
    """
    X = matfun.check_symmetric(X, "sample")
    W = check_transform(W, n=X.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        Y = matfun.symmetrize(W.T @ (X @ W))
    finite = np.isfinite(Y).all(axis=(-2, -1))
    if not finite.all():
        _, label = matfun._first(~finite)
        raise NumericalError(
            f"transform maps sample{label} to non-finite values (overflow)"
        )
    return Y


def _blocks(count, entries):
    """Slices covering range(count) in blocks of BLOCK_ENTRIES // entries
    pairs, for `entries` matrix entries per pair."""
    step = max(1, BLOCK_ENTRIES // entries)
    return [slice(s, s + step) for s in range(0, count, step)]


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


def _sorts_before(stack, ia, ib):
    """(before, equal): where matrix stack[ia[p]] comes strictly before
    stack[ib[p]] in the lexicographic order of their entries, row by row,
    and where the two are equal entry for entry.

    The (0, 0) entries decide almost every pair; only the pairs that tie
    there are compared in full, up to their first differing entry, and a
    pair with none is equal.
    """
    first_a, first_b = stack[ia, 0, 0], stack[ib, 0, 0]
    before = first_a < first_b
    equal = np.zeros_like(before)
    tie = np.flatnonzero(first_a == first_b)
    if tie.size:
        u = stack[ia[tie]].reshape(tie.size, -1)
        v = stack[ib[tie]].reshape(tie.size, -1)
        differ = u != v
        k = np.argmax(differ, axis=1)
        rows = np.arange(tie.size)
        before[tie] = u[rows, k] < v[rows, k]
        equal[tie] = ~differ[rows, k]
    return before, equal


class Geometry:
    """Batched kernel of one SPD geometry.

    Each geometry gives these parts, and defines its own `factors`,
    `block_dist2`, `block_grad` and `finish`. `factors` is the per-sample
    factor of a whole stack: a tuple of stacked arrays from one stacked
    decomposition, holding what the pair distance reads plus the
    decomposition it came from and nothing else, so distance-only passes
    build no gradient factor. It only decomposes: the PD floor is decided
    where samples enter (module docstring). `block_dist2` gives (squared
    distances, kept factors) of one block of pairs, given as index arrays i
    and j into one (stack, factors) side, the pair kernel's only operand.
    Without `keep` it keeps nothing and its distance is exactly invariant to
    the order of a pair's two matrices. With `keep`, the objective's pass,
    it also returns the per-pair factors the gradient reads, so no support
    pair is decomposed twice (AIM each pair's log whitened by its i-end,
    Stein each midpoint's Cholesky factor; LEM keeps nothing and returns
    None). `grad_factors` derives, once per gradient, the per-sample
    matrices the pair gradient reads from `factors`; the pair gradient hooks
    read these factors only. `block_grad` and `finish` are the pair gradient
    term: `block_grad` gives one term U per pair, as a new array, whose
    i-end takes T_i = U and whose j-end takes T_j = j_sign U, and `finish`
    is a map phi_s, linear in its argument, from a sum of terms to an m x m
    matrix, such that with Y_p = W^T X_p W and B_p = X_p W the gradient of
    k_ij = exp(-beta d_ij) with respect to W is

        -grad_scale * beta * k_ij * (B_i phi_i(T_i) + B_j phi_j(T_j)).

    Since phi_s is linear, `grad_pairs` sums the weighted terms per sample
    and finishes each sample once; `finish` also gets the pairs and their
    weights, for a part of every term that depends on one sample alone
    (Stein's). A term has the shape `term_shape`: m x m for AIM and Stein,
    the m(m+1)/2 upper-triangle entries for LEM. `dist2_pairs` and
    `grad_pairs` feed pairs through in blocks of BLOCK_ENTRIES matrix
    entries (`term_shape` at the sample dim per distance pair, m x m per
    gradient term), which bounds their working memory whatever the pair
    count. The scatter positions `grad_pairs` reads are not bounded so:
    `scatter` builds all of them at once, 2 |E| times the entries of one
    term, for a caller that keeps them across gradients. `lower_bound`, for
    a geometry that has one, gives (squared lower bounds, rounding margins)
    of every pair of a stack as two N x N matrices, so `PairScreen` can
    skip pairs; it is None for a geometry with no cheap bound.
    """

    grad_scale = 4.0
    # T_j = j_sign T_i: -1 where a pair's two ends take opposite terms, +1
    # where they share one (Stein's A^{-1})
    j_sign = -1
    lower_bound = None

    def dist2_pairs(self, side, i, j, keep=False):
        """(squared distances, kept factors) between samples i[p] and j[p]
        of one (stack, factors) side: the one loop over blocks of distance
        pairs, BLOCK_ENTRIES // e pairs to a block for e the entries of one
        pair (`term_shape` at the sample dim).

        The kept factors are the |E|-long stack of what `block_dist2` keeps
        of each pair with `keep` set, so their shape follows the kernel; they
        are None for a distance-only pass, for a geometry whose `block_dist2`
        keeps nothing, and for an empty pass. The distances are allocated
        before the pass and the kept factors when the first block returns
        its part, and each block writes its own slice of them, so a pass
        holds one copy of its results. The blocks run in order on the
        calling thread (module docstring), so the first failing pair is the
        pass's first, and it is named by its position in the pass
        (`NotPositiveDefiniteError.index`), not in its block.
        """
        out = np.empty(len(i))
        kept = None
        for blk in _blocks(len(i), math.prod(self.term_shape(side[0].shape[-1]))):
            try:
                out[blk], part = self.block_dist2(side, i[blk], j[blk], keep)
            except NotPositiveDefiniteError as exc:
                exc.index = None if exc.index is None else exc.index + blk.start
                raise
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

    @staticmethod
    def term_shape(m):
        """The shape of one pair term at target dim m."""
        return (m, m)

    def scatter(self, i, j, N, m):
        """Where `grad_pairs` adds the terms of the pairs (i[p], j[p]) of N
        samples at target dim m: per block, (slice, i-end positions, j-end
        positions), each position sample * size + entry in the flat
        per-sample sums, with size the entries of one term. It depends on
        the pairs and m alone, so a caller that takes many gradients builds
        it once and keeps it: 2 |E| size positions in all. They take the
        smallest unsigned type that holds N * size - 1, which `np.add.at`
        reads as fast as int64: uint16 for up to 65,536 entries, a quarter
        of int64's memory, then uint32 and uint64."""
        size = math.prod(self.term_shape(m))
        kind = np.min_scalar_type(N * size - 1)
        entries = np.arange(size, dtype=kind)
        at_i, at_j = (ends.astype(kind)[:, None] * kind.type(size) + entries
                      for ends in (i, j))
        return [(blk, at_i[blk].ravel(), at_j[blk].ravel())
                for blk in _blocks(len(i), m * m)]

    def grad_pairs(self, B, factors, pair_factors, i, j, weights, scatter):
        """sum_p weights_p * (B_i phi_i(T_i) + B_j phi_j(T_j)) over the pairs
        (i[p], j[p]), with factors and pair_factors as `factors` and
        `dist2_pairs(..., keep=True)` gave them, for the N samples B_p = X_p W
        of the (N, n, m) stack B, and scatter as `scatter(i, j, N, m)` gave
        it.

        Each block forms the weighted terms w U once. A 1-D `np.add.at` at
        the i-end positions adds them, and one at the j-end positions adds
        them or, for j_sign -1, subtracts them, which is exactly adding
        w T_j. So the per-sample sums take each entry's terms in pair order,
        block by block, i-ends before j-ends; `finish` and one product with
        B reduce them, so the summation order is fixed.
        """
        N, _, m = B.shape
        factors = self.grad_factors(factors)
        shape = self.term_shape(m)
        acc = np.zeros(N * math.prod(shape))
        add_j = np.add if self.j_sign > 0 else np.subtract
        for blk, at_i, at_j in scatter:
            pair = None if pair_factors is None else pair_factors[blk]
            terms = self.block_grad(factors, pair, i[blk], j[blk])
            # weighted in place, as `block_grad` returns a new array
            weighted = terms.reshape(len(terms), -1)
            weighted *= weights[blk, None]
            np.add.at(acc, at_i, weighted.ravel())
            add_j.at(acc, at_j, weighted.ravel())
        F = self.finish(factors, acc.reshape((N,) + shape), i, j, weights)
        return np.tensordot(B, F, axes=([0, 2], [0, 1]))


class AffineInvariant(Geometry):
    """||log(X_a^{-1/2} X_b X_a^{-1/2})||_F^2, whitened by Cholesky factors.

    `factors` gives (L^{-T}, L) with X = L L^T, and a pair is whitened as
    M = L_a^{-1} X_b L_a^{-T}, whose spectrum is that of
    X_a^{-1/2} X_b X_a^{-1/2} (module docstring). The distance-only pass
    whitens each pair by whichever of its two matrices sorts first
    (`_sorts_before`) and takes eigenvalues only, so its value depends on
    the two matrices alone and is exactly invariant to argument order, as
    Stein's and LEM's are. The objective's pass (`keep`) whitens by the
    i-end sample, whose factors its gradient reads, and keeps the log of each
    whitened pair from the same eigendecomposition. In every pass a pair of
    equal matrices gets a zero log spectrum, so its distance and kept log
    are exactly zero.

    `lower_bound` gives, as N x N matrices, the log-Euclidean squared
    distance of every pair in the frame whitened by the stack's arithmetic
    mean (`whiten_by_mean`), less a Gram rounding term, never above the
    affine-invariant one, and the rounding margin tau that makes
    sqrt(bound) - tau a floor under the computed distance's square root
    (module docstring). It reads the stack alone, no factor, and costs one
    eigendecomposition per sample and one Gram product of the flattened
    logs, against a pair whitening and eigensolve per pair.

    Pair gradient term U = E, with T_i = E and T_j = -E, for
    E = log(Y_i Y_j^{-1}) = -L_i log(L_i^{-1} Y_j L_i^{-T}) L_i^{-1},
    finished by phi_s(T) = Y_s^{-1} T = L_s^{-T} (L_s^{-1} T). The
    objective's distance pass keeps each support pair's log(M), so E costs
    two products per pair, and the gradient decomposes no sample stack.

    The factors hold L^{-T} rather than L^{-1}, and `grad_factors` copies
    out L^{-1}, so no product's last operand is a transposed view: P X P^T
    with P^T a view is slower than P^T X P with the view first, which costs
    about as much as the contiguous P X P (ROADMAP.md's floors).
    """

    @staticmethod
    def factors(stack, name):
        """(L^{-T}, L) with X = L L^T: one stacked Cholesky
        (`matfun.spd_chol`) and its `matfun.tri_inv`."""
        chol = matfun.spd_chol(stack, name)
        return matfun.tri_inv(chol).swapaxes(-1, -2).copy(), chol

    @staticmethod
    def whiten_by_mean(stack):
        """(Z, log Z, spreads of Z, spread of M) with Z_k = C X_k C,
        C = M^{-1/2} and M = mean_k X_k, the stack's arithmetic mean: one
        n x n eigendecomposition of M and one stacked one of the Z_k.

        A mean that is not finite and positive definite whitens by C = I
        with an infinite spread, and a whitened sample whose spectrum is not
        positive and finite gets log zero and an infinite spread, so their
        margins rule out nothing.
        """
        n = stack.shape[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            mean = np.mean(stack, axis=0)
        g, V = (np.linalg.eigh(mean) if np.isfinite(mean).all()
                else (np.zeros(n), None))
        if g[0] > 0.0:
            C, spread_m = matfun.eig_apply(V, g**-0.5), g[-1] / g[0]
        else:
            C, spread_m = np.eye(n), np.inf
        Z = matfun.symmetrize(C @ stack @ C)
        finite = np.isfinite(Z).all(axis=(-2, -1))
        Z[~finite] = np.eye(n)
        wz, Qz = np.linalg.eigh(Z)
        ok = finite & (wz[:, 0] > 0.0)
        wz[~ok] = 1.0
        spread = np.where(ok, wz[:, -1] / wz[:, 0], np.inf)
        return Z, matfun.eig_apply(Qz, np.log(wz)), spread, spread_m

    @staticmethod
    def lower_bound(stack):
        """(bound, tau), two N x N matrices: the squared lower bound of every
        pair of the stack, from one Gram product of the whitened logs, and
        its rounding margin.

        With u_a the flattened log Z_a of `whiten_by_mean` and
        s_a = ||u_a||^2, the squared log-Euclidean distance of a pair is
        ||u_a - u_b||^2 = s_a + s_b - 2 (U U^T)_ab. A dot product of length
        n^2 computed in floating point errs by at most
        gamma_{n^2} |u_a|.|u_b| <= gamma_{n^2} sqrt(s_a s_b), with
        gamma_k = k eps / (1 - k eps) (Higham, Accuracy and Stability of
        Numerical Algorithms, 2002, sec. 3.1), and
        2 sqrt(s_a s_b) <= s_a + s_b. To first order in eps, the three
        products and the five other roundings below then err by at most
        (2 n^2 + 5) eps (s_a + s_b), and the log-Euclidean kernel's value of
        the pair, a weighted sum of n(n+1)/2 rounded squares, by at most
        (n^2 + n + 6) eps (s_a + s_b), as ||u_a - u_b||^2 <= 2 (s_a + s_b).
        The bound takes off the rounding term GRAM_ROUNDING n^2 eps
        (s_a + s_b) and is clamped at 0. The term covers the first error for
        every n, so the bound is never above the exact squared distance of
        the computed logs, and both for n >= 2, so it is never above the
        kernel's value either, and at most twice the term below it. The
        margin of the pair is BOUND_MARGIN n^{3/2} eps k_M (k_M + 1) k_a k_b,
        the outer product of the samples' spreads scaled by the mean's
        (module docstring). The logs are dropped once the Gram product is
        taken, and the Gram product once the bound is formed, before the
        margin.
        """
        logs, spread, spread_m = AffineInvariant.whiten_by_mean(stack)[1:]
        n = stack.shape[-1]
        U = logs.reshape(len(logs), -1)
        # numpy's own loop, whatever the BLAS thread count (module docstring)
        gram = np.einsum("ak,bk->ab", U, U)
        del U, logs
        # s_a + s_b less the rounding term, from the Gram diagonal, summed
        # before the products are taken off so that the bound is symmetric
        kept = np.diagonal(gram) * (1.0 - GRAM_ROUNDING * n * n * np.finfo(float).eps)
        bound = np.add.outer(kept, kept)
        gram *= 2.0
        bound -= gram
        del gram
        np.maximum(bound, 0.0, out=bound)
        # k_M k_a bounds the spread of X_a = M^{1/2} Z_a M^{1/2}
        tau = np.multiply.outer(spread, spread)
        tau *= BOUND_MARGIN * n**1.5 * np.finfo(float).eps * spread_m * (spread_m + 1.0)
        return bound, tau

    @staticmethod
    def block_dist2(side, i, j, keep=False):
        """sum log(w)^2 over the spectrum w of each whitened pair
        M = P^T X P, P = L_a^{-T}, once it clears the PD floor; a failing
        pair is named (i[p], j[p]). A pair of equal matrices gets log w = 0."""
        stack, (inv_t, _) = side
        swap, equal = _sorts_before(stack, j, i)
        # the gradient reads the pair whitened by its i-end; a distance-only
        # pass whitens by the end that sorts first, exchanging the indices
        a, b = (i, j) if keep else (np.where(swap, j, i), np.where(swap, i, j))
        P, X = inv_t[a], stack[b]
        M = matfun.symmetrize(P.swapaxes(-1, -2) @ X @ P)
        del P, X  # the eigensolve's working memory need not hold them too
        w, Q = matfun.sym_eig(M) if keep else (np.linalg.eigvalsh(M), None)
        matfun.require_pd(w, M, "whitened pair", (i, j))
        log_w = np.log(w)
        # the whitening product leaves rounding in an equal pair's spectrum
        log_w[equal] = 0.0
        d = np.sum(log_w**2, axis=-1)
        return d, matfun.eig_apply(Q, log_w) if keep else None

    @staticmethod
    def grad_factors(factors):
        """(L, L^{-1}, L^{-T}) from the factors."""
        inv_t, chol = factors
        return chol, inv_t.swapaxes(-1, -2).copy(), inv_t

    @staticmethod
    def block_grad(factors, pair, i, j):
        chol, inv, _ = factors
        return -(chol[i] @ pair @ inv[i])

    @staticmethod
    def finish(factors, acc, i, j, weights):
        _, inv, inv_t = factors
        return inv_t @ (inv @ acc)


class Stein(Geometry):
    """ln det((X_i+X_j)/2) - (ln det X_i + ln det X_j)/2, clamped at zero.

    Pair gradient terms T_i = A^{-1} - Y_i^{-1} and T_j = A^{-1} - Y_j^{-1}
    with A = (Y_i + Y_j)/2. Both ends share U = A^{-1} (j_sign +1), and
    the -Y_s^{-1} parts depend on the sample alone: `finish` subtracts
    c_s Y_s^{-1} once per sample, with c_s the summed weight of the pairs
    that have s at either end, and is otherwise the identity. The gradient
    needs inverses only, and builds each from a Cholesky factor already at
    hand (`matfun.chol_inv`): the samples' from `factors`, and the
    midpoints' from the objective's distance pass, which keeps each support
    pair's.
    """

    grad_scale = 1.0
    j_sign = 1

    @staticmethod
    def factors(stack, name, ids=None):
        """(ln det X, L) with X = L L^T, from one stacked Cholesky
        (`matfun.spd_chol`, which names a failing member through ids), the
        log-determinant from the factor's diagonal."""
        chol = matfun.spd_chol(stack, name, ids)
        diag = np.diagonal(chol, axis1=-2, axis2=-1)
        return 2.0 * np.sum(np.log(diag), axis=-1), chol

    @staticmethod
    def block_dist2(side, i, j, keep=False):
        """Distances, plus each midpoint's Cholesky factor when kept."""
        stack, (logdets, _) = side
        # summed in place into the gathered i-ends: bit-identical to
        # 0.5 * (a + b), with one temporary fewer per block
        mid = stack[i]
        mid += stack[j]
        mid *= 0.5
        logdet, chol = Stein.factors(mid, "midpoint", (i, j))
        # symmetric form: the value is exactly invariant to argument order
        d = np.maximum(logdet - 0.5 * (logdets[i] + logdets[j]), 0.0)
        return d, chol if keep else None

    @staticmethod
    def grad_factors(factors):
        """(X^{-1},) from the samples' Cholesky factors."""
        return (matfun.chol_inv(factors[1]),)

    @staticmethod
    def block_grad(factors, pair, i, j):
        return matfun.chol_inv(pair)

    @staticmethod
    def finish(factors, acc, i, j, weights):
        N = len(acc)
        ends = np.bincount(i, weights, N) + np.bincount(j, weights, N)
        return acc - ends[:, None, None] * factors[0]


class LogEuclidean(Geometry):
    """||log X_i - log X_j||_F^2, on the upper triangles of the logs.

    `factors` holds each log as its n(n+1)/2 upper-triangle entries (module
    docstring). A pair's distance is d = sum_diag D^2 + 2 sum_upper D^2 for
    the difference D of its two triangles, which is exact, entry for entry,
    as the difference of the full logs would be; squaring and one product
    with the weights 1 and 2 finish it, so d depends on the squared
    entries alone and is the same in either order, and exactly zero for
    coincident logs.

    Pair gradient term U = D, with T_i = D and T_j = -D, in triangle form,
    finished by phi_s(T) = dlog(Y_s)[S(T)] with S(T) the symmetric matrix
    whose upper triangle is T: one stacked `dlog_eig` call differentiates
    every sample along its summed direction, from the eigenpairs that gave
    the logs.
    """

    @staticmethod
    def factors(stack, name):
        """(upper triangle of log X, w, Q) with X = Q diag(w) Q^T, from one
        eigendecomposition."""
        w, Q = matfun.spd_eig(stack, name)
        rows, cols, _ = _upper(stack.shape[-1])
        return matfun.eig_apply(Q, np.log(w))[..., rows, cols], w, Q

    @staticmethod
    def block_dist2(side, i, j, keep=False):
        stack, (upper, *_) = side
        D = upper[i]
        D -= upper[j]
        D *= D
        # one product per pair: a matrix-vector product over the block sums
        # some rows by another kernel, which would tie a pair's value to its
        # slot in the block
        weights = _upper(stack.shape[-1])[2]
        return np.matmul(D[:, None], weights[:, None])[:, 0, 0], None

    @staticmethod
    def term_shape(m):
        return (m * (m + 1) // 2,)

    @staticmethod
    def block_grad(factors, pair, i, j):
        upper = factors[0]
        return upper[i] - upper[j]

    @staticmethod
    def finish(factors, acc, i, j, weights):
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


def _operand(A, name, ndim):
    """A validated operand of finite symmetric matrices: one (n, n) matrix
    for ndim 2, a (k, n, n) stack for ndim 3, its shape checked first, then
    finite and symmetric in one call (`matfun.check_symmetric`)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != ndim or A.shape[-1] != A.shape[-2]:
        want = ("must be one (n, n) matrix" if ndim == 2
                else "operand must be a (k, n, n) stack of matrices")
        raise ValidationError(f"{name} {want}, got shape {A.shape}")
    return matfun.check_symmetric(A, name)


def _pair_indices(i, j, N):
    """i and j as equal-length 1-D integer arrays of sample indices in
    [0, N), checked before the stack is factored: numpy would broadcast
    unequal lengths, wrap a negative index and raise its own IndexError."""
    i, j = np.asarray(i), np.asarray(j)
    for k, name in ((i, "i"), (j, "j")):
        if k.ndim != 1 or (k.size and not np.issubdtype(k.dtype, np.integer)):
            raise ValidationError(
                f"{name} must be a 1-D array of integer indices, "
                f"got {k.dtype} of shape {k.shape}"
            )
        outside = (k < 0) | (k >= N)
        if outside.any():
            p = int(np.argmax(outside))
            raise ValidationError(
                f"{name}[{p}] = {k[p]} is not a sample index in [0, {N})"
            )
    if len(i) != len(j):
        raise DimMismatchError(f"i and j differ in length: {len(i)} vs {len(j)}")
    return i, j


def _joined_side(geom, join, *operands):
    """The (stack, factors) side of raw (operand, name) pairs joined by
    `join` (np.stack or np.concatenate), each operand screened against the
    PD floor (`matfun.check_pd`) and factored under its own name, in turn."""
    factors = (geom.factors(matfun.check_pd(A, name), name) for A, name in operands)
    return join([A for A, _ in operands]), tuple(map(join, zip(*factors)))


def dist2(metric, X1, X2):
    """Squared distance between two SPD matrices under the chosen geometry:
    the pair (0, 1) of the two, stacked after each is factored."""
    geom = geometry(metric)
    X1 = _operand(X1, "first operand", 2)
    X2 = _operand(X2, "second operand", 2)
    if X1.shape != X2.shape:
        raise DimMismatchError(f"operand dims differ: {X1.shape} vs {X2.shape}")
    side = _joined_side(geom, np.stack, (X1, "first operand"), (X2, "second operand"))
    return float(geom.dist2_pairs(side, np.array([0]), np.array([1]))[0][0])


def pairwise_dist2(metric, samples):
    """All pairwise squared distances within a stack of SPD matrices, or
    within a `LabeledDataset`'s stack, which is not checked again.

    Per-sample factors come from one stacked decomposition, and the
    N(N-1)/2 pairs i < j go through the batched kernel.
    """
    N = len(samples)
    i, j = np.triu_indices(N, k=1)
    D = np.zeros((N, N))
    D[i, j] = D[j, i] = indexed_dist2(metric, samples, i, j)
    return D


def cross_dist2(metric, rows, cols):
    """Squared distances between every row-stack and column-stack sample:
    the pairs (r, R + c) of the R rows stacked above the columns, after
    each stack is factored, so a failing pair is named [r R+c]."""
    geom = geometry(metric)
    rows, cols = _operand(rows, "row sample", 3), _operand(cols, "col sample", 3)
    if rows.shape[1:] != cols.shape[1:]:
        raise DimMismatchError(
            f"sample dims differ: {rows.shape[1:]} vs {cols.shape[1:]}"
        )
    side = _joined_side(
        geom, np.concatenate, (rows, "row sample"), (cols, "col sample"))
    R, C = rows.shape[0], cols.shape[0]
    i, j = np.divmod(np.arange(R * C), C)
    return geom.dist2_pairs(side, i, R + j)[0].reshape(R, C)


def indexed_dist2(metric, samples, i, j):
    """Squared distances between samples i[p] and j[p] of one stack.

    The stack is factored once however many pairs share a sample. Each value
    is exactly the same with i and j exchanged, so a caller that needs both
    orders of a pair computes it once. i and j must be 1-D integer arrays
    of equal length, each index in [0, N) for a stack of N samples. A raw
    stack is screened against the PD floor after the indices are checked; a
    `LabeledDataset` gives its stack, which is not checked again.
    """
    geom = geometry(metric)
    screened = isinstance(samples, LabeledDataset)
    stack = samples.samples if screened else _operand(samples, "sample", 3)
    i, j = _pair_indices(i, j, len(stack))
    if not screened:
        matfun.check_pd(stack, "sample")
    return geom.dist2_pairs((stack, geom.factors(stack, "sample")), i, j)[0]


def unordered_pairs(mask):
    """Index arrays (i, j), i < j, in lexicographic order, of the unordered
    pairs that an N x N boolean matrix marks in either order: the flat
    positions of the marked upper triangle, split by N."""
    N = len(mask)
    upper = mask | mask.T
    upper &= np.arange(N)[:, None] < np.arange(N)
    return np.divmod(np.flatnonzero(upper), N)


class PairScreen:
    """Exact squared distances of the pairs of one stack of N samples,
    computed as a caller asks for them: it runs the pair passes of the train
    graphs and the eval splits under every metric, and it is the one place
    where a pass skips the pairs the affine-invariant lower bound rules out
    (module docstring).

    `dist2` is the N x N symmetric matrix of the distances computed so far,
    inf where none was (the diagonal included), and `computed` the count of
    unordered pairs computed. Each value is the one `indexed_dist2` gives,
    since the kernel computes each pair on its own. For a geometry with a
    `lower_bound`, `bound` is its N x N bound, which a caller reads to
    nominate the first pairs and then drops, and `floor` is
    sqrt(bound) - tau, -inf where that is not finite (a NaN floor would
    compare False and rule a pair out); both are None for any other
    geometry, and its caller computes every pair it needs. The stack is
    taken as given: a dataset's, screened when the dataset was built, or
    `map_down`'s output; `Geometry.factors` only decomposes.
    """

    def __init__(self, metric, stack):
        self.geom = geometry(metric)
        self.bound = self.floor = None
        if self.geom.lower_bound is not None:
            # the bound reads the stack alone; taken before the factors, it
            # holds its whitened frame without them. The floor takes the
            # margin's buffer.
            self.bound, self.floor = self.geom.lower_bound(stack)
            np.subtract(np.sqrt(self.bound), self.floor, out=self.floor)
            self.floor[~np.isfinite(self.floor)] = -np.inf
        self.side = (stack, self.geom.factors(stack, "sample"))
        self.dist2 = np.full((len(stack),) * 2, np.inf)
        self.computed = 0

    def compute(self, mask):
        """Compute the unordered pairs that the N x N boolean mask marks, in
        either order, and that no earlier call computed, in lexicographic
        order (`unordered_pairs`)."""
        i, j = unordered_pairs(mask & np.isinf(self.dist2))
        self.dist2[i, j] = self.dist2[j, i] = self.geom.dist2_pairs(self.side, i, j)[0]
        self.computed += len(i)

    def compute_unless_ruled_out(self, cap, among=True):
        """Compute every pair (a, b) that `among` marks, an N x N mask or True
        for every pair, whose floor is not above sqrt(cap[a, b]), after
        dropping the floor; a pair is computed if either of its orders
        qualifies. A pair left out in an order has sqrt of its computed
        distance at least its floor, so its distance is strictly above
        cap[a, b], in floating point too."""
        mask = self.floor <= np.sqrt(cap)
        mask &= among
        self.floor = None
        self.compute(mask)


def bandwidth(d):
    """Similarity bandwidth 1/sigma^2, with sigma the mean of sqrt(d) over
    the squared distances d of the neighbor-graph support pairs.

    The support pairs are the pairs whose similarities the objective
    regresses, so sigma is their mean distance. It is fixed once from the
    training samples on their original manifold and is not recomputed as
    the transform changes. d must be one non-empty 1-D array; a NaN,
    infinite or negative entry is rejected, as it would give a NaN or
    infinite bandwidth, and so are support pairs that all coincide.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise DimMismatchError(
            f"support distances must be one 1-D array, got shape {d.shape}"
        )
    if not d.size:
        raise ValidationError("need at least one support pair to set the bandwidth")
    if not (np.isfinite(d) & (d >= 0.0)).all():
        raise ValidationError("support distances hold non-finite or negative values")
    sigma = float(np.mean(np.sqrt(d)))
    if sigma <= 0.0:
        raise DegenerateInputError(
            "all support pairs coincide; similarity bandwidth is undefined"
        )
    return 1.0 / sigma**2


def default_beta(graphs):
    """The bandwidth training uses: `bandwidth` of the support pairs of
    neighbor graphs, from the original-manifold distances they carry
    (`PairGraphs.dist2`, which `graphs.build_graphs` and
    `graphs.neighbor_graphs` fill)."""
    if graphs.dist2 is None:
        raise ValidationError(
            "the graphs carry no support-pair distances; "
            "build them with build_graphs or neighbor_graphs"
        )
    return bandwidth(graphs.dist2)
