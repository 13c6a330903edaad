"""Supervised neighbor graphs over a labeled SPD dataset.

Pairs are selected on the original manifold: each sample nominates its v_w
nearest same-class neighbors and its v_b nearest different-class neighbors
under the chosen distance, and an edge exists when either endpoint nominated
the other (OR symmetrization). Distance ties prefer the lower sample index so
graph construction is deterministic.
"""

from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import (
    DimMismatchError,
    InsufficientClassSizeError,
    ValidationError,
)
from .metrics import pairwise_dist2


@dataclass(frozen=True)
class LabeledDataset:
    """Stack of same-dimension SPD samples with class indices in [0, c).

    Labels must be integer-valued, in any numeric dtype, and every class
    index up to the maximum must be present. Every sample is checked on
    construction, in one pass over the stack, for finite entries, symmetry
    and positive definiteness. Positive definiteness is screened by one
    stacked Cholesky (`_clearly_pd`); a stack the screen cannot clear is
    decided, and its first failing sample named, by `require_pd` on its
    `eigvalsh` spectrum, which the screen never contradicts.
    """

    samples: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "biu":
            # NaN fails both comparisons; the bound keeps the cast exact
            whole = labels.dtype.kind == "f" and (
                (np.abs(labels) < 2.0**63) & (labels == np.trunc(labels))
            )
            if not np.all(whole):
                raise ValidationError("class labels must be integer class indices")
        labels = labels.astype(int)
        if samples.ndim != 3 or samples.shape[1] != samples.shape[2]:
            raise ValidationError(
                f"samples must be a stack of square matrices, got {samples.shape}"
            )
        _check_labels(labels, samples.shape[0])
        finite = np.isfinite(samples).all(axis=(1, 2))
        if not finite.all():
            raise ValidationError(
                f"sample {int(np.argmin(finite))} holds a non-finite value"
            )
        matfun.check_symmetric(samples, "sample")
        if not _clearly_pd(samples):
            matfun.require_pd(np.linalg.eigvalsh(samples), samples, "sample")
        self._freeze(samples, labels)

    def _freeze(self, samples, labels):
        samples.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self):
        return self.samples.shape[0]

    @property
    def dim(self):
        return self.samples.shape[1]

    @property
    def class_count(self):
        return int(self.labels.max()) + 1

    def class_sizes(self):
        return np.bincount(self.labels, minlength=self.class_count)

    def subset(self, indices):
        """Dataset restricted to the given sample indices (labels unchanged).

        Picked rows of a checked stack stay finite, symmetric and positive
        definite, so only the labels are checked again: a subset can drop a
        class.
        """
        indices = np.asarray(indices, dtype=int)
        samples, labels = self.samples[indices], self.labels[indices]
        _check_labels(labels, samples.shape[0])
        sub = object.__new__(LabeledDataset)
        sub._freeze(samples, labels)
        return sub


# Backward-error factor of the PD screen. A Cholesky factorization of
# A = X - s I that runs to completion in floating point is exact for A + E
# with |E| <= gamma_{n+1} |L||L^T| (Higham 2002, Thm 10.3). As
# || |L||L^T| ||_2 <= ||L||_F^2 = tr(A + E) and gamma_{n+1} is about
# (n + 1) eps / 2, lambda_min(X) >= s - n eps tr X. eigvalsh is backward
# stable: each computed eigenvalue is within p(n) eps ||X||_2 <= p(n) eps tr X
# of the exact one (LAPACK Users' Guide, sec. 4.7, takes p(n) = 1; the
# worst-case bound of Householder tridiagonalization grows like n^2 eps).
# A margin of SCREEN_K n eps tr X above the PD floor covers both terms for
# any p(n) up to (SCREEN_K - 1) n.
SCREEN_K = 256


def _clearly_pd(samples):
    """True when every sample's smallest eigenvalue clears its PD floor by
    more than the rounding of both Cholesky and `eigvalsh` (`SCREEN_K`): one
    stacked Cholesky of X - (pd_floor(X) + delta) I, delta = SCREEN_K n eps
    tr X, with finite factors. Such a stack passes `require_pd` on its
    `eigvalsh` spectrum; False leaves the decision to that check. A factor
    exists only when tr X > 0, so delta is then positive."""
    n = samples.shape[-1]
    trace = samples.trace(axis1=-2, axis2=-1)
    shift = matfun.pd_floor(samples) + SCREEN_K * n * np.finfo(float).eps * trace
    try:
        chol = np.linalg.cholesky(samples - shift[:, None, None] * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(chol).all())


def _check_labels(labels, N):
    """Raise unless the integer labels index N samples as classes 0..c-1."""
    if labels.ndim != 1 or labels.shape[0] != N:
        raise DimMismatchError(f"{N} samples but {labels.shape} labels")
    if N < 2:
        raise ValidationError("a dataset needs at least two samples")
    if labels.min() < 0:
        raise ValidationError("class indices must be nonnegative")
    # a gap-free 0..c-1 has c <= N, so a larger index is a gap that
    # bincount need not allocate
    if labels.max() >= labels.size or not np.bincount(labels).all():
        raise ValidationError(
            "class indices must cover 0..c-1 with no gaps; "
            f"got {sorted(set(labels.tolist()))}"
        )


def unordered_pairs(mask):
    """Index arrays (i, j), i < j, in lexicographic order, of the unordered
    pairs that a boolean matrix marks in either order."""
    return np.nonzero(np.triu(mask | mask.T, k=1))


@dataclass(frozen=True)
class PairGraphs:
    """The selected neighbor pairs of `size` samples.

    `pairs` is an (E, 2) integer array of unordered pairs (i < j) in strictly
    increasing lexicographic order, which fixes the reduction order everywhere
    downstream. A pair is within-class when its labels agree, between-class
    otherwise.
    """

    pairs: np.ndarray
    size: int

    def __post_init__(self):
        pairs = np.array(self.pairs)
        if pairs.dtype.kind not in "iu" or pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValidationError(
                f"pairs must be an (E, 2) integer array, got {pairs.dtype} "
                f"{pairs.shape}"
            )
        i, j = pairs.T
        if len(pairs) and not (i.min() >= 0 and (i < j).all() and j.max() < self.size):
            raise ValidationError(f"pairs must satisfy 0 <= i < j < {self.size}")
        later = (i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))
        if not later.all():
            raise ValidationError("pairs must be sorted with no duplicates")
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)


def neighbor_graphs(data, D, v_w, v_b):
    """Neighbor pairs from the pairwise squared distances D of the samples
    on their original manifold (`pairwise_dist2`) and the class labels.

    v_w and v_b are clamped per sample to the number of available same-class
    and different-class candidates. A class with fewer than two samples has
    no within-class neighbors at all and is rejected.

    Each kind of neighbor is one stable argsort of the finite D with the
    non-candidates set to inf; each row nominates its first
    min(v, candidates) columns, so ties go to the lower index.
    """
    if v_w < 1 or v_b < 1:
        raise ValidationError(f"v_w and v_b must be >= 1, got {v_w}, {v_b}")
    sizes = data.class_sizes()
    if sizes.min() < 2:
        small = int(np.argmin(sizes))
        raise InsufficientClassSizeError(
            f"class {small} has {sizes[small]} sample(s); "
            "need at least 2 per class for within-class neighbors"
        )
    N = data.size
    if D.shape != (N, N):
        raise DimMismatchError(f"distance matrix {D.shape} for {N} samples")
    if not np.isfinite(D).all():
        raise ValidationError("distance matrix holds non-finite values")
    labels = data.labels
    same = labels[:, None] == labels
    other = ~same
    np.fill_diagonal(same, False)
    own = sizes[labels]
    nominated = np.zeros((N, N), dtype=bool)
    for candidates, count, v in ((same, own - 1, v_w), (other, N - own, v_b)):
        nearest = np.argsort(np.where(candidates, D, np.inf), axis=1,
                             kind="stable")[:, :v]
        keep = np.arange(nearest.shape[1]) < count[:, None]
        nominated[np.nonzero(keep)[0], nearest[keep]] = True
    return PairGraphs(np.transpose(unordered_pairs(nominated)), N)


def build_graphs(data, metric, v_w, v_b):
    """`neighbor_graphs` from the pairwise distances under a metric."""
    return neighbor_graphs(data, pairwise_dist2(metric, data.samples), v_w, v_b)


def centering_matrix(N):
    """U = I - 11^T/N, the projector that removes per-row/column means."""
    if N < 1:
        raise ValidationError(f"N must be >= 1, got {N}")
    return np.eye(N) - np.full((N, N), 1.0 / N)


def label_similarity(data):
    """Doubly centered one-hot label Gram matrix U (YY^T) U."""
    Y = np.zeros((data.size, data.class_count))
    Y[np.arange(data.size), data.labels] = 1.0
    U = centering_matrix(data.size)
    return matfun.symmetrize(U @ (Y @ Y.T) @ U)
