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
    return neighbor_graphs(data, pairwise_dist2(metric, data), v_w, v_b)


def label_similarity(data):
    """Doubly centered one-hot label Gram matrix U (YY^T) U, with
    U = I - 11^T/N."""
    Y = np.zeros((data.size, data.class_count))
    Y[np.arange(data.size), data.labels] = 1.0
    U = np.eye(data.size) - np.full((data.size, data.size), 1.0 / data.size)
    return matfun.symmetrize(U @ (Y @ Y.T) @ U)
