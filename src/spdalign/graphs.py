"""Supervised neighbor graphs over a labeled SPD dataset.

Pairs are selected on the original manifold: each sample nominates its v_w
nearest same-class neighbors and its v_b nearest different-class neighbors
under the chosen distance, and an edge exists when either endpoint nominated
the other (OR symmetrization). Distance ties prefer the lower sample index so
graph construction is deterministic.
"""

from dataclasses import dataclass, field

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

    Every class index up to the maximum must be present, and every sample is
    checked on construction, in one pass over the stack, for finite entries,
    symmetry and positive definiteness.
    """

    samples: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if samples.ndim != 3 or samples.shape[1] != samples.shape[2]:
            raise ValidationError(
                f"samples must be a stack of square matrices, got {samples.shape}"
            )
        if labels.ndim != 1 or labels.shape[0] != samples.shape[0]:
            raise DimMismatchError(
                f"{samples.shape[0]} samples but {labels.shape} labels"
            )
        if samples.shape[0] < 2:
            raise ValidationError("a dataset needs at least two samples")
        if labels.min() < 0:
            raise ValidationError("class indices must be nonnegative")
        present = np.unique(labels)
        if not np.array_equal(present, np.arange(present[-1] + 1)):
            raise ValidationError(
                "class indices must cover 0..c-1 with no gaps; "
                f"got {present.tolist()}"
            )
        finite = np.isfinite(samples).all(axis=(1, 2))
        if not finite.all():
            raise ValidationError(
                f"sample {int(np.argmin(finite))} holds a non-finite value"
            )
        matfun.check_symmetric(samples, "sample")
        matfun.require_pd(np.linalg.eigvalsh(samples), samples, "sample")
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
        """Dataset restricted to the given sample indices (labels unchanged)."""
        indices = np.asarray(indices, dtype=int)
        return LabeledDataset(self.samples[indices].copy(), self.labels[indices].copy())


@dataclass(frozen=True)
class PairGraphs:
    """Binary within-class (Gw) and between-class (Gb) adjacency masks.

    Both are symmetric with zero diagonal and disjoint supports; the union
    graph G = Gw + Gb. `pairs` lists the unordered support (i < j) in
    lexicographic order, which fixes the reduction order everywhere downstream.
    """

    Gw: np.ndarray
    Gb: np.ndarray
    pairs: np.ndarray = field(init=False)

    def __post_init__(self):
        Gw = np.asarray(self.Gw, dtype=np.uint8)
        Gb = np.asarray(self.Gb, dtype=np.uint8)
        for name, G in (("Gw", Gw), ("Gb", Gb)):
            if G.shape != Gw.shape or G.ndim != 2 or G.shape[0] != G.shape[1]:
                raise ValidationError(f"{name} must be square, got {G.shape}")
            if not np.array_equal(G, G.T):
                raise ValidationError(f"{name} must be symmetric")
            if np.any(np.diag(G) != 0):
                raise ValidationError(f"{name} must have a zero diagonal")
        if np.any(Gw & Gb):
            raise ValidationError("within- and between-class supports overlap")
        Gw.setflags(write=False)
        Gb.setflags(write=False)
        pairs = np.argwhere(np.triu(Gw | Gb))
        pairs.setflags(write=False)
        object.__setattr__(self, "Gw", Gw)
        object.__setattr__(self, "Gb", Gb)
        object.__setattr__(self, "pairs", pairs)

    @property
    def union(self):
        return (self.Gw | self.Gb).astype(float)


def _nearest(dist_row, candidates, count):
    """Indices of the `count` nearest candidates, ties to the lower index."""
    if count <= 0 or candidates.size == 0:
        return candidates[:0]
    order = np.lexsort((candidates, dist_row[candidates]))
    return candidates[order[: min(count, candidates.size)]]


def neighbor_graphs(data, D, v_w, v_b):
    """Neighbor masks from the pairwise squared distances D of the samples
    on their original manifold (`pairwise_dist2`) and the class labels.

    v_w and v_b are clamped per sample to the number of available same-class
    and different-class candidates. A class with fewer than two samples has
    no within-class neighbors at all and is rejected.
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
    labels = data.labels
    Gw = np.zeros((N, N), dtype=np.uint8)
    Gb = np.zeros((N, N), dtype=np.uint8)
    idx = np.arange(N)
    for i in range(N):
        same = idx[(labels == labels[i]) & (idx != i)]
        diff = idx[labels != labels[i]]
        for j in _nearest(D[i], same, v_w):
            Gw[i, j] = Gw[j, i] = 1
        for j in _nearest(D[i], diff, v_b):
            Gb[i, j] = Gb[j, i] = 1
    return PairGraphs(Gw, Gb)


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
