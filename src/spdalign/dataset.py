"""A labeled stack of SPD samples, checked once when it is built.

`LabeledDataset` holds same-dimension symmetric positive definite samples
with integer class indices 0..c-1. Every sample is checked on construction
for finite entries and symmetry (`matfun.check_symmetric`, one call) and for
positive definiteness; the neighbor graphs, the objective and evaluation
then take the stack as valid. This is the one PD floor decision
(`matfun.check_pd`) a loaded stack gets: the distance passes take its
factors as they come.
"""

from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import DimMismatchError, ValidationError


@dataclass(frozen=True)
class LabeledDataset:
    """Stack of same-dimension SPD samples with class indices in [0, c).

    Labels must be integer-valued, in any numeric dtype, and every class
    index up to the maximum must be present. Every sample is checked on
    construction, in one pass over the stack, for finite entries, symmetry
    and positive definiteness (`matfun.check_pd`, a stacked Cholesky screen
    that names the first failing sample).
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
        matfun.check_symmetric(samples, "sample")
        matfun.check_pd(samples, "sample")
        self._freeze(samples, labels)

    def _freeze(self, samples, labels):
        samples.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self):
        return self.samples.shape[0]

    def __len__(self):
        return self.size

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
