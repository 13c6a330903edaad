"""A labeled stack of SPD samples, checked once when it is built.

`LabeledDataset` holds same-dimension symmetric positive definite samples
with integer class indices 0..c-1. Every sample is checked on construction
for finite entries, symmetry and positive definiteness; the neighbor graphs,
the objective and evaluation then take the stack as valid.
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
