"""Nearest-neighbor evaluation on the original or transformed manifold.

Ties are broken deterministically everywhere: equal distances prefer the
lower training index, equal vote counts prefer the lower class index. This
keeps every reported number a pure function of the inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .metrics import MetricKind, cross_dist2, map_down


@dataclass(frozen=True)
class EvalReport:
    """Classification outcome of one train/test evaluation."""

    accuracy: float
    per_class_accuracy: np.ndarray
    confusion: np.ndarray
    distances_computed: int
    metric: MetricKind
    used_transform: bool


@dataclass(frozen=True)
class EvalSummary:
    """Accuracies across repeated random splits."""

    baseline: np.ndarray
    transformed: np.ndarray | None

    @staticmethod
    def _stats(acc):
        return float(np.mean(acc)), float(np.std(acc))

    @property
    def baseline_mean_std(self):
        return self._stats(self.baseline)

    @property
    def transformed_mean_std(self):
        if self.transformed is None:
            raise ValidationError("no transform was evaluated")
        return self._stats(self.transformed)


def knn_classify(train, test, metric, W=None, k=1):
    """Label test samples by majority vote among k nearest training samples."""
    metric = MetricKind.parse(metric)
    if k < 1 or k > train.size:
        raise ValidationError(f"k must be in [1, {train.size}], got {k}")
    if train.dim != test.dim:
        raise ValidationError(
            f"train dim {train.dim} does not match test dim {test.dim}"
        )
    train_stack, test_stack = train.samples, test.samples
    if W is not None:
        train_stack = map_down(train.samples, W)
        test_stack = map_down(test.samples, W)
    D = cross_dist2(metric, test_stack, train_stack)
    c = max(train.class_count, test.class_count)
    confusion = np.zeros((c, c), dtype=int)
    train_order = np.arange(train.size)
    for i in range(test.size):
        nearest = train_order[np.lexsort((train_order, D[i]))[:k]]
        votes = np.bincount(train.labels[nearest], minlength=c)
        confusion[test.labels[i], int(np.argmax(votes))] += 1
    row_sums = confusion.sum(axis=1)
    per_class = np.divide(
        np.diag(confusion).astype(float),
        row_sums,
        out=np.zeros(c),
        where=row_sums > 0,
    )
    return EvalReport(
        accuracy=float(np.trace(confusion)) / test.size,
        per_class_accuracy=per_class,
        confusion=confusion,
        distances_computed=test.size * train.size,
        metric=metric,
        used_transform=W is not None,
    )


def split(data, train_fraction, seed):
    """Stratified random split; every class lands on both sides."""
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for cls in range(data.class_count):
        members = np.flatnonzero(data.labels == cls)
        if members.size < 2:
            raise ValidationError(
                f"class {cls} has {members.size} sample(s); cannot split"
            )
        perm = rng.permutation(members)
        take = int(round(train_fraction * members.size))
        take = min(max(take, 1), members.size - 1)
        train_idx.extend(perm[:take])
        test_idx.extend(perm[take:])
    return data.subset(sorted(train_idx)), data.subset(sorted(test_idx))


def repeated_split_eval(data, metric, train_fraction=0.5, repeats=10, seed=0, W=None):
    """Accuracy over `repeats` stratified splits, with seeds seed..seed+r-1.

    Evaluates 1-NN on the original manifold, and through W when given.
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    baseline, transformed = [], []
    for r in range(repeats):
        train, test = split(data, train_fraction, seed + r)
        baseline.append(knn_classify(train, test, metric).accuracy)
        if W is not None:
            transformed.append(knn_classify(train, test, metric, W=W).accuracy)
    return EvalSummary(
        baseline=np.asarray(baseline),
        transformed=np.asarray(transformed) if W is not None else None,
    )
