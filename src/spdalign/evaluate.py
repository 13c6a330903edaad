"""Nearest-neighbor evaluation on the original or transformed manifold.

Ties are broken deterministically everywhere: equal distances prefer the
lower training index, equal vote counts prefer the lower class index. This
keeps every reported number a pure function of the inputs.

`repeated_split_eval` draws all its splits as index arrays first, then
computes the distance of every (test, train) pair that some split needs in
one pass over the whole stack (`metrics.indexed_dist2`), so a pair shared by
several splits is computed once; each split then votes on its block.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .metrics import MetricKind, cross_dist2, indexed_dist2, map_down


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


def _confusion(D, train_labels, test_labels, k, c):
    """c x c confusion counts of the majority vote among the k nearest
    training columns of each test row of D."""
    nearest = np.argsort(D, axis=1, kind="stable")[:, :k]
    votes = (train_labels[nearest][..., None] == np.arange(c)).sum(axis=1)
    confusion = np.zeros((c, c), dtype=int)
    np.add.at(confusion, (test_labels, votes.argmax(axis=1)), 1)
    return confusion


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
    confusion = _confusion(D, train.labels, test.labels, k, c)
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


def _split_indices(data, train_fraction, seed):
    """Sorted (train, test) sample indices of one stratified split."""
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
    return np.sort(train_idx), np.sort(test_idx)


def split(data, train_fraction, seed):
    """Stratified random split; every class lands on both sides."""
    train_idx, test_idx = _split_indices(data, train_fraction, seed)
    return data.subset(train_idx), data.subset(test_idx)


def repeated_split_eval(data, metric, train_fraction=0.5, repeats=10, seed=0, W=None):
    """Accuracy over `repeats` stratified splits, with seeds seed..seed+r-1.

    Evaluates 1-NN on the original manifold, and through W when given. The
    result equals `knn_classify(*split(data, train_fraction, s), metric, W=W)`
    for every seed s, but each (test, train) pair that any split needs is
    computed once: the union of the splits' pairs goes through the metric's
    kernel in one pass per manifold, with the test sample on the left as in
    `knn_classify`, and every split reads its block of that matrix.
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    splits = [_split_indices(data, train_fraction, seed + r) for r in range(repeats)]
    needed = np.zeros((data.size, data.size), dtype=bool)
    for train_idx, test_idx in splits:
        needed[np.ix_(test_idx, train_idx)] = True
    i, j = np.nonzero(needed)
    stacks = [data.samples]
    if W is not None:
        stacks.append(map_down(data.samples, W))
    labels, c = data.labels, data.class_count
    accuracies = []
    for stack in stacks:
        D = np.zeros(needed.shape)
        D[i, j] = indexed_dist2(metric, stack, i, j)
        acc = []
        for train_idx, test_idx in splits:
            confusion = _confusion(D[np.ix_(test_idx, train_idx)],
                                   labels[train_idx], labels[test_idx], 1, c)
            acc.append(float(np.trace(confusion)) / test_idx.size)
        accuracies.append(np.asarray(acc))
    return EvalSummary(
        baseline=accuracies[0],
        transformed=accuracies[1] if W is not None else None,
    )
