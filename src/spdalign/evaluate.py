"""Nearest-neighbor evaluation on the original or transformed manifold.

Ties are broken deterministically everywhere: equal distances prefer the
lower training index, equal vote counts prefer the lower class index. This
keeps every reported number a pure function of the inputs.

`repeated_split_eval` draws all its splits first, stacked as (S, a)
train and (S, b) test index arrays (every split takes the same count from
each class), then factors the whole stack once and computes the distance
of each unordered pair that some split needs as a (test, train) pair at
most once, however many splits share it and in whichever order they need
it, through `metrics.PairScreen.distances`, which runs the pair passes of
`graphs.build_graphs` too: the splits give it only the pairs they need,
their nomination and their cap. Under Stein and the log-Euclidean
distance it computes every such pair in one pass. The pairs the splits
need are one N x N mask of their (test, train) cells, formed once for
both manifolds by one broadcast assignment, which builds no (S, b, a)
index array; the screen below and the 1-NN votes run as stacked passes
over groups of splits, each group's (g, b, a) gather within
BLOCK_ENTRIES entries, so memory does not grow with S. The stack is taken
as the dataset checked it: only `map_down` checks it again, finite and
symmetric, on the way through W, and neither manifold's stack is screened
against the PD floor again (`metrics` docstring).

Under the affine-invariant distance it computes only the pairs its
log-Euclidean lower bound cannot rule out (`AffineInvariant.lower_bound`,
taken in the frame whitened by the stack's arithmetic mean, at one
eigendecomposition per sample). Each test row of each split nominates its
bound-nearest train sample, and the screen's first pass computes those
pairs; a row's cap is its nominee's distance, which is at least the row's
nearest distance, and a cell's cap is the largest over the rows of the
splits that need it. The screen's second pass computes every needed pair
whose floor sqrt(bound) - tau is not above the square root of its cap in
either order, and every needed pair whose floor is not finite, and no
other. A pair left out has a computed distance
strictly above the cap of every row that needs it, so it can neither be a
row's nearest neighbor nor tie it. Each computed value is the one
`cross_dist2` gives, since the kernel computes each pair on its own, and
each split votes on a matrix that is inf where a pair was left out:
argmins, ties and accuracies are those of the exhaustive computation.
`knn_classify` stays exhaustive.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_count, check_type
from .metrics import MetricKind, PairScreen, _blocks, cross_dist2, map_down


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
    """Accuracies across repeated random splits, with the unordered pairs
    whose distance was computed exactly on each manifold (original first,
    then transformed) out of the union the splits need."""

    baseline: np.ndarray
    transformed: np.ndarray | None
    distances_computed: tuple = ()
    union_pairs: int = 0

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
    """Label test samples by majority vote among k nearest training samples;
    k is an integer with 1 <= k <= train.size (`check_count`)."""
    metric = MetricKind.parse(metric)
    check_count("k", k, 1)
    if k > train.size:
        raise ValidationError(f"k must be <= {train.size}, got {k}")
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


def check_split_settings(train_fraction, repeats=1):
    """Raise ValidationError, naming the setting, unless train_fraction is a
    number in (0, 1) and repeats an integer >= 1 (`check_count`)."""
    check_type("train_fraction", train_fraction)
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    check_count("repeats", repeats, 1)


def _draw_splits(data, train_fraction, seed, repeats=1):
    """(train, test): the sorted sample indices of one stratified split per
    seed of seed..seed+repeats-1, stacked as (S, a) and (S, b) arrays. The
    settings are checked here, seed an integer >= 0 (`check_count`), for
    both `split` and `repeated_split_eval`.

    Each split permutes every class's members with its own
    `default_rng(seed)`, in class order, and takes the same count from
    each class, so all splits of a call have the same per-class counts."""
    check_split_settings(train_fraction, repeats)
    check_count("seed", seed, 0)
    classes, takes = [], []
    for cls in range(data.class_count):
        members = np.flatnonzero(data.labels == cls)
        if members.size < 2:
            raise ValidationError(
                f"class {cls} has {members.size} sample(s); cannot split"
            )
        take = int(round(train_fraction * members.size))
        classes.append(members)
        takes.append(min(max(take, 1), members.size - 1))
    # which slot of a split's concatenated class permutations lands in train
    to_train = np.concatenate([np.arange(members.size) < take
                               for members, take in zip(classes, takes)])
    perms = np.array([
        np.concatenate([rng.permutation(members) for members in classes])
        for rng in map(np.random.default_rng, range(seed, seed + repeats))
    ])
    return np.sort(perms[:, to_train], axis=1), np.sort(perms[:, ~to_train], axis=1)


def split(data, train_fraction, seed):
    """Stratified random split; every class lands on both sides."""
    train, test = _draw_splits(data, train_fraction, seed)
    return data.subset(train[0]), data.subset(test[0])


def _split_groups(train, test):
    """(g, cells) per group of consecutive stacked splits: g the group's
    slice, cells the (test, train) index pair that gathers its (g, b, a)
    test-by-train blocks. The groups are `metrics._blocks` of the splits at
    a * b entries each, so a group holds as many splits as keep its gather
    within BLOCK_ENTRIES entries, and one at least."""
    count, a = train.shape
    for g in _blocks(count, a * test.shape[1]):
        yield g, (test[g, :, None], train[g, None, :])


def _nearest(M, train, test):
    """(S, b): for each test index of each split, the train index of least
    M[test, train], the lowest such index on ties, as a stable sort of the
    row's sorted train columns would pick."""
    nearest = np.empty_like(test)
    for g, cells in _split_groups(train, test):
        nearest[g] = np.take_along_axis(train[g], np.argmin(M[cells], axis=2), axis=1)
    return nearest


def _split_dist2(metric, stack, train, test, needed):
    """(D, computed): the N x N squared distances the splits' 1-NN votes
    read, inf where none was computed, and how many unordered pairs were
    computed exactly. train and test are the (S, a) and (S, b) index
    arrays of `_draw_splits`; needed is the N x N mask of their
    (test, train) cells, and no pair outside it is computed. The stack is
    a dataset's or `map_down`'s output, taken as `PairScreen` takes it."""
    first = None

    def nominate(bound):
        nonlocal first
        first = _nearest(bound, train, test)
        nominated = np.zeros_like(needed)
        nominated[test, first] = True
        return nominated

    def cap(D):
        # a cell's cap is the largest of its rows' caps over the splits that
        # need it; no cap is below 0
        cell_cap = np.zeros(needed.shape)
        for g, cells in _split_groups(train, test):
            np.maximum.at(cell_cap, cells, D[test[g], first[g]][..., None])
        return cell_cap

    screen = PairScreen(metric, stack)
    return screen.distances(needed, nominate, cap), screen.computed


def repeated_split_eval(data, metric, train_fraction=0.5, repeats=10, seed=0, W=None):
    """Accuracy over `repeats` stratified splits, with seeds seed..seed+r-1.

    Evaluates 1-NN on the original manifold, and through W when given. The
    result equals `knn_classify(*split(data, train_fraction, s), metric, W=W)`
    for every seed s, but each unordered pair that any split needs is
    computed at most once per manifold, from one factorization of the
    stack, with the lower index first, and the affine-invariant distance
    skips the pairs its lower bound rules out (module docstring). The
    distance kernels are exactly invariant to argument order, so this gives
    what `knn_classify` computes test-first.
    """
    train, test = _draw_splits(data, train_fraction, seed, repeats)
    needed = np.zeros((data.size, data.size), dtype=bool)
    needed[test[:, :, None], train[:, None, :]] = True
    stacks = [data.samples]
    if W is not None:
        stacks.append(map_down(data.samples, W))
    labels = data.labels
    accuracies, computed = [], []
    for stack in stacks:
        D, count = _split_dist2(metric, stack, train, test, needed)
        computed.append(count)
        hits = labels[_nearest(D, train, test)] == labels[test]
        accuracies.append(np.count_nonzero(hits, axis=1) / test.shape[1])
    return EvalSummary(
        baseline=accuracies[0],
        transformed=accuracies[1] if W is not None else None,
        distances_computed=tuple(computed),
        # no cell is on the diagonal: a split's test and train are disjoint
        union_pairs=np.count_nonzero(needed | needed.T) // 2,
    )
