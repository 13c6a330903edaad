"""Supervised neighbor graphs over a labeled SPD dataset.

Pairs are selected on the original manifold: each sample nominates its v_w
nearest same-class neighbors and its v_b nearest different-class neighbors
under the chosen distance, and an edge exists when either endpoint nominated
the other (OR symmetrization). Distance ties prefer the lower sample index so
graph construction is deterministic. `build_graphs` computes its distances
through one `metrics.PairScreen` under every metric, as the evaluation
splits do, and gives it only its nomination and cap rules.
"""

from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import DimMismatchError, InsufficientClassSizeError, ValidationError
from .errors import check_count
from .metrics import PairScreen, unordered_pairs
from .metrics import pairwise_dist2  # noqa: F401  (traced by perfbench)


@dataclass(frozen=True)
class PairGraphs:
    """The selected neighbor pairs of `size` samples.

    `pairs` is an (E, 2) integer array of unordered pairs (i < j) in strictly
    increasing lexicographic order, which fixes the reduction order everywhere
    downstream. A pair is within-class when its labels agree, between-class
    otherwise. Graphs built from distances (`neighbor_graphs`,
    `build_graphs`) carry `dist2`, the squared original-manifold distance of
    each pair, which sets the bandwidth (`metrics.default_beta`), and
    `distances_computed`, how many pair distances the build computed.
    """

    pairs: np.ndarray
    size: int
    dist2: np.ndarray | None = None
    distances_computed: int = 0

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
        if self.dist2 is not None:
            dist2 = np.array(self.dist2, dtype=float)
            if dist2.shape != (len(pairs),):
                raise DimMismatchError(
                    f"dist2 has shape {dist2.shape} for {len(pairs)} pairs"
                )
            dist2.setflags(write=False)
            object.__setattr__(self, "dist2", dist2)


def _check_counts(data, v_w, v_b):
    """Raise unless v_w and v_b are integers >= 1 (`check_count`) and every
    class has two samples or more."""
    check_count("v_w", v_w, 1)
    check_count("v_b", v_b, 1)
    sizes = data.class_sizes()
    if sizes.min() < 2:
        small = int(np.argmin(sizes))
        raise InsufficientClassSizeError(
            f"class {small} has {sizes[small]} sample(s); "
            "need at least 2 per class for within-class neighbors"
        )


def _nearest(data, M, v_w, v_b):
    """[(nearest, keep)] for within-class and then between-class neighbors:
    each row's columns of least M among its candidates, ties to the lower
    index, and the mask of the first min(v, candidates) of them, which the
    row nominates. Only a row's candidates that sort before inf are
    nominated, so an M that is finite over them nominates no other."""
    N = data.size
    labels = data.labels
    same = labels[:, None] == labels
    other = ~same
    np.fill_diagonal(same, False)
    own = data.class_sizes()[labels]
    kinds = []
    for candidates, count, v in ((same, own - 1, v_w), (other, N - own, v_b)):
        nearest = np.argsort(np.where(candidates, M, np.inf), axis=1,
                             kind="stable")[:, :v]
        keep = np.arange(nearest.shape[1]) < count[:, None]
        kinds.append((nearest, keep))
    return kinds


def _nominated(kinds):
    """The N x N mask of every nomination of `_nearest`'s kinds."""
    N = len(kinds[0][0])
    nominated = np.zeros((N, N), dtype=bool)
    for nearest, keep in kinds:
        nominated[np.nonzero(keep)[0], nearest[keep]] = True
    return nominated


def _graphs(data, D, v_w, v_b, computed):
    """`PairGraphs` of the nominations from D, carrying the pairs' D."""
    pairs = np.transpose(unordered_pairs(_nominated(_nearest(data, D, v_w, v_b))))
    return PairGraphs(pairs, data.size, D[pairs[:, 0], pairs[:, 1]], computed)


def neighbor_graphs(data, D, v_w, v_b):
    """Neighbor pairs from the pairwise squared distances D of the samples
    on their original manifold (as `metrics.pairwise_dist2` gives them) and
    the class labels.

    v_w and v_b are clamped per sample to the number of available same-class
    and different-class candidates. A class with fewer than two samples has
    no within-class neighbors at all and is rejected.

    Each kind of neighbor is one stable argsort of the finite D with the
    non-candidates set to inf; each row nominates its first
    min(v, candidates) columns, so ties go to the lower index. The graphs
    carry the pairs' D, and count no distance as computed.
    """
    _check_counts(data, v_w, v_b)
    N = data.size
    if D.shape != (N, N):
        raise DimMismatchError(f"distance matrix {D.shape} for {N} samples")
    if not np.isfinite(D).all():
        raise ValidationError("distance matrix holds non-finite values")
    return _graphs(data, D, v_w, v_b, 0)


def build_graphs(data, metric, v_w, v_b):
    """`neighbor_graphs` of the samples' distances under a metric, which
    computes the exact distance of only the pairs the graphs could need,
    through one `metrics.PairScreen` of the stack for every metric. The
    graphs carry their pairs' distances and the count of pairs computed.

    The graphs give the screen every pair as needed, their nomination and
    their cap, and it decides the rest (`PairScreen.distances`). Stein and
    the log-Euclidean distance have no lower bound and compute every pair.
    Under the affine-invariant distance the bound screens the pairs, and
    the graphs equal the exhaustive ones pair for pair, ties included: each
    row nominates its v bound-nearest candidates of each kind, and the
    screen computes those pairs first. A row's cap of a kind is the v-th
    least distance computed among its candidates of that kind, so it is at
    least the row's true v-th least, and a pair's cap is the larger of its
    two ends' caps of its kind. Then the screen computes every pair whose
    floor does not rule it out against that cap. A pair left out is
    strictly farther than both caps, and every pair within a cap is
    computed, so each row's first min(v, candidates) columns are those of
    the exhaustive D.
    """
    _check_counts(data, v_w, v_b)

    def cap(D):
        rows, labels = np.arange(data.size), data.labels
        # a row with no candidate of a kind is an end of no pair of that kind
        cap_w, cap_b = (D[rows, nearest[rows, np.maximum(keep.sum(axis=1) - 1, 0)]]
                        for nearest, keep in _nearest(data, D, v_w, v_b))
        # a pair's cap is the larger of its two ends' caps of its kind
        cap = np.maximum.outer(cap_b, cap_b)
        np.copyto(cap, np.maximum.outer(cap_w, cap_w), where=labels[:, None] == labels)
        return cap

    screen = PairScreen(metric, data.samples)
    D = screen.distances(
        True, lambda bound: _nominated(_nearest(data, bound, v_w, v_b)), cap)
    return _graphs(data, D, v_w, v_b, screen.computed)


def label_similarity(data):
    """Doubly centered one-hot label Gram matrix U (YY^T) U, with
    U = I - 11^T/N."""
    Y = np.zeros((data.size, data.class_count))
    Y[np.arange(data.size), data.labels] = 1.0
    U = np.eye(data.size) - np.full((data.size, data.size), 1.0 / data.size)
    return matfun.symmetrize(U @ (Y @ Y.T) @ U)
