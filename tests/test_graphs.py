"""Neighbor-graph construction tests, checked against a brute-force oracle."""

import numpy as np
import pytest

from helpers import centering_matrix, count_calls, graph_split, graph_union, rand_spd
from spdalign.dataset import LabeledDataset
from spdalign.descriptors import SynthConfig, synth_dataset
from spdalign.errors import (
    InsufficientClassSizeError,
    NotPositiveDefiniteError,
    ValidationError,
)
from spdalign.evaluate import split
from spdalign.graphs import (
    PairGraphs,
    build_graphs,
    label_similarity,
    neighbor_graphs,
)
from spdalign.matfun import require_pd
from spdalign.metrics import MetricKind, PairScreen, geometry, pairwise_dist2


def scalar_dataset(values, labels):
    return LabeledDataset(np.asarray(values, float).reshape(-1, 1, 1), labels)


def random_dataset(seed, n=4, classes=3, per_class=5):
    rng = np.random.default_rng(seed)
    samples, labels = [], []
    for c in range(classes):
        base = rand_spd(rng, n)
        for _ in range(per_class):
            bump = rng.standard_normal((n, n)) * 0.3
            samples.append(base + bump @ bump.T)
            labels.append(c)
    return LabeledDataset(np.stack(samples), np.asarray(labels))


def brute_force_graphs(data, D, v_w, v_b):
    """Independent re-implementation: sort (distance, index) tuples per row."""
    N = data.size
    Gw = np.zeros((N, N), dtype=np.uint8)
    Gb = np.zeros((N, N), dtype=np.uint8)
    for i in range(N):
        same = sorted(
            (D[i, j], j) for j in range(N) if j != i and data.labels[j] == data.labels[i]
        )
        diff = sorted((D[i, j], j) for j in range(N) if data.labels[j] != data.labels[i])
        for _, j in same[:v_w]:
            Gw[i, j] = Gw[j, i] = 1
        for _, j in diff[:v_b]:
            Gb[i, j] = Gb[j, i] = 1
    return Gw, Gb


class TestLabeledDataset:
    def test_accepts_valid_input(self):
        data = scalar_dataset([1.0, 2.0, 3.0], [0, 1, 0])
        assert data.size == 3 and data.dim == 1 and data.class_count == 2
        assert data.class_sizes().tolist() == [2, 1]

    def test_rejects_label_gap(self):
        with pytest.raises(ValidationError, match=r"got \[0, 2\]"):
            scalar_dataset([1.0, 2.0], [0, 2])

    def test_rejects_middle_label_gap(self):
        with pytest.raises(ValidationError, match=r"got \[0, 1, 3\]"):
            scalar_dataset([1.0, 2.0, 3.0], [0, 1, 3])

    def test_index_beyond_sample_count_is_a_gap(self):
        # c classes need c <= N samples; the check must not size a count
        # array by the largest index
        with pytest.raises(ValidationError, match=r"got \[0, 1, 4611686018427387904\]"):
            scalar_dataset([1.0, 2.0, 3.0], [0, 2**62, 1])

    @pytest.mark.parametrize(
        "labels",
        [[0.5, 1.7, 0.2], [0.0, np.nan, 1.0], [0.0, np.inf, 1.0], [0.0, 1.0, -np.inf],
         [0.0, 1e300, 1.0]],
        ids=["fractional", "nan", "inf", "-inf", "beyond-int64"],
    )
    def test_rejects_non_integer_labels(self, labels):
        with pytest.raises(ValidationError, match="integer"):
            scalar_dataset([1.0, 2.0, 3.0], labels)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint8, np.int16])
    def test_integer_valued_labels_of_any_numeric_dtype(self, dtype):
        data = scalar_dataset([1.0, 2.0, 3.0], np.array([0, 1, 0], dtype=dtype))
        assert data.labels.dtype == int and data.labels.tolist() == [0, 1, 0]

    def test_rejects_negative_label(self):
        with pytest.raises(ValidationError):
            scalar_dataset([1.0, 2.0], [-1, 0])

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValidationError):
            scalar_dataset([1.0, 2.0, 3.0], [0, 1])

    def test_rejects_singleton(self):
        with pytest.raises(ValidationError):
            scalar_dataset([1.0], [0])

    def test_rejects_indefinite_sample(self):
        with pytest.raises(NotPositiveDefiniteError):
            scalar_dataset([1.0, -2.0], [0, 1])

    def test_rejects_non_finite_sample(self):
        samples = np.stack([np.eye(3)] * 4)
        samples[2, 1, 1] = np.nan
        with pytest.raises(ValidationError, match="sample 2"):
            LabeledDataset(samples, [0, 1, 0, 1])

    def test_rejection_names_first_bad_sample(self):
        samples = np.stack([np.eye(2)] * 5)
        samples[3] = np.diag([1.0, -1.0])
        samples[4] = np.diag([-1.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError, match="sample 3"):
            LabeledDataset(samples, [0, 1, 0, 1, 0])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            LabeledDataset(np.ones((2, 2, 3)), [0, 1])

    def test_samples_frozen(self):
        data = scalar_dataset([1.0, 2.0], [0, 1])
        with pytest.raises(ValueError):
            data.samples[0, 0, 0] = 5.0

    def test_subset_keeps_labels(self):
        data = scalar_dataset([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1])
        sub = data.subset([0, 1])
        assert sub.size == 2 and sub.labels.tolist() == [0, 1]

    def test_subset_skips_sample_checks(self, monkeypatch):
        # picked rows of a checked stack need no eigensolve again
        data = random_dataset(4, n=20, classes=2, per_class=50)
        calls = count_calls(monkeypatch, np.linalg, ["eigvalsh"])
        indices = np.arange(0, data.size, 2)
        sub = data.subset(indices)
        assert calls == {"eigvalsh": 0}
        assert np.array_equal(sub.samples, data.samples[indices])
        assert np.array_equal(sub.labels, data.labels[indices])
        assert not sub.samples.flags.writeable and not sub.labels.flags.writeable

    def test_subset_rechecks_labels(self):
        data = scalar_dataset([1.0, 2.0, 3.0, 4.0], [0, 1, 2, 1])
        # dropping class 1 leaves a gap
        with pytest.raises(ValidationError, match=r"got \[0, 2\]"):
            data.subset([0, 2])
        with pytest.raises(ValidationError, match="at least two"):
            data.subset([1])


def near_floor_spd(rng, n, scale, factor, rotated):
    """An SPD matrix of dimension n, eigenvalues about `scale`, whose
    smallest eigenvalue is `factor` times the PD floor of the finished
    matrix: diagonal, or turned by a random rotation."""
    w = scale * np.exp(rng.uniform(-1.0, 1.0, n))
    w[0] = 0.0
    # floor = 1e-12 tr X / n with w[0] itself in the trace
    w[0] = factor * 1e-12 * w.sum() / (n - factor * 1e-12)
    if not rotated:
        return np.diag(w)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    X = (Q * w) @ Q.T
    return 0.5 * (X + X.T)


class TestPdScreen:
    @pytest.mark.parametrize("rotated", [False, True], ids=["diagonal", "rotated"])
    @pytest.mark.parametrize("factor", [0.5, 1.0, 1 + 1e-9, 2.0, 1e3])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("n", [2, 12, 20])
    def test_decides_as_eigvalsh(self, monkeypatch, n, scale, factor, rotated):
        """The stacked Cholesky screen accepts or rejects, and names the
        sample and eigenvalue, exactly as require_pd on eigvalsh does."""
        rng = np.random.default_rng(n)
        samples = np.stack([rand_spd(rng, n), rand_spd(rng, n),
                            near_floor_spd(rng, n, scale, factor, rotated),
                            rand_spd(rng, n)])
        try:
            require_pd(np.linalg.eigvalsh(samples), samples, "sample")
            expected = None
        except NotPositiveDefiniteError as exc:
            expected = str(exc)
        calls = count_calls(monkeypatch, np.linalg, ["eigvalsh"])
        try:
            LabeledDataset(samples, [0, 1, 0, 1])
            got = None
        except NotPositiveDefiniteError as exc:
            got = str(exc)
        assert got == expected
        if factor <= 1.0:
            # at or below the floor: the screen must leave the call
            assert calls == {"eigvalsh": 1}
        if factor == 0.5:
            assert got.startswith("sample 2 has min eigenvalue")
        elif factor == 1e3:
            # far above the floor: the screen decides alone
            assert got is None and calls == {"eigvalsh": 0}

    def test_first_bad_sample_named_after_the_screen_fails(self):
        samples = np.stack([np.eye(3)] * 5)
        samples[1] = np.diag([1.0, 2.0, 1e-13])
        samples[4] = np.diag([-1.0, 1.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"^sample 1 has min eigenvalue 1\.000e-13 "):
            LabeledDataset(samples, [0, 1, 0, 1, 0])


class TestBuildGraphs:
    def test_four_point_two_class_case(self):
        data = scalar_dataset([1.0, 1.2, 5.0, 6.0], [0, 0, 1, 1])
        g = build_graphs(data, MetricKind.LEM, v_w=1, v_b=1)
        Gw, Gb = graph_split(g, data.labels)
        expected_w = {(0, 1), (2, 3)}
        expected_b = {(0, 2), (1, 2), (1, 3)}
        assert {tuple(p) for p in np.argwhere(np.triu(Gw))} == expected_w
        assert {tuple(p) for p in np.argwhere(np.triu(Gb))} == expected_b

    def test_saturation_connects_all_same_class_pairs(self):
        data = random_dataset(0, classes=2, per_class=4)
        g = build_graphs(data, MetricKind.AIM, v_w=3, v_b=1)
        Gw, _ = graph_split(g, data.labels)
        for i in range(data.size):
            for j in range(i + 1, data.size):
                if data.labels[i] == data.labels[j]:
                    assert Gw[i, j] == 1

    def test_tie_broken_by_lower_index(self):
        data = scalar_dataset([1.0, 2.0, 2.0, 3.0], [0, 1, 1, 0])
        g = build_graphs(data, MetricKind.LEM, v_w=1, v_b=1)
        _, Gb = graph_split(g, data.labels)
        # samples 1 and 2 coincide; sample 0 must nominate index 1, not 2
        assert Gb[0, 1] == 1 and Gb[0, 2] == 0

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, metric, seed):
        data = random_dataset(seed)
        g = build_graphs(data, metric, v_w=2, v_b=3)
        D = pairwise_dist2(metric, data.samples)
        Gw, Gb = brute_force_graphs(data, D, v_w=2, v_b=3)
        got_w, got_b = graph_split(g, data.labels)
        assert np.array_equal(got_w, Gw)
        assert np.array_equal(got_b, Gb)

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("quantized", [False, True], ids=["exact", "rounded"])
    def test_matches_brute_force_with_ties(self, metric, quantized):
        # dense-sized: 120 samples of dim 12 in 4 classes, with copies of
        # samples within and across classes, so that whole rows of
        # distances tie; rounding D makes ties everywhere
        data = synth_dataset(
            SynthConfig(dim=12, classes=4, per_class=30, noise=0.2, seed=5)
        )
        samples = data.samples.copy()
        for src, dst in [(0, 1), (0, 2), (3, 31), (40, 41), (40, 95), (100, 7)]:
            samples[dst] = samples[src]
        data = LabeledDataset(samples, data.labels)
        D = pairwise_dist2(metric, data.samples)
        assert D[5, 1] == D[5, 2] == D[5, 0] and D[50, 3] == D[50, 31]
        if quantized:
            D = np.round(D, 1)
        for v_w, v_b in [(29, 29), (1, 1), (5, 50), (29, 200), (500, 500)]:
            g = neighbor_graphs(data, D, v_w, v_b)
            Gw, Gb = brute_force_graphs(data, D, v_w, v_b)
            got_w, got_b = graph_split(g, data.labels)
            assert np.array_equal(got_w, Gw), (v_w, v_b)
            assert np.array_equal(got_b, Gb), (v_w, v_b)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_distances(self, bad):
        data = scalar_dataset([1.0, 2.0, 5.0, 6.0], [0, 0, 1, 1])
        D = pairwise_dist2(MetricKind.LEM, data.samples)
        D[0, 2] = D[2, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            neighbor_graphs(data, D, 1, 1)

    def test_supports_disjoint_and_label_consistent(self):
        data = random_dataset(7)
        g = build_graphs(data, MetricKind.STEIN, v_w=2, v_b=2)
        Gw, Gb = graph_split(g, data.labels)
        assert not np.any(Gw & Gb)
        for i, j in np.argwhere(Gw):
            assert data.labels[i] == data.labels[j]
        for i, j in np.argwhere(Gb):
            assert data.labels[i] != data.labels[j]

    def test_edge_budget(self):
        # each edge needs at least one nomination, so nnz <= 2 N v
        data = random_dataset(3, classes=4, per_class=6)
        for v_w, v_b in [(1, 1), (2, 3), (5, 8)]:
            g = build_graphs(data, MetricKind.LEM, v_w=v_w, v_b=v_b)
            Gw, Gb = graph_split(g, data.labels)
            assert Gw.sum() <= 2 * data.size * v_w
            assert Gb.sum() <= 2 * data.size * v_b

    def test_neighbor_counts_clamped(self):
        data = scalar_dataset([1.0, 2.0, 5.0, 6.0], [0, 0, 1, 1])
        g = build_graphs(data, MetricKind.LEM, v_w=10, v_b=10)
        assert graph_union(g).sum() == 4 * 3  # complete graph, no self loops

    def test_small_class_rejected(self):
        data = scalar_dataset([1.0, 2.0, 3.0], [0, 0, 1])
        with pytest.raises(InsufficientClassSizeError):
            build_graphs(data, MetricKind.AIM, v_w=1, v_b=1)

    def test_rejects_bad_counts(self):
        data = scalar_dataset([1.0, 2.0, 5.0, 6.0], [0, 0, 1, 1])
        with pytest.raises(ValidationError):
            build_graphs(data, MetricKind.AIM, v_w=0, v_b=1)

    def test_pairs_listing_is_sorted_union(self):
        data = random_dataset(5)
        g = build_graphs(data, MetricKind.LEM, v_w=1, v_b=2)
        pairs = [tuple(p) for p in g.pairs]
        assert pairs == sorted(pairs)
        assert len(pairs) == graph_union(g).sum() // 2
        assert all(i < j for i, j in pairs)
        assert g.size == data.size and not g.pairs.flags.writeable


class TestPairGraphsValidation:
    # the pair list is the graphs' only store: each broken mask invariant
    # has a pair-list form that must be rejected

    def test_rejects_overlapping_supports(self):
        # an edge in both masks is a pair listed twice
        with pytest.raises(ValidationError, match="duplicates"):
            PairGraphs(np.array([[0, 1], [0, 1]]), 2)

    def test_rejects_diagonal_entries(self):
        with pytest.raises(ValidationError, match="i < j"):
            PairGraphs(np.array([[1, 1]]), 2)

    def test_rejects_asymmetry(self):
        # an unordered pair has one orientation, i < j
        with pytest.raises(ValidationError, match="i < j"):
            PairGraphs(np.array([[1, 0]]), 2)

    @pytest.mark.parametrize("dist2", [np.zeros(2), np.zeros((1, 1))])
    def test_rejects_distances_of_another_pair_count(self, dist2):
        with pytest.raises(ValidationError, match="for 1 pairs"):
            PairGraphs(np.array([[0, 1]]), 2, dist2=dist2)

    @pytest.mark.parametrize(
        "pairs, size, match",
        [
            ([[0, 2], [0, 1]], 3, "sorted"),
            ([[1, 2], [0, 1]], 3, "sorted"),
            ([[0, 3]], 3, "i < j < 3"),
            ([[-1, 1]], 3, "0 <= i"),
            (np.array([[1, 2], [0, 1]], dtype=np.uint8), 3, "sorted"),
            ([[0.0, 1.0]], 2, "integer"),
            ([[True, True]], 2, "integer"),
            ([0, 1], 2, r"\(E, 2\)"),
            ([[0, 1, 2]], 3, r"\(E, 2\)"),
        ],
        ids=["unsorted-j", "unsorted-i", "out-of-range", "negative",
             "unsigned-unsorted", "float", "bool", "flat", "triple"],
    )
    def test_rejects_malformed_pairs(self, pairs, size, match):
        with pytest.raises(ValidationError, match=match):
            PairGraphs(pairs, size)

    def test_accepts_sorted_pairs_and_empty_list(self):
        g = PairGraphs(np.array([[0, 1], [0, 2], [1, 2]]), 3)
        assert g.pairs.tolist() == [[0, 1], [0, 2], [1, 2]] and g.size == 3
        assert len(PairGraphs(np.empty((0, 2), dtype=int), 3).pairs) == 0

    def test_pairs_are_a_frozen_copy(self):
        pairs = np.array([[0, 1]])
        g = PairGraphs(pairs, 2)
        pairs[0, 1] = 0
        assert g.pairs.tolist() == [[0, 1]]
        with pytest.raises(ValueError):
            g.pairs[0, 0] = 1


def screen_sets():
    """(name, dataset) pairs on which the AIM screen must reproduce the
    exhaustive graphs: the benchmark's ref, dense and wide shapes, exact
    ties from a copied class, duplicate samples, and common scalings."""
    shapes = {"ref": (20, 5, 10), "dense": (12, 4, 30), "wide": (12, 5, 30)}
    for name, (dim, classes, per_class) in shapes.items():
        for seed in range(4):
            yield f"{name}-{seed}", synth_dataset(SynthConfig(
                dim=dim, classes=classes, per_class=per_class, noise=0.2,
                seed=100 * seed + dim))
    base = synth_dataset(SynthConfig(dim=12, classes=4, per_class=12, noise=0.3, seed=9))
    copied = base.samples.copy()
    copied[base.labels == 1] = copied[base.labels == 0]
    yield "copied-class", LabeledDataset(copied, base.labels)
    duplicated = base.samples.copy()
    for src, dst in [(0, 1), (0, 2), (3, 20), (30, 31), (40, 5)]:
        duplicated[dst] = duplicated[src]
    yield "duplicates", LabeledDataset(duplicated, base.labels)
    for scale in (1e-150, 1e150):
        yield f"scaled-{scale:g}", LabeledDataset(scale * base.samples, base.labels)
    yield "coincident-classes", synth_dataset(
        SynthConfig(dim=12, classes=4, per_class=8, noise=0.0, seed=6))


class TestScreenedBuild:
    """`build_graphs` under AIM computes only the pairs its lower bound
    cannot rule out, and must give the exhaustive graphs pair for pair."""

    def test_matches_exhaustive_over_many_seeds(self):
        mismatches, computed, total = [], 0, 0
        for name, data in screen_sets():
            D = pairwise_dist2(MetricKind.AIM, data)
            auto = int(data.class_sizes().min()) - 1
            for v_w, v_b in [(1, 1), (2, 3), (3, 3), (auto, 1), (auto, auto),
                             (auto + 5, 2 * auto)]:
                got = build_graphs(data, MetricKind.AIM, v_w, v_b)
                want = neighbor_graphs(data, D, v_w, v_b)
                if not (np.array_equal(got.pairs, want.pairs)
                        and np.array_equal(got.dist2, want.dist2)):
                    mismatches.append((name, v_w, v_b))
                computed += got.distances_computed
                total += data.size * (data.size - 1) // 2
        assert mismatches == []
        assert computed < total

    def test_exact_pairs_counted(self, monkeypatch):
        # a wide-like set: AIM computes fewer than N(N-1)/2 exact pairs, and
        # each at most once; Stein and LEM compute every pair once
        data = synth_dataset(SynthConfig(dim=12, classes=5, per_class=30,
                                         noise=0.2, seed=1))
        N = data.size
        for metric in MetricKind:
            geom = geometry(metric)
            original = geom.dist2_pairs
            seen = []

            def recorded(side, i, j, keep=False, _original=original):
                seen.append(np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1))
                return _original(side, i, j, keep)

            monkeypatch.setattr(geom, "dist2_pairs", recorded)
            graphs = build_graphs(data, metric, v_w=3, v_b=3)
            monkeypatch.undo()
            pairs = np.concatenate(seen)
            assert len(np.unique(pairs, axis=0)) == len(pairs)
            assert graphs.distances_computed == len(pairs)
            if metric is MetricKind.AIM:
                assert 2 * len(pairs) < N * (N - 1) // 2
            else:
                assert len(pairs) == N * (N - 1) // 2

    @staticmethod
    def certifiable_minimum(data, v):
        """The fewest pairs a screen by this floor can compute and still
        certify the graphs: the support pairs, and every pair whose floor is
        not above sqrt(cap), cap the larger of its two ends' true v-th least
        distances of the pair's kind, from the exhaustive distances."""
        D = pairwise_dist2(MetricKind.AIM, data)
        N, rows = data.size, np.arange(data.size)
        same = data.labels[:, None] == data.labels
        caps = []
        for candidates in (same & ~np.eye(N, dtype=bool), ~same):
            least = np.sort(np.where(candidates, D, np.inf), axis=1)
            caps.append(least[rows, np.minimum(v, candidates.sum(axis=1)) - 1])
        cap = np.where(same, np.maximum.outer(caps[0], caps[0]),
                       np.maximum.outer(caps[1], caps[1]))
        needed = PairScreen(MetricKind.AIM, data.samples).floor <= np.sqrt(cap)
        needed[tuple(neighbor_graphs(data, D, v, v).pairs.T)] = True
        return int(needed[np.triu_indices(N, k=1)].sum())

    # the train halves of the benchmark's workloads: (dim, classes,
    # per_class) of the whole set and the neighbor count v_w = v_b, the CLI's
    # automatic one (29) on dense
    @pytest.mark.parametrize("seed", [101, 102])
    @pytest.mark.parametrize("dim, classes, per_class, v", [
        (20, 5, 20, 3), (12, 4, 60, 29), (12, 5, 60, 3)],
        ids=["ref", "dense", "wide"])
    def test_computes_near_the_certifiable_minimum(self, dim, classes,
                                                   per_class, v, seed):
        data = synth_dataset(SynthConfig(dim=dim, classes=classes,
                                         per_class=per_class, noise=0.2,
                                         seed=seed))
        train = split(data, 0.5, seed)[0]
        computed = build_graphs(train, MetricKind.AIM, v, v).distances_computed
        minimum = self.certifiable_minimum(train, v)
        # each cap the screen uses is at least the true one, so it computes
        # the whole minimal set; the nominations add at most 2% to it
        assert minimum <= computed <= 1.02 * minimum, (computed, minimum)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_floor_forces_exact_pairs(self, monkeypatch, bad):
        # a pair whose floor is NaN or +inf must not read as ruled out: it is
        # computed, and the graphs are still the exhaustive ones
        data = synth_dataset(SynthConfig(dim=12, classes=4, per_class=20,
                                         noise=0.2, seed=3))
        geom = geometry(MetricKind.AIM)
        original = geom.lower_bound

        def broken(stack):
            bound, tau = original(stack)
            i, j = np.triu_indices(len(stack), k=1)
            bound[i[::3], j[::3]] = bound[j[::3], i[::3]] = bad
            return bound, tau

        monkeypatch.setattr(geom, "lower_bound", broken)
        got = build_graphs(data, MetricKind.AIM, 3, 3)
        pairs = data.size * (data.size - 1) // 2
        # every third pair's floor is not finite, so each of them is computed
        assert got.distances_computed >= (pairs + 2) // 3
        monkeypatch.undo()
        want = neighbor_graphs(data, pairwise_dist2(MetricKind.AIM, data), 3, 3)
        assert np.array_equal(got.pairs, want.pairs)
        assert np.array_equal(got.dist2, want.dist2)

    def test_single_class(self):
        # no between-class candidate anywhere: the within-class screen alone
        data = synth_dataset(SynthConfig(dim=6, classes=2, per_class=6,
                                         noise=0.3, seed=2))
        data = LabeledDataset(data.samples, np.zeros(data.size, dtype=int))
        got = build_graphs(data, MetricKind.AIM, 2, 2)
        want = neighbor_graphs(data, pairwise_dist2(MetricKind.AIM, data), 2, 2)
        assert np.array_equal(got.pairs, want.pairs)

    def test_graphs_carry_their_pairs_distances(self):
        data = random_dataset(4)
        for metric in MetricKind:
            D = pairwise_dist2(metric, data)
            g = build_graphs(data, metric, v_w=2, v_b=2)
            assert np.array_equal(g.dist2, D[g.pairs[:, 0], g.pairs[:, 1]])
            assert not g.dist2.flags.writeable
            assert neighbor_graphs(data, D, 2, 2).distances_computed == 0


class TestCenteringAndLabels:
    def test_centering_small_cases(self):
        assert np.allclose(centering_matrix(1), [[0.0]])
        assert np.allclose(centering_matrix(2), [[0.5, -0.5], [-0.5, 0.5]])

    def test_centering_properties(self):
        U = centering_matrix(7)
        assert np.allclose(U @ U, U, atol=1e-12)
        assert np.allclose(U @ np.ones(7), 0.0, atol=1e-12)

    def test_two_sample_two_class(self):
        data = scalar_dataset([1.0, 2.0], [0, 1])
        assert np.allclose(label_similarity(data), [[0.5, -0.5], [-0.5, 0.5]])

    def test_single_class_centers_to_zero(self):
        data = scalar_dataset([1.0, 2.0, 3.0], [0, 0, 0])
        assert np.allclose(label_similarity(data), 0.0, atol=1e-14)

    def test_matches_direct_formula(self):
        data = scalar_dataset([1.0, 2.0, 3.0, 4.0, 5.0], [0, 1, 2, 1, 0])
        Y = np.zeros((5, 3))
        Y[np.arange(5), data.labels] = 1.0
        U = centering_matrix(5)
        assert np.allclose(label_similarity(data), U @ Y @ Y.T @ U, atol=1e-14)

    def test_balanced_two_class_values(self):
        data = scalar_dataset([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
        S = label_similarity(data)
        assert np.allclose(S[0, 1], 0.5) and np.allclose(S[0, 2], -0.5)
