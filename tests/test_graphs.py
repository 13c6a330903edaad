"""Neighbor-graph construction tests, checked against a brute-force oracle."""

import numpy as np
import pytest

from helpers import rand_spd
from spdalign.errors import (
    InsufficientClassSizeError,
    NotPositiveDefiniteError,
    ValidationError,
)
from spdalign.graphs import (
    LabeledDataset,
    PairGraphs,
    build_graphs,
    centering_matrix,
    label_similarity,
)
from spdalign.metrics import MetricKind, pairwise_dist2


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


def brute_force_graphs(data, metric, v_w, v_b):
    """Independent re-implementation: sort (distance, index) tuples per row."""
    D = pairwise_dist2(metric, data.samples)
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
        with pytest.raises(ValidationError):
            scalar_dataset([1.0, 2.0], [0, 2])

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


class TestBuildGraphs:
    def test_four_point_two_class_case(self):
        data = scalar_dataset([1.0, 1.2, 5.0, 6.0], [0, 0, 1, 1])
        g = build_graphs(data, MetricKind.LEM, v_w=1, v_b=1)
        expected_w = {(0, 1), (2, 3)}
        expected_b = {(0, 2), (1, 2), (1, 3)}
        assert {tuple(p) for p in np.argwhere(np.triu(g.Gw))} == expected_w
        assert {tuple(p) for p in np.argwhere(np.triu(g.Gb))} == expected_b

    def test_saturation_connects_all_same_class_pairs(self):
        data = random_dataset(0, classes=2, per_class=4)
        g = build_graphs(data, MetricKind.AIM, v_w=3, v_b=1)
        for i in range(data.size):
            for j in range(i + 1, data.size):
                if data.labels[i] == data.labels[j]:
                    assert g.Gw[i, j] == 1

    def test_tie_broken_by_lower_index(self):
        data = scalar_dataset([1.0, 2.0, 2.0, 3.0], [0, 1, 1, 0])
        g = build_graphs(data, MetricKind.LEM, v_w=1, v_b=1)
        # samples 1 and 2 coincide; sample 0 must nominate index 1, not 2
        assert g.Gb[0, 1] == 1 and g.Gb[0, 2] == 0

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, metric, seed):
        data = random_dataset(seed)
        g = build_graphs(data, metric, v_w=2, v_b=3)
        Gw, Gb = brute_force_graphs(data, metric, v_w=2, v_b=3)
        assert np.array_equal(g.Gw, Gw)
        assert np.array_equal(g.Gb, Gb)

    def test_supports_disjoint_and_label_consistent(self):
        data = random_dataset(7)
        g = build_graphs(data, MetricKind.STEIN, v_w=2, v_b=2)
        assert not np.any(g.Gw & g.Gb)
        for i, j in np.argwhere(g.Gw):
            assert data.labels[i] == data.labels[j]
        for i, j in np.argwhere(g.Gb):
            assert data.labels[i] != data.labels[j]

    def test_edge_budget(self):
        # each edge needs at least one nomination, so nnz <= 2 N v
        data = random_dataset(3, classes=4, per_class=6)
        for v_w, v_b in [(1, 1), (2, 3), (5, 8)]:
            g = build_graphs(data, MetricKind.LEM, v_w=v_w, v_b=v_b)
            assert g.Gw.sum() <= 2 * data.size * v_w
            assert g.Gb.sum() <= 2 * data.size * v_b

    def test_neighbor_counts_clamped(self):
        data = scalar_dataset([1.0, 2.0, 5.0, 6.0], [0, 0, 1, 1])
        g = build_graphs(data, MetricKind.LEM, v_w=10, v_b=10)
        assert g.union.sum() == 4 * 3  # complete graph, no self loops

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
        assert len(pairs) == g.union.sum() // 2
        assert all(i < j for i, j in pairs)


class TestPairGraphsValidation:
    def test_rejects_overlapping_supports(self):
        G = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        with pytest.raises(ValidationError):
            PairGraphs(G, G)

    def test_rejects_diagonal_entries(self):
        with pytest.raises(ValidationError):
            PairGraphs(np.eye(2, dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8))

    def test_rejects_asymmetry(self):
        Gw = np.array([[0, 1], [0, 0]], dtype=np.uint8)
        with pytest.raises(ValidationError):
            PairGraphs(Gw, np.zeros((2, 2), dtype=np.uint8))


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
