"""Nearest-neighbor evaluation and stratified split tests."""

import numpy as np
import pytest

from spdalign.errors import ValidationError
from spdalign.evaluate import EvalSummary, knn_classify, repeated_split_eval, split
from spdalign.graphs import LabeledDataset
from spdalign.metrics import MetricKind

from helpers import clustered_dataset, rand_full_rank


def scalar_dataset(values, labels):
    samples = np.asarray(values, dtype=float).reshape(-1, 1, 1)
    return LabeledDataset(samples, np.asarray(labels))


class TestKnnClassify:
    def test_perfect_when_test_equals_train(self):
        data = scalar_dataset([1.0, 2.0, 5.0, 9.0], [0, 0, 1, 1])
        report = knn_classify(data, data, MetricKind.LEM)
        assert report.accuracy == 1.0
        assert np.array_equal(report.confusion, np.diag([2, 2]))
        assert np.allclose(report.per_class_accuracy, [1.0, 1.0])

    def test_known_misclassification(self):
        # 3.5 sits closer (log scale) to the class-1 prototype 4.0 than to 1.0
        train = scalar_dataset([1.0, 4.0], [0, 1])
        test = scalar_dataset([3.5, 1.1], [0, 0])
        report = knn_classify(train, test, MetricKind.LEM)
        assert np.array_equal(report.confusion, [[1, 1], [0, 0]])
        assert report.accuracy == 0.5
        assert np.allclose(report.per_class_accuracy, [0.5, 0.0])

    def test_distance_tie_prefers_lower_train_index(self):
        train = scalar_dataset([2.0, 2.0], [1, 0])
        test = scalar_dataset([2.0, 2.0], [0, 1])
        report = knn_classify(train, test, MetricKind.LEM)
        # both test points tie across the train set; index 0 (class 1) wins
        assert np.array_equal(report.confusion, [[0, 1], [0, 1]])

    def test_vote_tie_prefers_lower_class(self):
        train = scalar_dataset([1.0, 1.0], [1, 0])
        test = scalar_dataset([1.0, 2.0], [0, 0])
        report = knn_classify(train, test, MetricKind.LEM, k=2)
        assert report.confusion[0, 0] == 2

    def test_report_bookkeeping(self):
        train = scalar_dataset([1.0, 4.0, 9.0], [0, 1, 1])
        test = scalar_dataset([2.0, 3.0], [0, 1])
        report = knn_classify(train, test, "stein")
        assert report.metric is MetricKind.STEIN
        assert report.distances_computed == 6
        assert not report.used_transform
        assert report.confusion.sum(axis=1).tolist() == [1, 1]
        assert report.accuracy == np.trace(report.confusion) / 2

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_transform_quotient_invariance(self, metric):
        data = clustered_dataset(seed=5, n=5, classes=2, per_class=6)
        train, test = split(data, 0.5, seed=1)
        rng = np.random.default_rng(7)
        W = rand_full_rank(rng, 5, 2)
        O, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        with_w = knn_classify(train, test, metric, W=W)
        with_wo = knn_classify(train, test, metric, W=W @ O)
        assert with_w.used_transform and with_wo.used_transform
        assert np.array_equal(with_w.confusion, with_wo.confusion)

    def test_transform_changes_geometry(self):
        # projecting onto the first coordinate discards the second one
        train = LabeledDataset(
            np.array([np.diag([1.0, 9.0]), np.diag([1.0, 1.0])]),
            np.array([0, 1]),
        )
        test = LabeledDataset(
            np.array([np.diag([1.0, 8.5]), np.diag([1.0, 1.1])]),
            np.array([0, 1]),
        )
        full = knn_classify(train, test, MetricKind.LEM)
        assert full.accuracy == 1.0
        W = np.array([[1.0], [0.0]])
        collapsed = knn_classify(train, test, MetricKind.LEM, W=W)
        # all mapped samples coincide, so the lower train index labels both
        assert np.array_equal(collapsed.confusion, [[1, 0], [1, 0]])

    def test_rejects_bad_k(self):
        data = scalar_dataset([1.0, 2.0], [0, 1])
        with pytest.raises(ValidationError):
            knn_classify(data, data, MetricKind.LEM, k=0)
        with pytest.raises(ValidationError):
            knn_classify(data, data, MetricKind.LEM, k=3)

    def test_rejects_dim_mismatch(self):
        train = scalar_dataset([1.0, 2.0], [0, 1])
        test = LabeledDataset(
            np.array([np.eye(2), 2.0 * np.eye(2)]), np.array([0, 1])
        )
        with pytest.raises(ValidationError):
            knn_classify(train, test, MetricKind.LEM)


class TestSplit:
    def make_data(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        return scalar_dataset(values, [0] * 5 + [1] * 5)

    def test_partition_without_overlap(self):
        data = self.make_data()
        train, test = split(data, 0.6, seed=3)
        assert train.size == 6 and test.size == 4
        train_vals = train.samples.reshape(-1).tolist()
        test_vals = test.samples.reshape(-1).tolist()
        assert sorted(train_vals + test_vals) == data.samples.reshape(-1).tolist()
        assert not set(train_vals) & set(test_vals)

    def test_stratification_counts(self):
        data = self.make_data()
        train, test = split(data, 0.6, seed=0)
        assert train.class_sizes().tolist() == [3, 3]
        assert test.class_sizes().tolist() == [2, 2]

    def test_extreme_fractions_keep_both_sides_nonempty(self):
        data = self.make_data()
        low_train, _ = split(data, 0.01, seed=0)
        assert low_train.class_sizes().tolist() == [1, 1]
        high_train, high_test = split(data, 0.99, seed=0)
        assert high_train.class_sizes().tolist() == [4, 4]
        assert high_test.class_sizes().tolist() == [1, 1]

    def test_deterministic_per_seed(self):
        data = self.make_data()
        a_train, a_test = split(data, 0.5, seed=9)
        b_train, b_test = split(data, 0.5, seed=9)
        assert np.array_equal(a_train.samples, b_train.samples)
        assert np.array_equal(a_test.samples, b_test.samples)

    def test_seeds_vary_the_split(self):
        data = self.make_data()
        picks = {
            tuple(split(data, 0.5, seed=s)[0].samples.reshape(-1)) for s in range(6)
        }
        assert len(picks) > 1

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_fraction(self, fraction):
        with pytest.raises(ValidationError):
            split(self.make_data(), fraction, seed=0)

    def test_rejects_singleton_class(self):
        data = scalar_dataset([1.0, 2.0, 3.0], [0, 0, 1])
        with pytest.raises(ValidationError):
            split(data, 0.5, seed=0)


class TestRepeatedSplitEval:
    def test_baseline_only(self):
        data = clustered_dataset(seed=2, n=4, classes=2, per_class=5)
        summary = repeated_split_eval(data, MetricKind.STEIN, repeats=4, seed=1)
        assert summary.baseline.shape == (4,)
        assert summary.transformed is None
        with pytest.raises(ValidationError):
            summary.transformed_mean_std

    def test_with_transform(self):
        data = clustered_dataset(seed=2, n=4, classes=2, per_class=5)
        W = rand_full_rank(np.random.default_rng(0), 4, 2)
        summary = repeated_split_eval(data, MetricKind.LEM, repeats=3, seed=1, W=W)
        assert summary.transformed.shape == (3,)
        mean, std = summary.transformed_mean_std
        assert mean == pytest.approx(np.mean(summary.transformed))
        assert std == pytest.approx(np.std(summary.transformed))

    def test_deterministic(self):
        data = clustered_dataset(seed=4, n=4, classes=2, per_class=5)
        a = repeated_split_eval(data, MetricKind.AIM, repeats=3, seed=7)
        b = repeated_split_eval(data, MetricKind.AIM, repeats=3, seed=7)
        assert np.array_equal(a.baseline, b.baseline)

    def test_mean_std_match_numpy(self):
        summary = EvalSummary(baseline=np.array([0.5, 0.7, 0.9]), transformed=None)
        mean, std = summary.baseline_mean_std
        assert mean == pytest.approx(0.7)
        assert std == pytest.approx(np.std([0.5, 0.7, 0.9]))

    def test_rejects_zero_repeats(self):
        data = clustered_dataset(seed=2, n=4, classes=2, per_class=5)
        with pytest.raises(ValidationError):
            repeated_split_eval(data, MetricKind.LEM, repeats=0)

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("with_w", [False, True])
    @pytest.mark.parametrize("fraction", [0.5, 0.3])
    def test_equals_per_split_knn(self, metric, with_w, fraction):
        # the shared pass over the splits' pair union must give exactly the
        # accuracies of classifying each split on its own
        data = clustered_dataset(seed=11, n=4, classes=3, per_class=7, spread=0.6)
        W = rand_full_rank(np.random.default_rng(3), 4, 2) if with_w else None
        summary = repeated_split_eval(
            data, metric, train_fraction=fraction, repeats=10, seed=5, W=W
        )
        expected = [
            knn_classify(*split(data, fraction, 5 + r), metric).accuracy
            for r in range(10)
        ]
        assert np.array_equal(summary.baseline, expected)
        assert len(set(expected)) > 1  # the splits disagree, so a lost pair shows
        if with_w:
            expected = [
                knn_classify(*split(data, fraction, 5 + r), metric, W=W).accuracy
                for r in range(10)
            ]
            assert np.array_equal(summary.transformed, expected)
            assert len(set(expected)) > 1
        else:
            assert summary.transformed is None
