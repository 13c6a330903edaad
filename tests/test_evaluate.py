"""Nearest-neighbor evaluation and stratified split tests."""

import numpy as np
import pytest

from spdalign import evaluate, matfun, metrics
from spdalign.dataset import LabeledDataset
from spdalign.descriptors import SynthConfig, synth_dataset
from spdalign.errors import NotPositiveDefiniteError, ValidationError
from spdalign.evaluate import EvalSummary, knn_classify, repeated_split_eval, split
from spdalign.metrics import (
    MetricKind, cross_dist2, geometry, map_down, unordered_pairs,
)

from helpers import clustered_dataset, count_calls, rand_full_rank, ref_shaped_dataset


def scalar_dataset(values, labels):
    samples = np.asarray(values, dtype=float).reshape(-1, 1, 1)
    return LabeledDataset(samples, np.asarray(labels))


def copied_classes():
    """The reference shape with class 1 an exact copy of class 0, so exact
    distance ties decide votes."""
    data = ref_shaped_dataset(seed=22)
    samples = data.samples.copy()
    samples[data.labels == 1] = samples[data.labels == 0]
    return LabeledDataset(samples, data.labels)


def coincident_classes():
    """Every sample of a class equals its prototype."""
    return synth_dataset(SynthConfig(dim=12, classes=4, per_class=8, noise=0.0, seed=6))


def near_duplicates():
    """coincident_classes with every entry perturbed by about 1e-9 relative."""
    data = coincident_classes()
    S = np.random.default_rng(8).standard_normal(data.samples.shape)
    return LabeledDataset(
        data.samples * (1.0 + 1e-9 * (S + S.swapaxes(1, 2))), data.labels
    )


def ill_conditioned():
    """Congruence D X D with D = diag(geomspace(1, 1e-4, 12)): eigenvalue
    spreads near 1e9, where the lower bound's margin rules out nothing."""
    data = synth_dataset(SynthConfig(dim=12, classes=4, per_class=8, noise=0.2, seed=6))
    D = np.diag(np.geomspace(1.0, 1e-4, 12))
    return LabeledDataset(D @ data.samples @ D, data.labels)


SCREEN_SETS = {
    "copied_classes": copied_classes,
    "coincident_classes": coincident_classes,
    "near_duplicates": near_duplicates,
    "ill_conditioned": ill_conditioned,
}


def record_pairs(monkeypatch, metric):
    """Record every pair the metric's kernel computes, as {sample dim:
    [(i, j) index arrays of one call, ...]}; one list per manifold."""
    geom = geometry(metric)
    original = geom.dist2_pairs
    calls = {}

    def recording(side, i, j, keep=False):
        calls.setdefault(side[0].shape[-1], []).append((i, j))
        return original(side, i, j, keep)

    monkeypatch.setattr(geom, "dist2_pairs", recording)
    return calls


def pair_list(calls):
    """The (i, j) pairs of a manifold's calls, in call order."""
    return [pair for i, j in calls for pair in zip(i.tolist(), j.tolist())]


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

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("with_w", [False, True])
    def test_checks_only_the_transform(self, metric, with_w, monkeypatch):
        # both datasets checked their stacks when they were built, and the
        # mapped stacks are computed: only W is checked, once for both
        train, test = split(clustered_dataset(seed=2, n=4, classes=2, per_class=5),
                            0.5, seed=1)
        W = rand_full_rank(np.random.default_rng(0), 4, 2) if with_w else None
        checks = count_calls(monkeypatch, matfun,
                             ["check_symmetric", "check_pd"])
        transforms = count_calls(monkeypatch, evaluate, ["check_transform"])
        knn_classify(train, test, metric, W=W)
        assert checks == {"check_symmetric": 0, "check_pd": 0}
        assert transforms == {"check_transform": int(with_w)}

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
    def test_checks_the_held_stack_once(self, metric, with_w, monkeypatch):
        # the dataset checked its stack when it was built, so neither
        # manifold's stack is checked again: only W is, once
        data = clustered_dataset(seed=2, n=4, classes=2, per_class=5)
        W = rand_full_rank(np.random.default_rng(0), 4, 2) if with_w else None
        checks = count_calls(monkeypatch, matfun,
                             ["check_symmetric", "check_pd"])
        transforms = count_calls(monkeypatch, evaluate, ["check_transform"])
        repeated_split_eval(data, metric, repeats=3, seed=1, W=W)
        assert checks == {"check_symmetric": 0, "check_pd": 0}
        assert transforms == {"check_transform": int(with_w)}

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_ill_conditioned_transform_equals_per_split_knn(self, metric):
        # W's singular values spread by 1e7, within the rank rule: the mapped
        # samples sit under the PD floor for raw arrays, but the affine-
        # invariant and Stein distances are those of W A for any invertible
        # A, so both routes take the mapped stacks as given and agree; the
        # log-Euclidean distance reads the mapped spectrum, and both raise
        data = synth_dataset(SynthConfig(dim=6, classes=3, per_class=8,
                                         noise=0.3, seed=1))
        Q = matfun.qr_orthonormal(np.random.default_rng(0).standard_normal((6, 3)))
        W = Q * [1.0, 1.0, 1e-7]
        if metric is MetricKind.LEM:
            with pytest.raises(NotPositiveDefiniteError):
                repeated_split_eval(data, metric, repeats=10, seed=0, W=W)
            with pytest.raises(NotPositiveDefiniteError):
                knn_classify(*split(data, 0.5, 0), metric, W=W)
            return
        summary = repeated_split_eval(data, metric, repeats=10, seed=0, W=W)
        expected = [knn_classify(*split(data, 0.5, r), metric, W=W).accuracy
                    for r in range(10)]
        assert np.array_equal(summary.transformed, expected)
        assert len(set(expected)) > 1

    @staticmethod
    def check_equals_per_split_knn(data, metric, fraction, W):
        # the shared pass over the splits' pair union must give exactly the
        # accuracies of classifying each split on its own
        summary = repeated_split_eval(
            data, metric, train_fraction=fraction, repeats=10, seed=5, W=W
        )
        expected = [
            knn_classify(*split(data, fraction, 5 + r), metric).accuracy
            for r in range(10)
        ]
        assert np.array_equal(summary.baseline, expected)
        assert len(set(expected)) > 1  # the splits disagree, so a lost pair shows
        if W is not None:
            expected = [
                knn_classify(*split(data, fraction, 5 + r), metric, W=W).accuracy
                for r in range(10)
            ]
            assert np.array_equal(summary.transformed, expected)
            assert len(set(expected)) > 1
        else:
            assert summary.transformed is None

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("with_w", [False, True])
    @pytest.mark.parametrize("fraction", [0.5, 0.3])
    def test_equals_per_split_knn(self, metric, with_w, fraction):
        data = clustered_dataset(seed=11, n=4, classes=3, per_class=7, spread=0.6)
        W = rand_full_rank(np.random.default_rng(3), 4, 2) if with_w else None
        self.check_equals_per_split_knn(data, metric, fraction, W)

    @pytest.mark.parametrize("with_w", [False, True])
    def test_equals_per_split_knn_at_dim_20(self, with_w):
        # at dim 20 the AIM whitening order moves the last bits of most
        # distances. Class 1 copies class 0, so exact distance ties decide
        # votes, and any pair whose order the shared pass changes shows.
        data = copied_classes()
        W = rand_full_rank(np.random.default_rng(4), 20, 5) if with_w else None
        self.check_equals_per_split_knn(data, MetricKind.AIM, 0.5, W)

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("with_w", [False, True])
    def test_computes_each_unordered_pair_once(self, metric, with_w, monkeypatch):
        data = clustered_dataset(seed=11, n=4, classes=3, per_class=7, spread=0.6)
        W = rand_full_rank(np.random.default_rng(3), 4, 2) if with_w else None
        calls = record_pairs(monkeypatch, metric)
        summary = repeated_split_eval(
            data, metric, train_fraction=0.5, repeats=10, seed=5, W=W
        )
        union = set()
        train, test = evaluate._draw_splits(data, 0.5, 5, 10)
        for train_idx, test_idx in zip(train, test):
            union |= {(min(a, b), max(a, b)) for a in test_idx for b in train_idx}
        assert sorted(calls) == ([2, 4] if with_w else [4])  # one stack per manifold
        assert summary.union_pairs == len(union)
        for n, manifold in calls.items():
            pairs = pair_list(manifold)
            assert all(a < b for a, b in pairs)
            assert len(set(pairs)) == len(pairs)
            if metric is MetricKind.AIM:
                # the lower bound screens pairs out: a subset, each pair once
                assert set(pairs) <= union
            else:
                assert len(manifold) == 1  # one pass per manifold
                assert set(pairs) == union
        assert summary.distances_computed == tuple(
            len(pair_list(calls[n])) for n in ([4, 2] if with_w else [4])
        )

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("with_w", [False, True])
    def test_computes_no_pair_outside_the_split_cells(self, metric, with_w, monkeypatch):
        # two splits need their (test, train) cells only: no test-test or
        # train-train pair of either. The AIM bound is made 0 everywhere, so
        # no floor rules a pair out and only the cells limit what is computed
        data = ref_shaped_dataset(seed=0)
        W = rand_full_rank(np.random.default_rng(0), 20, 5) if with_w else None
        aim = geometry(MetricKind.AIM)
        original = aim.lower_bound

        def zero_bound(stack):
            bound, tau = original(stack)
            return np.zeros_like(bound), tau

        monkeypatch.setattr(aim, "lower_bound", zero_bound)
        calls = record_pairs(monkeypatch, metric)
        summary = repeated_split_eval(data, metric, repeats=2, seed=5, W=W)
        train, test = evaluate._draw_splits(data, 0.5, 5, 2)
        cells = {(min(a, b), max(a, b))
                 for train_idx, test_idx in zip(train, test)
                 for a in test_idx for b in train_idx}
        assert len(cells) == summary.union_pairs < data.size * (data.size - 1) // 2
        dims = [20, 5] if with_w else [20]
        assert sorted(calls) == sorted(dims)
        for n, count in zip(dims, summary.distances_computed, strict=True):
            pairs = pair_list(calls[n])
            assert len(pairs) == count == len(cells)
            assert set(pairs) == cells

    def test_screen_skips_most_aim_pairs_on_wide_shaped_data(self, monkeypatch):
        # the shape of the benchmark's `wide` held-out set: N=150, dim 12 -> 4
        data = synth_dataset(
            SynthConfig(dim=12, classes=5, per_class=30, noise=0.2, seed=0)
        )
        W = rand_full_rank(np.random.default_rng(0), 12, 4)
        for metric in MetricKind:
            calls = record_pairs(monkeypatch, metric)
            summary = repeated_split_eval(data, metric, repeats=1, seed=0, W=W)
            union = summary.union_pairs
            assert union == 75 * 75
            for n in (12, 4):
                pairs = pair_list(calls[n])
                assert len(set(pairs)) == len(pairs)  # each pair at most once
            full, mapped = summary.distances_computed
            assert (full, mapped) == (len(pair_list(calls[12])),
                                      len(pair_list(calls[4])))
            if metric is MetricKind.AIM:
                assert full < 0.4 * union and mapped < 0.1 * union
            else:
                assert full == mapped == union

    def test_screen_skips_most_aim_pairs_on_ref_shaped_data(self, monkeypatch):
        # the shape of the benchmark's `ref` held-out set: N=50, dim 20 -> 5,
        # 10 splits, where the unwhitened bound left about 92% to compute
        data = ref_shaped_dataset(seed=0)
        W = rand_full_rank(np.random.default_rng(0), 20, 5)
        calls = record_pairs(monkeypatch, MetricKind.AIM)
        summary = repeated_split_eval(data, MetricKind.AIM, repeats=10, seed=0, W=W)
        for n in (20, 5):
            pairs = pair_list(calls[n])
            assert len(set(pairs)) == len(pairs)  # each pair at most once
        full, mapped = summary.distances_computed
        assert (full, mapped) == (len(pair_list(calls[20])),
                                  len(pair_list(calls[5])))
        assert full < 0.4 * summary.union_pairs


class TestAimScreen:
    def test_matches_exhaustive_over_many_seeds(self):
        # 40 seeded sets of dim 12 -> 4, 4 classes of 20 samples at noise
        # 0.3, 3 splits each: every split's accuracy on either manifold is
        # knn_classify's on that split alone, and the screen rules pairs out
        aim, splits = MetricKind.AIM, 3
        mismatches, computed, union = [], np.zeros(2, dtype=int), 0
        for seed in range(40):
            data = synth_dataset(SynthConfig(dim=12, classes=4, per_class=20,
                                             noise=0.3, seed=seed))
            W = rand_full_rank(np.random.default_rng(seed), 12, 4)
            summary = repeated_split_eval(data, aim, repeats=splits, seed=seed, W=W)
            for r in range(splits):
                parts = split(data, 0.5, seed + r)
                for kind, accuracies, transform in (
                    ("baseline", summary.baseline, None),
                    ("transformed", summary.transformed, W),
                ):
                    if accuracies[r] != knn_classify(*parts, aim, W=transform).accuracy:
                        mismatches.append((seed, r, kind))
            computed += summary.distances_computed
            union += summary.union_pairs
        assert mismatches == []
        assert np.all(computed < union)

    @pytest.mark.parametrize("with_w", [False, True])
    def test_one_sample_eigendecomposition_per_stack(self, with_w, monkeypatch):
        # the screen's whitened frame is the only per-sample eigh of an AIM
        # evaluation: one n x n eigh of the mean and one stacked eigh of the
        # whitened samples per manifold; the pair passes take eigvalsh
        data = ref_shaped_dataset(seed=0)
        W = rand_full_rank(np.random.default_rng(0), 20, 5) if with_w else None
        seen = []
        original = np.linalg.eigh

        def recorded(a, *args, **kwargs):
            seen.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        repeated_split_eval(data, MetricKind.AIM, repeats=10, seed=0, W=W)
        dims = [data.dim] + ([W.shape[1]] if with_w else [])
        assert seen == [shape for n in dims for shape in ((n, n), (data.size, n, n))]

    @pytest.mark.parametrize("name", list(SCREEN_SETS))
    @pytest.mark.parametrize("with_w", [False, True])
    def test_matches_exhaustive(self, name, with_w):
        data = SCREEN_SETS[name]()
        aim = MetricKind.AIM
        W = rand_full_rank(np.random.default_rng(4), data.dim, data.dim // 4)
        W = W if with_w else None
        summary = repeated_split_eval(data, aim, repeats=10, seed=5, W=W)
        train, test = evaluate._draw_splits(data, 0.5, 5, 10)
        splits = list(zip(train, test))
        needed = np.zeros((data.size, data.size), dtype=bool)
        for train_idx, test_idx in splits:
            needed[np.ix_(test_idx, train_idx)] = True
        manifolds = [(data.samples, summary.baseline, None)]
        if with_w:
            manifolds.append((map_down(data.samples, W), summary.transformed, W))
        for stack, accuracies, transform in manifolds:
            expected = [
                knn_classify(*split(data, 0.5, 5 + r), aim, W=transform).accuracy
                for r in range(10)
            ]
            assert np.array_equal(accuracies, expected)
            D, _ = evaluate._split_dist2(aim, stack, train, test, needed)
            for train_idx, test_idx in splits:
                exact = cross_dist2(aim, stack[test_idx], stack[train_idx])
                block = D[np.ix_(test_idx, train_idx)]
                assert np.array_equal(
                    np.argmin(block, axis=1), np.argmin(exact, axis=1)
                )
                kept = np.isfinite(block)
                assert np.array_equal(block[kept], exact[kept])
        if name == "ill_conditioned":
            # the margin exceeds every bound: nothing is screened out
            assert summary.distances_computed[0] == summary.union_pairs

    def test_non_finite_floor_forces_exact_pairs(self, monkeypatch):
        # a NaN or +inf floor must not read as "above the cap": the pair is
        # computed, and the result is still the exhaustive one
        data = ref_shaped_dataset(seed=0)
        aim = MetricKind.AIM
        geom = geometry(aim)
        original = geom.lower_bound
        train, test = evaluate._draw_splits(data, 0.5, 5, 10)
        splits = list(zip(train, test))
        needed = np.zeros((data.size, data.size), dtype=bool)
        for train_idx, test_idx in splits:
            needed[np.ix_(test_idx, train_idx)] = True
        union = unordered_pairs(needed)

        def broken(stack):
            bound, tau = original(stack)
            for start, bad in ((0, np.nan), (1, np.inf)):
                i, j = union[0][start::3], union[1][start::3]
                bound[i, j] = bound[j, i] = bad
            return bound, tau

        monkeypatch.setattr(geom, "lower_bound", broken)
        D, computed = evaluate._split_dist2(aim, data.samples, train, test, needed)
        forced = np.arange(len(union[0])) % 3 < 2
        assert np.isfinite(D[union[0][forced], union[1][forced]]).all()
        assert computed >= forced.sum()
        summary = repeated_split_eval(data, aim, repeats=10, seed=5)
        for r, (train_idx, test_idx) in enumerate(splits):
            exact = cross_dist2(aim, data.samples[test_idx], data.samples[train_idx])
            block = D[np.ix_(test_idx, train_idx)]
            kept = np.isfinite(block)
            assert np.array_equal(block[kept], exact[kept])
            assert np.array_equal(np.argmin(block, axis=1), np.argmin(exact, axis=1))
            expected = knn_classify(*split(data, 0.5, 5 + r), aim).accuracy
            assert summary.baseline[r] == expected


class TestStackedSplits:
    """`repeated_split_eval` draws, screens and scores its splits stacked,
    in groups of splits; the groups must not change any number."""

    @staticmethod
    def data_and_transform(metric, with_w):
        if metric is MetricKind.AIM:
            # most pairs screened out, and many shared by splits
            data = synth_dataset(
                SynthConfig(dim=12, classes=4, per_class=10, noise=0.2, seed=6)
            )
        else:
            data = clustered_dataset(seed=11, n=4, classes=3, per_class=7, spread=0.6)
        W = rand_full_rank(np.random.default_rng(3), data.dim, max(1, data.dim // 4))
        return data, W if with_w else None

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("with_w", [False, True])
    def test_hundred_splits_equal_per_split_knn(self, metric, with_w):
        data, W = self.data_and_transform(metric, with_w)
        summary = repeated_split_eval(data, metric, repeats=100, seed=7, W=W)
        manifolds = [(summary.baseline, None)]
        if with_w:
            manifolds.append((summary.transformed, W))
        for accuracies, transform in manifolds:
            expected = [
                knn_classify(*split(data, 0.5, 7 + r), metric, W=transform).accuracy
                for r in range(100)
            ]
            assert np.array_equal(accuracies, expected)
            assert len(set(expected)) > 1

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("with_w", [False, True])
    @pytest.mark.parametrize("per_group", [1, 3])
    def test_group_size_changes_nothing(self, metric, with_w, per_group, monkeypatch):
        data, W = self.data_and_transform(metric, with_w)
        stacked = repeated_split_eval(data, metric, repeats=100, seed=7, W=W)
        # the default cap puts 40 splits of 20 x 20 blocks (AIM's set) or
        # all 100 of 9 x 12 in a group; patched, a group holds per_group
        # splits, and the last of 100 / 3 holds one (the pair passes take
        # smaller blocks too, which changes no value: each pair is reduced
        # on its own)
        train, test = evaluate._draw_splits(data, 0.5, 7)
        monkeypatch.setattr(metrics, "BLOCK_ENTRIES", per_group * train.size * test.size)
        grouped = repeated_split_eval(data, metric, repeats=100, seed=7, W=W)
        assert np.array_equal(grouped.baseline, stacked.baseline)
        if with_w:
            assert np.array_equal(grouped.transformed, stacked.transformed)
        else:
            assert grouped.transformed is None
        assert grouped.distances_computed == stacked.distances_computed
        assert grouped.union_pairs == stacked.union_pairs

    @staticmethod
    def one_split_at_a_time(data, fraction, seed):
        """The per-split loop the stacked draw replaced: one generator per
        split, one permutation per class in class order."""
        rng = np.random.default_rng(seed)
        train, test = [], []
        for cls in range(data.class_count):
            perm = rng.permutation(np.flatnonzero(data.labels == cls))
            take = min(max(int(round(fraction * perm.size)), 1), perm.size - 1)
            train.extend(perm[:take])
            test.extend(perm[take:])
        return np.sort(train), np.sort(test)

    @pytest.mark.parametrize("fraction", [0.5, 0.3, 0.9])
    def test_every_split_has_the_same_class_counts(self, fraction):
        data = clustered_dataset(seed=2, n=3, classes=4, per_class=5)
        data = LabeledDataset(data.samples[3:], data.labels[3:])  # sizes 2, 5, 5, 5
        train, test = evaluate._draw_splits(data, fraction, 0, 40)
        assert train.shape[0] == test.shape[0] == 40
        assert train.shape[1] + test.shape[1] == data.size
        counts = {
            (tuple(np.bincount(data.labels[t], minlength=4)),
             tuple(np.bincount(data.labels[s], minlength=4)))
            for t, s in zip(train, test)
        }
        assert len(counts) == 1
        for r, (t, s) in enumerate(zip(train, test)):
            assert np.array_equal(np.sort(np.concatenate([t, s])), np.arange(data.size))
            one_train, one_test = self.one_split_at_a_time(data, fraction, r)
            assert np.array_equal(t, one_train) and np.array_equal(s, one_test)
            assert all(np.array_equal(a[0], b) for a, b in zip(
                evaluate._draw_splits(data, fraction, r), (t, s)))
