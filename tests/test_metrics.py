"""Distance, similarity, and congruence-map tests.

Frozen scalar oracles:
- Stein on 1x1 inputs (1) and (3): ln 2 - 0.5 ln 3 = 0.1438410362258904
- affine-invariant and log-Euclidean dist2(I, diag(e,e)) = 2
- exp(-2) = 0.1353352832366127
"""

import os
import re
import signal
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from helpers import (
    count_calls,
    factored,
    kernel_sim,
    rand_spd,
    rand_full_rank,
    ref_shaped_dataset,
    spd_exp,
    spd_log,
    transformed_dist2,
)
from spdalign import matfun
from spdalign.dataset import LabeledDataset
from spdalign.errors import (
    DegenerateInputError,
    DimMismatchError,
    NonSymmetricError,
    NotPositiveDefiniteError,
    NumericalError,
    RankDeficientError,
    ValidationError,
)
from spdalign.evaluate import repeated_split_eval
from spdalign.graphs import PairGraphs, build_graphs, neighbor_graphs
from spdalign.metrics import (
    BLOCK_ENTRIES,
    GRAM_ROUNDING,
    MetricKind,
    PairScreen,
    _blocks,
    bandwidth,
    check_transform,
    cross_dist2,
    default_beta,
    dist2,
    indexed_dist2,
    map_down,
    geometry,
    pairwise_dist2,
)

ALL_METRICS = list(MetricKind)
EPS = np.finfo(float).eps


class TestMetricKind:
    def test_parse_accepts_names_and_instances(self):
        assert MetricKind.parse("aim") is MetricKind.AIM
        assert MetricKind.parse(" Stein ") is MetricKind.STEIN
        assert MetricKind.parse(MetricKind.LEM) is MetricKind.LEM

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValidationError):
            MetricKind.parse("euclidean")


class TestMapDown:
    def test_orthonormal_columns_fix_identity(self):
        W = np.eye(4)[:, :2]
        assert np.allclose(map_down(np.eye(4), W), np.eye(2), atol=1e-14)

    def test_coordinate_selection(self):
        W = np.array([[1.0], [0.0]])
        assert np.allclose(map_down(np.diag([2.0, 3.0]), W), [[2.0]], atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_result_stays_positive_definite(self, seed):
        rng = np.random.default_rng(seed)
        X = rand_spd(rng, 8, cond_spread=2.0)
        W = rand_full_rank(rng, 8, 3)
        assert np.linalg.eigvalsh(map_down(X, W))[0] > 0

    def test_rank_deficient_transform_rejected(self):
        W = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(RankDeficientError):
            map_down(np.eye(3), W)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimMismatchError):
            map_down(np.eye(3), np.eye(4)[:, :2])

    def test_nonsymmetric_sample_rejected(self):
        X = np.eye(3)
        X[0, 2] = 0.5
        with pytest.raises(NonSymmetricError):
            map_down(X, np.eye(3)[:, :2])

    def test_overflow_names_the_transform(self):
        # a finite W whose product overflows: one NumericalError naming the
        # transform and the first overflowing sample, and no numpy warning
        stack = np.stack([np.eye(4) * 1e-300, np.eye(4), 2 * np.eye(4)])
        W = np.full((4, 1), 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match=r"^transform maps sample 1 to non-finite"):
                map_down(stack, W)
            with pytest.raises(NumericalError, match=r"^transform maps sample to"):
                map_down(np.eye(4), W)

    def test_overflow_names_a_stack_position(self):
        # the first overflowing sample of a two-axis stack, by its position
        stack = np.tile(np.eye(4) * 1e-300, (2, 3, 1, 1))
        stack[1, 0] = np.eye(4)
        stack[1, 2] = 2 * np.eye(4)
        with pytest.raises(NumericalError,
                           match=r"^transform maps sample \(1, 0\) to non-finite"):
            map_down(stack, np.full((4, 1), 1e160))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        # mapped through W it would come back as NaN, with a warning only
        stack = np.stack([np.eye(3)] * 3)
        stack[1, 0, 1] = stack[1, 1, 0] = bad
        with pytest.raises(ValidationError, match="^sample 1 holds a non-finite"):
            map_down(stack, np.eye(3)[:, :2])
        with pytest.raises(ValidationError, match="^sample holds a non-finite"):
            map_down(stack[1], np.eye(3)[:, :2])

    def test_one_axis_transform_rejected(self):
        with pytest.raises(ValidationError, match=re.escape(
                "transform must be a 2-D array, got shape (3,)")):
            check_transform(np.ones(3))

    def test_wide_transform_rejected(self):
        with pytest.raises(ValidationError):
            check_transform(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_transform_rejected_before_svd(self, bad, monkeypatch):
        W = np.eye(4)[:, :2]
        W[1, 0] = bad
        svd_calls = count_calls(monkeypatch, np.linalg, ["svd"])
        for check in (lambda: check_transform(W), lambda: check_transform(W, n=4),
                      lambda: map_down(np.eye(4), W)):
            with pytest.raises(ValidationError, match="non-finite"):
                check()
        assert svd_calls == {"svd": 0}
        with pytest.raises(ValidationError, match="non-finite"):
            check_transform(np.full((3, 2), bad))


class TestDist2:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_zero_at_coincidence(self, metric):
        rng = np.random.default_rng(0)
        X = rand_spd(rng, 5)
        assert dist2(metric, X, X) <= 1e-20

    @pytest.mark.parametrize("metric", [MetricKind.AIM, MetricKind.LEM])
    def test_diagonal_analytic_case(self, metric):
        d = dist2(metric, np.eye(2), np.diag([np.e, np.e]))
        assert abs(d - 2.0) <= 1e-12

    def test_stein_scalar_case(self):
        d = dist2(MetricKind.STEIN, np.array([[1.0]]), np.array([[3.0]]))
        assert abs(d - 0.1438410362258904) <= 1e-15

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("seed", range(3))
    def test_symmetric_in_arguments(self, metric, seed):
        rng = np.random.default_rng(seed)
        A, B = rand_spd(rng, 5), rand_spd(rng, 5)
        assert dist2(metric, A, B) == dist2(metric, B, A)

    @pytest.mark.parametrize("metric", [MetricKind.AIM, MetricKind.STEIN])
    @pytest.mark.parametrize("seed", range(5))
    def test_affine_invariance(self, metric, seed):
        rng = np.random.default_rng(seed)
        A, B = rand_spd(rng, 5), rand_spd(rng, 5)
        # invertible congruence with singular values in [0.5, 2]
        U, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        V, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        M = U @ np.diag(rng.uniform(0.5, 2.0, size=5)) @ V.T
        d0 = dist2(metric, A, B)
        d1 = dist2(metric, M @ A @ M.T, M @ B @ M.T)
        assert abs(d1 - d0) <= 1e-8 * max(1.0, abs(d0))

    @pytest.mark.parametrize("seed", range(5))
    def test_lem_identity_reference(self, seed):
        rng = np.random.default_rng(seed)
        X = rand_spd(rng, 6, cond_spread=2.0)
        expected = np.sum(spd_log(X) ** 2)
        assert abs(dist2(MetricKind.LEM, X, np.eye(6)) - expected) <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            dist2(MetricKind.LEM, np.eye(3), np.eye(4))

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_rejects_indefinite(self, metric):
        with pytest.raises(NotPositiveDefiniteError):
            dist2(metric, np.diag([1.0, -1.0]), np.eye(2))

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_rejects_stack_operand(self, metric):
        # each operand is one matrix; a stack, even of one, is bad input
        rng = np.random.default_rng(6)
        S = np.stack([rand_spd(rng, 3) for _ in range(4)])
        for X1, X2, name, shape in [
            (S[:2], S[2], "first", (2, 3, 3)),
            (S[0], S[2:], "second", (2, 3, 3)),
            (S[:1], S[0], "first", (1, 3, 3)),
            (S[0], np.ones((3, 2)), "second", (3, 2)),
        ]:
            with pytest.raises(
                ValidationError,
                match=rf"^{name} operand must be one \(n, n\) matrix, "
                rf"got shape {re.escape(str(shape))}$",
            ):
                dist2(metric, X1, X2)


class TestFloorWhereSamplesEnter:
    """Every raw-array entry point screens each operand against the PD floor
    (`matfun.check_pd`, 1e-12 times the mean eigenvalue) before it is
    factored, under every geometry alike."""

    @staticmethod
    def stack():
        # sample 2 has mean eigenvalue 1 and a smallest one of 1e-13
        rng = np.random.default_rng(9)
        stack = np.stack([rand_spd(rng, 3) for _ in range(4)])
        stack[2] = np.diag([1.5, 1.5 - 1e-13, 1e-13])
        return stack

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("entry", ["dist2", "cross_dist2", "indexed_dist2"])
    def test_sub_floor_member_rejected(self, metric, entry):
        stack = self.stack()
        good = stack[:2]
        calls = {
            "dist2": [
                (lambda: dist2(metric, stack[2], stack[0]), "first operand"),
                (lambda: dist2(metric, stack[0], stack[2]), "second operand"),
            ],
            "cross_dist2": [
                (lambda: cross_dist2(metric, stack, good), "row sample 2"),
                (lambda: cross_dist2(metric, good, stack), "col sample 2"),
            ],
            # the whole stack is screened, whichever pairs are asked for
            "indexed_dist2": [
                (lambda: indexed_dist2(metric, stack, [0], [1]), "sample 2"),
                (lambda: pairwise_dist2(metric, stack), "sample 2"),
            ],
        }[entry]
        for call, name in calls:
            with pytest.raises(
                NotPositiveDefiniteError,
                match=rf"^{name} has min eigenvalue 1\.000e-13 at or below the PD floor",
            ):
                call()


class TestTransformedDist2:
    def test_coincident_samples(self):
        rng = np.random.default_rng(2)
        X = rand_spd(rng, 6)
        W = rand_full_rank(rng, 6, 2)
        for metric in ALL_METRICS:
            assert transformed_dist2(metric, X, X, W) <= 1e-20

    def test_diagonal_block_selection(self):
        X1 = np.diag([1.0, 2.0, 3.0, 4.0])
        X2 = np.diag([5.0, 6.0, 7.0, 8.0])
        W = np.eye(4)[:, :2]
        for metric in ALL_METRICS:
            expected = dist2(metric, np.diag([1.0, 2.0]), np.diag([5.0, 6.0]))
            assert np.isclose(transformed_dist2(metric, X1, X2, W), expected)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("seed", range(4))
    def test_orthogonal_quotient_invariance(self, metric, seed):
        rng = np.random.default_rng(seed)
        X1, X2 = rand_spd(rng, 7), rand_spd(rng, 7)
        W = rand_full_rank(rng, 7, 3)
        O, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        d0 = transformed_dist2(metric, X1, X2, W)
        d1 = transformed_dist2(metric, X1, X2, W @ O)
        assert abs(d1 - d0) <= 1e-9 * max(1.0, abs(d0))


class TestKernelSim:
    def test_unit_at_coincidence(self):
        rng = np.random.default_rng(4)
        X = rand_spd(rng, 5)
        W = rand_full_rank(rng, 5, 2)
        for metric in ALL_METRICS:
            assert kernel_sim(metric, X, X, W, beta=3.0) == 1.0

    def test_known_scalar_value(self):
        X_i = np.eye(3)
        X_j = np.diag([np.e, np.e, 5.0])
        W = np.eye(3)[:, :2]
        k = kernel_sim(MetricKind.AIM, X_i, X_j, W, beta=1.0)
        assert abs(k - 0.1353352832366127) <= 1e-12

    def test_monotone_in_distance(self):
        X = np.eye(2)
        W = np.eye(2)[:, :1]
        near = kernel_sim(MetricKind.LEM, X, np.diag([2.0, 1.0]), W, 1.0)
        far = kernel_sim(MetricKind.LEM, X, np.diag([9.0, 1.0]), W, 1.0)
        assert far < near < 1.0

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValidationError):
            kernel_sim(MetricKind.AIM, np.eye(2), np.eye(2), np.eye(2)[:, :1], 0.0)


class TestBatchDistances:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_pairwise_matches_single_calls(self, metric):
        rng = np.random.default_rng(9)
        samples = np.stack([rand_spd(rng, 4) for _ in range(6)])
        D = pairwise_dist2(metric, samples)
        assert np.allclose(D, D.T, atol=0)
        assert np.all(np.diag(D) == 0)
        for i in range(6):
            for j in range(i + 1, 6):
                assert np.isclose(
                    D[i, j], dist2(metric, samples[i], samples[j]),
                    rtol=1e-10, atol=1e-12,
                )

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_cross_matches_single_calls(self, metric):
        # the kernels promise the same bits through every entry point
        rng = np.random.default_rng(10)
        left = np.stack([rand_spd(rng, 4) for _ in range(3)])
        right = np.stack([rand_spd(rng, 4) for _ in range(5)])
        right[2] = left[1]  # one matrix in both operands: distance exactly 0
        # AIM whitens each pair by the matrix that sorts first by entries:
        # some pairs must have the row sample first, some the column sample
        row_corner, col_corner = left[:, 0, 0][:, None], right[:, 0, 0]
        assert (row_corner < col_corner).any() and (col_corner < row_corner).any()
        D = cross_dist2(metric, left, right)
        assert D.shape == (3, 5)
        assert D[1, 2] == 0.0
        i, j = np.divmod(np.arange(15), 5)
        both = np.concatenate([left, right])
        assert np.array_equal(D.ravel(), indexed_dist2(metric, both, i, 3 + j))
        single = [[dist2(metric, left[a], right[b]) for b in range(5)]
                  for a in range(3)]
        assert np.array_equal(D, np.array(single))

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_pairwise_rejects_one_indefinite_member(self, metric):
        # enough samples for several blocks of pairs; the bad one is last
        rng = np.random.default_rng(11)
        samples = np.stack([rand_spd(rng, 4) for _ in range(60)])
        samples[-1] = np.diag([1.0, 2.0, -0.5, 1.0])
        with pytest.raises(NotPositiveDefiniteError):
            pairwise_dist2(metric, samples)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("side", ["rows", "cols"])
    def test_cross_rejects_one_indefinite_member(self, metric, side):
        rng = np.random.default_rng(12)
        rows = np.stack([rand_spd(rng, 4) for _ in range(30)])
        cols = np.stack([rand_spd(rng, 4) for _ in range(40)])
        bad = rows if side == "rows" else cols
        bad[-1] = np.diag([1.0, 2.0, -0.5, 1.0])
        with pytest.raises(NotPositiveDefiniteError):
            cross_dist2(metric, rows, cols)

    @staticmethod
    def skewed_stack(seed, count):
        """SPD stack whose last member has one off-diagonal entry nudged."""
        rng = np.random.default_rng(seed)
        stack = np.stack([rand_spd(rng, 4) for _ in range(count)])
        stack[-1, 0, 3] += 1e-3
        return stack

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_pairwise_rejects_one_nonsymmetric_member(self, metric):
        with pytest.raises(NonSymmetricError, match="sample 59"):
            pairwise_dist2(metric, self.skewed_stack(13, 60))

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("side", ["row", "col"])
    def test_cross_rejects_one_nonsymmetric_member(self, metric, side):
        rng = np.random.default_rng(14)
        good = np.stack([rand_spd(rng, 4) for _ in range(30)])
        bad = self.skewed_stack(15, 40)
        rows, cols = (bad, good) if side == "row" else (good, bad)
        with pytest.raises(NonSymmetricError, match=f"{side} sample 39"):
            cross_dist2(metric, rows, cols)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_indexed_rejects_one_nonsymmetric_member(self, metric):
        with pytest.raises(NonSymmetricError, match="sample 9"):
            indexed_dist2(metric, self.skewed_stack(16, 10), [0, 1], [2, 3])

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("driver", ["pairwise", "indexed", "cross"])
    def test_distance_pass_builds_no_gradient_factor(self, metric, driver, monkeypatch):
        # a distance-only pass reads the distance factors alone: no sample
        # inverse for Stein, no X^{-1} for AIM, whose factors are a Cholesky
        # factor and its transposed inverse and whose whitened pairs take
        # eigvalsh, so eigh runs only for LEM's logs, once per factored stack:
        # cross_dist2 factors its two operands joined, as one stack
        rng = np.random.default_rng(17)
        stack = np.stack([rand_spd(rng, 4) for _ in range(60)])  # 2 blocks
        linalg = count_calls(monkeypatch, np.linalg, ["eigh", "inv"])
        applied = count_calls(monkeypatch, matfun, ["eig_apply"])
        if driver == "pairwise":
            pairwise_dist2(metric, stack)
        elif driver == "indexed":
            i, j = np.triu_indices(60, k=1)
            indexed_dist2(metric, stack, i, j)
        else:
            cross_dist2(metric, stack[:30], stack[30:])
        eighs = 1 if metric is MetricKind.LEM else 0
        assert linalg == {"eigh": eighs, "inv": 0}
        assert applied == {"eig_apply": eighs}

    def test_cross_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            cross_dist2(MetricKind.LEM, np.eye(3)[None], np.eye(4)[None])

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_pairwise_rejects_single_matrix(self, metric):
        with pytest.raises(ValidationError, match="sample operand"):
            pairwise_dist2(metric, np.diag([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("side", ["row", "col"])
    def test_cross_rejects_single_matrix(self, metric, side):
        stack = np.eye(3)[None]
        rows, cols = (np.eye(3), stack) if side == "row" else (stack, np.eye(3))
        with pytest.raises(ValidationError, match=f"{side} sample operand"):
            cross_dist2(metric, rows, cols)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_indexed_rejects_single_matrix(self, metric):
        with pytest.raises(ValidationError, match="sample operand"):
            indexed_dist2(metric, np.diag([1.0, 2.0, 3.0]), [0], [1])


class TestPairIndices:
    """indexed_dist2 takes i and j as equal-length 1-D integer arrays of
    sample indices in [0, N) and rejects anything else before it factors
    the stack: numpy would broadcast, wrap or raise IndexError."""

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize(
        "i, j, error, message",
        [
            ([0, 1], [2], DimMismatchError, "i and j differ in length: 2 vs 1"),
            ([-1], [0], ValidationError,
             r"^i\[0\] = -1 is not a sample index in \[0, 4\)$"),
            ([0, 1], [3, 4], ValidationError,
             r"^j\[1\] = 4 is not a sample index"),
            ([0.0], [1.0], ValidationError,
             "^i must be a 1-D array of integer indices, got float64"),
            ([0], [1.5], ValidationError,
             "^j must be a 1-D array of integer indices"),
            ([[0]], [[1]], ValidationError, r"of shape \(1, 1\)$"),
            ([True], [False], ValidationError, "got bool"),
            (0, 1, ValidationError, r"of shape \(\)"),
        ],
        ids=["unequal", "negative", "too-large", "float", "fraction", "2-D",
             "bool", "scalar"],
    )
    def test_rejected_before_factoring(
        self, metric, i, j, error, message, monkeypatch
    ):
        rng = np.random.default_rng(8)
        stack = np.stack([rand_spd(rng, 3) for _ in range(4)])
        calls = count_calls(monkeypatch, np.linalg,
                            ["eigh", "eigvalsh", "cholesky"])
        with pytest.raises(error, match=message):
            indexed_dist2(metric, stack, i, j)
        assert calls == {"eigh": 0, "eigvalsh": 0, "cholesky": 0}

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_accepts_empty_and_unsigned(self, metric):
        rng = np.random.default_rng(8)
        stack = np.stack([rand_spd(rng, 3) for _ in range(4)])
        assert indexed_dist2(metric, stack, [], []).shape == (0,)
        i, j = np.array([0, 3], dtype=np.uint8), np.array([2, 1], dtype=np.int32)
        assert np.array_equal(
            indexed_dist2(metric, stack, i, j),
            indexed_dist2(metric, stack, [0, 3], [2, 1]),
        )


class TestArgumentOrder:
    """Every distance-only driver is exactly invariant to argument order:
    AIM whitens each pair by whichever matrix sorts first by entries."""

    @staticmethod
    def ref_stack(ties):
        stack = ref_shaped_dataset(seed=31).samples
        if ties:
            # every (0, 0) entry is 1, so the full lexicographic order decides,
            # and samples 0 and 1 coincide, so it finds no differing entry
            stack = stack / stack[:, :1, :1]
            stack[1] = stack[0]
        return stack

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("ties", [False, True])
    def test_indexed(self, metric, ties):
        stack = self.ref_stack(ties)
        i, j = np.triu_indices(len(stack), k=1)
        assert np.array_equal(
            indexed_dist2(metric, stack, i, j), indexed_dist2(metric, stack, j, i)
        )

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("ties", [False, True])
    def test_cross(self, metric, ties):
        stack = self.ref_stack(ties)
        rows, cols = stack[:25], stack[25:]
        assert np.array_equal(
            cross_dist2(metric, rows, cols), cross_dist2(metric, cols, rows).T
        )

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("ties", [False, True])
    def test_dist2(self, metric, ties):
        stack = self.ref_stack(ties)
        for a, b in zip(stack[:10], stack[10:20]):
            assert dist2(metric, a, b) == dist2(metric, b, a)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_only_equal_pairs_at_zero(self, metric):
        # every pair ties at (0, 0), and only samples 0 and 1 are equal
        stack = self.ref_stack(ties=True)
        i, j = np.triu_indices(len(stack), k=1)
        d = indexed_dist2(metric, stack, i, j)
        assert d[0] == 0.0 and (i[0], j[0]) == (0, 1)
        assert np.all(d[1:] > 0.0)

    @staticmethod
    def unfloored_pair():
        # each matrix clears its own PD floor, but whitening the first by the
        # second, which sorts first, leaves an eigenvalue of 1e-14
        return np.stack([np.diag([2.0, 1e-11]), np.diag([1.0, 1e3])])

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_failing_whitened_pair_named_as_given(self, order):
        i, j = order
        with pytest.raises(NotPositiveDefiniteError, match=rf"whitened pair \[{i} {j}\]"):
            indexed_dist2(MetricKind.AIM, self.unfloored_pair(), [i], [j])
        rows, cols = self.unfloored_pair()[[i]], self.unfloored_pair()[[j]]
        with pytest.raises(NotPositiveDefiniteError, match=r"whitened pair \[0 1\]"):
            cross_dist2(MetricKind.AIM, rows, cols)
        with pytest.raises(NotPositiveDefiniteError, match="whitened pair"):
            dist2(MetricKind.AIM, rows[0], cols[0])


class TestAffineInvariantOracle:
    """Samples X_k = C diag(a_k) C^T of one random C have the exact
    affine-invariant distance d_kl = sum log^2(a_l / a_k): X_k^{-1} X_l is
    similar to diag(a_l / a_k). Each a_k spreads over kappa times e^{+-1},
    and the pair ratios a_l / a_k over e^{+-2}, so the whitened pairs stay
    well conditioned while the samples do not. Every route to the distance
    must meet it to a relative tolerance fixed per kappa, about 450 eps
    kappa."""

    RTOL = {1e2: 1e-11, 1e4: 1e-9, 1e6: 1e-7}

    @staticmethod
    def instance(kappa, n=12, count=6, seed=7):
        rng = np.random.default_rng(seed)
        C = matfun.qr_orthonormal(rng.standard_normal((n, n)))
        C *= rng.uniform(1.0, 2.0, n)
        u = rng.uniform(-1.0, 1.0, (count, n))
        a = kappa ** -np.linspace(0.0, 1.0, n) * np.exp(u)
        stack = matfun.symmetrize((C * a[:, None, :]) @ C.T)
        exact = np.sum((u[:, None, :] - u[None, :, :]) ** 2, axis=-1)
        return stack, exact

    @staticmethod
    def routes(stack):
        """Each entry point's (pairs (i, j), squared distances)."""
        aim = MetricKind.AIM
        count = len(stack)
        i, j = np.triu_indices(count, k=1)
        half = count // 2
        rows, cols = np.divmod(np.arange(half * (count - half)), count - half)
        geom, side = factored(aim, stack)
        yield "dist2", (i, j), np.array(
            [dist2(aim, stack[a], stack[b]) for a, b in zip(i, j)])
        yield "pairwise_dist2", (i, j), pairwise_dist2(aim, stack)[i, j]
        yield "indexed_dist2", (j, i), indexed_dist2(aim, stack, j, i)
        yield "cross_dist2", (rows, cols + half), cross_dist2(
            aim, stack[:half], stack[half:]).ravel()
        yield "keep", (j, i), geom.dist2_pairs(side, j, i, keep=True)[0]

    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6])
    def test_every_route_meets_the_exact_distance(self, kappa):
        stack, exact = self.instance(kappa)
        for name, (i, j), d in self.routes(stack):
            error = np.abs(d - exact[i, j]) / exact[i, j]
            assert error.max() <= self.RTOL[kappa], name


class TestLowerBound:
    @staticmethod
    def pairs(rng, n):
        """Random pairs with moderate and wide spectra, and an ill-conditioned
        congruence D X D of each."""
        scale = np.diag(np.geomspace(1.0, 1e-4, n))
        for spread in (1.0, 4.0):
            X1, X2 = rand_spd(rng, n, spread), rand_spd(rng, n, spread)
            yield X1, X2
        X1, X2 = rand_spd(rng, n), rand_spd(rng, n)
        yield scale @ X1 @ scale, scale @ X2 @ scale

    @pytest.mark.parametrize("n", [2, 5, 12])
    @pytest.mark.parametrize("seed", range(5))
    def test_lem_never_exceeds_aim(self, n, seed):
        # the exponential metric increasing property, in floating point
        for X1, X2 in self.pairs(np.random.default_rng(seed), n):
            aim = dist2(MetricKind.AIM, X1, X2)
            assert dist2(MetricKind.LEM, X1, X2) <= aim * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", [3, 12, 20])
    def test_floor_is_under_every_computed_distance(self, n):
        rng = np.random.default_rng(n)
        stack = [X for pair in self.pairs(rng, n) for X in pair]
        # near-duplicates and commuting pairs, where the bound is tightest
        S = rng.standard_normal((2, n, n))
        stack += [X * (1.0 + 1e-9 * (S[0] + S[0].T)) for X in stack[:2]]
        stack += [np.diag(np.exp(rng.uniform(-3.0, 3.0, n))) for _ in range(3)]
        # two far-apart clusters, whose log-Euclidean mean lies between them
        for base in (rand_spd(rng, n), 1e3 * rand_spd(rng, n, 2.0)):
            for _ in range(3):
                bump = 0.1 * rng.standard_normal((n, n))
                stack.append(base + np.abs(base).max() * bump @ bump.T)
        i, j = np.triu_indices(len(stack), k=1)
        for scale in (1.0, 1e8):
            scaled = scale * np.stack(stack)
            geom, side = factored(MetricKind.AIM, scaled)
            bound, tau = geom.lower_bound(scaled)
            assert np.array_equal(bound, bound.T) and np.array_equal(tau, tau.T)
            # the log-Euclidean kernel's own values on the stack whitened by
            # its arithmetic mean M: Z_k = C X_k C with C = M^{-1/2}. The Gram
            # form is never above them, and at most twice its rounding term
            # GRAM_ROUNDING n^2 eps (s_a + s_b) below, s_a = ||log Z_a||_F^2
            Z, logs = geom.whiten_by_mean(scaled)[:2]
            gap = indexed_dist2(MetricKind.LEM, Z, i, j) - bound[i, j]
            s = np.sum(logs**2, axis=(1, 2))
            term = GRAM_ROUNDING * n * n * np.finfo(float).eps * (s[i] + s[j])
            assert np.all(gap >= 0.0) and np.all(gap <= 2.0 * term)
            C = spd_exp(-0.5 * spd_log(scaled.mean(axis=0)))
            assert np.allclose(Z, C @ scaled @ C, rtol=0.0,
                               atol=1e-9 * np.abs(Z).max())
            d, _ = geom.dist2_pairs(side, i, j)
            assert np.all(np.sqrt(bound[i, j]) - tau[i, j] <= np.sqrt(d))

    def test_unusable_whitened_sample_rules_out_nothing(self):
        # samples never reach the bound indefinite or non-finite, so the
        # stacks are built by hand. The mean of I, 2I and diag(1, -1) is
        # diag(4/3, 2/3): the indefinite sample stays indefinite in the
        # whitened frame and must get an infinite margin, not an error or a
        # NaN floor. A NaN sample makes the mean unusable: C = I, and every
        # margin is infinite.
        geom = geometry(MetricKind.AIM)
        eye = np.eye(2)
        stack = np.stack([eye, 2.0 * eye, np.diag([1.0, -1.0])])
        _, logs, spread, spread_m = geom.whiten_by_mean(stack)
        assert np.isfinite(logs).all() and spread_m == 2.0
        assert np.isfinite(spread[:2]).all() and spread[2] == np.inf
        bound, tau = geom.lower_bound(stack)
        assert np.isfinite(bound).all()
        usable = np.outer([True, True, False], [True, True, False])
        assert np.isfinite(tau[usable]).all() and np.isinf(tau[~usable]).all()
        assert np.all(np.sqrt(bound[~usable]) - tau[~usable] == -np.inf)

        stack = np.concatenate([stack, np.full((1, 2, 2), np.nan)])
        Z, logs, spread, spread_m = geom.whiten_by_mean(stack)
        assert np.array_equal(Z[:3], stack[:3]) and spread_m == np.inf
        assert np.isfinite(logs).all()
        assert np.array_equal(spread, [1.0, 1.0, np.inf, np.inf])
        bound, tau = geom.lower_bound(stack)
        assert np.isfinite(bound).all() and np.isinf(tau).all()

    def test_margin_covers_ill_conditioned_pairs(self):
        rng = np.random.default_rng(3)
        scale = np.diag(np.geomspace(1.0, 1e-4, 12))
        stack = np.stack([scale @ rand_spd(rng, 12) @ scale for _ in range(4)])
        bound, tau = geometry(MetricKind.AIM).lower_bound(stack)
        # eigenvalue spreads near 1e8 put the floor below zero: no pair can
        # be ruled out
        assert np.all(np.sqrt(bound) - tau < 0.0)

    @pytest.mark.parametrize("metric", [MetricKind.STEIN, MetricKind.LEM])
    def test_only_aim_has_a_bound(self, metric):
        assert geometry(metric).lower_bound is None


class TestPairScreen:
    """`PairScreen.distances` decides which pairs get an exact distance: every
    needed pair under Stein and LEM, and under AIM the nominated pairs and
    every needed pair that the floor does not rule out against the cap."""

    @staticmethod
    def stack_and_needed():
        data = ref_shaped_dataset(7)
        needed = np.random.default_rng(7).random((data.size,) * 2) < 0.3
        return data.samples, needed

    @staticmethod
    def finite_pairs(D):
        """(i, j), i < j, of the finite entries of the upper triangle."""
        return np.nonzero(np.triu(np.isfinite(D), k=1))

    @pytest.mark.parametrize("metric", [MetricKind.STEIN, MetricKind.LEM])
    def test_no_bound_computes_exactly_the_needed_pairs(self, metric):
        stack, needed = self.stack_and_needed()

        def unused(_):
            raise AssertionError("a geometry with no bound nominates and caps nothing")

        screen = PairScreen(metric, stack)
        D = screen.distances(needed, unused, unused)
        i, j = self.finite_pairs(D)
        assert np.array_equal(np.isfinite(D), (needed | needed.T) & ~np.eye(len(D), dtype=bool))
        assert np.array_equal(D, D.T)
        assert np.array_equal(D[i, j], indexed_dist2(metric, stack, i, j))
        assert screen.computed == len(i) > 0

    def test_aim_computes_the_nominated_and_the_pairs_not_ruled_out(self, monkeypatch):
        stack, needed = self.stack_and_needed()
        N = len(stack)
        geom = geometry(MetricKind.AIM)
        bound, tau = geom.lower_bound(stack)
        floor = np.sqrt(bound) - tau
        passes, seen = [], {}
        original = geom.dist2_pairs

        def recorded(side, i, j, keep=False):
            # the screen dropped the bound before its first exact pass
            assert seen["bound"]() is None
            passes.append(len(i))
            return original(side, i, j, keep)

        def nominate(b):
            # each row's bound-nearest needed column but itself, before any
            # exact pass
            assert np.array_equal(b, bound) and not passes
            seen["bound"] = weakref.ref(b)
            others = np.where(needed, b, np.inf)
            np.fill_diagonal(others, np.inf)
            nominated = np.zeros_like(needed)
            nominated[np.arange(N), np.argmin(others, axis=1)] = True
            seen["nominated"] = nominated
            return nominated

        def cap(D):
            # a row's least computed distance, after the nominated pairs only
            nominated = seen["nominated"] | seen["nominated"].T
            assert passes == [np.count_nonzero(np.triu(nominated, k=1))]
            seen["cap"] = np.repeat(np.min(D, axis=1, keepdims=True), N, axis=1)
            return seen["cap"]

        monkeypatch.setattr(geom, "dist2_pairs", recorded)
        screen = PairScreen(MetricKind.AIM, stack)
        D = screen.distances(needed, nominate, cap)
        monkeypatch.undo()
        i, j = self.finite_pairs(D)
        assert np.array_equal(D, D.T) and np.isinf(np.diag(D)).all()
        assert np.array_equal(D[i, j], indexed_dist2(MetricKind.AIM, stack, i, j))
        assert screen.computed == len(i) == sum(passes)
        # the pairs computed: the nominated ones, and the needed ones that
        # the floor does not rule out against the cap in some needed order
        ruled_in = needed & (floor <= np.sqrt(seen["cap"]))
        expected = seen["nominated"] | ruled_in
        expected |= expected.T
        np.fill_diagonal(expected, False)
        assert np.array_equal(np.isfinite(D), expected)
        # a needed pair left out is strictly farther than its cap
        exact = pairwise_dist2(MetricKind.AIM, stack)
        left_out = needed & np.isinf(D) & ~np.eye(N, dtype=bool)
        assert left_out.any()
        assert np.all(exact[left_out] > seen["cap"][left_out])


class TestSteinFactors:
    """Stein keeps the Cholesky factors of its samples and of every support
    midpoint, from the same Cholesky that gives the log-determinants."""

    @staticmethod
    def stack(count=80, n=4):
        rng = np.random.default_rng(41)
        return np.stack([rand_spd(rng, n) for _ in range(count)])

    def test_sample_factors(self):
        stack = self.stack()
        logdet, chol = geometry(MetricKind.STEIN).factors(stack, "sample")
        assert np.array_equal(chol, np.linalg.cholesky(stack))
        assert np.allclose(logdet, np.linalg.slogdet(stack)[1], rtol=0, atol=1e-12)

    def test_failing_midpoint_named_by_its_pair(self):
        # samples are never indefinite where they enter, so the side is built
        # by hand: sample 7 is indefinite, and the first pair that reaches it,
        # (3, 7), lies in the second block
        stack = self.stack(count=10, n=2)
        stack[7] = np.diag([-5.0, 1.0])
        i = np.concatenate([np.zeros(5000, dtype=int), [3, 7]])
        j = np.concatenate([np.ones(5000, dtype=int), [7, 9]])
        assert len(list(_blocks(5000, 2 ** 2))) > 1
        side = (stack, (np.zeros(10), None))
        with pytest.raises(NotPositiveDefiniteError, match=r"midpoint \[3 7\]"):
            geometry(MetricKind.STEIN).dist2_pairs(side, i, j, keep=True)


class TestDistancePass:
    """`Geometry.dist2_pairs` is the one block loop over distance pairs; with
    `keep` set it also returns the per-pair factors the gradient reads."""

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_support_pass_equals_distance_pass(self, metric):
        stack = TestSteinFactors.stack()
        geom, side = factored(metric, stack)
        i, j = np.triu_indices(len(stack), k=1)
        assert len(list(_blocks(len(i), stack.shape[-1] ** 2))) > 1
        d, kept = geom.dist2_pairs(side, i, j, keep=True)
        distance_only, none = geom.dist2_pairs(side, i, j)
        assert none is None
        assert np.array_equal(distance_only, indexed_dist2(metric, stack, i, j))
        if metric is MetricKind.AIM:
            # whitened by the left sample, not the sorted-first one: the same
            # distance up to rounding, and the log of each left-whitened pair
            # M = L_i^{-1} X_j L_i^{-T}, with L_i^{-T} the factors' inverse
            # of the transposed Cholesky factor L_i
            inv_t, chol = side[1]
            assert np.array_equal(chol, np.linalg.cholesky(stack))
            assert np.allclose(chol.swapaxes(-1, -2) @ inv_t,
                               np.eye(stack.shape[-1]), rtol=0.0, atol=1e-12)
            P = inv_t[i]
            M = matfun.symmetrize(P.swapaxes(-1, -2) @ stack[j] @ P)
            w, Q = matfun.sym_eig(M)
            assert np.array_equal(kept, matfun.eig_apply(Q, np.log(w)))
            assert np.allclose(d, distance_only, rtol=1e-10, atol=0.0)
            return
        assert np.array_equal(d, distance_only)
        if metric is MetricKind.LEM:
            assert kept is None
            return
        # each kept factor is the Cholesky factor of its pair's midpoint, and
        # L L^T gives the midpoint back
        mid = 0.5 * (stack[i] + stack[j])
        assert np.array_equal(kept, np.linalg.cholesky(mid))
        rebuilt = kept @ kept.swapaxes(-1, -2)
        scale = np.abs(mid).max(axis=(-2, -1))
        assert (np.abs(rebuilt - mid).max(axis=(-2, -1)) <= 1e-14 * scale).all()

    def test_blocks_sized_by_what_a_pair_holds(self, monkeypatch):
        # a log-Euclidean pair holds a triangle, 78 entries at n = 12, so
        # 1,000 pairs run in blocks of 210: 5 blocks, where n^2 = 144
        # entries per pair would give 9 blocks of 113
        rng = np.random.default_rng(12)
        stack = np.stack([rand_spd(rng, 12) for _ in range(40)])
        i = rng.integers(40, size=1000)
        j = (i + rng.integers(1, 40, size=i.size)) % 40
        lem = MetricKind.LEM
        calls = count_calls(monkeypatch, geometry(lem), ["block_dist2"])
        d = indexed_dist2(lem, stack, i, j)
        assert calls == {"block_dist2": 5}
        # each pair's value is that of a pass of its own
        assert np.array_equal(d, [dist2(lem, stack[a], stack[b]) for a, b in zip(i, j)])


class TestSerialPass:
    """Every pass runs its blocks in order on the calling thread, whatever
    the geometry and the CPU count."""

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_no_pass_starts_a_thread(self, metric, monkeypatch):
        data = ref_shaped_dataset(seed=31)
        stack = data.samples
        assert len(_blocks(25 * 25, stack.shape[-1] ** 2)) >= 3  # the smallest pass
        starts = count_calls(monkeypatch, threading.Thread, ["start"])
        i, j = np.triu_indices(len(stack), k=1)
        geom, side = factored(metric, stack)
        geom.dist2_pairs(side, i, j, keep=True)
        dist2(metric, stack[0], stack[1])
        pairwise_dist2(metric, stack)
        cross_dist2(metric, stack[:25], stack[25:])
        indexed_dist2(metric, stack, j, i)
        build_graphs(data, metric, 3, 3)
        W = rand_full_rank(np.random.default_rng(31), stack.shape[-1], 5)
        repeated_split_eval(data, metric, repeats=2, W=W)
        assert starts["start"] == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    # fork() in a process with more than one OS thread warns from Python
    # 3.12 on, and a multi-threaded BLAS holds its own threads whatever the
    # passes do
    @pytest.mark.filterwarnings("ignore:This process .*multi-threaded:DeprecationWarning")
    def test_forked_child_runs_a_pass(self):
        stack = ref_shaped_dataset(seed=31).samples
        want = pairwise_dist2(MetricKind.AIM, stack)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # a pass left waiting on a lock or thread that did not
                # survive the fork ends the child
                signal.alarm(20)
                got = pairwise_dist2(MetricKind.AIM, stack)
                code = 0 if got.tobytes() == want.tobytes() else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status), f"child ended by signal {os.WTERMSIG(status)}"
        assert os.WEXITSTATUS(status) == 0


class TestPassMemory:
    """A pass allocates its distances and kept factors once, and each block
    writes its own slice of them: no pass holds a second copy of its
    results."""

    # block-sized temporaries a keep pass may hold at once: the
    # gathered operands, the whitened product and its symmetrization, the
    # eigenvectors and the log built from them (AIM), or the midpoints and
    # their Cholesky factors (Stein), with room to spare
    TEMPORARY_BLOCKS = 8

    @pytest.mark.parametrize("metric", [MetricKind.AIM, MetricKind.STEIN])
    def test_keep_pass_holds_one_copy_of_its_factors(self, metric):
        rng = np.random.default_rng(8)
        n, count = 6, 200
        stack = np.stack([rand_spd(rng, n) for _ in range(count)])
        geom, side = factored(metric, stack)
        i, j = np.triu_indices(count, k=1)  # 19,900 pairs in 44 blocks
        block_bytes = (BLOCK_ENTRIES // (n * n)) * n * n * 8
        tracemalloc.start()
        try:
            d, kept = geom.dist2_pairs(side, i, j, keep=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept.shape == (len(i), n, n)
        bound = kept.nbytes + d.nbytes + self.TEMPORARY_BLOCKS * block_bytes
        # one more copy of the kept factors would exceed the bound
        assert kept.nbytes > self.TEMPORARY_BLOCKS * block_bytes
        assert peak <= bound, (peak, bound)

    # a one-sample stack has no pair, so the empty list is its only pass
    @pytest.mark.parametrize("keep", [False, True], ids=["distance", "keep"])
    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_empty_pair_list(self, metric, count, keep):
        stack = ref_shaped_dataset(seed=31).samples[:count]
        geom, side = factored(metric, stack)
        none = np.zeros(0, dtype=int)
        d, kept = geom.dist2_pairs(side, none, none, keep=keep)
        # no block runs, so no kept factor is allocated, whatever the kernel
        assert d.shape == (0,) and kept is None


class TestFailingPairIndex:
    """A pair that fails the PD check in a pass is named by its position in
    the pass (`NotPositiveDefiniteError.index`), not in its block, whichever
    block it falls in."""

    STEP = BLOCK_ENTRIES // 4  # pairs per block of 2 x 2 matrices

    def at(self, block):
        """The failing pair's position: 5 pairs into the 1-based `block` of
        three."""
        return (block - 1) * self.STEP + 5

    def pairs(self, rng, count, bad, block):
        i = rng.integers(count, size=3 * self.STEP)
        j = (i + rng.integers(1, count, size=i.size)) % count
        i[self.at(block)], j[self.at(block)] = bad
        return i, j

    @pytest.mark.parametrize("block", [1, 2])
    def test_whitened_pair(self, block):
        rng = np.random.default_rng(5)
        stack = np.concatenate([np.stack([rand_spd(rng, 2) for _ in range(20)]),
                                TestArgumentOrder.unfloored_pair()])
        i, j = self.pairs(rng, 20, (20, 21), block)
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"^whitened pair \[20 21\]") as err:
            indexed_dist2(MetricKind.AIM, stack, i, j)
        assert err.value.index == self.at(block)

    @pytest.mark.parametrize("block", [1, 2])
    def test_midpoint(self, block):
        # samples are never indefinite where they enter, so the side is built
        # by hand around the indefinite sample 7
        rng = np.random.default_rng(5)
        stack = np.stack([rand_spd(rng, 2) for _ in range(10)])
        stack[7] = np.diag([-5.0, 1.0])
        i, j = self.pairs(rng, 7, (3, 7), block)
        side = (stack, (np.zeros(10), None))
        with pytest.raises(NotPositiveDefiniteError, match=r"^midpoint \[3 7\]") as err:
            geometry(MetricKind.STEIN).dist2_pairs(side, i, j, keep=True)
        assert err.value.index == self.at(block)


class TestDefaultBeta:
    @pytest.mark.parametrize("metric", [MetricKind.AIM, MetricKind.LEM])
    def test_two_sample_scalar_case(self, metric):
        # one class of two samples: the one support pair is at distance
        # |log 1 - log e^2| = 2, so sigma = 2 and beta = 1/4
        data = LabeledDataset(np.stack([np.eye(1), np.array([[np.e**2]])]), [0, 0])
        graphs = build_graphs(data, metric, v_w=1, v_b=1)
        assert graphs.pairs.tolist() == [[0, 1]]
        assert abs(default_beta(graphs) - 0.25) <= 1e-12

    def test_coincident_samples_rejected(self):
        data = LabeledDataset(np.stack([np.eye(3), np.eye(3)]), [0, 0])
        with pytest.raises(DegenerateInputError, match="coincide"):
            default_beta(build_graphs(data, MetricKind.AIM, v_w=1, v_b=1))

    def test_needs_two_samples(self):
        # graphs of one sample have no support pair to set sigma from
        graphs = PairGraphs(np.zeros((0, 2), dtype=int), 1, dist2=np.zeros(0))
        with pytest.raises(ValidationError, match="at least one support pair"):
            default_beta(graphs)

    def test_graphs_without_distances_rejected(self):
        with pytest.raises(ValidationError, match="no support-pair distances"):
            default_beta(PairGraphs(np.array([[0, 1]]), 2))

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_mean_distance_over_the_support_pairs(self, metric):
        # sigma is the mean distance over the graphs' pairs alone, not over
        # every pair of samples: the two differ on clustered data
        data = ref_shaped_dataset(seed=3)
        D = pairwise_dist2(metric, data)
        graphs = neighbor_graphs(data, D, v_w=3, v_b=3)
        i, j = graphs.pairs.T
        sigma = np.mean(np.sqrt(D[i, j]))
        assert default_beta(graphs) == 1.0 / sigma**2
        assert default_beta(build_graphs(data, metric, v_w=3, v_b=3)) == 1.0 / sigma**2
        everywhere = np.mean(np.sqrt(D[np.triu_indices(data.size, k=1)]))
        assert default_beta(graphs) > 1.01 / everywhere**2


class TestBandwidthInput:
    @pytest.mark.parametrize(
        "d", [np.full((2, 2), np.nan), np.zeros((2, 2, 2))], ids=["matrix", "stack"],
    )
    def test_not_one_pair_vector(self, d):
        # the shape is checked before the entries: the matrix is all NaN
        with pytest.raises(DimMismatchError, match=re.escape(str(d.shape))):
            bandwidth(d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_distance_rejected(self, bad):
        # a NaN, infinite or negative distance would give a NaN or infinite
        # bandwidth, which training would then use
        d = np.array([1.0, 4.0, 9.0])
        d[1] = bad
        with pytest.raises(ValidationError, match="non-finite or negative"):
            bandwidth(d)

    def test_mean_square_root(self):
        # sigma = (1 + 2 + 3 + 0) / 4 = 1.5: a coincident pair counts as 0
        assert bandwidth([1.0, 4.0, 9.0, 0.0]) == 1.0 / 1.5**2


class TestNonFiniteSamples:
    """A non-finite sample is rejected once, before any factorization, with
    the same ValidationError under every geometry, naming the operand and
    the first bad sample."""

    @staticmethod
    def stack(bad):
        rng = np.random.default_rng(23)
        stack = np.stack([rand_spd(rng, 3) for _ in range(5)])
        for k in (2, 4):
            stack[k, 0, 1] = stack[k, 1, 0] = bad
        return stack

    @pytest.fixture
    def factorizations(self, monkeypatch):
        return count_calls(monkeypatch, np.linalg,
                           ["eigh", "eigvalsh", "cholesky"])

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_stack_operands(self, metric, bad, factorizations):
        stack = self.stack(bad)
        good = stack[:2]
        for call, name in [
            (lambda: pairwise_dist2(metric, stack), "sample 2"),
            (lambda: indexed_dist2(metric, stack, [0, 1], [3, 0]), "sample 2"),
            (lambda: factored(metric, stack), "sample 2"),
            (lambda: cross_dist2(metric, stack, good), "row sample 2"),
            (lambda: cross_dist2(metric, good, stack), "col sample 2"),
        ]:
            with pytest.raises(ValidationError, match=f"^{name} holds a non-finite"):
                call()
        assert factorizations == {"eigh": 0, "eigvalsh": 0, "cholesky": 0}

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dist2(self, metric, bad, factorizations):
        stack = self.stack(bad)
        good, broken = stack[0], stack[2]
        with pytest.raises(ValidationError, match="^first operand holds a non-finite"):
            dist2(metric, broken, good)
        with pytest.raises(ValidationError, match="^second operand holds a non-finite"):
            dist2(metric, good, broken)
        with pytest.raises(ValidationError, match="^first operand holds a non-finite"):
            dist2(metric, broken, broken)
        assert factorizations == {"eigh": 0, "eigvalsh": 0, "cholesky": 0}


@pytest.mark.parametrize("metric", ALL_METRICS)
def test_cross_dims_checked_before_factoring(metric, monkeypatch):
    # an indefinite stack of another dimension is a dimension mismatch, found
    # before either stack is factored
    calls = count_calls(monkeypatch, np.linalg, ["eigh", "cholesky"])
    indefinite = np.diag([1.0, -1.0, 2.0, 3.0])[None]
    for rows, cols in ((np.eye(3)[None], indefinite), (indefinite, np.eye(3)[None])):
        with pytest.raises(DimMismatchError):
            cross_dist2(metric, rows, cols)
    assert calls == {"eigh": 0, "cholesky": 0}


class TestLogEuclideanTriangle:
    """The log-Euclidean kernel runs on the n(n+1)/2 upper-triangle entries
    of each log: exact at coincidence, exact in either order, and equal to
    the full-matrix distance up to rounding."""

    DIMS = [1, 2, 5, 12, 20]

    @staticmethod
    def stack(n, count=6, seed=0):
        rng = np.random.default_rng(seed + n)
        return np.stack([rand_spd(rng, n, cond_spread=2.0) for _ in range(count)])

    @pytest.mark.parametrize("n", DIMS)
    def test_factors_hold_the_upper_triangle(self, n):
        stack = self.stack(n)
        upper, w, Q = geometry(MetricKind.LEM).factors(stack, "sample")
        rows, cols = np.triu_indices(n)
        assert upper.shape == (len(stack), n * (n + 1) // 2)
        full = np.stack([spd_log(X) for X in stack])
        scale = np.abs(full).max()
        assert np.abs(upper - full[:, rows, cols]).max() <= 64 * n * EPS * scale

    @pytest.mark.parametrize("n", DIMS)
    def test_coincident_samples_give_exact_zero(self, n):
        """Under every metric, not only this one: the affine-invariant
        kernel zeroes the log spectrum of a pair of equal matrices, whose
        whitening product leaves rounding."""
        stack = self.stack(n)
        twice = np.concatenate([stack, stack])
        k = np.arange(len(stack))
        copy = k + len(stack)
        for metric in ALL_METRICS:
            assert np.all(indexed_dist2(metric, twice, k, copy) == 0.0), metric
            assert np.all(indexed_dist2(metric, twice, copy, k) == 0.0), metric
            assert np.all(pairwise_dist2(metric, twice)[k, copy] == 0.0), metric
            assert np.all(np.diag(cross_dist2(metric, stack, stack)) == 0.0), metric
            assert all(dist2(metric, X, X.copy()) == 0.0 for X in stack), metric
            # the objective's pass: the distance, and the kept log of each
            # whitened pair (AIM) or each midpoint's Cholesky factor (Stein)
            geom, side = factored(metric, twice)
            d, kept = geom.dist2_pairs(side, k, copy, keep=True)
            assert np.all(d == 0.0), metric
            if metric is MetricKind.AIM:
                assert np.all(kept == 0.0)
            elif metric is MetricKind.STEIN:
                assert np.array_equal(kept, side[1][1][k])

    @pytest.mark.parametrize("n", DIMS)
    def test_swapped_arguments_give_the_same_value(self, n):
        stack = self.stack(n)
        i, j = np.triu_indices(len(stack), k=1)
        forward = indexed_dist2(MetricKind.LEM, stack, i, j)
        assert np.array_equal(forward, indexed_dist2(MetricKind.LEM, stack, j, i))
        left, right = stack[:2], stack[2:]
        assert np.array_equal(cross_dist2(MetricKind.LEM, left, right),
                              cross_dist2(MetricKind.LEM, right, left).T)
        assert (dist2(MetricKind.LEM, stack[0], stack[1])
                == dist2(MetricKind.LEM, stack[1], stack[0]))

    @pytest.mark.parametrize("n", [5, 6, 10, 12, 20])
    def test_pair_value_independent_of_its_block_slot(self, n):
        """Each pair is reduced on its own, so a pair gets one value,
        bit for bit, whatever block and slot it lands in."""
        lem = MetricKind.LEM
        stack = self.stack(n, count=150)
        rows, cols = stack[:40], stack[40:]
        assert np.array_equal(cross_dist2(lem, rows, cols),
                              cross_dist2(lem, cols, rows).T)
        i, j = np.triu_indices(len(stack), k=1)
        forward = indexed_dist2(lem, stack, i, j)
        assert np.array_equal(indexed_dist2(lem, stack, i[::-1], j[::-1]),
                              forward[::-1])
        assert np.array_equal(pairwise_dist2(lem, stack)[i, j], forward)
        for p in range(0, len(i), 101):
            assert dist2(lem, stack[i[p]], stack[j[p]]) == forward[p]

    @pytest.mark.parametrize("n", DIMS)
    def test_agrees_with_full_log_difference(self, n):
        # each log entry carries rounding of order n eps ||log X||_F, so the
        # squared norm of a difference agrees to n eps (||L_i|| + ||L_j||)^2;
        # the factor 64 leaves room for the eigensolver's constant
        stack = self.stack(n)
        i, j = np.triu_indices(len(stack), k=1)
        d = indexed_dist2(MetricKind.LEM, stack, i, j)
        logs = [spd_log(X) for X in stack]
        for p in range(len(i)):
            Li, Lj = logs[i[p]], logs[j[p]]
            reference = np.sum((Li - Lj) ** 2)
            size = np.linalg.norm(Li) + np.linalg.norm(Lj)
            assert abs(d[p] - reference) <= 64 * n * EPS * size**2
