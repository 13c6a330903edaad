"""Distance, similarity, and congruence-map tests.

Frozen scalar oracles:
- Stein on 1x1 inputs (1) and (3): ln 2 - 0.5 ln 3 = 0.1438410362258904
- affine-invariant and log-Euclidean dist2(I, diag(e,e)) = 2
- exp(-2) = 0.1353352832366127
"""

import numpy as np
import pytest

from helpers import rand_spd, rand_full_rank
from spdalign import matfun
from spdalign.errors import (
    DegenerateInputError,
    DimMismatchError,
    NotPositiveDefiniteError,
    RankDeficientError,
    ValidationError,
)
from spdalign.metrics import (
    MetricKind,
    check_transform,
    cross_dist2,
    default_beta,
    dist2,
    kernel_sim,
    map_down,
    pairwise_dist2,
    transformed_dist2,
)

ALL_METRICS = list(MetricKind)


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

    def test_wide_transform_rejected(self):
        with pytest.raises(ValidationError):
            check_transform(np.ones((2, 3)))


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
        d_ab, d_ba = dist2(metric, A, B), dist2(metric, B, A)
        if metric is MetricKind.STEIN:
            assert d_ab == d_ba
        else:
            assert abs(d_ab - d_ba) <= 1e-10 * max(1.0, d_ab)

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
        expected = np.sum(matfun.spd_log(X) ** 2)
        assert abs(dist2(MetricKind.LEM, X, np.eye(6)) - expected) <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            dist2(MetricKind.LEM, np.eye(3), np.eye(4))

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_rejects_indefinite(self, metric):
        with pytest.raises(NotPositiveDefiniteError):
            dist2(metric, np.diag([1.0, -1.0]), np.eye(2))


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
        rng = np.random.default_rng(10)
        left = np.stack([rand_spd(rng, 4) for _ in range(3)])
        right = np.stack([rand_spd(rng, 4) for _ in range(5)])
        D = cross_dist2(metric, left, right)
        assert D.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                assert np.isclose(
                    D[i, j], dist2(metric, left[i], right[j]),
                    rtol=1e-10, atol=1e-12,
                )

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

    def test_cross_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            cross_dist2(MetricKind.LEM, np.eye(3)[None], np.eye(4)[None])


class TestDefaultBeta:
    @pytest.mark.parametrize("metric", [MetricKind.AIM, MetricKind.LEM])
    def test_two_sample_scalar_case(self, metric):
        # dist = |log 1 - log e^2| = 2, so sigma = 2 and beta = 1/4
        samples = np.stack([np.eye(1), np.array([[np.e**2]])])
        assert abs(default_beta(metric, samples) - 0.25) <= 1e-12

    def test_coincident_samples_rejected(self):
        samples = np.stack([np.eye(3), np.eye(3)])
        with pytest.raises(DegenerateInputError):
            default_beta(MetricKind.AIM, samples)

    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            default_beta(MetricKind.AIM, np.eye(3)[None])
