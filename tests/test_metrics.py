"""Distance, similarity, and congruence-map tests.

Frozen scalar oracles:
- Stein on 1x1 inputs (1) and (3): ln 2 - 0.5 ln 3 = 0.1438410362258904
- affine-invariant and log-Euclidean dist2(I, diag(e,e)) = 2
- exp(-2) = 0.1353352832366127
"""

import os
import signal

import numpy as np
import pytest

from helpers import (
    count_calls,
    kernel_sim,
    rand_spd,
    rand_full_rank,
    ref_shaped_dataset,
    transformed_dist2,
)
from spdalign import matfun, metrics
from spdalign.errors import (
    DegenerateInputError,
    DimMismatchError,
    NonSymmetricError,
    NotPositiveDefiniteError,
    RankDeficientError,
    ValidationError,
)
from spdalign.metrics import (
    BLOCK_ENTRIES,
    MetricKind,
    _blocks,
    _side,
    bandwidth,
    check_transform,
    cross_dist2,
    default_beta,
    dist2,
    factored,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        # mapped through W it would come back as NaN, with a warning only
        stack = np.stack([np.eye(3)] * 3)
        stack[1, 0, 1] = stack[1, 1, 0] = bad
        with pytest.raises(ValidationError, match="^sample 1 holds a non-finite"):
            map_down(stack, np.eye(3)[:, :2])
        with pytest.raises(ValidationError, match="^sample holds a non-finite"):
            map_down(stack[1], np.eye(3)[:, :2])

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
        # inverse for Stein, no X^{1/2} or X^{-1} for AIM, whose whitened
        # pairs take eigvalsh, so eigh runs once per factored stack
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
        stacks = 2 if driver == "cross" else 1
        eighs = 0 if metric is MetricKind.STEIN else stacks
        assert linalg == {"eigh": eighs, "inv": 0}
        assert applied == {"eig_apply": stacks if metric is MetricKind.LEM else 0}

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
        with pytest.raises(NotPositiveDefiniteError, match=r"whitened pair \[0 0\]"):
            cross_dist2(MetricKind.AIM, rows, cols)
        with pytest.raises(NotPositiveDefiniteError, match="whitened pair"):
            dist2(MetricKind.AIM, rows[0], cols[0])


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
            bound, tau = geom.lower_bound(side, i, j)
            # the log-Euclidean kernel's own values on the stack whitened by
            # its log-Euclidean mean G: Z_k = C X_k C with C = exp(-G/2)
            Z = geom.whiten_by_log_mean(side)[0]
            assert np.array_equal(bound, indexed_dist2(MetricKind.LEM, Z, i, j))
            G = np.mean([matfun.spd_log(X) for X in scaled], axis=0)
            C = matfun.spd_exp(-0.5 * G)
            assert np.allclose(Z, C @ scaled @ C, rtol=0.0,
                               atol=1e-9 * np.abs(Z).max())
            assert np.array_equal(tau, geom.lower_bound(side, j, i)[1])
            d, _ = geom.dist2_pairs(side, side, i, j)
            assert np.all(np.sqrt(bound) - tau <= np.sqrt(d))

    def test_unusable_whitened_sample_rules_out_nothing(self):
        # factors of the identity whiten by C = I, so the stack is its own
        # whitened frame: an indefinite and a NaN sample must give an
        # infinite margin, not an error or a NaN floor
        geom = geometry(MetricKind.AIM)
        eye = np.eye(2)
        stack = np.stack([eye, 2.0 * eye, np.diag([1.0, -1.0]),
                          np.full((2, 2), np.nan)])
        side = (stack, (None, np.ones((4, 2)), np.broadcast_to(eye, (4, 2, 2))))
        _, logs, spread, spread_g = geom.whiten_by_log_mean(side)
        assert np.isfinite(logs).all() and spread_g == 1.0
        assert np.array_equal(spread, [1.0, 1.0, np.inf, np.inf])
        i, j = np.triu_indices(4, k=1)
        bound, tau = geom.lower_bound(side, i, j)
        assert np.isfinite(bound).all()
        usable = (i < 2) & (j < 2)
        assert np.isfinite(tau[usable]).all() and np.isinf(tau[~usable]).all()
        assert np.all(np.sqrt(bound[~usable]) - tau[~usable] == -np.inf)

    def test_margin_covers_ill_conditioned_pairs(self):
        rng = np.random.default_rng(3)
        scale = np.diag(np.geomspace(1.0, 1e-4, 12))
        stack = np.stack([scale @ rand_spd(rng, 12) @ scale for _ in range(4)])
        i, j = np.triu_indices(4, k=1)
        geom, side = factored(MetricKind.AIM, stack)
        bound, tau = geom.lower_bound(side, i, j)
        # eigenvalue spreads near 1e8 put the floor below zero: no pair can
        # be ruled out
        assert np.all(np.sqrt(bound) - tau < 0.0)

    @pytest.mark.parametrize("metric", [MetricKind.STEIN, MetricKind.LEM])
    def test_only_aim_has_a_bound(self, metric):
        stack = np.stack([np.eye(2), 2.0 * np.eye(2)])
        geom, side = factored(metric, stack)
        assert geom.lower_bound(side, np.array([0]), np.array([1])) is None


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
        assert len(list(_blocks(5000, 2))) > 1
        side = (stack, (np.zeros(10), None))
        with pytest.raises(NotPositiveDefiniteError, match=r"midpoint \[3 7\]"):
            geometry(MetricKind.STEIN).dist2_pairs(side, side, i, j, keep=True)


class TestDistancePass:
    """`Geometry.dist2_pairs` is the one block loop over distance pairs; with
    `keep` set it also returns the per-pair factors the gradient reads."""

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_support_pass_equals_distance_pass(self, metric):
        stack = TestSteinFactors.stack()
        geom = geometry(metric)
        side = _side(geom, stack, "sample")
        i, j = np.triu_indices(len(stack), k=1)
        assert len(list(_blocks(len(i), stack.shape[-1]))) > 1
        d, kept = geom.dist2_pairs(side, side, i, j, keep=True)
        distance_only, none = geom.dist2_pairs(side, side, i, j)
        assert none is None
        assert np.array_equal(distance_only, indexed_dist2(metric, stack, i, j))
        if metric is MetricKind.AIM:
            # whitened by the left sample, not the sorted-first one: the same
            # distance up to rounding, and the log of each left-whitened pair
            inv_sqrt = side[1][0]
            M = matfun.symmetrize(inv_sqrt[i] @ stack[j] @ inv_sqrt[i])
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


class TestPooledPass:
    """AIM computes the blocks of a pass of more than one block on one
    thread per CPU, the calling thread and a pool; the calling thread writes
    them in block order, so a pass gives what the serial loop gives, bit
    for bit."""

    @staticmethod
    def passes(metric, stack):
        """The distance functions and the objective's `keep` pass on a stack
        whose every pass spans several blocks."""
        i, j = np.triu_indices(len(stack), k=1)
        geom, side = factored(metric, stack)
        d, kept = geom.dist2_pairs(side, side, i, j, keep=True)
        return [pairwise_dist2(metric, stack),
                cross_dist2(metric, stack[:25], stack[25:]),
                indexed_dist2(metric, stack, j, i), d, kept]

    @staticmethod
    def workers(monkeypatch, count):
        monkeypatch.setattr(metrics, "_workers", lambda: count)

    def test_one_worker_is_bit_identical(self, monkeypatch):
        stack = ref_shaped_dataset(seed=31).samples
        assert len(_blocks(25 * 25, stack.shape[-1])) >= 3  # the smallest pass
        calls = count_calls(monkeypatch, metrics, ["_pool"])
        self.workers(monkeypatch, 2)
        pooled = self.passes(MetricKind.AIM, stack)
        assert calls["_pool"] == 4
        self.workers(monkeypatch, 1)
        serial = self.passes(MetricKind.AIM, stack)
        assert calls["_pool"] == 4
        for got, want in zip(pooled, serial):
            assert got.tobytes() == want.tobytes()

    # 1-based blocks of the two unfloored pairs; with two threads the
    # calling thread computes blocks 1, 3 and 5, the pool blocks 2 and 4
    @pytest.mark.parametrize("first, second", [(2, 4), (3, 4)])
    def test_first_failing_block_named(self, first, second, monkeypatch):
        """Unfloored pairs in two blocks: the pooled pass raises the serial
        pass's error, which names the pair of the earlier block."""
        rng = np.random.default_rng(3)
        bad = TestArgumentOrder.unfloored_pair()
        stack = np.concatenate(
            [np.stack([rand_spd(rng, 2) for _ in range(20)]), bad, bad]
        )
        step = BLOCK_ENTRIES // 4
        i = rng.integers(20, size=5 * step)
        j = (i + rng.integers(1, 20, size=i.size)) % 20
        i[(first - 1) * step + 7], j[(first - 1) * step + 7] = 20, 21
        i[(second - 1) * step + 3], j[(second - 1) * step + 3] = 23, 22
        assert len(_blocks(i.size, 2)) == 5
        self.workers(monkeypatch, 1)
        with pytest.raises(NotPositiveDefiniteError) as serial:
            indexed_dist2(MetricKind.AIM, stack, i, j)
        assert str(serial.value).startswith("whitened pair [20 21] has min eigenvalue")
        calls = count_calls(monkeypatch, metrics, ["_pool"])
        self.workers(monkeypatch, 2)
        with pytest.raises(NotPositiveDefiniteError) as pooled:
            indexed_dist2(MetricKind.AIM, stack, i, j)
        assert calls["_pool"] == 1
        assert str(pooled.value) == str(serial.value)
        assert pooled.value.index == serial.value.index

    @pytest.mark.parametrize("metric", [MetricKind.STEIN, MetricKind.LEM])
    def test_only_aim_builds_the_pool(self, metric, monkeypatch):
        calls = count_calls(monkeypatch, metrics, ["_pool"])
        self.workers(monkeypatch, 2)
        self.passes(metric, ref_shaped_dataset(seed=31).samples)
        assert calls["_pool"] == 0

    def test_one_block_stays_serial(self, monkeypatch):
        stack = ref_shaped_dataset(seed=31).samples[:9]
        assert len(_blocks(36, stack.shape[-1])) == 1
        calls = count_calls(monkeypatch, metrics, ["_pool"])
        self.workers(monkeypatch, 2)
        pairwise_dist2(MetricKind.AIM, stack)
        dist2(MetricKind.AIM, stack[0], stack[1])
        assert calls["_pool"] == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    # fork() in a process with threads warns from Python 3.12 on; dropping
    # the pool in the child is what makes that fork safe here
    @pytest.mark.filterwarnings("ignore:This process .*multi-threaded:DeprecationWarning")
    def test_forked_child_runs_a_pooled_pass(self, monkeypatch):
        self.workers(monkeypatch, 2)
        stack = ref_shaped_dataset(seed=31).samples
        want = pairwise_dist2(MetricKind.AIM, stack)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # a pass left waiting on the parent's threads ends the child
                signal.alarm(20)
                got = pairwise_dist2(MetricKind.AIM, stack)
                code = 0 if got.tobytes() == want.tobytes() else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status), f"child ended by signal {os.WTERMSIG(status)}"
        assert os.WEXITSTATUS(status) == 0


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


class TestBandwidthInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_distance_rejected(self, bad):
        # a NaN, infinite or negative distance would give a NaN or infinite
        # bandwidth, which training would then use
        D = pairwise_dist2(MetricKind.LEM, np.stack([np.eye(2), 2 * np.eye(2),
                                                     3 * np.eye(2)]))
        D[0, 2] = D[2, 0] = bad
        with pytest.raises(ValidationError, match="non-finite or negative"):
            bandwidth(D)


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
        full = np.stack([matfun.spd_log(X) for X in stack])
        scale = np.abs(full).max()
        assert np.abs(upper - full[:, rows, cols]).max() <= 64 * n * EPS * scale

    @pytest.mark.parametrize("n", DIMS)
    def test_coincident_samples_give_exact_zero(self, n):
        stack = self.stack(n)
        twice = np.concatenate([stack, stack])
        k = np.arange(len(stack))
        assert np.all(indexed_dist2(MetricKind.LEM, twice, k, k + len(stack)) == 0.0)
        assert np.all(np.diag(cross_dist2(MetricKind.LEM, stack, stack)) == 0.0)
        assert dist2(MetricKind.LEM, stack[0], stack[0].copy()) == 0.0

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

    @pytest.mark.parametrize("n", DIMS)
    def test_agrees_with_full_log_difference(self, n):
        # each log entry carries rounding of order n eps ||log X||_F, so the
        # squared norm of a difference agrees to n eps (||L_i|| + ||L_j||)^2;
        # the factor 64 leaves room for the eigensolver's constant
        stack = self.stack(n)
        i, j = np.triu_indices(len(stack), k=1)
        d = indexed_dist2(MetricKind.LEM, stack, i, j)
        logs = [matfun.spd_log(X) for X in stack]
        for p in range(len(i)):
            Li, Lj = logs[i[p]], logs[j[p]]
            reference = np.sum((Li - Lj) ** 2)
            size = np.linalg.norm(Li) + np.linalg.norm(Lj)
            assert abs(d[p] - reference) <= 64 * n * EPS * size**2
