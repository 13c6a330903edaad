"""Alignment objective and gradient tests.

Central finite differences of the objective (and of single pair similarities)
are the ground-truth oracle for every analytic gradient formula here. A
hand-rolled dense reimplementation with explicit centering matrices serves as
the independent oracle for the objective value itself.
"""

import numpy as np
import pytest

from helpers import clustered_dataset, fd_gradient, rand_full_rank
from spdalign.errors import DegenerateAlignmentError, ValidationError
from spdalign.graphs import PairGraphs, build_graphs, centering_matrix, label_similarity
from spdalign.metrics import BLOCK_ENTRIES, MetricKind, default_beta, kernel_sim
from spdalign.objective import (
    alignment_gradient,
    alignment_objective,
    build_grad_context,
    kernel_entry_gradient,
)

ALL_METRICS = list(MetricKind)


def make_instance(seed, n=7, m=3, classes=2, per_class=5, v_w=2, v_b=2):
    data = clustered_dataset(seed, n, classes, per_class)
    graphs = build_graphs(data, MetricKind.LEM, v_w=v_w, v_b=v_b)
    rng = np.random.default_rng(seed + 1000)
    W = rand_full_rank(rng, n, m)
    return data, graphs, W


def scatter_pairs(graphs, values):
    """Symmetric N x N matrix holding per-pair values on the support of G."""
    N = graphs.Gw.shape[0]
    M = np.zeros((N, N))
    i, j = graphs.pairs.T
    M[i, j] = M[j, i] = values
    return M


def direct_objective(data, graphs, W, metric, beta):
    """Dense reimplementation with explicit centering matrices."""
    N = data.size
    U = centering_matrix(N)
    G = graphs.union
    K = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            if G[i, j]:
                K[i, j] = kernel_sim(metric, data.samples[i], data.samples[j], W, beta)
    L = U @ (G * K) @ U
    T = G * label_similarity(data)
    return float(np.sum(L * T)) / np.linalg.norm(L)


class TestObjectiveValue:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_matches_dense_reimplementation(self, metric):
        data, graphs, W = make_instance(0)
        beta = default_beta(metric, data.samples)
        state = alignment_objective(data, graphs, W, metric, beta)
        expected = direct_objective(data, graphs, W, metric, beta)
        assert abs(state.J - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_two_sample_two_class_value(self):
        # single between-class pair: the normalization cancels the similarity
        # scale, leaving J = <UPU, T>/||UPU|| = -1/2 for P the pair indicator
        data = clustered_dataset(0, 1, 2, 1, spread=0.0)
        graphs = PairGraphs(
            np.zeros((2, 2), dtype=np.uint8),
            np.array([[0, 1], [1, 0]], dtype=np.uint8),
        )
        state = alignment_objective(data, graphs, np.eye(1), MetricKind.LEM, 1.0)
        assert abs(state.J - (-0.5)) <= 1e-12

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_cauchy_schwarz_bound(self, metric):
        data, graphs, W = make_instance(1)
        beta = default_beta(metric, data.samples)
        state = alignment_objective(data, graphs, W, metric, beta)
        bound = np.linalg.norm(graphs.union * label_similarity(data))
        assert state.J <= bound + 1e-12

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("seed", range(3))
    def test_orthogonal_fiber_invariance(self, metric, seed):
        data, graphs, W = make_instance(seed)
        beta = default_beta(metric, data.samples)
        rng = np.random.default_rng(seed + 99)
        O, _ = np.linalg.qr(rng.standard_normal((W.shape[1], W.shape[1])))
        J0 = alignment_objective(data, graphs, W, metric, beta).J
        J1 = alignment_objective(data, graphs, W @ O, metric, beta).J
        assert abs(J1 - J0) <= 1e-9 * max(1.0, abs(J0))

    def test_state_shapes_and_masking(self):
        # the state is per pair; scattered onto G it must match the dense
        # centering with explicit matrices
        data, graphs, W = make_instance(2)
        state = alignment_objective(data, graphs, W, MetricKind.STEIN, 1.0)
        G = graphs.union
        i, j = graphs.pairs.T
        for per_pair in (state.K, state.L, state.coeff):
            assert per_pair.shape == (len(graphs.pairs),)
        K = scatter_pairs(graphs, state.K)
        coeff = scatter_pairs(graphs, state.coeff)
        assert np.array_equal(K, K.T)
        assert np.all(K[G == 0] == 0)
        assert np.all(np.diag(K) == 0)
        assert np.all(coeff[G == 0] == 0)
        assert np.allclose(coeff, coeff.T, atol=0)
        U = centering_matrix(data.size)
        L = U @ (G * K) @ U
        assert np.allclose(state.L, L[i, j], atol=1e-13)
        assert abs(state.norm_L - np.linalg.norm(L)) <= 1e-13 * np.linalg.norm(L)
        T = G * label_similarity(data)
        dense_coeff = G * (
            U @ (T / state.norm_L - (state.J / state.norm_L**2) * L) @ U
        )
        assert np.allclose(state.coeff, dense_coeff[i, j], rtol=0, atol=1e-13)

    def test_underflowed_similarities_degenerate(self):
        data, graphs, W = make_instance(3)
        with pytest.raises(DegenerateAlignmentError):
            alignment_objective(data, graphs, W, MetricKind.LEM, beta=1e8)

    def test_rejects_nonpositive_beta(self):
        data, graphs, W = make_instance(4)
        with pytest.raises(ValidationError):
            alignment_objective(data, graphs, W, MetricKind.AIM, beta=-1.0)


class TestKernelEntryGradient:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences(self, metric, seed):
        # n=6, m=3 per the pair-similarity gradient check
        data, _, W = make_instance(seed, n=6, m=3, per_class=2)
        beta = default_beta(metric, data.samples)
        i, j = 0, 3
        ctx = build_grad_context(data, W, metric)
        k_ij = kernel_sim(metric, data.samples[i], data.samples[j], W, beta)
        analytic = kernel_entry_gradient(metric, i, j, W, ctx, beta, k_ij)
        fd = fd_gradient(
            lambda V: kernel_sim(metric, data.samples[i], data.samples[j], V, beta), W
        )
        assert np.linalg.norm(analytic - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-10)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_symmetric_in_pair_order(self, metric):
        data, _, W = make_instance(5, n=6, m=3, per_class=2)
        beta = default_beta(metric, data.samples)
        ctx = build_grad_context(data, W, metric)
        k = kernel_sim(metric, data.samples[1], data.samples[2], W, beta)
        g_ij = kernel_entry_gradient(metric, 1, 2, W, ctx, beta, k)
        g_ji = kernel_entry_gradient(metric, 2, 1, W, ctx, beta, k)
        assert np.allclose(g_ij, g_ji, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_zero_at_coincident_samples(self, metric):
        data = clustered_dataset(6, 5, 2, 2, spread=0.0)
        # classes of identical samples: pair (0, 1) coincides
        rng = np.random.default_rng(7)
        W = rand_full_rank(rng, 5, 2)
        ctx = build_grad_context(data, W, metric)
        beta = default_beta(metric, data.samples)
        g = kernel_entry_gradient(metric, 0, 1, W, ctx, beta, 1.0)
        assert np.linalg.norm(g) <= 1e-10

    def test_stale_context_rejected(self):
        data, _, W = make_instance(8, n=6, m=3, per_class=2)
        ctx = build_grad_context(data, W, MetricKind.AIM)
        with pytest.raises(ValidationError):
            kernel_entry_gradient(MetricKind.AIM, 0, 1, 2.0 * W, ctx, 1.0, 0.5)

    def test_metric_mismatch_rejected(self):
        data, _, W = make_instance(9, n=6, m=3, per_class=2)
        ctx = build_grad_context(data, W, MetricKind.AIM)
        with pytest.raises(ValidationError):
            kernel_entry_gradient(MetricKind.LEM, 0, 1, W, ctx, 1.0, 0.5)


class TestAlignmentGradient:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, metric, seed):
        data, graphs, W = make_instance(seed)
        beta = default_beta(metric, data.samples)
        state = alignment_objective(data, graphs, W, metric, beta)
        analytic = alignment_gradient(data, graphs, W, metric, beta, state)
        fd = fd_gradient(
            lambda V: alignment_objective(data, graphs, V, metric, beta).J, W
        )
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-10)
        assert rel < 1e-5

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_gradient_step_ascends(self, metric):
        data, graphs, W = make_instance(11)
        beta = default_beta(metric, data.samples)
        state = alignment_objective(data, graphs, W, metric, beta)
        g = alignment_gradient(data, graphs, W, metric, beta, state)
        h = 1e-6 / max(np.linalg.norm(g), 1.0)
        J_up = alignment_objective(data, graphs, W + h * g, metric, beta).J
        assert J_up > state.J

    def test_single_pair_objective_is_flat(self):
        # one selected pair gives J invariant to the similarity scale, so the
        # gradient must vanish; finite differences agree
        data = clustered_dataset(12, 4, 2, 1, spread=0.0)
        graphs = PairGraphs(
            np.zeros((2, 2), dtype=np.uint8),
            np.array([[0, 1], [1, 0]], dtype=np.uint8),
        )
        rng = np.random.default_rng(13)
        W = rand_full_rank(rng, 4, 2)
        state = alignment_objective(data, graphs, W, MetricKind.LEM, 1.0)
        g = alignment_gradient(data, graphs, W, MetricKind.LEM, 1.0, state)
        assert np.linalg.norm(g) <= 1e-12

    def test_single_class_gradient_is_zero(self):
        data = clustered_dataset(14, 4, 1, 4)
        G = np.ones((4, 4), dtype=np.uint8) - np.eye(4, dtype=np.uint8)
        graphs = PairGraphs(G, np.zeros((4, 4), dtype=np.uint8))
        rng = np.random.default_rng(15)
        W = rand_full_rank(rng, 4, 2)
        state = alignment_objective(data, graphs, W, MetricKind.AIM, 1.0)
        assert state.J == 0.0
        g = alignment_gradient(data, graphs, W, MetricKind.AIM, 1.0, state)
        assert np.all(g == 0.0)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_reuses_supplied_context(self, metric):
        data, graphs, W = make_instance(16)
        beta = default_beta(metric, data.samples)
        state = alignment_objective(data, graphs, W, metric, beta)
        ctx = build_grad_context(data, W, metric)
        g1 = alignment_gradient(data, graphs, W, metric, beta, state, ctx=ctx)
        g2 = alignment_gradient(data, graphs, W, metric, beta, state)
        assert np.array_equal(g1, g2)

    def test_bitwise_deterministic(self):
        data, graphs, W = make_instance(17)
        beta = default_beta(MetricKind.LEM, data.samples)
        state = alignment_objective(data, graphs, W, MetricKind.LEM, beta)
        g1 = alignment_gradient(data, graphs, W, MetricKind.LEM, beta, state)
        g2 = alignment_gradient(data, graphs, W, MetricKind.LEM, beta, state)
        assert np.array_equal(g1, g2)


class TestMultiBlock:
    """A pair list long enough to cross several kernel blocks."""

    @pytest.fixture(scope="class")
    def instance(self):
        # m=7 gives BLOCK_ENTRIES // 49 pairs per block; 2 x 30 samples with
        # v_w = v_b = 29 give about 1,770 pairs
        data, graphs, W = make_instance(21, n=9, m=7, per_class=30, v_w=29, v_b=29)
        assert len(graphs.pairs) > 2 * (BLOCK_ENTRIES // W.shape[1] ** 2)
        return data, graphs, W

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_value_matches_dense_reimplementation(self, instance, metric):
        data, graphs, W = instance
        beta = default_beta(metric, data.samples)
        state = alignment_objective(data, graphs, W, metric, beta)
        expected = direct_objective(data, graphs, W, metric, beta)
        assert abs(state.J - expected) <= 1e-12 * max(1.0, abs(expected))

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_gradient_matches_sum_of_pair_gradients(self, instance, metric):
        data, graphs, W = instance
        beta = default_beta(metric, data.samples)
        state = alignment_objective(data, graphs, W, metric, beta)
        ctx = build_grad_context(data, W, metric)
        expected = np.zeros_like(W)
        for p, (i, j) in enumerate(graphs.pairs):
            expected += (2.0 * state.coeff[p]) * kernel_entry_gradient(
                metric, i, j, W, ctx, beta, state.K[p]
            )
        g = alignment_gradient(data, graphs, W, metric, beta, state, ctx=ctx)
        assert np.linalg.norm(g - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_gradient_matches_finite_differences(self, instance, metric):
        data, graphs, W = instance
        beta = default_beta(metric, data.samples)
        state = alignment_objective(data, graphs, W, metric, beta)
        analytic = alignment_gradient(data, graphs, W, metric, beta, state)
        fd = fd_gradient(
            lambda V: alignment_objective(data, graphs, V, metric, beta).J, W
        )
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-10)
        assert rel < 1e-6
