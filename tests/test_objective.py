"""Alignment objective and gradient tests.

Central finite differences of the objective (and of single pair similarities)
are the ground-truth oracle for every analytic gradient formula here. A
hand-rolled dense reimplementation with explicit centering matrices serves as
the independent oracle for the objective value itself.
"""

import numpy as np
import pytest

from helpers import (
    centering_matrix,
    clustered_dataset,
    count_calls,
    fd_gradient,
    grad_pairs_3d,
    graph_union,
    kernel_entry_gradient,
    kernel_sim,
    rand_full_rank,
    support_beta,
)
from spdalign import matfun
from spdalign.dataset import LabeledDataset
from spdalign.errors import (
    DegenerateAlignmentError, DimMismatchError, ValidationError,
)
from spdalign.graphs import (
    PairGraphs, build_graphs, label_similarity, neighbor_graphs,
)
from spdalign.metrics import (
    BLOCK_ENTRIES, MetricKind, _blocks, default_beta, geometry, pairwise_dist2,
)
from spdalign.objective import (
    AlignmentProblem, alignment_gradient, alignment_objective,
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
    M = np.zeros((graphs.size, graphs.size))
    i, j = graphs.pairs.T
    M[i, j] = M[j, i] = values
    return M


def direct_objective(data, graphs, W, metric, beta):
    """Dense reimplementation with explicit centering matrices."""
    N = data.size
    U = centering_matrix(N)
    G = graph_union(graphs)
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
        beta = support_beta(data, metric)
        state = alignment_objective(data, graphs, W, metric, beta)
        expected = direct_objective(data, graphs, W, metric, beta)
        assert abs(state.J - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_two_sample_two_class_value(self):
        # single between-class pair: the normalization cancels the similarity
        # scale, leaving J = <UPU, T>/||UPU|| = -1/2 for P the pair indicator
        data = clustered_dataset(0, 1, 2, 1, spread=0.0)
        graphs = PairGraphs(np.array([[0, 1]]), 2)
        state = alignment_objective(data, graphs, np.eye(1), MetricKind.LEM, 1.0)
        assert abs(state.J - (-0.5)) <= 1e-12

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_cauchy_schwarz_bound(self, metric):
        data, graphs, W = make_instance(1)
        beta = support_beta(data, metric)
        state = alignment_objective(data, graphs, W, metric, beta)
        bound = np.linalg.norm(graph_union(graphs) * label_similarity(data))
        assert state.J <= bound + 1e-12

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("seed", range(3))
    def test_orthogonal_fiber_invariance(self, metric, seed):
        data, graphs, W = make_instance(seed)
        beta = support_beta(data, metric)
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
        G = graph_union(graphs)
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

    @pytest.mark.parametrize("beta", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_beta(self, beta):
        data, graphs, W = make_instance(4)
        with pytest.raises(ValidationError, match="beta must be positive and finite"):
            alignment_objective(data, graphs, W, MetricKind.AIM, beta=beta)
        with pytest.raises(ValidationError, match="beta must be positive and finite"):
            kernel_sim(MetricKind.AIM, data.samples[0], data.samples[1], W, beta)

    @pytest.mark.parametrize("extra", [1, -8], ids=["more", "fewer"])
    def test_rejects_graphs_of_another_sample_count(self, extra):
        data, graphs, W = make_instance(4)
        other = PairGraphs(graphs.pairs[graphs.pairs[:, 1] < data.size + extra],
                           data.size + extra)
        with pytest.raises(DimMismatchError, match=f"built for {data.size + extra} "):
            alignment_objective(data, other, W, MetricKind.AIM, beta=1.0)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_problem_evaluate_equals_objective(self, metric):
        data, graphs, W = make_instance(5)
        beta = support_beta(data, metric)
        problem = AlignmentProblem.build(data, graphs, metric, beta)
        state = problem.evaluate(W)
        expected = alignment_objective(data, graphs, W, metric, beta)
        assert state.problem is problem
        assert state.J == expected.J
        for name in ("K", "L", "coeff"):
            assert np.array_equal(getattr(state, name), getattr(expected, name))


class TestKernelEntryGradient:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences(self, metric, seed):
        # n=6, m=3 per the pair-similarity gradient check
        data, _, W = make_instance(seed, n=6, m=3, per_class=2)
        beta = support_beta(data, metric)
        i, j = 0, 3
        k_ij = kernel_sim(metric, data.samples[i], data.samples[j], W, beta)
        analytic = kernel_entry_gradient(metric, i, j, W, data, beta, k_ij)
        fd = fd_gradient(
            lambda V: kernel_sim(metric, data.samples[i], data.samples[j], V, beta), W
        )
        assert np.linalg.norm(analytic - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-10)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_symmetric_in_pair_order(self, metric):
        data, _, W = make_instance(5, n=6, m=3, per_class=2)
        beta = support_beta(data, metric)
        k = kernel_sim(metric, data.samples[1], data.samples[2], W, beta)
        g_ij = kernel_entry_gradient(metric, 1, 2, W, data, beta, k)
        g_ji = kernel_entry_gradient(metric, 2, 1, W, data, beta, k)
        assert np.allclose(g_ij, g_ji, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_zero_at_coincident_samples(self, metric):
        data = clustered_dataset(6, 5, 2, 2, spread=0.0)
        # classes of identical samples: pair (0, 1) coincides
        rng = np.random.default_rng(7)
        W = rand_full_rank(rng, 5, 2)
        beta = support_beta(data, metric)
        g = kernel_entry_gradient(metric, 0, 1, W, data, beta, 1.0)
        assert np.linalg.norm(g) <= 1e-10


class TestDuplicateSample:
    """A sample that appears twice is at distance exactly 0 from its copy
    in the objective's pass: the pair's similarity is exactly 1 and its
    gradient term exactly 0, under every geometry."""

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_pair_similarity_one_and_term_zero(self, metric):
        base = clustered_dataset(9, 6, 2, 4)
        data = LabeledDataset(np.concatenate([base.samples, base.samples[:1]]),
                              np.append(base.labels, base.labels[0]))
        graphs = build_graphs(data, metric, v_w=2, v_b=2)
        # the copy is its original's nearest neighbor, so the pair is selected
        p = graphs.pairs.tolist().index([0, data.size - 1])
        W = rand_full_rank(np.random.default_rng(10), 6, 3)
        state = alignment_objective(data, graphs, W, metric,
                                    support_beta(data, metric))
        assert state.K[p] == 1.0
        i, j = graphs.pairs[p:p + 1].T
        kept = None if state.pair_factors is None else state.pair_factors[p:p + 1]
        geom = geometry(metric)
        term = geom.grad_pairs(state.B, state.factors, kept, i, j, np.ones(1),
                               geom.scatter(i, j, data.size, W.shape[1]))
        assert np.all(term == 0.0)


class TestAlignmentGradient:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, metric, seed):
        data, graphs, W = make_instance(seed)
        beta = support_beta(data, metric)
        state = alignment_objective(data, graphs, W, metric, beta)
        analytic = alignment_gradient(state)
        fd = fd_gradient(
            lambda V: alignment_objective(data, graphs, V, metric, beta).J, W
        )
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-10)
        assert rel < 1e-5

    @pytest.mark.parametrize("m", [1, 2, 20])
    def test_stein_matches_finite_differences_across_target_dims(self, m):
        # m = 1 has no row step past the diagonal; at m = 20 the 10-sample
        # stack of factors holds fewer matrices than rows
        data, graphs, W = make_instance(31 + m, n=m + 2, m=m)
        beta = support_beta(data, MetricKind.STEIN)
        state = alignment_objective(data, graphs, W, MetricKind.STEIN, beta)
        analytic = alignment_gradient(state)
        fd = fd_gradient(
            lambda V: alignment_objective(data, graphs, V, MetricKind.STEIN, beta).J, W
        )
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-10)
        assert rel < 1e-5

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_gradient_step_ascends(self, metric):
        data, graphs, W = make_instance(11)
        beta = support_beta(data, metric)
        state = alignment_objective(data, graphs, W, metric, beta)
        g = alignment_gradient(state)
        h = 1e-6 / max(np.linalg.norm(g), 1.0)
        J_up = alignment_objective(data, graphs, W + h * g, metric, beta).J
        assert J_up > state.J

    def test_single_pair_objective_is_flat(self):
        # one selected pair gives J invariant to the similarity scale, so the
        # gradient must vanish; finite differences agree
        data = clustered_dataset(12, 4, 2, 1, spread=0.0)
        graphs = PairGraphs(np.array([[0, 1]]), 2)
        rng = np.random.default_rng(13)
        W = rand_full_rank(rng, 4, 2)
        state = alignment_objective(data, graphs, W, MetricKind.LEM, 1.0)
        g = alignment_gradient(state)
        assert np.linalg.norm(g) <= 1e-12

    def test_single_class_gradient_is_zero(self):
        data = clustered_dataset(14, 4, 1, 4)
        graphs = PairGraphs(np.argwhere(np.triu(np.ones((4, 4)), k=1)), 4)
        rng = np.random.default_rng(15)
        W = rand_full_rank(rng, 4, 2)
        state = alignment_objective(data, graphs, W, MetricKind.AIM, 1.0)
        assert state.J == 0.0
        g = alignment_gradient(state)
        assert np.all(g == 0.0)

    def test_bitwise_deterministic(self):
        data, graphs, W = make_instance(17)
        beta = support_beta(data, MetricKind.LEM)
        state = alignment_objective(data, graphs, W, MetricKind.LEM, beta)
        g1 = alignment_gradient(state)
        g2 = alignment_gradient(state)
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
        beta = support_beta(data, metric)
        state = alignment_objective(data, graphs, W, metric, beta)
        expected = direct_objective(data, graphs, W, metric, beta)
        assert abs(state.J - expected) <= 1e-12 * max(1.0, abs(expected))

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_gradient_matches_sum_of_pair_gradients(self, instance, metric):
        data, graphs, W = instance
        beta = support_beta(data, metric)
        state = alignment_objective(data, graphs, W, metric, beta)
        expected = np.zeros_like(W)
        for p, (i, j) in enumerate(graphs.pairs):
            expected += (2.0 * state.coeff[p]) * kernel_entry_gradient(
                metric, i, j, W, data, beta, state.K[p]
            )
        g = alignment_gradient(state)
        assert np.linalg.norm(g - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_grad_pairs_equals_3d_accumulation(self, instance, metric):
        # the flat 1-D accumulation adds each entry's terms in the same order
        # as whole-matrix adds per sample, so the two agree bit for bit
        data, graphs, W = instance
        beta = support_beta(data, metric)
        state = alignment_objective(data, graphs, W, metric, beta)
        geom = geometry(metric)
        i, j = graphs.pairs.T
        args = (state.B, state.factors, state.pair_factors, i, j, state.coeff)
        scatter = geom.scatter(i, j, data.size, W.shape[1])
        assert np.array_equal(geom.grad_pairs(*args, scatter),
                              grad_pairs_3d(geom, *args))

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_gradient_matches_finite_differences(self, instance, metric):
        data, graphs, W = instance
        beta = support_beta(data, metric)
        state = alignment_objective(data, graphs, W, metric, beta)
        analytic = alignment_gradient(state)
        fd = fd_gradient(
            lambda V: alignment_objective(data, graphs, V, metric, beta).J, W
        )
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-10)
        assert rel < 1e-6

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_gradient_decomposes_no_sample_stack(self, instance, metric, monkeypatch):
        # the state carries the factored samples and the per-pair factors
        # (AIM's whitened pair logs, Stein's midpoint Cholesky factors): the
        # gradient decomposes nothing, and Stein builds its inverses from the
        # Cholesky factors, one of the sample stack and one per block of
        # midpoints
        data, graphs, W = instance
        beta = support_beta(data, metric)
        state = alignment_objective(data, graphs, W, metric, beta)
        calls = count_calls(monkeypatch, np.linalg, ["eigh", "cholesky", "inv"])
        chol_invs = count_calls(monkeypatch, matfun, ["chol_inv"])
        alignment_gradient(state)
        blocks = len(list(_blocks(len(graphs.pairs), W.shape[1] ** 2)))
        assert blocks > 1
        assert calls == {"eigh": 0, "cholesky": 0, "inv": 0}
        expected = 1 + blocks if metric is MetricKind.STEIN else 0
        assert chol_invs == {"chol_inv": expected}

    def test_aim_decomposes_no_sample_stack(self, instance, monkeypatch):
        # AIM factors each stack by Cholesky: no distance pass, objective
        # evaluation or gradient hands eigh or eigvalsh a sample stack, only
        # blocks of whitened pairs, none of which holds N pairs here
        data, graphs, W = instance
        aim, N = MetricKind.AIM, data.size
        for count, dim in ((N * (N - 1) // 2, data.dim),
                           (len(graphs.pairs), W.shape[1])):
            assert N not in [len(range(count)[blk]) for blk in _blocks(count, dim ** 2)]
        seen = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recorded(a, *args, _original=original, **kwargs):
                seen.append(np.shape(a)[:-2])
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        beta = default_beta(neighbor_graphs(data, pairwise_dist2(aim, data), 2, 2))
        state = alignment_objective(data, graphs, W, aim, beta)
        alignment_gradient(state)
        assert seen and all(shape != (N,) for shape in seen)
