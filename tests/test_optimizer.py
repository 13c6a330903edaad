"""Quotient-geometry primitives and conjugate-gradient loop tests."""

import numpy as np
import pytest

from helpers import clustered_dataset, rand_full_rank
from spdalign.errors import RankDeficientError, ValidationError
from spdalign.graphs import PairGraphs, build_graphs
from spdalign.metrics import MetricKind, default_beta
from spdalign.objective import alignment_gradient, alignment_objective
from spdalign.optimizer import (
    OptimizerConfig,
    StopReason,
    horizontal_project,
    initial_transform,
    rcg_maximize,
    retract,
    riemannian_grad,
    transport,
)


def rand_skew(rng, m):
    A = rng.standard_normal((m, m))
    return 0.5 * (A - A.T)


def fitted_instance(seed, metric=MetricKind.STEIN, n=8, m=3, classes=3, per_class=5):
    data = clustered_dataset(seed, n, classes, per_class)
    graphs = build_graphs(data, metric, v_w=2, v_b=2)
    beta = default_beta(metric, data.samples)
    W0 = initial_transform(n, m, seed)
    return data, graphs, beta, W0


class TestHorizontalProjection:
    def test_horizontal_vector_unchanged(self):
        rng = np.random.default_rng(0)
        W = rand_full_rank(rng, 7, 3)
        H = horizontal_project(W, rng.standard_normal((7, 3)))
        again = horizontal_project(W, H)
        assert np.linalg.norm(again - H) <= 1e-12 * max(1.0, np.linalg.norm(H))

    def test_vertical_vector_annihilated(self):
        rng = np.random.default_rng(1)
        W = rand_full_rank(rng, 7, 3)
        V = W @ rand_skew(rng, 3)
        assert np.linalg.norm(horizontal_project(W, V)) <= 1e-10 * np.linalg.norm(V)

    @pytest.mark.parametrize("seed", range(4))
    def test_output_in_horizontal_space(self, seed):
        rng = np.random.default_rng(seed)
        W = rand_full_rank(rng, 9, 4)
        H = horizontal_project(W, rng.standard_normal((9, 4)))
        resid = np.linalg.norm(H.T @ W - W.T @ H)
        assert resid <= 1e-9 * np.linalg.norm(H) * np.linalg.norm(W)

    def test_projection_never_expands(self):
        rng = np.random.default_rng(5)
        W = rand_full_rank(rng, 6, 2)
        H = rng.standard_normal((6, 2))
        assert np.linalg.norm(horizontal_project(W, H)) <= np.linalg.norm(H) + 1e-12


class TestRiemannianGrad:
    def test_zero_gradient_maps_to_zero(self):
        rng = np.random.default_rng(2)
        W = rand_full_rank(rng, 6, 2)
        assert np.all(riemannian_grad(W, np.zeros((6, 2))) == 0.0)

    def test_column_space_annihilated_for_orthonormal_w(self):
        W = initial_transform(6, 2, seed=3)
        g = riemannian_grad(W, W)
        assert np.linalg.norm(g) <= 1e-12

    def test_vertical_directions_carry_no_ascent(self):
        # finite differences of J along a vertical direction vanish, along the
        # projected gradient they match the gradient norm squared
        metric = MetricKind.STEIN
        data, graphs, beta, W = fitted_instance(4)
        state = alignment_objective(data, graphs, W, metric, beta)
        egrad = alignment_gradient(data, graphs, W, metric, beta, state)
        g = riemannian_grad(W, egrad)
        rng = np.random.default_rng(4)
        V = W @ rand_skew(rng, W.shape[1])
        h = 1e-6

        def J_at(M):
            return alignment_objective(data, graphs, M, metric, beta).J

        along_vertical = (J_at(W + h * V) - J_at(W - h * V)) / (2 * h)
        along_gradient = (J_at(W + h * g) - J_at(W - h * g)) / (2 * h)
        assert abs(along_vertical) <= 1e-7 * max(1.0, abs(along_gradient))
        assert along_gradient > 0


class TestRetractAndTransport:
    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(6)
        W = rand_full_rank(rng, 5, 2)
        assert np.array_equal(retract(W, rng.standard_normal((5, 2)), 0.0), W)

    def test_first_order_objective_change(self):
        metric = MetricKind.STEIN
        data, graphs, beta, W = fitted_instance(7)
        state = alignment_objective(data, graphs, W, metric, beta)
        g = riemannian_grad(
            W, alignment_gradient(data, graphs, W, metric, beta, state)
        )
        t = 1e-6
        J_t = alignment_objective(data, graphs, retract(W, g, t), metric, beta).J
        predicted = t * np.sum(g * g)
        assert abs((J_t - state.J) - predicted) <= 1e-3 * abs(predicted)

    def test_rank_loss_rejected(self):
        rng = np.random.default_rng(8)
        W = rand_full_rank(rng, 5, 2)
        with pytest.raises(RankDeficientError):
            retract(W, -W, 1.0)

    def test_transport_to_same_point_fixes_horizontal_vectors(self):
        rng = np.random.default_rng(9)
        W = rand_full_rank(rng, 7, 3)
        H = horizontal_project(W, rng.standard_normal((7, 3)))
        assert np.allclose(transport(H, W), H, atol=1e-12)

    def test_transport_lands_horizontal_and_never_expands(self):
        rng = np.random.default_rng(10)
        W = rand_full_rank(rng, 7, 3)
        H = horizontal_project(W, rng.standard_normal((7, 3)))
        W_new = retract(W, H, 1e-3)
        moved = transport(H, W_new)
        resid = np.linalg.norm(moved.T @ W_new - W_new.T @ moved)
        assert resid <= 1e-9 * np.linalg.norm(moved) * np.linalg.norm(W_new)
        assert np.linalg.norm(moved) <= np.linalg.norm(H) * (1 + 1e-6)


class TestInitialTransform:
    def test_orthonormal_columns(self):
        W = initial_transform(9, 4, seed=0)
        assert np.allclose(W.T @ W, np.eye(4), atol=1e-12)

    def test_deterministic_per_seed(self):
        assert np.array_equal(initial_transform(6, 2, 5), initial_transform(6, 2, 5))
        assert not np.array_equal(
            initial_transform(6, 2, 5), initial_transform(6, 2, 6)
        )

    def test_rejects_bad_dims(self):
        with pytest.raises(ValidationError):
            initial_transform(4, 4, seed=0)
        with pytest.raises(ValidationError):
            initial_transform(4, 0, seed=0)


class TestOptimizerConfig:
    def test_defaults_valid(self):
        cfg = OptimizerConfig()
        assert cfg.max_iters == 50 and cfg.ls_shrink == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"grad_tol": 0.0},
            {"rel_obj_tol": -1.0},
            {"ls_shrink": 1.0},
            {"ls_slope": 0.0},
            {"cg_restart_every": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            OptimizerConfig(**kwargs)


class TestRcgMaximize:
    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_trace_monotone_and_consistent(self, metric):
        data, graphs, beta, W0 = fitted_instance(0, metric=metric)
        res = rcg_maximize(data, graphs, metric, beta, W0,
                           OptimizerConfig(max_iters=15))
        assert len(res.J_trace) == res.iterations_used + 1
        assert len(res.grad_norm_trace) == len(res.J_trace)
        assert len(res.step_trace) == len(res.J_trace)
        assert np.all(np.diff(res.J_trace) >= -1e-12)
        assert res.step_trace[0] == 0.0
        assert np.all(res.step_trace[1:] > 0)

    def test_separable_data_strictly_improves(self):
        data, graphs, beta, W0 = fitted_instance(1)
        res = rcg_maximize(data, graphs, MetricKind.STEIN, beta, W0)
        assert res.iterations_used >= 5
        assert np.all(np.diff(res.J_trace[:6]) > 0)

    def test_zero_gradient_returns_immediately(self):
        # one class only: the label target centers to zero, J is constantly 0
        data = clustered_dataset(2, 5, 1, 4)
        G = np.ones((4, 4), dtype=np.uint8) - np.eye(4, dtype=np.uint8)
        graphs = PairGraphs(G, np.zeros((4, 4), dtype=np.uint8))
        W0 = initial_transform(5, 2, seed=2)
        res = rcg_maximize(data, graphs, MetricKind.AIM, 1.0, W0)
        assert res.iterations_used == 0
        assert res.stop_reason is StopReason.GRAD_TOL
        assert res.J_trace.tolist() == [0.0]
        assert np.array_equal(res.W_final, W0)

    def test_max_iters_reported(self):
        data, graphs, beta, W0 = fitted_instance(3)
        res = rcg_maximize(data, graphs, MetricKind.STEIN, beta, W0,
                           OptimizerConfig(max_iters=2))
        assert res.stop_reason is StopReason.MAX_ITERS
        assert res.iterations_used == 2

    def test_converges_with_tolerance_stop(self):
        data, graphs, beta, W0 = fitted_instance(4)
        res = rcg_maximize(data, graphs, MetricKind.STEIN, beta, W0)
        assert res.stop_reason in (StopReason.GRAD_TOL, StopReason.OBJ_TOL)
        assert res.iterations_used <= 50

    def test_fiber_invariance_of_trace(self):
        data, graphs, beta, W0 = fitted_instance(5)
        rng = np.random.default_rng(55)
        O, _ = np.linalg.qr(rng.standard_normal((W0.shape[1], W0.shape[1])))
        cfg = OptimizerConfig(max_iters=8)
        res_a = rcg_maximize(data, graphs, MetricKind.STEIN, beta, W0, cfg)
        res_b = rcg_maximize(data, graphs, MetricKind.STEIN, beta, W0 @ O, cfg)
        assert len(res_a.J_trace) == len(res_b.J_trace)
        assert np.allclose(res_a.J_trace, res_b.J_trace, atol=1e-6)

    def test_bitwise_repeatable(self):
        data, graphs, beta, W0 = fitted_instance(6)
        cfg = OptimizerConfig(max_iters=10)
        res_a = rcg_maximize(data, graphs, MetricKind.LEM, beta, W0, cfg)
        res_b = rcg_maximize(data, graphs, MetricKind.LEM, beta, W0, cfg)
        assert np.array_equal(res_a.W_final, res_b.W_final)
        assert np.array_equal(res_a.J_trace, res_b.J_trace)
        assert res_a.stop_reason is res_b.stop_reason

    def test_lem_reruns_bitwise_identical_under_allocation_churn(self):
        data, graphs, beta, W0 = fitted_instance(0, metric=MetricKind.LEM)
        cfg = OptimizerConfig(max_iters=10)
        first = rcg_maximize(data, graphs, MetricKind.LEM, beta, W0, cfg)
        rng = np.random.default_rng(0)
        held = []
        for run in range(24):
            # process state a run must not depend on: live heap blocks of odd
            # sizes, and draws from NumPy's legacy global random stream
            held.append(np.random.random_sample(int(rng.integers(1, 5000))))
            res = rcg_maximize(data, graphs, MetricKind.LEM, beta, W0, cfg)
            assert np.array_equal(res.W_final, first.W_final), f"rerun {run}"
            assert np.array_equal(res.J_trace, first.J_trace), f"rerun {run}"

    def test_final_point_no_worse_than_start(self):
        data, graphs, beta, W0 = fitted_instance(7)
        res = rcg_maximize(data, graphs, MetricKind.AIM, beta, W0,
                           OptimizerConfig(max_iters=10))
        assert res.J_trace[-1] >= res.J_trace[0]
        assert res.seconds > 0
