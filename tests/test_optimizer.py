"""Quotient-geometry primitives and conjugate-gradient loop tests.

The horizontal projection is checked against `helpers.kronecker_projection`,
which solves its Sylvester equation as one Kronecker-form linear system by
`np.linalg.solve`, a code path `horizontal_project` does not use.
"""

import dataclasses
import itertools
import weakref

import numpy as np
import pytest

from helpers import (
    clustered_dataset, count_calls, haar_orthonormal, kronecker_projection,
    rand_full_rank,
)
from spdalign import objective, optimizer
from spdalign.errors import (
    DimMismatchError, NoConvergenceError, NumericalError, RankDeficientError,
    ValidationError,
)
from spdalign.graphs import PairGraphs, build_graphs
from spdalign.metrics import MetricKind, default_beta
from spdalign.objective import (
    AlignmentProblem, alignment_gradient, alignment_objective,
)
from spdalign.optimizer import (
    OptimizerConfig,
    StopReason,
    horizontal_project,
    initial_transform,
    rcg_maximize,
    retract,
)


def rand_skew(rng, m):
    A = rng.standard_normal((m, m))
    return 0.5 * (A - A.T)


def ill_conditioned(rng, n=10, m=4):
    """A random n x m W with singular values 1, 1e-1, 1e-2, 1e-4, so that
    cond(W^T W) = 1e8."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, m)))
    R, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return Q @ np.diag([1.0, 1e-1, 1e-2, 1e-4]) @ R


def off_orthonormal(W0, seed):
    """3 W0 M for a random invertible M: a point off the orthonormal slice."""
    rng = np.random.default_rng(seed)
    m = W0.shape[1]
    return 3.0 * W0 @ (np.eye(m) + 0.5 * rng.standard_normal((m, m)))


def fitted_instance(seed, metric=MetricKind.STEIN, n=8, m=3, classes=3, per_class=5):
    data = clustered_dataset(seed, n, classes, per_class)
    graphs = build_graphs(data, metric, v_w=2, v_b=2)
    beta = default_beta(graphs)
    W0 = initial_transform(n, m, seed)
    return data, graphs, beta, W0


class TestHorizontalProjection:
    def test_horizontal_vector_unchanged(self):
        rng = np.random.default_rng(0)
        W = rand_full_rank(rng, 7, 3)
        H = horizontal_project(W, rng.standard_normal((7, 3)))
        again = horizontal_project(W, H)
        assert np.linalg.norm(again - H) <= 1e-12 * max(1.0, np.linalg.norm(H))

        # idempotent to 1e-13 relative also at cond(W^T W) = 1e8
        rng = np.random.default_rng(0)
        W = ill_conditioned(rng)
        assert 0.5e8 <= np.linalg.cond(W.T @ W) <= 2e8
        H = horizontal_project(W, rng.standard_normal((10, 4)))
        again = horizontal_project(W, H)
        assert np.linalg.norm(again - H) <= 1e-13 * np.linalg.norm(H)

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

    @pytest.mark.parametrize("n, m", [(7, 3), (12, 4), (20, 5)])
    def test_matches_sylvester_oracle(self, n, m):
        rng = np.random.default_rng(n)
        W = rand_full_rank(rng, n, m)
        H = rng.standard_normal((n, m))
        expected = kronecker_projection(W, H)
        err = np.linalg.norm(horizontal_project(W, H) - expected)
        assert err <= 1e-12 * np.linalg.norm(expected)

    def test_matches_sylvester_oracle_ill_conditioned(self):
        rng = np.random.default_rng(0)
        W = ill_conditioned(rng)
        assert 0.5e8 <= np.linalg.cond(W.T @ W) <= 2e8
        H = rng.standard_normal((10, 4))
        expected = kronecker_projection(W, H)
        err = np.linalg.norm(horizontal_project(W, H) - expected)
        assert err <= 1e-12 * np.linalg.norm(expected)

    def test_stack_matches_single_calls_bitwise(self):
        rng = np.random.default_rng(14)
        for n, m in [(6, 1), (12, 4), (24, 20)]:
            W = rand_full_rank(rng, n, m)
            H = rng.standard_normal((2, n, m))
            stacked = horizontal_project(W, H)
            for k in range(2):
                assert np.array_equal(stacked[k], horizontal_project(W, H[k]))

    def test_nan_raises_sylvester_failure(self):
        rng = np.random.default_rng(12)
        W = rand_full_rank(rng, 7, 3)
        W[2, 1] = np.nan
        with pytest.raises(NoConvergenceError):
            horizontal_project(W, rng.standard_normal((7, 3)))

    def test_zero_column_raises_non_finite(self):
        # the zero column gives an exactly zero singular value, so the solve
        # divides by lam_i + lam_j = 0
        W = np.zeros((5, 2))
        W[:, 0] = [1.0, -2.0, 0.5, 3.0, 1.5]
        with pytest.raises(NoConvergenceError, match="produced non-finite values"):
            horizontal_project(W, np.arange(10.0).reshape(5, 2))


class TestRiemannianGrad:
    def test_ascent_gradient_is_egrad_off_orthonormal(self):
        # the Euclidean gradient is horizontal, so it is the Riemannian
        # gradient at every W, not only where W^T W = I; LEM is the metric
        # whose J is not constant along W -> WM for invertible M
        metric = MetricKind.LEM
        data, graphs, beta, W0 = fitted_instance(8, metric=metric)
        W = off_orthonormal(W0, 8)
        assert np.linalg.norm(W.T @ W - np.eye(W.shape[1])) > 1.0
        state = alignment_objective(data, graphs, W, metric, beta)
        egrad = alignment_gradient(state)
        res = rcg_maximize(data, graphs, metric, beta, W,
                           OptimizerConfig(max_iters=1))
        expected = np.linalg.norm(egrad)
        assert abs(res.grad_norm_trace[0] - expected) <= 1e-12 * expected

    def test_vertical_directions_carry_no_ascent(self):
        # finite differences of J along a vertical direction vanish, along the
        # gradient they match the gradient norm squared
        metric = MetricKind.STEIN
        data, graphs, beta, W = fitted_instance(4)
        state = alignment_objective(data, graphs, W, metric, beta)
        g = alignment_gradient(state)
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
        g = alignment_gradient(state)
        t = 1e-6
        J_t = alignment_objective(data, graphs, retract(W, g, t), metric, beta).J
        predicted = t * np.sum(g * g)
        assert abs((J_t - state.J) - predicted) <= 1e-3 * abs(predicted)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_second_order_taylor_error(self, metric):
        # |J(R_W(t xi)) - J(W) - t <egrad, xi>| is O(t^2) along a horizontal
        # xi at a non-orthonormal W: log-log slope 2 over a decade of t
        data, graphs, beta, W0 = fitted_instance(9, metric=metric)
        W = off_orthonormal(W0, 9)
        state = alignment_objective(data, graphs, W, metric, beta)
        egrad = alignment_gradient(state)
        # not seed 9: initial_transform draws W0 from that stream, and a
        # direction inside span(W) leaves the AIM and Stein objectives flat
        rng = np.random.default_rng(90)
        xi = horizontal_project(W, rng.standard_normal(W.shape))
        xi /= np.linalg.norm(xi)
        ts = np.logspace(-4, -3, 6)
        errors = [
            abs(
                alignment_objective(data, graphs, retract(W, xi, t), metric, beta).J
                - state.J
                - t * np.sum(egrad * xi)
            )
            for t in ts
        ]
        slope = np.polyfit(np.log(ts), np.log(errors), 1)[0]
        assert abs(slope - 2.0) <= 0.1, f"{metric.value}: slope {slope:.3f}"

    def test_rank_loss_rejected(self):
        rng = np.random.default_rng(8)
        W = rand_full_rank(rng, 5, 2)
        with pytest.raises(RankDeficientError):
            retract(W, -W, 1.0)

    @pytest.mark.parametrize(
        "bad, t", [(np.nan, 0.5), (np.inf, 0.5), (-np.inf, 0.0), (1e308, 10.0)],
        ids=["nan", "inf", "zero-times-inf", "overflow"],
    )
    def test_non_finite_point_is_a_numerical_error(self, bad, t):
        # a numerical failure, which the line search shrinks past, never the
        # ValidationError that a non-finite W0 or transform file raises
        rng = np.random.default_rng(8)
        W = rand_full_rank(rng, 5, 2)
        H = rng.standard_normal((5, 2))
        H[2, 1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            retract(W, H, t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_line_search_shrinks_past_non_finite_trials(self, bad):
        data, graphs, beta, W = fitted_instance(4)
        problem = AlignmentProblem.build(data, graphs, MetricKind.STEIN, beta)
        state = problem.evaluate(W)
        d = alignment_gradient(state)
        d[0, 0] = bad
        assert optimizer._armijo(problem, W, state.J, d, 1.0) is None

    def test_transport_to_same_point_fixes_horizontal_vectors(self):
        rng = np.random.default_rng(9)
        W = rand_full_rank(rng, 7, 3)
        H = horizontal_project(W, rng.standard_normal((7, 3)))
        assert np.allclose(horizontal_project(W, H), H, atol=1e-12)

    def test_transport_lands_horizontal_and_never_expands(self):
        rng = np.random.default_rng(10)
        W = rand_full_rank(rng, 7, 3)
        H = horizontal_project(W, rng.standard_normal((7, 3)))
        W_new = retract(W, H, 1e-3)
        moved = horizontal_project(W_new, H)
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

    @pytest.mark.parametrize("n, m", [(12, 4), (20, 5), (6, 2)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_frozen_route(self, n, m, seed):
        expected = haar_orthonormal(np.random.default_rng(seed), (n, m))
        assert initial_transform(n, m, seed).tobytes() == expected.tobytes()

    def test_rejects_bad_dims(self):
        with pytest.raises(ValidationError):
            initial_transform(4, 4, seed=0)
        with pytest.raises(ValidationError):
            initial_transform(4, 0, seed=0)


class TestOptimizerConfig:
    def test_defaults_valid(self):
        cfg = OptimizerConfig()
        assert dataclasses.asdict(cfg) == {
            "max_iters": 50, "grad_tol": 1e-6, "rel_obj_tol": 1e-8
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"grad_tol": 0.0},
            {"rel_obj_tol": -1.0},
            {"grad_tol": float("inf")},
            {"rel_obj_tol": float("inf")},
            {"max_iters": 2.5},
            {"max_iters": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            OptimizerConfig(**kwargs)

    def test_count_is_an_integer_by_type(self):
        # a numpy integer counts as one; a whole float or a bool does not
        assert OptimizerConfig(max_iters=np.int64(3)).max_iters == 3
        for value in (3.0, True):
            with pytest.raises(ValidationError,
                               match=f"^max_iters must be an integer, got {value}$"):
                OptimizerConfig(max_iters=value)


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
        graphs = PairGraphs(np.argwhere(np.triu(np.ones((4, 4)), k=1)), 4)
        W0 = initial_transform(5, 2, seed=2)
        res = rcg_maximize(data, graphs, MetricKind.AIM, 1.0, W0)
        assert res.iterations_used == 0
        assert res.stop_reason is StopReason.GRAD_TOL
        assert res.J_trace.tolist() == [0.0]
        assert np.array_equal(res.W_final, W0)

    @pytest.mark.parametrize("extra", [1, -8], ids=["more", "fewer"])
    def test_rejects_graphs_of_another_sample_count(self, extra):
        data, graphs, beta, W0 = fitted_instance(3)
        other = PairGraphs(graphs.pairs[graphs.pairs[:, 1] < data.size + extra],
                           data.size + extra)
        with pytest.raises(DimMismatchError, match=f"built for {data.size + extra} "):
            rcg_maximize(data, other, MetricKind.STEIN, beta, W0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_start(self, bad):
        data, graphs, beta, W0 = fitted_instance(3)
        W0 = W0.copy()
        W0[0, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            rcg_maximize(data, graphs, MetricKind.STEIN, beta, W0)

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

    # rel_obj_tol = 1 puts every step of this run under the tolerance, so
    # unforced the first step, which is full, stops it
    OBJ_TOL_CFG = OptimizerConfig(rel_obj_tol=1.0)

    def shortened_first_step(self, monkeypatch, rejection):
        """(data, graphs, beta, W0, evaluated): the instance of the ObjTol
        tests, with the first trial of iteration 1 rejected by the Armijo
        test (a shrink) or raising a NumericalError (a retry); evaluated
        lists the points evaluated."""
        data, graphs, beta, W0 = fitted_instance(4)
        base = rcg_maximize(data, graphs, MetricKind.STEIN, beta, W0, self.OBJ_TOL_CFG)
        assert base.stop_reason is StopReason.OBJ_TOL
        assert base.iterations_used == 1
        original_evaluate = objective.AlignmentProblem.evaluate
        evaluated = []

        def evaluate(problem, W):
            evaluated.append(W)
            state = original_evaluate(problem, W)
            # evaluation 1 is W0, evaluation 2 iteration 1's first trial
            if len(evaluated) != 2:
                return state
            if rejection == "retry":
                raise NumericalError("forced trial failure")
            return dataclasses.replace(state, J=-np.inf)

        monkeypatch.setattr(objective.AlignmentProblem, "evaluate", evaluate)
        return data, graphs, beta, W0, evaluated

    def assert_small_steps(self, res):
        tol = self.OBJ_TOL_CFG.rel_obj_tol
        J = res.J_trace
        assert np.all(np.abs(np.diff(J)) < tol * np.maximum(1.0, np.abs(J[1:])))

    @pytest.mark.parametrize("rejection", ["shrink", "retry"])
    def test_obj_tol_waits_for_a_full_step(self, rejection, monkeypatch):
        data, graphs, beta, W0, evaluated = self.shortened_first_step(
            monkeypatch, rejection)
        res = rcg_maximize(data, graphs, MetricKind.STEIN, beta, W0, self.OBJ_TOL_CFG)
        # iteration 1 took its second trial, half the first; its change in J
        # is under the tolerance, and it does not stop the run. Iteration 2
        # accepts its first trial, and that small full step stops it.
        t0 = 1.0 / (1.0 + res.grad_norm_trace[0])
        assert res.step_trace[1] == 0.5 * t0
        assert res.stop_reason is StopReason.OBJ_TOL
        assert res.iterations_used == 2
        assert len(evaluated) == 4
        self.assert_small_steps(res)

    def test_obj_tol_waits_out_a_fallback_to_the_gradient(self, monkeypatch):
        data, graphs, beta, W0, evaluated = self.shortened_first_step(
            monkeypatch, "shrink")
        armijo, directions = optimizer._armijo, []

        def search(problem, W, J, d, slope):
            directions.append(d)
            # iteration 2's search along the conjugate direction fails
            return None if len(directions) == 2 else armijo(problem, W, J, d, slope)

        monkeypatch.setattr(optimizer, "_armijo", search)
        res = rcg_maximize(data, graphs, MetricKind.STEIN, beta, W0, self.OBJ_TOL_CFG)
        # iteration 2 fell back to the plain gradient and accepted its first
        # trial there; only iteration 3's full step stops the run
        assert len(directions) == 4
        assert len(evaluated) == 5
        assert res.stop_reason is StopReason.OBJ_TOL
        assert res.iterations_used == 3
        self.assert_small_steps(res)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_line_search_failure_tries_each_direction_once(self, metric, monkeypatch):
        data, graphs, beta, W0 = fitted_instance(0, metric=metric)
        two = rcg_maximize(data, graphs, metric, beta, W0, OptimizerConfig(max_iters=2))
        armijo, directions = optimizer._armijo, []

        def search(problem, W, J, d, slope):
            directions.append(d)
            # iterations 1 and 2 search as usual; every later search fails
            return armijo(problem, W, J, d, slope) if len(directions) <= 2 else None

        monkeypatch.setattr(optimizer, "_armijo", search)
        res = rcg_maximize(data, graphs, metric, beta, W0)
        assert res.stop_reason is StopReason.LINE_SEARCH_FAIL
        assert res.iterations_used == 2
        assert len(res.J_trace) == 3
        assert np.array_equal(res.W_final, two.W_final)
        # iteration 3 searched along each of its candidates once
        failing = directions[2:]
        assert failing
        assert not any(np.array_equal(a, b)
                       for a, b in itertools.combinations(failing, 2))

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

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_problem_validated_once_per_run(self, metric, monkeypatch):
        data, graphs, beta, W0 = fitted_instance(0, metric=metric)
        in_objective = count_calls(monkeypatch, objective, ["check_transform"])
        in_optimizer = count_calls(
            monkeypatch, optimizer, ["check_transform", "retract"]
        )
        builds = count_calls(monkeypatch, objective.AlignmentProblem, ["build"])
        evaluated = []
        original_evaluate = objective.AlignmentProblem.evaluate

        def evaluate(problem, W):
            evaluated.append(problem)
            return original_evaluate(problem, W)

        monkeypatch.setattr(objective.AlignmentProblem, "evaluate", evaluate)
        res = rcg_maximize(data, graphs, metric, beta, W0,
                           OptimizerConfig(max_iters=5))
        trials = in_optimizer["retract"]
        assert trials >= res.iterations_used > 0
        # W0 once, then each trial once inside retract
        assert in_optimizer["check_transform"] == 1 + trials
        assert in_objective == {"check_transform": 0}
        # one problem, so one label target T and one centered_T, serves every
        # evaluation
        assert builds == {"build": 1}
        assert len(evaluated) == 1 + trials
        assert all(problem is evaluated[0] for problem in evaluated)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_no_transport_one_svd_per_check(self, metric, monkeypatch):
        data, graphs, beta, W0 = fitted_instance(0, metric=metric)
        calls = count_calls(
            monkeypatch, optimizer, ["check_transform", "horizontal_project"]
        )
        svds = count_calls(monkeypatch, np.linalg, ["svd"])
        res = rcg_maximize(data, graphs, metric, beta, W0, OptimizerConfig(
            max_iters=5, grad_tol=1e-300, rel_obj_tol=1e-300))
        assert res.stop_reason is StopReason.MAX_ITERS
        # iterations 2 to 5 combine the previous gradient and direction as
        # they are: the identity is the transport on the total space
        assert calls["horizontal_project"] == 0
        # one SVD per checked point (check_transform) and no other
        assert svds == {"svd": calls["check_transform"]}

    # at 100 times the default bandwidth the first trial steps overshoot, and
    # every metric's line search rejects some of them
    @pytest.mark.parametrize("beta_scale", [1.0, 100.0], ids=["accepted", "rejected"])
    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_no_earlier_state_alive_when_evaluate_starts(
        self, metric, beta_scale, monkeypatch
    ):
        """The loop carries J and the gradient, not the state: each state,
        with its per-pair factors, is gone before the next evaluation."""
        data, graphs, beta, W0 = fitted_instance(0, metric=metric)
        original_evaluate = objective.AlignmentProblem.evaluate
        states, alive = [], []

        def evaluate(problem, W):
            alive.append(sum(ref() is not None for ref in states))
            state = original_evaluate(problem, W)
            states.append(weakref.ref(state))
            return state

        monkeypatch.setattr(objective.AlignmentProblem, "evaluate", evaluate)
        res = rcg_maximize(data, graphs, metric, beta * beta_scale, W0,
                           OptimizerConfig(max_iters=5))
        assert res.iterations_used == 5
        assert alive == [0] * len(alive)
        if beta_scale > 1.0:
            # a state the line search did not accept
            assert len(states) > 1 + res.iterations_used

    def test_final_point_no_worse_than_start(self):
        data, graphs, beta, W0 = fitted_instance(7)
        res = rcg_maximize(data, graphs, MetricKind.AIM, beta, W0,
                           OptimizerConfig(max_iters=10))
        assert res.J_trace[-1] >= res.J_trace[0]
        assert res.seconds > 0
