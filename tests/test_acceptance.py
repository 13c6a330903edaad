"""Acceptance gate: one test per top-level acceptance criterion.

Each test states its tolerance inline and runs the full check; the pytest
-v line for each test is the pass/fail record for that criterion. The
synthetic benchmark fixture (20-dim samples, 5 classes, 20 per class,
noise 0.2) is shared between the optimizer-behavior and accuracy-gain
criteria so the 30 training runs happen once.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from spdalign.cli import main as cli_main
from spdalign.descriptors import SynthConfig, synth_dataset
from spdalign.evaluate import knn_classify, split
from spdalign.fileio import load_trace
from spdalign.graphs import build_graphs
from spdalign.matfun import dlog, symmetrize
from spdalign.metrics import MetricKind, default_beta, dist2
from spdalign.objective import alignment_gradient, alignment_objective
from spdalign.optimizer import (
    OptimizerConfig,
    StopReason,
    initial_transform,
    rcg_maximize,
)

from helpers import (
    centering_matrix, fd_gradient, graph_union, rand_full_rank, rand_spd,
    rand_sym, spd_log,
)


def make_problem(metric, seed, dim=10, target=4, classes=3, per_class=4):
    """A seeded random instance: dataset, graphs, kernel width, transform."""
    data = synth_dataset(
        SynthConfig(
            dim=dim, classes=classes, per_class=per_class, noise=0.4, seed=seed
        )
    )
    graphs = build_graphs(data, metric, v_w=2, v_b=2)
    beta = default_beta(graphs)
    W = initial_transform(dim, target, seed=seed)
    return data, graphs, beta, W


def test_analytic_gradient_matches_finite_differences():
    """Analytic gradient of the alignment objective vs central differences:
    relative error < 1e-5 on 20 seeded instances per metric
    (10-dim samples, 4-dim target, 12 samples, 3 classes), under 2 minutes."""
    started = time.perf_counter()
    worst = {}
    for metric in MetricKind:
        errors = []
        for seed in range(20):
            data, graphs, beta, W = make_problem(metric, seed)

            def objective(candidate):
                return alignment_objective(
                    data, graphs, candidate, metric, beta
                ).J

            state = alignment_objective(data, graphs, W, metric, beta)
            analytic = alignment_gradient(state)
            numeric = fd_gradient(objective, W)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            errors.append(rel)
        worst[metric.value] = max(errors)
        assert worst[metric.value] < 1e-5, (
            f"{metric.value}: worst relative gradient error "
            f"{worst[metric.value]:.3e} >= 1e-5"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"gradient check took {elapsed:.1f}s >= 120s"


def test_log_derivative_matches_finite_differences_and_fixed_points():
    """Directional derivative of the matrix log: matches central differences
    to 1e-6 relative on random 5x5 SPD inputs; dlog(X,X)=I to 1e-10;
    dlog(I,H)=H to 1e-12."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rand_spd(rng, 5, cond_spread=1.0)
        H = rand_sym(rng, 5, scale=1.0)
        analytic = dlog(X, H)
        h = 1e-5
        numeric = (spd_log(X + h * H) - spd_log(X - h * H)) / (2.0 * h)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-6, f"seed {seed}: dlog relative error {rel:.3e} >= 1e-6"

        residual_x = np.max(np.abs(dlog(X, X) - np.eye(5)))
        assert residual_x < 1e-10, (
            f"seed {seed}: dlog(X,X) deviates from identity by {residual_x:.3e}"
        )
        residual_i = np.max(np.abs(dlog(np.eye(5), H) - H))
        assert residual_i < 1e-12, (
            f"seed {seed}: dlog(I,H) deviates from H by {residual_i:.3e}"
        )


def test_metric_invariance_and_identity_properties():
    """AIM and Stein are invariant under congruence by any invertible M to
    1e-8 relative; LEM distance to the identity equals the squared Frobenius
    norm of the matrix log to 1e-10; all metrics vanish at coincidence."""
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        n = 6
        X1 = rand_spd(rng, n, cond_spread=1.2)
        X2 = rand_spd(rng, n, cond_spread=1.2)
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)))
        M = U @ np.diag(rng.uniform(0.5, 2.0, n)) @ V.T

        for metric in (MetricKind.AIM, MetricKind.STEIN):
            plain = dist2(metric, X1, X2)
            moved = dist2(
                metric,
                symmetrize(M.T @ X1 @ M),
                symmetrize(M.T @ X2 @ M),
            )
            rel = abs(plain - moved) / plain
            assert rel < 1e-8, (
                f"seed {seed} {metric.value}: congruence changes the "
                f"distance by {rel:.3e} relative"
            )

        lem_to_identity = dist2(MetricKind.LEM, X1, np.eye(n))
        log_norm = np.linalg.norm(spd_log(X1)) ** 2
        assert abs(lem_to_identity - log_norm) < 1e-10 * max(1.0, log_norm)

        for metric in MetricKind:
            assert dist2(metric, X1, X1.copy()) == 0.0


def test_objective_quotient_invariance_and_horizontal_gradient():
    """J(W) equals J(WO) to 1e-9 for random orthogonal O, and the Euclidean
    gradient, which the optimizer ascends along, is orthogonal to every
    vertical direction W@Omega to 1e-9 (normalized inner product)."""
    for metric in MetricKind:
        for seed in range(3):
            data, graphs, beta, W = make_problem(metric, 200 + seed)
            rng = np.random.default_rng(300 + seed)
            O, _ = np.linalg.qr(rng.standard_normal((W.shape[1], W.shape[1])))

            J_w = alignment_objective(data, graphs, W, metric, beta).J
            J_wo = alignment_objective(data, graphs, W @ O, metric, beta).J
            assert abs(J_w - J_wo) < 1e-9, (
                f"{metric.value} seed {seed}: J changed by "
                f"{abs(J_w - J_wo):.3e} across the fiber"
            )

            state = alignment_objective(data, graphs, W, metric, beta)
            egrad = alignment_gradient(state)
            for _ in range(5):
                A = rng.standard_normal((W.shape[1], W.shape[1]))
                omega = 0.5 * (A - A.T)
                vertical = W @ omega
                denom = np.linalg.norm(egrad) * np.linalg.norm(vertical)
                overlap = abs(np.sum(egrad * vertical)) / denom
                assert overlap < 1e-9, (
                    f"{metric.value} seed {seed}: horizontal gradient has "
                    f"vertical overlap {overlap:.3e}"
                )


@dataclass(frozen=True)
class BenchmarkRun:
    seed: int
    result: object
    target_bound: float
    baseline_accuracy: float
    learned_accuracy: float


@pytest.fixture(scope="module")
def benchmark_runs():
    """Thirty training runs (3 metrics x 10 seeds) on the shared benchmark:
    20-dim SPD samples, 5 classes, 20 per class, noise 0.2, half of each
    class for training, 5-dim target, 50-iteration budget."""
    started = time.perf_counter()
    runs = {}
    for metric in MetricKind:
        per_metric = []
        for seed in range(10):
            data = synth_dataset(
                SynthConfig(dim=20, classes=5, per_class=20, noise=0.2, seed=seed)
            )
            train, test = split(data, 0.5, seed=seed)
            graphs = build_graphs(train, metric, v_w=3, v_b=3)
            beta = default_beta(graphs)
            W0 = initial_transform(train.dim, 5, seed=seed)
            config = OptimizerConfig(max_iters=50, rel_obj_tol=2e-4)
            result = rcg_maximize(train, graphs, metric, beta, W0, config)

            onehot = np.equal.outer(
                train.labels, np.arange(train.class_count)
            ).astype(float)
            U = centering_matrix(train.size)
            target_bound = float(
                np.linalg.norm(graph_union(graphs) * (U @ onehot @ onehot.T @ U))
            )
            per_metric.append(
                BenchmarkRun(
                    seed=seed,
                    result=result,
                    target_bound=target_bound,
                    baseline_accuracy=knn_classify(train, test, metric).accuracy,
                    learned_accuracy=knn_classify(
                        train, test, metric, W=result.W_final
                    ).accuracy,
                )
            )
        runs[metric] = per_metric
    return runs, time.perf_counter() - started


def test_optimizer_converges_on_synthetic_benchmark(benchmark_runs):
    """On the shared benchmark each run's J trace is non-decreasing, J stays
    within the Cauchy-Schwarz bound set by the label target, and at least
    8 of 10 seeds per metric stop via the gradient or objective tolerance
    within the 50-iteration budget."""
    runs, _ = benchmark_runs
    converged_stops = (StopReason.GRAD_TOL, StopReason.OBJ_TOL)
    for metric, per_metric in runs.items():
        clean = 0
        for run in per_metric:
            diffs = np.diff(run.result.J_trace)
            assert np.all(diffs >= -1e-12), (
                f"{metric.value} seed {run.seed}: J trace decreased by "
                f"{diffs.min():.3e}"
            )
            assert np.all(
                run.result.J_trace <= run.target_bound + 1e-9
            ), f"{metric.value} seed {run.seed}: J exceeded its upper bound"
            if (
                run.result.stop_reason in converged_stops
                and run.result.iterations_used <= 50
            ):
                clean += 1
        assert clean >= 8, (
            f"{metric.value}: only {clean}/10 seeds stopped via gradient or "
            f"objective tolerance within 50 iterations"
        )


def test_learned_transform_improves_nearest_neighbor_accuracy(benchmark_runs):
    """Averaged over the 10 benchmark seeds, 1-NN accuracy through the
    learned transform beats 1-NN on the original manifold by at least
    5 percentage points for every metric, within a 10-minute budget."""
    runs, elapsed = benchmark_runs
    for metric, per_metric in runs.items():
        baseline = np.mean([run.baseline_accuracy for run in per_metric])
        learned = np.mean([run.learned_accuracy for run in per_metric])
        gain = 100.0 * (learned - baseline)
        assert gain >= 5.0, (
            f"{metric.value}: learned transform gains {gain:+.2f}pp over the "
            f"original manifold (baseline {100 * baseline:.2f}%), below 5pp"
        )
    assert elapsed < 600.0, f"benchmark took {elapsed:.1f}s >= 600s"


def test_per_iteration_cost_scales_linearly_in_neighbor_count():
    """Per-iteration wall time grows at most linearly in the selected pair
    count as the between-class neighbor count sweeps 1, 2, 4, 8, 16 with
    everything else fixed (355 to 2,659 pairs, 7.5x): linear fit against the
    pair count R^2 >= 0.9 and no blow-up beyond 8x from the sparsest to the
    densest graphs."""
    metric = MetricKind.STEIN
    data = synth_dataset(
        SynthConfig(dim=16, classes=5, per_class=40, noise=0.2, seed=0)
    )
    W0 = initial_transform(16, 4, seed=0)
    config = OptimizerConfig(max_iters=30, grad_tol=1e-300, rel_obj_tol=1e-300)
    sweep_graphs = [
        build_graphs(data, metric, v_w=1, v_b=v_b) for v_b in (1, 2, 4, 8, 16)
    ]
    # one bandwidth for every point of the sweep
    beta = default_beta(sweep_graphs[0])
    pair_counts = np.array([len(g.pairs) for g in sweep_graphs], dtype=float)
    # each point's time is its median over 6 round-robin rounds, with the
    # sweep order reversed on alternate rounds: a brief fast or slow phase of
    # the host moves at most a round or two of a point, which the median
    # passes over (a minimum over rounds would keep a brief fast phase whole)
    per_round = np.empty((6, len(sweep_graphs)))
    order = list(range(len(sweep_graphs)))
    for r in range(len(per_round)):
        for k in order:
            t0 = time.perf_counter()
            result = rcg_maximize(data, sweep_graphs[k], metric, beta, W0, config)
            per_round[r, k] = (time.perf_counter() - t0) / result.iterations_used
        order.reverse()
    per_iter = np.median(per_round, axis=0)

    slope, intercept = np.polyfit(pair_counts, per_iter, 1)
    fit = slope * pair_counts + intercept
    ss_res = float(np.sum((per_iter - fit) ** 2))
    ss_tot = float(np.sum((per_iter - per_iter.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    assert r_squared >= 0.9, (
        f"per-iteration time vs pair count: linear fit R^2 "
        f"{r_squared:.4f} < 0.9 (pairs {pair_counts.tolist()}, "
        f"times {per_iter.tolist()})"
    )
    ratio = per_iter[-1] / per_iter[0]
    assert ratio <= 8.0, (
        f"per-iteration time grew {ratio:.2f}x while the pair count grew "
        f"{pair_counts[-1] / pair_counts[0]:.2f}x"
    )


def test_training_runs_are_deterministic_per_seed(tmp_path):
    """Two trainings from the same manifest, config, and seed produce
    byte-identical transform files and identical objective traces."""
    corpus = tmp_path / "corpus"
    assert (
        cli_main(
            [
                "synth",
                "--output-dir",
                str(corpus),
                "--dim",
                "8",
                "--classes",
                "3",
                "--per-class",
                "6",
                "--noise",
                "0.3",
                "--seed",
                "11",
            ]
        )
        == 0
    )
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = cli_main(
            [
                "train",
                "--manifest",
                str(corpus / "manifest.txt"),
                "--output-dir",
                str(out_dir),
                "--metric",
                "aim",
                "--target-dim",
                "3",
                "--max-iters",
                "12",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        outputs.append(out_dir)

    first_w = (outputs[0] / "W.txt").read_bytes()
    second_w = (outputs[1] / "W.txt").read_bytes()
    assert first_w == second_w, "W files differ between identical runs"

    first_trace = (outputs[0] / "trace.txt").read_bytes()
    second_trace = (outputs[1] / "trace.txt").read_bytes()
    assert first_trace == second_trace, "trace files differ between runs"

    first_J = load_trace(str(outputs[0] / "trace.txt"))[:, 1]
    second_J = load_trace(str(outputs[1] / "trace.txt"))[:, 1]
    assert np.array_equal(first_J, second_J)


def test_lem_training_runs_are_deterministic_per_seed(tmp_path):
    """The same byte-identity criterion for the log-Euclidean metric, whose
    gradient runs through the matrix-log derivative."""
    corpus = tmp_path / "corpus"
    synth = ["synth", "--output-dir", str(corpus), "--dim", "8", "--classes", "3",
             "--per-class", "6", "--noise", "0.3", "--seed", "11"]
    assert cli_main(synth) == 0
    written = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        train = ["train", "--manifest", str(corpus / "manifest.txt"),
                 "--output-dir", str(out_dir), "--metric", "lem",
                 "--target-dim", "3", "--max-iters", "12", "--seed", "5"]
        assert cli_main(train) == 0
        written.append([(out_dir / f).read_bytes() for f in ("W.txt", "trace.txt")])
    assert written[0][0] == written[1][0], "W files differ between identical runs"
    assert written[0][1] == written[1][1], "trace files differ between runs"
