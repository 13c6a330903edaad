"""Training relations: symmetries of the path `train` takes.

Each test builds the neighbor graphs from the screened distances and the
bandwidth of their support pairs, then ascends by conjugate gradient, and
checks an exact symmetry of that path; a fault in indexing, scatter
positions or tie-breaking anywhere on it would break one.

- Rotation: all three distances are invariant under X -> Q X Q^T, so a
  step from Q W on the rotated samples lands on the rotated quotient point
  of the step from W.
- Permutation: reordering the samples reorders every sum, so a step from W
  lands on the same quotient point up to rounding.
- Relabelling: renaming the classes changes no computation at all, so a
  whole 30-iteration run gives a bit-identical W and J trace.

Rotation and permutation are compared one step at a time: the base run's
30 iterations are captured, and from each accepted iterate W_k (W_0
included) one fresh `rcg_maximize` step is taken on the base data and one
on the transformed data. A whole run compared only at its end amplifies
rounding by the conditioning of its trajectory (about 4x per iteration
near a saddle of J), so it would hold only on a lucky data seed; one step
from a shared iterate does not depend on that. Each pair of steps is
compared in the quotient point, the projection W (W^T W)^{-1} W^T onto
span W, and in its J trace, each to 1e-12 absolute, a tolerance fixed
before the first run.

One relation of the distances themselves, which a run on inverted samples
relies on: all three are invariant under X -> X^{-1}, so inverting every
sample leaves the graphs, the bandwidth and the baseline accuracy as they
are. Checked through `dist2`, `cross_dist2` and `pairwise_dist2` to
|d(X^{-1}, Y^{-1}) - d(X, Y)| <= 1e-10 max(1, d), also fixed before the
first run.
"""

import numpy as np
import pytest

from helpers import haar_orthonormal
from spdalign import optimizer
from spdalign.dataset import LabeledDataset
from spdalign.descriptors import SynthConfig, synth_dataset
from spdalign.graphs import build_graphs
from spdalign.matfun import symmetrize
from spdalign.metrics import (
    MetricKind, cross_dist2, default_beta, dist2, pairwise_dist2,
)
from spdalign.optimizer import OptimizerConfig, initial_transform, rcg_maximize

TOL = 1e-12
INVERSION_RTOL = 1e-10
TARGET_DIM = 4
ITERATIONS = 30
RELABEL = np.array([2, 0, 3, 1])


def graphs_and_beta(data, metric):
    graphs = build_graphs(data, metric, v_w=3, v_b=3)
    return graphs, default_beta(graphs)


def train(data, metric, W0):
    """(result, iterates): a whole run from W0, with W0 and every iterate
    the line search accepted, in order."""
    iterates = [W0]
    armijo = optimizer._armijo

    def recorded(*args):
        accepted = armijo(*args)
        if accepted is not None:
            iterates.append(accepted[1])
        return accepted

    graphs, beta = graphs_and_beta(data, metric)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_armijo", recorded)
        res = rcg_maximize(data, graphs, metric, beta, W0,
                           OptimizerConfig(max_iters=ITERATIONS))
    assert len(iterates) == res.iterations_used + 1
    return res, iterates


def steps(data, metric, starts):
    """One fresh `rcg_maximize` step from each start."""
    graphs, beta = graphs_and_beta(data, metric)
    return [rcg_maximize(data, graphs, metric, beta, W, OptimizerConfig(max_iters=1))
            for W in starts]


def projection(W):
    return W @ np.linalg.solve(W.T @ W, W.T)


def assert_same_steps(got, want, undo=lambda P: P):
    for res, base in zip(got, want, strict=True):
        undone = undo(projection(res.W_final))
        assert np.abs(undone - projection(base.W_final)).max() <= TOL
        assert res.J_trace.shape == base.J_trace.shape
        assert np.abs(res.J_trace - base.J_trace).max() <= TOL


@pytest.fixture(scope="module")
def data():
    return synth_dataset(SynthConfig(dim=12, classes=4, per_class=12, noise=0.3, seed=3))


@pytest.fixture(scope="module")
def W0(data):
    return initial_transform(data.dim, TARGET_DIM, seed=0)


@pytest.fixture(scope="module")
def base_runs(data, W0):
    return {metric: train(data, metric, W0) for metric in MetricKind}


@pytest.fixture(scope="module")
def base_steps(data, base_runs):
    return {metric: steps(data, metric, iterates)
            for metric, (_, iterates) in base_runs.items()}


@pytest.mark.parametrize("metric", list(MetricKind))
def test_rotation_moves_the_quotient_point(metric, data, base_runs, base_steps):
    Q = haar_orthonormal(np.random.default_rng(11), (data.dim, data.dim))
    rotated = LabeledDataset(symmetrize(Q @ data.samples @ Q.T), data.labels)
    got = steps(rotated, metric, [Q @ W for W in base_runs[metric][1]])
    assert_same_steps(got, base_steps[metric], undo=lambda P: Q.T @ P @ Q)


@pytest.mark.parametrize("metric", list(MetricKind))
def test_sample_order_leaves_the_quotient_point(metric, data, base_runs, base_steps):
    order = np.random.default_rng(12).permutation(data.size)
    shuffled = LabeledDataset(data.samples[order], data.labels[order])
    got = steps(shuffled, metric, base_runs[metric][1])
    assert_same_steps(got, base_steps[metric])


@pytest.mark.parametrize("metric", list(MetricKind))
def test_relabelling_is_bit_identical(metric, data, W0, base_runs):
    renamed = LabeledDataset(data.samples, RELABEL[data.labels])
    (base, _), (res, _) = base_runs[metric], train(renamed, metric, W0)
    assert np.array_equal(res.W_final, base.W_final)
    assert np.array_equal(res.J_trace, base.J_trace)


@pytest.mark.parametrize("dim", [12, 20])
@pytest.mark.parametrize("metric", list(MetricKind))
def test_distances_invariant_under_inversion(metric, dim):
    stack = synth_dataset(
        SynthConfig(dim=dim, classes=4, per_class=6, noise=0.5, seed=dim)
    ).samples
    inverted = symmetrize(np.linalg.inv(stack))
    half = len(stack) // 2

    def routes(S):
        return (pairwise_dist2(metric, S),
                cross_dist2(metric, S[:half], S[half:]),
                np.array([dist2(metric, a, b) for a, b in zip(S[:half], S[half:])]))

    for d, d_inv in zip(routes(stack), routes(inverted)):
        assert (np.abs(d_inv - d) <= INVERSION_RTOL * np.maximum(1.0, d)).all()
