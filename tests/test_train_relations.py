"""Whole-train relations: symmetries of a complete training run.

Each test trains from the samples to W_final along the path `train` takes
(pairwise distances, bandwidth, neighbor graphs, conjugate gradient ascent),
then checks an exact symmetry of that run; a fault in indexing, scatter
positions or tie-breaking anywhere on the path would break one.

- Rotation: all three distances are invariant under X -> Q X Q^T, so
  starting from Q W0 the run lands on the rotated quotient point.
- Permutation: reordering the samples reorders every sum, so the run lands
  on the same quotient point up to rounding.
- Relabelling: renaming the classes changes no computation at all, so W and
  the J trace are bit-identical.

Rotation and permutation compare the quotient point, the projection
W (W^T W)^{-1} W^T onto span W, and the final J, each to 1e-12 absolute,
a tolerance fixed before the first run.
"""

import numpy as np
import pytest

from helpers import haar_orthonormal
from spdalign.dataset import LabeledDataset
from spdalign.descriptors import SynthConfig, synth_dataset
from spdalign.graphs import neighbor_graphs
from spdalign.matfun import symmetrize
from spdalign.metrics import MetricKind, bandwidth, pairwise_dist2
from spdalign.optimizer import OptimizerConfig, initial_transform, rcg_maximize

TOL = 1e-12
TARGET_DIM = 4
RELABEL = np.array([2, 0, 3, 1])


def train(data, metric, W0):
    D = pairwise_dist2(metric, data)
    graphs = neighbor_graphs(data, D, v_w=3, v_b=3)
    return rcg_maximize(data, graphs, metric, bandwidth(D), W0,
                        OptimizerConfig(max_iters=30))


def projection(W):
    return W @ np.linalg.solve(W.T @ W, W.T)


@pytest.fixture(scope="module")
def data():
    return synth_dataset(SynthConfig(dim=12, classes=4, per_class=12, noise=0.3, seed=3))


@pytest.fixture(scope="module")
def W0(data):
    return initial_transform(data.dim, TARGET_DIM, seed=0)


@pytest.fixture(scope="module")
def base_runs(data, W0):
    return {metric: train(data, metric, W0) for metric in MetricKind}


@pytest.mark.parametrize("metric", list(MetricKind))
def test_rotation_moves_the_quotient_point(metric, data, W0, base_runs):
    Q = haar_orthonormal(np.random.default_rng(11), (data.dim, data.dim))
    rotated = LabeledDataset(symmetrize(Q @ data.samples @ Q.T), data.labels)
    base, res = base_runs[metric], train(rotated, metric, Q @ W0)
    undone = Q.T @ projection(res.W_final) @ Q
    assert np.abs(undone - projection(base.W_final)).max() <= TOL
    assert abs(res.J_trace[-1] - base.J_trace[-1]) <= TOL


@pytest.mark.parametrize("metric", list(MetricKind))
def test_sample_order_leaves_the_quotient_point(metric, data, W0, base_runs):
    order = np.random.default_rng(12).permutation(data.size)
    shuffled = LabeledDataset(data.samples[order], data.labels[order])
    base, res = base_runs[metric], train(shuffled, metric, W0)
    assert np.abs(projection(res.W_final) - projection(base.W_final)).max() <= TOL
    assert abs(res.J_trace[-1] - base.J_trace[-1]) <= TOL


@pytest.mark.parametrize("metric", list(MetricKind))
def test_relabelling_is_bit_identical(metric, data, W0, base_runs):
    renamed = LabeledDataset(data.samples, RELABEL[data.labels])
    base, res = base_runs[metric], train(renamed, metric, W0)
    assert np.array_equal(res.W_final, base.W_final)
    assert np.array_equal(res.J_trace, base.J_trace)
