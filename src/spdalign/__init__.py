"""Supervised similarity learning for symmetric positive definite matrices.

The package learns a column full-rank transform W that maps n-dimensional
SPD samples to a lower-dimensional SPD manifold where same-class samples
sit closer together, by maximizing the centered alignment between a
Gaussian similarity kernel on selected sample pairs and the label
similarity target. Optimization runs as a Riemannian conjugate gradient
ascent on the quotient of full-rank rectangular matrices by right
orthogonal rotations, under a choice of three SPD geometries: the
affine-invariant metric, the Stein divergence, and the log-Euclidean
metric.
"""

from .descriptors import SynthConfig, cov_descriptor, synth_dataset
from .errors import (
    ConfigError,
    DegenerateAlignmentError,
    DegenerateInputError,
    DimMismatchError,
    InsufficientClassSizeError,
    NoConvergenceError,
    NonSymmetricError,
    NotPositiveDefiniteError,
    NumericalError,
    RankDeficientError,
    SpdAlignError,
    SylvesterFailureError,
    ValidationError,
)
from .evaluate import (
    EvalReport,
    EvalSummary,
    knn_classify,
    repeated_split_eval,
    split,
)
from .fileio import load_dataset
from .graphs import LabeledDataset, PairGraphs, build_graphs, neighbor_graphs
from .metrics import (
    MetricKind,
    bandwidth,
    cross_dist2,
    default_beta,
    dist2,
    pairwise_dist2,
)
from .optimizer import (
    OptimizerConfig,
    StopReason,
    TrainResult,
    initial_transform,
    rcg_maximize,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateAlignmentError",
    "DegenerateInputError",
    "DimMismatchError",
    "EvalReport",
    "EvalSummary",
    "InsufficientClassSizeError",
    "LabeledDataset",
    "MetricKind",
    "NoConvergenceError",
    "NonSymmetricError",
    "NotPositiveDefiniteError",
    "NumericalError",
    "OptimizerConfig",
    "PairGraphs",
    "RankDeficientError",
    "SpdAlignError",
    "StopReason",
    "SylvesterFailureError",
    "SynthConfig",
    "TrainResult",
    "ValidationError",
    "bandwidth",
    "build_graphs",
    "cov_descriptor",
    "cross_dist2",
    "default_beta",
    "dist2",
    "initial_transform",
    "knn_classify",
    "load_dataset",
    "neighbor_graphs",
    "pairwise_dist2",
    "rcg_maximize",
    "repeated_split_eval",
    "split",
    "synth_dataset",
]
