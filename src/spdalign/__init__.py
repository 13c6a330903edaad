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
from .fileio import (
    load_dataset,
    load_matrix,
    load_trace,
    load_transform,
    save_manifest,
    save_matrix,
    save_trace,
    save_transform,
)
from .graphs import (
    LabeledDataset,
    PairGraphs,
    build_graphs,
    centering_matrix,
    label_similarity,
    neighbor_graphs,
)
from .matfun import (
    check_symmetric,
    dlog,
    spd_exp,
    spd_inv_sqrt,
    spd_log,
    spd_sqrt,
    symmetrize,
)
from .metrics import (
    MetricKind,
    bandwidth,
    check_transform,
    cross_dist2,
    default_beta,
    dist2,
    map_down,
    pairwise_dist2,
)
from .objective import (
    AlignmentState,
    alignment_gradient,
    alignment_objective,
)
from .optimizer import (
    OptimizerConfig,
    StopReason,
    TrainResult,
    horizontal_project,
    initial_transform,
    rcg_maximize,
    retract,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentState",
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
    "alignment_gradient",
    "alignment_objective",
    "bandwidth",
    "build_graphs",
    "centering_matrix",
    "check_symmetric",
    "check_transform",
    "cov_descriptor",
    "cross_dist2",
    "default_beta",
    "dist2",
    "dlog",
    "horizontal_project",
    "initial_transform",
    "knn_classify",
    "label_similarity",
    "load_dataset",
    "load_matrix",
    "load_trace",
    "load_transform",
    "map_down",
    "neighbor_graphs",
    "pairwise_dist2",
    "rcg_maximize",
    "repeated_split_eval",
    "retract",
    "save_manifest",
    "save_matrix",
    "save_trace",
    "save_transform",
    "spd_exp",
    "spd_inv_sqrt",
    "spd_log",
    "spd_sqrt",
    "split",
    "symmetrize",
    "synth_dataset",
]
