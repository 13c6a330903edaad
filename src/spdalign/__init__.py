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

Each public name is imported from its submodule on first use (PEP 562),
so a process that only loads a dataset never imports the training or
evaluation code.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    name: module
    for module, names in (
        ("dataset", "LabeledDataset"),
        ("descriptors", "SynthConfig cov_descriptor synth_dataset"),
        ("errors", "ConfigError DegenerateAlignmentError DegenerateInputError "
                   "DimMismatchError InsufficientClassSizeError NoConvergenceError "
                   "NonSymmetricError NotPositiveDefiniteError NumericalError "
                   "RankDeficientError SpdAlignError ValidationError"),
        ("evaluate", "EvalReport EvalSummary knn_classify repeated_split_eval split"),
        ("fileio", "load_dataset"),
        ("graphs", "PairGraphs build_graphs neighbor_graphs"),
        ("metrics", "MetricKind bandwidth cross_dist2 default_beta dist2 "
                    "pairwise_dist2"),
        ("optimizer", "OptimizerConfig StopReason TrainResult initial_transform "
                      "rcg_maximize"),
    )
    for name in names.split()
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    # an AttributeError lets `from spdalign import <submodule>` import it
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
