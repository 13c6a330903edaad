"""Command-line interface: train, eval, gradcheck, and synth subcommands.

Exit codes: 0 success, 1 validation/configuration error, 2 numerical
failure, 3 gradient-check failure. Every command is deterministic given
its configuration and seed.
"""

import argparse
import json
import os
import sys

import numpy as np

from .descriptors import SynthConfig, synth_dataset
from .errors import ConfigError, NumericalError, ValidationError
from .evaluate import repeated_split_eval
from .fileio import (
    load_dataset,
    load_transform,
    save_manifest,
    save_matrix,
    save_trace,
    save_transform,
)
from . import metrics
# build_graphs and default_beta stay bound here, where perfbench traces them
from .graphs import build_graphs, neighbor_graphs  # noqa: F401
from .metrics import MetricKind, default_beta  # noqa: F401
from .objective import alignment_gradient, alignment_objective, fd_gradient
from .optimizer import OptimizerConfig, initial_transform, rcg_maximize

GRADCHECK_TOL = 1e-4

# config-file schema: field name -> (type check, description)
_CONFIG_FIELDS = {
    "metric": (str, "metric name"),
    "target_dim": (int, "integer"),
    "vw": (int, "integer"),
    "vb": (int, "integer"),
    "beta": ((int, float), "number"),
    "max_iters": (int, "integer"),
    "grad_tol": ((int, float), "number"),
    "rel_obj_tol": ((int, float), "number"),
    "seed": (int, "integer"),
    "manifest": (str, "path string"),
    "output_dir": (str, "path string"),
}


class _Parser(argparse.ArgumentParser):
    """Routes argparse usage errors through the exit-code-1 path."""

    def error(self, message):
        raise ConfigError(message)


def load_config(path):
    """Read a JSON config file, validating every field by name."""
    try:
        with open(path, "r") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    for key, value in raw.items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}: unknown config field {key!r}")
        kind, label = _CONFIG_FIELDS[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{path}: field {key!r} must be a {label}")
    return raw


def _resolve(args, config, name, default=None):
    """CLI flag beats config file beats default."""
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name, default)
    return value


def _load_config_arg(args):
    return load_config(args.config) if args.config else {}


def _resolve_metric(args, config):
    return MetricKind.parse(_resolve(args, config, "metric", "aim"))


def _auto_neighbor_count(data):
    """The within-class rule: one fewer than the smallest class."""
    return max(int(data.class_sizes().min()) - 1, 1)


def gradcheck_report(kinds, instances, seed, out=None):
    """Compare analytic and finite-difference gradients on random problems.

    Returns the worst relative error seen across all metrics and instances.
    """
    out = sys.stdout if out is None else out
    worst = 0.0
    for metric in kinds:
        metric_worst = 0.0
        for t in range(instances):
            data = synth_dataset(
                SynthConfig(
                    dim=8, classes=3, per_class=4, noise=0.4, seed=seed + t
                )
            )
            D = metrics.pairwise_dist2(metric, data.samples)
            graphs = neighbor_graphs(data, D, v_w=2, v_b=2)
            beta = metrics.bandwidth(D)
            W = initial_transform(data.dim, 3, seed=seed + t)

            def objective(candidate):
                return alignment_objective(
                    data, graphs, candidate, metric, beta
                ).J

            state = alignment_objective(data, graphs, W, metric, beta)
            analytic = alignment_gradient(data, graphs, W, metric, beta, state)
            numeric = fd_gradient(objective, W)
            scale = max(float(np.linalg.norm(numeric)), 1e-12)
            error = float(np.linalg.norm(analytic - numeric)) / scale
            metric_worst = max(metric_worst, error)
        print(
            f"{metric.value}: max relative gradient error {metric_worst:.3e} "
            f"over {instances} instance(s)",
            file=out,
        )
        worst = max(worst, metric_worst)
    return worst


def cmd_gradcheck(args):
    config = _load_config_arg(args)
    seed = _resolve(args, config, "seed", 0)
    if args.metric is None:
        kinds = list(MetricKind)
    else:
        kinds = [MetricKind.parse(args.metric)]
    worst = gradcheck_report(kinds, args.instances, seed)
    if worst > GRADCHECK_TOL:
        print(f"gradcheck FAILED (tolerance {GRADCHECK_TOL:g})", file=sys.stderr)
        return 3
    print(f"gradcheck passed (tolerance {GRADCHECK_TOL:g})")
    return 0


def cmd_train(args):
    config = _load_config_arg(args)
    metric = _resolve_metric(args, config)
    seed = _resolve(args, config, "seed", 0)
    manifest = _resolve(args, config, "manifest")
    output_dir = _resolve(args, config, "output_dir")
    if manifest is None:
        raise ConfigError("a dataset manifest is required (--manifest or config)")
    if output_dir is None:
        raise ConfigError("an output directory is required (--output-dir or config)")

    if args.strict:
        worst = gradcheck_report([metric], instances=2, seed=seed)
        if worst > GRADCHECK_TOL:
            print(
                f"strict mode: gradcheck FAILED (tolerance {GRADCHECK_TOL:g}); "
                "refusing to train",
                file=sys.stderr,
            )
            return 3

    data, _, label_names = load_dataset(manifest)
    print(
        f"loaded {data.size} samples of dim {data.dim} "
        f"in {len(label_names)} classes"
    )

    target_dim = _resolve(args, config, "target_dim")
    if target_dim is None:
        raise ConfigError("target_dim is required (--target-dim or config)")
    if not 1 <= target_dim < data.dim:
        raise ConfigError(
            f"target_dim must satisfy 1 <= m < {data.dim}, got {target_dim}"
        )

    v_w = _resolve(args, config, "vw")
    v_b = _resolve(args, config, "vb")
    if v_w is None:
        v_w = _auto_neighbor_count(data)
    if v_b is None:
        v_b = _auto_neighbor_count(data)
    if v_w < 1 or v_b < 1:
        raise ConfigError(f"vw and vb must be >= 1, got vw={v_w}, vb={v_b}")

    beta = _resolve(args, config, "beta")
    beta_mode = "explicit" if beta is not None else "auto"
    if beta is not None and beta <= 0:
        raise ConfigError(f"beta must be positive, got {beta}")
    # one distance matrix serves the bandwidth and the neighbor graphs
    D = metrics.pairwise_dist2(metric, data.samples)
    if beta is None:
        beta = metrics.bandwidth(D)

    opt_config = OptimizerConfig(
        max_iters=_resolve(args, config, "max_iters", 50),
        grad_tol=_resolve(args, config, "grad_tol", 1e-6),
        rel_obj_tol=_resolve(args, config, "rel_obj_tol", 1e-8),
        seed=seed,
    )
    graphs = neighbor_graphs(data, D, v_w=v_w, v_b=v_b)
    print(
        f"metric={metric.value} target_dim={target_dim} vw={v_w} vb={v_b} "
        f"beta={beta:.17g} ({beta_mode}) seed={seed}"
    )

    W0 = initial_transform(data.dim, target_dim, seed=seed)
    result = rcg_maximize(data, graphs, metric, beta, W0, opt_config)

    os.makedirs(output_dir, exist_ok=True)
    w_path = os.path.join(output_dir, "W.txt")
    trace_path = os.path.join(output_dir, "trace.txt")
    save_transform(w_path, result.W_final)
    save_trace(trace_path, result)
    print(
        f"stopped after {result.iterations_used} iteration(s): "
        f"{result.stop_reason.value}"
    )
    print(
        f"J {result.J_trace[0]:.6f} -> {result.J_trace[-1]:.6f}, "
        f"final gradient norm {result.grad_norm_trace[-1]:.3e}"
    )
    print(f"wrote {w_path}")
    print(f"wrote {trace_path}")
    return 0


def cmd_eval(args):
    config = _load_config_arg(args)
    metric = _resolve_metric(args, config)
    seed = _resolve(args, config, "seed", 0)
    manifest = _resolve(args, config, "manifest")
    if manifest is None:
        raise ConfigError("a dataset manifest is required (--manifest or config)")
    data, _, _ = load_dataset(manifest)
    W = load_transform(args.transform) if args.transform else None
    summary = repeated_split_eval(
        data,
        metric,
        train_fraction=args.train_fraction,
        repeats=args.splits,
        seed=seed,
        W=W,
    )
    mean, std = summary.baseline_mean_std
    print(
        f"baseline 1-NN ({metric.value}): mean={mean:.4f} std={std:.4f} "
        f"over {args.splits} split(s)"
    )
    if W is not None:
        mean, std = summary.transformed_mean_std
        print(
            f"transformed 1-NN ({metric.value}): mean={mean:.4f} std={std:.4f} "
            f"over {args.splits} split(s)"
        )
    return 0


def cmd_synth(args):
    config = _load_config_arg(args)
    seed = _resolve(args, config, "seed", 0)
    cfg = SynthConfig(
        dim=args.dim,
        classes=args.classes,
        per_class=args.per_class,
        noise=args.noise,
        seed=seed,
    )
    data = synth_dataset(cfg)
    sample_dir = os.path.join(args.output_dir, "samples")
    os.makedirs(sample_dir, exist_ok=True)
    entries = []
    for i in range(data.size):
        name = f"s{i:04d}.txt"
        save_matrix(os.path.join(sample_dir, name), data.samples[i])
        entries.append((f"s{i:04d}", f"c{data.labels[i]:03d}", f"samples/{name}"))
    manifest_path = os.path.join(args.output_dir, "manifest.txt")
    save_manifest(manifest_path, entries)
    print(
        f"wrote {data.size} samples of dim {cfg.dim} "
        f"in {cfg.classes} classes to {sample_dir}"
    )
    print(f"wrote {manifest_path}")
    return 0


def _add_common(parser):
    parser.add_argument(
        "--metric",
        choices=[m.value for m in MetricKind],
        help="similarity metric (default: aim)",
    )
    parser.add_argument("--seed", type=int, help="random seed (default: 0)")
    parser.add_argument("--config", help="JSON config file; flags override it")


def build_parser():
    parser = _Parser(
        prog="spdalign",
        description="Supervised similarity learning for SPD-matrix data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="learn a transform from a manifest")
    _add_common(train)
    train.add_argument("--manifest", help="dataset manifest file")
    train.add_argument("--output-dir", help="directory for W.txt and trace.txt")
    train.add_argument(
        "--target-dim", type=int, help="output manifold dimension m (required)"
    )
    train.add_argument(
        "--vw", type=int, help="within-class neighbors (default: auto)"
    )
    train.add_argument(
        "--vb", type=int, help="between-class neighbors (default: auto)"
    )
    train.add_argument(
        "--beta", type=float, help="kernel width (default: 1/sigma^2 from data)"
    )
    train.add_argument(
        "--max-iters", type=int, help="iteration budget (default: 50)"
    )
    train.add_argument(
        "--strict",
        action="store_true",
        help="run gradcheck first and refuse to train if it fails",
    )
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("eval", help="nearest-neighbor accuracy report")
    _add_common(evaluate)
    evaluate.add_argument("--manifest", help="dataset manifest file")
    evaluate.add_argument("--transform", help="learned transform file to compare")
    evaluate.add_argument(
        "--splits", type=int, default=10, help="number of random splits"
    )
    evaluate.add_argument(
        "--train-fraction", type=float, default=0.5, help="train share per class"
    )
    evaluate.set_defaults(func=cmd_eval)

    gradcheck = sub.add_parser(
        "gradcheck", help="verify analytic gradients against finite differences"
    )
    _add_common(gradcheck)
    gradcheck.add_argument(
        "--instances", type=int, default=3, help="random problems per metric"
    )
    gradcheck.set_defaults(func=cmd_gradcheck)

    synth = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    _add_common(synth)
    synth.add_argument("--output-dir", required=True, help="where to write files")
    synth.add_argument("--dim", type=int, default=10, help="sample dimension")
    synth.add_argument("--classes", type=int, default=3, help="number of classes")
    synth.add_argument(
        "--per-class", type=int, default=10, help="samples per class"
    )
    synth.add_argument(
        "--noise", type=float, default=0.5, help="within-class spread"
    )
    synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
