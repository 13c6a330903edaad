"""Command-line interface: train, eval, gradcheck, and synth subcommands.

Exit codes: 0 success, 1 validation/configuration error or a file that
cannot be read or written, 2 numerical failure, 3 gradient-check failure
(gradcheck only).
Every command is deterministic given its configuration and seed.
"""

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from .descriptors import SynthConfig, synth_dataset
from .errors import ConfigError, NumericalError, RankDeficientError, ValidationError
from .evaluate import check_split_settings, repeated_split_eval
from .fileio import (
    load_dataset,
    load_transform,
    save_manifest,
    save_matrix,
    save_trace,
    save_transform,
)
from . import metrics
from .graphs import build_graphs
from .metrics import MetricKind, default_beta
from .objective import alignment_gradient, alignment_objective, fd_gradient
from .optimizer import OptimizerConfig, initial_transform, rcg_maximize

GRADCHECK_TOL = 1e-4

# config-file schema: field name -> (type check, description)
_CONFIG_FIELDS = {
    "metric": (str, "a metric name"),
    "target_dim": (int, "an integer"),
    "vw": (int, "an integer"),
    "vb": (int, "an integer"),
    "beta": ((int, float), "a number"),
    "max_iters": (int, "an integer"),
    "grad_tol": ((int, float), "a number"),
    "rel_obj_tol": ((int, float), "a number"),
    "seed": (int, "an integer"),
    "manifest": (str, "a path string"),
    "output_dir": (str, "a path string"),
}


class _Parser(argparse.ArgumentParser):
    """Routes argparse usage errors through the exit-code-1 path."""

    def error(self, message):
        raise ConfigError(message)


def load_config(path):
    """Read a JSON config file, validating every field by name."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    for key, value in raw.items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}: unknown config field {key!r}")
        kind, label = _CONFIG_FIELDS[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{path}: field {key!r} must be {label}")
    return raw


def _apply_config(args):
    """Fill every setting the flags left unset from the --config file, so a
    flag beats the config, which beats the command's default; then check the
    seed (default 0), since numpy's generators take no negative seed. Config
    keys a command does not use land on the namespace and are ignored."""
    if args.config:
        for key, value in load_config(args.config).items():
            if getattr(args, key, None) is None:
                setattr(args, key, value)
    if args.seed is None:
        args.seed = 0
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")


class _Report:
    """A command's report on stdout, printed and flushed a line at a time,
    so that a failing stdout fails at a line however Python buffers it. A
    failed write (a closed pipe, a full device) does not stop the command,
    whose files are still written: `error` keeps it for `main` to report,
    later lines are dropped, and the stream's descriptor, if it has one, is
    pointed at os.devnull, so the interpreter's last flush of what the
    failed write left buffered cannot fail too."""

    def __init__(self):
        self.error = None

    def __call__(self, line):
        if self.error is not None:
            return
        try:
            print(line, flush=True)
        except OSError as exc:
            self.error = exc
            with contextlib.suppress(OSError):  # a stream with no descriptor
                fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)


def _make_output_dir(path):
    """Create the directory path and its parents, unless it already is one,
    so a path that cannot take the outputs fails before any work."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {path}: {exc}") from exc


def _auto_neighbor_count(data):
    """The within-class rule: one fewer than the smallest class."""
    return max(int(data.class_sizes().min()) - 1, 1)


def gradcheck_report(kinds, instances, seed, say=print):
    """Compare analytic and finite-difference gradients on random problems.

    Each W, the start and every bump, goes through `alignment_objective`,
    and each metric's worst error is one line passed to `say`. Returns the
    worst relative error seen across all metrics and instances.
    """
    worst = 0.0
    for metric in kinds:
        metric_worst = 0.0
        for t in range(instances):
            cfg = SynthConfig(dim=8, classes=3, per_class=4, noise=0.4, seed=seed + t)
            data = synth_dataset(cfg)
            graphs = build_graphs(data, metric, v_w=2, v_b=2)
            beta = default_beta(graphs)
            W = initial_transform(data.dim, 3, seed=seed + t)

            def evaluate(candidate):
                return alignment_objective(data, graphs, candidate, metric, beta)

            analytic = alignment_gradient(evaluate(W))
            numeric = fd_gradient(lambda candidate: evaluate(candidate).J, W)
            scale = max(float(np.linalg.norm(numeric)), 1e-12)
            error = float(np.linalg.norm(analytic - numeric)) / scale
            metric_worst = max(metric_worst, error)
        say(
            f"{metric.value}: max relative gradient error {metric_worst:.3e} "
            f"over {instances} instance(s)"
        )
        worst = max(worst, metric_worst)
    return worst


def cmd_gradcheck(args, say):
    metric = args.metric
    kinds = list(MetricKind) if metric is None else [MetricKind.parse(metric)]
    if args.instances < 1:
        raise ConfigError(f"instances must be >= 1, got {args.instances}")
    worst = gradcheck_report(kinds, args.instances, args.seed, say)
    if worst > GRADCHECK_TOL:
        print(f"gradcheck FAILED (tolerance {GRADCHECK_TOL:g})", file=sys.stderr)
        return 3
    say(f"gradcheck passed (tolerance {GRADCHECK_TOL:g})")
    return 0


def cmd_train(args, say):
    metric = MetricKind.parse("aim" if args.metric is None else args.metric)
    if args.manifest is None:
        raise ConfigError("a dataset manifest is required (--manifest or config)")
    if args.output_dir is None:
        raise ConfigError("an output directory is required (--output-dir or config)")
    # settings that do not depend on the data are checked before it is loaded
    opt_config = OptimizerConfig(**{
        name: value
        for name in ("max_iters", "grad_tol", "rel_obj_tol")
        if (value := getattr(args, name)) is not None
    })
    target_dim = args.target_dim
    if target_dim is None:
        raise ConfigError("target_dim is required (--target-dim or config)")
    if target_dim < 1:
        raise ConfigError(f"target_dim must be >= 1, got {target_dim}")
    v_w, v_b, beta = args.vw, args.vb, args.beta
    if any(v is not None and v < 1 for v in (v_w, v_b)):
        raise ConfigError(f"vw and vb must be >= 1, got vw={v_w}, vb={v_b}")
    if beta is not None:
        metrics.check_beta(beta)
    _make_output_dir(args.output_dir)

    data, _, label_names = load_dataset(args.manifest)
    say(
        f"loaded {data.size} samples of dim {data.dim} "
        f"in {len(label_names)} classes"
    )

    if target_dim >= data.dim:
        raise ConfigError(
            f"target_dim must satisfy 1 <= m < {data.dim}, got {target_dim}"
        )
    if v_w is None:
        v_w = _auto_neighbor_count(data)
    if v_b is None:
        v_b = _auto_neighbor_count(data)

    beta_mode = "explicit" if beta is not None else "auto"
    # the graphs carry their support pairs' distances, which set the
    # bandwidth; the dataset checked its stack when it was loaded
    graphs = build_graphs(data, metric, v_w, v_b)
    if beta is None:
        beta = default_beta(graphs)
    say(
        f"metric={metric.value} target_dim={target_dim} vw={v_w} vb={v_b} "
        f"beta={beta:.17g} ({beta_mode}) seed={args.seed}"
    )
    pairs = data.size * (data.size - 1) // 2
    say(f"exact distances ({metric.value}): {graphs.distances_computed}/{pairs} pairs")

    W0 = initial_transform(data.dim, target_dim, seed=args.seed)
    result = rcg_maximize(data, graphs, metric, beta, W0, opt_config)

    w_path = os.path.join(args.output_dir, "W.txt")
    trace_path = os.path.join(args.output_dir, "trace.txt")
    save_transform(w_path, result.W_final)
    save_trace(trace_path, result)
    say(
        f"stopped after {result.iterations_used} iteration(s): "
        f"{result.stop_reason.value}"
    )
    say(
        f"J {result.J_trace[0]:.6f} -> {result.J_trace[-1]:.6f}, "
        f"final gradient norm {result.grad_norm_trace[-1]:.3e}"
    )
    say(f"wrote {w_path}")
    say(f"wrote {trace_path}")
    return 0


def cmd_eval(args, say):
    metric = MetricKind.parse("aim" if args.metric is None else args.metric)
    if args.manifest is None:
        raise ConfigError("a dataset manifest is required (--manifest or config)")
    # checked before any data is loaded
    check_split_settings(args.train_fraction, args.splits)
    W = None
    if args.transform:
        W = load_transform(args.transform)
        try:
            W = metrics.check_transform(W)
        except (ValidationError, RankDeficientError) as exc:
            # a bad file is invalid input, named like every fault of its text
            raise ValidationError(f"{args.transform}: {exc}") from exc
    data, _, _ = load_dataset(args.manifest)
    if W is not None and len(W) != data.dim:
        raise ValidationError(
            f"{args.transform}: transform has {len(W)} rows, "
            f"samples have dim {data.dim}"
        )
    summary = repeated_split_eval(
        data,
        metric,
        train_fraction=args.train_fraction,
        repeats=args.splits,
        seed=args.seed,
        W=W,
    )
    mean, std = summary.baseline_mean_std
    say(
        f"baseline 1-NN ({metric.value}): mean={mean:.4f} std={std:.4f} "
        f"over {args.splits} split(s)"
    )
    if W is not None:
        mean, std = summary.transformed_mean_std
        say(
            f"transformed 1-NN ({metric.value}): mean={mean:.4f} std={std:.4f} "
            f"over {args.splits} split(s)"
        )
    counts = ", ".join(
        f"{kind} {n}/{summary.union_pairs}"
        for kind, n in zip(("baseline", "transformed"), summary.distances_computed)
    )
    say(f"exact distances ({metric.value}): {counts} pairs")
    return 0


def cmd_synth(args, say):
    cfg = SynthConfig(
        dim=args.dim,
        classes=args.classes,
        per_class=args.per_class,
        noise=args.noise,
        seed=args.seed,
    )
    sample_dir = os.path.join(args.output_dir, "samples")
    _make_output_dir(sample_dir)
    data = synth_dataset(cfg)
    entries = []
    for i in range(data.size):
        name = f"s{i:04d}.txt"
        save_matrix(os.path.join(sample_dir, name), data.samples[i])
        entries.append((f"s{i:04d}", f"c{data.labels[i]:03d}", f"samples/{name}"))
    manifest_path = os.path.join(args.output_dir, "manifest.txt")
    save_manifest(manifest_path, entries)
    say(
        f"wrote {data.size} samples of dim {cfg.dim} "
        f"in {cfg.classes} classes to {sample_dir}"
    )
    say(f"wrote {manifest_path}")
    return 0


def _add_common(parser, metric=True):
    if metric:
        parser.add_argument(
            "--metric",
            choices=[m.value for m in MetricKind],
            help="similarity metric (default: aim)",
        )
    parser.add_argument("--seed", type=int, help="random seed (default: 0)")
    parser.add_argument("--config", help="JSON config file; flags override it")


def _train_arguments(train):
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
        "--beta", type=float,
        help="kernel width (default: 1/sigma^2, sigma the mean distance over "
             "the neighbor-graph support pairs)",
    )
    train.add_argument(
        "--max-iters", type=int, help="iteration budget (default: 50)"
    )
    # the optimizer tolerances have no flag; they come from the config only
    train.set_defaults(func=cmd_train, grad_tol=None, rel_obj_tol=None)


def _eval_arguments(evaluate):
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


def _gradcheck_arguments(gradcheck):
    _add_common(gradcheck)
    gradcheck.add_argument(
        "--instances", type=int, default=3, help="random problems per metric"
    )
    gradcheck.set_defaults(func=cmd_gradcheck)


def _synth_arguments(synth):
    _add_common(synth, metric=False)
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


# subcommand -> (help line, the function adding its arguments and handler)
_COMMANDS = {
    "train": ("learn a transform from a manifest", _train_arguments),
    "eval": ("nearest-neighbor accuracy report", _eval_arguments),
    "gradcheck": ("verify analytic gradients against finite differences",
                  _gradcheck_arguments),
    "synth": ("generate a synthetic labeled dataset", _synth_arguments),
}


def build_parser(command=None):
    """The spdalign parser with every subcommand. Only `command`'s
    subparser gets its arguments when it names one, since a call parses one
    subcommand's; with None every subparser gets them, for the top-level
    help and usage errors."""
    parser = _Parser(
        prog="spdalign",
        description="Supervised similarity learning for SPD-matrix data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        if command in (None, name):
            add_arguments(subparser)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    report = _Report()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        code = args.func(args, report)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    if report.error is not None:
        # a report that could not be shown is an I/O failure, unless the
        # command failed on its own
        print(f"error: cannot write to stdout: {report.error}", file=sys.stderr)
        code = code or 1
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
