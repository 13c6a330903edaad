"""Benchmark for the spdalign command line: train and eval time per geometry.

Run from the repository root:

    python3 perfbench/run.py --workload ref --seed 0 --seconds 24 --trace 0

The benchmark synthesizes labeled SPD data from --seed with `synth_dataset`,
splits it with `split`, and writes train and held-out manifests; none of
that is timed. It then drives the user path in-process, once per geometry:
`spdalign.cli.main(["train", ...])` followed by
`main(["eval", "--transform", ...])`, with stdout captured. Every train or
eval call is one operation, and its outputs are checked.

Each run trains on several datasets, each from its own seed derived from
--seed; --seconds sets how many, from the workload's calibrated cost per
dataset. --trace 0 reports the end-to-end metrics. --trace 1 runs each
call twice, untraced and then traced (see tracing.py), on the first half
of the datasets, and reports the per-layer metrics, including the tracing
overhead. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it record the
environment, every operation with the sha256 of its outputs, and, when
traced, the self-time split of each call. See README.md in this directory.
"""

import os

BLAS_THREADS = "1"
# fixed before numpy loads, so every run uses the same BLAS thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if not (SRC / "spdalign" / "__init__.py").is_file():
    sys.exit(f"perfbench: no spdalign sources under {SRC}; run from a checkout")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy

from spdalign import cli
from spdalign.descriptors import SynthConfig, synth_dataset
from spdalign.errors import SpdAlignError, ValidationError
from spdalign.evaluate import split
from spdalign.fileio import load_trace, load_transform, save_manifest, save_matrix
from spdalign.graphs import build_graphs
from spdalign.objective import alignment_objective

import reference
import tracing

GEOMETRIES = ("aim", "stein", "lem")
# tolerances that never trigger, so max_iters (or a failed line search) stops
FIXED_BUDGET = {"grad_tol": 1e-300, "rel_obj_tol": 1e-300}
SETUP_SAMPLES = 5
REFERENCE_SAMPLES = 3  # reference runs before and after each timed call
J_CHECK_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """Synthetic data shape and CLI settings; half of each class trains."""

    dim: int
    target_dim: int
    classes: int
    per_class: int
    noise: float
    neighbors: int | None  # --vw and --vb; None keeps the CLI default
    max_iters: int
    splits: int
    seconds_per_instance: float  # measured cost of one dataset, all geometries

    def instance_count(self, seconds):
        """Datasets a run of `seconds` trains on; fixed for a given --seconds."""
        return max(1, round(seconds / self.seconds_per_instance))


WORKLOADS = {
    "ref": Workload(dim=20, target_dim=5, classes=5, per_class=20, noise=0.2,
                    neighbors=3, max_iters=15, splits=10, seconds_per_instance=4.8),
    "dense": Workload(dim=12, target_dim=4, classes=4, per_class=60, noise=0.2,
                      neighbors=None, max_iters=3, splits=1, seconds_per_instance=6.0),
    "wide": Workload(dim=12, target_dim=4, classes=5, per_class=60, noise=0.2,
                     neighbors=3, max_iters=3, splits=1, seconds_per_instance=6.0),
}

WARMUP = Workload(dim=6, target_dim=2, classes=3, per_class=6, noise=0.2,
                  neighbors=2, max_iters=2, splits=1, seconds_per_instance=1.0)

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB"}
for _g in GEOMETRIES:
    END_TO_END_UNITS.update(
        {f"train_s.{_g}": "s", f"eval_s.{_g}": "s", f"acc_pp.{_g}": "%"}
    )

LAYER_UNITS = {
    "metrics.pairwise_dist2_s": "s",
    "metrics.pairwise_dist2_calls": "count",
    "metrics.pairwise_pairs_per_s": "pairs/s",
    "metrics.default_beta_self_s": "s",
    "metrics.cross_dist2_s": "s",
    "metrics.cross_pairs_per_s": "pairs/s",
    "evaluate.knn_classify_s": "s",
    "evaluate.knn_classify_calls": "count",
    "evaluate.acc_gain_pp": "pp",
    "matfun.dlog_s": "s",
    "matfun.dlog_calls": "count",
    "objective.alignment_gradient_s": "s",
    "objective.alignment_gradient_calls": "count",
    "objective.build_grad_context_s": "s",
    "objective.alignment_objective_s": "s",
    "objective.alignment_objective_calls": "count",
    "graphs.label_similarity_s": "s",
    "graphs.label_similarity_calls": "count",
    "graphs.build_graphs_self_s": "s",
    "graphs.pairs": "count",
    "optimizer.iterations": "count",
    "optimizer.ls_trials": "count",
    "optimizer.ls_accept_ratio": "ratio",
    "optimizer.ls_numerical_errors": "count",
    "optimizer.horizontal_project_s": "s",
    "optimizer.horizontal_project_calls": "count",
    "optimizer.rcg_maximize_self_s": "s",
    "fileio.load_dataset_s": "s",
    "fileio.save_s": "s",
    "cli.train_self_s": "s",
    "cli.eval_self_s": "s",
    "cli.train_wall_s": "s",
    "cli.eval_wall_s": "s",
    "trace.overhead_s": "s",
    "repro.distinct_digests": "count",
}
# only the log-Euclidean gradient differentiates the matrix log
LEM_ONLY = ("matfun.dlog_s", "matfun.dlog_calls")


def layer_names(geometry):
    return [
        name for name in LAYER_UNITS if geometry == "lem" or name not in LEM_ONLY
    ]


@dataclass
class Instance:
    """One seeded dataset, written out as train and held-out manifests."""

    seed: int
    train: object
    train_manifest: Path
    held_manifest: Path
    graphs: dict = field(default_factory=dict)  # (geometry, vw, vb) -> graphs


@dataclass
class Op:
    """One train or eval call and what its checks found."""

    kind: str
    geometry: str
    instance: int
    traced: bool
    wall: float
    scale: float  # reference.scale() around the call
    problems: list
    values: dict = field(default_factory=dict)
    layers: dict | None = None

    @property
    def seconds(self):
        """Wall time in calibration-host seconds."""
        return self.wall * self.scale

    def record(self):
        return {
            "op": self.kind, "geometry": self.geometry, "instance": self.instance,
            "traced": self.traced, "wall_s": self.wall, "scale": self.scale,
            "ok": not self.problems, "problems": self.problems, **self.values,
        }


def instance_seed(seed, index):
    """Seed of the index-th dataset of a run; a pure function of --seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] >> 1)


def write_dataset(directory, data):
    """Samples and manifest in the layout `spdalign synth` writes."""
    (directory / "samples").mkdir(parents=True)
    entries = []
    for i in range(data.size):
        name = f"s{i:04d}.txt"
        save_matrix(str(directory / "samples" / name), data.samples[i])
        entries.append((f"s{i:04d}", f"c{data.labels[i]:03d}", f"samples/{name}"))
    manifest = directory / "manifest.txt"
    save_manifest(str(manifest), entries)
    return manifest


def prepare(workload, seed, count, work):
    work.mkdir(parents=True, exist_ok=True)
    (work / "budget.json").write_text(json.dumps(FIXED_BUDGET))
    instances = []
    for index in range(count):
        inst_seed = instance_seed(seed, index)
        data = synth_dataset(SynthConfig(
            dim=workload.dim, classes=workload.classes,
            per_class=workload.per_class, noise=workload.noise, seed=inst_seed,
        ))
        train, held = split(data, 0.5, inst_seed)
        base = work / f"data{index}"
        instances.append(Instance(
            seed=inst_seed, train=train,
            train_manifest=write_dataset(base / "train", train),
            held_manifest=write_dataset(base / "held", held),
        ))
    return instances


SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import spdalign
from spdalign.fileio import load_dataset
data, _, _ = load_dataset(sys.argv[1])
wall = time.perf_counter() - t0
import reference
print(wall * reference.scale([reference.seconds() for _ in range(%d)]), data.size)
""" % (2 * REFERENCE_SAMPLES)


def measure_setup(manifest, expected_size, repeats):
    """Calibration-host seconds of `import spdalign` + first load_dataset,
    each in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    times, problems = [], []
    for _ in range(repeats):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(manifest)],
            env=env, capture_output=True, text=True, timeout=150, check=False,
        )
        fields = child.stdout.split()
        if child.returncode != 0 or len(fields) != 2 or int(fields[1]) != expected_size:
            problems.append(f"setup child exit {child.returncode}: {child.stderr[-300:]}")
            continue
        times.append(float(fields[0]))
    return times, problems


def call_cli(argv, tracer=None, span_name=None):
    """Run cli.main in-process with output captured; time only the call.

    Returns (exit code, wall seconds, reference scale, stdout, stderr).
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    samples = [reference.seconds() for _ in range(REFERENCE_SAMPLES)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                start = time.perf_counter()
                code = cli.main(argv)
                seconds = time.perf_counter() - start
            else:
                with tracer.installed(), tracer.span(span_name) as root:
                    code = cli.main(argv)
                seconds = root.seconds
        except Exception:  # a crash is a failed operation, not a dead benchmark
            code, seconds = "crash", float("nan")
            err.write(traceback.format_exc())
    samples += [reference.seconds() for _ in range(REFERENCE_SAMPLES)]
    return code, seconds, reference.scale(samples), out.getvalue(), err.getvalue()


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_train(workload, inst, geometry, code, stdout, stderr, out_dir):
    """Problems with one train call's exit code, W.txt and trace.txt."""
    if code != 0:
        return [f"train exit code {code}: {stderr.strip()[-300:]}"], {}
    problems = []
    try:
        W = load_transform(str(out_dir / "W.txt"))
        trace = load_trace(str(out_dir / "trace.txt"))
    except (OSError, ValidationError) as exc:
        return [f"unreadable train output: {exc}"], {}
    values = {
        "W_sha256": sha256(out_dir / "W.txt"),
        "trace_sha256": sha256(out_dir / "trace.txt"),
        "iterations": trace.shape[0] - 1,
    }
    if W.shape != (workload.dim, workload.target_dim):
        return [f"W.txt has shape {W.shape}"], values
    if not np.all(np.isfinite(W)) or np.linalg.matrix_rank(W) != workload.target_dim:
        problems.append("W.txt is not finite with full column rank")
    J = trace[:, 1]
    if np.any(np.diff(J) < 0):
        problems.append("trace.txt J column decreases")
    beta = re.search(r" beta=(\S+) \(", stdout)
    vwvb = re.search(r" vw=(\d+) vb=(\d+) ", stdout)
    if beta is None or vwvb is None:
        return problems + ["train output lacks the resolved beta, vw and vb"], values
    key = (geometry, int(vwvb[1]), int(vwvb[2]))
    try:
        if key not in inst.graphs:
            inst.graphs[key] = build_graphs(inst.train, *key)
        J_ref = alignment_objective(inst.train, inst.graphs[key], W, geometry,
                                    float(beta[1])).J
    except SpdAlignError as exc:
        return problems + [f"J(W) cannot be recomputed: {exc}"], values
    if abs(J_ref - J[-1]) > J_CHECK_RTOL * max(1.0, abs(J_ref)):
        problems.append(f"final trace J {float(J[-1])!r} but J(W) = {J_ref!r}")
    return problems, values


def check_eval(code, stdout, stderr):
    if code != 0:
        return [f"eval exit code {code}: {stderr.strip()[-300:]}"], {}
    found = {
        kind: re.search(kind + r" 1-NN \(\w+\): mean=(\S+) ", stdout)
        for kind in ("baseline", "transformed")
    }
    if None in found.values():
        return ["eval output lacks the baseline or transformed accuracy"], {}
    base, learned = (float(found[k][1]) for k in ("baseline", "transformed"))
    if not (0.0 <= base <= 1.0 and 0.0 <= learned <= 1.0):
        return [f"accuracy out of range: {base}, {learned}"], {}
    return [], {"acc_pp": 100.0 * learned, "acc_gain_pp": 100.0 * (learned - base)}


def run_pair(workload, inst, index, geometry, traced, work):
    """One train call and one eval call of its transform."""
    out_dir = work / f"out{index}-{geometry}-{int(traced)}"
    cfg = work / "budget.json"
    argv = ["train", "--manifest", str(inst.train_manifest),
            "--output-dir", str(out_dir), "--metric", geometry,
            "--target-dim", str(workload.target_dim), "--seed", str(inst.seed),
            "--max-iters", str(workload.max_iters), "--config", str(cfg)]
    if workload.neighbors is not None:
        argv += ["--vw", str(workload.neighbors), "--vb", str(workload.neighbors)]
    ops = []
    tracer = tracing.Tracer() if traced else None
    code, wall, scale, stdout, stderr = call_cli(argv, tracer, "cli.train")
    problems, values = check_train(workload, inst, geometry, code, stdout, stderr, out_dir)
    ops.append(Op("train", geometry, index, traced, wall, scale, problems, values,
                  tracer.layers() if traced else None))

    argv = ["eval", "--manifest", str(inst.held_manifest),
            "--transform", str(out_dir / "W.txt"), "--metric", geometry,
            "--splits", str(workload.splits), "--seed", str(inst.seed)]
    tracer = tracing.Tracer() if traced else None
    code, wall, scale, stdout, stderr = call_cli(argv, tracer, "cli.eval")
    problems, values = check_eval(code, stdout, stderr)
    ops.append(Op("eval", geometry, index, traced, wall, scale, problems, values,
                  tracer.layers() if traced else None))
    return ops


def run_instances(workload, instances, trace, work):
    """Train and eval every geometry on every dataset; traced runs do each
    call untraced and then traced on the same input. Untraced runs also
    sample set-up time before each dataset, so its samples span the run.

    Returns (ops, setup_times, setup_problems).
    """
    modes = (False, True) if trace else (False,)
    ops, setup_times, setup_problems = [], [], []
    for index, inst in enumerate(instances):
        taken = len(setup_times) + len(setup_problems)
        due = 0 if trace else -(-(SETUP_SAMPLES - taken) // (len(instances) - index))
        times, problems = measure_setup(inst.train_manifest, inst.train.size, due)
        setup_times += times
        setup_problems += problems
        for geometry in GEOMETRIES:
            for traced in modes:
                ops += run_pair(workload, inst, index, geometry, traced, work)
    return ops, setup_times, setup_problems


def calls(ops, kind, geometry, traced):
    return [op for op in ops
            if op.kind == kind and op.geometry == geometry and op.traced == traced]


def median_seconds(ops, kind, geometry, traced):
    """Median over the run's calls, one per dataset, in calibration-host
    seconds (see reference.py)."""
    return statistics.median(op.seconds for op in calls(ops, kind, geometry, traced))


def end_to_end_metrics(ops, setup_s):
    metrics = {"setup_s": setup_s}
    for g in GEOMETRIES:
        metrics[f"train_s.{g}"] = median_seconds(ops, "train", g, False)
        metrics[f"eval_s.{g}"] = median_seconds(ops, "eval", g, False)
        metrics[f"acc_pp.{g}"] = statistics.fmean(
            op.values.get("acc_pp", float("nan")) for op in calls(ops, "eval", g, False)
        )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def _ratio(num, den):
    return num / den if den else 0.0


def _stats(op, name):
    return op.layers.get(name, tracing.LayerStats())


def _secs(op, name, attr="seconds"):
    """A layer's time in one traced call, in calibration-host seconds."""
    return getattr(_stats(op, name), attr) * op.scale


def train_layer_values(op):
    pw = _stats(op, "metrics.pairwise_dist2")
    trials = _stats(op, "optimizer.retract")
    objective = _stats(op, "objective.alignment_objective")
    iterations = op.values.get("iterations", 0)
    return {
        "metrics.pairwise_dist2_s": _secs(op, "metrics.pairwise_dist2"),
        "metrics.pairwise_dist2_calls": pw.calls,
        "metrics.pairwise_pairs_per_s": _ratio(pw.work, _secs(op, "metrics.pairwise_dist2")),
        "metrics.default_beta_self_s": _secs(op, "metrics.default_beta", "self_seconds"),
        "matfun.dlog_s": _secs(op, "matfun.dlog"),
        "matfun.dlog_calls": _stats(op, "matfun.dlog").calls,
        "objective.alignment_gradient_s": _secs(op, "objective.alignment_gradient"),
        "objective.alignment_gradient_calls": _stats(op, "objective.alignment_gradient").calls,
        "objective.build_grad_context_s": _secs(op, "objective.build_grad_context"),
        "objective.alignment_objective_s": _secs(op, "objective.alignment_objective"),
        "objective.alignment_objective_calls": objective.calls,
        "graphs.label_similarity_s": _secs(op, "graphs.label_similarity"),
        "graphs.label_similarity_calls": _stats(op, "graphs.label_similarity").calls,
        "graphs.build_graphs_self_s": _secs(op, "graphs.build_graphs", "self_seconds"),
        "graphs.pairs": _stats(op, "graphs.build_graphs").work,
        "optimizer.iterations": iterations,
        "optimizer.ls_trials": trials.calls,
        "optimizer.ls_accept_ratio": _ratio(iterations, trials.calls),
        "optimizer.ls_numerical_errors": trials.errors + objective.errors,
        "optimizer.horizontal_project_s": _secs(op, "optimizer.horizontal_project"),
        "optimizer.horizontal_project_calls": _stats(op, "optimizer.horizontal_project").calls,
        "optimizer.rcg_maximize_self_s": _secs(op, "optimizer.rcg_maximize", "self_seconds"),
        "fileio.save_s": _secs(op, "fileio.save"),
        "cli.train_self_s": _secs(op, "cli.train", "self_seconds"),
        "train_load_s": _secs(op, "fileio.load_dataset"),
    }


def eval_layer_values(op):
    cross = _stats(op, "metrics.cross_dist2")
    return {
        "metrics.cross_dist2_s": _secs(op, "metrics.cross_dist2"),
        "metrics.cross_pairs_per_s": _ratio(cross.work, _secs(op, "metrics.cross_dist2")),
        "evaluate.knn_classify_s": _secs(op, "evaluate.knn_classify"),
        "evaluate.knn_classify_calls": _stats(op, "evaluate.knn_classify").calls,
        "evaluate.acc_gain_pp": op.values.get("acc_gain_pp", float("nan")),
        "cli.eval_self_s": _secs(op, "cli.eval", "self_seconds"),
        "eval_load_s": _secs(op, "fileio.load_dataset"),
    }


def distinct_digests(ops, geometry):
    """Most distinct (W.txt, trace.txt) digests any one input produced."""
    seen = {}
    for op in ops:
        if op.kind == "train" and op.geometry == geometry and "W_sha256" in op.values:
            seen.setdefault(op.instance, set()).add(
                (op.values["W_sha256"], op.values["trace_sha256"])
            )
    return max((len(s) for s in seen.values()), default=0)


def per_layer_metrics(ops):
    metrics = {}
    for g in GEOMETRIES:
        values = {}
        for kind, extract in (("train", train_layer_values), ("eval", eval_layer_values)):
            rows = [extract(op) for op in ops
                    if op.kind == kind and op.geometry == g and op.traced]
            for name in rows[0]:
                values[name] = statistics.fmean(row[name] for row in rows)
        values["fileio.load_dataset_s"] = values.pop("train_load_s") + values.pop("eval_load_s")
        values["trace.overhead_s"] = sum(
            median_seconds(ops, kind, g, True) - median_seconds(ops, kind, g, False)
            for kind in ("train", "eval")
        )
        for kind in ("train", "eval"):
            values[f"cli.{kind}_wall_s"] = statistics.median(
                op.wall for op in calls(ops, kind, g, False)
            )
        values["repro.distinct_digests"] = distinct_digests(ops, g)
        for name in layer_names(g):
            metrics[f"{name}.{g}"] = values[name]
    return metrics


def self_split(ops):
    """Self time by span name of each traced call; the shares add up to it."""
    return [
        {
            "op": op.kind, "geometry": op.geometry, "instance": op.instance,
            "wall_s": op.wall,
            "self_seconds": {name: s.self_seconds for name, s in op.layers.items()},
        }
        for op in ops if op.traced
    ]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return "unknown (git not available)"
    return done.stdout.strip() or "unknown"


def _blas(config_module):
    try:
        blas = config_module.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment(workload_name, seed, trace):
    return {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.__config__),
        "scipy_blas": _blas(scipy.__config__),
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def run_workload(workload, seed, seconds, trace, work):
    """Everything one benchmark run does; returns (result, info)."""
    count = workload.instance_count(seconds)
    if trace:
        count = (count + 1) // 2
    instances = prepare(workload, seed, count, work)
    warm = prepare(WARMUP, seed, 1, work / "warmup")[0]
    ops = []
    for geometry in GEOMETRIES:  # first calls pay lazy imports; not measured
        ops += run_pair(WARMUP, warm, -1, geometry, False, work / "warmup")
    measured, setup_times, setup_problems = run_instances(workload, instances, trace, work)
    ops += measured
    failed = sum(1 for op in ops if op.problems)
    result = {
        "correct": failed == 0 and not setup_problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": per_layer_metrics(measured) if trace else
        end_to_end_metrics(measured, statistics.median(setup_times or [float("nan")])),
    }
    info = {
        "setup_problems": setup_problems,
        "ops": [op.record() for op in ops],
        "self_split": self_split(measured) if trace else [],
    }
    return result, info


def with_units(metrics, units):
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def metric_units(trace):
    if not trace:
        return END_TO_END_UNITS
    return {
        f"{name}.{g}": LAYER_UNITS[name] for g in GEOMETRIES for name in layer_names(g)
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        result, info = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"env": environment(args.workload, args.seed, args.trace)}))
    for key, value in info.items():
        print(json.dumps({key: value}))
    result["metrics"] = with_units(result["metrics"], metric_units(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
