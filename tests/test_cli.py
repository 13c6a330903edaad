"""End-to-end CLI tests driven through in-process main() calls."""

import argparse
import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import count_calls
import spdalign
import spdalign.cli as cli
import spdalign.dataset
import spdalign.graphs
import spdalign.matfun
import spdalign.metrics
from spdalign.descriptors import SynthConfig, synth_dataset
from spdalign.errors import NonSymmetricError
from spdalign.fileio import (
    load_dataset,
    load_trace,
    load_transform,
    parse_manifest,
    save_manifest,
    save_matrix,
    save_trace,
    save_transform,
)
from spdalign.graphs import build_graphs
from spdalign.metrics import MetricKind, default_beta
from spdalign.optimizer import OptimizerConfig, initial_transform, rcg_maximize


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small synthetic dataset written the way the synth command does."""
    root = tmp_path_factory.mktemp("corpus")
    code = cli.main(
        [
            "synth",
            "--output-dir",
            str(root),
            "--dim",
            "6",
            "--classes",
            "2",
            "--per-class",
            "4",
            "--noise",
            "0.4",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    return str(root / "manifest.txt")


def train_args(corpus, out_dir, *extra):
    return [
        "train",
        "--manifest",
        corpus,
        "--output-dir",
        str(out_dir),
        "--target-dim",
        "2",
        "--max-iters",
        "8",
        "--seed",
        "3",
        *extra,
    ]


class TestSynth:
    def test_manifest_loads_back(self, corpus):
        data, ids, label_names = load_dataset(corpus)
        assert data.size == 8 and data.dim == 6
        assert label_names == ["c000", "c001"]
        assert data.class_sizes().tolist() == [4, 4]
        assert ids[0] == "s0000"

    def test_rerun_is_byte_identical(self, tmp_path):
        args = lambda d: [
            "synth", "--output-dir", str(d), "--dim", "4", "--classes", "2",
            "--per-class", "2", "--noise", "0.3", "--seed", "5",
        ]
        assert cli.main(args(tmp_path / "a")) == 0
        assert cli.main(args(tmp_path / "b")) == 0
        for rel in ["manifest.txt", "samples/s0000.txt", "samples/s0003.txt"]:
            assert (tmp_path / "a" / rel).read_bytes() == (
                tmp_path / "b" / rel
            ).read_bytes()

    def test_takes_no_metric(self, tmp_path, capsys):
        # a dataset does not depend on a metric, so synth has no such flag
        out = tmp_path / "data"
        code = cli.main(["synth", "--metric", "aim", "--output-dir", str(out)])
        assert code == 1
        assert "unrecognized arguments: --metric aim" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_beyond_float64_exits_1(self, tmp_path, capsys):
        code = cli.main(["synth", "--output-dir", str(tmp_path / "data"),
                         "--noise", "3", "--seed", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: noise 3 at dim 10: sample 2 has min eigenvalue")


class TestTrain:
    def test_end_to_end(self, corpus, tmp_path, capsys):
        code = cli.main(train_args(corpus, tmp_path))
        assert code == 0
        W = load_transform(str(tmp_path / "W.txt"))
        assert W.shape == (6, 2)
        trace = load_trace(str(tmp_path / "trace.txt"))
        assert trace.shape[1] == 4
        assert trace[-1, 1] >= trace[0, 1]  # objective did not decrease
        out = capsys.readouterr().out
        assert "loaded 8 samples" in out
        assert "wrote" in out

    def test_same_seed_byte_identical_outputs(self, corpus, tmp_path):
        assert cli.main(train_args(corpus, tmp_path / "a")) == 0
        assert cli.main(train_args(corpus, tmp_path / "b")) == 0
        for name in ["W.txt", "trace.txt"]:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_target_dim_too_large(self, corpus, tmp_path, capsys):
        code = cli.main(
            train_args(corpus, tmp_path)[:-4] + ["--target-dim", "6"]
        )
        assert code == 1
        assert "target_dim" in capsys.readouterr().err
        assert not (tmp_path / "W.txt").exists()

    def test_target_dim_required(self, corpus, tmp_path, capsys, monkeypatch):
        loads = count_calls(monkeypatch, cli, ["load_dataset"])
        args = train_args(corpus, tmp_path)
        del args[args.index("--target-dim") : args.index("--target-dim") + 2]
        assert cli.main(args) == 1
        assert "target_dim" in capsys.readouterr().err
        assert loads == {"load_dataset": 0}

    def test_undecodable_sample_exit_code(self, tmp_path, capsys):
        manifest = tmp_path / "data" / "manifest.txt"
        assert cli.main(["synth", "--output-dir", str(manifest.parent), "--dim",
                         "3", "--classes", "2", "--per-class", "3"]) == 0
        sample = manifest.parent / parse_manifest(str(manifest))[1][2]
        sample.write_bytes(sample.read_bytes().replace(b"\n", b" \xff\n", 2))
        code = cli.main(train_args(str(manifest), tmp_path / "out"))
        assert code == 1
        assert f"{sample}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "X", [np.diag([1.0, -1.0, 2.0]), np.triu(np.ones((3, 3))) + np.eye(3)],
        ids=["indefinite", "non-symmetric"],
    )
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_spd_sample_exit_code(self, tmp_path, capsys, X, command):
        manifest = tmp_path / "data" / "manifest.txt"
        assert cli.main(["synth", "--output-dir", str(manifest.parent), "--dim",
                         "3", "--classes", "2", "--per-class", "3"]) == 0
        sample = manifest.parent / parse_manifest(str(manifest))[2][2]
        save_matrix(str(sample), X)
        capsys.readouterr()
        if command == "train":
            args = train_args(str(manifest), tmp_path / "out")
        else:
            args = ["eval", "--manifest", str(manifest), "--splits", "1"]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: sample 2 ")
        # named by its id and file too, not only by its manifest position
        assert err.rstrip().endswith(f" (id s0002, file {sample})")
        assert "numerical failure" not in err

    def test_missing_manifest(self, tmp_path, capsys):
        code = cli.main(train_args(str(tmp_path / "nope.txt"), tmp_path))
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, corpus, tmp_path, capsys):
        # an enormous kernel width underflows every similarity to zero
        code = cli.main(train_args(corpus, tmp_path, "--beta", "1e12"))
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_strict_is_a_usage_error(self, corpus, tmp_path, capsys, monkeypatch):
        # the gradient check is gradcheck's alone: train has no --strict
        out = tmp_path / "out"
        calls = count_calls(monkeypatch, cli, ["load_dataset", "gradcheck_report"])
        assert cli.main(train_args(corpus, out, "--strict")) == 1
        assert "unrecognized arguments: --strict" in capsys.readouterr().err
        assert calls == {"load_dataset": 0, "gradcheck_report": 0}
        assert not out.exists()


def write_corpus(root, samples, labels):
    """A manifest over the given matrices with the given class labels."""
    entries = []
    for k, (X, label) in enumerate(zip(samples, labels)):
        save_matrix(str(root / f"s{k}.txt"), X)
        entries.append((f"s{k}", label, f"s{k}.txt"))
    save_manifest(str(root / "manifest.txt"), entries)
    return str(root / "manifest.txt")


@pytest.fixture
def distance_passes(monkeypatch):
    """Records (metric, pair count) of every distance-only pass of a
    geometry's kernel (`Geometry.dist2_pairs` without `keep`), the loop that
    every pair distance outside the objective goes through, whichever entry
    point or screen asks for it."""
    passes = []
    for metric in MetricKind:
        geom = spdalign.metrics.geometry(metric)

        def counted(side, i, j, keep=False, _metric=metric, _original=geom.dist2_pairs):
            if not keep:
                passes.append((_metric, len(i)))
            return _original(side, i, j, keep)

        monkeypatch.setattr(geom, "dist2_pairs", counted)
    return passes


class TestTrainDistancePass:
    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("beta", [None, "0.5"])
    def test_one_distance_matrix_same_outputs(
        self, corpus, tmp_path, distance_passes, metric, beta
    ):
        extra = ["--metric", metric.value]
        if beta is not None:
            extra += ["--beta", beta]
        assert cli.main(train_args(corpus, tmp_path / "cli", *extra)) == 0
        # one screen per build: Stein and LEM take one pass over all 28
        # pairs, the AIM screen two (its nominations, then the pairs its
        # floor does not rule out)
        assert {kind for kind, _ in distance_passes} == {metric}
        counts = [pairs for _, pairs in distance_passes]
        if metric is MetricKind.AIM:
            assert len(counts) == 2 and sum(counts) < 28
        else:
            assert counts == [28]

        # the same run driven through the library's composed entry points
        data, _, _ = load_dataset(corpus)
        graphs = build_graphs(data, metric, v_w=3, v_b=3)  # auto: smallest class - 1
        value = default_beta(graphs) if beta is None else float(beta)
        result = rcg_maximize(
            data, graphs, metric, value, initial_transform(6, 2, seed=3),
            OptimizerConfig(max_iters=8),
        )
        save_transform(str(tmp_path / "W.txt"), result.W_final)
        save_trace(str(tmp_path / "trace.txt"), result)
        for name in ["W.txt", "trace.txt"]:
            assert (tmp_path / "cli" / name).read_bytes() == (
                tmp_path / name
            ).read_bytes()

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_prints_exact_distance_count(self, corpus, tmp_path, capsys, metric):
        # the AIM screen computes a subset of the pairs, Stein and LEM all
        assert cli.main(train_args(corpus, tmp_path, "--metric", metric.value)) == 0
        data, _, _ = load_dataset(corpus)
        graphs = build_graphs(data, metric, v_w=3, v_b=3)
        pairs = data.size * (data.size - 1) // 2
        line = f"exact distances ({metric.value}): {graphs.distances_computed}/{pairs} pairs"
        assert line in capsys.readouterr().out.splitlines()
        if metric is not MetricKind.AIM:
            assert graphs.distances_computed == pairs

    def test_singleton_class_exit_code(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        samples = [np.eye(3) + 0.1 * k * np.diag(rng.random(3)) for k in range(3)]
        manifest = write_corpus(tmp_path, samples, ["a", "a", "b"])
        args = ["train", "--manifest", manifest, "--output-dir",
                str(tmp_path / "out"), "--target-dim", "2"]
        assert cli.main(args) == 1
        assert "class 1 has 1 sample" in capsys.readouterr().err
        assert not (tmp_path / "out" / "W.txt").exists()

    def test_coincident_samples_exit_code(self, tmp_path, capsys):
        manifest = write_corpus(tmp_path, [np.eye(3)] * 4, ["a", "a", "b", "b"])
        args = ["train", "--manifest", manifest, "--output-dir",
                str(tmp_path / "out"), "--target-dim", "2"]
        assert cli.main(args) == 2
        assert "coincide" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_loaded_stack_is_checked_once(self, corpus, tmp_path, monkeypatch,
                                          metric):
        # the dataset checks its stack when it is loaded; train's distance
        # pass takes the dataset and does not check the stack again, and no
        # geometry's factors screen the loaded or a mapped stack for the PD
        # floor
        calls = count_calls(monkeypatch, spdalign.matfun,
                            ["check_symmetric", "check_pd"])
        extra = ["--metric", metric.value]
        assert cli.main(train_args(corpus, tmp_path, *extra)) == 0
        assert calls == {"check_symmetric": 1, "check_pd": 1}

    def test_nonpositive_beta_computes_no_distance(
        self, corpus, tmp_path, capsys, distance_passes
    ):
        assert cli.main(train_args(corpus, tmp_path, "--beta", "0")) == 1
        assert "beta must be positive" in capsys.readouterr().err
        assert distance_passes == []

    def test_default_optimizer_config(self, corpus, tmp_path, monkeypatch):
        # with no optimizer setting given, train hands rcg_maximize the
        # dataclass's own defaults
        seen = []

        def recording(*args):
            seen.append(args[-1])
            return rcg_maximize(*args)

        monkeypatch.setattr(cli, "rcg_maximize", recording)
        args = ["train", "--manifest", corpus, "--output-dir",
                str(tmp_path / "out"), "--target-dim", "2"]
        assert cli.main(args) == 0
        assert seen == [OptimizerConfig()]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_optimizer_config_loads_nothing(
        self, corpus, tmp_path, capsys, monkeypatch, distance_passes, source
    ):
        loads = count_calls(monkeypatch, cli, ["load_dataset"])
        if source == "flag":
            extra, message = ["--max-iters", "0"], "max_iters must be >= 1"
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"grad_tol": 0}))
            extra, message = ["--config", str(config)], "must be positive"
        assert cli.main(train_args(corpus, tmp_path / "out", *extra)) == 1
        assert message in capsys.readouterr().err
        assert loads == {"load_dataset": 0}
        assert distance_passes == []

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--target-dim", "0"], "target_dim must be >= 1"),
            (["--target-dim", "-2"], "target_dim must be >= 1"),
            (["--vw", "0"], "vw must be >= 1, got 0"),
            (["--vb", "-1"], "vb must be >= 1, got -1"),
            (["--beta", "0"], "beta must be positive"),
            (["--beta", "-0.5"], "beta must be positive"),
            (["--beta", "nan"], "beta must be positive and finite, got nan"),
            (["--beta", "inf"], "beta must be positive and finite, got inf"),
            ({"beta": float("nan")}, "beta must be positive and finite, got nan"),
            ({"beta": float("inf")}, "beta must be positive and finite, got inf"),
        ],
        ids=["target-dim-0", "target-dim-neg", "vw-0", "vb-neg", "beta-0", "beta-neg",
             "beta-nan", "beta-inf", "config-beta-nan", "config-beta-inf"],
    )
    def test_bad_data_independent_settings_load_nothing(
        self, corpus, tmp_path, capsys, monkeypatch, distance_passes, extra, message
    ):
        if isinstance(extra, dict):
            # json writes non-finite floats as the NaN and Infinity that
            # json.load reads back
            config = tmp_path / "config.json"
            config.write_text(json.dumps(extra))
            extra = ["--config", str(config)]
        loads = count_calls(monkeypatch, cli, ["load_dataset"])
        assert cli.main(train_args(corpus, tmp_path / "out", *extra)) == 1
        assert message in capsys.readouterr().err
        assert loads == {"load_dataset": 0}
        assert distance_passes == []


class TestScaledSamples:
    """All three distances are invariant to a common scaling of the samples,
    and so is the PD floor, relative to each sample's mean eigenvalue: a
    scaled set loads, trains and evaluates as the unscaled one does."""

    SCALES = [1e-300, 1e-150, 1.0, 1e150, 1e300]
    # W of a scaled run against the unscaled one, relative to max |W|; the
    # runs differ by rounding alone, which stays near 1e-12 over 5 iterations
    W_RTOL = 1e-9

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        base = synth_dataset(SynthConfig(dim=8, classes=3, per_class=6,
                                         noise=0.3, seed=1))
        labels = [f"c{label}" for label in base.labels]
        results = {}
        for scale in self.SCALES:
            root = tmp_path_factory.mktemp("scaled")
            manifest = write_corpus(root, scale * base.samples, labels)
            for metric in MetricKind:
                out = root / metric.value
                results[metric, scale] = (
                    _run(["train", "--manifest", manifest, "--metric", metric.value,
                          "--target-dim", "3", "--max-iters", "5",
                          "--output-dir", str(out)]),
                    _run(["eval", "--manifest", manifest, "--metric", metric.value,
                          "--splits", "4", "--transform", str(out / "W.txt")]),
                    load_transform(str(out / "W.txt")),
                    load_trace(str(out / "trace.txt")),
                )
        return results

    @pytest.mark.parametrize("scale", [s for s in SCALES if s != 1.0])
    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_trains_and_evaluates_as_unscaled(self, runs, metric, scale):
        train, evaluation, W, trace = runs[metric, scale]
        train_1, evaluation_1, W_1, trace_1 = runs[metric, 1.0]
        assert _line(train, "stopped after") == _line(train_1, "stopped after")
        assert len(trace) == len(trace_1)
        assert np.abs(W - W_1).max() <= self.W_RTOL * np.abs(W_1).max()
        for kind in ("baseline 1-NN", "transformed 1-NN"):
            assert _line(evaluation, kind) == _line(evaluation_1, kind)

    @staticmethod
    def near_max(kind):
        """(samples, labels) of a set whose traces overflow float64, or are
        finite but above half its largest value."""
        if kind == "entries":
            base = synth_dataset(SynthConfig(dim=10, classes=3, per_class=6,
                                             noise=0.5, seed=0))
            peak = np.abs(base.samples).max(axis=(1, 2), keepdims=True)
            return base.samples * (1e308 / peak), [f"c{y}" for y in base.labels]
        spectra = [[1.0, 0.6], [0.6, 1.0], [0.8, 0.5], [0.5, 0.8]]
        return (np.array([np.diag(w) * 1e308 for w in spectra]),
                ["c0", "c0", "c1", "c1"])

    @pytest.mark.parametrize("kind", ["entries", "traces"])
    def test_rejects_traces_near_the_float_maximum(self, tmp_path, capsys, kind):
        # every entry is finite, but a trace, a Stein midpoint or the AIM
        # screen's stack mean would overflow: the set is bad input naming the
        # first sample's file, with no numpy warning (pytest makes warnings
        # errors)
        samples, labels = self.near_max(kind)
        manifest = write_corpus(tmp_path, samples, labels)
        code = cli.main(["train", "--manifest", manifest, "--metric", "stein",
                         "--target-dim", "1", "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "sample 0 has trace" in err and "out of range" in err
        assert str(tmp_path / "s0.txt") in err


class TestSymmetryAtScale:
    """Symmetry is judged against each sample's own scale, as the PD floor
    is: a sample whose (0, 2) entry exceeds its mirror by a third of its
    largest entry is rejected at every scale, and the mirrored set is
    accepted at every scale."""

    SCALES = [1e-300, 1e-12, 1.0, 1e12, 1e300]

    @staticmethod
    def samples(asymmetric):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 3, 3))
        samples = A @ np.swapaxes(A, 1, 2) + 3.0 * np.eye(3)
        samples /= np.abs(samples).max(axis=(1, 2), keepdims=True)
        if asymmetric:
            samples[0, 0, 2] += 1.0 / 3.0
        return samples

    @pytest.mark.parametrize("scale", SCALES)
    def test_dataset(self, scale):
        labels = np.repeat([0, 1], 4)
        spdalign.dataset.LabeledDataset(scale * self.samples(False), labels)
        with pytest.raises(NonSymmetricError) as got:
            spdalign.dataset.LabeledDataset(scale * self.samples(True), labels)
        assert got.value.index == 0

    @pytest.mark.parametrize("asymmetric", [False, True],
                             ids=["mirrored", "asymmetric"])
    @pytest.mark.parametrize("scale", SCALES)
    def test_train(self, tmp_path, capsys, scale, asymmetric):
        manifest = write_corpus(tmp_path, scale * self.samples(asymmetric),
                                ["a"] * 4 + ["b"] * 4)
        code = cli.main(["train", "--manifest", manifest, "--target-dim", "2",
                         "--max-iters", "3", "--output-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if asymmetric:
            assert code == 1
            assert "sample 0 is not symmetric within tolerance" in err
        else:
            assert code == 0, err


def _run(argv):
    """stdout of a command that must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return out.getvalue()


def _line(text, prefix):
    (line,) = [line for line in text.splitlines() if line.startswith(prefix)]
    return line


def test_overflowing_beta_warns_nothing(tmp_path):
    """-beta d overflows to -inf for a beta near the largest float; its
    similarity is exactly 0, so every one vanishes and training exits 2 with
    the one documented message on stderr, for every metric."""
    assert cli.main(["synth", "--output-dir", str(tmp_path / "data"), "--dim", "10",
                     "--classes", "3", "--per-class", "6", "--noise", "1.0",
                     "--seed", "1"]) == 0
    src = Path(cli.__file__).resolve().parents[1]
    for metric in MetricKind:
        child = subprocess.run(
            [sys.executable, "-m", "spdalign.cli", "train",
             "--manifest", str(tmp_path / "data" / "manifest.txt"),
             "--metric", metric.value, "--target-dim", "4", "--beta", "1e308",
             "--output-dir", str(tmp_path / metric.value)],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120, check=False,
        )
        assert child.returncode == 2, child.stderr
        assert child.stderr == (
            "numerical failure: centered pair-similarity matrix vanished; "
            "objective undefined\n"
        )


class TestGradcheckDistancePass:
    def test_one_distance_matrix_per_instance(self, distance_passes):
        # one screen per instance: one pass over all 66 pairs of the 12
        # samples for Stein and LEM, two passes for the AIM screen
        cli.gradcheck_report(list(MetricKind), instances=2, seed=4)
        kinds = [kind for kind, _ in distance_passes]
        assert kinds == ([MetricKind.AIM] * 4 + [MetricKind.STEIN] * 2
                         + [MetricKind.LEM] * 2)
        assert [pairs for _, pairs in distance_passes[4:]] == [66] * 4


class FullStdout(io.TextIOBase):
    """A stdout whose every write fails, as one on a full device does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


class TestFailingStdout:
    """A stdout that cannot take train's report costs the report only: the
    outputs are written as in a normal run, stderr gets one error line, and
    the exit code is 1, an I/O failure."""

    def test_in_process(self, corpus, tmp_path, capsys, monkeypatch):
        assert cli.main(train_args(corpus, tmp_path / "ok")) == 0
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert cli.main(train_args(corpus, tmp_path / "full")) == 1
        assert capsys.readouterr().err == (
            "error: cannot write to stdout: [Errno 28] No space left on device\n")
        for name in ["W.txt", "trace.txt"]:
            assert (tmp_path / "full" / name).read_bytes() == (
                tmp_path / "ok" / name).read_bytes()

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["full", "closed-pipe"])
    def test_child_process(self, corpus, tmp_path, unbuffered, sink):
        if sink == "full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        assert cli.main(train_args(corpus, tmp_path / "ok")) == 0
        if sink == "full":
            stdout, message = open("/dev/full", "w"), "[Errno 28] No space left on device"
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            stdout, message = os.fdopen(write_end, "w"), "[Errno 32] Broken pipe"
        src = Path(cli.__file__).resolve().parents[1]
        with stdout:
            child = subprocess.run(
                [sys.executable, "-m", "spdalign.cli",
                 *train_args(corpus, tmp_path / "out")],
                env=dict(os.environ, PYTHONPATH=str(src),
                         PYTHONUNBUFFERED=unbuffered),
                stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
                check=False,
            )
        assert child.returncode == 1, child.stderr
        assert child.stderr == f"error: cannot write to stdout: {message}\n"
        for name in ["W.txt", "trace.txt"]:
            assert (tmp_path / "out" / name).read_bytes() == (
                tmp_path / "ok" / name).read_bytes()

    # a --help takes the report's route: one error line and exit 1 when the
    # help cannot be written, where argparse alone would exit 0 silently
    HELP_COMMANDS = pytest.mark.parametrize(
        "command", [[], *([name] for name in cli._COMMANDS)],
        ids=["top-level", *cli._COMMANDS])

    @HELP_COMMANDS
    def test_help_in_process(self, command, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert cli.main([*command, "--help"]) == 1
        assert capsys.readouterr().err == (
            "error: cannot write to stdout: [Errno 28] No space left on device\n")

    @HELP_COMMANDS
    def test_help_child_process(self, command):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        src = Path(cli.__file__).resolve().parents[1]
        with open("/dev/full", "w") as stdout:
            child = subprocess.run(
                [sys.executable, "-m", "spdalign.cli", *command, "--help"],
                env=dict(os.environ, PYTHONPATH=str(src)),
                stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
                check=False,
            )
        assert child.returncode == 1, child.stderr
        assert child.stderr == (
            "error: cannot write to stdout: [Errno 28] No space left on device\n")

    def test_help_on_a_working_stdout_is_argparse_text(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr() == (cli.build_parser().format_help(), "")


class TestConfigFile:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_config_driven_train(self, corpus, tmp_path):
        config = self.write_config(
            tmp_path,
            {
                "manifest": corpus,
                "output_dir": str(tmp_path / "out"),
                "target_dim": 2,
                "metric": "lem",
                "max_iters": 5,
                "seed": 9,
            },
        )
        assert cli.main(["train", "--config", config]) == 0
        assert load_transform(str(tmp_path / "out" / "W.txt")).shape == (6, 2)

    def test_flag_overrides_config(self, corpus, tmp_path, capsys):
        config = self.write_config(tmp_path, {"metric": "stein", "target_dim": 2})
        code = cli.main(
            train_args(corpus, tmp_path, "--config", config, "--metric", "lem")
        )
        assert code == 0
        assert "metric=lem" in capsys.readouterr().out

    def test_config_matches_flags(self, corpus, tmp_path, capsys):
        # every setting of a flag-only run, from the config file instead
        flag_run = train_args(corpus, tmp_path / "flags", "--metric", "stein")
        assert cli.main(flag_run) == 0
        config = self.write_config(tmp_path, {
            "manifest": corpus, "output_dir": str(tmp_path / "config"),
            "target_dim": 2, "max_iters": 8, "seed": 3, "metric": "stein",
        })
        assert cli.main(["train", "--config", config]) == 0
        for name in ("W.txt", "trace.txt"):
            flags = (tmp_path / "flags" / name).read_bytes()
            assert (tmp_path / "config" / name).read_bytes() == flags

    def test_config_only_optimizer_settings(self, corpus, tmp_path, monkeypatch):
        # grad_tol and rel_obj_tol have no flag; --max-iters beats the config
        seen = []

        def recording(*args):
            seen.append(args[-1])
            return rcg_maximize(*args)

        monkeypatch.setattr(cli, "rcg_maximize", recording)
        config = self.write_config(
            tmp_path, {"max_iters": 3, "grad_tol": 1e-3, "rel_obj_tol": 1e-5}
        )
        assert cli.main(train_args(corpus, tmp_path, "--config", config)) == 0
        assert seen == [OptimizerConfig(max_iters=8, grad_tol=1e-3, rel_obj_tol=1e-5)]

    def test_unused_keys_ignored(self, corpus, tmp_path, capsys):
        # keys a command has no use for are type-checked and then ignored
        config = self.write_config(tmp_path, {
            "target_dim": 2, "vw": 1, "beta": 0.5, "grad_tol": 1e-3,
            "output_dir": str(tmp_path / "unused"), "metric": "not-a-metric",
        })
        eval_args = ["eval", "--manifest", corpus, "--metric", "lem",
                     "--splits", "2"]
        assert cli.main(eval_args) == 0
        plain = capsys.readouterr().out
        assert cli.main(eval_args + ["--config", config]) == 0
        assert capsys.readouterr().out == plain
        synth = ["synth", "--output-dir", str(tmp_path / "synth"), "--dim", "3",
                 "--per-class", "2", "--config", config]
        assert cli.main(synth) == 0
        assert not (tmp_path / "unused").exists()

    def test_unknown_field(self, corpus, tmp_path, capsys):
        config = self.write_config(tmp_path, {"target_dims": 2})
        assert cli.main(train_args(corpus, tmp_path, "--config", config)) == 1
        assert "target_dims" in capsys.readouterr().err

    def test_wrong_field_type(self, corpus, tmp_path, capsys):
        config = self.write_config(tmp_path, {"vw": "two"})
        assert cli.main(train_args(corpus, tmp_path, "--config", config)) == 1
        assert "'vw'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, expected",
        [
            ({"vw": "two"}, "field 'vw' must be an integer, got 'two'"),
            ({"beta": "wide"}, "field 'beta' must be a number, got 'wide'"),
            ({"metric": 3}, "field 'metric' must be a metric name, got 3"),
            ({"manifest": 1}, "field 'manifest' must be a path string, got 1"),
        ],
        ids=["integer", "number", "metric", "path"],
    )
    def test_wrong_field_type_message(
        self, corpus, tmp_path, capsys, payload, expected
    ):
        config = self.write_config(tmp_path, payload)
        assert cli.main(train_args(corpus, tmp_path, "--config", config)) == 1
        assert capsys.readouterr().err == f"error: {config}: {expected}\n"

    def test_bool_is_not_an_integer(self, corpus, tmp_path, capsys):
        config = self.write_config(tmp_path, {"seed": True})
        assert cli.main(train_args(corpus, tmp_path, "--config", config)) == 1
        assert "'seed'" in capsys.readouterr().err

    def test_missing_file(self, corpus, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        code = cli.main(train_args(corpus, tmp_path / "out", "--config", missing))
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot read config {missing}: [Errno 2]")
        assert not (tmp_path / "out").exists()

    def test_invalid_json(self, corpus, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        code = cli.main(train_args(corpus, tmp_path, "--config", str(path)))
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_undecodable_bytes(self, corpus, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"metric": "lem\xff"}')
        code = cli.main(train_args(corpus, tmp_path, "--config", str(path)))
        assert code == 1
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err

    def test_top_level_must_be_object(self, corpus, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        code = cli.main(train_args(corpus, tmp_path, "--config", str(path)))
        assert code == 1
        assert "object" in capsys.readouterr().err


class TestEval:
    def test_overflowing_transform_is_a_numerical_failure(self, corpus, tmp_path,
                                                          capsys):
        # a finite W whose product overflows the samples: exit 2 naming the
        # transform, with no numpy warning on the way, even as an error
        save_transform(str(tmp_path / "W.txt"), np.full((6, 1), 1e160))
        args = ["eval", "--manifest", corpus, "--transform", str(tmp_path / "W.txt")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(args) == 2
        assert "numerical failure: transform maps sample 0 to non-finite" in (
            capsys.readouterr().err)

    def test_baseline_only(self, corpus, capsys):
        code = cli.main(
            ["eval", "--manifest", corpus, "--metric", "lem", "--splits", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline 1-NN (lem)" in out
        assert "3 split(s)" in out
        assert "transformed" not in out
        # LEM has no lower bound: every needed pair is computed
        computed, union = re.search(
            r"^exact distances \(lem\): baseline (\d+)/(\d+) pairs$", out, re.M
        ).groups()
        assert computed == union

    def test_with_transform(self, corpus, tmp_path, capsys):
        assert cli.main(train_args(corpus, tmp_path)) == 0
        capsys.readouterr()
        code = cli.main(
            [
                "eval",
                "--manifest",
                corpus,
                "--transform",
                str(tmp_path / "W.txt"),
                "--splits",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline 1-NN (aim)" in out
        assert "transformed 1-NN (aim)" in out
        # the count line adds no line the accuracy parsers would match
        assert out.count("1-NN") == 2
        counts = re.search(
            r"^exact distances \(aim\): baseline (\d+)/(\d+), "
            r"transformed (\d+)/(\d+) pairs$",
            out,
            re.M,
        ).groups()
        base, union, mapped, union_mapped = map(int, counts)
        assert union == union_mapped
        assert 0 < base <= union and 0 < mapped <= union

    def test_deterministic_output(self, corpus, capsys):
        args = ["eval", "--manifest", corpus, "--splits", "3", "--seed", "4"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--splits", "0", "splits must be >= 1"),
            ("--splits", "-3", "splits must be >= 1"),
            ("--train-fraction", "1.5", "train_fraction must be in (0, 1)"),
        ],
    )
    def test_bad_split_settings_load_nothing(
        self, corpus, capsys, monkeypatch, flag, value, message
    ):
        loads = count_calls(monkeypatch, cli, ["load_dataset"])
        assert cli.main(["eval", "--manifest", corpus, flag, value]) == 1
        assert message in capsys.readouterr().err
        assert loads == {"load_dataset": 0}

    @pytest.mark.parametrize(
        "transform, code, message",
        [
            (None, 1, "cannot read"),
            (np.column_stack([np.ones(6), 2 * np.ones(6)]), 1, "rank deficient"),
            (np.ones((2, 6)), 1, "at least as many rows as columns"),
        ],
        ids=["unreadable", "rank-deficient", "wide"],
    )
    def test_bad_transform_loads_nothing(
        self, corpus, tmp_path, capsys, monkeypatch, transform, code, message
    ):
        path = tmp_path / "W.txt"
        if transform is not None:
            save_transform(str(path), transform)
        loads = count_calls(monkeypatch, cli, ["load_dataset"])
        args = ["eval", "--manifest", corpus, "--transform", str(path)]
        assert cli.main(args) == code
        err = capsys.readouterr().err
        assert message in err and str(path) in err
        assert loads == {"load_dataset": 0}

    def test_transform_of_wrong_dimension_rejected_after_load(
        self, corpus, tmp_path, capsys
    ):
        path = tmp_path / "W.txt"
        save_transform(str(path), np.eye(5, 2))
        args = ["eval", "--manifest", corpus, "--transform", str(path)]
        assert cli.main(args) == 1
        assert (f"error: {path}: transform has 5 rows, samples have dim 6"
                in capsys.readouterr().err)


class TestGradcheck:
    def test_all_metrics_pass(self, capsys):
        code = cli.main(["gradcheck", "--instances", "1", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ["aim", "stein", "lem"]:
            assert f"{name}: max relative gradient error" in out
        assert "gradcheck passed" in out

    def test_single_metric(self, capsys):
        code = cli.main(
            ["gradcheck", "--metric", "stein", "--instances", "1", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stein" in out and "aim:" not in out

    def test_config_metric(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"metric": "lem", "seed": 2}))
        code = cli.main(["gradcheck", "--instances", "1", "--config", str(config)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == ["lem"]
        assert lines[-1].startswith("gradcheck passed")

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gradcheck_report", lambda *a, **k: 0.5)
        assert cli.main(["gradcheck"]) == 3
        assert "FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("instances", ["0", "-2"])
    def test_no_instances_is_a_usage_error(self, capsys, instances):
        assert cli.main(["gradcheck", "--instances", instances]) == 1
        captured = capsys.readouterr()
        assert "instances must be >= 1" in captured.err
        assert "gradcheck passed" not in captured.out


class TestNegativeSeed:
    """A negative seed, by flag or by config file, is a configuration error
    (exit 1) in every command, raised before any data is loaded, generated
    or written."""

    @staticmethod
    def command(name, corpus, out):
        train = ["train", "--manifest", corpus, "--output-dir", str(out),
                 "--target-dim", "2"]
        return {
            "train": train,
            "eval": ["eval", "--manifest", corpus],
            "synth": ["synth", "--output-dir", str(out)],
            "gradcheck": ["gradcheck", "--instances", "1"],
        }[name]

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("name", ["train", "eval", "synth", "gradcheck"])
    def test_rejected_before_any_work(
        self, corpus, tmp_path, capsys, monkeypatch, name, route
    ):
        out = tmp_path / "out"
        args = self.command(name, corpus, out)
        if route == "flag":
            args += ["--seed", "-1"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"seed": -1}))
            args += ["--config", str(config)]
        calls = count_calls(
            monkeypatch, cli, ["load_dataset", "synth_dataset", "gradcheck_report"]
        )
        assert cli.main(args) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert calls == {"load_dataset": 0, "synth_dataset": 0, "gradcheck_report": 0}
        assert not out.exists()

    def test_seed_zero_still_accepted(self, capsys):
        code = cli.main(["gradcheck", "--metric", "lem", "--instances", "1",
                         "--seed", "0"])
        assert code == 0


class TestRequiredSettings:
    """A required setting given neither by flag nor by config file is a
    configuration error (exit 1), raised before any file is read or any
    directory is created."""

    @pytest.mark.parametrize(
        "command, dropped, message",
        [
            ("train", "--manifest",
             "a dataset manifest is required (--manifest or config)"),
            ("train", "--output-dir",
             "an output directory is required (--output-dir or config)"),
            ("eval", "--manifest",
             "a dataset manifest is required (--manifest or config)"),
        ],
        ids=["train-manifest", "train-output-dir", "eval-manifest"],
    )
    def test_missing_before_any_work(
        self, corpus, tmp_path, capsys, monkeypatch, command, dropped, message
    ):
        transform = tmp_path / "W.txt"
        save_transform(str(transform), np.eye(6, 2))
        out = tmp_path / "out"
        args = {
            "train": train_args(corpus, out),
            "eval": ["eval", "--manifest", corpus, "--transform", str(transform)],
        }[command]
        del args[args.index(dropped) : args.index(dropped) + 2]
        calls = count_calls(
            monkeypatch, cli, ["load_dataset", "load_transform", "_make_output_dir"]
        )
        assert cli.main(args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == {"load_dataset": 0, "load_transform": 0, "_make_output_dir": 0}
        assert os.listdir(tmp_path) == ["W.txt"]


class TestUnusableOutputPath:
    """An output path that cannot hold the outputs is bad input (exit 1),
    named on stderr, and train and synth find it before any work."""

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_train_output_dir_blocked_before_load(
        self, corpus, tmp_path, capsys, monkeypatch, under
    ):
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        out = blocker / "out" if under else blocker
        calls = count_calls(monkeypatch, cli, ["load_dataset", "rcg_maximize"])
        assert cli.main(train_args(corpus, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {out}: ")
        assert calls == {"load_dataset": 0, "rcg_maximize": 0}
        assert blocker.read_text() == "keep\n"

    def test_train_output_file_that_is_a_directory(self, corpus, tmp_path, capsys):
        (tmp_path / "W.txt").mkdir()
        assert cli.main(train_args(corpus, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / 'W.txt'}: ")
        assert "Traceback" not in err
        # the temp file is gone and nothing else was written
        assert os.listdir(tmp_path) == ["W.txt"]

    def test_synth_output_dir_blocked_before_generation(
        self, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        calls = count_calls(monkeypatch, cli, ["synth_dataset"])
        assert cli.main(["synth", "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: cannot create output directory {out / 'samples'}: "
        )
        assert calls == {"synth_dataset": 0}
        assert out.read_text() == "keep\n"


class TestUsageErrors:
    def test_unknown_metric_choice(self, capsys):
        assert cli.main(["train", "--metric", "euclid"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_flag(self, capsys):
        assert cli.main(["gradcheck", "--bogus"]) == 1



# every flag each subcommand's help must show
COMMAND_FLAGS = {
    "train": ["--metric", "--seed", "--config", "--manifest", "--output-dir",
              "--target-dim", "--vw", "--vb", "--beta", "--max-iters"],
    "eval": ["--metric", "--seed", "--config", "--manifest", "--transform",
             "--splits", "--train-fraction"],
    "gradcheck": ["--metric", "--seed", "--config", "--instances"],
    "synth": ["--seed", "--config", "--output-dir", "--dim", "--classes",
              "--per-class", "--noise"],
}


def record_arguments(monkeypatch):
    """Count add_argument calls per parser, keyed by the parser's prog."""
    counts = {}
    original = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        counts[self.prog] = counts.get(self.prog, 0) + 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    return counts


def argument_counts(built):
    """The add_argument calls per parser when the commands in `built` get
    their flags: every parser adds its own -h, and a built command adds its
    flags."""
    counts = {"spdalign": 1}
    for name, flags in COMMAND_FLAGS.items():
        counts[f"spdalign {name}"] = 1 + len(flags) * (name in built)
    return counts


class TestParser:
    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "{train,eval,gradcheck,synth}" in out
        for name in COMMAND_FLAGS:
            assert re.search(rf"^ +{name} +\S", out, re.MULTILINE), name

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_command_help_shows_its_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: spdalign {command} ")
        for flag in COMMAND_FLAGS[command]:
            assert flag in out, flag
        for other in set().union(*COMMAND_FLAGS.values()) - set(COMMAND_FLAGS[command]):
            assert other not in out, other

    def test_unknown_command(self, capsys):
        assert cli.main(["fit", "--metric", "aim"]) == 1
        err = capsys.readouterr().err
        assert "invalid choice: 'fit'" in err
        assert "'train', 'eval', 'gradcheck', 'synth'" in err

    def test_eval_adds_only_its_own_arguments(self, corpus, monkeypatch, capsys):
        counts = record_arguments(monkeypatch)
        assert cli.main(["eval", "--manifest", corpus, "--splits", "2"]) == 0
        assert "baseline 1-NN" in capsys.readouterr().out
        assert counts == argument_counts({"eval"})

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_each_command_adds_only_its_own_arguments(self, command, monkeypatch):
        counts = record_arguments(monkeypatch)
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        assert counts == argument_counts({command})

    def test_other_first_tokens_build_every_command(self, monkeypatch):
        counts = record_arguments(monkeypatch)
        assert cli.main(["--bogus"]) == 1
        assert counts == argument_counts(set(COMMAND_FLAGS))


SCIPY_FREE_CHILD = """
import json, sys
from spdalign.cli import main

out = sys.argv[1]
manifest = out + "/manifest.txt"
for argv in (
    ["synth", "--output-dir", out, "--dim", "5", "--classes", "2",
     "--per-class", "4", "--noise", "0.4", "--seed", "1"],
    ["train", "--manifest", manifest, "--output-dir", out, "--metric", "aim",
     "--target-dim", "2", "--max-iters", "2"],
    ["eval", "--manifest", manifest, "--transform", out + "/W.txt",
     "--splits", "2"],
):
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_commands_load_no_scipy(tmp_path):
    """synth, train and eval run on numpy alone, in a fresh interpreter."""
    src = Path(cli.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_CHILD, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == []


MASKED_FREE_CHILD = """
import sys
import spdalign
from spdalign.cli import main

manifest, out = sys.argv[1:]
spdalign.load_dataset(manifest)
for argv in (
    ["synth", "--output-dir", out, "--dim", "4", "--classes", "2",
     "--per-class", "4", "--seed", "1"],
    ["train", "--manifest", manifest, "--output-dir", out, "--metric", "aim",
     "--target-dim", "2", "--max-iters", "2"],
    ["eval", "--manifest", manifest, "--transform", out + "/W.txt",
     "--splits", "2"],
    ["gradcheck", "--instances", "1"],
):
    assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_commands_never_import_numpy_ma(corpus, tmp_path):
    """In a fresh interpreter, loading a dataset and running every command
    leave numpy.ma unimported, so no spdalign process pays for it."""
    src = Path(cli.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-c", MASKED_FREE_CHILD, corpus, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "False"


LOAD_ONLY_CHILD = """
import json, sys
import spdalign
from spdalign.fileio import load_dataset

load_dataset(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "spdalign")))
"""


def test_loading_a_dataset_imports_only_what_it_uses(corpus):
    """In a fresh interpreter, importing the package and loading a dataset
    import the file formats, the dataset checks and their helpers, and none
    of the graph, metric, training, evaluation, synthesis or CLI code."""
    src = Path(cli.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-c", LOAD_ONLY_CHILD, corpus],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == [
        "spdalign", "spdalign.dataset", "spdalign.errors", "spdalign.fileio",
        "spdalign.matfun",
    ]


# the package's public names, as listed before they were imported lazily
PUBLIC_NAMES = """
    ConfigError DegenerateAlignmentError DegenerateInputError DimMismatchError
    EvalReport EvalSummary InsufficientClassSizeError LabeledDataset MetricKind
    NoConvergenceError NonSymmetricError NotPositiveDefiniteError NumericalError
    OptimizerConfig PairGraphs RankDeficientError SpdAlignError StopReason
    SynthConfig TrainResult ValidationError bandwidth
    build_graphs cov_descriptor cross_dist2 default_beta dist2 initial_transform
    knn_classify load_dataset neighbor_graphs pairwise_dist2 rcg_maximize
    repeated_split_eval split synth_dataset
""".split()


class TestPackageNamespace:
    def test_all_lists_the_public_names(self):
        assert len(PUBLIC_NAMES) == 36
        assert spdalign.__all__ == sorted(PUBLIC_NAMES)

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_public_name_is_its_submodule_object(self, name):
        value = getattr(spdalign, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("spdalign.")
        assert getattr(module, name) is value
        assert vars(spdalign)[name] is value

    def test_dir_covers_all(self):
        assert set(spdalign.__all__) <= set(dir(spdalign))

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from spdalign import *", namespace)
        assert set(PUBLIC_NAMES) <= set(namespace)
        assert namespace["LabeledDataset"] is spdalign.dataset.LabeledDataset

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
            spdalign.nonexistent  # noqa: B018
        assert not hasattr(spdalign, "nonexistent")

    def test_submodule_import_falls_through(self):
        from spdalign import cli as imported

        assert imported is cli
