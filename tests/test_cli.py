"""End-to-end CLI tests driven through in-process main() calls."""

import json

import numpy as np
import pytest

import spdalign.cli as cli
import spdalign.graphs
import spdalign.metrics
from spdalign.fileio import (
    load_dataset,
    load_trace,
    load_transform,
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

    def test_target_dim_required(self, corpus, tmp_path, capsys):
        args = train_args(corpus, tmp_path)
        del args[args.index("--target-dim") : args.index("--target-dim") + 2]
        assert cli.main(args) == 1
        assert "target_dim" in capsys.readouterr().err

    def test_missing_manifest(self, tmp_path, capsys):
        code = cli.main(train_args(str(tmp_path / "nope.txt"), tmp_path))
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, corpus, tmp_path, capsys):
        # an enormous kernel width underflows every similarity to zero
        code = cli.main(train_args(corpus, tmp_path, "--beta", "1e12"))
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_strict_passes_on_healthy_gradients(self, corpus, tmp_path, capsys):
        code = cli.main(train_args(corpus, tmp_path, "--strict"))
        assert code == 0
        assert "max relative gradient error" in capsys.readouterr().out
        assert (tmp_path / "W.txt").exists()

    def test_strict_blocks_on_gradcheck_failure(
        self, corpus, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "gradcheck_report", lambda *a, **k: 1.0)
        code = cli.main(train_args(corpus, tmp_path, "--strict"))
        assert code == 3
        assert "refusing to train" in capsys.readouterr().err
        assert not (tmp_path / "W.txt").exists()


def write_corpus(root, samples, labels):
    """A manifest over the given matrices with the given class labels."""
    entries = []
    for k, (X, label) in enumerate(zip(samples, labels)):
        save_matrix(str(root / f"s{k}.txt"), X)
        entries.append((f"s{k}", label, f"s{k}.txt"))
    save_manifest(str(root / "manifest.txt"), entries)
    return str(root / "manifest.txt")


@pytest.fixture
def pairwise_calls(monkeypatch):
    """Counts calls to every binding of pairwise_dist2 the package resolves."""
    calls = []
    original = spdalign.metrics.pairwise_dist2

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spdalign.metrics, "pairwise_dist2", counted)
    monkeypatch.setattr(spdalign.graphs, "pairwise_dist2", counted)
    return calls


class TestTrainDistancePass:
    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("beta", [None, "0.5"])
    def test_one_distance_matrix_same_outputs(
        self, corpus, tmp_path, pairwise_calls, metric, beta
    ):
        extra = ["--metric", metric.value]
        if beta is not None:
            extra += ["--beta", beta]
        assert cli.main(train_args(corpus, tmp_path / "cli", *extra)) == 0
        assert len(pairwise_calls) == 1

        # the same run driven through the library's composed entry points
        data, _, _ = load_dataset(corpus)
        graphs = build_graphs(data, metric, v_w=3, v_b=3)  # auto: smallest class - 1
        value = default_beta(metric, data.samples) if beta is None else float(beta)
        result = rcg_maximize(
            data, graphs, metric, value, initial_transform(6, 2, seed=3),
            OptimizerConfig(max_iters=8, seed=3),
        )
        save_transform(str(tmp_path / "W.txt"), result.W_final)
        save_trace(str(tmp_path / "trace.txt"), result)
        for name in ["W.txt", "trace.txt"]:
            assert (tmp_path / "cli" / name).read_bytes() == (
                tmp_path / name
            ).read_bytes()

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

    def test_nonpositive_beta_computes_no_distance(
        self, corpus, tmp_path, capsys, pairwise_calls
    ):
        assert cli.main(train_args(corpus, tmp_path, "--beta", "0")) == 1
        assert "beta must be positive" in capsys.readouterr().err
        assert pairwise_calls == []


class TestGradcheckDistancePass:
    def test_one_distance_matrix_per_instance(self, pairwise_calls):
        cli.gradcheck_report(list(MetricKind), instances=2, seed=4)
        assert len(pairwise_calls) == 3 * 2


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

    def test_unknown_field(self, corpus, tmp_path, capsys):
        config = self.write_config(tmp_path, {"target_dims": 2})
        assert cli.main(train_args(corpus, tmp_path, "--config", config)) == 1
        assert "target_dims" in capsys.readouterr().err

    def test_wrong_field_type(self, corpus, tmp_path, capsys):
        config = self.write_config(tmp_path, {"vw": "two"})
        assert cli.main(train_args(corpus, tmp_path, "--config", config)) == 1
        assert "'vw'" in capsys.readouterr().err

    def test_bool_is_not_an_integer(self, corpus, tmp_path, capsys):
        config = self.write_config(tmp_path, {"seed": True})
        assert cli.main(train_args(corpus, tmp_path, "--config", config)) == 1
        assert "'seed'" in capsys.readouterr().err

    def test_invalid_json(self, corpus, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        code = cli.main(train_args(corpus, tmp_path, "--config", str(path)))
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_top_level_must_be_object(self, corpus, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        code = cli.main(train_args(corpus, tmp_path, "--config", str(path)))
        assert code == 1
        assert "object" in capsys.readouterr().err


class TestEval:
    def test_baseline_only(self, corpus, capsys):
        code = cli.main(
            ["eval", "--manifest", corpus, "--metric", "lem", "--splits", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline 1-NN (lem)" in out
        assert "3 split(s)" in out
        assert "transformed" not in out

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

    def test_deterministic_output(self, corpus, capsys):
        args = ["eval", "--manifest", corpus, "--splits", "3", "--seed", "4"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first


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

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "gradcheck_report", lambda *a, **k: 0.5)
        assert cli.main(["gradcheck"]) == 3
        assert "FAILED" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_metric_choice(self, capsys):
        assert cli.main(["train", "--metric", "euclid"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 1

    def test_unknown_flag(self, capsys):
        assert cli.main(["gradcheck", "--bogus"]) == 1
