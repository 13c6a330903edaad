"""Seeded mutation fuzz of the command line's input files.

Each run takes a dim-4 set of 3 classes x 5 samples, a trained `W.txt` and
a config file, mutates one file that its command reads, and runs `train`,
`eval` or `eval --transform` in-process through `cli.main`. A mutation
changes one byte, replaces one token, truncates the file, shuffles its
lines or appends a trailing token.

The gate, fixed before the first run: every run exits 0, 1 or 2, no
exception escapes `cli.main` (under this suite's settings a RuntimeWarning
is one), and a nonzero exit writes a non-empty `error:` or
`numerical failure:` line to stderr.

    PYTHONPATH=src python -m pytest -q tests/test_input_fuzz.py
"""

import json
import re
import shutil

import numpy as np
import pytest

from spdalign import cli

RUNS = 300
METRICS = ("aim", "stein", "lem")
# tokens a mutation puts in: non-numbers, non-finite and extreme values,
# small integers, and JSON values of the wrong type
TOKENS = [b"nan", b"NaN", b"inf", b"-inf", b"Infinity", b"-Infinity", b"1e308",
          b"-1e308", b"1e-320", b"-0.0", b"0", b"-1", b"1", b"2", b"5", b"0.5",
          b"abc", b"0x10", b"1,", b"\xc3\xa9", b"\xff", b'"x"', b"null", b"true",
          b"[]", b"{}"]
COMMANDS = {
    "train": ["train", "--output-dir", "{out}"],
    "eval": ["eval", "--splits", "3"],
    "eval --transform": ["eval", "--splits", "3", "--transform", "{W}"],
}
REPORT = re.compile(r"^(error|numerical failure): \S", re.MULTILINE)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The unmutated files: a synthetic set, a W.txt trained on it, and the
    config every run passes."""
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    assert cli.main(["synth", "--output-dir", str(data), "--dim", "4",
                     "--classes", "3", "--per-class", "5", "--seed", "7"]) == 0
    manifest = str(data / "manifest.txt")
    assert cli.main(["train", "--manifest", manifest, "--output-dir",
                     str(root / "trained"), "--target-dim", "2",
                     "--max-iters", "3"]) == 0
    shutil.copy(root / "trained" / "W.txt", root / "W.txt")
    return root


def mutate(content, rng):
    """content with one seeded mutation applied."""
    kind = rng.integers(5)
    if kind == 0:  # one byte
        out = bytearray(content)
        out[rng.integers(len(out))] = rng.integers(256)
        return bytes(out)
    if kind == 1:  # one token
        spans = [m.span() for m in re.finditer(rb"\S+", content)]
        start, end = spans[rng.integers(len(spans))]
        return content[:start] + TOKENS[rng.integers(len(TOKENS))] + content[end:]
    if kind == 2:  # truncated
        return content[:rng.integers(len(content))]
    if kind == 3:  # shuffled lines
        lines = content.split(b"\n")
        return b"\n".join(lines[k] for k in rng.permutation(len(lines)))
    # a trailing token on the last line
    return content.rstrip(b"\n") + b" " + TOKENS[rng.integers(len(TOKENS))] + b"\n"


def fuzz_run(base, seed, capsys):
    """(exit code, stderr) of the run of one seed: its command, with the
    config of one metric, after one mutation of one file the command reads."""
    rng = np.random.default_rng(seed)
    command = list(COMMANDS)[rng.integers(len(COMMANDS))]
    config = {"metric": METRICS[seed % len(METRICS)], "target_dim": 2,
              "vw": 2, "vb": 2, "max_iters": 3, "seed": 1}
    (base / "config.json").write_text(json.dumps(config) + "\n")
    targets = [base / "config.json", base / "data" / "manifest.txt",
               *sorted((base / "data" / "samples").iterdir())]
    if command == "eval --transform":
        targets.append(base / "W.txt")
    target = targets[rng.integers(len(targets))]
    original = target.read_bytes()
    args = [a.format(out=base / "out", W=base / "W.txt") for a in COMMANDS[command]]
    args += ["--manifest", str(base / "data" / "manifest.txt"),
             "--config", str(base / "config.json")]
    capsys.readouterr()
    try:
        target.write_bytes(mutate(original, rng))
        code = cli.main(args)
    finally:
        target.write_bytes(original)
    return code, capsys.readouterr().err


@pytest.mark.parametrize("seed", range(RUNS))
def test_mutated_input_fails_cleanly(base, seed, capsys):
    code, err = fuzz_run(base, seed, capsys)
    assert code in (0, 1, 2)
    if code:
        assert REPORT.search(err), err
