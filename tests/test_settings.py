"""Every count, seed, bandwidth and tolerance of the public entry points is
decided by one rule of `spdalign.errors`: a count or seed by `check_count`,
a bandwidth or tolerance by `check_positive`, and the two reals with a range
of their own (train_fraction, noise) by `check_type` and that range. Each
bad value raises a ValidationError that names the setting; a numpy scalar of
a valid value is accepted."""

from fractions import Fraction

import numpy as np
import pytest

from spdalign.descriptors import SynthConfig, synth_dataset
from spdalign.errors import ValidationError, check_count, check_type, check_positive
from spdalign.evaluate import (
    check_split_settings,
    knn_classify,
    repeated_split_eval,
    split,
)
from spdalign.graphs import build_graphs, neighbor_graphs
from spdalign.metrics import pairwise_dist2
from spdalign.objective import AlignmentProblem
from spdalign.optimizer import OptimizerConfig, initial_transform

DATA = synth_dataset(SynthConfig(dim=4, classes=2, per_class=4, noise=0.3, seed=0))
GRAPHS = build_graphs(DATA, "lem", 1, 1)
TRAIN, TEST = split(DATA, 0.5, 0)
D = pairwise_dist2("lem", DATA)

# id -> (call of the setting's value, its name, a valid value, bad values:
# a non-integer count or a non-number real, a bool, then out-of-range values)
SETTINGS = {
    "build_graphs-v_w": (lambda v: build_graphs(DATA, "lem", v, 1), "v_w", 1,
                         [2.5, True, 0]),
    "build_graphs-v_b": (lambda v: build_graphs(DATA, "aim", 1, v), "v_b", 1,
                         [2.5, True, -1]),
    "neighbor_graphs-v_w": (lambda v: neighbor_graphs(DATA, D, v, 1), "v_w", 2,
                            ["2", True, 0]),
    "knn_classify-k": (lambda v: knn_classify(TRAIN, TEST, "lem", k=v), "k", 1,
                       [1.5, True, 0, TRAIN.size + 1]),
    "check_split_settings-repeats": (lambda v: check_split_settings(0.5, v),
                                     "repeats", 1, [2.5, True, 0]),
    "repeated_split_eval-repeats": (
        lambda v: repeated_split_eval(DATA, "lem", 0.5, v), "repeats", 2,
        [2.5, True, 0]),
    "repeated_split_eval-seed": (
        lambda v: repeated_split_eval(DATA, "lem", 0.5, 2, seed=v), "seed", 3,
        [2.5, True, -1]),
    "repeated_split_eval-train_fraction": (
        lambda v: repeated_split_eval(DATA, "lem", v, 2), "train_fraction", 0.5,
        ["0.5", True, 0.0, 1.5, float("nan")]),
    "split-seed": (lambda v: split(DATA, 0.5, v), "seed", 0, [2.5, True, -1]),
    "initial_transform-m": (lambda v: initial_transform(6, v, 0), "m", 2,
                            [2.5, True, 0, 6]),
    "initial_transform-seed": (lambda v: initial_transform(6, 2, v), "seed", 0,
                               [2.5, True, -1]),
    "OptimizerConfig-max_iters": (lambda v: OptimizerConfig(max_iters=v),
                                  "max_iters", 5, [2.5, True, 0]),
    "OptimizerConfig-grad_tol": (lambda v: OptimizerConfig(grad_tol=v),
                                 "grad_tol", 1e-6, ["1e-6", True, 0.0, float("inf")]),
    "OptimizerConfig-rel_obj_tol": (lambda v: OptimizerConfig(rel_obj_tol=v),
                                    "rel_obj_tol", 1e-8,
                                    [None, True, -1e-8, float("nan")]),
    "AlignmentProblem.build-beta": (
        lambda v: AlignmentProblem.build(DATA, GRAPHS, "lem", v), "beta", 0.5,
        ["0.5", True, 0.0, float("inf")]),
    "SynthConfig-noise": (lambda v: SynthConfig(4, 2, 4, v), "noise", 0.3,
                          ["0.3", True, -0.1, float("inf")]),
}

BAD = [
    # the first two are rejected by type, whatever their value
    pytest.param(call, bad, f"^{name} must be " + ("(an integer|a number), got "
                                                    if rank < 2 else ""),
                 id=f"{key}-{bad!r}")
    for key, (call, name, _, bads) in SETTINGS.items()
    for rank, bad in enumerate(bads)
]

# a Fraction is a real that numpy's ufuncs cannot compute with: every real
# setting rejects it by type, though its value is in range
BAD += [
    pytest.param(SETTINGS[key][0], Fraction(1, 5),
                 f"^{SETTINGS[key][1]} must be a number, got Fraction",
                 id=f"{key}-Fraction")
    for key in ("repeated_split_eval-train_fraction", "OptimizerConfig-grad_tol",
                "OptimizerConfig-rel_obj_tol", "AlignmentProblem.build-beta",
                "SynthConfig-noise")
]


@pytest.mark.parametrize("call, bad, message", BAD)
def test_bad_setting_is_named(call, bad, message):
    with pytest.raises(ValidationError, match=message):
        call(bad)


@pytest.mark.parametrize("key", SETTINGS)
def test_numpy_scalar_is_accepted(key):
    call, _, valid, _ = SETTINGS[key]
    scalar = np.int64(valid) if isinstance(valid, int) else np.float64(valid)
    call(scalar)


@pytest.mark.parametrize(
    "check, value, message",
    [
        (lambda v: check_count("n", v, 1), 2.0, "n must be an integer, got 2.0"),
        (lambda v: check_count("n", v, 1), False, "n must be an integer, got False"),
        (lambda v: check_count("n", v, 1), 0, "n must be >= 1, got 0"),
        (lambda v: check_positive("x", v), "1", "x must be a number, got '1'"),
        (lambda v: check_positive("x", v), True, "x must be a number, got True"),
        (lambda v: check_positive("x", v), 0, "x must be positive and finite, got 0"),
        (lambda v: check_positive("x", v), -np.inf,
         "x must be positive and finite, got -inf"),
        (lambda v: check_type("x", v), 1j, "x must be a number, got 1j"),
        (lambda v: check_type("x", v), Fraction(1, 2),
         "x must be a number, got Fraction(1, 2)"),
    ],
    ids=["count-float", "count-bool", "count-low", "positive-str", "positive-bool",
         "positive-zero", "positive-neg-inf", "number-complex", "number-fraction"],
)
def test_rule_wording(check, value, message):
    with pytest.raises(ValidationError) as info:
        check(value)
    assert str(info.value) == message
