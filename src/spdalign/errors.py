"""Exception hierarchy shared across the package.

Validation problems (bad configs, malformed files, shape mismatches) and
numerical failures (lost positive definiteness, eigensolver breakdown) are
kept in separate branches so the CLI can map them to distinct exit codes.

`check_count` and `check_positive` are the rules for every setting: each
count and seed (target dim, neighbor counts, k, repeats, max_iters, the
synthetic shape) goes through `check_count`, each bandwidth and tolerance
(beta, grad_tol, rel_obj_tol) through `check_positive`. `check_type` is
their type rule, which also types the two reals with a range of their own
(train_fraction, noise) and each field of a config file.
"""

import math
import numbers

import numpy as np


class SpdAlignError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SpdAlignError):
    """Bad user input: configs, file contents, dimensions, parameters."""


class ConfigError(ValidationError):
    """Invalid or inconsistent run configuration."""


class DimMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class InsufficientClassSizeError(ValidationError):
    """A class has too few samples to build within-class neighbor pairs."""


class NumericalError(SpdAlignError):
    """A computation failed for numerical reasons."""


class _MatrixCheckError(NumericalError):
    """A check of one matrix or a stack failed; `index` is the position of
    the first failing matrix of a stack, None for one matrix."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NonSymmetricError(_MatrixCheckError):
    """Input matrix is not symmetric within tolerance."""


class NotPositiveDefiniteError(_MatrixCheckError):
    """Input matrix has an eigenvalue at or below the positivity floor."""


class NoConvergenceError(NumericalError):
    """An iterative matrix routine failed to converge."""


class RankDeficientError(NumericalError):
    """A transform lost column full rank."""


class DegenerateInputError(NumericalError):
    """Input data is degenerate (e.g. all feature frames identical)."""


class DegenerateAlignmentError(NumericalError):
    """Centered similarity matrix vanished; the objective is undefined."""


def check_type(name, value, kind=(int, float, np.integer, np.floating),
               what="a number"):
    """Raise ValidationError, naming the field, unless value is an instance
    of `kind`, described as `what`. A bool never is, though Python counts
    it an integer. A number is a kind numpy computes with: an int, a float
    or a numpy integer or floating scalar, not any other `numbers.Real`
    (a `fractions.Fraction` stops numpy's ufuncs)."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(f"{name} must be {what}, got {value!r}")


def check_count(name, value, least):
    """Raise ValidationError, naming the field, unless value is an integer
    (a numpy integer too, a bool not) of at least `least`."""
    check_type(name, value, numbers.Integral, "an integer")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")


def check_positive(name, value):
    """Raise ValidationError, naming the field, unless value is a number (a
    numpy one too, a bool not) that is positive and finite."""
    check_type(name, value)
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value}")
