"""Exception hierarchy shared across the package.

Validation problems (bad configs, malformed files, shape mismatches) and
numerical failures (lost positive definiteness, eigensolver breakdown) are
kept in separate branches so the CLI can map them to distinct exit codes.
`check_count` is the one check of a config's integer counts.
"""

import numbers


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


def check_count(name, value, least):
    """Raise ValidationError, naming the field, unless value is an integer
    (a numpy integer too, a bool not) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
