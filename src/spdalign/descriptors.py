"""SPD descriptors from raw feature frames, plus synthetic labeled datasets.

The covariance descriptor is the unbiased sample covariance of a frame stack
with a trace-proportional ridge; optional mean augmentation embeds first-order
statistics while staying positive definite (the Schur complement of the
corner 1 is the ridged covariance itself).

Synthetic datasets place one SPD prototype per class (a random rotation of a
log-spaced spectrum) and scatter samples around it by congruence with a
matrix-exponential perturbation, so every sample is positive definite by
construction and the spread is controlled by a single noise parameter. The
per-class rotation acts only on the leading eigenvalue block, so the class
signal lives in a low-dimensional subspace while the perturbation clutters
every dimension — full-dimensional nearest neighbors degrade with noise, and
a well-chosen projection can recover the separation.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import DegenerateInputError, ValidationError
from .dataset import LabeledDataset

RIDGE_SCALE = 1e-3
RIDGE_FLOOR = 1e-8
SPECTRUM_RANGE = (0.1, 10.0)


def cov_descriptor(frames, augment_mean=False, degenerate_floor=True):
    """Ridged sample covariance of a (frames x features) stack.

    With augment_mean the result is one dimension larger:
    [[Sigma + mu mu^T, mu], [mu^T, 1]] with Sigma already ridged.

    A zero-trace covariance (all frames identical) gets a fixed ridge floor
    and a warning; pass degenerate_floor=False to make it an error instead.
    """
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 2:
        raise ValidationError(f"frames must be 2-D (count x dim), got {frames.shape}")
    count, d = frames.shape
    if count < 2:
        raise ValidationError(f"need at least 2 frames for a covariance, got {count}")
    if d < 1:
        raise ValidationError("feature dimension must be at least 1")
    if not np.all(np.isfinite(frames)):
        raise ValidationError("frames contain non-finite values")
    mu = frames.mean(axis=0)
    centered = frames - mu
    sigma = matfun.symmetrize(centered.T @ centered / (count - 1))
    tr = float(np.trace(sigma))
    if tr <= 0.0:
        if not degenerate_floor:
            raise DegenerateInputError("all frames identical; covariance trace is zero")
        warnings.warn(
            "all frames identical; applying the fixed ridge floor",
            RuntimeWarning,
            stacklevel=2,
        )
        ridge = RIDGE_FLOOR
    else:
        ridge = RIDGE_SCALE * tr
    sigma = sigma + ridge * np.eye(d)
    if not augment_mean:
        return sigma
    out = np.empty((d + 1, d + 1))
    out[:d, :d] = sigma + np.outer(mu, mu)
    out[:d, d] = mu
    out[d, :d] = mu
    out[d, d] = 1.0
    return out


@dataclass(frozen=True)
class SynthConfig:
    """Shape and spread of a generated dataset."""

    dim: int
    classes: int
    per_class: int
    noise: float
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValidationError(f"dim must be >= 2, got {self.dim}")
        if self.classes < 2:
            raise ValidationError(f"classes must be >= 2, got {self.classes}")
        if self.per_class < 2:
            raise ValidationError(f"per_class must be >= 2, got {self.per_class}")
        if not np.isfinite(self.noise) or self.noise < 0:
            raise ValidationError(f"noise must be finite and >= 0, got {self.noise}")


def signal_dim(dim):
    """Width of the leading block the class rotations act on."""
    return max(2, min(dim, dim // 4))


def synth_dataset(cfg):
    """Labeled SPD samples scattered around per-class prototypes.

    Class k has prototype P_k = Q_k D Q_k^T where D is a fixed descending
    log-spaced spectrum and Q_k is a random orthogonal matrix rotating only
    the span of the leading signal_dim(dim) eigenvalues; each sample is
    P_k^{1/2} exp(noise * S) P_k^{1/2} for a random symmetric S.
    Bit-identical per seed.
    """
    rng = np.random.default_rng(cfg.seed)
    spectrum = np.geomspace(SPECTRUM_RANGE[1], SPECTRUM_RANGE[0], cfg.dim)
    block = signal_dim(cfg.dim)
    samples = np.empty((cfg.classes * cfg.per_class, cfg.dim, cfg.dim))
    labels = np.repeat(np.arange(cfg.classes), cfg.per_class)
    pos = 0
    for _ in range(cfg.classes):
        Q = np.eye(cfg.dim)
        Q[:block, :block] = matfun.qr_orthonormal(rng.standard_normal((block, block)))
        proto = (Q * spectrum) @ Q.T
        root = (Q * np.sqrt(spectrum)) @ Q.T
        for _ in range(cfg.per_class):
            if cfg.noise == 0.0:
                samples[pos] = matfun.symmetrize(proto)
            else:
                A = rng.standard_normal((cfg.dim, cfg.dim))
                w, V = matfun.sym_eig(cfg.noise * 0.5 * (A + A.T))
                E = matfun.eig_apply(V, np.exp(w))
                samples[pos] = matfun.symmetrize(root @ E @ root)
            pos += 1
    return LabeledDataset(samples, labels)
