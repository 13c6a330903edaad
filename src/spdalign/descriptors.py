"""SPD descriptors from raw feature frames, plus synthetic labeled datasets.

The covariance descriptor is the unbiased sample covariance of a frame stack
with a trace-proportional ridge, an error where that ridge is not a finite
normal float64; optional mean augmentation embeds first-order statistics while
staying positive definite (the Schur complement of the corner 1 is the ridged
covariance itself).

Synthetic datasets place one SPD prototype per class (a random rotation of a
log-spaced spectrum) and scatter samples around it by congruence with a
matrix-exponential perturbation, so every sample is positive definite in
exact arithmetic (not always in float64) and the spread is controlled by a
single noise parameter. The per-class rotation acts only on the leading
eigenvalue block, so the class signal lives in a low-dimensional subspace
while the perturbation clutters every dimension — full-dimensional nearest
neighbors degrade with noise, and a well-chosen projection can recover the
separation.
"""

from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import DegenerateInputError, SpdAlignError, ValidationError, check_count
from .dataset import LabeledDataset

RIDGE_SCALE = 1e-3
SPECTRUM_RANGE = (0.1, 10.0)


def cov_descriptor(frames, augment_mean=False):
    """Ridged sample covariance of a (frames x features) stack.

    With augment_mean the result is one dimension larger:
    [[Sigma + mu mu^T, mu], [mu^T, 1]] with Sigma already ridged.

    Identical frames, a covariance trace whose ridge RIDGE_SCALE * tr (the
    descriptor's eigenvalue floor) is not a finite normal float64, and an
    augmented descriptor that is not finite raise DegenerateInputError: a
    ridge in the subnormal range would leave the smallest eigenvalues only
    a few significant bits.
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
    with np.errstate(over="ignore", invalid="ignore"):
        mu = frames.mean(axis=0)
        centered = frames - mu
        sigma = matfun.symmetrize(centered.T @ centered / (count - 1))
        tr = float(np.trace(sigma))
        ridge = RIDGE_SCALE * tr
        identical = np.all(frames == frames[0])
        if identical or not np.finfo(float).tiny <= ridge < np.inf:
            what = "all frames identical" if identical else "out of float64's range"
            raise DegenerateInputError(f"covariance trace {tr}: {what}")
        sigma = sigma + ridge * np.eye(d)
        if not augment_mean:
            return sigma
        out = np.empty((d + 1, d + 1))
        out[:d, :d] = sigma + np.outer(mu, mu)
    if not np.isfinite(out[:d, :d]).all():
        raise DegenerateInputError("augmented descriptor out of float64's range")
    out[:d, d] = mu
    out[d, :d] = mu
    out[d, d] = 1.0
    return out


@dataclass(frozen=True)
class SynthConfig:
    """Shape and spread of a generated dataset: dim, classes and per_class
    integers >= 2, seed an integer >= 0 (`check_count`), noise finite and
    >= 0."""

    dim: int
    classes: int
    per_class: int
    noise: float
    seed: int = 0

    def __post_init__(self):
        for name, least in (("dim", 2), ("classes", 2), ("per_class", 2), ("seed", 0)):
            check_count(name, getattr(self, name), least)
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
    P_k^{1/2} exp(noise * S) P_k^{1/2} for a random symmetric S, one stack
    per class. Bit-identical per seed. A noise too large for float64 to
    keep every sample PD (at dim 10, from about 3) is a ValidationError.
    """
    rng = np.random.default_rng(cfg.seed)
    spectrum = np.geomspace(SPECTRUM_RANGE[1], SPECTRUM_RANGE[0], cfg.dim)
    block = signal_dim(cfg.dim)
    samples = np.empty((cfg.classes, cfg.per_class, cfg.dim, cfg.dim))
    labels = np.repeat(np.arange(cfg.classes), cfg.per_class)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(cfg.classes):
                Q = np.eye(cfg.dim)
                Q[:block, :block] = matfun.qr_orthonormal(
                    rng.standard_normal((block, block))
                )
                if cfg.noise == 0.0:
                    samples[k] = matfun.symmetrize((Q * spectrum) @ Q.T)
                    continue
                root = (Q * np.sqrt(spectrum)) @ Q.T
                A = rng.standard_normal((cfg.per_class, cfg.dim, cfg.dim))
                w, V = matfun.sym_eig(cfg.noise * matfun.symmetrize(A))
                E = matfun.eig_apply(V, np.exp(w))
                samples[k] = matfun.symmetrize(root @ E @ root)
            return LabeledDataset(samples.reshape(-1, cfg.dim, cfg.dim), labels)
    except SpdAlignError as exc:
        raise ValidationError(f"noise {cfg.noise:g} at dim {cfg.dim}: {exc}") from exc
