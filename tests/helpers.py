"""Shared random-input builders and oracles for the test suite."""

import numpy as np

from spdalign.graphs import LabeledDataset
from spdalign.objective import fd_gradient  # noqa: F401  (re-exported to tests)


def clustered_dataset(seed, n, classes, per_class, spread=0.3):
    """Random SPD samples bumped off a per-class base matrix."""
    rng = np.random.default_rng(seed)
    samples, labels = [], []
    for c in range(classes):
        base = rand_spd(rng, n)
        for _ in range(per_class):
            bump = rng.standard_normal((n, n)) * spread
            samples.append(base + bump @ bump.T)
            labels.append(c)
    return LabeledDataset(np.stack(samples), np.asarray(labels))


def rand_sym(rng, n, scale=1.0):
    A = rng.standard_normal((n, n))
    return scale * 0.5 * (A + A.T)


def rand_spd(rng, n, cond_spread=1.0):
    """Random SPD matrix with eigenvalues roughly in exp(±cond_spread)."""
    A = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(A)
    w = np.exp(rng.uniform(-cond_spread, cond_spread, size=n))
    return (Q * w) @ Q.T


def rand_full_rank(rng, n, m):
    """Random n x m matrix with full column rank (n >= m)."""
    W = rng.standard_normal((n, m))
    while np.linalg.matrix_rank(W) < m:
        W = rng.standard_normal((n, m))
    return W
