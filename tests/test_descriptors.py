"""Covariance descriptor and synthetic dataset tests."""

import numpy as np
import pytest

from helpers import synth_reference
from spdalign.descriptors import (
    RIDGE_FLOOR,
    RIDGE_SCALE,
    SynthConfig,
    cov_descriptor,
    synth_dataset,
)
from spdalign.errors import DegenerateInputError, ValidationError


class TestCovDescriptor:
    def test_standard_basis_frames_hand_computed(self):
        # frames e_1..e_d: unbiased covariance (I - 11^T/d)/(d-1), trace 1,
        # so the ridge is exactly RIDGE_SCALE
        d = 4
        frames = np.eye(d)
        expected_cov = (np.eye(d) - np.full((d, d), 1.0 / d)) / (d - 1)
        assert abs(np.trace(expected_cov) - 1.0) <= 1e-15
        out = cov_descriptor(frames)
        assert np.allclose(out, expected_cov + RIDGE_SCALE * np.eye(d), atol=1e-14)

    def test_matches_numpy_cov(self):
        rng = np.random.default_rng(0)
        frames = rng.standard_normal((30, 5))
        ref = np.cov(frames.T, ddof=1)
        ridge = RIDGE_SCALE * np.trace(ref)
        out = cov_descriptor(frames)
        assert np.allclose(out, ref + ridge * np.eye(5), rtol=1e-12, atol=1e-12)

    def test_ridge_keeps_minimum_eigenvalue(self):
        # two frames give a rank-1 covariance; the ridge must carry the floor
        frames = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        out = cov_descriptor(frames)
        delta = RIDGE_SCALE * 2.0  # covariance trace is 2
        assert np.linalg.eigvalsh(out)[0] >= delta * (1 - 1e-9)

    def test_augmented_block_layout(self):
        rng = np.random.default_rng(1)
        frames = rng.standard_normal((20, 4)) + 3.0
        mu = frames.mean(axis=0)
        plain = cov_descriptor(frames)
        aug = cov_descriptor(frames, augment_mean=True)
        assert aug.shape == (5, 5)
        assert np.allclose(aug[:4, :4], plain + np.outer(mu, mu), atol=1e-12)
        assert np.allclose(aug[:4, 4], mu) and np.allclose(aug[4, :4], mu)
        assert aug[4, 4] == 1.0

    def test_augmented_zero_mean_is_block_diagonal(self):
        frames = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        aug = cov_descriptor(frames, augment_mean=True)
        assert np.allclose(aug[:2, 2], 0.0, atol=1e-15)
        assert aug[2, 2] == 1.0

    @pytest.mark.parametrize("augment", [False, True])
    def test_output_positive_definite(self, augment):
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((12, 6)) * 5.0 + 1.0
        out = cov_descriptor(frames, augment_mean=augment)
        assert np.linalg.eigvalsh(out)[0] > 0
        assert np.array_equal(out, out.T)

    def test_identical_frames_floor_and_warning(self):
        frames = np.ones((5, 3))
        with pytest.warns(RuntimeWarning):
            out = cov_descriptor(frames)
        assert np.linalg.eigvalsh(out)[0] >= RIDGE_FLOOR * (1 - 1e-9)

    def test_identical_frames_error_when_floor_disabled(self):
        with pytest.raises(DegenerateInputError):
            cov_descriptor(np.ones((5, 3)), degenerate_floor=False)

    def test_rejects_single_frame(self):
        with pytest.raises(ValidationError):
            cov_descriptor(np.ones((1, 3)))

    def test_rejects_non_finite(self):
        frames = np.ones((3, 2))
        frames[0, 0] = np.nan
        with pytest.raises(ValidationError):
            cov_descriptor(frames)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((10, 4))
        assert np.array_equal(cov_descriptor(frames), cov_descriptor(frames))


class TestSynthDataset:
    def test_shapes_and_labels(self):
        data = synth_dataset(SynthConfig(dim=5, classes=3, per_class=4, noise=0.3))
        assert data.size == 12 and data.dim == 5
        assert data.class_sizes().tolist() == [4, 4, 4]

    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(dim=4, classes=2, per_class=3, noise=0.5, seed=11)
        a, b = synth_dataset(cfg), synth_dataset(cfg)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = synth_dataset(SynthConfig(dim=4, classes=2, per_class=3, noise=0.5, seed=1))
        b = synth_dataset(SynthConfig(dim=4, classes=2, per_class=3, noise=0.5, seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_zero_noise_collapses_to_prototypes(self):
        data = synth_dataset(SynthConfig(dim=4, classes=2, per_class=3, noise=0.0))
        for cls in range(2):
            block = data.samples[data.labels == cls]
            assert np.array_equal(block[0], block[1])
            assert np.array_equal(block[0], block[2])

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("noise", [0.0, 0.2, 0.5])
    @pytest.mark.parametrize("dim", [2, 6, 12, 20])
    def test_matches_frozen_route(self, dim, noise, seed):
        # every benchmark dataset is generated here, so the samples must stay
        # the same bits as the earlier route's
        cfg = SynthConfig(dim=dim, classes=3, per_class=4, noise=noise, seed=seed)
        data = synth_dataset(cfg)
        samples, labels = synth_reference(cfg)
        assert data.samples.tobytes() == samples.tobytes()
        assert np.array_equal(data.labels, labels)

    def test_all_samples_positive_definite(self):
        data = synth_dataset(SynthConfig(dim=6, classes=3, per_class=5, noise=0.8))
        for X in data.samples:
            assert np.linalg.eigvalsh(X)[0] > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 1, "classes": 2, "per_class": 2, "noise": 0.1},
            {"dim": 3, "classes": 1, "per_class": 2, "noise": 0.1},
            {"dim": 3, "classes": 2, "per_class": 1, "noise": 0.1},
            {"dim": 3, "classes": 2, "per_class": 2, "noise": -0.5},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValidationError):
            SynthConfig(**kwargs)
