"""Tests for the synthetic-MNIST renderer and dataset cache."""

import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.data.synthetic import (
    IMAGE_PIXELS,
    SyntheticMNIST,
    load_synthetic_mnist,
    render_digits,
)


class TestRenderDigits:
    def test_output_shape_and_range(self, rng):
        labels = np.array([0, 1, 2, 3])
        images = render_digits(labels, rng)
        assert images.shape == (4, IMAGE_PIXELS)
        assert images.min() >= 0.0 and images.max() <= 1.0

    def test_images_have_ink(self, rng):
        images = render_digits(np.arange(10), rng)
        # Every digit should paint a substantial number of pixels.
        ink = (images > 0.5).sum(axis=1)
        assert np.all(ink > 30)
        # ...but not flood the canvas.
        assert np.all(ink < IMAGE_PIXELS / 3)

    def test_jitter_makes_samples_differ(self, rng):
        images = render_digits(np.array([7, 7, 7, 7]), rng)
        diffs = [np.abs(images[0] - images[i]).max() for i in range(1, 4)]
        assert all(d > 0.1 for d in diffs)

    def test_same_rng_is_deterministic(self):
        a = render_digits(np.array([1, 2, 3]), np.random.default_rng(5))
        b = render_digits(np.array([1, 2, 3]), np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_chunking_invariant(self):
        labels = np.arange(20) % 10
        a = render_digits(labels, np.random.default_rng(1), chunk=4)
        b = render_digits(labels, np.random.default_rng(1), chunk=256)
        np.testing.assert_array_equal(a, b)

    def test_bad_labels_rejected(self, rng):
        with pytest.raises(ValueError):
            render_digits(np.array([10]), rng)
        with pytest.raises(ValueError):
            render_digits(np.array([[1, 2]]), rng)

    def test_classes_are_visually_distinct(self, rng):
        """Mean images of different digits differ far more than samples
        within one digit — the property the metric classifier depends on."""
        per_class = 20
        labels = np.repeat(np.arange(10), per_class)
        images = render_digits(labels, rng)
        means = images.reshape(10, per_class, -1).mean(axis=1)
        within = np.linalg.norm(
            images.reshape(10, per_class, -1) - means[:, None, :], axis=2
        ).mean()
        between = np.mean([
            np.linalg.norm(means[i] - means[j])
            for i in range(10) for j in range(i + 1, 10)
        ])
        # Within-class scatter includes the speckle noise floor, so the
        # margin is modest — but class means must still be farther apart.
        assert between > within


class TestLoadSyntheticMnist:
    def test_balanced_classes(self, cache_dir):
        ds = load_synthetic_mnist(200, seed=9)
        counts = np.bincount(ds.labels, minlength=10)
        assert np.all(counts == 20)

    def test_deterministic_per_seed(self, cache_dir):
        a = load_synthetic_mnist(50, seed=3, cache=False)
        b = load_synthetic_mnist(50, seed=3, cache=False)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self, cache_dir):
        a = load_synthetic_mnist(50, seed=3, cache=False)
        b = load_synthetic_mnist(50, seed=4, cache=False)
        assert np.abs(a.images - b.images).max() > 0.1

    def test_cache_roundtrip(self, cache_dir):
        fresh = load_synthetic_mnist(64, seed=11)       # renders + writes
        cached = load_synthetic_mnist(64, seed=11)      # loads from disk
        np.testing.assert_array_equal(fresh.images, cached.images)
        np.testing.assert_array_equal(fresh.labels, cached.labels)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            load_synthetic_mnist(0)

    def test_as_grid(self, cache_dir):
        ds = load_synthetic_mnist(10, seed=1)
        assert ds.as_grid(0).shape == (28, 28)

    def test_container_validation(self):
        with pytest.raises(ValueError):
            SyntheticMNIST(np.zeros((3, 10)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            SyntheticMNIST(np.zeros((3, IMAGE_PIXELS)), np.zeros(2, dtype=int))


class TestCacheFile:
    """The cache file is stored (not deflated), and a damaged one is
    re-rendered rather than failing every run that loads it."""

    @pytest.fixture()
    def own_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        return tmp_path

    @staticmethod
    def cache_file(directory: Path) -> Path:
        (path,) = directory.glob("synmnist-*.npz")
        return path

    def test_members_are_stored_and_equal_a_fresh_render(self, own_cache):
        cached = load_synthetic_mnist(64, seed=11)
        with zipfile.ZipFile(self.cache_file(own_cache)) as archive:
            members = archive.infolist()
        assert {m.filename for m in members} == {"images.npy", "labels.npy"}
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)
        loaded = load_synthetic_mnist(64, seed=11)
        fresh = load_synthetic_mnist(64, seed=11, cache=False)
        for dataset in (cached, loaded):
            np.testing.assert_array_equal(dataset.images, fresh.images)
            np.testing.assert_array_equal(dataset.labels, fresh.labels)

    @pytest.mark.parametrize("damage", ["truncated", "empty"])
    def test_damaged_file_is_rendered_again(self, own_cache, damage):
        fresh = load_synthetic_mnist(64, seed=12, cache=False)
        load_synthetic_mnist(64, seed=12)
        path = self.cache_file(own_cache)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2] if damage == "truncated" else b"")
        again = load_synthetic_mnist(64, seed=12)
        np.testing.assert_array_equal(again.images, fresh.images)
        np.testing.assert_array_equal(again.labels, fresh.labels)
        # ...and the damaged file was replaced by a good one.
        reloaded = load_synthetic_mnist(64, seed=12)
        np.testing.assert_array_equal(reloaded.images, fresh.images)
