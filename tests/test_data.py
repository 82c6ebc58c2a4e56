import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wwae.data import (
    Dataset,
    batches,
    derive_labels_path,
    load_dataset,
    load_idx,
    make_blob_images,
    make_ring,
    ring_centers,
    write_idx_images,
    write_idx_labels,
)
from wwae.config import TrainConfig
from wwae.numerics import Rng


def write_raw_idx_images(path, arrays):
    """Hand-built IDX images file straight from the format definition."""
    n = len(arrays)
    rows, cols = arrays[0].shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        for a in arrays:
            fh.write(a.astype(np.uint8).tobytes())


class TestLoadIdx:
    def test_hand_built_fixture(self, tmp_path):
        imgs = [
            np.array([[0, 255], [51, 102]], dtype=np.uint8),
            np.array([[255, 0], [204, 153]], dtype=np.uint8),
        ]
        p = tmp_path / "img-idx3"
        write_raw_idx_images(p, imgs)
        ds = load_idx(p, None, limit=10)
        assert ds.examples.shape == (2, 4)
        assert ds.image_shape == (2, 2)
        np.testing.assert_allclose(
            ds.examples,
            np.array([[0, 255, 51, 102], [255, 0, 204, 153]]) / 255.0,
        )

    def test_scaling_matches_two_pass_form_bit_for_bit(self, tmp_path):
        pixels = np.arange(256, dtype=np.uint8).reshape(64, 2, 2)
        p = tmp_path / "all-values-idx3"
        write_raw_idx_images(p, list(pixels))
        want = pixels.reshape(64, 4).astype(np.float64) / 255.0
        assert load_idx(p).examples.tobytes() == want.tobytes()

    def test_labels_aligned(self, tmp_path):
        ip, lp = tmp_path / "i", tmp_path / "l"
        write_idx_images(ip, np.linspace(0, 1, 3 * 4).reshape(3, 4), (2, 2))
        write_idx_labels(lp, np.array([7, 1, 2]))
        ds = load_idx(ip, lp, limit=2)
        assert ds.n == 2
        np.testing.assert_array_equal(ds.labels, [7, 1])

    def test_wrong_magic(self, tmp_path):
        ip, lp = tmp_path / "i", tmp_path / "l"
        # enough labels that the image reader gets a full 16-byte header
        write_idx_labels(lp, np.arange(16))
        with pytest.raises(ValueError, match="not IDX images"):
            load_idx(lp, None, limit=2)
        write_idx_images(ip, np.zeros((2, 4)), (2, 2))
        with pytest.raises(ValueError, match="not IDX labels"):
            load_idx(ip, ip, limit=2)

    def test_truncated(self, tmp_path):
        p = tmp_path / "trunc"
        write_idx_images(p, np.zeros((4, 4)), (2, 2))
        raw = p.read_bytes()
        p.write_bytes(raw[:-3])
        with pytest.raises(ValueError, match="truncated IDX"):
            load_idx(p, None, limit=4)

    def test_limit_zero_rejected(self, tmp_path):
        p = tmp_path / "i"
        write_idx_images(p, np.zeros((2, 4)), (2, 2))
        with pytest.raises(ValueError):
            load_idx(p, None, limit=0)

    def test_no_images_rejected(self, tmp_path):
        p = tmp_path / "empty-idx3"
        write_idx_images(p, np.zeros((0, 4)), (2, 2))
        for limit in (None, 5):
            with pytest.raises(ValueError, match=f"IDX file {p} holds no images"):
                load_idx(p, None, limit=limit)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_idx(tmp_path / "nope", None, limit=1)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_write_read_roundtrip(self, tmp_path_factory, seed, n):
        # uint8 quantization is exact for k/255 pixel values
        tmp = tmp_path_factory.mktemp("idx")
        rng = Rng(seed)
        raw = rng.integers(0, 256, n * 9).reshape(n, 9) / 255.0
        write_idx_images(tmp / "i", raw, (3, 3))
        ds = load_idx(tmp / "i", None, limit=n)
        np.testing.assert_array_equal(ds.examples, raw)


def test_derive_labels_path(tmp_path):
    ip = tmp_path / "train-images-idx3-ubyte"
    lp = tmp_path / "train-labels-idx1-ubyte"
    ip.write_bytes(b"")
    assert derive_labels_path(ip) is None  # labels file absent
    lp.write_bytes(b"")
    assert derive_labels_path(ip) == lp


class TestMakeRing:
    def test_sigma_zero_on_centers(self):
        ds = make_ring(Rng(1), 64, sigma=0.0)
        centers = ring_centers()
        d = np.linalg.norm(ds.examples[:, None, :] - centers[None], axis=2).min(axis=1)
        assert d.max() == 0.0

    def test_mode_balance(self):
        ds = make_ring(Rng(2), 8000)
        counts = np.bincount(ds.labels, minlength=8)
        assert np.all(np.abs(counts - 1000) <= 150)

    def test_mean_near_zero(self):
        ds = make_ring(Rng(3), 8000)
        assert np.all(np.abs(ds.examples.mean(axis=0)) < 0.1)

    def test_labels_match_nearest_center(self):
        ds = make_ring(Rng(4), 512)
        centers = ring_centers()
        nearest = np.linalg.norm(
            ds.examples[:, None, :] - centers[None], axis=2
        ).argmin(axis=1)
        # sigma=0.1 vs inter-mode distance 1.53: no crossovers expected
        np.testing.assert_array_equal(nearest, ds.labels)

    def test_determinism(self):
        a = make_ring(Rng(5), 100)
        b = make_ring(Rng(5), 100)
        np.testing.assert_array_equal(a.examples, b.examples)


class TestMakeBlobImages:
    def test_range_and_shape(self):
        ds = make_blob_images(Rng(1), 12)
        assert ds.examples.shape == (12, 784)
        assert ds.image_shape == (28, 28)
        assert ds.examples.min() >= 0.0 and ds.examples.max() <= 1.0

    def test_has_signal(self):
        ds = make_blob_images(Rng(2), 12)
        assert ds.examples.max() > 0.5  # bright bumps exist
        assert ds.examples.mean() < 0.3  # mostly dark background

    def test_determinism(self):
        a = make_blob_images(Rng(3), 6)
        b = make_blob_images(Rng(3), 6)
        np.testing.assert_array_equal(a.examples, b.examples)


class TestBatches:
    def test_same_seed_same_sequence(self):
        ds = make_ring(Rng(1), 100)
        s1 = batches(ds, 16, Rng(9))
        s2 = batches(ds, 16, Rng(9))
        for _ in range(5):
            np.testing.assert_array_equal(next(s1), next(s2))

    def test_full_size_batch(self):
        ds = make_ring(Rng(1), 32)
        assert next(batches(ds, 32, Rng(2))).shape == (32, 2)

    def test_oversized_batch_rejected(self):
        ds = make_ring(Rng(1), 8)
        with pytest.raises(ValueError):
            batches(ds, 9, Rng(2))

    def test_inclusion_frequency(self):
        # with replacement: P(example in a batch draw) = batch/n per slot
        n, batch, draws = 50, 10, 10_000
        ds = make_ring(Rng(1), n)
        stream = batches(ds, batch, Rng(3))
        hits = np.zeros(n)
        key = {tuple(row): i for i, row in enumerate(ds.examples)}
        for _ in range(draws):
            for row in next(stream):
                hits[key[tuple(row)]] += 1
        freq = hits / (draws * batch)
        se = np.sqrt((1 / n) * (1 - 1 / n) / (draws * batch))
        assert np.all(np.abs(freq - 1 / n) <= 3 * se + 1e-12)


def test_load_dataset_ring_and_idx(tmp_path):
    cfg = TrainConfig(dataset="ring", limit=64).validate()
    ds = load_dataset(cfg, Rng(1))
    assert ds.n == 64 and ds.image_shape is None
    # a ring is built whole: a smaller one is not a prefix of it
    assert load_dataset(cfg, Rng(1), rows=8).examples.tobytes() == ds.examples.tobytes()

    ip = tmp_path / "tiny-images-idx3-ubyte"
    write_idx_images(ip, np.arange(16.0).reshape(4, 4) / 15.0, (2, 2))
    cfg = TrainConfig(dataset="idx", data_path=str(ip), limit=3).validate()
    ds = load_dataset(cfg, Rng(1))
    assert ds.n == 3 and ds.image_shape == (2, 2)
    # IDX reads the first `rows` rows, never more than `limit`
    assert [load_dataset(cfg, Rng(1), rows).n for rows in (1, 2, 3, 4)] == [1, 2, 3, 3]
    assert load_dataset(cfg, Rng(1), 2).examples.tobytes() == ds.examples[:2].tobytes()


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2, dtype=np.int64), "bad", None)
