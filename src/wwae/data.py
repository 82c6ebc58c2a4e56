"""Datasets and batching: IDX-format image loading (MNIST-style files),
synthetic 2-D rings for fast verification, a structured synthetic image
corpus for offline desk-scale image runs, and with-replacement mini-batch
streams.

IDX acquisition is manual by design: point data_path at locally downloaded,
gunzipped IDX files. Nothing here touches the network.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .images import to_bytes_image
from .numerics import Matrix, Rng

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# The ring: modes, circle radius and per-mode standard deviation.
RING_MODES, RING_RADIUS, RING_SIGMA = 8, 2.0, 0.1


@dataclass
class Dataset:
    """Immutable example matrix, one row per example, with optional integer
    labels, one per row.

    Image data lives in [0, 1] (scaled by 1/255) and carries image_shape;
    synthetic 2-D data has image_shape None. A dataset carries no name: the
    config or the IDX path that built it says where it came from.
    """

    examples: Matrix
    labels: Optional[np.ndarray]
    image_shape: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.labels is not None and len(self.labels) != self.examples.shape[0]:
            raise ValueError(
                f"{len(self.labels)} labels for {self.examples.shape[0]} examples"
            )

    @property
    def n(self) -> int:
        return self.examples.shape[0]

    @property
    def dim(self) -> int:
        return self.examples.shape[1]


def _read_idx(
    path: Path, magic: int, kind: str, limit: int | None
) -> tuple[list[int], np.ndarray]:
    """Check the header (big-endian uint32 magic, whose low byte is the number
    of dimensions, then one uint32 per dimension) and payload size of an IDX
    file; return the sizes and, reading no other byte, the first `limit`
    items (all when None) as a uint8 matrix with one row per item."""
    head_size = 4 + 4 * (magic & 0xFF)
    with open(path, "rb") as fh:
        head = fh.read(head_size)
        if len(head) < head_size:
            raise ValueError(f"truncated IDX file {path}: no header")
        found, *dims = struct.unpack(f">{head_size // 4}I", head)
        if found != magic:
            raise ValueError(
                f"not IDX {kind}: {path} has magic 0x{found:08x}, "
                f"expected 0x{magic:08x}"
            )
        item = math.prod(dims[1:])
        expected = dims[0] * item
        payload = os.fstat(fh.fileno()).st_size - head_size
        if payload < expected:
            raise ValueError(
                f"truncated IDX file {path}: expected {expected} data bytes, got {payload}"
            )
        n = dims[0] if limit is None else min(dims[0], limit)
        raw = fh.read(n * item)
    return dims, np.frombuffer(raw, dtype=np.uint8).reshape(n, item)


def load_idx(
    images_path: str | Path,
    labels_path: str | Path | None = None,
    limit: int | None = None,
) -> Dataset:
    """Load an IDX image file (and optional aligned label file).

    Pixels are scaled to [0, 1]. `limit` truncates to the first examples,
    and only their bytes are read; limit == 0 is rejected (an empty
    dataset is useless).
    """
    if limit is not None and limit <= 0:
        raise ValueError(f"limit must be positive, got {limit}")
    images_path = Path(images_path)
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, "images", limit)
    if count == 0:
        raise ValueError(f"IDX file {images_path} holds no images")
    # One pass; the same bits as pixels.astype(np.float64) / 255.0.
    examples = np.divide(pixels, 255.0, dtype=np.float64)
    n = examples.shape[0]

    labels = None
    if labels_path is not None:
        (ln,), raw = _read_idx(Path(labels_path), IDX_LABELS_MAGIC, "labels", n)
        if ln < n:
            raise ValueError(f"label file has {ln} entries for {n} images")
        labels = raw.ravel().astype(np.int64)

    return Dataset(examples, labels, (rows, cols))


def write_idx_images(path: str | Path, images: Matrix, shape: tuple[int, int]) -> None:
    """Write [0, 1] image rows as an IDX images file (inverse of load_idx)."""
    rows, cols = shape
    images = np.asarray(images, dtype=np.float64)
    if images.shape[1] != rows * cols:
        raise ValueError(f"rows have {images.shape[1]} pixels, shape wants {rows * cols}")
    data = to_bytes_image(images)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, images.shape[0], rows, cols))
        fh.write(data.tobytes())


def write_idx_labels(path: str | Path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        fh.write(labels.astype(np.uint8).tobytes())


def make_ring(rng: Rng, n: int) -> Dataset:
    """Equal-weight Gaussian blobs on a circle; label = mode index."""
    if n < RING_MODES:
        raise ValueError(f"need at least {RING_MODES} points, got {n}")
    labels = rng.integers(0, RING_MODES, n)
    points = ring_centers()[labels] + RING_SIGMA * rng.normal(n, 2)
    return Dataset(points, labels.astype(np.int64))


def ring_centers() -> Matrix:
    angles = 2.0 * np.pi * np.arange(RING_MODES) / RING_MODES
    return RING_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def make_blob_images(
    rng: Rng,
    n: int,
    side: int = 28,
    classes: int = 10,
) -> Dataset:
    """Structured synthetic grayscale images: per-class triangles of soft
    Gaussian bumps with jittered anchors. Offline stand-in for digit-style
    corpora; pixel values in [0, 1], label = class index.
    """
    half = (side - 1) / 2.0
    arm = 0.5 * side
    grid = np.stack(
        np.meshgrid(np.arange(side), np.arange(side), indexing="ij"), axis=-1
    ).reshape(-1, 2)

    labels = rng.integers(0, classes, n)
    theta = 2.0 * np.pi * (labels[:, None] / classes + np.arange(3)[None, :] / 3.0)
    anchors = np.stack(
        [half + arm * 0.46 * np.cos(theta), half + arm * 0.46 * np.sin(theta)], axis=-1
    )
    anchors += 1.5 * rng.normal(n, 6).reshape(n, 3, 2)
    amps = 0.8 + 0.2 * rng.uniform(n, 3)

    width = 0.09 * side
    diffs = grid[None, :, None, :] - anchors[:, None, :, :]  # n x px x 3 x 2
    bumps = np.exp(-np.sum(diffs**2, axis=-1) / (2.0 * width**2))
    images = np.clip(np.sum(bumps * amps[:, None, :], axis=-1), 0.0, 1.0)
    return Dataset(images, labels.astype(np.int64), (side, side))


def derive_labels_path(images_path: str | Path) -> Optional[Path]:
    """Guess the label file next to an IDX image file by name convention.

    Replaces "images" with "labels" and "idx3" with "idx1" in the filename
    (the standard MNIST naming); returns the path only if it exists.
    """
    images_path = Path(images_path)
    name = images_path.name.replace("images", "labels").replace("idx3", "idx1")
    if name == images_path.name:
        return None
    candidate = images_path.with_name(name)
    return candidate if candidate.is_file() else None


def load_dataset(cfg, rng: Rng, rows: Optional[int] = None) -> Dataset:
    """Materialize the dataset a TrainConfig names.

    Ring data is synthesized whole from the given rng, since a smaller ring
    is not a prefix of a larger one. IDX data comes from cfg.data_path,
    only its first `rows` rows (all `limit` when None) are read, and labels
    are picked up by filename convention when the companion file is present.
    """
    if cfg.dataset == "ring":
        return make_ring(rng, cfg.limit)
    if cfg.dataset == "idx":
        limit = cfg.limit if rows is None else min(rows, cfg.limit)
        return load_idx(cfg.data_path, derive_labels_path(cfg.data_path), limit)
    raise ValueError(f"unknown dataset kind {cfg.dataset!r}")


def batches(dataset: Dataset, batch_size: int, rng: Rng) -> Iterator[Matrix]:
    """Infinite stream of with-replacement mini-batches, seeded by rng."""
    if batch_size > dataset.n:
        raise ValueError(f"batch_size {batch_size} exceeds dataset size {dataset.n}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")

    def _stream() -> Iterator[Matrix]:
        while True:
            idx = rng.integers(0, dataset.n, batch_size)
            yield dataset.examples[idx]

    return _stream()
