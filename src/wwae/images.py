"""Binary PGM export, sample-grid tiling, CSV writers and atomic file
replacement.

Uncompressed P5 keeps image artifacts byte-exact under fixed seeds, so
golden-file tests can compare whole files.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from pathlib import Path
from typing import IO, Iterator, Optional

import numpy as np

from .numerics import Matrix


def to_bytes_image(img: Matrix) -> np.ndarray:
    """Map [0,1] floats to uint8 via clamp(round(255 x))."""
    img = np.asarray(img, dtype=np.float64)
    return np.clip(np.rint(255.0 * img), 0, 255).astype(np.uint8)


def write_pgm(path: str | Path, img: Matrix) -> None:
    """Binary PGM (P5) from an h x w matrix in [0,1]."""
    data = to_bytes_image(img)
    if data.ndim != 2:
        raise ValueError(f"PGM needs an h x w matrix, got shape {data.shape}")
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def tile_grid(
    rows: Matrix, image_shape: tuple[int, int], cols: Optional[int] = None
) -> Matrix:
    """Tile n flattened images into a near-square grid, zero-padding gaps.

    Default layout is ceil(sqrt(n)) columns, so 64 images of 28 x 28 tile
    to a 224 x 224 grid.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    h, w = image_shape
    if rows.shape[1] != h * w:
        raise ValueError(
            f"image rows have {rows.shape[1]} values, shape {image_shape} needs {h * w}"
        )
    if cols is None:
        cols = int(math.ceil(math.sqrt(n)))
    grid_rows = int(math.ceil(n / cols))
    canvas = np.zeros((grid_rows * h, cols * w))
    for i in range(n):
        r, c = divmod(i, cols)
        canvas[r * h : (r + 1) * h, c * w : (c + 1) * w] = rows[i].reshape(h, w)
    return canvas


def pair_grid(
    originals: Matrix, reconstructions: Matrix, image_shape: tuple[int, int]
) -> Matrix:
    """Original/reconstruction pairs side by side, 2*ceil(sqrt(n)) columns."""
    originals = np.asarray(originals, dtype=np.float64)
    reconstructions = np.asarray(reconstructions, dtype=np.float64)
    if originals.shape != reconstructions.shape:
        raise ValueError(
            f"shape mismatch: {originals.shape} vs {reconstructions.shape}"
        )
    n = originals.shape[0]
    base = int(math.ceil(math.sqrt(n)))
    interleaved = np.zeros((2 * n, originals.shape[1]))
    interleaved[0::2] = originals
    interleaved[1::2] = reconstructions
    return tile_grid(interleaved, image_shape, cols=2 * base)


def _write_table(
    path: str | Path, header: str, values: Matrix, labels: Optional[np.ndarray]
) -> None:
    """`header`, then one row per line: each value as `%.17g` (the format
    `f"{v:.17g}"` uses), comma-separated, then the integer label if given.

    The whole table is one `%` format, not one f-string per value.
    """
    values = np.asarray(values, dtype=np.float64)
    n, d = values.shape
    cells = ["%.17g"] * d
    rows = values.tolist()
    if labels is not None:
        cells.append("%d")
        for row, label in zip(rows, np.asarray(labels).tolist()):
            row.append(label)
    table = (",".join(cells) + "\n") * n
    with open(path, "w") as fh:
        fh.write(header + table % tuple(itertools.chain.from_iterable(rows)))


def write_points_csv(
    path: str | Path, points: Matrix, labels: Optional[np.ndarray] = None
) -> None:
    """One point per line, comma-separated, full double precision."""
    _write_table(path, "", points, labels)


def write_latent_csv(
    path: str | Path, codes: Matrix, labels: Optional[np.ndarray]
) -> None:
    """Latent dump with a named header: z_1..z_l and label when present."""
    ell = np.shape(codes)[1]
    header = ",".join(f"z_{j + 1}" for j in range(ell))
    if labels is not None:
        header += ",label"
    _write_table(path, header + "\n", codes, labels)


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open a temporary file beside `path` for writing; when the block ends
    it replaces `path`. If the block raises, the temporary file is removed
    and `path` keeps its previous content."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
