"""Binary PGM export, sample-grid tiling, CSV writers, atomic file
replacement, and framed files (the checkpoint and the desk-FID basis): an
ASCII magic line, a one-line JSON header, then raw little-endian float64
blocks whose sizes the header gives.

Uncompressed P5 keeps image artifacts byte-exact under fixed seeds, so
golden-file tests can compare whole files. Every writer here replaces its
file through `atomic_open`, so a failed write leaves the old file whole.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Optional

import numpy as np

from .numerics import Matrix

# A framed file's float64 blocks by name, in file order, and what its layout
# raises on a header value of the wrong type or size.
Blocks = list[tuple[str, np.ndarray]]
_HEADER_FAULTS = (TypeError, KeyError, IndexError, AttributeError, MemoryError, OverflowError)


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
    with atomic_open(path, "wb") as fh:
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
    with atomic_open(path) as fh:
        fh.write(header + table % tuple(itertools.chain.from_iterable(rows)))


def write_points_csv(path: str | Path, points: Matrix) -> None:
    """One point per line, comma-separated, full double precision."""
    _write_table(path, "", points, None)


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
    and `path` keeps its previous content; an OSError about the temporary
    file names `path` instead, the file the caller asked for."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            exc.filename, exc.filename2 = str(path), None
        raise


def write_framed(path: str | Path, magic: str, header_text: str, blocks: Blocks) -> None:
    """Replace `path` with the magic line, the header line, then each block
    as raw little-endian float64 in C order."""
    with atomic_open(path, "wb") as fh:
        fh.write(f"{magic}\n{header_text}\n".encode("ascii"))
        for _, block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8").data)


def read_framed(
    path: str | Path, magic: str, kind: str, layout: Callable[[Any, str], tuple[Any, Blocks]]
) -> Any:
    """Read what `write_framed` wrote. `layout(header, text)` turns the JSON
    header into the result and the blocks to fill, or raises ValueError. The
    file size is checked before any block is read into its array; every
    error names the file `kind`."""
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{kind} not found: {path}")
    with open(path, "rb") as fh:
        line = fh.readline(len(magic) + 1).decode("ascii", errors="replace").rstrip("\n")
        if line != magic:
            raise ValueError(f"not a {kind} file (bad magic line {line!r})")
        try:
            text = fh.readline().decode("ascii").rstrip("\n")
            result, blocks = layout(json.loads(text), text)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{kind} header is not a JSON line ({exc})") from None
        except _HEADER_FAULTS as exc:
            raise ValueError(
                f"{kind} header has a value of the wrong type or size ({exc!r})"
            ) from None
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        for name, block in blocks:
            if block.nbytes > left:
                raise ValueError(
                    f"{kind} truncated: block {name!r} needs {block.nbytes} bytes, "
                    f"{left} left"
                )
            left -= block.nbytes
        if left:
            raise ValueError(f"{kind} has {left} trailing bytes")
        for name, block in blocks:
            if fh.readinto(block) != block.nbytes:
                raise ValueError(f"{kind} truncated while reading block {name!r}")
    if sys.byteorder == "big":
        for _, block in blocks:
            block.byteswap(inplace=True)
    return result
