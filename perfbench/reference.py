"""NumPy-only re-computations that the output checks compare against.

Nothing here imports wwae: files are read by their documented formats and
the formulas are written out again, so a check fails when the program's
answer drifts from the mathematics rather than from an earlier run.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np


def read_idx_images(path: Path) -> np.ndarray:
    """IDX images: big-endian magic 0x803, n, rows, cols, then uint8 pixels."""
    raw = Path(path).read_bytes()
    magic, n, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != 0x803:
        raise ValueError(f"{path}: not an IDX image file")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=n * rows * cols, offset=16)
    return pixels.reshape(n, rows * cols).astype(np.float64) / 255.0


def _header_and_payload(path: Path, magic: str) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        if fh.readline().decode("ascii").rstrip("\n") != magic:
            raise ValueError(f"{path}: magic line is not {magic!r}")
        header = json.loads(fh.readline().decode("ascii"))
        return header, fh.read()


def read_basis(path: Path) -> np.ndarray:
    """Basis file: 'WWAEBASIS 1', a JSON line {rows, cols}, then <f8 data."""
    meta, raw = _header_and_payload(path, "WWAEBASIS 1")
    return np.frombuffer(raw, dtype="<f8").reshape(meta["rows"], meta["cols"])


def read_decoder(path: Path) -> tuple[list[np.ndarray], list[np.ndarray], int]:
    """Decoder weights, biases and latent size from a checkpoint.

    Checkpoint: 'WWAECKPT 1', a JSON manifest line, then the float64 blocks
    the manifest lists in order; a parameter block holds each layer's
    (out, in) weight matrix row-major followed by its bias.
    """
    manifest, raw = _header_and_payload(path, "WWAECKPT 1")
    pos = 0
    blocks = {}
    for name, count in manifest["blocks"]:
        blocks[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=pos)
        pos += 8 * count
    widths = manifest["dec"]["widths"]
    flat = blocks["dec_params"]
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[pos : pos + fan_in * fan_out].reshape(fan_out, fan_in))
        pos += fan_in * fan_out
        biases.append(flat[pos : pos + fan_out])
        pos += fan_out
    return weights, biases, int(manifest["latent_dim"])


def standard_normal(seed: int, rows: int, cols: int) -> np.ndarray:
    """The program's root prior stream: Box-Muller on Philox uniforms."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    n = rows * cols
    pairs = (n + 1) // 2
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:n].reshape(rows, cols)


def decode_images(weights, biases, z: np.ndarray) -> np.ndarray:
    """ReLU hidden layers, linear last layer, sigmoid output in [0, 1]."""
    a = z
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = a @ w.T + b
        if i < len(weights) - 1:
            a = np.maximum(a, 0.0)
    return np.clip(1.0 / (1.0 + np.exp(-a)), 0.0, 1.0)


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def frechet_distance(a: np.ndarray, b: np.ndarray) -> float:
    """|ma - mb|^2 + tr Sa + tr Sb - 2 tr (Sa^1/2 Sb Sa^1/2)^1/2, unbiased fits."""
    ma, mb = a.mean(axis=0), b.mean(axis=0)
    sa, sb = np.cov(a, rowvar=False), np.cov(b, rowvar=False)
    root = _psd_sqrt(sa)
    cross = np.trace(_psd_sqrt(root @ sb @ root))
    return float(np.sum((ma - mb) ** 2) + np.trace(sa) + np.trace(sb) - 2.0 * cross)


def w2_to_standard_normal(mean: np.ndarray, cov: np.ndarray) -> float:
    """Squared W2 from N(mean, cov) to N(0, I): |m|^2 + tr S + d - 2 sum sqrt(eig S)."""
    eig = np.maximum(np.linalg.eigvalsh(cov), 0.0)
    return float(np.sum(mean**2) + np.trace(cov) + cov.shape[0] - 2.0 * np.sum(np.sqrt(eig)))


def pgm_header(path: Path) -> tuple[int, int, int]:
    """(width, height, bytes after the header) of a binary P5 file."""
    raw = Path(path).read_bytes()
    magic, dims, maxval, pixels = raw.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    width, height = (int(v) for v in dims.split())
    return width, height, len(pixels)
