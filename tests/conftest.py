from pathlib import Path

import numpy as np
import pytest

from wwae.numerics import Rng


def random_spd(rng: Rng, d: int, cond: float = 100.0) -> np.ndarray:
    """Random SPD matrix with condition number roughly cond."""
    q = np.linalg.qr(rng.normal(d, d))[0]
    # log-uniform spectrum between 1/sqrt(cond) and sqrt(cond)
    u = rng.uniform(d, 1).ravel()
    vals = np.exp((u - 0.5) * np.log(cond))
    return (q * vals) @ q.T


@pytest.fixture
def rng():
    return Rng(12345)


@pytest.fixture
def spd():
    return random_spd


def write_config(path, **overrides):
    """Write a flat key = value config file for CLI tests."""
    lines = [f"{k} = {v}" for k, v in overrides.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_pgm(path) -> np.ndarray:
    """Binary PGM (P5) reader for checking written grids; returns uint8 h x w."""
    raw = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P5":
        raise ValueError(f"not a binary PGM: magic {fields[0]!r}")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    pos += 1  # single whitespace after maxval
    pixels = np.frombuffer(raw[pos : pos + w * h], dtype=np.uint8)
    if pixels.size != w * h:
        raise ValueError(f"PGM truncated: expected {w * h} pixels, got {pixels.size}")
    return pixels.reshape(h, w)
