import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wwae import divergences, models, nn, spectral
from wwae.numerics import Matrix, Rng
from wwae.spectral import GaussStats


def random_spd(rng: Rng, d: int, cond: float = 100.0) -> np.ndarray:
    """Random SPD matrix with condition number roughly cond."""
    q = np.linalg.qr(rng.normal(d, d))[0]
    # log-uniform spectrum between 1/sqrt(cond) and sqrt(cond)
    u = rng.uniform(d, 1).ravel()
    vals = np.exp((u - 0.5) * np.log(cond))
    return (q * vals) @ q.T


def assert_same_bits(got, want) -> None:
    """Equal shapes, NaN where `want` is NaN and the same bytes elsewhere.
    A NaN's payload is not compared: it may follow operand order."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def init_params(rng: Rng, widths: list[int]) -> nn.MlpParams:
    """A network of these widths that `nn.init_params` fills from `rng`, as
    views of a fresh vector of NaN, so a value it fails to write shows."""
    params = nn.param_views(np.full(nn.n_params(widths), np.nan), widths)
    nn.init_params(rng, params)
    return params


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


def parse_manifest(text: str) -> SimpleNamespace:
    """Split a written manifest.txt back into its three sections: the lists
    `config`, `records` (the log) and `final`."""
    manifest = SimpleNamespace(config=[], records=[], final=[])
    sections = {"# config": manifest.config, "# log": manifest.records, "# final": manifest.final}
    section = None
    for line in text.splitlines():
        if line in sections:
            section = sections[line]
        elif section is not None:
            section.append(line)
    return manifest


def edit_checkpoint_header(src, dst, edit):
    """Copy checkpoint `src` to `dst` with `edit` applied to its JSON header."""
    magic, header, payload = Path(src).read_bytes().split(b"\n", 2)
    manifest = json.loads(header)
    edit(manifest)
    Path(dst).write_bytes(magic + b"\n" + json.dumps(manifest).encode() + b"\n" + payload)
    return dst


def config_line(line):
    """A checkpoint header edit that puts `line` in place of the config's
    line for its key."""
    key = line.split(" = ")[0]
    return lambda m: m.update(
        config=[line if old.split(" = ")[0] == key else old for old in m["config"]]
    )


def w2_1d_empirical(x: np.ndarray, y: np.ndarray) -> float:
    """Exact squared W2 between two equal-size 1-D empirical measures.

    Sorts both samples and pairs them monotonically, which is the optimal
    coupling in one dimension; an oracle for the Gaussian closed form.
    """
    x = np.sort(np.asarray(x, dtype=np.float64).ravel())
    y = np.sort(np.asarray(y, dtype=np.float64).ravel())
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    return float(np.mean((x - y) ** 2))


# The functions that take terms from the prior alone: the W2 prior's root
# (`divergences` imports `sqrtm_psd` by name) and the MMD prior-prior kernel
# term.
PRIOR_ONLY = (
    (divergences, "imq_prior_side"),
    (divergences, "sqrtm_psd"),
    (spectral, "sqrtm_psd"),
)


def prior_bytes(prior) -> list[bytes]:
    """Every value a regularizer's prior terms hold, as bytes."""
    flat = []
    for v in prior or ():
        flat += [v.mean, v.cov] if isinstance(v, GaussStats) else [v]
    return [np.asarray(v).tobytes() for v in flat]


def corrupt_first_gradient(monkeypatch, amount):
    """Make every `models.loss_and_grads` call that computes gradients report
    a wrong gradient for the first encoder parameter; the loss values stay
    right, and loss-only calls pass their None gradient through."""
    loss_and_grads = models.loss_and_grads

    def corrupted(*args, **kwargs):
        parts, grads = loss_and_grads(*args, **kwargs)
        if grads is not None:
            grads.flat[0] += amount
        return parts, grads

    monkeypatch.setattr(models, "loss_and_grads", corrupted)


# The separate IMQ-MMD value and gradient calls that the fused
# `divergences.mmd_imq_value_and_grad` replaced, kept as its bitwise reference.
def imq_kernel_matrix(a: Matrix, b: Matrix, c: float) -> Matrix:
    sq = (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * a @ b.T
    )
    np.maximum(sq, 0.0, out=sq)
    return c / (c + sq)


def mmd_imq(x: Matrix, y: Matrix, scale_c: float = 1.0) -> float:
    """Unbiased MMD^2 U-statistic with the inverse multiquadric kernel.

    Kernel k(a, b) = C / (C + ||a - b||^2) with C = scale_c * 2 * d, the
    standard-normal-prior convention.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = x.shape[0], y.shape[0]
    if n < 2 or m < 2:
        raise ValueError(f"mmd_imq needs at least 2 points per side, got {n}, {m}")
    if scale_c <= 0:
        raise ValueError(f"scale_c must be positive, got {scale_c}")
    c = scale_c * 2.0 * x.shape[1]
    kxx = imq_kernel_matrix(x, x, c)
    kyy = imq_kernel_matrix(y, y, c)
    kxy = imq_kernel_matrix(x, y, c)
    term_x = (kxx.sum() - np.trace(kxx)) / (n * (n - 1))
    term_y = (kyy.sum() - np.trace(kyy)) / (m * (m - 1))
    cross = 2.0 * kxy.sum() / (n * m)
    return float(term_x + term_y - cross)


def mmd_imq_grad_y(x: Matrix, y: Matrix, scale_c: float = 1.0) -> Matrix:
    """Gradient of mmd_imq with respect to the rows of y (x held fixed)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = x.shape[0], y.shape[0]
    c = scale_c * 2.0 * x.shape[1]

    kyy = imq_kernel_matrix(y, y, c)
    w_yy = kyy**2 / c  # dk/d(sq dist) = -C/(C+sq)^2 = -k^2/C
    np.fill_diagonal(w_yy, 0.0)
    diff_sum_y = w_yy.sum(axis=1)[:, None] * y - w_yy @ y
    grad = (-4.0 / (m * (m - 1))) * diff_sum_y

    kxy = imq_kernel_matrix(x, y, c)
    w_xy = kxy**2 / c
    diff_sum_x = w_xy.sum(axis=0)[:, None] * y - w_xy.T @ x
    grad += (4.0 / (n * m)) * diff_sum_x
    return grad
