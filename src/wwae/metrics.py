"""Evaluation metrics: Frechet distance between Gaussian fits of feature
sets (the FID protocol), mode coverage on synthetic mixtures, and
latent-statistics diagnostics.

A model's desk-FID (`DeskFid`) scores in a fixed top-k PCA basis of the real
pixels, or in raw coordinates for point data, not in Inception features, so
it is not comparable to published FID tables; its `note` names the space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import divergences, spectral
from .data import Dataset
from .divergences import W2Variant
from .images import Blocks, read_framed, write_framed
from .models import encode, reparameterize
from .nn import MlpParams
from .numerics import Matrix, Rng
from .spectral import GaussStats

DEFAULT_FEATURE_DIM = 32

BASIS_MAGIC = "WWAEBASIS 1"
_NOT_INCEPTION = "values are not comparable to Inception-based FID tables"


def fid(a: Matrix, b: Matrix) -> float:
    """Squared Gaussian W2 (Bures cross term) between unbiased row fits.

    The two fits are fed to the divergence in a canonical byte order, so
    fid(a, b) == fid(b, a) exactly, not just up to rounding. Features so
    large that a fit or the distance overflows float64 raise ValueError.
    """
    fa = np.asarray(a, dtype=np.float64)
    fb = np.asarray(b, dtype=np.float64)
    if fa.ndim != 2 or fb.ndim != 2 or fa.shape[1] != fb.shape[1]:
        raise ValueError(f"feature dimensions differ: {fa.shape} vs {fb.shape}")
    value = float("nan")
    with np.errstate(over="ignore", invalid="ignore"):
        sa = spectral.batch_stats(fa)
        sb = spectral.batch_stats(fb)
        ka = sa.mean.tobytes() + sa.cov.tobytes()
        kb = sb.mean.tobytes() + sb.cov.tobytes()
        if kb < ka:
            sa, sb = sb, sa
        if np.isfinite(sa.cov).all() and np.isfinite(sb.cov).all():
            value = divergences.gaussian_w2(sa, sb, W2Variant.BURES)
    if not np.isfinite(value):
        raise ValueError("desk-FID is not finite: the feature statistics overflow float64")
    return value


def _pixel_matrix(images: Matrix) -> Matrix:
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 2:
        raise ValueError(f"expected an n x d matrix, got shape {images.shape}")
    return images


def fit_pca_basis(images: Matrix, k: int) -> Matrix:
    """Top-k principal directions of the pixel covariance, as columns."""
    images = _pixel_matrix(images)
    if k > min(images.shape):
        raise ValueError(f"k={k} exceeds min(n, d) = {min(images.shape)}")
    dec = spectral.eigh(spectral.batch_stats(images).cov)
    basis = dec.eigenvectors[:, :k].copy()
    # Sign convention: largest-magnitude entry of each direction is
    # positive, so the fitted basis is unique and runs are comparable.
    for j in range(k):
        col = basis[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            basis[:, j] = -col
    return basis


def pixel_pca_features(images: Matrix, basis: Matrix) -> Matrix:
    """Project image rows onto a pixel-PCA basis."""
    images = _pixel_matrix(images)
    basis = np.asarray(basis, dtype=np.float64)
    if basis.shape[0] != images.shape[1]:
        raise ValueError(
            f"basis rows {basis.shape[0]} do not match pixel count {images.shape[1]}"
        )
    return images @ basis


class DeskFid:
    """Desk-FID of generated rows against fixed real rows, in one feature
    space fixed here: the given basis, else the top-k pixel-PCA basis of the
    real rows for image data, else raw coordinates (basis None). Fitting a
    basis per side would score the two sides in different spaces. `note`
    names that space for the line a score is printed with."""

    def __init__(self, real: Matrix, image_data: bool, basis: Optional[Matrix] = None):
        if basis is None and image_data:
            basis = fit_pca_basis(real, min(DEFAULT_FEATURE_DIM, *np.shape(real)))
        self.basis = basis
        self.real = self._features(real)
        space = "raw coordinates" if basis is None else "fixed PCA-of-pixels features"
        self.note = f"desk-FID uses {space}; {_NOT_INCEPTION}"

    def _features(self, rows: Matrix) -> Matrix:
        return rows if self.basis is None else pixel_pca_features(rows, self.basis)

    def score(self, generated: Matrix) -> float:
        return fid(self.real, self._features(generated))


def save_basis(path: str | Path, basis: Matrix) -> None:
    rows, cols = np.shape(basis)
    header = json.dumps({"rows": rows, "cols": cols})
    write_framed(path, BASIS_MAGIC, header, [("basis", basis)])


def _basis_layout(meta, text: str) -> tuple[Matrix, Blocks]:
    shape = [meta.get(key) for key in ("rows", "cols")] if isinstance(meta, dict) else []
    if not shape or not all(type(n) is int and n > 0 for n in shape):
        raise ValueError(f"basis header needs rows and cols as ints > 0, got {text}")
    basis = np.empty(shape)
    return basis, [("basis", basis)]


def load_basis(path: str | Path) -> Matrix:
    return read_framed(path, BASIS_MAGIC, "basis", _basis_layout)


def read_features_csv(path: str | Path) -> Matrix:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"feature file not found: {path}")
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"feature file {path} line {lineno}"
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            raise ValueError(f"{where} is not a row of numbers: {line!r}") from None
        if not np.isfinite(row).all():
            raise ValueError(f"{where} is not finite: {line!r}")
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"{where} is not {len(rows[0])} values long: {line!r}")
        rows.append(row)
    if not rows:
        raise ValueError(f"feature file is empty: {path}")
    return np.array(rows, dtype=np.float64)


def mode_coverage(
    samples: Matrix, centers: Matrix, max_dist: float
) -> tuple[int, float]:
    """Collapse diagnostic against known mixture centers.

    Each sample is assigned to its nearest center. A center counts as
    covered when it owns at least n/(10 m) samples lying within max_dist;
    the second value is the fraction of all samples within max_dist of
    their nearest center.
    """
    samples = np.asarray(samples, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise ValueError(f"need at least one sample, got shape {samples.shape}")
    n, m = samples.shape[0], centers.shape[0]
    d2 = np.sum((samples[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    nearest = np.argmin(d2, axis=1)
    within = d2[np.arange(n), nearest] <= max_dist**2
    need = n / (10.0 * m)
    covered = 0
    for c in range(m):
        if np.sum(within & (nearest == c)) >= need:
            covered += 1
    return covered, float(np.mean(within))


@dataclass
class LatentReport:
    stats: GaussStats  # aggregated-posterior fit
    codes: Matrix  # n x latent_dim
    labels: Optional[np.ndarray]


def latent_report(
    enc_params: MlpParams, dataset: Dataset, rng: Rng, n: int
) -> LatentReport:
    """Encode the first n examples with reparameterization noise from rng."""
    n = min(n, dataset.n)
    if n < 2:
        raise ValueError(f"latent report needs at least 2 examples, got {n}")
    x = dataset.examples[:n]
    out = encode(enc_params, x)
    eps = rng.normal(n, out.mu.shape[1])
    z = reparameterize(out, eps)
    labels = dataset.labels[:n] if dataset.labels is not None else None
    return LatentReport(spectral.batch_stats(z), z, labels)


def latent_summary(stats: GaussStats) -> tuple[float, float]:
    """(norm of the fitted mean, Frobenius distance of the fit from I)."""
    mu_norm = float(np.linalg.norm(stats.mean))
    eye = np.eye(stats.dim)
    cov_dist = float(np.linalg.norm(stats.cov - eye))
    return mu_norm, cov_dist
