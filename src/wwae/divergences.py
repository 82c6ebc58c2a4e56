"""Distribution discrepancies: closed-form Gaussian W2 (two cross-term
variants) with its analytic gradient, and IMQ-kernel MMD with its gradient.
Training makes one call per penalty that returns the value and its gradient
together, so the two share their eigendecompositions (W2) or kernel matrices
(MMD). `gaussian_w2` and `_mmd_imq_parts` compute the value alone, with the
same operations and so the same bits; FID uses the first, loss-only
evaluations both. Each takes the terms of the prior's side precomputed (Sp's
root; `imq_prior_side`, which alone sets the MMD kernel constant C), which
training computes once per step.

The two W2 variants differ only in the covariance cross term:

  root_product: Trace(Sp^{1/2} Sq^{1/2})
  bures:        Trace((Sp^{1/2} Sq Sp^{1/2})^{1/2})

These agree when the covariances commute; in general bures >= root_product
(nuclear norm dominates trace), so the bures W2 value is the smaller one and
is the one matching the Frechet distance used by FID.
"""

from __future__ import annotations

import enum

import numpy as np

from .numerics import Matrix
from .spectral import GaussStats, eigh_psd, grad_trace_sqrtm, sqrtm_from_eigh, sqrtm_psd


class W2Variant(enum.Enum):
    ROOT_PRODUCT = "root_product"
    BURES = "bures"


def _gaussian_w2_parts(p: GaussStats, q: GaussStats, variant: W2Variant, p_root=None):
    """The `gaussian_w2` value, the root of Sp (`p_root` if given), and the
    eigendecomposition of Sq (root_product) or of Sp^{1/2} Sq Sp^{1/2}
    (bures) that the gradient shares with the value."""
    if p.dim != q.dim or p.cov.shape != q.cov.shape:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    p_root = sqrtm_psd(p.cov) if p_root is None else p_root
    if variant is W2Variant.ROOT_PRODUCT:
        dec = eigh_psd(q.cov)
        cross = float(np.trace(p_root @ sqrtm_from_eigh(dec)))
    else:
        dec = eigh_psd(p_root @ q.cov @ p_root)
        cross = float(np.trace(sqrtm_from_eigh(dec)))
    if np.array_equal(p.mean, q.mean) and np.array_equal(p.cov, q.cov):
        return 0.0, p_root, dec  # no rounding residue
    value = float(np.sum((p.mean - q.mean) ** 2))
    value += float(np.trace(p.cov) + np.trace(q.cov))
    return max(value - 2.0 * cross, 0.0), p_root, dec


def gaussian_w2(p: GaussStats, q: GaussStats, variant: W2Variant, p_root=None) -> float:
    """Squared Wasserstein-2 distance between Gaussian statistics:
    ||mu_p - mu_q||^2 + Tr(Sp) + Tr(Sq) - 2 * cross(Sp, Sq). Tiny negative
    values from rounding are clamped to 0, and identical statistics give an
    exact 0. `p_root`, if given, is the root of p's covariance."""
    return _gaussian_w2_parts(p, q, variant, p_root)[0]


def gaussian_w2_value_and_grad(
    p: GaussStats, q: GaussStats, variant: W2Variant, p_root=None
) -> tuple[float, np.ndarray, Matrix]:
    """`gaussian_w2` and its gradients with respect to q's mean and
    covariance, from the same eigendecompositions. Only the q side carries
    gradients: in training, p holds the prior statistics, which do not
    depend on the model parameters."""
    value, p_root, dec = _gaussian_w2_parts(p, q, variant, p_root)
    eye = np.eye(p.dim)
    if variant is W2Variant.ROOT_PRODUCT:
        grad_cov = eye - grad_trace_sqrtm(dec, 2.0 * p_root)
    else:
        grad_cov = eye - 2.0 * p_root @ grad_trace_sqrtm(dec, eye) @ p_root
    return value, 2.0 * (q.mean - p.mean), grad_cov


def _imq_kernel(a: Matrix, a_sq: np.ndarray, b: Matrix, b_sq: np.ndarray, c: float) -> Matrix:
    """k(a_i, b_j) = C / (C + ||a_i - b_j||^2), given the squared row norms.
    The squared distances become the kernel in place, so the Gram product
    is the only other n x m array."""
    k = a_sq[:, None] + b_sq
    k -= (2.0 * a) @ b.T
    np.maximum(k, 0.0, out=k)
    k += c
    return np.divide(c, k, out=k)


def imq_prior_side(x: Matrix, scale_c: float):
    """The `x_side` of the IMQ-MMD: the kernel constant C = scale_c * 2 * d
    (the standard-normal-prior convention), x's squared row norms, kxx's term."""
    if scale_c <= 0:
        raise ValueError(f"scale_c must be positive, got {scale_c}")
    n, c = x.shape[0], scale_c * 2.0 * x.shape[1]
    x_sq = np.add.reduce(x * x, axis=1)
    kxx = _imq_kernel(x, x_sq, x, x_sq, c)
    return c, x_sq, (kxx.sum() - kxx.trace()) / (n * (n - 1))


def _mmd_imq_parts(x: Matrix, y: Matrix, x_side):
    """The `mmd_imq_value_and_grad` value, the kernel constant C and the
    kyy and kxy matrices that the gradient shares with the value."""
    n, m = x.shape[0], y.shape[0]
    if n < 2 or m < 2:
        raise ValueError(f"mmd_imq needs at least 2 points per side, got {n}, {m}")
    c, x_sq, term_x = x_side
    y_sq = np.add.reduce(y * y, axis=1)
    kyy = _imq_kernel(y, y_sq, y, y_sq, c)
    kxy = _imq_kernel(x, x_sq, y, y_sq, c)
    term_y = (kyy.sum() - kyy.trace()) / (m * (m - 1))
    cross = 2.0 * kxy.sum() / (n * m)
    return float(term_x + term_y - cross), c, kyy, kxy


def mmd_imq_value_and_grad(x: Matrix, y: Matrix, x_side) -> tuple[float, Matrix]:
    """Unbiased MMD^2 U-statistic with the inverse multiquadric kernel
    k(a, b) = C / (C + ||a - b||^2), and its gradient with respect to the
    rows of y (x held fixed). `x_side` is `imq_prior_side(x, scale_c)`, which
    fixes C. Each kernel matrix is built once; the gradient reuses kyy and kxy.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = x.shape[0], y.shape[0]
    value, c, kyy, kxy = _mmd_imq_parts(x, y, x_side)

    # dk/d(sq dist) = -C/(C+sq)^2 = -k^2/C; the weights k^2/C overwrite k,
    # which the value no longer needs.
    w_yy = np.multiply(kyy, kyy, out=kyy)
    w_yy /= c
    np.fill_diagonal(w_yy, 0.0)
    grad = (-4.0 / (m * (m - 1))) * (w_yy.sum(axis=1)[:, None] * y - w_yy @ y)
    w_xy = np.multiply(kxy, kxy, out=kxy)
    w_xy /= c
    grad += (4.0 / (n * m)) * (w_xy.sum(axis=0)[:, None] * y - w_xy.T @ x)
    return value, grad
