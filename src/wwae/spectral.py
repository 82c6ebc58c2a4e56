"""Symmetric eigendecomposition, PSD matrix square roots and their analytic
backward pass, and batch mean/covariance statistics with exact adjoints.
Root and gradient are both built from one PSD-checked decomposition
(`eigh_psd`), so a caller that needs both decomposes once.

The square-root gradient uses the Daleckii-Krein divided-difference formula
1/(sqrt(li) + sqrt(lj)), which stays finite for repeated eigenvalues where a
generic eigendecomposition backward would blow up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Matrix

EIG_CLAMP = 1e-12  # floor for eigenvalues before square roots
PSD_TOL = -1e-8  # most negative eigenvalue still treated as rounding
_DENOM_FLOOR = 2.0 * np.sqrt(EIG_CLAMP)  # least grad_trace_sqrtm denominator


@dataclass
class EigenDecomp:
    """Eigenvalues (descending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: Matrix


@dataclass
class GaussStats:
    """Mean vector and symmetric PSD covariance of a Gaussian or a batch."""

    mean: np.ndarray
    cov: Matrix

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def eigh(a: Matrix) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    The input is symmetrized as (A + A^T)/2 first, so mild asymmetry from
    accumulated rounding is tolerated.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"eigh expects a square matrix, got shape {a.shape}")
    sym = 0.5 * (a + a.T)
    vals, vecs = np.linalg.eigh(sym)
    return EigenDecomp(vals[::-1].copy(), vecs[:, ::-1].copy())


def eigh_psd(a: Matrix) -> EigenDecomp:
    """`eigh` of a matrix that must be a covariance.

    A negative eigenvalue down to 1e-8 times the spectrum's scale (at least
    1) counts as rounding; a more negative one raises. The tolerance scales
    because eigensolver rounding error is relative: a fixed cutoff would
    misfire on huge sample covariances (exploding but still PSD latents
    during a diverging run).
    """
    dec = eigh(a)
    lo = dec.eigenvalues[-1]
    tol = PSD_TOL * max(1.0, float(np.abs(dec.eigenvalues).max()))
    if lo < tol:
        raise ValueError(f"matrix is not PSD: eigenvalue {lo:.3e} < {tol:.0e}")
    return dec


def sqrtm_from_eigh(dec: EigenDecomp) -> Matrix:
    """Symmetric PSD square root V diag(max(l, EIG_CLAMP))^{1/2} V^T of a
    decomposed matrix."""
    roots = np.sqrt(np.maximum(dec.eigenvalues, EIG_CLAMP))
    v = dec.eigenvectors
    return (v * roots) @ v.T


def sqrtm_psd(a: Matrix) -> Matrix:
    """Symmetric PSD square root of a covariance; eigenvalues are clamped up
    to EIG_CLAMP, and a matrix that is not PSD raises (see eigh_psd)."""
    return sqrtm_from_eigh(eigh_psd(a))


def grad_trace_sqrtm(dec: EigenDecomp, c: Matrix) -> Matrix:
    """Gradient of Trace(C A^{1/2}) with respect to symmetric PSD A, given
    A's decomposition from eigh_psd.

    With A = V L V^T and S = V^T sym(C) V, the gradient is
    V [S_ij / (sqrt(l_i) + sqrt(l_j))] V^T; denominators are clamped below
    at 2*sqrt(EIG_CLAMP) so rank-deficient A stays differentiable.
    """
    roots = np.sqrt(np.maximum(dec.eigenvalues, 0.0))
    denom = np.maximum(roots[:, None] + roots[None, :], _DENOM_FLOOR)
    v = dec.eigenvectors
    s = v.T @ (0.5 * (c + c.T)) @ v
    g = v @ (s / denom) @ v.T
    # V S V^T is symmetric in exact arithmetic; enforce it bitwise so the
    # result can feed symmetric-only consumers without re-symmetrizing.
    return 0.5 * (g + g.T)


def batch_stats(z: Matrix) -> GaussStats:
    """Sample mean and unbiased (divisor n-1) covariance of the rows of z."""
    return centered_stats(np.asarray(z, dtype=np.float64))[0]


def centered_stats(z: Matrix) -> tuple[GaussStats, Matrix]:
    """`batch_stats` of a float64 matrix, and the centred rows the adjoint takes."""
    n = z.shape[0]
    if n < 2:
        raise ValueError(f"batch_stats needs at least 2 rows, got {n}")
    mean = np.add.reduce(z, axis=0) / n  # np.mean's arithmetic, without its wrapper
    centered = z - mean
    return GaussStats(mean, centered.T @ centered / (n - 1)), centered


def batch_stats_backward(centered: Matrix, grad_mean: np.ndarray, grad_cov: Matrix) -> Matrix:
    """Exact adjoint of batch_stats, given the centred rows z - mean that
    `centered_stats` returns.

    Propagates <grad_mean, mean> + <grad_cov, cov> back to the rows:
    d/dz_i = grad_mean/n + (2/(n-1)) sym(grad_cov) (z_i - mean).
    """
    n, d = centered.shape
    if grad_mean.shape != (d,) or grad_cov.shape != (d, d):
        raise ValueError(
            f"gradient shapes {grad_mean.shape}, {grad_cov.shape} do not match data dim {d}"
        )
    sym = 0.5 * (grad_cov + grad_cov.T)
    return grad_mean / n + (2.0 / (n - 1)) * centered @ sym
