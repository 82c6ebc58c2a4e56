"""Desk-scale Wasserstein-Wasserstein auto-encoder laboratory.

Small MLP auto-encoders trained with a closed-form Gaussian Wasserstein-2
latent regularizer (trace cross-term or exact Bures variant), with KL and
IMQ-MMD baselines, deterministic seeded training, and Frechet-distance
evaluation in a fixed feature space (PCA of pixels, or raw coordinates).
"""

from .config import TrainConfig, load_config
from .divergences import W2Variant, gaussian_w2, imq_prior_side, mmd_imq_value_and_grad
from .numerics import Rng
from .spectral import GaussStats, batch_stats, sqrtm_psd

__version__ = "0.1.0"

__all__ = [
    "TrainConfig",
    "load_config",
    "W2Variant",
    "gaussian_w2",
    "imq_prior_side",
    "mmd_imq_value_and_grad",
    "Rng",
    "GaussStats",
    "batch_stats",
    "sqrtm_psd",
    "__version__",
]
