"""Desk-scale Wasserstein-Wasserstein auto-encoder laboratory.

Small MLP auto-encoders trained with a closed-form Gaussian Wasserstein-2
latent regularizer (trace cross-term or exact Bures variant), with KL and
IMQ-MMD baselines, deterministic seeded training, and Frechet-distance
evaluation in a fixed feature space (PCA of pixels, or raw coordinates).
"""
