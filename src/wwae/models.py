"""Gaussian encoder with reparameterization, decoder, the three training
objectives (W2-regularized, KL/ELBO, MMD), and the single-step training
update with exact analytic gradients.

Gradient flow for the W2 and MMD regularizers runs through the encoded-side
batch only; the prior batch drawn each step is a constant with respect to
the model parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import divergences, nn, spectral
from .config import TrainConfig
from .divergences import W2Variant
from .numerics import Matrix, Rng
from .spectral import GaussStats

LOGVAR_MIN, LOGVAR_MAX = divergences.LOGVAR_MIN, divergences.LOGVAR_MAX


@dataclass
class EncoderOut:
    """Per-example latent mean and log-variance (clamped)."""

    mu: Matrix
    logvar: Matrix


@dataclass
class Model:
    """Encoder and decoder networks plus the decoder output transform.

    A model from `build_model` or `arena_model` keeps every weight and bias
    as a view of one vector, `theta`, laid out enc || dec in the
    `nn.flatten_params` order of each network; training updates `theta` in
    place. A model assembled from separate arrays has `theta = None`: it
    evaluates and differentiates like any other but cannot be trained or
    saved.
    """

    enc: nn.MlpParams
    dec: nn.MlpParams
    latent_dim: int
    output_activation: str  # "sigmoid" for image data, "identity" otherwise
    theta: Optional[np.ndarray] = None


def arena_model(
    theta: np.ndarray,
    enc_shape: tuple[list[int], list[str]],
    dec_shape: tuple[list[int], list[str]],
    latent_dim: int,
    output_activation: str,
) -> Model:
    """A model whose networks, given as (widths, activations), are views of
    the float64 vector `theta`."""
    n_enc = nn.n_params(enc_shape[0])
    enc = nn.param_views(theta[:n_enc], *enc_shape)
    dec = nn.param_views(theta[n_enc:], *dec_shape)
    return Model(enc, dec, latent_dim, output_activation, theta)


@dataclass
class LossParts:
    total: float
    recon: float
    reg: float


@dataclass
class StepReport:
    step: int
    total: float
    recon: float
    reg: float
    lr: float


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, parts: LossParts, max_grad: float):
        super().__init__(
            f"non-finite loss at step {step}: total={parts.total} "
            f"recon={parts.recon} reg={parts.reg} max|grad|={max_grad}"
        )
        self.step = step
        self.parts = parts
        self.max_grad = max_grad


def build_model(cfg: TrainConfig, data_dim: int, rng: Rng, image_data: bool) -> Model:
    ell = cfg.latent_dim
    enc_widths = [data_dim, *cfg.enc_hidden, 2 * ell]
    enc_acts = ["relu"] * len(cfg.enc_hidden) + ["identity"]
    dec_widths = [ell, *cfg.dec_hidden, data_dim]
    dec_acts = ["relu"] * len(cfg.dec_hidden) + ["identity"]
    enc = nn.init_params(rng, enc_widths, enc_acts)
    dec = nn.init_params(rng, dec_widths, dec_acts)
    theta = np.concatenate([nn.flatten_params(enc), nn.flatten_params(dec)])
    return arena_model(
        theta,
        (enc_widths, enc_acts),
        (dec_widths, dec_acts),
        ell,
        "sigmoid" if image_data else "identity",
    )


def encode(params: nn.MlpParams, x: Matrix) -> EncoderOut:
    """Split the trunk output into mean and clamped log-variance heads."""
    y, _ = nn.mlp_forward(params, x)
    ell = y.shape[1] // 2
    return EncoderOut(y[:, :ell], np.clip(y[:, ell:], LOGVAR_MIN, LOGVAR_MAX))


def reparameterize(out: EncoderOut, eps: Matrix) -> Matrix:
    """z = mu + exp(logvar / 2) * eps."""
    if eps.shape != out.mu.shape:
        raise ValueError(f"eps shape {eps.shape} does not match mu {out.mu.shape}")
    return out.mu + np.exp(0.5 * out.logvar) * eps


def _recon_error(x: Matrix, x_hat: Matrix) -> float:
    """Mean over the batch of per-example squared L2 error."""
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    return float(np.mean(np.sum((x - x_hat) ** 2, axis=1)))


def wwae_loss(
    x: Matrix,
    x_hat: Matrix,
    prior_stats: GaussStats,
    enc_stats: GaussStats,
    lam: float,
    variant: W2Variant,
) -> LossParts:
    recon = _recon_error(x, x_hat)
    reg = divergences.gaussian_w2(prior_stats, enc_stats, variant)
    return LossParts(recon + lam * reg, recon, reg)


def vae_loss(x: Matrix, x_hat: Matrix, out: EncoderOut, beta: float) -> LossParts:
    recon = _recon_error(x, x_hat)
    n = x.shape[0]
    reg = sum(divergences.kl_diag_gauss(out.mu[i], out.logvar[i]) for i in range(n)) / n
    return LossParts(recon + beta * reg, recon, reg)


def wae_mmd_loss(
    x: Matrix,
    x_hat: Matrix,
    z_tilde: Matrix,
    z_prior: Matrix,
    lam: float,
    scale_c: float,
) -> LossParts:
    recon = _recon_error(x, x_hat)
    reg = divergences.mmd_imq(z_prior, z_tilde, scale_c)
    return LossParts(recon + lam * reg, recon, reg)


def decode(model: Model, z: Matrix) -> Matrix:
    y, _ = nn.mlp_forward(model.dec, z)
    if model.output_activation == "sigmoid":
        # 1 / (1 + exp(-y)), operation for operation, in place
        np.negative(y, out=y)
        np.exp(y, out=y)
        y += 1.0
        np.divide(1.0, y, out=y)
    return y


@dataclass
class Grads:
    """The loss gradient in the `Model.theta` layout, enc || dec."""

    flat: np.ndarray
    n_enc: int

    @property
    def enc(self) -> np.ndarray:
        return self.flat[: self.n_enc]

    @property
    def dec(self) -> np.ndarray:
        return self.flat[self.n_enc :]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.flat)))


def loss_and_grads(
    model: Model,
    cfg: TrainConfig,
    x: Matrix,
    eps: Matrix,
    z_prior: Optional[Matrix],
    prior_stats: Optional[GaussStats],
) -> tuple[LossParts, Grads]:
    """Loss and exact parameter gradients for one batch with fixed noise.

    `z_prior` is the prior sample (required for mmd and sampled-stats w2);
    `prior_stats` short-circuits the sampled statistics for w2 when the
    exact prior moments are used instead.
    """
    n = x.shape[0]
    ell = model.latent_dim
    kind = cfg.reg_kind()

    enc_y, enc_tape = nn.mlp_forward(model.enc, x)
    mu = enc_y[:, :ell]
    logvar_raw = enc_y[:, ell:]
    logvar = np.clip(logvar_raw, LOGVAR_MIN, LOGVAR_MAX)
    clamp_mask = (logvar_raw > LOGVAR_MIN) & (logvar_raw < LOGVAR_MAX)
    std = np.exp(0.5 * logvar)
    z = mu + std * eps

    dec_y, dec_tape = nn.mlp_forward(model.dec, z)
    if model.output_activation == "sigmoid":
        x_hat = 1.0 / (1.0 + np.exp(-dec_y))
    else:
        x_hat = dec_y

    recon = _recon_error(x, x_hat)

    if kind in ("w2_root_product", "w2_bures"):
        variant = W2Variant.ROOT_PRODUCT if kind == "w2_root_product" else W2Variant.BURES
        if prior_stats is None:
            if z_prior is None:
                raise ValueError("sampled prior statistics need a prior batch")
            prior_stats = spectral.batch_stats(z_prior, unbiased=True)
        enc_stats = spectral.batch_stats(z, unbiased=True)
        reg = divergences.gaussian_w2(prior_stats, enc_stats, variant)
    elif kind == "kl":
        reg = float(0.5 * np.sum(mu**2 + np.exp(logvar) - logvar - 1.0)) / n
    elif kind == "mmd":
        if z_prior is None:
            raise ValueError("mmd regularizer needs a prior batch")
        reg = divergences.mmd_imq(z_prior, z, cfg.mmd_scale)
    else:
        raise ValueError(f"unknown regularizer kind {kind!r}")

    total = recon + cfg.lam * reg
    parts = LossParts(total, recon, reg)

    # Reconstruction path back to the latent codes.
    d_xhat = (2.0 / n) * (x_hat - x)
    if model.output_activation == "sigmoid":
        d_decy = d_xhat * x_hat * (1.0 - x_hat)
    else:
        d_decy = d_xhat
    n_enc = model.enc.n_params()
    grads = Grads(np.empty(n_enc + model.dec.n_params()), n_enc)
    _, d_z = nn.mlp_backward(model.dec, dec_tape, d_decy, out=grads.dec)

    # Regularizer path: gradient w.r.t. codes and/or heads directly.
    d_mu_extra = None
    d_logvar_extra = None
    if kind in ("w2_root_product", "w2_bures") and cfg.lam != 0.0:
        gm, gc = divergences.gaussian_w2_grad(prior_stats, enc_stats, variant)
        d_z = d_z + spectral.batch_stats_backward(
            z, cfg.lam * gm, cfg.lam * gc, unbiased=True
        )
    elif kind == "kl" and cfg.lam != 0.0:
        d_mu_extra = cfg.lam * mu / n
        d_logvar_extra = cfg.lam * (np.exp(logvar) - 1.0) / (2.0 * n)
    elif kind == "mmd" and cfg.lam != 0.0:
        d_z = d_z + cfg.lam * divergences.mmd_imq_grad_y(z_prior, z, cfg.mmd_scale)

    # Reparameterization back to the heads.
    d_mu = d_z
    d_logvar = d_z * eps * (0.5 * std)
    if d_mu_extra is not None:
        d_mu = d_mu + d_mu_extra
        d_logvar = d_logvar + d_logvar_extra
    d_logvar = d_logvar * clamp_mask

    grad_enc_y = np.concatenate([d_mu, d_logvar], axis=1)
    nn.mlp_backward(model.enc, enc_tape, grad_enc_y, out=grads.enc, input_grad=False)
    return parts, grads


@dataclass
class TrainState:
    config: TrainConfig
    model: Model  # built on an arena: train_step updates model.theta
    adam: nn.AdamState  # one optimizer over model.theta, enc || dec
    rng: Rng  # per-step noise: prior batch first, then encoder noise
    data_rng: Rng  # mini-batch index stream
    step: int
    image_shape: Optional[tuple[int, int]]


def init_train_state(
    cfg: TrainConfig, data_dim: int, image_shape: Optional[tuple[int, int]]
) -> TrainState:
    root = Rng(cfg.seed)
    model = build_model(cfg, data_dim, root.split(2), image_shape is not None)
    adam = nn.AdamState(
        lr=cfg.lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        decay_every=cfg.decay_every,
        decay_factor=cfg.decay_factor,
    )
    return TrainState(
        config=cfg,
        model=model,
        adam=adam,
        rng=root.split(1),
        data_rng=root.split(0),
        step=0,
        image_shape=image_shape,
    )


def draw_step_noise(
    cfg: TrainConfig, rng: Rng, n: int, ell: int
) -> tuple[Optional[Matrix], Optional[GaussStats], Matrix]:
    """Per-step randomness in a fixed order: prior batch first, then eps."""
    kind = cfg.reg_kind()
    z_prior = None
    prior_stats = None
    if kind in ("w2_root_product", "w2_bures"):
        if cfg.prior_stats == "exact":
            prior_stats = GaussStats(np.zeros(ell), np.eye(ell))
        else:
            z_prior = rng.normal(n, ell)
    elif kind == "mmd":
        z_prior = rng.normal(n, ell)
    eps = rng.normal(n, ell)
    return z_prior, prior_stats, eps


def train_step(state: TrainState, x: Matrix) -> StepReport:
    """One optimizer step on one mini-batch; mutates state."""
    cfg = state.config
    n = x.shape[0]
    ell = state.model.latent_dim

    z_prior, prior_stats, eps = draw_step_noise(cfg, state.rng, n, ell)

    # Overflow to inf/nan is detected right below and reported as
    # TrainingDiverged, so the element-wise warnings are redundant noise.
    # LinAlgError happens when exploded latents reach the eigensolver.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            parts, grads = loss_and_grads(
                state.model, cfg, x, eps, z_prior, prior_stats
            )
    except np.linalg.LinAlgError:
        nan = float("nan")
        raise TrainingDiverged(state.step, LossParts(nan, nan, nan), nan) from None
    if not (
        np.isfinite(parts.total) and np.isfinite(parts.recon) and np.isfinite(parts.reg)
    ):
        raise TrainingDiverged(state.step, parts, grads.max_abs())

    # Adam is element-wise and both networks share lr, betas and t, so one
    # update over enc || dec gives the bits of one update per network.
    lr_used = state.adam.effective_lr()
    nn.adam_step(state.adam, state.model.theta, grads.flat)
    state.step += 1
    return StepReport(state.step, parts.total, parts.recon, parts.reg, lr_used)


def generate(model: Model, rng: Rng, count: int) -> Matrix:
    """Decode standard-normal latents; image outputs are clamped to [0, 1]."""
    z = rng.normal(count, model.latent_dim)
    x = decode(model, z)
    if model.output_activation == "sigmoid":
        np.clip(x, 0.0, 1.0, out=x)
    return x


def reconstruct(model: Model, x: Matrix) -> Matrix:
    """Posterior-mean reconstruction (no sampling noise)."""
    out = encode(model.enc, x)
    return decode(model, out.mu)
