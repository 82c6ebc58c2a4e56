"""Gaussian encoder with reparameterization, decoder, one table of latent
regularizers (closed-form W2, KL, IMQ-MMD), the one loss with its exact
analytic gradients (or its value alone, for finite-difference probes), and
the single-step training update.

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

LOGVAR_MIN, LOGVAR_MAX = -30.0, 30.0


@dataclass
class EncoderOut:
    """Per-example latent mean and log-variance (clamped), and the encoder
    layer inputs that the backward pass needs."""

    mu: Matrix
    logvar: Matrix
    inputs: Optional[list[Matrix]] = None


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


def net_widths(cfg: TrainConfig, data_dim: int) -> tuple[list[int], list[int]]:
    """Encoder and decoder layer widths; the encoder ends in mean and
    log-variance heads of latent_dim each."""
    ell = cfg.latent_dim
    return [data_dim, *cfg.enc_hidden, 2 * ell], [ell, *cfg.dec_hidden, data_dim]


def arena_model(theta: np.ndarray, cfg: TrainConfig, data_dim: int, image_data: bool) -> Model:
    """The model the config describes for this data, with its networks as
    views of the float64 vector `theta`."""
    enc_widths, dec_widths = net_widths(cfg, data_dim)
    n_enc = nn.n_params(enc_widths)
    enc = nn.param_views(theta[:n_enc], enc_widths)
    dec = nn.param_views(theta[n_enc:], dec_widths)
    return Model(enc, dec, cfg.latent_dim, "sigmoid" if image_data else "identity", theta)


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
    nets = [nn.init_params(rng, widths) for widths in net_widths(cfg, data_dim)]
    theta = np.concatenate([nn.flatten_params(net) for net in nets])
    return arena_model(theta, cfg, data_dim, image_data)


def encode(params: nn.MlpParams, x: Matrix, start: int = 0) -> EncoderOut:
    """Split the trunk output into mean and clamped log-variance heads."""
    y, inputs = nn.mlp_forward(params, x, start)
    ell = y.shape[1] // 2
    logvar = np.maximum(y[:, ell:], LOGVAR_MIN)
    return EncoderOut(y[:, :ell], np.minimum(logvar, LOGVAR_MAX, out=logvar), inputs)


def reparameterize(out: EncoderOut, eps: Matrix) -> Matrix:
    """z = mu + exp(logvar / 2) * eps, built in one buffer."""
    if eps.shape != out.mu.shape:
        raise ValueError(f"eps shape {eps.shape} does not match mu {out.mu.shape}")
    z = 0.5 * out.logvar
    np.exp(z, out=z)
    z *= eps
    z += out.mu
    return z


def _decode(model: Model, z: Matrix, start: int = 0) -> tuple[Matrix, list[Matrix]]:
    y, inputs = nn.mlp_forward(model.dec, z, start)
    if model.output_activation == "sigmoid":
        # 1 / (1 + exp(-y)), operation for operation, in place.
        np.negative(y, out=y)
        np.exp(y, out=y)
        y += 1.0
        np.divide(1.0, y, out=y)
    return y, inputs


def decode(model: Model, z: Matrix) -> Matrix:
    return _decode(model, z)[0]


def recon_error(x: Matrix, x_hat: Matrix) -> float:
    """Mean over the batch of per-example squared L2 error."""
    if x.shape != x_hat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    err = x - x_hat
    err *= err
    return float(np.add.reduce(np.add.reduce(err, axis=1))) / x.shape[0]


# A regularizer entry takes the codes z, the encoder output and the prior
# noise of `loss_and_grads`, and returns its value, the gradients of
# lam * value with respect to z, the means and the log-variances, and the
# terms it computes from the prior alone (taken from `side` if given); None
# stands for a gradient it lacks, and every gradient is None with `grads=False`.
RegTerm = tuple[float, Optional[Matrix], Optional[Matrix], Optional[Matrix], object]


def _w2_term(
    cfg: TrainConfig, z: Matrix, out: EncoderOut, z_prior, prior_stats, grads: bool, side=None
) -> RegTerm:
    """Closed-form W2 between the prior statistics (exact, or fitted to the
    prior batch) and the fit to the codes; the prior side adds their root."""
    if side is None:
        if prior_stats is None and z_prior is None:
            raise ValueError("sampled prior statistics need a prior batch")
        p = spectral.batch_stats(z_prior) if prior_stats is None else prior_stats
        side = p, divergences._cov_root(p.cov)
    (p, p_root), q, variant = side, spectral.batch_stats(z), W2Variant(cfg.w2_variant)
    if not grads:
        return divergences.gaussian_w2(p, q, variant, p_root), None, None, None, side
    value, gm, gc = divergences.gaussian_w2_value_and_grad(p, q, variant, p_root)
    d_z = spectral.batch_stats_backward(z, cfg.lam * gm, cfg.lam * gc)
    return value, d_z, None, None, side


def _kl_term(
    cfg: TrainConfig, z: Matrix, out: EncoderOut, z_prior, prior_stats, grads: bool, side=None
) -> RegTerm:
    """KL of each diagonal posterior to N(0, I), averaged over the batch."""
    mu, logvar = out.mu, out.logvar
    n = mu.shape[0]
    value = float(0.5 * np.sum(mu**2 + np.exp(logvar) - logvar - 1.0)) / n
    if not grads:
        return value, None, None, None, None
    d_mu = cfg.lam * mu / n
    d_logvar = cfg.lam * (np.exp(logvar) - 1.0) / (2.0 * n)
    return value, None, d_mu, d_logvar, None


def _mmd_term(
    cfg: TrainConfig, z: Matrix, out: EncoderOut, z_prior, prior_stats, grads: bool, side=None
) -> RegTerm:
    """IMQ-kernel MMD between the prior batch and the codes."""
    if z_prior is None:
        raise ValueError("mmd regularizer needs a prior batch")
    side = side or divergences._imq_prior_side(z_prior, cfg.mmd_scale)
    if not grads:
        value = divergences._mmd_imq_parts(z_prior, z, cfg.mmd_scale, side)[0]
        return value, None, None, None, side
    value, grad = divergences.mmd_imq_value_and_grad(z_prior, z, cfg.mmd_scale, side)
    return value, cfg.lam * grad, None, None, side


REGULARIZERS = {"w2": _w2_term, "kl": _kl_term, "mmd": _mmd_term}


@dataclass
class Forward:
    """Each network's layer inputs, the regularizer value and its prior
    side, as one `loss_and_grads` call computed them."""

    enc_inputs: list[Matrix]
    dec_inputs: list[Matrix]
    reg: float
    prior_side: object


@dataclass
class Grads:
    """The loss gradient in the `Model.theta` layout, enc || dec, and the
    forward record of a call that passed `probe`."""

    flat: np.ndarray
    n_enc: int
    forward: Optional[Forward]

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
    grads: bool = True,
    probe: Optional[tuple[Optional[Forward], str, int]] = None,
) -> tuple[LossParts, Optional[Grads]]:
    """Loss and exact parameter gradients for one batch with fixed noise.

    `z_prior` is the prior sample (required for mmd and sampled-stats w2);
    `prior_stats` short-circuits the sampled statistics for w2 when the
    exact prior moments are used instead. With `grads=False` it returns
    `(parts, None)`: the same forward and the same bits of `parts`, with no
    backward pass and no regularizer gradient. A loss-only call whose
    parameters differ from an earlier call's on the same inputs only in
    layer L of `net` ("enc" or "dec") may pass `probe = (record, net, L)`
    with that call's `Grads.forward`: it runs from layer L on, same bits.
    That earlier call passes `probe = (None, "enc", 0)` to keep its record;
    no other caller holds one beyond its backward pass.
    """
    n = x.shape[0]
    record, net, layer = probe or (None, "enc", 0)
    if net == "enc":
        out = encode(model.enc, record.enc_inputs[layer] if record else x, layer)
        z = reparameterize(out, eps)
        x_hat, dec_inputs = _decode(model, z)
        reg, reg_z, reg_mu, reg_logvar, side = REGULARIZERS[cfg.regularizer](
            cfg, z, out, z_prior, prior_stats, grads, record.prior_side if record else None
        )
    else:
        x_hat, dec_inputs = _decode(model, record.dec_inputs[layer], layer)
        reg = record.reg
    recon = recon_error(x, x_hat)
    parts = LossParts(recon + cfg.lam * reg, recon, reg)
    if not grads:
        return parts, None

    # Reconstruction path back to the latent codes.
    d_xhat = (2.0 / n) * (x_hat - x)
    if model.output_activation == "sigmoid":
        d_xhat = d_xhat * x_hat * (1.0 - x_hat)
    n_enc = model.enc.n_params()
    forward = Forward(out.inputs, dec_inputs, reg, side) if probe else None
    result = Grads(np.empty(n_enc + model.dec.n_params()), n_enc, forward)
    d_z = nn.mlp_backward(model.dec, dec_inputs, d_xhat, out=result.dec)

    # The regularizer gradients are added only when weighted: at lam = 0
    # they hold zeros that would turn -0.0 into 0.0, or NaN from 0 * inf.
    if cfg.lam != 0.0 and reg_z is not None:
        d_z = d_z + reg_z
    # Reparameterization back to the heads.
    d_mu = d_z
    d_logvar = d_z * eps * (0.5 * np.exp(0.5 * out.logvar))
    if cfg.lam != 0.0 and reg_mu is not None:
        d_mu = d_mu + reg_mu
        d_logvar = d_logvar + reg_logvar
    d_logvar = d_logvar * ((out.logvar > LOGVAR_MIN) & (out.logvar < LOGVAR_MAX))

    grad_enc_y = np.concatenate([d_mu, d_logvar], axis=1)
    nn.mlp_backward(model.enc, out.inputs, grad_enc_y, out=result.enc, input_grad=False)
    return parts, result


@dataclass
class TrainState:
    config: TrainConfig
    model: Model  # built on an arena: train_step updates model.theta
    adam: nn.AdamState  # one optimizer over model.theta, enc || dec
    rng: Rng  # per-step noise: prior batch first, then encoder noise
    data_rng: Rng  # mini-batch index stream
    step: int
    image_shape: Optional[tuple[int, int]]


def adam_state(cfg: TrainConfig, t: int = 0) -> nn.AdamState:
    """The optimizer the config describes, `t` steps in, moments not yet
    allocated."""
    return nn.AdamState(
        lr=cfg.lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        decay_every=cfg.decay_every,
        decay_factor=cfg.decay_factor,
        t=t,
    )


def init_train_state(
    cfg: TrainConfig, data_dim: int, image_shape: Optional[tuple[int, int]]
) -> TrainState:
    root = Rng(cfg.seed)
    model = build_model(cfg, data_dim, root.split(2), image_shape is not None)
    return TrainState(
        config=cfg,
        model=model,
        adam=adam_state(cfg),
        rng=root.split(1),
        data_rng=root.split(0),
        step=0,
        image_shape=image_shape,
    )


def draw_step_noise(
    cfg: TrainConfig, rng: Rng, n: int, ell: int
) -> tuple[Optional[Matrix], Optional[GaussStats], Matrix]:
    """Per-step randomness in a fixed order: prior batch first, then eps.

    KL draws no prior batch, and neither does W2 with exact prior moments.
    """
    z_prior = None
    prior_stats = None
    if cfg.regularizer == "w2" and cfg.prior_stats == "exact":
        prior_stats = GaussStats(np.zeros(ell), np.eye(ell))
    elif cfg.regularizer != "kl":
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
    """Decode standard-normal latents; the sigmoid keeps image outputs in
    [0, 1] (or NaN), so they need no clamp."""
    return decode(model, rng.normal(count, model.latent_dim))


def reconstruct(model: Model, x: Matrix) -> Matrix:
    """Posterior-mean reconstruction (no sampling noise)."""
    out = encode(model.enc, x)
    return decode(model, out.mu)
