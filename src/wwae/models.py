"""Gaussian encoder with reparameterization, decoder, one table of latent
regularizers (closed-form W2, KL, IMQ-MMD), the one loss with its exact
analytic gradients (or its value alone, for finite-difference probes), and
the single-step training update.

Gradient flow for the W2 and MMD regularizers runs through the encoded-side
batch only; what each takes from the prior alone is a constant with respect
to the model parameters, drawn and computed once per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

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


class TrainingDiverged(RuntimeError):
    """A non-finite loss or parameter; `step` is the number of steps taken."""

    def __init__(self, step: int, what: str, detail: str):
        super().__init__(f"non-finite {what} at step {step}: {detail}")
        self.step = step


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


# A regularizer is a pair. `prior(cfg, rng, n, ell)` draws the step's prior
# batch, or none, and returns it with the terms taken from the prior alone,
# constant in the parameters. `term(cfg, z, out, z_prior, prior, grads)`
# returns the value and the gradients of lam * value with respect to the
# codes z, the means and the log-variances; None stands for a gradient it
# lacks, and every gradient is None when `grads` is false.
RegTerm = tuple[float, Optional[Matrix], Optional[Matrix], Optional[Matrix]]


class Regularizer(NamedTuple):
    prior: Callable[..., tuple[Optional[Matrix], Any]]
    term: Callable[..., RegTerm]


def _w2_prior(cfg: TrainConfig, rng: Rng, n: int, ell: int):
    """The prior statistics, exact (0, I) or fitted to a prior batch, and
    their covariance root; I is its own root, so it takes no eigh."""
    if cfg.prior_stats == "exact":
        return None, (GaussStats(np.zeros(ell), np.eye(ell)), np.eye(ell))
    z_prior = rng.normal(n, ell)
    p = spectral.batch_stats(z_prior)
    return z_prior, (p, spectral.sqrtm_psd(p.cov))


def _w2_term(cfg: TrainConfig, z: Matrix, out: EncoderOut, z_prior, prior, grads) -> RegTerm:
    """Closed-form W2 between the prior statistics and the fit to the codes."""
    (p, p_root), q, variant = prior, spectral.batch_stats(z), W2Variant(cfg.w2_variant)
    if not grads:
        return divergences.gaussian_w2(p, q, variant, p_root), None, None, None
    value, gm, gc = divergences.gaussian_w2_value_and_grad(p, q, variant, p_root)
    d_z = spectral.batch_stats_backward(z, cfg.lam * gm, cfg.lam * gc)
    return value, d_z, None, None


def _kl_term(cfg: TrainConfig, z: Matrix, out: EncoderOut, z_prior, prior, grads) -> RegTerm:
    """KL of each diagonal posterior to N(0, I), averaged over the batch."""
    mu, logvar = out.mu, out.logvar
    n = mu.shape[0]
    value = float(0.5 * np.sum(mu**2 + np.exp(logvar) - logvar - 1.0)) / n
    if not grads:
        return value, None, None, None
    d_mu = cfg.lam * mu / n
    d_logvar = cfg.lam * (np.exp(logvar) - 1.0) / (2.0 * n)
    return value, None, d_mu, d_logvar


def _mmd_prior(cfg: TrainConfig, rng: Rng, n: int, ell: int):
    """A prior batch and its kernel terms: C, its squared norms, kxx's term."""
    z_prior = rng.normal(n, ell)
    return z_prior, divergences.imq_prior_side(z_prior, cfg.mmd_scale)


def _mmd_term(cfg: TrainConfig, z: Matrix, out: EncoderOut, z_prior, prior, grads) -> RegTerm:
    """IMQ-kernel MMD between the prior batch and the codes; the prior terms
    carry the kernel constant."""
    if not grads:
        return divergences._mmd_imq_parts(z_prior, z, prior)[0], None, None, None
    value, grad = divergences.mmd_imq_value_and_grad(z_prior, z, prior)
    return value, cfg.lam * grad, None, None


REGULARIZERS = {
    "w2": Regularizer(_w2_prior, _w2_term),
    "kl": Regularizer(lambda cfg, rng, n, ell: (None, None), _kl_term),
    "mmd": Regularizer(_mmd_prior, _mmd_term),
}


@dataclass
class Forward:
    """Each network's layer inputs and the regularizer value, as one
    `loss_and_grads` call computed them."""

    enc_inputs: list[Matrix]
    dec_inputs: list[Matrix]
    reg: float


@dataclass
class Grads:
    """The loss gradient in the `Model.theta` layout, enc || dec, and the
    forward record of the call that computed it."""

    flat: np.ndarray
    n_enc: int
    forward: Forward

    @property
    def enc(self) -> np.ndarray:
        return self.flat[: self.n_enc]

    @property
    def dec(self) -> np.ndarray:
        return self.flat[self.n_enc :]


def loss_and_grads(
    model: Model,
    cfg: TrainConfig,
    x: Matrix,
    eps: Matrix,
    z_prior: Optional[Matrix],
    prior: Any,
    probe: Optional[tuple[Forward, str, int]] = None,
) -> tuple[LossParts, Optional[Grads]]:
    """Loss and exact parameter gradients for one batch with fixed noise.

    `z_prior` and `prior` are the step's prior batch (or None) and prior
    terms, as `draw_step_noise` returns them; a caller that repeats a batch
    passes the same ones again. A call whose parameters differ from an
    earlier call's on the same inputs only in layer L of `net` ("enc" or
    "dec") may pass `probe = (record, net, L)` with that call's
    `Grads.forward`. Such a call is loss-only: it runs from layer L on with
    no backward pass and no regularizer gradient, and returns
    `(parts, None)` with the bits of a full forward.
    """
    n = x.shape[0]
    # A full call is a probe of the whole encoder, from x.
    record, net, layer = probe or (Forward([x], [], 0.0), "enc", 0)
    if net == "enc":
        out = encode(model.enc, record.enc_inputs[layer], layer)
        z = reparameterize(out, eps)
        x_hat, dec_inputs = _decode(model, z)
        reg, reg_z, reg_mu, reg_logvar = REGULARIZERS[cfg.regularizer].term(
            cfg, z, out, z_prior, prior, probe is None
        )
    else:
        x_hat, dec_inputs = _decode(model, record.dec_inputs[layer], layer)
        reg = record.reg
    recon = recon_error(x, x_hat)
    parts = LossParts(recon + cfg.lam * reg, recon, reg)
    if probe is not None:
        return parts, None

    # Reconstruction path back to the latent codes.
    d_xhat = (2.0 / n) * (x_hat - x)
    if model.output_activation == "sigmoid":
        d_xhat = d_xhat * x_hat * (1.0 - x_hat)
    n_enc = model.enc.n_params()
    forward = Forward(out.inputs, dec_inputs, reg)
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
    config: TrainConfig  # also the optimizer's settings
    model: Model  # built on an arena: train_step updates model.theta
    adam: nn.AdamState  # one optimizer over model.theta, enc || dec
    rng: Rng  # per-step noise: prior batch first, then encoder noise
    data_rng: Rng  # mini-batch index stream
    image_shape: Optional[tuple[int, int]]

    @property
    def step(self) -> int:
        """Steps taken: Adam makes one per training step."""
        return self.adam.t


def init_train_state(
    cfg: TrainConfig, data_dim: int, image_shape: Optional[tuple[int, int]]
) -> TrainState:
    root = Rng(cfg.seed)
    model = build_model(cfg, data_dim, root.split(2), image_shape is not None)
    return TrainState(
        config=cfg,
        model=model,
        adam=nn.AdamState(),
        rng=root.split(1),
        data_rng=root.split(0),
        image_shape=image_shape,
    )


def draw_step_noise(
    cfg: TrainConfig, rng: Rng, n: int, ell: int
) -> tuple[Optional[Matrix], Any, Matrix]:
    """Per-step randomness in a fixed order: the regularizer's prior batch,
    if it draws one, then eps. Returns that batch, the terms the regularizer
    computes from the prior alone, and eps."""
    z_prior, prior = REGULARIZERS[cfg.regularizer].prior(cfg, rng, n, ell)
    return z_prior, prior, rng.normal(n, ell)


def train_step(state: TrainState, x: Matrix) -> LossParts:
    """One optimizer step on one mini-batch: draws the step's noise from
    `state.rng`, updates `state.model.theta` and `state.adam` in place, and
    returns the batch's loss parts, taken before the update. The step count
    and the rate it used are `state.step` and `cfg.lr_at(state.step - 1)`.
    A non-finite loss raises TrainingDiverged before the update. A
    non-finite update is not checked here: see `check_finite`."""
    cfg = state.config
    n = x.shape[0]
    ell = state.model.latent_dim

    z_prior, prior, eps = draw_step_noise(cfg, state.rng, n, ell)

    # Overflow to inf/nan is reported as TrainingDiverged, by the loss check
    # below or by `check_finite`, so the element-wise warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            parts, grads = loss_and_grads(state.model, cfg, x, eps, z_prior, prior)
        except np.linalg.LinAlgError:  # exploded latents reached the eigensolver
            raise TrainingDiverged(state.step, "loss", "eigensolver failed") from None
        if not np.isfinite(parts.total):  # also when recon or reg is not finite
            raise TrainingDiverged(
                state.step, "loss", f"total={parts.total} recon={parts.recon} "
                f"reg={parts.reg} max|grad|={float(np.max(np.abs(grads.flat)))}"
            )
        # Adam is element-wise and both networks share lr, betas and t, so one
        # update over enc || dec gives the bits of one update per network.
        lr = cfg.lr_at(state.step)
        nn.adam_step(state.adam, state.model.theta, grads.flat, lr, cfg.beta1, cfg.beta2)
    return parts


def check_finite(state: TrainState) -> None:
    """Raise TrainingDiverged naming each layer with a non-finite parameter.
    It reads every parameter, so callers run it before they use or save the
    parameters, not after every step."""
    m = state.model
    layers = [
        f"{net}.{kind}{i}"
        for net, params in (("enc", m.enc), ("dec", m.dec))
        for i, wb in enumerate(zip(params.weights, params.biases))
        for kind, a in zip("Wb", wb)
        if not np.isfinite(a).all()
    ]
    if layers:
        raise TrainingDiverged(state.step, "parameters", ", ".join(layers))


def generate(model: Model, rng: Rng, count: int) -> Matrix:
    """Decode standard-normal latents; the sigmoid keeps image outputs in
    [0, 1] (or NaN), so they need no clamp."""
    return decode(model, rng.normal(count, model.latent_dim))


def reconstruct(model: Model, x: Matrix) -> Matrix:
    """Posterior-mean reconstruction (no sampling noise)."""
    out = encode(model.enc, x)
    return decode(model, out.mu)
