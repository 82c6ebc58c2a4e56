"""Full-model finite-difference gradient verification.

Checks the loss of a training state's next step: `state.model` on one batch
with the noise `train_step` would draw from `state.rng`. Every encoder and
decoder parameter is probed, with the batch and that noise held fixed, and
analytic gradients are compared against central differences. One full
`models.loss_and_grads` call gives the analytic gradients and, in the same
`Grads`, its record: each network's layer inputs and the regularizer value.
Each of the 2n probes passes that record and the step's prior terms, so it
runs no backward pass, takes nothing from the prior again and recomputes
only from the bumped layer's input on, with the bits of a full forward.
This is the decisive correctness gate for the hand-written backward passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import data, models
from .config import TrainConfig
from .numerics import Rng

FD_STEP = 1e-5
REL_TOL = 1e-4
GRAD_FLOOR = 1e-8  # coordinates below this magnitude are skipped


@dataclass
class GradCheckResult:
    regularizer: str  # w2_root_product, w2_bures, kl or mmd
    max_rel_err: float
    worst: str  # coordinate path of the worst relative error
    checked: int
    passed: bool

    def report_line(self) -> str:
        status = "pass" if self.passed else "fail"
        return (
            f"regularizer={self.regularizer} max_rel_err={self.max_rel_err:.6e} "
            f"worst={self.worst} checked={self.checked} tol={REL_TOL:g} "
            f"status={status}"
        )


def _coordinates(model: models.Model) -> Iterator[tuple[str, int, str]]:
    """Network, layer and name of each parameter, in `Model.theta` order."""
    for net, params in (("enc", model.enc), ("dec", model.dec)):
        for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
            for i, j in np.ndindex(w.shape):
                yield net, layer, f"{net}.W{layer}[{i},{j}]"
            for i in range(b.size):
                yield net, layer, f"{net}.b{layer}[{i}]"


def check_model_grads(state: models.TrainState, x: np.ndarray) -> GradCheckResult:
    """Compare analytic and central-difference gradients on one fixed batch.
    The noise draw advances `state.rng` (pass a copy with its own `rng` to
    keep a run's stream); each probe bumps one coordinate of `model.theta`
    in place and puts it back, so parameters and optimizer stay as they were."""
    cfg, model = state.config, state.model
    z_prior, prior, eps = models.draw_step_noise(cfg, state.rng, x.shape[0], model.latent_dim)

    args = (model, cfg, x, eps, z_prior, prior)
    _, grads = models.loss_and_grads(*args)
    theta = model.theta

    def loss_at(k: int, value: float, probe: tuple) -> float:
        theta[k] = value
        return models.loss_and_grads(*args, probe=probe)[0].total

    max_rel = 0.0
    worst = "none"
    checked = 0
    for k, (net, layer, name) in enumerate(_coordinates(model)):
        saved = theta[k]
        probe = (grads, net, layer)
        hi = loss_at(k, saved + FD_STEP, probe)
        lo = loss_at(k, saved - FD_STEP, probe)
        theta[k] = saved
        fd = (hi - lo) / (2.0 * FD_STEP)
        a = grads.flat[k]
        scale = max(abs(a), abs(fd))
        if scale <= GRAD_FLOOR:
            continue
        rel = abs(a - fd) / scale
        checked += 1
        if rel > max_rel:
            max_rel, worst = rel, name
    kind = f"w2_{cfg.w2_variant}" if cfg.regularizer == "w2" else cfg.regularizer
    return GradCheckResult(kind, max_rel, worst, checked, max_rel <= REL_TOL)


def check_config(cfg: TrainConfig) -> GradCheckResult:
    """Check the first step of a run of `cfg` on the first batch of its
    dataset; of IDX data only that batch is read."""
    dataset = data.load_dataset(cfg, Rng(cfg.seed).split(3), cfg.batch_size)
    if cfg.batch_size > dataset.n:  # as `wwae train` refuses it
        raise ValueError(f"batch_size {cfg.batch_size} exceeds dataset size {dataset.n}")
    state = models.init_train_state(cfg, dataset.dim, dataset.image_shape)
    return check_model_grads(state, dataset.examples[: cfg.batch_size])
