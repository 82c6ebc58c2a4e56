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
    table = models.tensors(model)
    fd = np.empty_like(theta)
    for _, net, layer, start, view in table:
        probe = (grads, net, layer)
        for k in range(start, start + view.size):
            saved = theta[k]
            theta[k] = saved + FD_STEP
            hi = models.loss_and_grads(*args, probe=probe)[0].total
            theta[k] = saved - FD_STEP
            lo = models.loss_and_grads(*args, probe=probe)[0].total
            theta[k] = saved
            fd[k] = (hi - lo) / (2.0 * FD_STEP)

    # The larger magnitude as Python's max takes it: |a| when |fd| is NaN.
    # A NaN error counts as checked but is never the worst; ties go to the
    # first coordinate.
    a, b = np.abs(grads.flat), np.abs(fd)
    scale = np.where(b > a, b, a)
    checked = ~(scale <= GRAD_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(grads.flat - fd) / scale
    rel = np.where(checked & (rel > 0.0), rel, 0.0)
    k = int(np.argmax(rel))
    max_rel, worst = float(rel[k]), "none"
    for name, _, _, start, view in table:
        if max_rel > 0.0 and start <= k < start + view.size:
            worst = f"{name}[{','.join(map(str, np.unravel_index(k - start, view.shape)))}]"
    kind = f"w2_{cfg.w2_variant}" if cfg.regularizer == "w2" else cfg.regularizer
    return GradCheckResult(kind, max_rel, worst, int(checked.sum()), max_rel <= REL_TOL)


def check_config(cfg: TrainConfig) -> GradCheckResult:
    """Check the first step of a run of `cfg` on the first batch of its
    dataset; of IDX data only that batch is read."""
    dataset = data.load_dataset(cfg, Rng(cfg.seed).split(3), cfg.batch_size)
    if cfg.batch_size > dataset.n:  # as `wwae train` refuses it
        raise ValueError(f"batch_size {cfg.batch_size} exceeds dataset size {dataset.n}")
    state = models.init_train_state(cfg, dataset.dim, dataset.image_shape)
    return check_model_grads(state, dataset.examples[: cfg.batch_size])
