"""Full-model finite-difference gradient verification.

Probes every encoder and decoder parameter of a model built from a config,
holding the batch and all sampling noise fixed, and compares analytic
gradients against central differences of the same loss. One full
`models.loss_and_grads` call gives the analytic gradients and its forward
record: each network's layer inputs and the regularizer value. Each of the
2n probes passes that record and the step's prior terms, so it runs no
backward pass, takes nothing from the prior again and recomputes only from
the bumped layer's input on, with the bits of a full forward.
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


def check_model_grads(
    cfg: TrainConfig, x: np.ndarray, image_data: bool = False
) -> GradCheckResult:
    """Compare analytic and central-difference gradients on one fixed batch."""
    n = x.shape[0]
    root = Rng(cfg.seed)
    model = models.build_model(cfg, x.shape[1], root.split(2), image_data=image_data)
    z_prior, prior, eps = models.draw_step_noise(cfg, root.split(1), n, cfg.latent_dim)

    args = (model, cfg, x, eps, z_prior, prior)
    _, grads = models.loss_and_grads(*args)

    # The model is this function's own: each probe bumps one coordinate of
    # its parameter vector in place and puts the saved value back.
    theta = model.theta

    def loss_at(k: int, value: float, probe: tuple) -> float:
        theta[k] = value
        return models.loss_and_grads(*args, probe=probe)[0].total

    max_rel = 0.0
    worst = "none"
    checked = 0
    for k, (net, layer, name) in enumerate(_coordinates(model)):
        saved = theta[k]
        probe = (grads.forward, net, layer)
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
    """Run the suite on the first batch of the configured dataset; of IDX
    data only that batch is read."""
    dataset = data.load_dataset(cfg, Rng(cfg.seed).split(3), cfg.batch_size)
    if cfg.batch_size > dataset.n:  # as `wwae train` refuses it
        raise ValueError(f"batch_size {cfg.batch_size} exceeds dataset size {dataset.n}")
    return check_model_grads(
        cfg, dataset.examples[: cfg.batch_size], image_data=dataset.image_shape is not None
    )
