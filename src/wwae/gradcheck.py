"""Full-model finite-difference gradient verification.

Probes every encoder and decoder parameter of a model built from a config,
holding the batch and all sampling noise fixed, and compares analytic
gradients against central differences of the same loss. One full
`models.loss_and_grads` call gives the analytic gradients; each of the 2n
probes calls it with `grads=False`, which runs the identical forward and
skips every backward pass. This is the decisive correctness gate for the
hand-written backward passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data, models, nn
from .config import TrainConfig
from .numerics import Rng

FD_STEP = 1e-5
REL_TOL = 1e-4
GRAD_FLOOR = 1e-8  # coordinates below this magnitude are skipped


@dataclass
class GradCheckResult:
    regularizer: str
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


def _coordinate_name(params: nn.MlpParams, net: str, flat_index: int) -> str:
    pos = flat_index
    for layer, (w, b) in enumerate(zip(params.weights, params.biases)):
        if pos < w.size:
            i, j = divmod(pos, w.shape[1])
            return f"{net}.W{layer}[{i},{j}]"
        pos -= w.size
        if pos < b.size:
            return f"{net}.b{layer}[{pos}]"
        pos -= b.size
    return f"{net}.flat[{flat_index}]"


def check_model_grads(
    cfg: TrainConfig, x: np.ndarray, image_data: bool = False
) -> GradCheckResult:
    """Compare analytic and central-difference gradients on one fixed batch."""
    n = x.shape[0]
    root = Rng(cfg.seed)
    model = models.build_model(cfg, x.shape[1], root.split(2), image_data=image_data)
    z_prior, prior_stats, eps = models.draw_step_noise(
        cfg, root.split(1), n, cfg.latent_dim
    )

    _, grads = models.loss_and_grads(model, cfg, x, eps, z_prior, prior_stats)

    # The model is this function's own: each probe bumps one coordinate of
    # its parameter vector in place and puts the saved value back.
    theta = model.theta

    def loss_at(k: int, value: float) -> float:
        theta[k] = value
        p, _ = models.loss_and_grads(model, cfg, x, eps, z_prior, prior_stats, grads=False)
        return p.total

    n_enc = grads.n_enc
    max_rel = 0.0
    worst = "none"
    checked = 0
    for k in range(theta.size):
        saved = theta[k]
        hi = loss_at(k, saved + FD_STEP)
        lo = loss_at(k, saved - FD_STEP)
        theta[k] = saved
        fd = (hi - lo) / (2.0 * FD_STEP)
        a = grads.flat[k]
        scale = max(abs(a), abs(fd))
        if scale <= GRAD_FLOOR:
            continue
        rel = abs(a - fd) / scale
        checked += 1
        if rel > max_rel:
            max_rel = rel
            if k < n_enc:
                worst = _coordinate_name(model.enc, "enc", k)
            else:
                worst = _coordinate_name(model.dec, "dec", k - n_enc)
    return GradCheckResult(cfg.reg_kind(), max_rel, worst, checked, max_rel <= REL_TOL)


def check_config(cfg: TrainConfig) -> GradCheckResult:
    """Run the suite on the first batch of the configured dataset."""
    dataset = data.load_dataset(cfg, Rng(cfg.seed).split(3))
    n = min(cfg.batch_size, dataset.n)
    return check_model_grads(
        cfg, dataset.examples[:n], image_data=dataset.image_shape is not None
    )
