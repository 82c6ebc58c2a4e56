import hashlib

import numpy as np
import pytest

from conftest import corrupt_first_gradient
from wwae import gradcheck, models, nn
from wwae.config import TrainConfig
from wwae.numerics import Rng


def tiny_config(**overrides):
    base = dict(
        dataset="ring",
        limit=64,
        latent_dim=2,
        enc_hidden=(6,),
        dec_hidden=(6,),
        regularizer="w2",
        lam=1.0,
        prior_stats="sampled",
        batch_size=8,
        seed=2,
    )
    base.update(overrides)
    return TrainConfig(**base).validate()


@pytest.mark.parametrize(
    "overrides",
    [
        dict(regularizer="w2", w2_variant="root_product"),
        dict(regularizer="w2", w2_variant="bures"),
        dict(regularizer="w2", w2_variant="root_product", prior_stats="exact"),
        dict(regularizer="kl"),
        dict(regularizer="mmd"),
    ],
)
def test_analytic_matches_finite_difference(overrides):
    res = gradcheck.check_config(tiny_config(**overrides))
    assert res.passed, res.report_line()
    assert res.max_rel_err <= 1e-4
    assert res.checked > 0


def test_image_path_with_sigmoid_output():
    cfg = tiny_config(regularizer="w2", prior_stats="exact")
    x = Rng(7).uniform(8, 9)
    res = gradcheck.check_model_grads(cfg, x, image_data=True)
    assert res.passed, res.report_line()


def test_corrupted_gradients_detected(monkeypatch):
    # negative control: a wrong gradient must trip the checker
    corrupt_first_gradient(monkeypatch, 0.5)
    res = gradcheck.check_config(tiny_config())
    assert not res.passed
    assert res.max_rel_err > 1e-4
    assert res.worst == "enc.W0[0,0]"


def test_one_loss_evaluation_per_probe(monkeypatch):
    # the analytic pass, then two evaluations per parameter
    calls = []
    loss_and_grads = models.loss_and_grads
    monkeypatch.setattr(
        models, "loss_and_grads", lambda *a, **k: calls.append(1) or loss_and_grads(*a, **k)
    )
    cfg = tiny_config()
    gradcheck.check_config(cfg)
    n_params = sum(nn.n_params(w) for w in ([2, 6, 4], [2, 6, 2]))
    assert len(calls) == 1 + 2 * n_params


def test_one_backward_pair_per_check(monkeypatch):
    # the analytic pass runs the decoder and encoder backward; probes run none
    calls = []
    backward = nn.mlp_backward
    monkeypatch.setattr(
        nn, "mlp_backward", lambda *a, **k: calls.append(1) or backward(*a, **k)
    )
    gradcheck.check_config(tiny_config())
    assert len(calls) == 2


# sha256 of the float64 totals of every `loss_and_grads` call one check of
# `tiny_config()` makes (the analytic pass, then the probes in order), as
# computed before the probes stopped running a backward pass.
GOLDEN_TOTALS_SHA256 = "baf64f35db3b18af2bd80c5e36e61f22bf054a92ec7306b5f7ba0fc9adbe0945"


def test_probe_totals_golden(monkeypatch):
    totals = []
    loss_and_grads = models.loss_and_grads

    def recorded(*args, **kwargs):
        parts, grads = loss_and_grads(*args, **kwargs)
        totals.append(parts.total)
        return parts, grads

    monkeypatch.setattr(models, "loss_and_grads", recorded)
    res = gradcheck.check_config(tiny_config())
    assert len(totals) == 157
    assert hashlib.sha256(np.array(totals).tobytes()).hexdigest() == GOLDEN_TOTALS_SHA256
    assert res.max_rel_err.hex() == "0x1.aca126f1fe7f7p-26"


def test_report_line_format():
    res = gradcheck.check_config(tiny_config(regularizer="kl"))
    line = res.report_line()
    fields = dict(part.split("=", 1) for part in line.split())
    assert fields["regularizer"] == "kl"
    assert fields["status"] == "pass"
    assert float(fields["max_rel_err"]) == pytest.approx(res.max_rel_err, rel=1e-5)
    assert int(fields["checked"]) == res.checked


def test_worst_coordinate_is_addressable():
    res = gradcheck.check_config(tiny_config())
    net, rest = res.worst.split(".", 1)
    assert net in ("enc", "dec")
    assert rest[0] in ("W", "b")
