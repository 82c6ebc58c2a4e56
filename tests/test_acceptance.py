"""Acceptance gate: one test per release criterion, each printing a single
report line with the measured quantities and PASS/FAIL before asserting.

These exercise the package end to end (numerics, spectral kernel,
divergences, training, metrics, CLI) at small scale with fixed seeds, and
every threshold below is part of the contract of a release build.
"""

import time

import numpy as np
import pytest

from conftest import random_spd, w2_1d_empirical
from wwae import divergences, gradcheck, metrics, models
from wwae.cli import main
from wwae.config import TrainConfig
from wwae.data import Dataset, batches, load_dataset, make_blob_images, ring_centers
from wwae.divergences import W2Variant, gaussian_w2
from wwae.metrics import DeskFid, fid, latent_report, latent_summary
from wwae.numerics import Rng
from wwae.spectral import GaussStats, batch_stats, eigh_psd, grad_trace_sqrtm, sqrtm_psd


def report(n: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {n} ({label}): {detail} -> {'PASS' if ok else 'FAIL'}")


def test_criterion_1_gradient_correctness_all_regularizers():
    started = time.monotonic()
    x = Rng(21).normal(8, 4)
    worst = {}
    for kind, overrides in (
        ("w2_root_product", dict(regularizer="w2", w2_variant="root_product")),
        ("w2_bures", dict(regularizer="w2", w2_variant="bures")),
        ("kl", dict(regularizer="kl")),
        ("mmd", dict(regularizer="mmd")),
    ):
        cfg = TrainConfig(
            latent_dim=2,
            enc_hidden=(8,),
            dec_hidden=(8,),
            lam=1.0,
            batch_size=8,
            seed=2,
            **overrides,
        ).validate()
        res = gradcheck.check_model_grads(cfg, x)
        worst[kind] = res.max_rel_err
    wall = time.monotonic() - started

    ok = all(err <= 1e-4 for err in worst.values()) and wall < 30.0
    detail = (
        " ".join(f"{k}={v:.3e}" for k, v in worst.items())
        + f" tol=1e-4 wall={wall:.1f}s"
    )
    report(1, "gradient correctness", ok, detail)
    assert ok


def test_criterion_2_closed_form_w2_against_diagonal_formula():
    started = time.monotonic()
    rng = Rng(22)

    worst_diag = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 9, 1)[0])
        mp, mq = rng.normal(2, d)
        vp = np.exp(rng.normal(1, d))[0]
        vq = np.exp(rng.normal(1, d))[0]
        p = GaussStats(mp, np.diag(vp))
        q = GaussStats(mq, np.diag(vq))
        coordwise = float(
            np.sum((mp - mq) ** 2 + (np.sqrt(vp) - np.sqrt(vq)) ** 2)
        )
        for variant in (W2Variant.ROOT_PRODUCT, W2Variant.BURES):
            worst_diag = max(worst_diag, abs(gaussian_w2(p, q, variant) - coordwise))

    worst_gap = 0.0  # most negative (root_product - bures); must stay >= -1e-12
    worst_sym = 0.0
    min_value = np.inf
    for _ in range(50):
        d = int(rng.integers(2, 9, 1)[0])
        p = GaussStats(rng.normal(1, d)[0], random_spd(rng, d))
        q = GaussStats(rng.normal(1, d)[0], random_spd(rng, d))
        root_prod = gaussian_w2(p, q, W2Variant.ROOT_PRODUCT)
        bures = gaussian_w2(p, q, W2Variant.BURES)
        worst_gap = min(worst_gap, root_prod - bures)
        min_value = min(min_value, root_prod, bures)
        for variant in (W2Variant.ROOT_PRODUCT, W2Variant.BURES):
            worst_sym = max(
                worst_sym, abs(gaussian_w2(p, q, variant) - gaussian_w2(q, p, variant))
            )
    wall = time.monotonic() - started

    ok = (
        worst_diag <= 1e-9
        and worst_gap >= -1e-12
        and min_value >= 0.0
        and worst_sym <= 1e-9
        and wall < 5.0
    )
    detail = (
        f"diag_err={worst_diag:.3e} bures_minus_root_max={-worst_gap:.3e} "
        f"min_value={min_value:.3e} sym_err={worst_sym:.3e} wall={wall:.1f}s"
    )
    report(2, "closed-form W2 correctness", ok, detail)
    assert ok


def test_criterion_3_gaussian_fit_w2_matches_empirical_coupling():
    started = time.monotonic()
    rng = Rng(23)
    x = 1.5 * rng.normal(10_000, 1).ravel() + 0.3
    y = 0.7 * rng.normal(10_000, 1).ravel() - 0.5

    fit = gaussian_w2(batch_stats(x[:, None]), batch_stats(y[:, None]), W2Variant.BURES)
    empirical = w2_1d_empirical(x, y)
    rel = abs(fit - empirical) / empirical
    wall = time.monotonic() - started

    ok = rel <= 0.05 and wall < 5.0
    report(
        3,
        "sampling consistency",
        ok,
        f"gaussian_fit={fit:.5f} sorted_coupling={empirical:.5f} "
        f"rel_err={rel:.4f} tol=0.05 wall={wall:.1f}s",
    )
    assert ok


def test_criterion_4_spectral_kernel_roundtrip_and_gradient():
    started = time.monotonic()
    rng = Rng(24)

    worst_sq = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 65, 1)[0])
        cond = float(np.exp(rng.uniform(1, 1)[0, 0] * np.log(1e6)))
        a = random_spd(rng, d, cond)
        s = sqrtm_psd(a)
        worst_sq = max(worst_sq, float(np.linalg.norm(s @ s - a)))

    worst_grad = 0.0
    h = 1e-5
    for _ in range(5):
        a = random_spd(rng, 6, 100.0)
        c = rng.normal(6, 6)
        g = grad_trace_sqrtm(eigh_psd(a), c)
        sym_c = 0.5 * (c + c.T)
        for _ in range(6):
            e = rng.normal(6, 6)
            e = 0.5 * (e + e.T)
            hi = float(np.trace(sym_c @ sqrtm_psd(a + h * e)))
            lo = float(np.trace(sym_c @ sqrtm_psd(a - h * e)))
            fd = (hi - lo) / (2.0 * h)
            an = float(np.sum(g * e))
            worst_grad = max(worst_grad, abs(an - fd) / max(abs(an), abs(fd)))
    wall = time.monotonic() - started

    ok = worst_sq <= 1e-8 and worst_grad <= 1e-6 and wall < 60.0
    report(
        4,
        "spectral kernel",
        ok,
        f"sqrtm_roundtrip={worst_sq:.3e} (tol 1e-8) "
        f"grad_rel_err={worst_grad:.3e} (tol 1e-6) wall={wall:.1f}s",
    )
    assert ok


@pytest.mark.slow
def test_criterion_5_ring_latent_matching_and_coverage():
    started = time.monotonic()
    # Narrow-deep MLPs interpolate sharply between the learned latent
    # atoms; wide shallow ones blur the ring and miss the quality bar.
    cfg = TrainConfig(
        dataset="ring",
        limit=8192,
        latent_dim=2,
        enc_hidden=(24,) * 7,
        dec_hidden=(24,) * 7,
        regularizer="w2",
        lam=10.0,
        w2_variant="root_product",
        prior_stats="exact",
        batch_size=256,
        steps=2000,
        seed=13,
        lr=0.01,
    ).validate()

    root = Rng(cfg.seed)
    ds = load_dataset(cfg, root.split(3))
    state = models.init_train_state(cfg, ds.dim, ds.image_shape)
    stream = batches(ds, cfg.batch_size, state.data_rng)
    for _ in range(cfg.steps):
        models.train_step(state, next(stream))

    rep = latent_report(state.model.enc, ds, root.split(5), 4096)
    mu_norm, cov_dist = latent_summary(rep.stats)
    samples = models.generate(state.model, root.split(6), 4096)
    covered, hq = metrics.mode_coverage(samples, ring_centers(), max_dist=0.3)
    wall = time.monotonic() - started

    ok = (
        mu_norm < 0.1
        and cov_dist < 0.3
        and covered >= 7
        and hq >= 0.8
        and wall < 300.0
    )
    report(
        5,
        "ring latent matching",
        ok,
        f"|mu|={mu_norm:.4f} (<0.1) |cov-I|={cov_dist:.4f} (<0.3) "
        f"coverage={covered}/8 (>=7) hq={hq:.4f} (>=0.8) wall={wall:.0f}s",
    )
    assert ok


@pytest.mark.slow
def test_criterion_6_image_training_beats_untrained_baseline():
    started = time.monotonic()
    cfg = TrainConfig(
        dataset="ring",  # data injected directly below
        latent_dim=8,
        enc_hidden=(256, 64),
        dec_hidden=(64, 256),
        regularizer="w2",
        lam=1.0,
        w2_variant="root_product",
        prior_stats="sampled",
        batch_size=64,
        steps=5000,
        seed=1,
        lr=0.005,
    ).validate()

    root = Rng(cfg.seed)
    full = make_blob_images(root.split(3), 4096 + 2048)
    train_ds = Dataset(full.examples[:4096], None, full.image_shape)
    held = full.examples[4096:]
    state = models.init_train_state(cfg, train_ds.dim, train_ds.image_shape)

    desk_fid = DeskFid(held, image_data=True)

    def evaluate():
        score = desk_fid.score(models.generate(state.model, root.split(6), 2048))
        mse = models.recon_error(held, models.reconstruct(state.model, held))
        return score, mse

    fid_untrained, mse_untrained = evaluate()
    stream = batches(train_ds, cfg.batch_size, state.data_rng)
    for _ in range(cfg.steps):
        models.train_step(state, next(stream))
    fid_trained, mse_trained = evaluate()
    wall = time.monotonic() - started

    ok = (
        fid_trained < fid_untrained
        and mse_trained < 0.2 * mse_untrained
        and wall < 1200.0
    )
    report(
        6,
        "comparative ordering on images",
        ok,
        f"desk_fid {fid_untrained:.3f} -> {fid_trained:.3f} "
        f"recon_mse {mse_untrained:.3f} -> {mse_trained:.3f} "
        f"(need < {0.2 * mse_untrained:.3f}) wall={wall:.0f}s",
    )
    assert ok


def test_criterion_7_metric_sanity():
    started = time.monotonic()
    f = Rng(70).normal(200, 32)
    self_fid = fid(f, f.copy())

    full = make_blob_images(Rng(7), 2048)
    half_a, half_b = full.examples[:1024], full.examples[1024:]
    desk_fid = DeskFid(half_a, image_data=True)
    halves = desk_fid.score(half_b)

    perm = np.argsort(Rng(71).uniform(1, 784).ravel())  # fixed pixel permutation
    scrambled = desk_fid.score(half_b[:, perm])
    wall = time.monotonic() - started

    ok = self_fid == 0.0 and halves < scrambled and wall < 120.0
    report(
        7,
        "metric sanity",
        ok,
        f"self_fid={self_fid!r} (==0.0) halves={halves:.3f} < "
        f"shuffled_pixels={scrambled:.3f} wall={wall:.1f}s",
    )
    assert ok


def test_criterion_8_training_runs_are_byte_identical(tmp_path):
    started = time.monotonic()
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "dataset = ring\n"
        "limit = 512\n"
        "latent_dim = 2\n"
        "enc_hidden = 16\n"
        "dec_hidden = 16\n"
        "batch_size = 32\n"
        "steps = 60\n"
        "eval_every = 30\n"
        "seed = 11\n"
        f"out_dir = {tmp_path / 'run'}\n"
    )

    def run() -> dict:
        assert main(["train", "--config", str(cfg_path)]) == 0
        return {
            p.name: p.read_bytes()
            for p in (tmp_path / "run").iterdir()
            if p.is_file()
        }

    first = run()
    second = run()
    wall = time.monotonic() - started

    same = sorted(first) == sorted(second) and all(
        first[k] == second[k] for k in first
    )
    ok = same and len(first) >= 2
    report(
        8,
        "run determinism",
        ok,
        f"artifacts={sorted(first)} byte_identical={same} wall={wall:.1f}s",
    )
    assert ok
