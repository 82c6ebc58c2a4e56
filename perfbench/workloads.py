"""The four workloads: the inputs each builds from the seed, the command line
of one measured process, and the checks on what that process wrote.

Inputs are built here, in the runner, so that neither set-up time nor peak
memory of the measured process counts input generation. Checks also run
here, after the measured process has exited.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from pathlib import Path

import numpy as np

import reference

IMAGES = "blobs-images-idx3-ubyte"  # the labels file is found by name from it
BLOB_CHUNK = 256  # make_blob_images holds n x 784 x 3 x 2 floats at once

RING = {
    "dataset": "ring",
    "limit": 8192,
    "latent_dim": 2,
    "enc_hidden": ",".join(["24"] * 7),
    "dec_hidden": ",".join(["24"] * 7),
    "regularizer": "w2",
    "lambda": 10.0,
    "w2_variant": "root_product",
    "prior_stats": "exact",
    "batch_size": 256,
    "lr": 0.01,
}
IMAGE = {
    "dataset": "idx",
    "latent_dim": 8,
    "enc_hidden": "256,64",
    "dec_hidden": "64,256",
    "regularizer": "w2",
    "lambda": 1.0,
    "w2_variant": "root_product",
    "prior_stats": "sampled",
    "batch_size": 64,
    "lr": 0.005,
}
# No hidden layers and a narrow latent: `wwae gradcheck` fails on some seeds
# where central differences cross ReLU kinks or a gradient coordinate is so
# small that rounding dominates (see CHANGES.md). Each measured process runs
# the command GRADCHECK_REPEAT times, so that its 2088 loss evaluations, not
# interpreter start-up, take most of its run time.
GRADCHECK = {
    "dataset": "ring",
    "limit": 1024,
    "latent_dim": 16,
    "enc_hidden": "",
    "dec_hidden": "",
    "regularizer": "mmd",
    "lambda": 10.0,
    "batch_size": 64,
}
GRADCHECK_REPEAT = 8

CHECK_ROWS = 512  # rows of the fixed batch the training checks evaluate
FD_STEP = 1e-6  # along a unit direction in parameter space
FD_TOL = 1e-4
W2_TOL = 1e-9
FID_TOL = 1e-8


def _write_config(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def _write_blob_idx(work: Path, seed: int, n: int) -> Path:
    from wwae import data
    from wwae.numerics import Rng

    parts = [data.make_blob_images(Rng(seed).split(i), BLOB_CHUNK) for i in range(n // BLOB_CHUNK)]
    images = np.concatenate([p.examples for p in parts])
    labels = np.concatenate([p.labels for p in parts])
    path = work / IMAGES
    data.write_idx_images(path, images, parts[0].image_shape)
    data.write_idx_labels(work / IMAGES.replace("images", "labels").replace("idx3", "idx1"), labels)
    return path


def _n_params(widths: list[int]) -> int:
    return sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))


def _hidden(text: str) -> list[int]:
    return [int(w) for w in text.split(",")] if text else []


class Training:
    """`wwae train` into an empty out_dir; the operation is one train_step."""

    mode = "train"
    warmup = 10
    checked_exit_codes = (0,)

    def __init__(self, base: dict, steps: int, eval_every: int, images: int = 0):
        self.base = base
        self.ops_per_process = steps
        self.eval_every = eval_every
        self.images = images

    def prepare(self, work: Path, seed: int) -> None:
        self.values = dict(self.base, steps=self.ops_per_process, seed=seed, eval_every=self.eval_every)
        if self.images:
            self.values["data_path"] = _write_blob_idx(work, seed, self.images)
            self.values["limit"] = self.images

    def spec(self, run_dir: Path) -> dict:
        values = dict(self.values, out_dir=run_dir / "out")
        config = _write_config(run_dir / "train.cfg", values)
        return {"argv": ["train", "--config", str(config)], "repeat": 1}

    def check(self, run_dir: Path, stdout: str) -> list[str]:
        from wwae import checkpoint, data, divergences, models, nn
        from wwae.numerics import Rng
        from wwae.spectral import GaussStats

        out = run_dir / "out"
        errors = []
        steps = self.ops_per_process
        manifest = (out / "manifest.txt").read_text()
        totals = re.findall(r"^step=\d+ total=(\S+) recon=(\S+) reg=(\S+)", manifest, re.M)
        log_every = self.eval_every or 100
        if len(totals) != math.ceil(steps / log_every):
            errors.append(f"manifest has {len(totals)} loss records")
        if not all(math.isfinite(float(v)) for row in totals for v in row):
            errors.append("a logged loss is not finite")
        if f"final_step={steps}" not in manifest:
            errors.append("manifest lacks final_step")

        state = checkpoint.load_checkpoint(out / "model.ckpt")
        if state.step != steps:
            errors.append(f"checkpoint reloads at step {state.step}, not {steps}")
        cfg, model = state.config, state.model
        root = Rng(cfg.seed)
        x = data.load_dataset(cfg, root.split(3)).examples[:CHECK_ROWS]
        n, ell = x.shape[0], model.latent_dim
        z_prior, prior_stats, eps = models.draw_step_noise(cfg, root.split(90), n, ell)

        def loss(m: models.Model):
            return models.loss_and_grads(m, cfg, x, eps, z_prior, prior_stats)

        # The logged totals are single-batch estimates; a fixed batch with
        # fixed noise compares start and end without that noise.
        initial = models.build_model(cfg, x.shape[1], root.split(2), state.image_shape is not None)
        before = loss(initial)[0].total
        parts, grads = loss(model)
        if not parts.total < before:
            errors.append(f"loss on a fixed batch rose from {before!r} to {parts.total!r}")

        z = models.reparameterize(models.encode(model.enc, x), eps)
        mean, cov = z.mean(axis=0), np.cov(z, rowvar=False)
        got = divergences.gaussian_w2(
            GaussStats(np.zeros(ell), np.eye(ell)), GaussStats(mean, cov), divergences.W2Variant.ROOT_PRODUCT
        )
        want = reference.w2_to_standard_normal(mean, cov)
        if abs(got - want) > W2_TOL * max(1.0, abs(want)):
            errors.append(f"gaussian_w2 {got!r} differs from the closed form {want!r}")

        enc, dec = nn.flatten_params(model.enc), nn.flatten_params(model.dec)
        # Half gradient direction, half random: a ReLU unit sitting exactly
        # on its kink (a dead unit with zero bias fed an all-zero row) makes
        # the central difference differ from the one-sided analytic value by
        # a fixed amount, which a purely random direction, with a derivative
        # sqrt(n_params) times smaller, would not absorb.
        grad = np.concatenate([grads.enc, grads.dec])
        v = np.random.default_rng(cfg.seed).standard_normal(grad.size)
        v = grad / np.linalg.norm(grad) + v / np.linalg.norm(v)
        v /= np.linalg.norm(v)

        def along(t: float) -> float:
            shifted = models.Model(
                nn.unflatten_params(enc + t * v[: enc.size], model.enc),
                nn.unflatten_params(dec + t * v[enc.size :], model.dec),
                ell,
                model.output_activation,
            )
            return loss(shifted)[0].total

        analytic = float(grad @ v)
        numeric = (along(FD_STEP) - along(-FD_STEP)) / (2.0 * FD_STEP)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
        if rel > FD_TOL:
            errors.append(f"directional derivative {analytic!r} vs central difference {numeric!r}")
        return errors


class Gradcheck:
    """`wwae gradcheck`; the operation is one models.loss_and_grads call."""

    mode = "gradcheck"
    warmup = 10
    # `wwae gradcheck` exits 1 with status=fail; the check reads that report,
    # so a wrong gradient shows as wrong output, not only as a failure.
    checked_exit_codes = (0, 1)

    def __init__(self, base: dict, repeat: int):
        self.base = base
        self.repeat = repeat
        ell = base["latent_dim"]
        enc = [2, *_hidden(base["enc_hidden"]), 2 * ell]
        dec = [ell, *_hidden(base["dec_hidden"]), 2]
        n_params = _n_params(enc) + _n_params(dec)
        # An analytic pass, then two evaluations per coordinate.
        self.ops_per_process = repeat * (1 + 2 * n_params)

    def prepare(self, work: Path, seed: int) -> None:
        self.config = _write_config(work / "gradcheck.cfg", dict(self.base, seed=seed))

    def spec(self, run_dir: Path) -> dict:
        return {"argv": ["gradcheck", "--config", str(self.config)], "repeat": self.repeat}

    def check(self, run_dir: Path, stdout: str) -> list[str]:
        reports = re.findall(r"max_rel_err=(\S+) .*status=(\w+)", stdout)
        if len(reports) != self.repeat:
            return [f"{len(reports)} gradcheck report lines, expected {self.repeat}"]
        return [
            f"gradcheck reports max_rel_err={err} status={status}"
            for err, status in reports
            if status != "pass" or not float(err) <= 1e-4
        ]


class Evaluation:
    """Rounds of fid, latent, reconstruct and sample on a trained checkpoint;
    the operation is one round."""

    mode = "eval"
    warmup = 1
    checked_exit_codes = (0,)
    GRID = 64

    def __init__(self, images: int, train_steps: int, rounds: int):
        self.images = images
        self.train_steps = train_steps
        self.ops_per_process = rounds

    def prepare(self, work: Path, seed: int) -> None:
        from wwae import cli

        self.seed = seed
        self.data = _write_blob_idx(work, seed, self.images)
        values = dict(IMAGE, data_path=self.data, limit=self.images, steps=self.train_steps)
        values.update(seed=seed, eval_every=self.train_steps, out_dir=work / "trained")
        config = _write_config(work / "trained.cfg", values)
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["train", "--config", str(config)]) != 0:
                raise RuntimeError("training the evaluation checkpoint failed")
        self.ckpt = work / "trained" / "model.ckpt"

    def spec(self, run_dir: Path) -> dict:
        ckpt, data, seed = str(self.ckpt), str(self.data), str(self.seed)
        return {
            "rounds": self.ops_per_process,
            "commands": [
                ["fid", "--ckpt", ckpt, "--data", data, "--count", str(self.images), "--seed", seed],
                ["latent", "--ckpt", ckpt, "--data", data, "--out", str(run_dir / "latent.csv")],
                ["reconstruct", "--ckpt", ckpt, "--data", data, "--count", str(self.GRID),
                 "--out", str(run_dir / "recon.pgm")],
                ["sample", "--ckpt", ckpt, "--count", str(self.GRID), "--out", str(run_dir / "sample.pgm"),
                 "--seed", seed],
            ],
        }

    def check(self, run_dir: Path, stdout: str) -> list[str]:
        errors = []
        rounds = self.ops_per_process
        fids = re.findall(r"^desk_fid=(\S+)$", stdout, re.M)
        mus = re.findall(r"^latent_mu_norm=(\S+) ", stdout, re.M)
        rows = re.findall(r"latent\.csv rows=(\d+)$", stdout, re.M)
        if len(fids) != rounds or len(set(fids)) != 1 or len(mus) != rounds or len(set(mus)) != 1:
            return [f"expected {rounds} identical desk_fid and latent lines"]
        if rows != [str(self.images)] * rounds:
            errors.append(f"latent rows {rows}, expected {self.images}")

        weights, biases, ell = reference.read_decoder(self.ckpt)
        generated = reference.decode_images(weights, biases, reference.standard_normal(self.seed, self.images, ell))
        basis = reference.read_basis(self.ckpt.parent / "fid_basis.bin")
        real = reference.read_idx_images(self.data)[: self.images]
        want = reference.frechet_distance(real @ basis, generated @ basis)
        got = float(fids[0])
        if abs(got - want) > FID_TOL * max(1.0, abs(want)):
            errors.append(f"desk_fid {got!r}, NumPy Frechet distance {want!r}")

        with open(run_dir / "latent.csv") as fh:
            header = fh.readline().strip().split(",")
            codes = np.loadtxt(fh, delimiter=",", ndmin=2)
        if header != [f"z_{j + 1}" for j in range(ell)] + ["label"] or codes.shape != (self.images, ell + 1):
            errors.append(f"latent.csv has header {header} and shape {codes.shape}")
        else:
            norm = float(np.linalg.norm(codes[:, :ell].mean(axis=0)))
            if abs(norm - float(mus[0])) > 1e-9 * max(1.0, norm):
                errors.append(f"latent column means have norm {norm!r}, printed {mus[0]}")

        side = 28 * math.ceil(math.sqrt(self.GRID))
        for name, size in (("recon.pgm", (2 * side, side)), ("sample.pgm", (side, side))):
            w, h, pixels = reference.pgm_header(run_dir / name)
            if (w, h) != size or pixels != w * h:
                errors.append(f"{name} is {w}x{h} with {pixels} pixels, expected {size[0]}x{size[1]}")
        return errors


WORKLOADS = {
    "ring_w2": Training(RING, steps=400, eval_every=0),
    "image_w2": Training(IMAGE, steps=100, eval_every=50, images=2048),
    "eval_image": Evaluation(images=2048, train_steps=50, rounds=5),
    "gradcheck_mmd": Gradcheck(GRADCHECK, repeat=GRADCHECK_REPEAT),
}
