"""Command-line surface: train, sample, reconstruct, fid, gradcheck, latent.

Every command is deterministic under a fixed config and seed; repeated
invocations write byte-identical artifacts. Wall-clock timings therefore go
to stdout only, never into files.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import data, gradcheck, images, metrics, models
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig, config_lines, load_config
from .models import TrainState, TrainingDiverged
from .numerics import Rng

SAMPLE_GRID_COUNT = 64
FID_EVAL_CAP = 10_000  # reference-set size for training-time desk-FID

CHECKPOINT_NAME = "model.ckpt"
MANIFEST_NAME = "manifest.txt"
BASIS_NAME = "fid_basis.bin"

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _write_sample_artifact(
    state: TrainState, rng: Rng, out: Path, count: int
) -> Path:
    samples = models.generate(state.model, rng, count)
    if state.image_shape is not None:
        images.write_pgm(out, images.tile_grid(samples, state.image_shape))
    else:
        images.write_points_csv(out, samples)
    return out


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    root = Rng(cfg.seed)
    dataset = data.load_dataset(cfg, root.split(3))
    state = models.init_train_state(cfg, dataset.dim, dataset.image_shape)
    stream = data.batches(dataset, cfg.batch_size, state.data_rng)
    out_dir = Path(cfg.out_dir)  # made only once the data loads
    out_dir.mkdir(parents=True, exist_ok=True)
    # An earlier run's files go, so none is left beside this run's; others stay.
    earlier = [CHECKPOINT_NAME, CHECKPOINT_NAME + ".diverged", BASIS_NAME]
    for path in [*(out_dir / name for name in earlier), *out_dir.glob("samples_step*")]:
        path.unlink(missing_ok=True)

    manifest = ["# config", *config_lines(cfg), "# log"]
    log_every = cfg.eval_every if cfg.eval_every > 0 else 100
    desk_fid = None
    if cfg.eval_every > 0:
        eval_count = min(dataset.n, FID_EVAL_CAP)
        # Fitted on this run's data: a basis in out_dir may come from other data.
        desk_fid = metrics.DeskFid(
            dataset.examples[:eval_count], dataset.image_shape is not None
        )
        if desk_fid.basis is not None:
            metrics.save_basis(out_dir / BASIS_NAME, desk_fid.basis)
    eval_base = root.split(4)
    fids = []  # (desk_fid, step) of each evaluation

    started = time.monotonic()
    parts, diverged = None, None
    try:
        while state.step < cfg.steps:
            parts = models.train_step(state, next(stream))
            step, last = state.step, state.step == cfg.steps
            if step % log_every == 0 or last:
                line = (
                    f"step={step} total={parts.total!r} recon={parts.recon!r} "
                    f"reg={parts.reg!r} lr={cfg.lr_at(step - 1)!r}"
                )
                manifest.append(line)
                print(f"{line} wall={time.monotonic() - started:.1f}s")
            if desk_fid is not None and (step % cfg.eval_every == 0 or last):
                models.check_finite(state)
                step_rng = eval_base.split(step)
                score = desk_fid.score(models.generate(state.model, step_rng.split(0), eval_count))
                fids.append((score, step))
                manifest.append(f"step={step} desk_fid={score!r}")
                print(f"step={step} desk_fid={score!r}  ({desk_fid.note})")
                ext = ".pgm" if state.image_shape is not None else ".csv"
                out = out_dir / f"samples_step{step:06d}{ext}"
                _write_sample_artifact(state, step_rng.split(1), out, SAMPLE_GRID_COUNT)
        models.check_finite(state)  # no loss has seen the last update
        final = [f"final_step={state.step}"]
        if parts is not None:
            final.append(
                f"final_total={parts.total!r} final_recon={parts.recon!r} final_reg={parts.reg!r}"
            )
        if fids:
            best, best_step = min(fids)  # equal scores go to the earliest step
            final.append(f"fid_final={fids[-1][0]!r} fid_best={best!r} fid_best_step={best_step}")
    except TrainingDiverged as exc:
        diverged, final = exc, [f"diverged_at_step={exc.step}"]

    # However the run ended: one checkpoint, one manifest, one closing line.
    suffix = "" if diverged is None else ".diverged"
    save_checkpoint(out_dir / (CHECKPOINT_NAME + suffix), state)
    with images.atomic_open(out_dir / MANIFEST_NAME) as fh:
        fh.write("\n".join([*manifest, "# final", *final]) + "\n")
    if diverged is not None:
        raise diverged
    print(f"done steps={state.step} out={out_dir} wall={time.monotonic() - started:.1f}s")
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError(f"count must be positive, got {args.count}")
    state = load_checkpoint(args.ckpt)
    rng = Rng(args.seed)
    out = _write_sample_artifact(state, rng, Path(args.out), args.count)
    print(f"wrote {out} count={args.count}")
    return 0


def _dataset_for(
    state: TrainState, data_path: Optional[str], limit: Optional[int] = None
) -> data.Dataset:
    """The first `limit` rows (all when None) of an explicit IDX path, else of
    the training set, as `data.load_dataset` reads it."""
    if data_path:
        return data.load_idx(data_path, data.derive_labels_path(data_path), limit)
    return data.load_dataset(state.config, Rng(state.config.seed).split(3), limit)


def cmd_reconstruct(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError(f"count must be positive, got {args.count}")
    state = load_checkpoint(args.ckpt)
    x = _dataset_for(state, args.data, args.count).examples[: args.count]
    count = x.shape[0]
    x_hat = models.reconstruct(state.model, x)
    err = models.recon_error(x, x_hat)
    if state.image_shape is not None:
        images.write_pgm(
            args.out, images.pair_grid(x, x_hat, state.image_shape)
        )
    else:
        images.write_points_csv(args.out, np.hstack([x, x_hat]))
    print(f"wrote {args.out} count={count} recon={err!r}")
    return 0


def cmd_fid(args: argparse.Namespace) -> int:
    if args.features_a or args.features_b:
        if not (args.features_a and args.features_b):
            raise ValueError("feature mode needs both --features-a and --features-b")
        fa = metrics.read_features_csv(args.features_a)
        fb = metrics.read_features_csv(args.features_b)
        print(f"desk_fid={metrics.fid(fa, fb)!r}")  # in the features' own space
        return 0
    if not args.ckpt:
        raise ValueError("need either --features-a/--features-b or --ckpt (+ optional --data)")
    if args.count < 2:
        raise ValueError(f"count must be at least 2, got {args.count}")
    state = load_checkpoint(args.ckpt)
    real = _dataset_for(state, args.data, args.count).examples[: args.count]
    if real.shape[0] < 2:
        raise ValueError(f"desk-FID needs at least 2 data rows, found {real.shape[0]}")
    # The basis written by `wwae train` when there is one; otherwise one
    # fitted on these rows and kept in memory: this command writes nothing.
    basis_path = Path(args.ckpt).parent / BASIS_NAME
    basis = None
    if state.image_shape is not None and basis_path.is_file():
        basis = metrics.load_basis(basis_path)
    desk_fid = metrics.DeskFid(real, state.image_shape is not None, basis)
    generated = models.generate(state.model, Rng(args.seed), real.shape[0])
    score = desk_fid.score(generated)
    print(f"# {desk_fid.note}")
    print(f"desk_fid={score!r}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    result = gradcheck.check_config(cfg)
    print(result.report_line())
    return 0 if result.passed else 1


def cmd_latent(args: argparse.Namespace) -> int:
    state = load_checkpoint(args.ckpt)
    dataset = _dataset_for(state, args.data)
    rng = Rng(state.config.seed).split(5)
    report = metrics.latent_report(state.model.enc, dataset, rng, dataset.n)
    images.write_latent_csv(args.out, report.codes, report.labels)
    mu_norm, cov_dist = metrics.latent_summary(report.stats)
    print(f"latent_mu_norm={mu_norm!r} latent_cov_dist={cov_dist!r}")
    print(f"wrote {args.out} rows={report.codes.shape[0]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wwae",
        description=(
            "Wasserstein-Wasserstein auto-encoder laboratory: train small "
            "generative models with closed-form Gaussian W2 latent "
            "regularization (or KL / MMD baselines) and evaluate them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run a training job from a config file")
    p.add_argument("--config", required=True, help="path to key = value config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="decode prior samples from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--count", type=int, default=SAMPLE_GRID_COUNT)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("reconstruct", help="encode/decode data through a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", default=None, help="IDX images path (default: training data)")
    p.add_argument("--count", type=int, default=SAMPLE_GRID_COUNT)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("fid", help="desk-FID between feature sets or model vs data")
    p.add_argument("--features-a", default=None)
    p.add_argument("--features-b", default=None)
    p.add_argument("--ckpt", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fid)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("latent", help="dump latent codes and posterior statistics")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_latent)
    return parser


@functools.cache
def _keep_freed_heap() -> None:
    """Keep freed memory in the process heap instead of handing it back.

    Under glibc's default thresholds, multi-megabyte temporaries (a step's
    gradient, a checkpoint's payload) are mapped, unmapped and faulted in
    again, at a cost that depends on the heap layout. With these settings
    up to 1 GiB of free heap stays untrimmed and blocks below 32 MiB come
    from the heap. Without glibc this does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def main(argv: Optional[list[str]] = None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
