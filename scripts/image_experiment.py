"""End-to-end image run on the synthetic blob corpus: synthesize an IDX
dataset, train through the CLI, then score desk-FID against held-out
images and render a sample grid.

Usage:
    python scripts/image_experiment.py --steps 5000 --out blob_out
"""

import argparse
from pathlib import Path

from wwae import models
from wwae.checkpoint import load_checkpoint
from wwae.cli import main as cli
from wwae.data import Dataset, make_blob_images, write_idx_images, write_idx_labels
from wwae.metrics import DeskFid
from wwae.numerics import Rng


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train-size", type=int, default=4096)
    ap.add_argument("--held-size", type=int, default=2048)
    ap.add_argument("--steps", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="blob_out")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    full = make_blob_images(Rng(args.seed).split(3), args.train_size + args.held_size)
    train = Dataset(
        full.examples[: args.train_size], full.labels[: args.train_size], full.image_shape
    )
    held = full.examples[args.train_size :]
    images_path = out / "blobs-images-idx3"
    write_idx_images(images_path, train.examples, train.image_shape)
    write_idx_labels(out / "blobs-labels-idx1", train.labels)

    cfg_path = out / "train.cfg"
    cfg_path.write_text(
        "dataset = idx\n"
        f"data_path = {images_path}\n"
        f"limit = {args.train_size}\n"
        "latent_dim = 8\n"
        "enc_hidden = 256,64\n"
        "dec_hidden = 64,256\n"
        "regularizer = w2\n"
        "lambda = 1.0\n"
        "batch_size = 64\n"
        f"steps = {args.steps}\n"
        f"seed = {args.seed}\n"
        "eval_every = 1000\n"
        f"out_dir = {out / 'run'}\n"
    )
    rc = cli(["train", "--config", str(cfg_path)])
    if rc != 0:
        raise SystemExit(rc)

    state = load_checkpoint(out / "run" / "model.ckpt")
    generated = models.generate(state.model, Rng(args.seed).split(6), args.held_size)
    score = DeskFid(held, image_data=True).score(generated)
    mse = models.recon_error(held, models.reconstruct(state.model, held))
    print(f"held_out_desk_fid={score:.4f} held_out_mse={mse:.4f}")

    cli(["sample", "--ckpt", str(out / "run" / "model.ckpt"),
         "--count", "64", "--out", str(out / "samples.pgm")])


if __name__ == "__main__":
    main()
