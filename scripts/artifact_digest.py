"""Run a fixed matrix of `wwae` commands in OUT and print `sha256  name` for
every file they leave there, including each command's stdout.

The matrix:
  - the golden ring config of tests/test_cli.py (500 steps);
  - 40-step runs on synthetic blob images in IDX files, one per
    regularizer setting: w2 sampled (root_product), w2 exact (bures), mmd
    and kl, each with in-run desk-FID and sample grids every 20 steps;
  - fid (with and without --data), latent, reconstruct (with and without
    --data) and sample on the w2 sampled image checkpoint; latent, sample
    and fid of two feature files on the ring checkpoint;
  - gradcheck on ring configs with two hidden layers per network, for
    every regularizer setting.

All paths are relative to OUT, and `wall=` timings are stripped from
stdout, so two checkouts whose artifacts have the same bits print the same
lines: run it in each and diff the listings. Each command's stdout, stderr
and exit code are kept in OUT/stdout/.

Usage:
    PYTHONPATH=src python scripts/artifact_digest.py OUT
"""

import argparse
import contextlib
import hashlib
import io
import os
import re
from pathlib import Path

from wwae.cli import main as cli
from wwae.data import make_blob_images, write_idx_images, write_idx_labels
from wwae.numerics import Rng

GOLDEN_RING = {
    "dataset": "ring", "limit": 2048, "latent_dim": 2, "enc_hidden": "16",
    "dec_hidden": "16", "regularizer": "w2", "lambda": 1.0, "batch_size": 64,
    "steps": 500, "seed": 1,
}
BLOB_IMAGES = 512
IMAGE = {
    "dataset": "idx", "data_path": "blobs-images-idx3", "limit": BLOB_IMAGES,
    "latent_dim": 8, "enc_hidden": "256,64", "dec_hidden": "64,256",
    "lambda": 1.0, "batch_size": 64, "steps": 40, "decay_every": 15,
    "eval_every": 20, "seed": 1,
}
GRADCHECK_RING = {
    "dataset": "ring", "limit": 64, "latent_dim": 2, "enc_hidden": "6,5",
    "dec_hidden": "5,6", "lambda": 1.0, "batch_size": 8, "seed": 2,
}
REGULARIZERS = {
    "w2_sampled": {"regularizer": "w2", "w2_variant": "root_product", "prior_stats": "sampled"},
    "w2_exact": {"regularizer": "w2", "w2_variant": "bures", "prior_stats": "exact"},
    "w2_sampled_bures": {"regularizer": "w2", "w2_variant": "bures", "prior_stats": "sampled"},
    "w2_exact_root": {"regularizer": "w2", "w2_variant": "root_product", "prior_stats": "exact"},
    "mmd": {"regularizer": "mmd"},
    "kl": {"regularizer": "kl"},
}
IMAGE_RUNS = ("w2_sampled", "w2_exact", "mmd", "kl")


def write_config(name: str, values: dict) -> str:
    Path(name).write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return name


def run(name: str, argv: list[str]) -> None:
    """Run one command in this process; keep its output without timings."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli(argv)
    text = re.sub(r" wall=\S+", "", buf.getvalue())
    Path("stdout", name).write_text(f"$ wwae {' '.join(argv)}\n{text}exit={rc}\n")


def main() -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    ap.add_argument("out", help="directory to run in; made if absent, must be empty")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"error: {out} is not empty")
    os.chdir(out)
    Path("stdout").mkdir()

    ring_cfg = write_config("ring.cfg", {**GOLDEN_RING, "out_dir": "ring"})
    run("train_ring", ["train", "--config", ring_cfg])
    blobs = make_blob_images(Rng(0), BLOB_IMAGES)
    write_idx_images("blobs-images-idx3", blobs.examples, blobs.image_shape)
    write_idx_labels("blobs-labels-idx1", blobs.labels)
    for name in IMAGE_RUNS:
        values = {**IMAGE, **REGULARIZERS[name], "out_dir": f"img_{name}"}
        run(f"train_img_{name}", ["train", "--config", write_config(f"img_{name}.cfg", values)])

    img = ["--ckpt", "img_w2_sampled/model.ckpt"]
    data = ["--data", "blobs-images-idx3"]
    run("fid_img", ["fid", *img, "--count", "200", "--seed", "3"])
    run("fid_img_data", ["fid", *img, *data, "--count", "200", "--seed", "3"])
    run("latent_img", ["latent", *img, "--out", "latent_img.csv"])
    run("reconstruct_img", ["reconstruct", *img, "--count", "16", "--out", "recon_img.pgm"])
    run("reconstruct_img_data",
        ["reconstruct", *img, *data, "--count", "16", "--out", "recon_data.pgm"])
    run("sample_img", ["sample", *img, "--count", "64", "--seed", "4", "--out", "sample_img.pgm"])
    ring = ["--ckpt", "ring/model.ckpt"]
    run("latent_ring", ["latent", *ring, "--out", "latent_ring.csv"])
    run("sample_ring_a", ["sample", *ring, "--count", "300", "--seed", "5", "--out", "ring_a.csv"])
    run("sample_ring_b", ["sample", *ring, "--count", "300", "--seed", "6", "--out", "ring_b.csv"])
    run("fid_features", ["fid", "--features-a", "ring_a.csv", "--features-b", "ring_b.csv"])

    for name, reg in REGULARIZERS.items():
        cfg = write_config(f"gradcheck_{name}.cfg", {**GRADCHECK_RING, **reg})
        run(f"gradcheck_{name}", ["gradcheck", "--config", cfg])

    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")


if __name__ == "__main__":
    main()
