"""Train an auto-encoder on the 8-mode Gaussian ring through the CLI, then
report how well the aggregated posterior matches the prior and how many
modes the decoder actually generates.

Usage:
    python scripts/ring_experiment.py --regularizer w2 --lam 10 --steps 2000
"""

import argparse
import time
from pathlib import Path

from wwae import metrics, models
from wwae.checkpoint import load_checkpoint
from wwae.cli import main as cli
from wwae.config import TrainConfig, config_lines
from wwae.data import load_dataset, ring_centers
from wwae.images import write_latent_csv, write_points_csv
from wwae.metrics import latent_report, latent_summary
from wwae.numerics import Rng


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--regularizer", default="w2", choices=["w2", "kl", "mmd"])
    ap.add_argument("--w2-variant", default="root_product", choices=["root_product", "bures"])
    ap.add_argument("--lam", type=float, default=10.0)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=13)
    ap.add_argument("--out", default="ring_out")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = TrainConfig(
        dataset="ring",
        limit=8192,
        latent_dim=2,
        enc_hidden=(24,) * 7,
        dec_hidden=(24,) * 7,
        regularizer=args.regularizer,
        w2_variant=args.w2_variant,
        lam=args.lam,
        prior_stats="exact",
        batch_size=256,
        steps=args.steps,
        seed=args.seed,
        lr=0.01,
        out_dir=str(out / "run"),
    ).validate()
    cfg_path = out / "train.cfg"
    cfg_path.write_text("\n".join(config_lines(cfg)) + "\n")

    started = time.monotonic()
    rc = cli(["train", "--config", str(cfg_path)])
    if rc != 0:
        raise SystemExit(rc)

    state = load_checkpoint(out / "run" / "model.ckpt")
    root = Rng(cfg.seed)
    ds = load_dataset(cfg, root.split(3))
    rep = latent_report(state.model.enc, ds, root.split(5), 4096)
    mu_norm, cov_dist = latent_summary(rep.stats)
    samples = models.generate(state.model, root.split(6), 4096)
    covered, hq = metrics.mode_coverage(samples, ring_centers(), max_dist=0.3)

    write_points_csv(out / "generated.csv", samples)
    write_latent_csv(out / "latent.csv", rep.codes, rep.labels)
    print(f"latent_mu_norm={mu_norm:.4f} latent_cov_dist={cov_dist:.4f}")
    print(f"mode_coverage={covered}/8 high_quality={hq:.4f}")
    print(f"wrote {out}/generated.csv and {out}/latent.csv "
          f"({time.monotonic() - started:.1f}s)")


if __name__ == "__main__":
    main()
