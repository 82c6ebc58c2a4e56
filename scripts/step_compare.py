"""Time `models.train_step` of two source trees in one process, in
alternating blocks, and check that both trees train to the same bits.

Each tree's `wwae` is imported in turn from its `src` directory (the
`sys.modules` entries are purged between the two imports, so each side keeps
its own modules), and each builds a training state from the config of a
perfbench workload: the `RING` or `IMAGE` dict of `perfbench/workloads.py`.
Both sides train on the same mini-batches. Block k runs N steps on each
side, A first when k is even and B first when k is odd, so host drift
falls on both sides alike. After every block the two `theta` vectors must
be byte-identical; if they differ, the script says so and exits 1.

Printed: each block's median step time per side, the median over blocks
of the relative change B/A - 1, and the number of blocks B won. Nothing is
written to disk.

Usage:
    python scripts/step_compare.py SRC_A SRC_B --workload ring_w2 --blocks 20
"""

import argparse
import importlib
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# The perfbench workloads use 2048 blob images; rows are built in memory
# with the same chunked draws and the IDX file's byte quantization.
IMAGE_ROWS, BLOB_CHUNK = 2048, 256
WARMUP = 10  # untimed steps per side before the first block, as in perfbench


def workload_config(name: str, seed: int) -> str:
    """The workload's training config as `key = value` lines."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
    base = {"ring_w2": workloads.RING, "image_w2": workloads.IMAGE}[name]
    values = dict(base, seed=seed)
    if name == "image_w2":
        values.update(data_path="in-memory", limit=IMAGE_ROWS)
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def load_side(src: Path, config_text: str):
    """Import the `wwae` under `src` and build a training state and batch
    stream from the config; returns its `train_step`, the state and the
    stream. The tree's modules leave `sys.modules` again."""
    if not (src / "wwae" / "__init__.py").is_file():
        raise SystemExit(f"error: {src} holds no wwae package")
    sys.path.insert(0, str(src))
    try:
        config = importlib.import_module("wwae.config")
        data = importlib.import_module("wwae.data")
        images = importlib.import_module("wwae.images")
        models = importlib.import_module("wwae.models")
        numerics = importlib.import_module("wwae.numerics")
    finally:
        sys.path.pop(0)
        for key in [k for k in sys.modules if k == "wwae" or k.startswith("wwae.")]:
            del sys.modules[key]
    cfg = config.parse_config_text(config_text)
    root = numerics.Rng(cfg.seed)
    if cfg.dataset == "ring":
        dataset = data.load_dataset(cfg, root.split(3))
    else:
        parts = [
            data.make_blob_images(root.split(i), BLOB_CHUNK)
            for i in range(IMAGE_ROWS // BLOB_CHUNK)
        ]
        pixels = images.to_bytes_image(np.concatenate([p.examples for p in parts]))
        dataset = data.Dataset(np.divide(pixels, 255.0), None, parts[0].image_shape)
    state = models.init_train_state(cfg, dataset.dim, dataset.image_shape)
    return models.train_step, state, data.batches(dataset, cfg.batch_size, state.data_rng)


def run_block(side, steps: int) -> float:
    """Median wall time of `steps` train steps, in microseconds."""
    train_step, state, stream = side
    times = []
    for _ in range(steps):
        x = next(stream)
        start = time.perf_counter()
        train_step(state, x)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src_a", type=Path, help="source tree A (the directory holding wwae/)")
    ap.add_argument("src_b", type=Path, help="source tree B")
    ap.add_argument("--workload", choices=("ring_w2", "image_w2"), default="ring_w2")
    ap.add_argument("--blocks", type=int, default=20)
    ap.add_argument("--steps", type=int, default=200, help="train steps per side per block")
    ap.add_argument("--seed", type=int, default=77)
    args = ap.parse_args(argv)
    if args.blocks < 1 or args.steps < 1:
        ap.error("--blocks and --steps must be positive")

    text = workload_config(args.workload, args.seed)
    sides = [load_side(src, text) for src in (args.src_a, args.src_b)]
    for side in sides:
        run_block(side, WARMUP)
    print(f"workload={args.workload} blocks={args.blocks} steps={args.steps} seed={args.seed}")
    print(f"{'block':>5} {'A_us':>10} {'B_us':>10} {'change':>8}")
    changes = []
    for k in range(args.blocks):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        medians = [0.0, 0.0]
        for i in order:
            medians[i] = run_block(sides[i], args.steps)
        change = medians[1] / medians[0] - 1.0
        changes.append(change)
        print(f"{k:>5} {medians[0]:>10.1f} {medians[1]:>10.1f} {100 * change:>+7.2f}%")
        if sides[0][1].model.theta.tobytes() != sides[1][1].model.theta.tobytes():
            print(f"theta differs after block {k}")
            return 1
    won = sum(c < 0 for c in changes)
    print(f"median_change={100 * statistics.median(changes):+.2f}% b_won={won}/{args.blocks}")
    print("theta identical after every block")
    return 0


if __name__ == "__main__":
    sys.exit(main())
