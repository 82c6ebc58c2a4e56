"""The BLAS-thread boundary of byte-identical reruns.

`scripts/artifact_digest.py` runs its command matrix under
OPENBLAS_NUM_THREADS=1 and =2. Products with a 784-long reduction (the first
encoder layer, the PCA projection, the pixel-covariance eigh) may round
differently under the two, so the image-path files below may differ. They
need not: on one CPU both runs take the same path. Every other line must be
identical: the ring runs and their evaluations, every gradcheck line, the
image sample PGMs and the feature-mode fid.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
IMAGE_RUNS = ("w2_sampled", "w2_exact", "mmd", "kl")
IMAGE_FILES = ("fid_basis.bin", "manifest.txt", "model.ckpt")
IMAGE_STDOUT = ("fid_img", "fid_img_data", "latent_img", "reconstruct_img", "reconstruct_img_data")
MAY_DIFFER = {
    *(f"img_{run}/{name}" for run in IMAGE_RUNS for name in IMAGE_FILES),
    "latent_img.csv",
    *(f"stdout/{name}" for name in IMAGE_STDOUT),
    *(f"stdout/train_img_{run}" for run in IMAGE_RUNS),
}


def digest(out: Path, threads: int) -> dict[str, str]:
    """{path: sha256} of the digest's listing, run under `threads` BLAS threads."""
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifact_digest.py"), str(out)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return {name: sha for sha, name in (line.split("  ", 1) for line in proc.stdout.splitlines())}


@pytest.mark.slow
def test_only_image_path_artifacts_depend_on_blas_threads(tmp_path):
    one, two = digest(tmp_path / "one", 1), digest(tmp_path / "two", 2)
    assert one.keys() == two.keys()
    assert len(MAY_DIFFER) == 22 and MAY_DIFFER <= one.keys()
    differ = {name for name in one if one[name] != two[name]}
    assert differ <= MAY_DIFFER, sorted(differ - MAY_DIFFER)
