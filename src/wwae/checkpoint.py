"""Bit-exact checkpointing of the full training state.

Layout: an ASCII magic line, a one-line JSON manifest (config, network
shapes, optimizer counters, RNG snapshots), then the parameter and Adam
moment vectors as raw little-endian float64 blocks in a fixed order.
Loading a checkpoint and continuing training reproduces the uninterrupted
run byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import nn
from .config import TrainConfig, config_from_dict, config_to_dict
from .models import TrainState, arena_model
from .numerics import Rng

MAGIC = "WWAECKPT 1"

# Order of the binary float64 blocks after the manifest line.
_BLOCKS = ("enc_params", "dec_params", "enc_m", "enc_v", "dec_m", "dec_v")
_HEADER_KEYS = (
    "adam_dec", "adam_enc", "blocks", "config", "data_rng", "dec", "enc",
    "image_shape", "latent_dim", "output_activation", "rng", "step",
)


def _adam_dict(state: nn.AdamState) -> dict:
    return {
        "lr": state.lr,
        "beta1": state.beta1,
        "beta2": state.beta2,
        "eps": state.eps,
        "decay_every": state.decay_every,
        "decay_factor": state.decay_factor,
        "t": state.t,
    }


def _adam_from_dict(d: dict) -> nn.AdamState:
    return nn.AdamState(
        lr=float(d["lr"]),
        beta1=float(d["beta1"]),
        beta2=float(d["beta2"]),
        eps=float(d["eps"]),
        decay_every=int(d["decay_every"]),
        decay_factor=float(d["decay_factor"]),
        t=int(d["t"]),
    )


def _net_dict(params: nn.MlpParams) -> dict:
    return {"widths": params.widths, "activations": list(params.activations)}


def _net_shape(d: dict) -> tuple[list[int], list[str]]:
    return [int(w) for w in d["widths"]], [str(a) for a in d["activations"]]


def _block_views(theta: np.ndarray, adam: nn.AdamState, n_enc: int) -> list[np.ndarray]:
    """The blocks in file order, as views of the enc || dec parameter and
    moment vectors: the per-network blocks predate the single vectors, and
    slicing keeps the files unchanged."""
    m, v = adam.m, adam.v
    return [theta[:n_enc], theta[n_enc:], m[:n_enc], v[:n_enc], m[n_enc:], v[n_enc:]]


def save_checkpoint(path: str | Path, state: TrainState) -> None:
    path = Path(path)
    model, adam = state.model, state.adam
    blocks = _block_views(model.theta, adam, model.enc.n_params())
    manifest = {
        "config": config_to_dict(state.config),
        "step": state.step,
        "latent_dim": model.latent_dim,
        "output_activation": model.output_activation,
        "enc": _net_dict(model.enc),
        "dec": _net_dict(model.dec),
        "adam_enc": _adam_dict(adam),
        "adam_dec": _adam_dict(adam),
        "rng": state.rng.state(),
        "data_rng": state.data_rng.state(),
        "image_shape": list(state.image_shape) if state.image_shape else None,
        "blocks": [[name, int(block.size)] for name, block in zip(_BLOCKS, blocks)],
    }
    header = MAGIC + "\n" + json.dumps(manifest, sort_keys=True) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8").data)


def _block_sizes(manifest: dict, n_enc: int, n_dec: int) -> list[int]:
    """The float64 count of each block, checked against the network widths.

    The moment blocks are empty before the first optimizer step.
    """
    for moments in ([0, 0, 0, 0], [n_enc, n_enc, n_dec, n_dec]):
        sizes = [n_enc, n_dec, *moments]
        if manifest["blocks"] == [[name, size] for name, size in zip(_BLOCKS, sizes)]:
            return sizes
    raise ValueError(
        f"checkpoint blocks {manifest['blocks']!r} do not match networks of "
        f"{n_enc} and {n_dec} parameters"
    )


def load_checkpoint(path: str | Path) -> TrainState:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        magic = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        if magic != MAGIC:
            raise ValueError(f"not a checkpoint file (bad magic line {magic!r})")
        manifest = json.loads(fh.readline().decode("ascii"))
        raw = fh.read()
    missing = [k for k in _HEADER_KEYS if not isinstance(manifest, dict) or k not in manifest]
    if missing:
        raise ValueError(f"checkpoint header lacks {', '.join(missing)}")
    if manifest["adam_enc"] != manifest["adam_dec"]:
        raise ValueError("checkpoint has different encoder and decoder optimizer settings")

    cfg: TrainConfig = config_from_dict(manifest["config"])
    enc_shape, dec_shape = _net_shape(manifest["enc"]), _net_shape(manifest["dec"])
    n_enc, n_dec = nn.n_params(enc_shape[0]), nn.n_params(dec_shape[0])
    sizes = _block_sizes(manifest, n_enc, n_dec)
    model = arena_model(
        np.empty(n_enc + n_dec),
        enc_shape,
        dec_shape,
        int(manifest["latent_dim"]),
        str(manifest["output_activation"]),
    )
    adam = _adam_from_dict(manifest["adam_enc"])
    if sizes[2]:  # the moments exist from the first optimizer step on
        adam.m, adam.v = np.empty(n_enc + n_dec), np.empty(n_enc + n_dec)
    pos = 0
    for name, count, target in zip(_BLOCKS, sizes, _block_views(model.theta, adam, n_enc)):
        nbytes = count * 8
        if pos + nbytes > len(raw):
            raise ValueError(
                f"checkpoint truncated: block {name!r} needs {nbytes} bytes, "
                f"{len(raw) - pos} left"
            )
        target[...] = np.frombuffer(raw, dtype="<f8", count=count, offset=pos)
        pos += nbytes
    if pos != len(raw):
        raise ValueError(f"checkpoint has {len(raw) - pos} trailing bytes")

    shape = manifest["image_shape"]
    return TrainState(
        config=cfg,
        model=model,
        adam=adam,
        rng=Rng.from_state(manifest["rng"]),
        data_rng=Rng.from_state(manifest["data_rng"]),
        step=int(manifest["step"]),
        image_shape=(int(shape[0]), int(shape[1])) if shape else None,
    )
