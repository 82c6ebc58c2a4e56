"""Bit-exact checkpointing of the full training state.

Layout: an ASCII magic line, a one-line JSON manifest (config, network
shapes, optimizer counters, RNG snapshots), then the parameter and Adam
moment vectors as raw little-endian float64 blocks in a fixed order.
Loading a checkpoint and continuing training reproduces the uninterrupted
run byte for byte.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

from . import nn
from .config import TrainConfig, config_from_dict, config_to_dict
from .images import atomic_open
from .models import TrainState, arena_model
from .numerics import Rng

MAGIC = "WWAECKPT 1"

# Order of the binary float64 blocks after the manifest line.
_BLOCKS = ("enc_params", "dec_params", "enc_m", "enc_v", "dec_m", "dec_v")
_HEADER_KEYS = (
    "adam_dec", "adam_enc", "blocks", "config", "data_rng", "dec", "enc",
    "image_shape", "latent_dim", "output_activation", "rng", "step",
)
# The optimizer settings and counter stored under adam_enc and adam_dec.
_ADAM_FIELDS = {
    "lr": float, "beta1": float, "beta2": float, "eps": float,
    "decay_every": int, "decay_factor": float, "t": int,
}


def _net_dict(params: nn.MlpParams) -> dict:
    return {"widths": params.widths, "activations": list(params.activations)}


def _net_shape(manifest: dict, key: str) -> tuple[list[int], list[str]]:
    """(widths, activations) of the network stored under `key`."""
    widths, acts = manifest[key]["widths"], manifest[key]["activations"]
    if not (
        isinstance(widths, list)
        and len(widths) >= 2
        and all(type(w) is int and w > 0 for w in widths)
        and isinstance(acts, list)
    ):
        raise ValueError(
            f"checkpoint {key} needs a list of positive int widths and a list of activations"
        )
    return widths, [str(a) for a in acts]


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
    settings = {key: getattr(adam, key) for key in _ADAM_FIELDS}
    manifest = {
        "config": config_to_dict(state.config),
        "step": state.step,
        "latent_dim": model.latent_dim,
        "output_activation": model.output_activation,
        "enc": _net_dict(model.enc),
        "dec": _net_dict(model.dec),
        "adam_enc": settings,
        "adam_dec": settings,
        "rng": state.rng.state(),
        "data_rng": state.data_rng.state(),
        "image_shape": list(state.image_shape) if state.image_shape else None,
        "blocks": [[name, int(block.size)] for name, block in zip(_BLOCKS, blocks)],
    }
    header = MAGIC + "\n" + json.dumps(manifest, sort_keys=True) + "\n"
    with atomic_open(path, "wb") as fh:
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


def _state_from_header(manifest: dict) -> tuple[TrainState, list[int]]:
    """The state a header describes, its vectors allocated but unread, and
    the float64 count of each block."""
    if manifest["adam_enc"] != manifest["adam_dec"]:
        raise ValueError("checkpoint has different encoder and decoder optimizer settings")
    cfg: TrainConfig = config_from_dict(manifest["config"])
    enc_shape, dec_shape = _net_shape(manifest, "enc"), _net_shape(manifest, "dec")
    n_enc, n_dec = nn.n_params(enc_shape[0]), nn.n_params(dec_shape[0])
    sizes = _block_sizes(manifest, n_enc, n_dec)
    model = arena_model(
        np.empty(n_enc + n_dec),
        enc_shape,
        dec_shape,
        int(manifest["latent_dim"]),
        str(manifest["output_activation"]),
    )
    settings = manifest["adam_enc"]
    adam = nn.AdamState(**{key: kind(settings[key]) for key, kind in _ADAM_FIELDS.items()})
    if sizes[2]:  # the moments exist from the first optimizer step on
        adam.m, adam.v = np.empty(n_enc + n_dec), np.empty(n_enc + n_dec)
    shape = manifest["image_shape"]
    if shape is not None and (
        len(shape) != 2 or not all(type(s) is int and s > 0 for s in shape)
    ):
        raise ValueError("checkpoint image_shape must be null or two positive ints")
    state = TrainState(
        config=cfg,
        model=model,
        adam=adam,
        rng=Rng.from_state(manifest["rng"]),
        data_rng=Rng.from_state(manifest["data_rng"]),
        step=int(manifest["step"]),
        image_shape=tuple(shape) if shape else None,
    )
    return state, sizes


def load_checkpoint(path: str | Path) -> TrainState:
    """Validate the header and the file size, then read each block once,
    straight into the parameter and moment vectors."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        magic = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        if magic != MAGIC:
            raise ValueError(f"not a checkpoint file (bad magic line {magic!r})")
        manifest = json.loads(fh.readline().decode("ascii"))
        missing = [k for k in _HEADER_KEYS if not isinstance(manifest, dict) or k not in manifest]
        if missing:
            raise ValueError(f"checkpoint header lacks {', '.join(missing)}")
        try:
            state, sizes = _state_from_header(manifest)
        except (TypeError, KeyError, IndexError, AttributeError) as exc:
            raise ValueError(
                f"checkpoint header has a value of the wrong type ({exc!r})"
            ) from None

        left = os.fstat(fh.fileno()).st_size - fh.tell()
        for name, count in zip(_BLOCKS, sizes):
            if count * 8 > left:
                raise ValueError(
                    f"checkpoint truncated: block {name!r} needs {count * 8} bytes, "
                    f"{left} left"
                )
            left -= count * 8
        if left:
            raise ValueError(f"checkpoint has {left} trailing bytes")
        blocks = _block_views(state.model.theta, state.adam, sizes[0])
        for name, block in zip(_BLOCKS, blocks):
            if fh.readinto(block) != block.nbytes:
                raise ValueError(f"checkpoint truncated while reading block {name!r}")
    if sys.byteorder == "big":
        for block in blocks:
            block.byteswap(inplace=True)
    return state
