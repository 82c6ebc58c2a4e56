"""Bit-exact checkpointing of the full training state.

Layout: an ASCII magic line, a one-line JSON header that `_header` renders
from the state, then the parameter and Adam moment vectors as raw
little-endian float64 blocks in a fixed order. The loader rebuilds the state
from the header's config, data width, step and RNG snapshots, and rejects a
header that differs from the one it renders for that state. Loading a
checkpoint and continuing training reproduces the uninterrupted run byte
for byte.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

from . import nn
from .config import config_from_dict, config_to_dict
from .images import atomic_open
from .models import TrainState, adam_state, arena_model, net_widths
from .numerics import Rng

MAGIC = "WWAECKPT 1"

# Order of the binary float64 blocks after the header line.
_BLOCKS = ("enc_params", "dec_params", "enc_m", "enc_v", "dec_m", "dec_v")


def _block_views(theta: np.ndarray, adam: nn.AdamState, n_enc: int) -> list[np.ndarray]:
    """The blocks in file order, as views of the enc || dec parameter and
    moment vectors: the per-network blocks predate the single vectors, and
    slicing keeps the files unchanged."""
    m, v = adam.m, adam.v
    return [theta[:n_enc], theta[n_enc:], m[:n_enc], v[:n_enc], m[n_enc:], v[n_enc:]]


def _net_dict(params: nn.MlpParams) -> dict:
    widths = params.widths
    return {"widths": widths, "activations": ["relu"] * (len(widths) - 2) + ["identity"]}


def _header(state: TrainState) -> dict:
    """The JSON header of a state's checkpoint. The two optimizer entries
    and the per-network blocks predate the single optimizer and vectors;
    the moment blocks are empty before the first optimizer step."""
    model, adam = state.model, state.adam
    blocks = _block_views(model.theta, adam, model.enc.n_params())
    settings = {
        key: getattr(adam, key)
        for key in ("lr", "beta1", "beta2", "eps", "decay_every", "decay_factor", "t")
    }
    return {
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


def save_checkpoint(path: str | Path, state: TrainState) -> None:
    header = MAGIC + "\n" + json.dumps(_header(state), sort_keys=True) + "\n"
    with atomic_open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for block in _block_views(state.model.theta, state.adam, state.model.enc.n_params()):
            fh.write(np.ascontiguousarray(block, dtype="<f8").data)


def _read(manifest: dict, key: str):
    if not isinstance(manifest, dict) or key not in manifest:
        raise ValueError(f"checkpoint header lacks {key}")
    return manifest[key]


def _state_from_header(manifest: dict) -> TrainState:
    """The state that a header's config, data width, step and RNG snapshots
    describe, its vectors allocated but unread. Adam makes one step per
    training step, so its counter is the step."""
    cfg = config_from_dict(_read(manifest, "config"))
    shape = _read(manifest, "image_shape")
    if shape is not None and (
        len(shape) != 2 or not all(type(s) is int and s > 0 for s in shape)
    ):
        raise ValueError("checkpoint image_shape must be null or two positive ints")
    data_dim = int(_read(manifest, "dec")["widths"][-1])
    if shape is not None and shape[0] * shape[1] != data_dim:
        raise ValueError(f"checkpoint image_shape {shape} does not fit {data_dim}-value rows")
    step = int(_read(manifest, "step"))
    if step < 0:
        raise ValueError(f"checkpoint step must be >= 0, got {step}")
    n = sum(nn.n_params(widths) for widths in net_widths(cfg, data_dim))
    adam = adam_state(cfg, t=step)
    if step > 0:  # the moments exist from the first optimizer step on
        adam.m, adam.v = np.empty(n), np.empty(n)
    return TrainState(
        config=cfg,
        model=arena_model(np.empty(n), cfg, data_dim, shape is not None),
        adam=adam,
        rng=Rng.from_state(_read(manifest, "rng")),
        data_rng=Rng.from_state(_read(manifest, "data_rng")),
        step=step,
        image_shape=tuple(shape) if shape else None,
    )


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
        text = fh.readline().decode("ascii")
        manifest = json.loads(text)
        try:
            state = _state_from_header(manifest)
        except (TypeError, KeyError, IndexError, AttributeError, MemoryError) as exc:
            raise ValueError(
                f"checkpoint header has a value of the wrong type or size ({exc!r})"
            ) from None
        # A header save_checkpoint wrote is the rendered one as text. Others are
        # compared key by key as JSON text, since in Python 16.0 == 16 and True == 1.
        rendered = _header(state)
        if text != json.dumps(rendered, sort_keys=True) + "\n":
            for key, value in rendered.items():
                stored = json.dumps(_read(manifest, key), sort_keys=True)
                expected = json.dumps(value, sort_keys=True)
                if stored != expected:
                    raise ValueError(
                        "checkpoint header values do not match networks of "
                        f"{state.model.enc.n_params()} and {state.model.dec.n_params()} "
                        f"parameters built from its config: {key} is {stored}, "
                        f"expected {expected}"
                    )

        left = os.fstat(fh.fileno()).st_size - fh.tell()
        blocks = _block_views(state.model.theta, state.adam, state.model.enc.n_params())
        for name, block in zip(_BLOCKS, blocks):
            if block.nbytes > left:
                raise ValueError(
                    f"checkpoint truncated: block {name!r} needs {block.nbytes} bytes, "
                    f"{left} left"
                )
            left -= block.nbytes
        if left:
            raise ValueError(f"checkpoint has {left} trailing bytes")
        for name, block in zip(_BLOCKS, blocks):
            if fh.readinto(block) != block.nbytes:
                raise ValueError(f"checkpoint truncated while reading block {name!r}")
    if sys.byteorder == "big":
        for block in blocks:
            block.byteswap(inplace=True)
    return state
