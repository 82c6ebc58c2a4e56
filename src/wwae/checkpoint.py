"""Bit-exact checkpointing of the full training state.

A checkpoint is a framed file (see `images`) whose JSON header `_header`
renders from the state, and whose blocks are the parameter and Adam moment
vectors in a fixed order. The header keeps the config as its config-file
lines (`config.config_lines`). The loader parses them with the config-file
parser, rebuilds the state from that config, the data width, the step and
the RNG snapshots, and rejects a header that differs from the one it renders
for that state. Loading a checkpoint and continuing training reproduces the
uninterrupted run byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import nn
from .config import config_lines, parse_config_text
from .images import Blocks, read_framed, write_framed
from .models import TrainState, arena_model
from .numerics import Rng

MAGIC = "WWAECKPT 1"

# Order of the binary float64 blocks after the header line.
_BLOCKS = ("enc_params", "dec_params", "enc_m", "enc_v", "dec_m", "dec_v")


def _blocks(state: TrainState) -> Blocks:
    """The named blocks in file order, as views of the enc || dec parameter
    and moment vectors: the per-network blocks predate the single vectors,
    and slicing keeps the files unchanged."""
    theta, m, v, n = state.model.theta, state.adam.m, state.adam.v, state.model.enc.flat.size
    return list(zip(_BLOCKS, [theta[:n], theta[n:], m[:n], v[:n], m[n:], v[n:]]))


def _header(state: TrainState) -> dict:
    """The JSON header of a state's checkpoint. The per-network blocks
    predate the single vectors; the moment blocks are empty before the
    first optimizer step."""
    model = state.model
    return {
        "config": config_lines(state.config),
        "step": state.step,
        "latent_dim": model.latent_dim,
        "output_activation": model.output_activation,
        "enc": {"widths": model.enc.widths},
        "dec": {"widths": model.dec.widths},
        "rng": state.rng.state(),
        "data_rng": state.data_rng.state(),
        "image_shape": list(state.image_shape) if state.image_shape else None,
        "blocks": [[name, int(block.size)] for name, block in _blocks(state)],
    }


def save_checkpoint(path: str | Path, state: TrainState) -> None:
    write_framed(path, MAGIC, json.dumps(_header(state), sort_keys=True), _blocks(state))


def _read(manifest: dict, key: str):
    if not isinstance(manifest, dict) or key not in manifest:
        raise ValueError(f"checkpoint header lacks {key}")
    return manifest[key]


def _layout(manifest, text: str) -> tuple[TrainState, Blocks]:
    """The state that a header's config, data width, step and RNG snapshots
    describe, once the header is the one `_header` renders for it, and its
    blocks. The step is Adam's counter; its settings stay in the config."""
    lines = _read(manifest, "config")
    if type(lines) is not list or not all(type(line) is str for line in lines):
        raise ValueError("checkpoint config must be a list of 'key = value' lines")
    try:
        cfg = parse_config_text("\n".join(lines))
    except ValueError as exc:
        raise ValueError(f"checkpoint config: {exc}") from None
    shape = _read(manifest, "image_shape")
    if shape is not None and (
        len(shape) != 2 or not all(type(s) is int and s > 0 for s in shape)
    ):
        raise ValueError("checkpoint image_shape must be null or two positive ints")
    data_dim = int(_read(manifest, "dec")["widths"][-1])
    if shape is not None and shape[0] * shape[1] != data_dim:
        raise ValueError(f"checkpoint image_shape {shape} does not fit {data_dim}-value rows")
    step = _read(manifest, "step")
    if type(step) is not int:
        raise ValueError(f"checkpoint step must be an int, got {step!r}")
    if step < 0:
        raise ValueError(f"checkpoint step must be >= 0, got {step}")
    model = arena_model(cfg, data_dim, shape is not None)
    adam = nn.AdamState(t=step)
    if step > 0:  # the moments exist from the first optimizer step on
        adam.m, adam.v = np.empty_like(model.theta), np.empty_like(model.theta)
    state = TrainState(
        config=cfg,
        model=model,
        adam=adam,
        rng=Rng.from_state(_read(manifest, "rng")),
        data_rng=Rng.from_state(_read(manifest, "data_rng")),
        image_shape=tuple(shape) if shape else None,
    )
    # A header save_checkpoint wrote is the rendered one as text. Others are
    # compared key by key as JSON text, since in Python 16.0 == 16 and True == 1.
    rendered = _header(state)
    if text != json.dumps(rendered, sort_keys=True):
        for key, value in rendered.items():
            stored = json.dumps(_read(manifest, key), sort_keys=True)
            expected = json.dumps(value, sort_keys=True)
            if stored != expected:
                raise ValueError(
                    "checkpoint header values do not match networks of "
                    f"{state.model.enc.flat.size} and {state.model.dec.flat.size} "
                    f"parameters built from its config: {key} is {stored}, "
                    f"expected {expected}"
                )
    return state, _blocks(state)


def load_checkpoint(path: str | Path) -> TrainState:
    """Validate the header and the file size, then read each block once,
    straight into the parameter and moment vectors."""
    return read_framed(path, MAGIC, "checkpoint", _layout)
