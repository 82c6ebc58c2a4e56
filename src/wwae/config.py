"""Run configuration: a flat dataclass mirroring the `key = value` config
file format. Unknown keys are fatal so sweep typos surface immediately.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

DATASETS = ("ring", "idx")
REGULARIZERS = ("w2", "kl", "mmd")
W2_VARIANTS = ("root_product", "bures")
PRIOR_STATS = ("sampled", "exact")
# The settings that take one of a fixed set of values.
_CHOICES = dict(
    dataset=DATASETS, regularizer=REGULARIZERS, w2_variant=W2_VARIANTS, prior_stats=PRIOR_STATS
)

# Field name in TrainConfig -> key name in config files ("lambda" is a
# Python keyword, so the field is called lam).
_KEY_OF_FIELD = {"lam": "lambda"}


@dataclass
class TrainConfig:
    dataset: str = "ring"
    data_path: str = ""
    limit: int = 30_000
    latent_dim: int = 2
    enc_hidden: tuple[int, ...] = (64, 64)
    dec_hidden: tuple[int, ...] = (64, 64)
    regularizer: str = "w2"
    lam: float = 1.0
    w2_variant: str = "root_product"
    prior_stats: str = "sampled"
    batch_size: int = 64
    steps: int = 2000
    seed: int = 1
    lr: float = 0.005
    beta1: float = 0.5
    beta2: float = 0.9
    decay_every: int = 10_000
    decay_factor: float = 0.9
    mmd_scale: float = 1.0
    eval_every: int = 0
    out_dir: str = "wwae_run"

    def lr_at(self, step: int) -> float:
        """The learning rate of the step taken after `step` steps:
        lr * decay_factor^(step // decay_every), or lr with decay_every <= 0."""
        if self.decay_every <= 0:
            return self.lr
        return self.lr * self.decay_factor ** (step // self.decay_every)

    def validate(self) -> "TrainConfig":
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                key = _KEY_OF_FIELD.get(f.name, f.name)
                raise ValueError(f"{key} must be finite, got {getattr(self, f.name)}")
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise ValueError(f"{key} must be one of {choices}, got {getattr(self, key)!r}")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        # Compared as an int, so no value overflows; below 2**51 the kernel
        # constant C of the mmd_scale rule is in range at the default scale.
        if not 1 <= self.latent_dim < 2**51:
            raise ValueError(f"latent_dim must be in [1, 2**51), got {self.latent_dim}")
        for key in ("enc_hidden", "dec_hidden"):
            widths = getattr(self, key)
            if any(width < 1 for width in widths):
                raise ValueError(f"{key} must be all >= 1, got {_format_value(widths)}")
            # A lower bound on the network's parameter count: its count with
            # one-wide data and codes. 2**32 float64 values are 32 GiB, and a
            # run keeps four such vectors: theta, its gradient, Adam's moments.
            if sum((a + 1) * b for a, b in zip((1, *widths), (*widths, 1))) >= 2**32:
                raise ValueError(
                    f"{key} must need fewer than 2**32 parameters, got {_format_value(widths)}"
                )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.limit <= 0:
            raise ValueError(f"limit must be positive, got {self.limit}")
        # Written as not-in-range so that NaN is rejected too.
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        for key in ("beta1", "beta2"):
            if not 0 <= getattr(self, key) < 1:
                raise ValueError(f"{key} must be in [0, 1), got {getattr(self, key)}")
        if not 0 < self.decay_factor <= 1:
            raise ValueError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if self.eval_every < 0:
            raise ValueError(f"eval_every must be >= 0, got {self.eval_every}")
        # The IMQ kernel is C / (C + squared distance). From C = 2**52 on,
        # the float spacing at C is 1 or more, so squared distances below
        # 0.5 round away and the kernel is exactly 1: the penalty reads 0,
        # or NaN once C overflows. Below 2**-52 the penalty and its gradient
        # are of order C, and the run trains a plain auto-encoder.
        c = self.mmd_scale * 2.0 * self.latent_dim  # as imq_prior_side forms it
        if not 2.0**-52 <= c < 2.0**52:
            raise ValueError(
                "mmd_scale must be in [2**-52, 2**52) once scaled to the kernel "
                f"constant C = 2 * latent_dim * mmd_scale, got C = {c!r}"
            )
        if self.dataset == "idx" and not self.data_path:
            raise ValueError("dataset=idx requires data_path")
        return self


def _parse_value(field: dataclasses.Field, raw: str):
    if field.type in ("int",):
        return int(raw)
    if field.type in ("float",):
        return float(raw)
    if field.type.startswith("tuple"):
        if not raw:
            return ()
        return tuple(int(part) for part in raw.split(","))
    return raw


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config_text(text: str) -> TrainConfig:
    """Parse `key = value` lines; '#' comments and blanks are ignored."""
    fields = {_KEY_OF_FIELD.get(f.name, f.name): f for f in dataclasses.fields(TrainConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in fields:
            raise ValueError(f"unknown config key {key!r} (line {lineno})")
        field = fields[key]
        try:
            values[field.name] = _parse_value(field, raw)
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r}: {raw!r} ({exc})") from None
    return TrainConfig(**values).validate()


def load_config(path: str | Path) -> TrainConfig:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    return parse_config_text(path.read_text())


def config_lines(cfg: TrainConfig) -> list[str]:
    """Echo lines that parse back to the same config (full reproduction)."""
    lines = []
    for f in dataclasses.fields(TrainConfig):
        key = _KEY_OF_FIELD.get(f.name, f.name)
        lines.append(f"{key} = {_format_value(getattr(cfg, f.name))}")
    return lines
