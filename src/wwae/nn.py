"""Minimal fully-connected stack: forward that records each layer's input,
exact reverse-mode backward, parameter flattening, He/Xavier init, and Adam.

Activations follow position: every layer but the last is ReLU and the last
is linear, so a stack is fully described by its widths.

No autodiff graph: the model topology is fixed (one encoder, one decoder),
so each forward returns the layer inputs its backward needs. The input of
layer i + 1 is the ReLU of layer i's pre-activation, positive exactly where
that pre-activation is, so it also holds layer i's ReLU mask.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .numerics import Matrix, Rng

# float64 values per Adam block: 256 KiB per array, about 1.5 MiB for the
# six arrays one block touches, so a block stays in a 2 MiB per-core L2.
ADAM_CHUNK = 32_768
ADAM_EPS = 1e-8


@dataclass
class MlpParams:
    """Ordered (weight, bias) pairs; hidden layers are ReLU, the last linear.

    weights[i] has shape (out_i, in_i); biases[i] has shape (out_i,).
    Layer widths chain: in_{i+1} == out_i.
    """

    weights: list[Matrix]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases):
            raise ValueError("layer lists must have equal length")
        for i in range(len(self.weights) - 1):
            if self.weights[i + 1].shape[1] != self.weights[i].shape[0]:
                raise ValueError(
                    f"layer {i} output width {self.weights[i].shape[0]} does not "
                    f"feed layer {i + 1} input width {self.weights[i + 1].shape[1]}"
                )

    @property
    def widths(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def n_params(self) -> int:
        return n_params(self.widths)


def n_params(widths: list[int]) -> int:
    """Weight and bias count of a stack with these layer widths."""
    return sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))


@dataclass
class AdamState:
    """Adam's step counter and moments; its settings come with each step.

    `m` and `v` are allocated on the first step and then updated in place;
    the two scratch vectors hold one `adam_step` block each, so a step
    allocates nothing of parameter size.
    """

    t: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _scratch: tuple[np.ndarray, np.ndarray] = field(
        default=(np.zeros(0), np.zeros(0)), init=False, repr=False, compare=False
    )


def mlp_forward(params: MlpParams, x: Matrix, start: int = 0) -> tuple[Matrix, list[Matrix]]:
    """Apply layers `start` onward to x, a batch of rows at the input of
    layer `start`; returns the output and the input of each layer run.
    Each layer allocates one array, its pre-activation, and a hidden
    layer's ReLU runs in place on it."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.weights[start].shape[1]:
        raise ValueError(
            f"input shape {x.shape} does not match layer {start} input width "
            f"{params.weights[start].shape[1]}"
        )
    inputs = []
    a = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights[start:], params.biases[start:]), start):
        inputs.append(a)
        a = a @ w.T
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
    return a, inputs


def mlp_backward(
    params: MlpParams,
    inputs: list[Matrix],
    grad_y: Matrix,
    out: np.ndarray,
    input_grad: bool = True,
) -> Optional[Matrix]:
    """Exact gradients of <grad_y, output> w.r.t. parameters and input.

    `inputs` is the list `mlp_forward` returned for the whole stack. The
    parameter gradients are written into `out` in the `flatten_params`
    layout; the input gradient is returned, or None with `input_grad=False`.
    """
    grad_y = np.asarray(grad_y, dtype=np.float64)
    if len(inputs) != len(params.weights):
        raise ValueError("layer inputs do not match network depth")
    y_shape = (inputs[-1].shape[0], params.weights[-1].shape[0])
    if grad_y.shape != y_shape:
        raise ValueError(f"grad shape {grad_y.shape} does not match output {y_shape}")
    offsets = _layer_offsets(out, params.widths)
    ds = grad_y  # the last layer is linear
    for i in reversed(range(len(params.weights))):
        w = params.weights[i]
        start, mid, end = offsets[i]
        np.matmul(ds.T, inputs[i], out=out[start:mid].reshape(w.shape))
        np.add.reduce(ds, axis=0, out=out[mid:end])
        if i == 0:
            return ds @ w if input_grad else None
        ds = ds @ w
        ds *= inputs[i] > 0.0  # ReLU subgradient at 0 is 0


def init_params(rng: Rng, params: MlpParams) -> None:
    """Fill `params` in place: He init for the ReLU layers, Xavier (Glorot)
    for the last, one normal draw per layer in order; zero biases."""
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        fan_out, fan_in = w.shape
        if i < last:
            std = np.sqrt(2.0 / fan_in)
        else:
            std = np.sqrt(2.0 / (fan_in + fan_out))
        w[...] = rng.normal(fan_out, fan_in) * std
        b[...] = 0.0


def flatten_params(params: MlpParams) -> np.ndarray:
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


@functools.lru_cache(maxsize=64)  # a process meets a few widths
def _offsets(widths: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """Each layer's weight start, bias start and bias end in the flat layout."""
    table, pos = [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        table.append((pos, pos + fan_in * fan_out, pos + fan_in * fan_out + fan_out))
        pos = table[-1][2]
    return tuple(table)


def _layer_offsets(flat: np.ndarray, widths: list[int]) -> tuple[tuple[int, int, int], ...]:
    """The `_offsets` of `widths`, once `flat` is checked to hold that layout."""
    if min(widths) < 1:
        raise ValueError(f"layer widths must be positive, got {widths}")
    offsets = _offsets(tuple(widths))
    total = offsets[-1][2] if offsets else 0
    if flat.size != total:
        raise ValueError(f"expected {total} values for widths {widths}, got {flat.size}")
    return offsets


def param_views(flat: np.ndarray, widths: list[int]) -> MlpParams:
    """Weights and biases as reshaped views of `flat`, in `flatten_params`
    order: writing to a layer writes to `flat`, and the reverse."""
    offsets = _layer_offsets(flat, widths)
    weights = [flat[a:b].reshape(fan_out, -1) for (a, b, _), fan_out in zip(offsets, widths[1:])]
    return MlpParams(weights, [flat[b:c] for _, b, c in offsets])


def unflatten_params(flat: np.ndarray, like: MlpParams) -> MlpParams:
    """A copy of `flat` shaped like `like`; it shares no memory with `flat`."""
    return param_views(np.array(flat, dtype=np.float64), like.widths)


def adam_step(
    state: AdamState, params: np.ndarray, grads: np.ndarray, lr: float, beta1: float, beta2: float
) -> np.ndarray:
    """One bias-corrected Adam update of `params` in place at learning rate
    `lr`; returns `params`. The update runs in the order of the textbook form
    params - lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + ADAM_EPS),
    so it gives the same bits as that expression evaluated with temporaries.
    It runs over ADAM_CHUNK values at a time, so the slices of params,
    grads, m, v and the scratch stay in cache across the 14 element-wise
    passes; each element still sees the same operations in the same order.
    A bias correction that has rounded to 1.0 is skipped, since dividing by
    1.0 is exact: with the default betas c1 from t = 54 and c2 from t = 356,
    leaving 12 passes.
    """
    grads = np.asarray(grads, dtype=np.float64)
    if not isinstance(params, np.ndarray) or params.dtype != np.float64:
        raise ValueError("params must be a float64 array, updated in place")
    if params.shape != grads.shape:
        raise ValueError(f"length mismatch: {params.shape} vs {grads.shape}")
    if params.ndim != 1:
        raise ValueError(f"params must be a vector, got shape {params.shape}")
    if state.m.size == 0:
        state.m = np.zeros_like(params)
        state.v = np.zeros_like(params)
    if state.m.shape != params.shape:
        raise ValueError("optimizer state does not match parameter count")
    block = min(ADAM_CHUNK, params.size)
    if state._scratch[0].size != block:
        state._scratch = (np.empty(block), np.empty(block))
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for lo in range(0, params.size, ADAM_CHUNK):
        hi = min(lo + ADAM_CHUNK, params.size)
        p, g = params[lo:hi], grads[lo:hi]
        m, v = state.m[lo:hi], state.v[lo:hi]
        a, b = state._scratch[0][: hi - lo], state._scratch[1][: hi - lo]
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=a)
        m += a
        v *= beta2
        np.square(g, out=a)
        a *= 1.0 - beta2
        v += a
        np.multiply(m if c1 == 1.0 else np.divide(m, c1, out=a), lr, out=a)
        np.sqrt(v if c2 == 1.0 else np.divide(v, c2, out=b), out=b)
        b += ADAM_EPS
        a /= b
        p -= a
    return params
