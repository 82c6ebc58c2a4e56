"""Dense float64 matrix substrate and seeded, splittable random streams.

Matrices are plain 2-D numpy float64 arrays; vectors are 1-D arrays. All
randomness in the project flows through `Rng`, which wraps a counter-based
Philox generator keyed by (seed, stream path) so that independent child
streams can be derived without consuming state from the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The universal numeric carrier: 2-D float64 ndarray, row-major.
Matrix = np.ndarray


@dataclass
class Rng:
    """Deterministic random stream with pure, counter-based splitting.

    A stream is identified by (seed, key) where key is a tuple of child
    indices. `split(i)` derives the child stream key + (i,) without touching
    this stream's state, so the same child is obtained no matter how much of
    the parent has been consumed. Sampling methods advance internal state.
    """

    seed: int
    key: tuple[int, ...] = ()
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def split(self, index: int) -> "Rng":
        """Derive an independent child stream; the parent is unaffected."""
        return Rng(self.seed, self.key + (int(index),))

    def normal(self, rows: int, cols: int) -> Matrix:
        """rows x cols of i.i.d. standard normals via Box-Muller.

        Box-Muller on the generator's uniforms keeps the normal stream a
        fixed function of the underlying bit stream, independent of any
        library-internal ziggurat tables.
        """
        if rows < 1 or cols < 1:
            raise ValueError(f"normal needs positive shape, got ({rows}, {cols})")
        n = rows * cols
        pairs = (n + 1) // 2
        u1 = 1.0 - self._gen.random(pairs)  # (0, 1], keeps log finite
        angle = 2.0 * np.pi * self._gen.random(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.empty(2 * pairs)
        np.multiply(r, np.cos(angle), out=out[0::2])
        np.multiply(r, np.sin(angle, out=angle), out=out[1::2])
        return out[:n].reshape(rows, cols)

    def uniform(self, rows: int, cols: int) -> Matrix:
        return self._gen.random((rows, cols))

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        """size i.i.d. integers in [low, high)."""
        return self._gen.integers(low, high, size=size)

    def state(self) -> dict:
        """JSON-serializable snapshot of the full stream state."""
        raw = self._gen.bit_generator.state
        return {
            "seed": self.seed,
            "key": list(self.key),
            "philox": _jsonify(raw),
        }

    @staticmethod
    def from_state(state: dict) -> "Rng":
        rng = Rng(int(state["seed"]), tuple(int(k) for k in state["key"]))
        rng._gen.bit_generator.state = _unjsonify(state["philox"])
        return rng


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _unjsonify(obj):
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            return np.array(obj["__ndarray__"], dtype=obj["dtype"])
        return {k: _unjsonify(v) for k, v in obj.items()}
    return obj
