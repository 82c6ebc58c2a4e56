import hashlib

import numpy as np
import pytest

from wwae.numerics import Rng


def test_transpose_involution(rng):
    a = rng.normal(5, 3)
    np.testing.assert_array_equal(a.T.T, a)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).normal(3, 4)
        b = Rng(42).normal(3, 4)
        np.testing.assert_array_equal(a, b)

    def test_split_is_pure(self):
        root = Rng(7)
        a = root.split(3).normal(2, 2)
        b = root.split(3).normal(2, 2)
        np.testing.assert_array_equal(a, b)

    def test_split_children_distinct(self):
        root = Rng(7)
        streams = [root.split(i).normal(4, 1).ravel() for i in range(4)]
        streams.append(root.normal(4, 1).ravel())  # parent continuation
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                assert not np.array_equal(streams[i], streams[j])

    def test_split_after_draw_unaffected(self):
        # split derives from (seed, key), not from the draw position
        r1 = Rng(9)
        r1.normal(10, 10)
        r2 = Rng(9)
        np.testing.assert_array_equal(r1.split(0).normal(2, 2), r2.split(0).normal(2, 2))

    def test_state_roundtrip_mid_stream(self):
        r = Rng(5)
        r.normal(3, 3)
        saved = r.state()
        rest = Rng.from_state(saved)
        np.testing.assert_array_equal(r.normal(5, 2), rest.normal(5, 2))
        np.testing.assert_array_equal(r.integers(0, 100, 16), rest.integers(0, 100, 16))

    def test_state_json_serializable(self):
        import json

        s = json.dumps(Rng(3, key=(1, 2)).state())
        r = Rng.from_state(json.loads(s))
        np.testing.assert_array_equal(r.normal(2, 2), Rng(3, key=(1, 2)).normal(2, 2))

    def test_integers_bounds(self, rng):
        draws = rng.integers(0, 7, 1000)
        assert draws.min() >= 0 and draws.max() < 7

    def test_uniform_range(self, rng):
        u = rng.uniform(1000, 1)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_normal_moments(self):
        n = 100_000
        x = Rng(2).normal(n, 2)
        assert np.all(np.abs(x.mean(axis=0)) < 4.0 / np.sqrt(n))
        assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.05)

    @pytest.mark.parametrize(
        "seed,rows,cols,digest",
        [
            (0, 1, 1, "44653a9dff4dcd1f7db78606604ff1622868a63b84ca9823e1f2147ceff698a7"),
            (1, 3, 5, "8cdd1f65f60e71bd145f9eff83e3338da447df138db6c2b8cc269912c7debe1a"),
            (2, 4, 6, "000b938e097fd737d79b3ba409559e6f8a165202e16546155cf10306fac9f21d"),
            (3, 7, 1, "ed0a33d020b02c2fa1cd4d578d4c28d890e48b17e2c3f3932577c3ea981608ce"),
            (4, 256, 2, "9949a930b668890e704f7e0146d353e1a993ef6c08a88a8675ef7ed7e693ef78"),
            (5, 33, 31, "917f1c61de33709bb1b08e27cf482972a0f299b8bc17f5f72b1393da17313faa"),
        ],
    )
    def test_normal_digest(self, seed, rows, cols, digest):
        # Box-Muller's bits, pinned; an odd rows * cols drops the last sine
        x = Rng(seed).normal(rows, cols)
        assert x.shape == (rows, cols)
        assert hashlib.sha256(x.tobytes()).hexdigest() == digest

    def test_normal_bad_shape(self):
        with pytest.raises(ValueError):
            Rng(1).normal(0, 3)
