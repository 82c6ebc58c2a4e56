import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import init_params, mlp
from wwae.config import TrainConfig
from wwae.nn import (
    ADAM_CHUNK,
    ADAM_EPS,
    AdamState,
    MlpParams,
    adam_step,
    flatten_params,
    mlp_backward,
    mlp_forward,
    unflatten_params,
)
from wwae.numerics import Rng


def identity_layer(d):
    return mlp([np.eye(d)], [np.zeros(d)])


def backward(p, inputs, gy):
    """mlp_backward into a fresh vector; its layer views and the input gradient."""
    flat = np.empty(p.flat.size)
    gx = mlp_backward(p, inputs, gy, out=flat)
    return MlpParams(flat, p.widths), gx


class TestForward:
    def test_identity_layer(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        y, _ = mlp_forward(identity_layer(2), x)
        np.testing.assert_array_equal(y, x)

    def test_relu_layer(self):
        # identity weights around the hidden layer, so only its ReLU shows
        p = mlp([np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])
        y, _ = mlp_forward(p, np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(y, [[0.0, 2.0]])

    def test_two_layer_hand_composition(self):
        # relu(x W1^T + b1) W2^T + b2 computed by hand for one input
        w1 = np.array([[1.0, -1.0], [2.0, 0.0]])
        b1 = np.array([0.5, -1.0])
        w2 = np.array([[1.0, 1.0]])
        b2 = np.array([0.25])
        p = mlp([w1, w2], [b1, b2])
        x = np.array([[1.0, 2.0]])
        h = np.maximum(x @ w1.T + b1, 0.0)  # [max(-0.5,0), max(1,0)] = [0, 1]
        want = h @ w2.T + b2  # 1.25
        y, _ = mlp_forward(p, x)
        np.testing.assert_allclose(y, want)
        np.testing.assert_allclose(y, [[1.25]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mlp_forward(identity_layer(2), np.zeros((3, 5)))

    def test_allocates_one_array_per_layer(self):
        # each layer's pre-activation is its only batch x width array: the
        # ReLU runs in place on it and it becomes the next layer's input
        widths = [16, 256, 32, 32, 8]  # the widest first, as in an encoder
        p = init_params(Rng(5), widths)
        x = Rng(6).normal(1024, widths[0])
        tracemalloc.start()
        try:
            y, inputs = mlp_forward(p, x)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        layer_bytes = [1024 * w * 8 for w in widths[1:]]
        assert [a.nbytes for a in inputs[1:]] + [y.nbytes] == layer_bytes
        assert inputs[0] is x
        assert sum(layer_bytes) <= kept < sum(layer_bytes) + 4096
        # the bias add's ufunc buffer comes and goes; it is not a layer array
        assert peak - kept < min(layer_bytes[:-1])


class TestBackward:
    def test_writes_into_given_vector(self):
        p = init_params(Rng(8), [3, 4, 2])
        x = Rng(9).normal(5, 3)
        gy = Rng(10).normal(5, 2)
        _, inputs = mlp_forward(p, x)
        g, gx = backward(p, inputs, gy)
        out = np.full(p.flat.size + 2, np.nan)
        none = mlp_backward(p, inputs, gy, out=out[1:-1], input_grad=False)
        g2 = MlpParams(out[1:-1], p.widths)
        assert none is None and gx.shape == x.shape
        assert out[1:-1].tobytes() == flatten_params(g).tobytes()
        assert np.isnan(out[0]) and np.isnan(out[-1])
        assert all(np.shares_memory(w, out) for w in g2.weights + g2.biases)

    def test_peak_is_one_product_and_its_operand(self):
        # the ReLU mask multiplies each product in place, so the widest
        # step holds only the incoming gradient and its product (1024 x 64
        # and 1024 x 96); a masked copy would add another 1024 x 96
        widths = [16, 96, 64, 48, 8]
        p = init_params(Rng(5), widths)
        _, inputs = mlp_forward(p, Rng(6).normal(1024, widths[0]))
        gy = Rng(7).normal(1024, widths[-1])
        out = np.empty(p.flat.size)
        tracemalloc.start()
        try:
            mlp_backward(p, inputs, gy, out=out, input_grad=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * (64 + 96) * 8 + 4096

    def test_matches_per_layer_expressions_bit_for_bit(self):
        p = init_params(Rng(11), [5, 7, 6, 3])
        x = Rng(12).normal(9, 5)
        gy = Rng(13).normal(9, 3)
        _, inputs = mlp_forward(p, x)
        g, gx = backward(p, inputs, gy)
        for i in range(2):  # each hidden layer's input is the last one's ReLU
            s = inputs[i] @ p.weights[i].T + p.biases[i]
            assert inputs[i + 1].tobytes() == np.maximum(s, 0.0).tobytes()
        grad_a = gy
        for i in reversed(range(3)):
            ds = grad_a * (inputs[i + 1] > 0.0) if i < 2 else grad_a
            assert g.weights[i].tobytes() == (ds.T @ inputs[i]).tobytes()
            assert g.biases[i].tobytes() == np.sum(ds, axis=0).tobytes()
            grad_a = ds @ p.weights[i]
        assert gx.tobytes() == grad_a.tobytes()

    @given(st.lists(st.integers(1, 6), min_size=2, max_size=6), st.integers(1, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_buffer_matches_layer_views_reference(self, widths, rows, seed):
        # each layer's gradient lands where MlpParams puts that layer,
        # width-1 layers included
        p = init_params(Rng(seed), widths)
        _, inputs = mlp_forward(p, Rng(seed).split(0).normal(rows, widths[0]))
        gy = Rng(seed).split(1).normal(rows, widths[-1])
        out, want = np.full(p.flat.size, np.nan), np.full(p.flat.size, np.nan)
        gx = mlp_backward(p, inputs, gy, out=out)
        views, ds = MlpParams(want, widths), gy
        for i in reversed(range(len(widths) - 1)):
            np.matmul(ds.T, inputs[i], out=views.weights[i])
            np.add.reduce(ds, axis=0, out=views.biases[i])
            ds = ds @ p.weights[i]
            if i > 0:
                ds *= inputs[i] > 0.0
        assert out.tobytes() == want.tobytes()
        assert gx.tobytes() == ds.tobytes()

    def test_relu_mask_from_inputs_matches_preactivation_mask(self):
        # A forward record once held each layer's pre-activation s next to
        # its input, and backward masked with s > 0. The next layer's input
        # max(s, 0) is positive exactly where s is, so backward gives the
        # same bits from the inputs alone: at +0, -0, NaN and +-inf, and in
        # dead units. The pre-activations are written out here, and the
        # inputs built from them as that forward built them.
        p = init_params(Rng(14), [4, 6, 5, 3])
        preacts = [Rng(15).normal(8, 6), Rng(16).normal(8, 5), None]
        for s in preacts[:2]:
            s[:5, 0] = [0.0, -0.0, np.nan, np.inf, -np.inf]
            s[:, 1] = -np.abs(s[:, 1])  # a dead unit: no row passes
        inputs = [Rng(17).normal(8, 4)] + [np.maximum(s, 0.0) for s in preacts[:2]]
        gy = Rng(18).normal(8, 3)
        g, gx = backward(p, inputs, gy)
        grad_a = gy
        for i in reversed(range(3)):
            ds = grad_a * (preacts[i] > 0.0) if i < 2 else grad_a
            assert g.weights[i].tobytes() == (ds.T @ inputs[i]).tobytes()
            assert g.biases[i].tobytes() == np.sum(ds, axis=0).tobytes()
            grad_a = ds @ p.weights[i]
        assert gx.tobytes() == grad_a.tobytes()
        assert np.all(np.isfinite(gx))  # the NaN and inf units are masked off
        assert np.signbit(preacts[0][1, 0]) and np.all(g.weights[0][1] == 0.0)

    def test_wrong_gradient_length(self):
        p = init_params(Rng(8), [3, 4, 2])
        y, inputs = mlp_forward(p, Rng(9).normal(5, 3))
        with pytest.raises(ValueError, match=f"expected {p.flat.size} values"):
            mlp_backward(p, inputs, y, out=np.empty(p.flat.size + 1))
        with pytest.raises(ValueError, match=f"expected {p.flat.size} values"):
            mlp_backward(p, inputs, y, out=np.empty(p.flat.size - 1))

    def test_rejects_partial_record_and_wrong_grad_shape(self):
        p = init_params(Rng(8), [3, 4, 2])
        x = Rng(9).normal(5, 3)
        _, inputs = mlp_forward(p, x)
        y, partial = mlp_forward(p, inputs[1], start=1)
        with pytest.raises(ValueError, match="do not match network depth"):
            mlp_backward(p, partial, y, out=np.empty(p.flat.size))
        with pytest.raises(ValueError, match=r"\(5, 3\) does not match output \(5, 2\)"):
            mlp_backward(p, inputs, np.zeros((5, 3)), out=np.empty(p.flat.size))

    def test_zero_grad(self):
        p = identity_layer(3)
        y, inputs = mlp_forward(p, np.ones((2, 3)))
        g, gx = backward(p, inputs, np.zeros_like(y))
        assert all(np.all(w == 0.0) for w in g.weights)
        assert all(np.all(b == 0.0) for b in g.biases)
        np.testing.assert_array_equal(gx, np.zeros((2, 3)))

    def test_linear_layer_grads(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = mlp([w], [np.zeros(2)])
        x = np.array([[1.0, -1.0], [2.0, 0.5]])
        y, inputs = mlp_forward(p, x)
        gy = np.array([[1.0, 0.0], [0.0, 1.0]])
        g, gx = backward(p, inputs, gy)
        np.testing.assert_allclose(g.weights[0], gy.T @ x)
        np.testing.assert_allclose(g.biases[0], gy.sum(axis=0))
        np.testing.assert_allclose(gx, gy @ w)

    def test_three_layer_finite_differences(self):
        rng = Rng(3)
        p = init_params(rng, [4, 5, 5, 2])
        x = rng.normal(3, 4)
        gy = rng.normal(3, 2)
        _, inputs = mlp_forward(p, x)
        g, gx = backward(p, inputs, gy)

        def scalar(params):
            y, _ = mlp_forward(params, x)
            return float((gy * y).sum())

        flat = flatten_params(p)
        gflat = flatten_params(g)
        h = 1e-5
        probes = Rng(4).integers(0, flat.size, 20)
        for k in probes:
            fp, fm = flat.copy(), flat.copy()
            fp[k] += h
            fm[k] -= h
            fd = (scalar(unflatten_params(fp, p)) - scalar(unflatten_params(fm, p))) / (2 * h)
            assert abs(gflat[k] - fd) <= 1e-6 * max(abs(fd), 1.0)

        for i in range(3):
            for j in range(4):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                yp, _ = mlp_forward(p, xp)
                ym, _ = mlp_forward(p, xm)
                fd = ((gy * yp).sum() - (gy * ym).sum()) / (2 * h)
                assert abs(gx[i, j] - fd) <= 1e-6 * max(abs(fd), 1.0)


@given(st.lists(st.integers(1, 6), min_size=2, max_size=4), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_flatten_unflatten_bijection(widths, seed):
    p = init_params(Rng(seed), widths)
    q = unflatten_params(flatten_params(p), p)
    for a, b in zip(p.weights, q.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(p.biases, q.biases):
        np.testing.assert_array_equal(a, b)


def test_unflatten_copies_and_views_alias():
    p = init_params(Rng(2), [3, 4, 2])
    flat = flatten_params(p)
    q = unflatten_params(flat, p)
    assert not any(np.shares_memory(w, flat) for w in q.weights + q.biases)
    views = MlpParams(flat, p.widths)
    views.weights[1][0, 0] = 7.0
    assert flat[4 * 3 + 4] == 7.0


def test_flatten_copies():
    p = init_params(Rng(2), [3, 4, 2])
    flat = flatten_params(p)
    assert flat.tobytes() == p.flat.tobytes() and not np.shares_memory(flat, p.flat)


def test_unflatten_wrong_size():
    p = identity_layer(2)
    with pytest.raises(ValueError):
        unflatten_params(np.zeros(p.flat.size + 1), p)


def test_mlp_params_checks_its_vector_and_widths():
    flat = np.zeros(4 * 3 + 4 + 2 * 4 + 2)
    with pytest.raises(ValueError, match=r"^expected 26 values for widths \[3, 4, 2\], got shape \(25,\)$"):
        MlpParams(flat[:-1], [3, 4, 2])
    with pytest.raises(ValueError, match=r"got shape \(2, 13\)$"):
        MlpParams(flat.reshape(2, 13), [3, 4, 2])
    with pytest.raises(ValueError, match=r"^layer widths must be positive, got \[3, 0, 2\]$"):
        MlpParams(np.zeros(3), [3, 0, 2])
    with pytest.raises(ValueError, match=r"^a stack needs two or more layer widths, got \[3\]$"):
        MlpParams(np.zeros(0), [3])


# lr, beta1, beta2 as the default config sets them
DEFAULT = (TrainConfig.lr, TrainConfig.beta1, TrainConfig.beta2)


class TestAdam:
    def test_zero_grad_no_move(self):
        s = AdamState()
        params = np.array([1.0, -2.0])
        out = adam_step(s, params.copy(), np.zeros(2), *DEFAULT)
        np.testing.assert_array_equal(out, params)

    def test_updates_in_place(self):
        params = np.zeros(3)
        assert adam_step(AdamState(), params, np.ones(3), *DEFAULT) is params
        assert np.all(params < 0.0)
        with pytest.raises(ValueError):
            adam_step(AdamState(), [0.0, 0.0], np.ones(2), *DEFAULT)

    # 50 steps cross two decay boundaries; 400 steps also pass t = 54 and
    # t = 356, from which 1 - 0.5**t and 1 - 0.9**t round to exactly 1.0
    @pytest.mark.parametrize(
        "size, steps, decay_every",
        [(size, steps, decay) for steps, decay in [(50, 20), (400, 150)]
         for size in [1, 1000, ADAM_CHUNK, 3 * ADAM_CHUNK + 17]],
        ids=[f"{size}{suffix}" for suffix in ["", "-400steps"]
             for size in ["1", "1000", "chunk", "3chunks+17"]],
    )
    def test_matches_allocating_formula_bit_for_bit(self, size, steps, decay_every):
        # the textbook update with temporaries, as the optimizer read before
        # it updated in place and in blocks, on the config's schedule
        cfg = TrainConfig(lr=0.01, beta1=0.5, beta2=0.9, decay_every=decay_every, decay_factor=0.5)
        s = AdamState()
        rng = Rng(21)
        p = rng.normal(1, size).ravel()
        want = p.copy()
        m = v = np.zeros_like(p)
        lrs = set()
        for t in range(1, steps + 1):
            g = rng.normal(1, size).ravel() * np.exp(rng.normal(1, size).ravel())
            lr = cfg.lr * cfg.decay_factor ** ((t - 1) // cfg.decay_every)
            lrs.add(lr)
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g**2
            m_hat = m / (1.0 - cfg.beta1**t)
            v_hat = v / (1.0 - cfg.beta2**t)
            want = want - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            adam_step(s, p, g, cfg.lr_at(s.t), cfg.beta1, cfg.beta2)
        assert len(lrs) == 3 and s.t == steps
        assert p.tobytes() == want.tobytes()
        assert s.m.tobytes() == m.tobytes() and s.v.tobytes() == v.tobytes()

    def test_special_gradients_bit_for_bit(self):
        # +-0, subnormal and huge gradients, whose squares round to 0 or
        # overflow to inf, before and after t = 54 and t = 356 of the default
        # betas, where the bias corrections round to 1.0 and are skipped
        cfg = TrainConfig(decay_every=100, decay_factor=0.5)
        special = np.array([0.0, -0.0, 5e-324, -1e-310, 1e-160, 1e160, -1e200, 3.0])
        s, rng = AdamState(), Rng(8)
        p = rng.normal(1, 5 * special.size).ravel()
        want = p.copy()
        m = v = np.zeros_like(p)
        with np.errstate(over="ignore"):
            for t in range(1, 401):
                g = np.tile(special, 5) * rng.normal(1, p.size).ravel()
                m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
                v = cfg.beta2 * v + (1.0 - cfg.beta2) * g**2
                m_hat = m / (1.0 - cfg.beta1**t)
                v_hat = v / (1.0 - cfg.beta2**t)
                want = want - cfg.lr_at(t - 1) * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                adam_step(s, p, g, cfg.lr_at(s.t), cfg.beta1, cfg.beta2)
        assert np.isinf(v).any() and (v == 0.0).any() and (np.abs(v) < 2.3e-308).sum() > 10
        assert p.tobytes() == want.tobytes()
        assert s.m.tobytes() == m.tobytes() and s.v.tobytes() == v.tobytes()

    def test_scratch_is_one_block(self):
        # a 437k-value vector (the criterion-6 image model's size) allocates
        # its two moments on the first step and at most a block of scratch
        n = 437_000
        params, grads = np.zeros(n), np.ones(n)
        s = AdamState()
        tracemalloc.start()
        try:
            adam_step(s, params, grads, *DEFAULT)
            kept, first_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            adam_step(s, params, grads, *DEFAULT)
            later_peak = tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()
        moments = s.m.nbytes + s.v.nbytes
        assert kept - moments < 1 << 20
        assert first_peak - moments < 1 << 20
        assert later_peak < 1 << 20
        assert all(a.size == ADAM_CHUNK for a in s._scratch)

    def test_rejects_non_vector(self):
        with pytest.raises(ValueError, match="must be a vector"):
            adam_step(AdamState(), np.zeros((2, 3)), np.zeros((2, 3)), *DEFAULT)

    def test_first_step_hand_value(self):
        out = adam_step(AdamState(), np.zeros(1), np.ones(1), 0.1, 0.9, 0.999)
        want = -0.1 / (1.0 + 1e-8)
        assert abs(out[0] - want) < 1e-15

    def test_decay_schedule(self):
        cfg = TrainConfig(lr=0.005, decay_every=10_000, decay_factor=0.9)
        assert abs(cfg.lr_at(10_000) - 0.9 * 0.005) < 1e-15
        assert cfg.lr_at(9_999) == 0.005
        cfg.decay_every = 0  # disabled
        assert cfg.lr_at(10**6) == 0.005

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(AdamState(), np.zeros(2), np.zeros(3), *DEFAULT)

    def test_deterministic_sequence(self):
        def run():
            s = AdamState()
            p = np.ones(4)
            for k in range(10):
                p = adam_step(s, p, np.sin(p + k), 0.01, *DEFAULT[1:])
            return p

        np.testing.assert_array_equal(run(), run())


class TestInit:
    def test_same_seed_identical(self):
        a = init_params(Rng(5), [3, 4, 2])
        b = init_params(Rng(5), [3, 4, 2])
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_biases_zero(self):
        p = init_params(Rng(5), [3, 4, 2])
        for b in p.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_he_scale(self):
        p = init_params(Rng(6), [256, 256, 256])  # the first layer is ReLU
        want = np.sqrt(2.0 / 256)
        assert abs(p.weights[0].std() - want) < 0.15 * want

    def test_bad_widths(self):
        with pytest.raises(ValueError, match=r"^layer widths must be positive, got \[2, 0\]$"):
            init_params(Rng(1), [2, 0])
