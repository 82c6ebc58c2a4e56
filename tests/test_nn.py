import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wwae.nn import (
    ADAM_CHUNK,
    AdamState,
    MlpParams,
    adam_step,
    flatten_params,
    init_params,
    mlp_backward,
    mlp_forward,
    param_views,
    unflatten_params,
)
from wwae.numerics import Rng


def identity_layer(d):
    return MlpParams([np.eye(d)], [np.zeros(d)])


def backward(p, inputs, gy):
    """mlp_backward into a fresh vector; its layer views and the input gradient."""
    flat = np.empty(p.n_params())
    gx = mlp_backward(p, inputs, gy, out=flat)
    return param_views(flat, p.widths), gx


class TestForward:
    def test_identity_layer(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        y, _ = mlp_forward(identity_layer(2), x)
        np.testing.assert_array_equal(y, x)

    def test_relu_layer(self):
        # identity weights around the hidden layer, so only its ReLU shows
        p = MlpParams([np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)])
        y, _ = mlp_forward(p, np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(y, [[0.0, 2.0]])

    def test_two_layer_hand_composition(self):
        # relu(x W1^T + b1) W2^T + b2 computed by hand for one input
        w1 = np.array([[1.0, -1.0], [2.0, 0.0]])
        b1 = np.array([0.5, -1.0])
        w2 = np.array([[1.0, 1.0]])
        b2 = np.array([0.25])
        p = MlpParams([w1, w2], [b1, b2])
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
        out = np.full(p.n_params() + 2, np.nan)
        none = mlp_backward(p, inputs, gy, out=out[1:-1], input_grad=False)
        g2 = param_views(out[1:-1], p.widths)
        assert none is None and gx.shape == x.shape
        assert out[1:-1].tobytes() == flatten_params(g).tobytes()
        assert np.isnan(out[0]) and np.isnan(out[-1])
        assert all(np.shares_memory(w, out) for w in g2.weights + g2.biases)

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
        with pytest.raises(ValueError, match=f"expected {p.n_params()} values"):
            mlp_backward(p, inputs, y, out=np.empty(p.n_params() + 1))
        with pytest.raises(ValueError, match=f"expected {p.n_params()} values"):
            mlp_backward(p, inputs, y, out=np.empty(p.n_params() - 1))

    def test_rejects_partial_record_and_wrong_grad_shape(self):
        p = init_params(Rng(8), [3, 4, 2])
        x = Rng(9).normal(5, 3)
        _, inputs = mlp_forward(p, x)
        y, partial = mlp_forward(p, inputs[1], start=1)
        with pytest.raises(ValueError, match="do not match network depth"):
            mlp_backward(p, partial, y, out=np.empty(p.n_params()))
        with pytest.raises(ValueError, match=r"\(5, 3\) does not match output \(5, 2\)"):
            mlp_backward(p, inputs, np.zeros((5, 3)), out=np.empty(p.n_params()))

    def test_zero_grad(self):
        p = identity_layer(3)
        y, inputs = mlp_forward(p, np.ones((2, 3)))
        g, gx = backward(p, inputs, np.zeros_like(y))
        assert all(np.all(w == 0.0) for w in g.weights)
        assert all(np.all(b == 0.0) for b in g.biases)
        np.testing.assert_array_equal(gx, np.zeros((2, 3)))

    def test_linear_layer_grads(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        p = MlpParams([w], [np.zeros(2)])
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
    views = param_views(flat, p.widths)
    views.weights[1][0, 0] = 7.0
    assert flat[4 * 3 + 4] == 7.0
    with pytest.raises(ValueError):
        param_views(flat[:-1], p.widths)


def test_unflatten_wrong_size():
    p = identity_layer(2)
    with pytest.raises(ValueError):
        unflatten_params(np.zeros(p.n_params() + 1), p)


def test_mlp_params_validation():
    with pytest.raises(ValueError):
        # 2-wide output feeding a 3-wide input
        MlpParams([np.eye(2), np.zeros((1, 3))], [np.zeros(2), np.zeros(1)])


class TestAdam:
    def test_zero_grad_no_move(self):
        s = AdamState()
        params = np.array([1.0, -2.0])
        out = adam_step(s, params.copy(), np.zeros(2))
        np.testing.assert_array_equal(out, params)

    def test_updates_in_place(self):
        params = np.zeros(3)
        assert adam_step(AdamState(), params, np.ones(3)) is params
        assert np.all(params < 0.0)
        with pytest.raises(ValueError):
            adam_step(AdamState(), [0.0, 0.0], np.ones(2))

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
        # it updated in place and in blocks
        kw = dict(lr=0.01, beta1=0.5, beta2=0.9, decay_every=decay_every, decay_factor=0.5)
        s = AdamState(**kw)
        ref = AdamState(**kw)
        rng = Rng(21)
        p = rng.normal(1, size).ravel()
        want = p.copy()
        m = v = np.zeros_like(p)
        lrs = set()
        for _ in range(steps):
            g = rng.normal(1, size).ravel() * np.exp(rng.normal(1, size).ravel())
            lr = ref.effective_lr()
            lrs.add(lr)
            ref.t += 1
            m = ref.beta1 * m + (1.0 - ref.beta1) * g
            v = ref.beta2 * v + (1.0 - ref.beta2) * g**2
            m_hat = m / (1.0 - ref.beta1**ref.t)
            v_hat = v / (1.0 - ref.beta2**ref.t)
            want = want - lr * m_hat / (np.sqrt(v_hat) + ref.eps)
            adam_step(s, p, g)
        assert len(lrs) == 3 and s.t == steps
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
            adam_step(s, params, grads)
            kept, first_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            adam_step(s, params, grads)
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
            adam_step(AdamState(), np.zeros((2, 3)), np.zeros((2, 3)))

    def test_first_step_hand_value(self):
        s = AdamState(lr=0.1, beta1=0.9, beta2=0.999)
        out = adam_step(s, np.zeros(1), np.ones(1))
        want = -0.1 / (1.0 + 1e-8)
        assert abs(out[0] - want) < 1e-15

    def test_decay_schedule(self):
        s = AdamState(lr=0.005, decay_every=10_000, decay_factor=0.9, t=10_000)
        assert abs(s.effective_lr() - 0.9 * 0.005) < 1e-15
        s.t = 9_999
        assert s.effective_lr() == 0.005
        s.decay_every = 0  # disabled
        s.t = 10**6
        assert s.effective_lr() == 0.005

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(AdamState(), np.zeros(2), np.zeros(3))

    def test_deterministic_sequence(self):
        def run():
            s = AdamState(lr=0.01)
            p = np.ones(4)
            for k in range(10):
                p = adam_step(s, p, np.sin(p + k))
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
        with pytest.raises(ValueError):
            init_params(Rng(1), [2, 0])
