import itertools
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from conftest import (
    PRIOR_ONLY,
    assert_same_bits,
    config_line,
    edit_checkpoint_header,
    prior_bytes,
)
from wwae import config, divergences, models, nn, spectral
from wwae.checkpoint import load_checkpoint, save_checkpoint
from wwae.config import TrainConfig
from wwae.data import batches, load_dataset
from wwae.divergences import W2Variant, gaussian_w2
from wwae.models import (
    EncoderOut,
    Model,
    TrainingDiverged,
    build_model,
    decode,
    draw_step_noise,
    encode,
    generate,
    init_train_state,
    loss_and_grads,
    reconstruct,
    reparameterize,
    train_step,
)
from wwae.numerics import Rng
from wwae.spectral import GaussStats, batch_stats


def ring_config(**overrides):
    base = dict(
        dataset="ring",
        limit=256,
        latent_dim=2,
        enc_hidden=(16,),
        dec_hidden=(16,),
        regularizer="w2",
        lam=1.0,
        prior_stats="sampled",
        batch_size=32,
        steps=30,
        seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base).validate()


class Draws:
    """An `Rng` stand-in whose normal draws are the given batches, in order."""

    def __init__(self, *batches):
        self.batches = list(batches)

    def normal(self, n, ell):
        batch = self.batches.pop(0)
        assert batch.shape == (n, ell)
        return batch


def prior_for(cfg, z_prior):
    """The prior batch (None where the regularizer draws none) and the prior
    terms that the config's regularizer entry takes from `z_prior`."""
    return models.REGULARIZERS[cfg.regularizer].prior(cfg, Draws(z_prior), *z_prior.shape)


def fresh_state(cfg):
    ds = load_dataset(cfg, Rng(cfg.seed).split(3))
    state = init_train_state(cfg, ds.dim, ds.image_shape)
    return state, ds


class TestEncode:
    def test_zero_weight_net(self):
        p = nn.MlpParams([np.zeros((4, 3))], [np.zeros(4)])
        out = encode(p, np.ones((2, 3)))
        np.testing.assert_array_equal(out.mu, np.zeros((2, 2)))
        np.testing.assert_array_equal(out.logvar, np.zeros((2, 2)))

    def test_head_split_hand_values(self):
        # single linear layer: first half of outputs = mu, second = logvar
        w = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
        p = nn.MlpParams([w], [np.zeros(4)])
        out = encode(p, np.array([[3.0, -1.0]]))
        np.testing.assert_array_equal(out.mu, [[3.0, -1.0]])
        np.testing.assert_array_equal(out.logvar, [[6.0, -2.0]])

    def test_logvar_clamped(self):
        w = np.array([[0.0, 0.0], [0.0, 0.0], [100.0, 0.0], [-100.0, 0.0]])
        p = nn.MlpParams([w], [np.zeros(4)])
        out = encode(p, np.array([[5.0, 0.0]]))
        np.testing.assert_array_equal(out.logvar, [[30.0, -30.0]])

    def test_deterministic(self):
        cfg = ring_config()
        state, ds = fresh_state(cfg)
        a = encode(state.model.enc, ds.examples[:10])
        b = encode(state.model.enc, ds.examples[:10])
        np.testing.assert_array_equal(a.mu, b.mu)


class TestReparameterize:
    def test_eps_zero(self):
        out = EncoderOut(np.array([[1.0, 2.0]]), np.array([[0.3, -1.0]]))
        np.testing.assert_array_equal(reparameterize(out, np.zeros((1, 2))), out.mu)

    def test_standard_noise_passthrough(self):
        eps = np.array([[0.7, -0.2]])
        out = EncoderOut(np.zeros((1, 2)), np.zeros((1, 2)))
        np.testing.assert_array_equal(reparameterize(out, eps), eps)

    def test_hand_value(self):
        out = EncoderOut(np.array([[1.0]]), np.array([[2.0 * np.log(2.0)]]))
        z = reparameterize(out, np.array([[0.5]]))
        np.testing.assert_allclose(z, [[2.0]])

    def test_shape_mismatch(self):
        out = EncoderOut(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            reparameterize(out, np.zeros((2, 3)))


# NaN, infinities, both zeros, the log-variance bounds and values just
# past them, and ordinary values.
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 30.0, -30.0, 30.5, -30.5, 1e3, -1e3, 0.7, -1.3]


class TestInPlaceBits:
    # encode, reparameterize and recon_error against the same formulas
    # written with a temporary per step.

    def test_encode_clamp(self, monkeypatch):
        k = len(SPECIAL)
        y = np.array([[SPECIAL[(i + j) % k] for j in range(2 * k)] for i in range(k)])
        # the trunk output is set directly: no layer could emit -0.0 here
        monkeypatch.setattr(nn, "mlp_forward", lambda params, x, start=0: (y.copy(), None))
        out = encode(None, None)
        assert_same_bits(out.mu, y[:, :k])
        assert_same_bits(out.logvar, np.clip(y[:, k:], -30.0, 30.0))

    def test_reparameterize(self):
        triples = np.array(list(itertools.product(SPECIAL, repeat=3)))
        out = EncoderOut(triples[:, :1], triples[:, 1:2])
        eps = triples[:, 2:].copy()
        with np.errstate(all="ignore"):
            want = out.mu + np.exp(0.5 * out.logvar) * eps
            got = reparameterize(out, eps)
        assert_same_bits(got, want)
        assert type(got) is np.ndarray and got.flags.c_contiguous

    @pytest.mark.parametrize("value", SPECIAL)
    def test_recon_error(self, value):
        rng = Rng(3)
        x, x_hat = rng.uniform(64, 50), rng.uniform(64, 50)
        x[5, 7], x_hat[9, 1], x_hat[0, 0] = value, value, -0.0
        for a, b in ((x, x_hat), (x_hat, x), (x[:1, :1], x_hat[:1, :1])):
            with np.errstate(all="ignore"):
                want = float(np.mean(np.sum((a - b) ** 2, axis=1)))
                got = models.recon_error(a, b)
            assert type(got) is float
            assert_same_bits(got, want)


def linear_model(enc_w, enc_b, dec_w, dec_b) -> Model:
    """One identity layer each way, with the given weights and biases."""
    enc = nn.MlpParams([np.array(enc_w, float)], [np.array(enc_b, float)])
    dec = nn.MlpParams([np.array(dec_w, float)], [np.array(dec_b, float)])
    return Model(enc, dec, np.shape(dec_w)[1], "identity")


# Five codes around their mean whose unbiased covariance is exactly I.
UNIT_SPREAD = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]])
EXACT_PRIOR = (GaussStats(np.zeros(2), np.eye(2)), np.eye(2))  # statistics and root


class TestLosses:
    """Each objective through `loss_and_grads` on hand-built linear nets."""

    def test_wwae_perfect_match_is_zero(self):
        # mu = x, logvar = 0, eps = 0 and an identity decoder: x_hat = x,
        # and the prior statistics are those of the codes
        x = np.random.default_rng(0).normal(size=(4, 3))
        model = linear_model(np.vstack([np.eye(3), np.zeros((3, 3))]), np.zeros(6), np.eye(3), np.zeros(3))
        cfg = ring_config(latent_dim=3, lam=5.0, w2_variant="bures")
        parts, _ = loss_and_grads(model, cfg, x, np.zeros((4, 3)), *prior_for(cfg, x))
        assert parts.total == 0.0 and parts.recon == 0.0 and parts.reg == 0.0

    def test_wwae_lambda_zero(self):
        # codes with mean (1, 1) and covariance I against N(0, I); x_hat = 0
        model = linear_model(np.zeros((4, 2)), [1.0, 1.0, 0.0, 0.0], np.zeros((2, 2)), np.zeros(2))
        cfg = ring_config(lam=0.0, w2_variant="bures", prior_stats="exact")
        parts, _ = loss_and_grads(model, cfg, np.ones((5, 2)), UNIT_SPREAD, None, EXACT_PRIOR)
        assert parts.total == parts.recon == 2.0
        assert parts.reg == 2.0  # reported even though unweighted

    def test_wwae_hand_sum(self):
        model = linear_model(np.zeros((4, 2)), [3.0, 4.0, 0.0, 0.0], np.zeros((2, 2)), np.zeros(2))
        cfg = ring_config(lam=2.0, prior_stats="exact")
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        parts, _ = loss_and_grads(model, cfg, x, UNIT_SPREAD, None, EXACT_PRIOR)
        assert abs(parts.recon - 1.0) < 1e-12
        assert abs(parts.reg - 25.0) < 1e-12
        assert abs(parts.total - 51.0) < 1e-12

    def test_vae_reg_zero_at_prior(self):
        # mu = 0, logvar = 0, and a constant decoder that outputs x
        model = linear_model(np.zeros((4, 2)), np.zeros(4), np.zeros((2, 2)), np.ones(2))
        eps = Rng(3).normal(3, 2)
        parts, _ = loss_and_grads(model, ring_config(regularizer="kl"), np.ones((3, 2)), eps, None, None)
        assert parts.reg == 0.0 and parts.total == 0.0

    def test_vae_beta_zero(self):
        model = linear_model(np.zeros((4, 2)), [1.0, 1.0, 0.0, 0.0], np.zeros((2, 2)), np.zeros(2))
        cfg = ring_config(regularizer="kl", lam=0.0)
        parts, _ = loss_and_grads(model, cfg, np.ones((2, 2)), np.zeros((2, 2)), None, None)
        assert parts.total == parts.recon
        assert parts.reg == 1.0

    def test_vae_hand_kl(self):
        model = linear_model(np.zeros((2, 1)), [1.0, 0.0], np.zeros((1, 1)), np.zeros(1))
        cfg = ring_config(regularizer="kl", latent_dim=1)
        parts, _ = loss_and_grads(model, cfg, np.zeros((1, 1)), np.zeros((1, 1)), None, None)
        assert abs(parts.reg - 0.5) < 1e-12

    def test_mmd_permutation_invariance(self):
        cfg = ring_config(regularizer="mmd")
        state, ds = fresh_state(cfg)
        x = ds.examples[:4]
        eps, z_prior = Rng(8).normal(4, 2), Rng(9).normal(4, 2)
        perm = [2, 0, 3, 1]  # permutes the codes
        a, _ = loss_and_grads(state.model, cfg, x, eps, *prior_for(cfg, z_prior))
        b, _ = loss_and_grads(state.model, cfg, x[perm], eps[perm], *prior_for(cfg, z_prior))
        assert abs(a.reg - b.reg) < 1e-12

    def test_mmd_lambda_zero(self):
        cfg = ring_config(regularizer="mmd", lam=0.0)
        state, ds = fresh_state(cfg)
        rng = Rng(9)
        eps, z_prior = rng.normal(4, 2), rng.normal(4, 2)
        parts, _ = loss_and_grads(state.model, cfg, ds.examples[:4], eps, *prior_for(cfg, z_prior))
        assert parts.total == parts.recon


class TestBuildModel:
    def test_widths_and_activations(self):
        cfg = ring_config(latent_dim=3, enc_hidden=(8, 4), dec_hidden=(5,))
        m = build_model(cfg, data_dim=7, rng=Rng(1), image_data=False)
        assert m.enc.widths == [7, 8, 4, 6]  # 2 * latent_dim heads
        assert m.dec.widths == [3, 5, 7]
        # Zero weights and biases of -1: a ReLU hidden layer passes on 0,
        # and the linear output layer gives its bias.
        for net in (m.enc, m.dec):
            for w, b in zip(net.weights, net.biases):
                w[...] = 0.0
                b[...] = -1.0
            y, inputs = nn.mlp_forward(net, np.ones((1, net.widths[0])))
            assert all(np.all(a == 0.0) for a in inputs[1:])
            np.testing.assert_array_equal(y, -np.ones((1, net.widths[-1])))
        assert m.output_activation == "identity"

    def test_image_flag_selects_sigmoid(self):
        cfg = ring_config()
        m = build_model(cfg, 4, Rng(1), image_data=True)
        assert m.output_activation == "sigmoid"


class TestArena:
    def test_networks_are_views_of_theta(self):
        cfg = ring_config(enc_hidden=(8, 4), dec_hidden=(5,))
        m = build_model(cfg, data_dim=3, rng=Rng(1), image_data=False)
        n_enc = m.enc.n_params()
        assert m.theta.size == n_enc + m.dec.n_params()
        assert m.theta[:n_enc].tobytes() == nn.flatten_params(m.enc).tobytes()
        assert m.theta[n_enc:].tobytes() == nn.flatten_params(m.dec).tobytes()
        for a in m.enc.weights + m.enc.biases + m.dec.weights + m.dec.biases:
            assert np.shares_memory(a, m.theta)
        m.theta[n_enc] = 5.0  # first decoder weight
        assert m.dec.weights[0][0, 0] == 5.0
        m.enc.biases[-1][:] = -1.0
        assert np.all(m.theta[n_enc - 2 * cfg.latent_dim : n_enc] == -1.0)

    def test_init_draws_unchanged(self):
        cfg = ring_config(enc_hidden=(8, 4), dec_hidden=(5,))
        m = build_model(cfg, data_dim=3, rng=Rng(1), image_data=False)
        rng = Rng(1)
        for net in (m.enc, m.dec):
            ref = nn.init_params(rng, net.widths)
            assert nn.flatten_params(ref).tobytes() == nn.flatten_params(net).tobytes()

    @pytest.mark.parametrize("reg", ["w2", "kl", "mmd"])
    def test_grads_equal_on_a_copy_without_arena(self, reg):
        cfg = ring_config(regularizer=reg, enc_hidden=(16, 8), dec_hidden=(8, 16))
        state, ds = fresh_state(cfg)
        m = state.model
        n_enc = m.enc.n_params()
        copy = Model(
            nn.unflatten_params(m.theta[:n_enc], m.enc),
            nn.unflatten_params(m.theta[n_enc:], m.dec),
            m.latent_dim,
            m.output_activation,
        )
        assert copy.theta is None
        x = ds.examples[: cfg.batch_size]
        z_prior, prior_stats, eps = draw_step_noise(cfg, Rng(4), cfg.batch_size, 2)
        pa, ga = loss_and_grads(m, cfg, x, eps, z_prior, prior_stats)
        pb, gb = loss_and_grads(copy, cfg, x, eps, z_prior, prior_stats)
        assert pa == pb
        assert ga.flat.tobytes() == gb.flat.tobytes()
        assert ga.enc.tobytes() + ga.dec.tobytes() == ga.flat.tobytes()

    def test_step_allocates_under_twice_the_parameters(self):
        # image-sized model: 784-256-64-16 / 8-64-256-784, batch 64
        cfg = ring_config(latent_dim=8, enc_hidden=(256, 64), dec_hidden=(64, 256), batch_size=64)
        state = init_train_state(cfg, 784, (28, 28))
        x = Rng(5).uniform(64, 784)
        for _ in range(2):  # the first step allocates the Adam moments
            train_step(state, x)
        tracemalloc.start()
        try:
            train_step(state, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * state.model.theta.nbytes


class TestLossAndGrads:
    def test_lambda_zero_ignores_prior(self):
        # with lam=0 the regularizer contributes no gradient, so two very
        # different prior batches must produce identical parameter grads
        cfg = ring_config(lam=0.0)
        state, ds = fresh_state(cfg)
        x = ds.examples[: cfg.batch_size]
        eps = Rng(77).normal(cfg.batch_size, cfg.latent_dim)
        prior_a = Rng(1).normal(cfg.batch_size, cfg.latent_dim)
        prior_b = 100.0 + Rng(2).normal(cfg.batch_size, cfg.latent_dim)
        pa, ga = loss_and_grads(state.model, cfg, x, eps, *prior_for(cfg, prior_a))
        pb, gb = loss_and_grads(state.model, cfg, x, eps, *prior_for(cfg, prior_b))
        np.testing.assert_array_equal(ga.enc, gb.enc)
        np.testing.assert_array_equal(ga.dec, gb.dec)
        assert pa.recon == pb.recon

    def test_reports_match_loss_functions(self):
        # the reported terms against the forward written out step by step
        cfg = ring_config(prior_stats="exact", lam=3.0)
        state, ds = fresh_state(cfg)
        x = ds.examples[: cfg.batch_size]
        eps = Rng(5).normal(cfg.batch_size, cfg.latent_dim)
        stats = GaussStats(np.zeros(2), np.eye(2))
        parts, _ = loss_and_grads(state.model, cfg, x, eps, None, (stats, np.eye(2)))
        out = encode(state.model.enc, x)
        z = reparameterize(out, eps)
        recon = float(np.mean(np.sum((x - decode(state.model, z)) ** 2, axis=1)))
        reg = gaussian_w2(stats, batch_stats(z), W2Variant.ROOT_PRODUCT)
        assert (parts.recon, parts.reg) == (recon, reg)
        assert parts.total == recon + 3.0 * reg

    def test_lambda_zero_grads_equal_across_regularizers(self):
        # unweighted, no regularizer may touch the gradient, not even by
        # adding zeros
        x = fresh_state(ring_config())[1].examples[:32]
        eps, z_prior = Rng(6).normal(32, 2), Rng(7).normal(32, 2)
        flats = set()
        for reg in config.REGULARIZERS:
            cfg = ring_config(regularizer=reg, lam=0.0)
            state, _ = fresh_state(cfg)
            _, grads = loss_and_grads(state.model, cfg, x, eps, *prior_for(cfg, z_prior))
            flats.add(grads.flat.tobytes())
        assert len(flats) == 1

    def test_mmd_builds_each_kernel_matrix_once(self, monkeypatch):
        # kxx once in the prior entry, kyy and kxy once each in the loss;
        # the separate value and gradient calls built kyy and kxy twice
        calls = []
        kernel = divergences._imq_kernel

        def counted(a, a_sq, b, b_sq, c):
            calls.append((a.shape[0], b.shape[0]))
            return kernel(a, a_sq, b, b_sq, c)

        monkeypatch.setattr(divergences, "_imq_kernel", counted)
        cfg = ring_config(regularizer="mmd")
        state, ds = fresh_state(cfg)
        x = ds.examples[:6]
        eps, z_prior = Rng(8).normal(6, 2), Rng(9).normal(5, 2)
        loss_and_grads(state.model, cfg, x, eps, *prior_for(cfg, z_prior))
        assert calls == [(5, 5), (6, 6), (5, 6)]

    def test_table_covers_every_configurable_regularizer(self):
        assert set(models.REGULARIZERS) == set(config.REGULARIZERS)


REG_CASES = [
    *(
        dict(regularizer="w2", w2_variant=v, prior_stats=p)
        for v in config.W2_VARIANTS
        for p in config.PRIOR_STATS
    ),
    dict(regularizer="kl"),
    dict(regularizer="mmd"),
]


def loss_inputs(cfg, image_data):
    """The `loss_and_grads` arguments for a model built from `cfg`, a batch
    of 12 rows and one step's noise."""
    if image_data:
        x = Rng(11).uniform(12, 9)
    else:
        x = load_dataset(cfg, Rng(cfg.seed).split(3)).examples[:12]
    model = build_model(cfg, x.shape[1], Rng(4), image_data)
    z_prior, prior_stats, eps = draw_step_noise(cfg, Rng(5), 12, cfg.latent_dim)
    return model, cfg, x, eps, z_prior, prior_stats


class TestLossOnly:
    @pytest.mark.parametrize("image_data", [False, True], ids=["ring", "sigmoid"])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize(
        "case", REG_CASES, ids=lambda c: "-".join(map(str, c.values()))
    )
    def test_parts_equal_the_full_call_bit_for_bit(self, case, lam, image_data):
        args = loss_inputs(ring_config(lam=lam, **case), image_data)
        full, grads = loss_and_grads(*args)
        only, none = loss_and_grads(*args, probe=(grads.forward, "enc", 0))
        assert grads is not None and none is None
        assert np.array(astuple(only)).tobytes() == np.array(astuple(full)).tobytes()

    def test_mmd_kernel_constant_comes_with_the_prior_terms(self):
        # the step's prior terms carry C; the loss reads no mmd_scale after
        # the noise draw, full or loss-only
        cfg = ring_config(regularizer="mmd", mmd_scale=0.5)
        args = loss_inputs(cfg, False)
        full, grads = loss_and_grads(*args)
        only, _ = loss_and_grads(*args, probe=(grads.forward, "enc", 0))
        cfg.mmd_scale = 0.0  # bypasses validate
        full_after, grads_after = loss_and_grads(*args)
        only_after, _ = loss_and_grads(*args, probe=(grads.forward, "enc", 0))
        for got, want in ((full_after, full), (only_after, only)):
            assert np.array(astuple(got)).tobytes() == np.array(astuple(want)).tobytes()
        assert grads_after.flat.tobytes() == grads.flat.tobytes()

    def test_value_only_mmd_builds_three_kernels_and_no_gradient(self, monkeypatch):
        calls = []
        kernel = divergences._imq_kernel

        def counted(a, a_sq, b, b_sq, c):
            calls.append((a.shape[0], b.shape[0]))
            return kernel(a, a_sq, b, b_sq, c)

        def no_gradient(*args):
            raise AssertionError("value-only call computed the MMD gradient")

        monkeypatch.setattr(divergences, "_imq_kernel", counted)
        args = loss_inputs(ring_config(regularizer="mmd"), False)
        record = loss_and_grads(*args)[1].forward
        del calls[1:]  # keep the noise draw's kxx, drop the gradient call's kernels
        monkeypatch.setattr(divergences, "mmd_imq_value_and_grad", no_gradient)
        assert loss_and_grads(*args, probe=(record, "enc", 0))[1] is None
        assert calls == [(12, 12)] * 3

    @pytest.mark.parametrize("variant", config.W2_VARIANTS)
    @pytest.mark.parametrize("prior", config.PRIOR_STATS)
    def test_value_only_w2_takes_no_gradient(self, monkeypatch, variant, prior):
        calls = []
        for module, name in ((divergences, "grad_trace_sqrtm"), (spectral, "batch_stats_backward")):
            fn = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a)
            )
        args = loss_inputs(ring_config(w2_variant=variant, prior_stats=prior), False)
        _, grads = loss_and_grads(*args)  # the spies see the full call
        assert calls == ["grad_trace_sqrtm", "batch_stats_backward"]
        calls.clear()
        assert loss_and_grads(*args, probe=(grads.forward, "enc", 0))[1] is None
        assert calls == []


class TestPriorTerms:
    @pytest.mark.parametrize("case", REG_CASES, ids=lambda c: "-".join(map(str, c.values())))
    def test_loss_takes_nothing_from_the_prior(self, monkeypatch, case):
        # the prior terms come from `draw_step_noise`; no loss call, full,
        # loss-only or probe, decomposes the prior covariance or builds kxx
        args = loss_inputs(ring_config(enc_hidden=(5, 4), **case), False)

        def forbidden(*a):
            raise AssertionError("loss_and_grads took a term from the prior alone")

        for module, name in PRIOR_ONLY:
            monkeypatch.setattr(module, name, forbidden)
        _, grads = loss_and_grads(*args)
        for layer in range(3):
            loss_and_grads(*args, probe=(grads.forward, "enc", layer))


class TestTrainStep:
    def test_deterministic_sequences(self):
        cfg = ring_config(steps=20)

        def run():
            state, ds = fresh_state(cfg)
            stream = batches(ds, cfg.batch_size, state.data_rng)
            return [train_step(state, next(stream)).total for _ in range(cfg.steps)]

        assert run() == run()

    @pytest.mark.parametrize("reg,variant", [("w2", "root_product"), ("w2", "bures"), ("kl", "root_product"), ("mmd", "root_product")])
    def test_all_regularizers_step(self, reg, variant):
        cfg = ring_config(regularizer=reg, w2_variant=variant, steps=3)
        state, ds = fresh_state(cfg)
        stream = batches(ds, cfg.batch_size, state.data_rng)
        for k in range(3):
            parts = train_step(state, next(stream))
            assert np.isfinite(parts.total)
            assert state.step == k + 1
        # one optimizer steps the encoder and the decoder together
        assert state.adam.t == 3
        assert state.adam.m.size == state.adam.v.size == state.model.theta.size

    @pytest.mark.parametrize("variant", ["root_product", "bures"])
    @pytest.mark.parametrize("prior", ["sampled", "exact"])
    def test_w2_step_eigh_calls(self, monkeypatch, variant, prior):
        # one decomposition of the codes' covariance (root_product) or of
        # the sandwich (bures), shared by the value and the gradient, and
        # one of the sampled prior covariance; the exact prior's is I
        calls = []
        eigh = spectral.eigh
        monkeypatch.setattr(spectral, "eigh", lambda a: calls.append(a) or eigh(a))
        cfg = ring_config(w2_variant=variant, prior_stats=prior)
        state, ds = fresh_state(cfg)
        train_step(state, ds.examples[: cfg.batch_size])
        assert len(calls) == (1 if prior == "exact" else 2)

    def test_effective_lr_reported(self, monkeypatch):
        # each update runs at the rate the log line reports, lr_at(step - 1)
        used = []
        adam_step = nn.adam_step
        monkeypatch.setattr(nn, "adam_step", lambda *a: used.append(a[3]) or adam_step(*a))
        cfg = ring_config(steps=2, decay_every=1, decay_factor=0.5, lr=0.004)
        state, ds = fresh_state(cfg)
        stream = batches(ds, cfg.batch_size, state.data_rng)
        for _ in range(2):
            train_step(state, next(stream))
            assert used[-1] == cfg.lr_at(state.step - 1)
        assert used == [0.004, 0.002]

    def test_divergence_raises_with_diagnostics(self):
        cfg = ring_config(lr=1e150, steps=10, prior_stats="exact", lam=10.0)
        state, ds = fresh_state(cfg)
        stream = batches(ds, cfg.batch_size, state.data_rng)
        with pytest.raises(TrainingDiverged, match="non-finite loss at step"):
            for _ in range(cfg.steps):
                train_step(state, next(stream))

    def test_loss_trend_downward(self):
        cfg = ring_config(limit=2048, batch_size=64, steps=500, lam=1.0, seed=1)
        state, ds = fresh_state(cfg)
        stream = batches(ds, cfg.batch_size, state.data_rng)
        totals = [train_step(state, next(stream)).total for _ in range(500)]
        assert np.median(totals[400:500]) < np.median(totals[0:100])

    def test_latent_moments_approach_prior(self):
        # strong exact-prior W2 pressure pulls batch stats toward (0, I)
        cfg = ring_config(
            limit=2048, batch_size=256, steps=800, lam=100.0, prior_stats="exact", seed=1
        )
        state, ds = fresh_state(cfg)
        stream = batches(ds, cfg.batch_size, state.data_rng)
        for _ in range(cfg.steps):
            train_step(state, next(stream))
        out = encode(state.model.enc, ds.examples[:1024])
        z = reparameterize(out, Rng(123).normal(1024, 2))
        stats = batch_stats(z)
        assert np.linalg.norm(stats.mean) < 0.1
        assert np.linalg.norm(stats.cov - np.eye(2)) < 0.3


class TestGenerateReconstruct:
    def test_zero_weight_decoder_constant(self):
        cfg = ring_config()
        state, _ = fresh_state(cfg)
        for i in range(len(state.model.dec.weights)):
            state.model.dec.weights[i][:] = 0.0
            state.model.dec.biases[i][:] = 0.0
        state.model.dec.biases[-1][:] = 0.75
        samples = generate(state.model, Rng(4), 5)
        np.testing.assert_array_equal(samples, np.full((5, 2), 0.75))

    def test_same_seed_identical(self):
        cfg = ring_config()
        state, _ = fresh_state(cfg)
        np.testing.assert_array_equal(
            generate(state.model, Rng(6), 7), generate(state.model, Rng(6), 7)
        )

    def test_image_outputs_clamped(self):
        cfg = ring_config(latent_dim=2)
        m = build_model(cfg, 9, Rng(2), image_data=True)
        x = generate(m, Rng(3), 11)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_sigmoid_and_clamp_match_textbook_bits(self):
        # decode and generate work in place; they must give the bits of the
        # expression written out with temporaries.
        m = build_model(ring_config(latent_dim=3), 9, Rng(2), image_data=True)
        m.dec.biases[-1][:] = np.linspace(-40.0, 40.0, 9)  # some outputs saturate
        z = Rng(4).normal(50, 3)
        y, _ = nn.mlp_forward(m.dec, z)
        want = np.clip(1 / (1 + np.exp(-y)), 0, 1)
        assert decode(m, z).tobytes() == want.tobytes()
        assert generate(m, Rng(4), 50).tobytes() == want.tobytes()

    def test_generate_equals_decode_at_extreme_logits(self):
        # the sigmoid already lies in [+0, 1] or is NaN, so generate adds no clamp
        ell = 3
        logits = np.array([1e3, -1e3, np.inf, -np.inf, np.nan, 0.0, -0.0, 40.0, -40.0])
        enc = nn.MlpParams([np.zeros((2 * ell, 9))], [np.zeros(2 * ell)])
        dec = nn.MlpParams([np.zeros((9, ell))], [logits])
        m = Model(enc, dec, ell, "sigmoid")
        with np.errstate(over="ignore"):
            x = generate(m, Rng(4), 6)
            want = decode(m, Rng(4).normal(6, ell))
        assert_same_bits(x, want)
        assert np.isnan(x[:, 4]).all()
        assert np.array_equal(x[:, :4], np.tile([1.0, 0.0, 1.0, 0.0], (6, 1)))
        finite = np.delete(x, 4, axis=1)
        assert (finite >= 0.0).all() and (finite <= 1.0).all()
        assert not np.signbit(finite).any()

    def test_reconstruct_uses_posterior_mean(self):
        cfg = ring_config()
        state, ds = fresh_state(cfg)
        x = ds.examples[:6]
        out = encode(state.model.enc, x)
        np.testing.assert_array_equal(
            reconstruct(state.model, x), decode(state.model, out.mu)
        )


class TestDrawStepNoise:
    def test_exact_prior_skips_prior_draw(self):
        cfg = ring_config(prior_stats="exact")
        z_prior, (stats, root), eps1 = draw_step_noise(cfg, Rng(10), 4, 2)
        assert z_prior is None
        np.testing.assert_array_equal(stats.mean, np.zeros(2))
        np.testing.assert_array_equal(stats.cov, np.eye(2))
        np.testing.assert_array_equal(root, np.eye(2))
        # eps comes first in the stream when no prior batch is drawn
        np.testing.assert_array_equal(eps1, Rng(10).normal(4, 2))

    def test_sampled_prior_order(self):
        cfg = ring_config(prior_stats="sampled")
        z_prior, _, eps = draw_step_noise(cfg, Rng(10), 4, 2)
        ref = Rng(10)
        np.testing.assert_array_equal(z_prior, ref.normal(4, 2))
        np.testing.assert_array_equal(eps, ref.normal(4, 2))

    def test_mmd_prior_order(self):
        z_prior, _, eps = draw_step_noise(ring_config(regularizer="mmd"), Rng(10), 4, 2)
        ref = Rng(10)
        np.testing.assert_array_equal(z_prior, ref.normal(4, 2))
        np.testing.assert_array_equal(eps, ref.normal(4, 2))

    def test_kl_draws_no_prior_batch(self):
        z_prior, stats, eps = draw_step_noise(ring_config(regularizer="kl"), Rng(10), 4, 2)
        assert z_prior is None and stats is None
        np.testing.assert_array_equal(eps, Rng(10).normal(4, 2))

    @pytest.mark.parametrize("case", REG_CASES, ids=lambda c: "-".join(map(str, c.values())))
    def test_prior_terms_equal_the_written_out_expressions(self, case):
        # what each entry takes from the prior alone, against the
        # expressions the loss used to evaluate on each call
        cfg = ring_config(latent_dim=3, mmd_scale=0.5, **case)
        z_prior, prior, eps = draw_step_noise(cfg, Rng(12), 9, 3)
        ref = Rng(12)
        if cfg.regularizer == "kl" or cfg.prior_stats == "exact":
            assert z_prior is None
        else:
            assert z_prior.tobytes() == ref.normal(9, 3).tobytes()
        assert eps.tobytes() == ref.normal(9, 3).tobytes()
        if cfg.regularizer == "kl":
            want = None
        elif cfg.regularizer == "mmd":
            want = divergences.imq_prior_side(z_prior, 0.5)
        elif cfg.prior_stats == "exact":
            want = (GaussStats(np.zeros(3), np.eye(3)), np.eye(3))
        else:
            stats = batch_stats(z_prior)
            want = (stats, spectral.sqrtm_psd(stats.cov))
        assert (prior is None) == (want is None)
        assert prior_bytes(prior) == prior_bytes(want)

    @pytest.mark.parametrize("d", [1, 2, 8, 16, 64])
    def test_exact_prior_takes_no_eigh(self, monkeypatch, d):
        # I is its own root, bit for bit, so the entry decomposes nothing
        calls = []
        eigh = spectral.eigh
        monkeypatch.setattr(spectral, "eigh", lambda a: calls.append(a) or eigh(a))
        cfg = ring_config(prior_stats="exact", latent_dim=d)
        _, (stats, root), _ = draw_step_noise(cfg, Rng(1), 8, d)
        assert calls == []
        assert root.tobytes() == spectral.sqrtm_psd(stats.cov).tobytes()


class TestCheckpoint:
    def test_roundtrip_preserves_everything(self, tmp_path):
        cfg = ring_config(steps=12)
        state, ds = fresh_state(cfg)
        stream = batches(ds, cfg.batch_size, state.data_rng)
        for _ in range(12):
            train_step(state, next(stream))
        p = tmp_path / "model.ckpt"
        save_checkpoint(p, state)
        back = load_checkpoint(p)

        assert back.config == cfg
        assert back.step == 12
        assert back.image_shape is None
        for a, b in zip(state.model.enc.weights, back.model.enc.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(state.model.dec.weights, back.model.dec.weights):
            np.testing.assert_array_equal(a, b)
        n_enc = state.model.enc.n_params()
        np.testing.assert_array_equal(state.adam.m[:n_enc], back.adam.m[:n_enc])
        np.testing.assert_array_equal(state.adam.v[n_enc:], back.adam.v[n_enc:])
        np.testing.assert_array_equal(state.adam.m, back.adam.m)
        np.testing.assert_array_equal(state.adam.v, back.adam.v)
        assert back.adam.t == state.adam.t
        assert back.rng.state() == state.rng.state()
        assert back.data_rng.state() == state.data_rng.state()

    def test_bit_identical_continuation(self, tmp_path):
        cfg = ring_config(steps=30)

        def uninterrupted():
            state, ds = fresh_state(cfg)
            stream = batches(ds, cfg.batch_size, state.data_rng)
            return [train_step(state, next(stream)).total for _ in range(30)]

        state, ds = fresh_state(cfg)
        stream = batches(ds, cfg.batch_size, state.data_rng)
        first = [train_step(state, next(stream)).total for _ in range(20)]
        save_checkpoint(tmp_path / "mid.ckpt", state)

        resumed = load_checkpoint(tmp_path / "mid.ckpt")
        stream2 = batches(ds, cfg.batch_size, resumed.data_rng)
        rest = [train_step(resumed, next(stream2)).total for _ in range(10)]

        assert first + rest == uninterrupted()

    @pytest.mark.parametrize(
        "steps, image", [(0, False), (12, False), (0, True), (12, True)],
        ids=["0", "12", "image-0", "image-12"],
    )
    def test_save_load_save_is_byte_identical(self, tmp_path, steps, image):
        cfg = ring_config(steps=steps)
        if image:  # sigmoid output and an image shape
            state = init_train_state(cfg, 16, (4, 4))
            stream = itertools.repeat(Rng(5).uniform(cfg.batch_size, 16))
        else:
            state, ds = fresh_state(cfg)
            stream = batches(ds, cfg.batch_size, state.data_rng)
        for _ in range(steps):
            train_step(state, next(stream))
        save_checkpoint(tmp_path / "a.ckpt", state)
        back = load_checkpoint(tmp_path / "a.ckpt")
        save_checkpoint(tmp_path / "b.ckpt", back)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert back.model.output_activation == ("sigmoid" if image else "identity")

    @staticmethod
    def checkpoint_with_header(path, edit):
        """A fresh ring checkpoint whose JSON header `edit` has changed."""
        state, _ = fresh_state(ring_config())
        save_checkpoint(path, state)
        return edit_checkpoint_header(path, path, edit)

    @pytest.mark.parametrize("key", ["blocks", "enc", "dec", "config", "latent_dim"])
    def test_header_without_key_rejected(self, tmp_path, key):
        p = self.checkpoint_with_header(tmp_path / "model.ckpt", lambda m: m.pop(key))
        with pytest.raises(ValueError, match=f"header lacks {key}"):
            load_checkpoint(p)

    @pytest.mark.parametrize("blocks", [
        [["enc_params", 1], ["dec_params", 1]],
        [["enc_params", 1000], ["dec_params", 0], ["enc_m", 0], ["enc_v", 0],
         ["dec_m", 0], ["dec_v", 0]],
    ])
    def test_block_sizes_must_match_widths(self, tmp_path, blocks):
        p = self.checkpoint_with_header(
            tmp_path / "model.ckpt", lambda m: m.update(blocks=blocks)
        )
        with pytest.raises(ValueError, match="do not match networks"):
            load_checkpoint(p)

    WRONG_TYPES = {
        "enc": lambda m: m.update(enc=5),
        "widths-str": lambda m: m["enc"].update(widths="2,16,4"),
        "widths-float": lambda m: m["dec"].update(widths=[2, 16.0, 2]),
        "widths-zero": lambda m: m["dec"].update(widths=[2, 0, 2]),
        "widths-short": lambda m: m["enc"].update(widths=[2]),
        # a data width whose networks are too large to allocate
        "widths-huge": lambda m: m["dec"].update(widths=[2, 16, 10**10]),
        "image_shape": lambda m: m.update(image_shape=5),
        "image_shape-short": lambda m: m.update(image_shape=[28]),
        "config": lambda m: m.update(config="seed = 1"),
        "config-line": lambda m: m["config"].append(5),
        "config-lr": config_line("lr = fast"),
        "step": lambda m: m.update(step=[1]),
        "step-float": lambda m: m.update(step=0.0),
        "step-inf": lambda m: m.update(step=float("inf")),
        "step-bool": lambda m: m.update(step=False),
        "config-seed": config_line("seed = 1.5"),
        "config-limit": config_line("limit = 64.0"),
        "config-lambda-nan": config_line("lambda = nan"),
        "rng": lambda m: m.update(rng=5),
    }

    # Values of the right type that no saved state has, and the error each gives.
    OUT_OF_RANGE = {
        "negative-step": (lambda m: m.update(step=-5), "step must be >= 0, got -5"),
        # ring rows have 2 values
        "image_shape-width": (
            lambda m: m.update(image_shape=[2, 2]), r"image_shape \[2, 2\] does not fit 2-value"
        ),
    }

    @pytest.mark.parametrize("edit, message", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
    def test_header_value_out_of_range_rejected(self, tmp_path, edit, message):
        p = self.checkpoint_with_header(tmp_path / "model.ckpt", edit)
        with pytest.raises(ValueError, match=f"checkpoint {message}"):
            load_checkpoint(p)

    @pytest.mark.parametrize("edit", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
    def test_header_value_of_wrong_type_rejected(self, tmp_path, edit):
        p = self.checkpoint_with_header(tmp_path / "model.ckpt", edit)
        with pytest.raises(ValueError, match="checkpoint|config"):
            load_checkpoint(p)

    # Values of the right type that disagree with the networks and optimizer
    # the header's config describes, and the key the error names.
    INCONSISTENT = {
        "sigmoid-on-ring": (lambda m: m.update(output_activation="sigmoid"), "output_activation"),
        "bogus-output": (lambda m: m.update(output_activation="bogus"), "output_activation"),
        "config-width": (config_line("enc_hidden = 9"), "enc"),
        # a line that parses to the same value but is not the echo's form
        "config-form": (config_line("seed = 01"), "config"),
    }

    @pytest.mark.parametrize("edit, key", INCONSISTENT.values(), ids=INCONSISTENT.keys())
    def test_header_inconsistent_with_config_rejected(self, tmp_path, edit, key):
        p = self.checkpoint_with_header(tmp_path / "model.ckpt", edit)
        with pytest.raises(ValueError, match=f"built from its config: {key} is "):
            load_checkpoint(p)

    @staticmethod
    def trained_checkpoint(path):
        """A ring checkpoint after three steps, so all six blocks are filled,
        and the size of each block in bytes."""
        cfg = ring_config(steps=3)
        state, ds = fresh_state(cfg)
        stream = batches(ds, cfg.batch_size, state.data_rng)
        for _ in range(3):
            train_step(state, next(stream))
        save_checkpoint(path, state)
        n_enc, n_dec = state.model.enc.n_params(), state.model.dec.n_params()
        return [8 * n for n in (n_enc, n_dec, n_enc, n_enc, n_dec, n_dec)]

    @pytest.mark.parametrize(
        "block", ["enc_params", "dec_params", "enc_m", "enc_v", "dec_m", "dec_v"]
    )
    def test_cut_inside_each_block_rejected(self, tmp_path, block):
        p = tmp_path / "model.ckpt"
        sizes = self.trained_checkpoint(p)
        raw = p.read_bytes()
        i = ["enc_params", "dec_params", "enc_m", "enc_v", "dec_m", "dec_v"].index(block)
        start = len(raw) - sum(sizes) + sum(sizes[:i])
        p.write_bytes(raw[: start + sizes[i] // 2 + 3])
        with pytest.raises(ValueError, match=f"truncated: block '{block}' needs {sizes[i]} bytes"):
            load_checkpoint(p)

    def test_extra_byte_rejected(self, tmp_path):
        p = tmp_path / "model.ckpt"
        self.trained_checkpoint(p)
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="has 1 trailing bytes"):
            load_checkpoint(p)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        p = tmp_path / "model.ckpt"
        self.trained_checkpoint(p)
        before = p.read_bytes()
        state, _ = fresh_state(ring_config())
        train_step(state, Rng(1).normal(32, 2))
        # Moments that cannot be written as float64 make the save fail after
        # the header and both parameter blocks are written.
        state.adam.m = np.full(state.model.theta.size, "x")
        with pytest.raises(ValueError):
            save_checkpoint(p, state)
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"NOTACKPT\n{}\n")
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(p)

    def test_truncated_rejected(self, tmp_path):
        cfg = ring_config()
        state, _ = fresh_state(cfg)
        p = tmp_path / "model.ckpt"
        save_checkpoint(p, state)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "none.ckpt")
