import copy
import dataclasses
import hashlib
from dataclasses import astuple

import numpy as np
import pytest

from conftest import PRIOR_ONLY, corrupt_first_gradient, prior_bytes
from wwae import data, divergences, gradcheck, models, nn
from wwae.config import TrainConfig
from wwae.numerics import Rng


def tiny_config(**overrides):
    base = dict(
        dataset="ring",
        limit=64,
        latent_dim=2,
        enc_hidden=(6,),
        dec_hidden=(6,),
        regularizer="w2",
        lam=1.0,
        prior_stats="sampled",
        batch_size=8,
        seed=2,
    )
    base.update(overrides)
    return TrainConfig(**base).validate()


def check_rows(cfg, x, image_shape=None):
    """`check_model_grads` on rows x from the state a run of `cfg` starts in."""
    state = models.init_train_state(cfg, x.shape[1], image_shape)
    return gradcheck.check_model_grads(state, x)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(regularizer="w2", w2_variant="root_product"),
        dict(regularizer="w2", w2_variant="bures"),
        dict(regularizer="w2", w2_variant="root_product", prior_stats="exact"),
        dict(regularizer="kl"),
        dict(regularizer="mmd"),
    ],
)
def test_analytic_matches_finite_difference(overrides):
    res = gradcheck.check_config(tiny_config(**overrides))
    assert res.passed, res.report_line()
    assert res.max_rel_err <= 1e-4
    assert res.checked > 0


@pytest.mark.parametrize(
    "overrides, kind",
    [
        (dict(regularizer="w2", w2_variant="root_product"), "w2_root_product"),
        (dict(regularizer="w2", w2_variant="bures"), "w2_bures"),
        (dict(regularizer="kl"), "kl"),
        (dict(regularizer="mmd"), "mmd"),
    ],
)
def test_result_names_the_regularizer(overrides, kind):
    res = check_rows(tiny_config(**overrides), Rng(7).normal(8, 2))
    assert res.regularizer == kind


def test_image_path_with_sigmoid_output():
    cfg = tiny_config(regularizer="w2", prior_stats="exact")
    x = Rng(7).uniform(8, 9)
    res = check_rows(cfg, x, (3, 3))
    assert res.passed, res.report_line()


def test_corrupted_gradients_detected(monkeypatch):
    # negative control: a wrong gradient must trip the checker
    corrupt_first_gradient(monkeypatch, 0.5)
    res = gradcheck.check_config(tiny_config())
    assert not res.passed
    assert res.max_rel_err > 1e-4
    assert res.worst == "enc.W0[0,0]"


# The gradcheck net of scripts/artifact_digest.py (GRADCHECK_RING): two
# hidden layers per network, seed 2. On correct code seeds 3 and 4 of this
# net fail at a relative error of 1.00 across a ReLU kink, so it keeps seed 2.
def digest_ring(**overrides):
    return tiny_config(enc_hidden=(6, 5), dec_hidden=(5, 6), **overrides)


DIGEST_CASES = [
    dict(regularizer="w2", w2_variant="root_product", prior_stats="sampled"),
    dict(regularizer="w2", w2_variant="bures", prior_stats="exact"),
    dict(regularizer="mmd"),
    dict(regularizer="kl"),
]


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("case", DIGEST_CASES, ids=lambda c: "-".join(c.values()))
def test_log_variance_fault_fails_the_check(monkeypatch, case, faulty):
    # The fault scales the log-variance half of the encoder's output gradient
    # by 1.01; each check reads status=pass on the clean code and status=fail
    # with the fault (max_rel_err 4e-7 or less against 3.8e-2 to 1.02).
    backward = nn.mlp_backward

    def scaled(params, inputs, grad_y, out, input_grad=True):
        if not input_grad:  # the encoder's call
            grad_y = grad_y.copy()
            grad_y[:, grad_y.shape[1] // 2 :] *= 1.01
        return backward(params, inputs, grad_y, out, input_grad)

    if faulty:
        monkeypatch.setattr(nn, "mlp_backward", scaled)
    line = gradcheck.check_config(digest_ring(**case)).report_line()
    assert line.endswith("status=fail" if faulty else "status=pass"), line


def edited_check(monkeypatch, cfg, grad_idx, grad_value, probe_total):
    """`check_config(cfg)` with `grads.flat[grad_idx] = grad_value` in the
    analytic call and each probe's total replaced by `probe_total(i, total)`,
    counting probes i from 0: probe 2k bumps coordinate k up, 2k + 1 down.
    Returns the result, the edited gradient and every probe total."""
    loss_and_grads = models.loss_and_grads
    analytic, totals = [], []

    def edited(*args, **kwargs):
        parts, grads = loss_and_grads(*args, **kwargs)
        if grads is not None:
            grads.flat[grad_idx] = grad_value
            analytic.append(grads.flat.copy())
        else:
            parts = dataclasses.replace(parts, total=probe_total(len(totals), parts.total))
            totals.append(parts.total)
        return parts, grads

    monkeypatch.setattr(models, "loss_and_grads", edited)
    return gradcheck.check_config(cfg), analytic[0], totals


@pytest.mark.parametrize(
    "grad_idx, grad_value, probe_total, line",
    [
        # On clean code the worst is theta[107] (dec.W1[3,0]) of 119 checked.
        # A NaN analytic gradient at theta[18], under the floor on clean code,
        # is counted; a NaN difference at theta[107] is counted but the worst
        # moves on; one at theta[19], under the floor, stays skipped. The
        # line is the one the scalar loop this reduction replaced printed.
        ([18], np.nan, lambda i, t: np.nan if i in (2 * 107, 2 * 19) else t,
         "max_rel_err=9.946637e-09 worst=enc.W1[4,4] checked=120 tol=0.0001 status=pass"),
        # a zero analytic gradient against a nonzero difference is off by
        # exactly 1: at theta[2] and theta[40] a tie, which the first wins
        ([2, 40], 0.0, lambda i, t: t,
         "max_rel_err=1.000000e+00 worst=enc.W0[1,0] checked=119 tol=0.0001 status=fail"),
        # zero gradients and flat probes: every coordinate is under the floor
        (slice(None), 0.0, lambda i, t: 0.0,
         "max_rel_err=0.000000e+00 worst=none checked=0 tol=0.0001 status=pass"),
    ],
    ids=["nan", "tie", "none"],
)
def test_nan_tie_and_none_cases(monkeypatch, grad_idx, grad_value, probe_total, line):
    res = edited_check(monkeypatch, digest_ring(), grad_idx, grad_value, probe_total)[0]
    assert res.report_line() == f"regularizer=w2_root_product {line}"


def scalar_reduction(widths, a, fd):
    """The per-coordinate loop that the masked reduction replaced: its
    max_rel_err, worst and checked for the analytic gradient a and the
    differences fd of networks with these widths."""
    names = [
        name
        for net, ws in zip(("enc", "dec"), widths)
        for layer, (fan_in, fan_out) in enumerate(zip(ws[:-1], ws[1:]))
        for name in [f"{net}.W{layer}[{i},{j}]" for i, j in np.ndindex(fan_out, fan_in)]
        + [f"{net}.b{layer}[{i}]" for i in range(fan_out)]
    ]
    max_rel, worst, checked = 0.0, "none", 0
    for name, ak, fk in zip(names, a, fd):
        scale = max(abs(ak), abs(fk))
        if scale <= gradcheck.GRAD_FLOOR:
            continue
        rel = abs(ak - fk) / scale
        checked += 1
        if rel > max_rel:
            max_rel, worst = rel, name
    return max_rel, worst, checked


@pytest.mark.parametrize("seed", range(6))
def test_reduction_matches_the_scalar_loop(monkeypatch, seed):
    # NaN, infinite and zero analytic gradients (zeros tie at a relative
    # error of 1) and NaN or infinite probe totals, at random coordinates
    rng = np.random.default_rng(seed)
    cfg = tiny_config()
    widths = models.net_widths(cfg, 2)
    n = sum(nn.n_params(w) for w in widths)
    bad = dict(zip(rng.choice(2 * n, 6, replace=False), [np.nan, np.inf, -np.inf] * 2))
    values = [np.nan] * 3 + [np.inf, -np.inf] + [0.0] * 7
    with np.errstate(invalid="ignore"):
        res, a, totals = edited_check(
            monkeypatch, cfg, rng.choice(n, 12, replace=False), values, lambda i, t: bad.get(i, t)
        )
        fd = [(hi - lo) / (2.0 * gradcheck.FD_STEP) for hi, lo in zip(totals[::2], totals[1::2])]
        want = scalar_reduction(widths, a, fd)
    assert (res.max_rel_err, res.worst, res.checked) == want


def test_idx_check_reads_only_the_batch(monkeypatch, tmp_path):
    # IDX prefixes are exact, so the check converts only the batch_size rows
    # it uses and reports what it reports on the whole file
    blobs = data.make_blob_images(Rng(0), 40, side=5)
    path = tmp_path / "blobs-images-idx3"
    data.write_idx_images(path, blobs.examples, blobs.image_shape)
    cfg = tiny_config(dataset="idx", data_path=str(path), limit=32, regularizer="mmd")
    whole = data.load_idx(path, None, cfg.limit)
    want = check_rows(cfg, whole.examples[: cfg.batch_size], blobs.image_shape)
    loads = []
    load_idx = data.load_idx

    def spy(images_path, labels_path=None, limit=None):
        ds = load_idx(images_path, labels_path, limit)
        loads.append((limit, ds.examples.shape))
        return ds

    monkeypatch.setattr(data, "load_idx", spy)
    assert gradcheck.check_config(cfg) == want
    assert loads == [(8, (8, 25))]


def test_one_loss_evaluation_per_probe(monkeypatch):
    # the analytic pass, then two evaluations per parameter
    calls = []
    loss_and_grads = models.loss_and_grads
    monkeypatch.setattr(
        models, "loss_and_grads", lambda *a, **k: calls.append(1) or loss_and_grads(*a, **k)
    )
    cfg = tiny_config()
    gradcheck.check_config(cfg)
    n_params = sum(nn.n_params(w) for w in ([2, 6, 4], [2, 6, 2]))
    assert len(calls) == 1 + 2 * n_params


def test_one_backward_pair_per_check(monkeypatch):
    # the analytic pass runs the decoder and encoder backward; probes run none
    calls = []
    backward = nn.mlp_backward
    monkeypatch.setattr(
        nn, "mlp_backward", lambda *a, **k: calls.append(1) or backward(*a, **k)
    )
    gradcheck.check_config(tiny_config())
    assert len(calls) == 2


# sha256 of the float64 totals of every `loss_and_grads` call one check of
# `tiny_config()` makes (the analytic pass, then the probes in order), as
# computed before the probes stopped running a backward pass.
GOLDEN_TOTALS_SHA256 = "baf64f35db3b18af2bd80c5e36e61f22bf054a92ec7306b5f7ba0fc9adbe0945"


def test_probe_totals_golden(monkeypatch):
    totals = []
    loss_and_grads = models.loss_and_grads

    def recorded(*args, **kwargs):
        parts, grads = loss_and_grads(*args, **kwargs)
        totals.append(parts.total)
        return parts, grads

    monkeypatch.setattr(models, "loss_and_grads", recorded)
    res = gradcheck.check_config(tiny_config())
    assert len(totals) == 157
    assert hashlib.sha256(np.array(totals).tobytes()).hexdigest() == GOLDEN_TOTALS_SHA256
    assert res.max_rel_err.hex() == "0x1.aca126f1fe7f7p-26"


def test_report_line_format():
    res = gradcheck.check_config(tiny_config(regularizer="kl"))
    line = res.report_line()
    fields = dict(part.split("=", 1) for part in line.split())
    assert fields["regularizer"] == "kl"
    assert fields["status"] == "pass"
    assert float(fields["max_rel_err"]) == pytest.approx(res.max_rel_err, rel=1e-5)
    assert int(fields["checked"]) == res.checked


def test_worst_coordinate_is_addressable():
    res = gradcheck.check_config(tiny_config())
    net, rest = res.worst.split(".", 1)
    assert net in ("enc", "dec")
    assert rest[0] in ("W", "b")


# The probe reuse must not move a bit: every probe total of a check against
# a full loss-only forward at the same bumped parameters.
PROBE_CASES = [
    *(
        dict(regularizer="w2", w2_variant=v, prior_stats=p)
        for v in ("root_product", "bures")
        for p in ("sampled", "exact")
    ),
    dict(regularizer="kl"),
    dict(regularizer="mmd"),
]


def run_check(cfg, image_data):
    """One check of `cfg` on ring rows (identity output) or on 8 sigmoid-image
    rows of width 9."""
    if image_data:
        return check_rows(cfg, Rng(7).uniform(8, 9), (3, 3))
    return gradcheck.check_config(cfg)


def spy_probes(monkeypatch, on_probe):
    """Wrap `models.loss_and_grads`; `on_probe(args, kwargs, parts)` sees
    every probe. Returns the list the analytic call's result is appended to."""
    analytic = []
    loss_and_grads = models.loss_and_grads

    def spied(*args, **kwargs):
        result = loss_and_grads(*args, **kwargs)
        if "probe" not in kwargs:
            analytic.append(result)
        else:
            on_probe(args, kwargs, result[0])
        return result

    monkeypatch.setattr(models, "loss_and_grads", spied)
    return analytic


@pytest.mark.parametrize("image_data", [False, True], ids=["ring", "sigmoid"])
@pytest.mark.parametrize("hidden", [(), (5, 4, 3)], ids=["no-hidden", "three-hidden"])
@pytest.mark.parametrize("lam", [0.0, 10.0])
@pytest.mark.parametrize("case", PROBE_CASES, ids=lambda c: "-".join(c.values()))
def test_probe_totals_equal_full_forward(monkeypatch, case, lam, hidden, image_data):
    loss_and_grads = models.loss_and_grads
    probes = []

    def compare(args, kwargs, parts):
        full, none = loss_and_grads(*args, probe=(kwargs["probe"][0], "enc", 0))
        assert none is None
        probes.append(np.array(astuple(parts)).tobytes() == np.array(astuple(full)).tobytes())

    spy_probes(monkeypatch, compare)
    cfg = tiny_config(enc_hidden=hidden, dec_hidden=tuple(reversed(hidden)), lam=lam, **case)
    run_check(cfg, image_data)
    widths = models.net_widths(cfg, 9 if image_data else 2)
    assert len(probes) == 2 * sum(nn.n_params(w) for w in widths)
    assert all(probes)


def test_probes_recompute_only_from_the_bumped_layer(monkeypatch):
    # a decoder probe runs decoder layers L onward and nothing else; an
    # encoder probe runs encoder layers L onward, the whole decoder and the
    # regularizer, whose mmd prior term (kxx) the step's noise draw built
    work = []
    forward = nn.mlp_forward
    kernel = divergences._imq_kernel
    prior, term = models.REGULARIZERS["mmd"]
    monkeypatch.setattr(
        nn, "mlp_forward", lambda p, x, start=0: work.append((id(p), start)) or forward(p, x, start)
    )
    monkeypatch.setattr(
        divergences, "_imq_kernel", lambda *a: work.append("kernel") or kernel(*a)
    )
    monkeypatch.setitem(
        models.REGULARIZERS, "mmd",
        models.Regularizer(prior, lambda *a: work.append("reg") or term(*a)),
    )
    seen = {"enc": set(), "dec": set()}

    def check_work(args, kwargs, parts):
        enc, dec = id(args[0].enc), id(args[0].dec)
        if not any(seen.values()):  # the noise draw builds kxx, the analytic call the others
            assert work[:6] == ["kernel", (enc, 0), (dec, 0), "reg", "kernel", "kernel"]
            del work[:6]
        _, net, layer = kwargs["probe"]
        seen[net].add(layer)
        if net == "dec":
            assert work == [(dec, layer)]
        else:
            assert work == [(enc, layer), (dec, 0), "reg", "kernel", "kernel"]
        work.clear()

    analytic = spy_probes(monkeypatch, check_work)
    gradcheck.check_config(tiny_config(regularizer="mmd", enc_hidden=(5, 4), dec_hidden=(3,)))
    assert len(analytic) == 1
    assert seen == {"enc": {0, 1, 2}, "dec": {0, 1}}


def record_bytes(grads, prior):
    """Every value the analytic call's `Grads` (its gradient and record) and
    the prior terms hold, as bytes."""
    values = [grads.flat, *grads.enc_inputs, *grads.dec_inputs, grads.reg]
    return [np.asarray(v).tobytes() for v in values] + prior_bytes(prior)


@pytest.mark.parametrize("case", PROBE_CASES, ids=lambda c: "-".join(c.values()))
def test_probes_leave_the_record_unchanged(monkeypatch, case):
    snapshots = []
    loss_and_grads = models.loss_and_grads

    def spied(*args, **kwargs):
        parts, grads = loss_and_grads(*args, **kwargs)
        if grads is not None:  # the analytic call, before any probe runs
            snapshots.append((grads, args[5], record_bytes(grads, args[5])))
        return parts, grads

    monkeypatch.setattr(models, "loss_and_grads", spied)
    gradcheck.check_config(tiny_config(enc_hidden=(5, 4), dec_hidden=(4, 5), **case))
    ((grads, prior, before),) = snapshots
    assert record_bytes(grads, prior) == before


@pytest.mark.parametrize("case", PROBE_CASES, ids=lambda c: "-".join(c.values()))
def test_prior_terms_are_taken_once_per_check(monkeypatch, case):
    # the prior's root (sampled w2) or kxx term (mmd) is computed with the
    # noise, before the analytic call, and every probe reuses it
    events = []
    for module, name in PRIOR_ONLY:
        fn = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, fn=fn, name=name: events.append(name) or fn(*a)
        )
    loss_and_grads = models.loss_and_grads
    monkeypatch.setattr(
        models, "loss_and_grads", lambda *a, **k: events.append("loss") or loss_and_grads(*a, **k)
    )
    cfg = tiny_config(enc_hidden=(5, 4), dec_hidden=(4, 5), **case)
    gradcheck.check_config(cfg)
    if case["regularizer"] == "mmd":
        prior = ["imq_prior_side"]
    elif case.get("prior_stats") == "sampled":
        prior = ["sqrtm_psd"]
    else:
        prior = []
    n_params = sum(nn.n_params(w) for w in models.net_widths(cfg, 2))
    assert events == prior + ["loss"] * (1 + 2 * n_params)


@pytest.mark.parametrize("case", PROBE_CASES, ids=lambda c: "-".join(c.values()))
def test_checks_the_next_step_of_a_live_state(monkeypatch, case):
    # after k steps, a check on a copy of the state with its own rng checks
    # the loss the next train_step takes, and leaves the run's parameters,
    # Adam moments and noise stream as they were
    cfg = tiny_config(enc_hidden=(), dec_hidden=(), **case)
    dataset = data.load_dataset(cfg, Rng(cfg.seed).split(3))
    state = models.init_train_state(cfg, dataset.dim, None)
    stream = data.batches(dataset, cfg.batch_size, state.data_rng)
    for _ in range(5):
        models.train_step(state, next(stream))
    x = next(stream)
    before = [a.tobytes() for a in (state.model.theta, state.adam.m, state.adam.v)]
    analytic = spy_probes(monkeypatch, lambda *_: None)

    res = gradcheck.check_model_grads(dataclasses.replace(state, rng=copy.deepcopy(state.rng)), x)
    assert res.passed, res.report_line()
    assert [a.tobytes() for a in (state.model.theta, state.adam.m, state.adam.v)] == before
    assert state.step == 5
    ((checked, _),) = analytic
    assert astuple(models.train_step(state, x)) == astuple(checked)


# The check of the CHANGES.md FOUND config (ring, hidden 24,24,24 on both
# sides, mmd, lambda 10, batch 64, seed 5), recorded before probes reused
# the forward record: the sha256 of every `loss_and_grads` total it makes
# and its `max_rel_err`. Its status=fail (4.751957e-01 at dec.W2[21,16]) is
# the known false failure of a central difference across a ReLU kink; this
# test pins the bits of that check and does not endorse its verdict.
DEEP_TOTALS_SHA256 = "b2babe305e45d334651d551b2238d533cda61fd285bfaf719e959e19cb0dcf7a"


def test_deep_probe_totals_golden(monkeypatch):
    totals = []
    loss_and_grads = models.loss_and_grads

    def recorded(*args, **kwargs):
        parts, grads = loss_and_grads(*args, **kwargs)
        totals.append(parts.total)
        return parts, grads

    monkeypatch.setattr(models, "loss_and_grads", recorded)
    cfg = TrainConfig(
        dataset="ring", limit=1024, latent_dim=2, enc_hidden=(24, 24, 24),
        dec_hidden=(24, 24, 24), regularizer="mmd", lam=10.0, batch_size=64, seed=5,
    ).validate()
    res = gradcheck.check_config(cfg)
    assert len(totals) == 5389
    assert hashlib.sha256(np.array(totals).tobytes()).hexdigest() == DEEP_TOTALS_SHA256
    assert res.max_rel_err.hex() == "0x1.e699b165c9fdbp-2"
    assert res.report_line() == (
        "regularizer=mmd max_rel_err=4.751957e-01 worst=dec.W2[21,16] "
        "checked=2150 tol=0.0001 status=fail"
    )
