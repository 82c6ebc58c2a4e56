import dataclasses
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wwae.config import (
    DATASETS,
    PRIOR_STATS,
    REGULARIZERS,
    W2_VARIANTS,
    TrainConfig,
    config_lines,
    load_config,
    parse_config_text,
)


def test_defaults_follow_training_conventions():
    cfg = TrainConfig()
    assert cfg.lr == 0.005
    assert (cfg.beta1, cfg.beta2) == (0.5, 0.9)
    assert (cfg.decay_every, cfg.decay_factor) == (10_000, 0.9)
    assert cfg.batch_size == 64
    assert cfg.lam == 1.0
    assert cfg.regularizer == "w2"
    assert cfg.prior_stats == "sampled"


def test_parse_basic():
    cfg = parse_config_text(
        """
        # comment line
        dataset = ring
        latent_dim = 3
        enc_hidden = 16,8
        lambda = 2.5
        steps = 10
        """
    )
    assert cfg.latent_dim == 3
    assert cfg.enc_hidden == (16, 8)
    assert cfg.lam == 2.5
    assert cfg.dec_hidden == (64, 64)  # untouched default


def test_parse_empty_tuple():
    cfg = parse_config_text("enc_hidden = \n")
    assert cfg.enc_hidden == ()


def test_unknown_key_names_it():
    with pytest.raises(ValueError, match="lamda"):
        parse_config_text("lamda = 1.0")


def test_bad_value_reports_key():
    with pytest.raises(ValueError, match="steps"):
        parse_config_text("steps = ten")


def test_malformed_line():
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("steps: 5")


def test_echo_roundtrip():
    cfg = TrainConfig(latent_dim=5, enc_hidden=(3, 2), lam=0.25, w2_variant="bures")
    again = parse_config_text("\n".join(config_lines(cfg)))
    assert again == cfg


# Lines for known keys, each with a value that is mostly of its field's type
# and range and sometimes junk, among a few lines of any text.
_KEYS = [line.split(" = ")[0] for line in config_lines(TrainConfig())]
_TYPES = dict(zip(_KEYS, (f.type for f in dataclasses.fields(TrainConfig))))
_GOOD = {
    "int": st.integers(0, 10**6).map(str),
    "float": st.floats(0, 1, exclude_max=True).map(repr),
    "tuple[int, ...]": st.lists(st.integers(1, 70), max_size=4).map(
        lambda ws: ",".join(map(str, ws))
    ),
    "str": st.text(max_size=12),
    "dataset": st.sampled_from(DATASETS),
    "regularizer": st.sampled_from(REGULARIZERS),
    "w2_variant": st.sampled_from(W2_VARIANTS),
    "prior_stats": st.sampled_from(PRIOR_STATS),
}
_JUNK = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=12),
    st.sampled_from(["", "true", "1_0", " 7 ", "0x10", "1,,2"]),
)
_KNOWN_LINE = st.tuples(st.sampled_from(_KEYS), st.integers(0, 5)).flatmap(
    lambda kj: st.builds(
        "{} = {}".format,
        st.just(kj[0]),
        _JUNK if kj[1] == 0 else _GOOD.get(kj[0], _GOOD[_TYPES[kj[0]]]),
    )
)
_ANY_LINE = st.builds("{} = {}".format, st.text(max_size=8), _JUNK) | st.text(max_size=16)
_TEXTS = st.builds(
    operator.add, st.lists(_KNOWN_LINE, max_size=10), st.lists(_ANY_LINE, max_size=1)
).flatmap(st.permutations)


@settings(max_examples=300, deadline=None)
@given(_TEXTS)
def test_any_text_is_rejected_or_echoes_back_equal(lines):
    # checkpoint headers keep the config as its echo lines
    try:
        cfg = parse_config_text("\n".join(lines))
    except ValueError:
        return
    assert parse_config_text("\n".join(config_lines(cfg))) == cfg


@pytest.mark.parametrize(
    "bad",
    [
        dict(lam=-0.5),
        dict(batch_size=1),
        dict(latent_dim=0),
        dict(steps=-1),
        dict(limit=0),
        dict(dataset="celeba"),
        dict(regularizer="sinkhorn"),
        dict(w2_variant="exact"),
        dict(prior_stats="mixed"),
        dict(dataset="idx", data_path=""),
    ],
)
def test_validation_rejects(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad).validate()


@pytest.mark.parametrize(
    "line",
    [
        "lr = -1",
        "lr = 0",
        "lr = nan",
        "beta1 = 1.5",
        "beta1 = 1",
        "beta2 = -0.1",
        "decay_factor = -2",
        "decay_factor = 0",
        "decay_factor = 2",
        "eval_every = -3",
        "mmd_scale = 0",
        "enc_hidden = 0",
        "enc_hidden = 16,0,8",
        "dec_hidden = -4",
        "seed = -1",
        "lambda = nan",
        "lambda = inf",
        "lr = inf",
        "mmd_scale = inf",
        "decay_factor = inf",
    ],
)
def test_out_of_range_value_names_key(line):
    key = line.split(" ")[0]
    with pytest.raises(ValueError, match=f"^{key} must be"):
        parse_config_text(line)


def test_boundary_values_accepted():
    cfg = parse_config_text("beta1 = 0\nbeta2 = 0.999\neval_every = 0\nlr = 1e-9\ndecay_factor = 1")
    assert (cfg.beta1, cfg.beta2, cfg.eval_every, cfg.lr) == (0.0, 0.999, 0, 1e-9)
    assert cfg.decay_factor == 1.0
    cfg = parse_config_text("seed = 0\nenc_hidden = 1\ndec_hidden =")
    assert (cfg.seed, cfg.enc_hidden, cfg.dec_hidden) == (0, (1,), ())


@pytest.mark.parametrize(
    "line",
    [
        "enc_hidden = 8,0",
        "dec_hidden = -1",
        "seed = -3",
        "seed = 1.5",
        "limit = 64.0",
        "steps = true",
        "enc_hidden = 8,2.0",
        "lr = ",
        "regularizer = 2",
        "lambda = nan",
        "decay_factor = inf",
    ],
)
def test_checkpoint_config_validated(line):
    # checkpoint headers keep the config as its echo lines; one of them edited
    key = line.split(" = ")[0]
    lines = [line if old.split(" = ")[0] == key else old for old in config_lines(TrainConfig())]
    with pytest.raises(ValueError, match=f"^(bad value for '{key}'|{key} must)"):
        parse_config_text("\n".join(lines))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope.cfg"):
        load_config(tmp_path / "nope.cfg")

