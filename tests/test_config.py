import pytest

from wwae.config import (
    TrainConfig,
    config_from_dict,
    config_lines,
    config_to_dict,
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


def test_dict_roundtrip():
    cfg = TrainConfig(latent_dim=4, dec_hidden=(9,), lr=0.125)
    d = config_to_dict(cfg)
    assert d["lambda"] == 1.0  # keyword-safe key name
    assert config_from_dict(d) == cfg


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
    cfg = parse_config_text("beta1 = 0\nbeta2 = 0.999\neval_every = 0\nlr = 1e-9")
    assert (cfg.beta1, cfg.beta2, cfg.eval_every, cfg.lr) == (0.0, 0.999, 0, 1e-9)
    cfg = parse_config_text("seed = 0\nenc_hidden = 1\ndec_hidden =")
    assert (cfg.seed, cfg.enc_hidden, cfg.dec_hidden) == (0, (1,), ())


@pytest.mark.parametrize(
    "key,value",
    [
        ("enc_hidden", [8, 0]),
        ("dec_hidden", [-1]),
        ("seed", -3),
        # JSON values of another type than the field's
        ("seed", 1.5),
        ("limit", 64.0),
        ("steps", True),
        ("enc_hidden", [8, 2.0]),
        ("dec_hidden", "8,8"),
        ("lambda", "1"),
        ("lr", None),
        ("regularizer", 2),
        ("lambda", float("nan")),
        ("decay_factor", float("inf")),
    ],
)
def test_checkpoint_config_validated(key, value):
    # checkpoint headers carry the config as a dict
    d = config_to_dict(TrainConfig())
    d[key] = value
    with pytest.raises(ValueError, match=f"^{key}"):
        config_from_dict(d)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope.cfg"):
        load_config(tmp_path / "nope.cfg")


def test_reg_kind():
    assert TrainConfig(regularizer="w2", w2_variant="root_product").reg_kind() == "w2_root_product"
    assert TrainConfig(regularizer="w2", w2_variant="bures").reg_kind() == "w2_bures"
    assert TrainConfig(regularizer="kl").reg_kind() == "kl"
    assert TrainConfig(regularizer="mmd").reg_kind() == "mmd"
